"""Tests for the factor-count recovery study driver."""

import math
import signal

import numpy as np
import pytest

from deepibp import dataio
from deepibp.experiment import (
    _expected_truth_draws,
    DEFAULT_INITS,
    ExperimentConfig,
    TrialResult,
    emit_report,
    init_name,
    make_dataset,
    make_truth,
    point_estimate,
    run_experiment,
    run_trial,
    summarize,
    trace_filename,
)
from deepibp.inference import ChainTrace
from deepibp.model import HyperParams, LayerHyper, _prior_columns


def _tiny_cfg(**overrides):
    base = dict(
        n_dims=6,
        n_instances=12,
        k_true_values=(2, 3),
        inits=(2, 4),
        iterations=6,
        replicates=2,
        base_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _timed_out(signum, frame):
    raise TimeoutError("did not return within the alarm")


def _fake_result(k_true, init_index, init_name, replicate, k_hat):
    n = 4
    trace = ChainTrace(
        k=np.full(n, int(round(k_hat))),
        log_joint=np.zeros(n),
        accepted_adds=np.zeros(n, dtype=np.int64),
        accepted_deletes=np.zeros(n, dtype=np.int64),
    )
    return TrialResult(
        k_true=k_true, init_index=init_index, init_name=init_name,
        replicate=replicate, seed_key=(0, k_true, init_index, replicate),
        trace=trace, k_hat=k_hat, wall_seconds=0.0,
    )


# -- init strategies ---------------------------------------------------------

def test_init_strategy_names():
    assert init_name(2) == "fixed2"
    assert init_name((3, 10)) == "random3to10"
    # Inits are init_k values; a range given as a list becomes a pair.
    assert _tiny_cfg(inits=(7, [3, 10])).inits == (7, (3, 10))


def test_init_strategy_validation():
    for bad in ((5, 2), -1, 2.5, (3, 4.5), (1, 2, 3), "2"):
        with pytest.raises(ValueError, match="inits"):
            _tiny_cfg(inits=(bad,))


def test_default_inits():
    assert [init_name(k) for k in DEFAULT_INITS] == ["fixed2", "fixed10", "random3to10"]
    assert ExperimentConfig().inits == DEFAULT_INITS


# -- configuration -----------------------------------------------------------

def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(replicates=0)
    with pytest.raises(ValueError):
        ExperimentConfig(k_true_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(burn_in=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(iterations=0)
    with pytest.raises(ValueError):
        ExperimentConfig(inits=())
    # Dimensions the study cannot draw data for.
    for key, bad in (("n_dims", 0), ("n_dims", -1), ("n_instances", 0), ("k_true_values", (3, -2))):
        with pytest.raises(ValueError, match=f"{key} must be >= "):
            _tiny_cfg(**{key: bad})
    for key, bad in (("replicates", 1.5), ("iterations", 2.0), ("n_dims", 6.5),
                     ("n_instances", "12"), ("k_true_values", (2.7,))):
        with pytest.raises(ValueError, match=key):
            _tiny_cfg(**{key: bad})


def test_expected_truth_draws_matches_the_prior():
    # A draw is kept when each of its K columns links two dimensions, so
    # the expected draw count is the per-column keep rate to the -K.
    n_dims, k, alpha = 6, 4, 3.0
    mask, _ = _prior_columns(n_dims, 40_000, alpha / k, 2.0, 1.0, np.random.default_rng(3))
    keep = float(np.mean(mask.sum(axis=0) >= 2))
    se = math.sqrt(keep * (1.0 - keep) / mask.shape[1])
    draws = _expected_truth_draws(n_dims, k, alpha)
    assert (keep + 4 * se) ** -k < draws < (keep - 4 * se) ** -k
    assert _expected_truth_draws(n_dims, 0, alpha) == 1.0
    assert _expected_truth_draws(1, 2, alpha) == math.inf
    # At n_dims 16 and alpha 3 the study draws K_true 10 in about 1.1e3
    # tries; K_true 20 takes about 3.8e10, past the limit of 1e6.
    assert _expected_truth_draws(16, 10, 3.0) == pytest.approx(1.1e3, rel=0.05)
    assert _expected_truth_draws(16, 20, 3.0) == pytest.approx(3.8e10, rel=0.05)


def test_experiment_config_hyper():
    assert ExperimentConfig().layer_hyper == HyperParams().layer(0)
    lh = LayerHyper(alpha_ibp=2.5, ig_shape=3.0, ig_scale=1.0, sigma_top=1.0, sigma_floor=1e-6)
    hyper = _tiny_cfg(layer_hyper=lh).hyper(5)
    assert hyper.layer_widths == (5,)
    layer = hyper.layer(0)
    assert layer.alpha_ibp == 2.5
    assert layer.ig_shape == 3.0
    assert layer == lh


# -- data generation ---------------------------------------------------------

def test_make_truth_columns_well_used():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(0)
    for k_true in (2, 3, 4):
        truth = make_truth(cfg, k_true, rng)
        counts = truth.layers[-1].column_counts
        assert counts.shape == (k_true,)
        assert (counts >= 2).all()


def test_make_truth_rejects_unlinkable_columns():
    # One dimension cannot give any column two links; the redraw loop
    # would never end, so make_truth must refuse.  The alarm turns a
    # hang into a failure.
    rng = np.random.default_rng(0)
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(30)
    try:
        with pytest.raises(ValueError, match="cannot each link two"):
            make_truth(_tiny_cfg(n_dims=1), 2, rng)
        assert make_truth(_tiny_cfg(n_dims=1), 0, rng).layers[-1].shape == (1, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_make_dataset_shape_and_determinism():
    cfg = _tiny_cfg()
    X1 = make_dataset(cfg, 3)
    X2 = make_dataset(cfg, 3)
    assert X1.shape == (cfg.n_dims, cfg.n_instances)
    np.testing.assert_array_equal(X1, X2)
    # A different true count or base seed gives different data.
    assert not np.array_equal(X1, make_dataset(cfg, 2))
    assert not np.array_equal(X1, make_dataset(_tiny_cfg(base_seed=43), 3))


# -- point estimate ----------------------------------------------------------

def test_point_estimate_burn_math():
    k = np.arange(1, 11)
    assert point_estimate(k, 0.75) == pytest.approx(9.0)  # mean of 8, 9, 10
    assert point_estimate(k, 0.0) == pytest.approx(5.5)
    assert point_estimate(np.array([4]), 0.0) == 4.0


# -- single trials -----------------------------------------------------------

def test_run_trial_shape_and_determinism():
    cfg = _tiny_cfg()
    r1 = run_trial(cfg, 3, 0, 1)
    r2 = run_trial(cfg, 3, 0, 1)
    assert len(r1.trace) == cfg.iterations
    assert r1.k_hat >= 0.0
    assert r1.seed_key == (42, 3, 0, 1)
    assert r1.init_name == "fixed2"
    np.testing.assert_array_equal(r1.trace.k, r2.trace.k)
    np.testing.assert_array_equal(r1.trace.log_joint, r2.trace.log_joint)
    assert r1.k_hat == r2.k_hat


def test_run_trial_replicates_differ():
    cfg = _tiny_cfg()
    r0 = run_trial(cfg, 3, 0, 0)
    r1 = run_trial(cfg, 3, 0, 1)
    assert not np.array_equal(r0.trace.log_joint, r1.trace.log_joint)


# -- aggregation -------------------------------------------------------------

def test_summarize_hand_values():
    results = [
        _fake_result(3, 0, "fixed2", rep, k_hat)
        for rep, k_hat in enumerate([3.0, 4.0, 5.0])
    ]
    results.append(_fake_result(3, 1, "fixed10", 0, 6.0))
    stats = summarize(results)
    cell = stats.cell(3, "fixed2")
    assert cell.mean == pytest.approx(4.0)
    assert cell.variance == pytest.approx(1.0)
    assert cell.count == 3
    single = stats.cell(3, "fixed10")
    assert single.variance == 0.0
    assert single.count == 1
    with pytest.raises(KeyError):
        stats.cell(9, "fixed2")


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


# -- the full grid -----------------------------------------------------------

def test_run_experiment_grid_order_and_parallel_invariance():
    cfg = _tiny_cfg()
    results, stats = run_experiment(cfg, jobs=1)
    assert len(results) == 2 * 2 * 2
    expected_keys = [
        (42, k, i, r)
        for k in (2, 3)
        for i in (0, 1)
        for r in (0, 1)
    ]
    assert [r.seed_key for r in results] == expected_keys
    assert len(stats.rows) == 4
    assert all(row.count == 2 for row in stats.rows)

    par_results, par_stats = run_experiment(cfg, jobs=2)
    assert [r.k_hat for r in par_results] == [r.k_hat for r in results]
    for a, b in zip(par_results, results):
        np.testing.assert_array_equal(a.trace.k, b.trace.k)
        np.testing.assert_array_equal(a.trace.log_joint, b.trace.log_joint)
    assert par_stats == stats


# -- reporting ---------------------------------------------------------------

def test_trace_filename():
    assert trace_filename(5, 1, 7) == "Ktrue5_init1_rep7.csv"


def test_emit_report_layout_and_rerun_identical(tmp_path):
    cfg = _tiny_cfg()
    results, stats = run_experiment(cfg, jobs=1)

    out1 = tmp_path / "run1"
    emit_report(stats, results, out1, cfg=cfg, jobs=1)
    summary = (out1 / "summary.csv").read_text()
    lines = summary.strip().split("\n")
    assert lines[0] == "K_true,init,mean,variance"
    assert len(lines) == 1 + len(stats.rows)
    trace_files = sorted(p.name for p in (out1 / "traces").iterdir())
    assert len(trace_files) == len(results)
    assert trace_filename(2, 0, 0) in trace_files

    manifest = dataio.read_json(out1 / "manifest.json")
    assert manifest["kind"] == "factor-recovery-experiment"
    assert manifest["config"]["base_seed"] == 42
    assert manifest["config"]["k_true_values"] == [2, 3]
    assert [s["name"] for s in manifest["inits"]] == ["fixed2", "fixed4"]
    assert manifest["hyper"] == {"alpha_ibp": 3.0, "ig_shape": 2.0, "ig_scale": 1.0,
                                 "sigma_top": 1.0, "sigma_floor": 1e-6}
    assert not set(manifest["hyper"]) & set(manifest["config"])

    # A fresh computation writes byte-identical CSV bodies.
    results2, stats2 = run_experiment(cfg, jobs=2)
    out2 = tmp_path / "run2"
    emit_report(stats2, results2, out2, cfg=cfg, jobs=2)
    assert (out2 / "summary.csv").read_text() == summary
    for name in trace_files:
        assert (out2 / "traces" / name).read_text() == (out1 / "traces" / name).read_text()
