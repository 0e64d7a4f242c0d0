"""Acceptance suite: one test per release criterion.

Each test prints a single CRITERION n PASS/FAIL line with the measured
quantities (visible under ``pytest -rP`` or ``-s``) and asserts both
the stated tolerance and the runtime budget.
"""

import math
import time

import numpy as np

from deepibp import ibp, model, oracle
from deepibp.cli import main as cli_main
from deepibp.experiment import ExperimentConfig, run_experiment
from deepibp.inference import ChainState, log_ratio_add, log_ratio_delete
from deepibp.model import LayerHyper, LayerTarget


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_mask_marginal_normalizes():
    started = time.perf_counter()
    worst = 0.0
    masks = oracle.enumerate_masks(3, 2)
    assert len(masks) == 64
    for alpha in (0.5, 1.0, 3.0):
        total = sum(math.exp(ibp.logprob_mask_marginal(m, alpha)) for m in masks)
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        worst < 1e-10 and elapsed < 1.0,
        f"64-mask normalization error {worst:.3e} (tol 1e-10), {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_2_ibp_law():
    started = time.perf_counter()
    class_z = oracle.ibp_sampler_max_z(100_000, seed=13)
    dish_z = oracle.dish_count_mean_z(20_000, seed=13)
    elapsed = time.perf_counter() - started
    _verdict(
        2,
        class_z < 3.0 and dish_z < 3.0 and elapsed < 30.0,
        f"lof-class max |z| {class_z:.2f}, dish-count |z| {dish_z:.2f} "
        f"(limit 3 SE each), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_3_spike_posterior_vs_quadrature():
    started = time.perf_counter()
    N = 8
    worst = 0.0
    for m_minus in (0, 1, 2, 3, 7):
        for a in (0.1, 0.5, 1.0, 2.0, 5.0):
            closed, _ = model.spike_slab_predictive(m_minus, N, a)
            quad = oracle.marginal_weight_quadrature(0.0, m_minus, N, a, 2.0, 1.0)
            worst = max(worst, abs(closed - quad))
    elapsed = time.perf_counter() - started
    _verdict(
        3,
        worst < 1e-6 and elapsed < 60.0,
        f"spike mass error {worst:.3e} over 5x5 grid (tol 1e-6), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_4_kernel_total_variation():
    started = time.perf_counter()
    tv_w = oracle.weight_kernel_tv()
    tv_y = oracle.factor_kernel_tv()
    elapsed = time.perf_counter() - started
    _verdict(
        4,
        tv_w < 1e-2 and tv_y < 1e-2 and elapsed < 120.0,
        f"weight kernel TV {tv_w:.2e}, factor kernel TV {tv_y:.2e} "
        f"(tol 1e-2 each), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_5_geweke_two_paths_agree():
    started = time.perf_counter()
    zs = oracle.geweke_moment_zs()
    elapsed = time.perf_counter() - started
    worst = max(zs.values())
    listed = ", ".join(f"{k}={v:.2f}" for k, v in sorted(zs.items()))
    _verdict(
        5,
        worst < 4.0 and elapsed < 120.0,
        f"moment |z|: {listed} (limit 4 SE each), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_6_factor_count_recovery():
    started = time.perf_counter()
    cfg = ExperimentConfig(k_true_values=(3, 5, 8))
    results, stats = run_experiment(cfg, jobs=1)
    elapsed = time.perf_counter() - started

    pooled = {}
    for k_true in cfg.k_true_values:
        vals = [r.k_hat for r in results if r.k_true == k_true]
        assert len(vals) == len(cfg.inits) * cfg.replicates
        pooled[k_true] = float(np.mean(vals))

    in_band = all(k - 1.0 <= pooled[k] <= k + 5.0 for k in cfg.k_true_values)
    nondecreasing = pooled[3] <= pooled[5] <= pooled[8]
    over_count = sum(pooled[k] > k for k in cfg.k_true_values)
    init_gaps = {
        k: stats.cell(k, "fixed10").mean - stats.cell(k, "fixed2").mean
        for k in cfg.k_true_values
    }
    init_ordered = all(gap >= 0.0 for gap in init_gaps.values())

    pooled_str = ", ".join(f"K={k}: {pooled[k]:.2f}" for k in cfg.k_true_values)
    gaps_str = ", ".join(f"K={k}: {g:+.2f}" for k, g in init_gaps.items())
    _verdict(
        6,
        in_band and nondecreasing and over_count >= 2 and init_ordered and elapsed < 900.0,
        f"pooled K-hat [{pooled_str}] (band [K-1, K+5]), nondecreasing={nondecreasing}, "
        f"over-estimated {over_count}/3 cells (need >=2), init10-init2 gaps [{gaps_str}] "
        f"(need >=0), {elapsed:.0f}s (limit 900s)",
    )


def test_criterion_7_reruns_and_jobs_are_byte_identical(tmp_path):
    import json

    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({
        "model": {"layer_widths": [3]},
        "experiment": {"n_dims": 8, "n_instances": 20},
    }))
    inf_cfg = tmp_path / "inf.json"
    inf_cfg.write_text(json.dumps({"inference": {"iterations": 5}}))
    exp_cfg = tmp_path / "exp.json"
    exp_cfg.write_text(json.dumps({
        "experiment": {
            "n_dims": 8, "n_instances": 20, "k_true_values": [3],
            "inits": [{"kind": "fixed", "value": 2}, {"kind": "fixed", "value": 10}],
            "iterations": 5, "replicates": 2,
        }
    }))

    def run(args):
        assert cli_main(args) == 0

    for name in ("g1", "g2"):
        run(["generate", "--config", str(gen_cfg), "--out", str(tmp_path / name), "--seed", "21"])
    data = str(tmp_path / "g1" / "data.csv")
    gen_same = (
        (tmp_path / "g1" / "data.csv").read_bytes() == (tmp_path / "g2" / "data.csv").read_bytes()
        and (tmp_path / "g1" / "truth.json").read_bytes() == (tmp_path / "g2" / "truth.json").read_bytes()
    )

    for name in ("f1", "f2"):
        run(["infer", data, "--config", str(inf_cfg), "--out", str(tmp_path / name), "--seed", "21"])
    inf_same = (
        (tmp_path / "f1" / "trace_layer1.csv").read_bytes()
        == (tmp_path / "f2" / "trace_layer1.csv").read_bytes()
        and (tmp_path / "f1" / "state.json").read_bytes() == (tmp_path / "f2" / "state.json").read_bytes()
    )

    for name, jobs in (("e1", "1"), ("e2", "1"), ("e4", "2")):
        run(["experiment", "--config", str(exp_cfg), "--out", str(tmp_path / name),
             "--seed", "17", "--jobs", jobs])

    def experiment_bytes(name):
        out = tmp_path / name
        blobs = [(out / "summary.csv").read_bytes()]
        for trace in sorted((out / "traces").iterdir()):
            blobs.append(trace.read_bytes())
        return blobs

    rerun_same = experiment_bytes("e1") == experiment_bytes("e2")
    jobs_same = experiment_bytes("e1") == experiment_bytes("e4")

    _verdict(
        7,
        gen_same and inf_same and rerun_same and jobs_same,
        f"generate rerun identical={gen_same}, infer rerun identical={inf_same}, "
        f"experiment rerun identical={rerun_same}, jobs 1 vs 2 identical={jobs_same}",
    )


def test_criterion_8_add_delete_reciprocity():
    rng = np.random.default_rng(808)
    worst_recip = 0.0
    worst_joint = 0.0
    for i in range(100):
        N = int(rng.integers(2, 9))
        T = int(rng.integers(3, 13))
        k_small = 0 if i % 7 == 0 else int(rng.integers(1, 6))
        alpha = float(rng.choice([0.5, 1.0, 3.0]))
        hyper = LayerHyper(
            alpha_ibp=alpha,
            ig_shape=float(rng.choice([2.0, 3.0])),
            ig_scale=float(rng.choice([0.5, 1.0, 2.0])),
            sigma_top=1.0,
            sigma_floor=1e-6,
        )
        target = LayerTarget(hyper)
        if i % 3 == 0:
            width = max(1, k_small + int(rng.integers(-1, 3)))
            target = LayerTarget(
                hyper,
                upper_weights=rng.standard_normal((width, 2)),
                upper_factors=rng.standard_normal((2, T)),
            )
        mask = (rng.random((N, k_small)) < rng.choice([0.35, 0.6, 0.9])).astype(np.int8)
        if k_small and i % 5 == 0:
            mask[:, int(rng.integers(k_small))] = 0
        slab = rng.standard_normal((N, k_small)) * mask
        Y = rng.standard_normal((k_small, T))
        # Data drawn at the state's own emission scale; otherwise the
        # log-joint magnitude (floor-scale rows vs O(1) data) swamps the
        # identity in float cancellation.
        sigma_x = model.propagate_sigma_matrix(mask * slab, Y, hyper.sigma_floor)
        X = sigma_x * rng.standard_normal((N, T))
        small = ChainState(
            X=X, Y=Y, mask=mask, slab=slab,
            target=target,
        )

        grown_mask = np.hstack([small.mask, np.zeros((N, 1), dtype=np.int8)])
        grown_slab = np.hstack([small.slab, np.zeros((N, 1))])
        probe = ChainState(
            X=X, Y=np.vstack([small.Y, np.zeros(T)]), mask=grown_mask,
            slab=grown_slab, target=target,
        )
        sigma_row = probe.sigma_y[-1]
        y_new = rng.standard_normal(T) * sigma_row
        large = ChainState(
            X=X, Y=np.vstack([small.Y, y_new]), mask=grown_mask,
            slab=grown_slab, target=target,
        )

        r_add = log_ratio_add(small)
        r_del = log_ratio_delete(large, large.K - 1)
        worst_recip = max(worst_recip, abs(r_add + r_del))

        if small.K_plus == 0:
            structure = -math.log(small.K + 1.0)
        else:
            structure = -math.log(small.K + 1.0) - math.log(small.K_plus / small.K)
        direct = model.log_joint(large) - model.log_joint(small)
        new_row_prior = model.gaussian_loglik(y_new.reshape(1, T), sigma_row.reshape(1, T))
        worst_joint = max(worst_joint, abs((r_add - structure) - (direct - new_row_prior)))

    _verdict(
        8,
        worst_recip < 1e-10 and worst_joint < 1e-8,
        f"add+delete log-ratio residual {worst_recip:.3e} (tol 1e-10), "
        f"deviation from direct log-joint difference {worst_joint:.3e} (tol 1e-8) over 100 pairs",
    )
