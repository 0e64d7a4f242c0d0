"""Tests for the quadrature and enumeration oracles and the validation suite."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from deepibp import ibp, model, oracle
from deepibp.oracle import (
    enumerate_masks,
    freq_standard_error,
    lof_class_probabilities,
    marginal_weight_quadrature,
    mc_lof_histogram,
    run_validation,
    slab_density_quadrature,
    slab_logmarginal_quadrature,
)


def test_enumerate_masks_counts_and_uniqueness():
    assert enumerate_masks(1, 1).shape == (2, 1, 1)
    assert enumerate_masks(2, 1).shape == (4, 2, 1)
    masks = enumerate_masks(3, 2)
    assert masks.shape == (64, 3, 2)
    keys = {m.tobytes() for m in masks}
    assert len(keys) == 64
    with pytest.raises(ValueError):
        enumerate_masks(4, 4)


def test_spike_mass_quadrature_hand_value():
    # N=2, one other row, inactive, a=1: P(slab) = 1/3 so the spike
    # carries 2/3.
    mass = marginal_weight_quadrature(0.0, 0, 2, 1.0, 2.0, 1.0)
    assert abs(mass - 2.0 / 3.0) < 1e-6


def test_slab_density_quadrature_matches_student_t():
    # With the inclusion fixed aside, the slab predictive is the
    # conjugate t; the variance-axis quadrature must agree with it.
    for m_minus, sq in ((0, 0.0), (2, 1.3), (5, 4.0)):
        df, scale = model.slab_predictive_params(m_minus, sq, 2.0, 1.5)
        for w in (0.0, 0.7, -2.2):
            got = slab_density_quadrature(w, m_minus, sq, 2.0, 1.5)
            assert abs(got - math.exp(model.student_t_logpdf(w, df, scale))) < 1e-8


def test_slab_logmarginal_quadrature_matches_closed_form():
    # The grid's ends follow the integrand's peak and fall-off, so they
    # must hold from an empty column to a wide one, at every prior.
    cases = itertools.product((0.0, 1e-6, 0.3, 3.7, 50.0, 1e3), (0, 1, 4, 40),
                              (0.5, 2.0, 4.0), (0.1, 1.0, 3.0))
    for sq, count, shape, scale in cases:
        got = slab_logmarginal_quadrature(sq, count, shape, scale)
        expect = model.slab_column_logmarginal(sq, count, shape, scale)
        assert abs(got - expect) < 1e-8, (sq, count, shape, scale)


def test_marginal_weight_quadrature_vanishes_in_the_tails():
    val = marginal_weight_quadrature(120.0, 1, 4, 1.0, 2.0, 1.0, other_sq_sum=0.5)
    assert val < 1e-6


def test_mc_lof_histogram_basics():
    rng = np.random.default_rng(0)
    empty = mc_lof_histogram(ibp.sample_ibp_sequential, 2, 1.0, 0, rng)
    assert empty == {}
    freqs = mc_lof_histogram(ibp.sample_ibp_sequential, 2, 1.0, 2000, rng)
    assert abs(sum(freqs.values()) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        mc_lof_histogram(ibp.sample_ibp_sequential, 4, 1.0, 10, rng)


def test_lof_class_probabilities_sum_near_one():
    total = sum(p for _, p in lof_class_probabilities(3, 1.0, max_k=8))
    assert 0.999 < total <= 1.0 + 1e-12


def test_lof_class_probabilities_match_process_law():
    for cls, p in lof_class_probabilities(2, 1.5, max_k=3):
        if not cls:
            continue
        direct = math.exp(ibp.logprob_mask_ibp(np.array(cls).T, 1.5))
        assert abs(p - direct) < 1e-12


def test_freq_standard_error():
    assert freq_standard_error(0.5, 100) == 0.05
    assert freq_standard_error(0.0, 10) == 0.0


def test_frozen_kernel_state_is_reproducible_and_consistent():
    a = oracle.frozen_kernel_state()
    b = oracle.frozen_kernel_state()
    assert a.target.hyper == b.target.hyper
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.mask, b.mask)
    a.check_consistency()
    assert a.N == 4 and a.K == 2 and a.T == 10


def _toy_geweke(scale, seed=0):
    rng = np.random.default_rng(seed)

    def forward():
        x = rng.standard_normal(3)
        return x.mean(), (x * x).mean()

    def step():
        x = scale * rng.standard_normal(3)
        return x.mean(), (x * x).mean()

    return oracle.geweke(forward, step, ["mean", "sq"],
                         n_prior=4000, n_sweeps=4200, burn_in=200, batches=20)


def test_geweke_harness_passes_an_exact_step():
    zs = _toy_geweke(1.0)
    assert list(zs) == ["mean", "sq"]
    assert max(zs.values()) < 4.0


def test_geweke_harness_flags_a_wrong_step():
    assert _toy_geweke(1.5)["sq"] > 20.0


def _birth_death_geweke(birth_bias, seed=0):
    # K ~ Poisson(3) values, each N(0, 1).  The chain proposes a birth
    # (a fresh N(0, 1) value) or the death of a uniformly chosen value,
    # each with probability 1/2; the exact acceptance ratios are
    # rate / (K + 1) and K / rate.  ``birth_bias`` misprices the births.
    rate = 3.0
    rng = np.random.default_rng(seed)
    values = []

    def stats(v):
        return len(v), float(np.dot(v, v))

    def forward():
        return stats(rng.standard_normal(rng.poisson(rate)))

    def step():
        k = len(values)
        if rng.random() < 0.5:
            v = rng.standard_normal()
            if rng.random() < birth_bias * rate / (k + 1):
                values.append(v)
        elif k and rng.random() < k / rate:
            values.pop(rng.integers(k))
        return stats(values)

    return oracle.geweke(forward, step, ["K", "sum_sq"], n_prior=4000, n_sweeps=8200,
                         burn_in=200, batches=20)


def test_geweke_harness_takes_draws_that_change_dimension():
    # Seeds 0-11 gave max |z| <= 2.6 for the exact chain and
    # |z_K| 5.6-11.1 with births priced 1.5 times too high.
    assert max(_birth_death_geweke(1.0).values()) < 4.0
    assert _birth_death_geweke(1.5)["K"] > 5.0


@pytest.mark.parametrize("side", ["forward", "step"])
def test_geweke_rejects_a_draw_of_the_wrong_length(side):
    calls = []

    def good():
        return 0.0, 1.0

    def bad():
        calls.append(None)
        return (0.0, 1.0, 2.0) if len(calls) == 4 else (0.0, 1.0)

    forward, step = (bad, good) if side == "forward" else (good, bad)
    with pytest.raises(ValueError, match=f"{side} draw 3 has 3 statistics, expected 2"):
        oracle.geweke(forward, step, ["a", "b"], n_prior=10, n_sweeps=10, burn_in=0, batches=2)


def _direct_geweke(forward, step, names, n_prior, n_sweeps, burn_in, batches):
    # The z-scores computed from every kept draw at once.
    prior = np.array([forward() for _ in range(n_prior)])
    for _ in range(burn_in):
        step()
    chain = np.array([step() for _ in range(n_sweeps - burn_in)])
    kept = n_sweeps - burn_in
    batch_means = chain[: kept // batches * batches].reshape(batches, -1, len(names)).mean(axis=1)
    zs = {}
    for j, name in enumerate(names):
        se_prior = prior[:, j].std(ddof=1) / math.sqrt(n_prior)
        se_chain = batch_means[:, j].std(ddof=1) / math.sqrt(batches)
        zs[name] = float(
            abs(prior[:, j].mean() - chain[:, j].mean()) / math.hypot(se_prior, se_chain)
        )
    return zs


def test_geweke_zs_match_a_direct_computation():
    # The kept chain draws leave a remainder that fills no batch.
    n_prior, n_sweeps, burn_in, batches = 2061, 1084, 31, 6
    assert (n_sweeps - burn_in) % batches

    def run(harness):
        rng = np.random.default_rng(5)
        state = np.zeros(4)

        def forward():
            a, b = rng.standard_normal((2, 3)), rng.gamma(2.0, size=4)
            return (a * a).mean(), np.log(b).sum(), a[0, 0] * b[-1]

        def step():
            state[:] = 0.8 * state + 0.6 * rng.standard_normal(4)
            a, b = np.outer(state[:2], state[1:]), np.exp(state)
            return (a * a).mean(), np.log(b).sum(), a[0, 0] * b[-1]

        return harness(forward, step, ["sq", "log_b", "mix"], n_prior=n_prior,
                       n_sweeps=n_sweeps, burn_in=burn_in, batches=batches)

    got = run(oracle.geweke)
    expect = run(_direct_geweke)
    assert list(got) == list(expect)
    assert [v.hex() for v in got.values()] == [v.hex() for v in expect.values()]


def _traced_peak_mb(fn):
    """Peak of the memory ``fn`` holds at once above what was held before, in MB."""
    fn()  # warm: imports and lazy set-up are not the check's own memory
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()


def _wide_toy_geweke():
    rng = np.random.default_rng(1)

    def forward():
        x = rng.standard_normal(50)
        return x.mean(), (x * x).mean()

    return oracle.geweke(forward, forward, ["mean", "sq"], n_prior=20_000, n_sweeps=40,
                         burn_in=0, batches=4)


@pytest.mark.parametrize("fn, limit_mb", [
    (oracle._check_ibp_finite_limit, 1.0),
    (lambda: oracle.weight_kernel_tv(kept=50, thin=1), 4.0),
    (lambda: oracle.factor_kernel_tv(kept=50, thin=1), 2.5),
    (_wide_toy_geweke, 2.0),
    (oracle._check_spike_slab_integrates, 2.0),
    (lambda: oracle.ibp_sampler_max_z(num_draws=2000, seed=11), 1.0),
], ids=["finite_limit", "weight_tv", "factor_tv", "geweke_20k_by_50", "spike_slab_grid",
        "ibp_sampler"])
def test_oracle_checks_run_in_bounded_memory(fn, limit_mb):
    # numpy reports its buffers to tracemalloc.  Keeping every raw draw,
    # a million-column mask, a whole (grid, T) temporary, a second
    # 100,001-point grid or the table of every left-ordered class would
    # break these limits.
    assert _traced_peak_mb(fn) < limit_mb


@pytest.mark.parametrize("sizes, name", [
    (dict(n_prior=1, n_sweeps=10, burn_in=0, batches=5), "n_prior"),
    (dict(n_prior=50, n_sweeps=10, burn_in=-1, batches=5), "burn_in"),
    (dict(n_prior=50, n_sweeps=10, burn_in=0, batches=1), "batches"),
    (dict(n_prior=50, n_sweeps=10, burn_in=8, batches=5), "n_sweeps"),
])
def test_geweke_rejects_sizes_that_cannot_give_a_z(sizes, name):
    with pytest.raises(ValueError, match=name):
        oracle.geweke_moment_zs(**sizes)


def test_validation_suite_all_green():
    report = run_validation()
    assert report.ok, "\n".join(report.lines())
    assert report.lines()[-1] == "all checks passed"
    for line in report.lines()[:-1]:
        assert line.startswith("ok  ")
        assert "max error" in line and "tol" in line


def test_validation_suite_detects_perturbed_constant(spike_mass_too_high):
    report = run_validation()
    assert not report.ok
    lines = report.lines()
    assert lines[-1] == "validation FAILED"
    failing = [line for line in lines if line.startswith("FAIL")]
    assert len(failing) == 1
    assert failing[0].startswith("FAIL spike mass closed form vs quadrature:")


def test_validation_check_line_format():
    check = oracle.ValidationCheck(name="example", error=2e-3, tol=1e-2)
    assert check.passed
    assert check.line() == "ok   example: max error 2.000e-03 (tol 1.0e-02)"
    bad = oracle.ValidationCheck(name="example", error=2e-2, tol=1e-2)
    assert not bad.passed
    assert bad.line().startswith("FAIL")
