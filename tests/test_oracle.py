"""Tests for the quadrature and enumeration oracles and the validation suite."""

import math

import numpy as np
import pytest
from scipy import stats

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
    for sq, count in ((0.0, 0), (1.0, 1), (3.7, 4)):
        got = slab_logmarginal_quadrature(sq, count, 2.0, 1.0)
        expect = model.slab_column_logmarginal(sq, count, 2.0, 1.0)
        assert abs(got - expect) < 1e-8


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
    probs = lof_class_probabilities(3, 1.0, max_k=8)
    total = sum(probs.values())
    assert 0.999 < total <= 1.0 + 1e-12


def test_lof_class_probabilities_match_process_law():
    probs = lof_class_probabilities(2, 1.5, max_k=3)
    for cls, p in probs.items():
        if cls.matrix.shape[1] == 0:
            continue
        direct = math.exp(ibp.logprob_mask_ibp(cls.matrix, 1.5))
        assert abs(p - direct) < 1e-12


def test_freq_standard_error():
    assert freq_standard_error(0.5, 100) == 0.05
    assert freq_standard_error(0.0, 10) == 0.0


def test_frozen_kernel_state_is_reproducible_and_consistent():
    a = oracle.frozen_kernel_state()
    b = oracle.frozen_kernel_state()
    assert a.layer_hyper == b.layer_hyper
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.mask, b.mask)
    a.check_consistency()
    assert a.N == 4 and a.K == 2 and a.T == 10


def _toy_geweke(scale, seed=0):
    rng = np.random.default_rng(seed)

    def forward():
        return rng.standard_normal(3)

    def stats(x):
        return {"mean": x.mean(axis=1), "sq": (x * x).mean(axis=1)}

    return oracle.geweke(forward, lambda: scale * forward(), stats,
                         n_prior=4000, n_sweeps=4200, burn_in=200, batches=20)


def test_geweke_harness_passes_an_exact_step():
    zs = _toy_geweke(1.0)
    assert set(zs) == {"mean", "sq"}
    assert max(zs.values()) < 4.0


def test_geweke_harness_flags_a_wrong_step():
    assert _toy_geweke(1.5)["sq"] > 20.0


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
