"""Tests for the binary mask laws: finite Beta-Bernoulli and the process limit."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from deepibp import ibp, model
from deepibp.oracle import enumerate_masks, mc_lof_histogram


def test_as_binary_matrix_accepts_and_casts():
    Z = ibp.as_binary_matrix([[0, 1], [1, 0]])
    assert Z.dtype == np.int8
    assert Z.shape == (2, 2)


def test_as_binary_matrix_accepts_empty_width():
    Z = ibp.as_binary_matrix(np.zeros((3, 0)))
    assert Z.shape == (3, 0)


def test_as_binary_matrix_rejects_bad_entries_and_shape():
    with pytest.raises(ValueError):
        ibp.as_binary_matrix(np.array([[0, 2]]))
    with pytest.raises(ValueError):
        ibp.as_binary_matrix(np.zeros(4))


def test_harmonic_number_hand_values():
    assert ibp.harmonic_number(0) == 0.0
    assert ibp.harmonic_number(1) == 1.0
    assert abs(ibp.harmonic_number(3) - 11.0 / 6.0) < 1e-15
    direct = sum(1.0 / j for j in range(1, 101))
    assert abs(ibp.harmonic_number(100) - direct) < 1e-14
    with pytest.raises(ValueError):
        ibp.harmonic_number(-1)


def test_mask_marginal_two_by_one_hand_table():
    # N=2, K=1, alpha=1: the four masks carry 1/3, 1/6, 1/6, 1/3.
    Z_by_count = {
        0: np.array([[0], [0]]),
        1: np.array([[1], [0]]),
        2: np.array([[1], [1]]),
    }
    assert abs(math.exp(ibp.logprob_mask_marginal(Z_by_count[0], 1.0)) - 1.0 / 3.0) < 1e-12
    assert abs(math.exp(ibp.logprob_mask_marginal(Z_by_count[1], 1.0)) - 1.0 / 6.0) < 1e-12
    assert abs(math.exp(ibp.logprob_mask_marginal(Z_by_count[2], 1.0)) - 1.0 / 3.0) < 1e-12


def test_mask_marginal_empty_mask_has_probability_one():
    assert ibp.logprob_mask_marginal(np.zeros((4, 0), dtype=np.int8), 2.0) == 0.0


def test_mask_marginal_normalizes_for_all_small_shapes():
    for N in (1, 2, 3):
        for K in (1, 2):
            for alpha in (0.5, 1.0, 3.0):
                total = sum(
                    math.exp(ibp.logprob_mask_marginal(Z, alpha))
                    for Z in enumerate_masks(N, K)
                )
                assert abs(total - 1.0) < 1e-10, (N, K, alpha)


def test_mask_marginal_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        ibp.logprob_mask_marginal(np.zeros((2, 1)), 0.0)


def test_left_order_form_idempotent():
    rng = np.random.default_rng(1)
    Z = (rng.random((3, 4)) < 0.5).astype(np.int8)
    once = ibp.left_order_form(Z)
    twice = ibp.left_order_form(np.array(once).T)
    assert once == twice


def test_left_order_form_column_permutation_invariant():
    rng = np.random.default_rng(2)
    Z = (rng.random((3, 5)) < 0.5).astype(np.int8)
    base = ibp.left_order_form(Z)
    for _ in range(10):
        perm = rng.permutation(5)
        assert ibp.left_order_form(Z[:, perm]) == base


def test_left_order_form_multiplicities_count_equal_columns():
    Z = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int8)
    # Histories (1,0) twice and (0,1) once, sorted descending, so equal
    # columns sit next to each other.
    assert ibp.left_order_form(Z) == ((1, 0), (1, 0), (0, 1))


def test_ibp_logprob_empty_mask_is_minus_alpha_harmonic():
    Z = np.zeros((3, 0), dtype=np.int8)
    assert abs(ibp.logprob_mask_ibp(Z, 2.0) - (-2.0 * 11.0 / 6.0)) < 1e-12


def test_ibp_logprob_single_customer_single_dish():
    Z = np.array([[1]], dtype=np.int8)
    assert abs(ibp.logprob_mask_ibp(Z, 1.0) - (-1.0)) < 1e-12


def test_ibp_logprob_column_permutation_invariant():
    rng = np.random.default_rng(3)
    Z = ibp.sample_ibp_sequential(3, 2.0, rng)
    if Z.shape[1] < 2:
        Z = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.int8)
    base = ibp.logprob_mask_ibp(Z, 1.5)
    perm = rng.permutation(Z.shape[1])
    assert abs(ibp.logprob_mask_ibp(Z[:, perm], 1.5) - base) < 1e-12


def test_ibp_logprob_rejects_zero_columns():
    Z = np.array([[1, 0], [1, 0]], dtype=np.int8)
    with pytest.raises(ValueError):
        ibp.logprob_mask_ibp(Z, 1.0)


def test_sequential_sampler_never_emits_zero_columns():
    rng = np.random.default_rng(4)
    for _ in range(500):
        Z = ibp.sample_ibp_sequential(4, 1.5, rng)
        if Z.shape[1]:
            assert (Z.sum(axis=0) > 0).all()


def test_sequential_sampler_first_customer_poisson_mean():
    rng = np.random.default_rng(5)
    alpha = 1.7
    draws = 20_000
    first = np.array([
        int(ibp.sample_ibp_sequential(1, alpha, rng).shape[1]) for _ in range(draws)
    ])
    se = first.std(ddof=1) / math.sqrt(draws)
    assert abs(first.mean() - alpha) < 3.0 * se


def test_sequential_sampler_tiny_alpha_rarely_creates_columns():
    rng = np.random.default_rng(6)
    cols = [ibp.sample_ibp_sequential(3, 1e-4, rng).shape[1] for _ in range(2000)]
    assert np.mean(np.asarray(cols) == 0) > 0.99


def test_finite_law_approaches_process_law_in_left_ordered_form():
    # Large finite truncation vs the sequential process sampler, compared
    # on left-ordered class histograms.  The finite masks come from a
    # layer's prior draw; its slab hyperparameters leave the mask alone.
    rng = np.random.default_rng(9)
    draws = 100_000
    N, alpha, K = 2, 1.0, 64
    target = model.LayerTarget(
        model.LayerHyper(alpha_ibp=alpha, ig_shape=2.0, ig_scale=1.0, sigma_top=1.0, sigma_floor=1e-6)
    )

    def finite_sampler(N_, alpha_, rng_):
        # mc_lof_histogram passes back the alpha that ``target`` holds.
        Z = target.draw(N_, K, 0, rng_)[0]
        return Z[:, Z.any(axis=0)]

    finite = mc_lof_histogram(finite_sampler, N, alpha, draws, rng)
    process = mc_lof_histogram(ibp.sample_ibp_sequential, N, alpha, draws, rng)
    classes = set(finite) | set(process)
    tv = 0.5 * sum(abs(finite.get(c, 0.0) - process.get(c, 0.0)) for c in classes)
    assert tv < 0.02


def test_mask_marginal_matches_beta_function_identity():
    # One column: the marginal is a * B(m + a, N - m + 1) for each count.
    N, alpha = 4, 2.5
    for m in range(N + 1):
        Z = np.zeros((N, 1), dtype=np.int8)
        Z[:m, 0] = 1
        expect = (
            math.log(alpha)
            + gammaln(m + alpha)
            + gammaln(N - m + 1.0)
            - gammaln(N + 1.0 + alpha)
        )
        assert abs(ibp.logprob_mask_marginal(Z, alpha) - expect) < 1e-12


def _mask_marginal_per_column(m, N, alpha):
    a = alpha / len(m)
    return float(np.sum(
        np.log(a) + gammaln(m + a) + gammaln(N - m + 1.0) - gammaln(N + 1.0 + a)
    ))


def test_mask_marginal_counts_matches_per_column_gammaln():
    rng = np.random.default_rng(31)
    for N in (2, 4, 16):
        for K in (1, 2, 7, 20):
            for alpha in (0.3, 2.0, 6.5):
                m = rng.integers(0, N + 1, size=K)
                expect = _mask_marginal_per_column(m, N, alpha)
                got = ibp.logprob_mask_marginal_counts(m, N, alpha)
                assert abs(got - expect) <= 1e-12 * abs(expect)
    # A million columns, two linked: the log a + lgamma(a) cancellation
    # in each empty column's term leaves about 2e-9 of rounding.
    m = np.zeros(1_000_000, dtype=np.int64)
    m[:2] = (1, 2)
    assert abs(ibp.logprob_mask_marginal_counts(m, 2, 1.5) - _mask_marginal_per_column(m, 2, 1.5)) < 1e-8
