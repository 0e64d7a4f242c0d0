"""Tests for the generative core: densities, variance routing, data generation."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from deepibp import ibp, model
from deepibp.model import (
    HyperParams,
    LayerHyper,
    LayerTarget,
    draw_routed,
    draw_stack,
    log_joint,
)


# -- variance routing -----------------------------------------------------

def test_propagate_sigma_hand_values():
    rows = model.propagate_sigma_matrix(
        np.array([[1.0, -2.0], [0.0, 0.0]]), np.array([[3.0], [1.0]]), 1e-6
    )
    np.testing.assert_array_equal(rows, [[1.0], [1e-6]])
    # No factors: the empty sum is zero and the floor engages.
    empty = model.propagate_sigma_matrix(np.zeros((2, 0)), np.zeros((0, 3)), 1e-6)
    np.testing.assert_array_equal(empty, np.full((2, 3), 1e-6))


def test_propagate_sigma_sign_flip_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        W = rng.standard_normal((3, 4))
        Y = rng.standard_normal((4, 5))
        base = model.propagate_sigma_matrix(W, Y, 1e-9)
        np.testing.assert_array_equal(model.propagate_sigma_matrix(-W, Y, 1e-9), base)
        np.testing.assert_array_equal(model.propagate_sigma_matrix(W, -Y, 1e-9), base)


def test_propagate_sigma_matrix_matches_scalar():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((3, 2))
    Y = rng.standard_normal((2, 5))
    full = model.propagate_sigma_matrix(W, Y, 1e-6)
    for n in range(3):
        for t in range(5):
            scalar = max(abs(sum(W[n, j] * Y[j, t] for j in range(2))), 1e-6)
            assert abs(full[n, t] - scalar) < 1e-14


# -- prior sampling of a weight layer -------------------------------------

def _hyper(alpha_ibp, ig_shape=2.0, ig_scale=1.0, sigma_top=1.0):
    return LayerHyper(alpha_ibp=alpha_ibp, ig_shape=ig_shape, ig_scale=ig_scale,
                      sigma_top=sigma_top, sigma_floor=1e-6)


def test_layer_target_draw_inclusion_frequency():
    # With alpha equal to K the inclusion probabilities are Beta(1, 1),
    # so the marginal entry inclusion is 1/2.  Entries within a column
    # share one p draw, so the error budget is dominated by the number
    # of columns: Var(mean) ~ (Var(p) + E[p(1-p)]/N) / K.
    rng = np.random.default_rng(4)
    N, K = 10, 10_000
    mask, _, _ = LayerTarget(_hyper(float(K))).draw(N, K, 0, rng)
    se = math.sqrt((1.0 / 12.0 + (1.0 / 6.0) / N) / K)
    assert abs(mask.mean() - 0.5) < 3.0 * se


def test_layer_target_draw_slab_variance_mean():
    rng = np.random.default_rng(5)
    _, slab, _ = LayerTarget(_hyper(1.0)).draw(20, 50_000, 0, rng)
    # A column's slab entries are N(0, sigma^2) with sigma^2 ~
    # InverseGamma(2, 1), whose mean is 1, so each column's slab variance
    # across its rows averages to 1 over the columns.  Heavy tails, so
    # the bound is loose but the seed is fixed.
    column_variance = (slab ** 2).mean(axis=0)
    assert abs(column_variance.mean() - 1.0) < 0.1


def test_layer_target_draw_shapes_and_binary_mask():
    rng = np.random.default_rng(6)
    mask, slab, Y = LayerTarget(_hyper(2.0)).draw(5, 3, 0, rng)
    assert mask.shape == slab.shape == (5, 3)
    assert mask.dtype == np.int8
    assert set(np.unique(mask)) <= {0, 1}
    assert Y.shape == (3, 0)


def test_layer_target_draw_zero_columns():
    rng = np.random.default_rng(7)
    mask, slab, _ = LayerTarget(_hyper(1.0)).draw(4, 0, 0, rng)
    assert mask.shape == slab.shape == (4, 0)


# -- hyperparameters -------------------------------------------------------

def test_hyper_params_broadcast_and_layer_views():
    hp = HyperParams(
        alpha_ibp_per_layer=3.0,
        ig_shape_per_layer=(2.0, 4.0),
        ig_scale_per_layer=1.0,
        layer_widths=(3, 2),
    )
    assert hp.num_layers == 2
    assert hp.alpha_ibp_per_layer == (3.0, 3.0)
    assert hp.layer(1).ig_shape == 4.0
    with pytest.raises(IndexError):
        hp.layer(2)


def test_hyper_params_validation():
    with pytest.raises(ValueError):
        HyperParams(layer_widths=())
    with pytest.raises(ValueError):
        HyperParams(alpha_ibp_per_layer=(1.0, 2.0), layer_widths=(3,))
    with pytest.raises(ValueError, match="sigma_floor must not exceed sigma_top"):
        HyperParams(sigma_top=0.5, sigma_floor=0.6)
    with pytest.raises(ValueError, match="alpha_ibp_per_layer"):
        HyperParams(alpha_ibp_per_layer=-1.0)
    # The layer record checks the two sigmas, under their own names.
    with pytest.raises(ValueError, match="sigma_top must be finite and strictly positive"):
        HyperParams(sigma_top=math.nan)


@pytest.mark.parametrize("name", ["alpha_ibp", "ig_shape", "ig_scale", "sigma_top", "sigma_floor"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, True])
def test_layer_hyper_rejects_each_bad_value_by_name(name, bad):
    values = dict(alpha_ibp=2.0, ig_shape=2.0, ig_scale=1.0, sigma_top=1.0, sigma_floor=1e-6)
    values[name] = bad
    # A bool is no real number, though True compares as 1.
    problem = "a real number, got True" if bad is True else "finite and strictly positive"
    with pytest.raises(ValueError, match=f"^{name} must be {problem}"):
        LayerHyper(**values)


def test_layer_hyper_rejects_a_floor_above_the_top():
    with pytest.raises(ValueError, match="sigma_floor must not exceed sigma_top"):
        LayerHyper(alpha_ibp=2.0, ig_shape=2.0, ig_scale=1.0, sigma_top=1.0, sigma_floor=5.0)
    assert LayerHyper(alpha_ibp=2.0, ig_shape=2.0, ig_scale=1.0, sigma_top=1.0, sigma_floor=1.0).sigma_floor == 1.0


def test_chain_with_a_nan_top_scale_fails_on_the_field():
    # A NaN sigma_top used to surface as NaN start factors inside the chain.
    from deepibp.inference import InferenceConfig, run_mh_layer

    X = np.random.default_rng(0).standard_normal((4, 6))
    with pytest.raises(ValueError, match="sigma_top"):
        run_mh_layer(X, InferenceConfig(iterations=3), LayerTarget(LayerHyper(
            alpha_ibp=3.0, ig_shape=2.0, ig_scale=1.0, sigma_top=math.nan, sigma_floor=1e-6,
        )), rng=np.random.default_rng(1))


# -- forward generation ----------------------------------------------------

def test_draw_stack_shapes_and_determinism():
    hp = HyperParams(layer_widths=(3,))
    a_weights, a = draw_stack(hp, 16, 200, np.random.default_rng(42))
    b_weights, b = draw_stack(hp, 16, 200, np.random.default_rng(42))
    assert [m.shape for m in a] == [(16, 200), (3, 200)]
    assert [(mask.shape, slab.shape) for mask, slab in a_weights] == [((16, 3), (16, 3))]
    for x, y in zip(a + [*a_weights[0]], b + [*b_weights[0]]):
        np.testing.assert_array_equal(x, y)


def test_draw_stack_is_each_layer_targets_columns_then_routed_values():
    hp = HyperParams(alpha_ibp_per_layer=(3.0, 2.0, 1.5), layer_widths=(6, 3, 2))
    weights, values = draw_stack(hp, 8, 5, np.random.default_rng(3))
    assert [m.shape for m in values] == [(8, 5), (6, 5), (3, 5), (2, 5)]
    # The columns come first, bottom layer first, each as its layer's
    # target draws them; then the top factors and each matrix below.
    rng = np.random.default_rng(3)
    rows = (8, 6, 3, 2)
    for i, (mask, slab) in enumerate(weights):
        ref_mask, ref_slab, _ = LayerTarget(hp.layer(i)).draw(rows[i], rows[i + 1], 0, rng)
        np.testing.assert_array_equal(mask, ref_mask)
        np.testing.assert_array_equal(slab, ref_slab)
    np.testing.assert_array_equal(values[3], hp.sigma_top * rng.standard_normal((2, 5)))
    for i in (2, 1, 0):
        mask, slab = weights[i]
        np.testing.assert_array_equal(values[i], draw_routed(mask * slab, values[i + 1], hp.sigma_floor, rng))


def test_draw_stack_no_factors_floors_everything():
    hp = HyperParams(layer_widths=(0,))
    X = draw_stack(hp, 5, 50, np.random.default_rng(10))[1][0]
    assert np.abs(X).max() < 1e-4


def test_draw_stack_empty_instances():
    hp = HyperParams(layer_widths=(2,))
    weights, values = draw_stack(hp, 4, 0, np.random.default_rng(12))
    assert weights[0][0].shape == (4, 2)
    assert all(m.shape[1] == 0 for m in values)
    with pytest.raises(ValueError, match="T must be >= 0"):
        draw_stack(hp, 4, -1, np.random.default_rng(13))


def test_generated_second_moment_matches_routed_variance():
    # Given fixed weights and factors, each entry is centred Gaussian with
    # the routed sigma, so the pooled standardised square has mean 1.
    rng = np.random.default_rng(14)
    hp = HyperParams(layer_widths=(3,))
    mask, slab, _ = LayerTarget(hp.layer(0)).draw(6, 3, 0, rng)
    Y = hp.sigma_top * rng.standard_normal((3, 40))
    sigma = model.propagate_sigma_matrix(mask * slab, Y, hp.sigma_floor)
    reps = 400
    zsq = np.empty((reps,) + sigma.shape)
    for r in range(reps):
        X = sigma * rng.standard_normal(sigma.shape)
        zsq[r] = (X / sigma) ** 2
    pooled = zsq.mean()
    n = zsq.size
    se = math.sqrt(2.0 / n)
    assert abs(pooled - 1.0) < 3.0 * se


# -- log-joint -------------------------------------------------------------

def _random_state_like(rng, N=5, K=3, T=8):
    from deepibp.inference import ChainState

    hyper = LayerHyper(alpha_ibp=2.0, ig_shape=2.0, ig_scale=1.0, sigma_top=1.0, sigma_floor=1e-6)
    mask = (rng.random((N, K)) < 0.6).astype(np.int8)
    slab = rng.standard_normal((N, K)) * mask
    Y = rng.standard_normal((K, T))
    X = rng.standard_normal((N, T))
    return ChainState(X=X, Y=Y, mask=mask, slab=slab, target=LayerTarget(hyper)), hyper


def test_log_joint_terms_sum_to_total():
    rng = np.random.default_rng(15)
    state, hyper = _random_state_like(rng)
    terms = state.target.log_joint_terms(state)
    parts = (
        terms.log_lik
        + terms.log_y_prior
        + terms.log_mask_prior
        + terms.log_slab_prior
        + terms.log_k_prior
    )
    assert abs(terms.total - parts) < 1e-12
    assert abs(log_joint(state) - terms.total) < 1e-12


def test_log_joint_no_factor_state_uses_floor_likelihood():
    from deepibp.inference import ChainState

    hyper = LayerHyper(alpha_ibp=1.0, ig_shape=2.0, ig_scale=1.0, sigma_top=1.0, sigma_floor=1e-6)
    rng = np.random.default_rng(16)
    X = 1e-6 * rng.standard_normal((3, 4))
    state = ChainState(
        X=X,
        Y=np.zeros((0, 4)),
        mask=np.zeros((3, 0), dtype=np.int8),
        slab=np.zeros((3, 0)),
        target=LayerTarget(hyper),
    )
    terms = state.target.log_joint_terms(state)
    expect = float(stats.norm.logpdf(X, scale=1e-6).sum())
    assert abs(terms.log_lik - expect) < 1e-8
    assert terms.log_y_prior == 0.0
    assert terms.log_mask_prior == 0.0
    assert terms.log_slab_prior == 0.0


def test_log_joint_likelihood_scales_with_instances():
    hp = HyperParams(layer_widths=(3,))
    # The weights are drawn before any instance, so one seed gives both
    # datasets the same weights.
    (weights,), short = draw_stack(hp, 6, 2000, np.random.default_rng(17))
    (long_weights,), long = draw_stack(hp, 6, 4000, np.random.default_rng(17))
    np.testing.assert_array_equal(weights[1], long_weights[1])

    from deepibp.inference import ChainState

    lh = hp.layer(0)

    def lik(mats):
        st = ChainState(X=mats[0], Y=mats[1], mask=weights[0], slab=weights[1], target=LayerTarget(lh))
        return st.target.log_joint_terms(st).log_lik

    ratio = lik(long) / lik(short)
    assert abs(ratio - 2.0) < 0.1


def test_log_joint_column_exchangeability():
    rng = np.random.default_rng(20)
    state, hyper = _random_state_like(rng)
    base = log_joint(state)
    perm = rng.permutation(state.K)

    from deepibp.inference import ChainState

    permuted = ChainState(
        X=state.X,
        Y=state.Y[perm],
        mask=state.mask[:, perm],
        slab=state.slab[:, perm],
        target=state.target,
    )
    assert abs(log_joint(permuted) - base) < 1e-9


def test_slab_column_logmarginal_zero_count():
    assert model.slab_column_logmarginal(0.0, 0, 2.0, 1.0) == 0.0


def test_slab_column_logmarginal_single_value_is_student_t():
    # One value with the variance integrated out is the predictive t.
    w = 0.8
    a, b = 2.5, 1.3
    df, scale = model.slab_predictive_params(0, 0.0, a, b)
    expect = model.student_t_logpdf(w, df, scale)
    got = model.slab_column_logmarginal(w * w, 1, a, b)
    assert abs(got - expect) < 1e-12


def test_slab_column_logmarginal_matches_gammaln_form():
    for sq, count, a, b in ((2.4, 3, 2.0, 1.0), (0.01, 1, 0.5, 3.0), (40.0, 25, 7.5, 0.2)):
        expect = (
            a * math.log(b) - gammaln(a) - 0.5 * count * math.log(2.0 * math.pi)
            + gammaln(a + 0.5 * count) - (a + 0.5 * count) * math.log(b + 0.5 * sq)
        )
        assert abs(model.slab_column_logmarginal(sq, count, a, b) - expect) < 1e-12


def test_spike_slab_predictive_hand_values():
    spike, slab = model.spike_slab_predictive(0, 2, 1.0)
    assert abs(spike - 2.0 / 3.0) < 1e-15
    assert abs(slab - 1.0 / 3.0) < 1e-15
    assert abs(spike + slab - 1.0) < 1e-15
    with pytest.raises(ValueError):
        model.spike_slab_predictive(2, 2, 1.0)
    with pytest.raises(ValueError):
        model.spike_slab_predictive(0, 2, 0.0)


def test_slab_predictive_params_no_observations():
    df, scale = model.slab_predictive_params(0, 0.0, 3.0, 2.0)
    assert df == 6.0
    assert abs(scale - math.sqrt(2.0 / 3.0)) < 1e-15


def test_student_t_logpdf_matches_scipy():
    for w, df, scale in ((0.3, 4.0, 1.2), (-2.0, 7.0, 0.5), (0.0, 2.0, 3.0)):
        expect = stats.t.logpdf(w, df, scale=scale)
        assert abs(model.student_t_logpdf(w, df, scale) - expect) < 1e-12
    grid = np.linspace(-6.0, 6.0, 13)
    np.testing.assert_allclose(
        model.student_t_logpdf(grid, 5.0, 0.7), stats.t.logpdf(grid, 5.0, scale=0.7),
        rtol=0, atol=1e-12,
    )


def test_log_poisson_k_matches_scipy():
    for k, rate in ((0, 2.0), (3, 5.5), (10, 1.0)):
        assert abs(model.log_poisson_k(k, rate) - stats.poisson.logpmf(k, rate)) < 1e-12
    # Rate 0 (a layer over no rows) is the point mass at k = 0.
    assert model.log_poisson_k(0, 0.0) == stats.poisson.logpmf(0, 0.0) == 0.0
    assert model.log_poisson_k(3, 0.0) == stats.poisson.logpmf(3, 0.0) == -math.inf
    with pytest.raises(ValueError):
        model.log_poisson_k(-1, 2.0)


def test_gaussian_loglik_matches_scipy():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((3, 4))
    sigma = np.abs(rng.standard_normal((3, 4))) + 0.5
    expect = float(stats.norm.logpdf(X, scale=sigma).sum())
    assert abs(model.gaussian_loglik(X, sigma) - expect) < 1e-10


def test_layer_target_row_coverage():
    rng = np.random.default_rng(23)
    W = rng.standard_normal((2, 3))
    Y = rng.standard_normal((3, 6))
    target = LayerTarget(_hyper(1.0, sigma_top=1.5), W, Y)
    rows = target.factor_sigma(4, 6)
    assert rows.shape == (4, 6)
    np.testing.assert_allclose(rows[:2], model.propagate_sigma_matrix(W, Y, 1e-6))
    # Rows beyond the frozen width fall back to the top-layer scale.
    assert (rows[2:] == 1.5).all()
    # Without an upper layer every row has the top-layer scale.
    assert (LayerTarget(_hyper(1.0, sigma_top=1.5)).factor_sigma(3, 6) == 1.5).all()


def test_layer_target_copies_its_arrays():
    rng = np.random.default_rng(24)
    W = rng.standard_normal((2, 3))
    Y = rng.standard_normal((3, 6))
    target = LayerTarget(_hyper(1.0, sigma_top=1.5), W, Y)
    before = target.factor_sigma(3, 6)
    W[:] = 0.0
    Y[:] = 5.0
    np.testing.assert_array_equal(target.factor_sigma(3, 6), before)
    assert not target.upper_weights.flags.writeable and not target.upper_factors.flags.writeable


def test_layer_target_validates_chaining():
    lh = _hyper(1.0)
    with pytest.raises(ValueError):
        LayerTarget(lh, np.zeros((2, 3)), np.zeros((4, 6)))
    # The weights are checked as the factors are.
    with pytest.raises(ValueError, match="NaN or Inf"):
        LayerTarget(lh, [[np.nan, 1.0], [0.5, np.inf]], np.ones((2, 3)))
    # One array without the other.
    with pytest.raises(ValueError, match="given together"):
        LayerTarget(lh, upper_weights=np.ones((2, 3)))
    with pytest.raises(ValueError, match="given together"):
        LayerTarget(lh, upper_factors=np.ones((3, 6)))
    with pytest.raises(TypeError, match="LayerHyper"):
        LayerTarget(HyperParams())


def test_layer_target_draw_min_links_draws_the_conditioned_law():
    # Columns are independent under the finite prior: one links c of n
    # rows with probability C(n, c) times its one-column mask marginal.
    # Conditioned on c >= 2 that law is renormalised over c >= 2, and
    # each link count's frequency must sit within a z bound of it.  At
    # a = 3 / 20 (K_true 20 over 16 dimensions) most raw columns are short.
    n, k, a = 16, 40_000, 3.0 / 20
    mask, _, _ = LayerTarget(_hyper(a * k)).draw(n, k, 0, np.random.default_rng(13), min_links=2)
    observed = np.bincount(mask.sum(axis=0), minlength=n + 1)
    raw = np.array([
        math.comb(n, c) * math.exp(ibp.logprob_mask_marginal_counts(np.array([c]), n, a))
        for c in range(n + 1)
    ])
    assert raw.sum() == pytest.approx(1.0, rel=1e-12)
    assert raw[0] + raw[1] > 0.5
    law = np.where(np.arange(n + 1) >= 2, raw, 0.0) / raw[2:].sum()
    assert observed[:2].sum() == 0
    z = (observed[2:] - k * law[2:]) / np.sqrt(k * law[2:] * (1.0 - law[2:]))
    assert np.abs(z).max() < 4.0, z


def test_layer_target_draw_refuses_an_undrawable_condition():
    rng = np.random.default_rng(14)
    target = LayerTarget(_hyper(3.0))
    with pytest.raises(ValueError, match="3 columns cannot each link 2 of 1 rows"):
        target.draw(1, 3, 0, rng, min_links=2)
    # No column to condition, or a column that must link every row.
    assert target.draw(1, 0, 0, rng, min_links=2)[0].shape == (1, 0)
    assert (target.draw(3, 4, 0, rng, min_links=3)[0] == 1).all()


def test_layer_target_draw_is_the_weight_layer_then_its_factors():
    rng = np.random.default_rng(25)
    target = LayerTarget(_hyper(3.0, sigma_top=1.5), rng.standard_normal((2, 3)), rng.standard_normal((3, 7)))
    # The columns are those of a draw over no instances, and the factors
    # are drawn after the columns and all their redraws.
    for min_links in (0, 1, 2):
        mask, slab, Y = target.draw(6, 4, 7, np.random.default_rng(min_links), min_links=min_links)
        ref_rng = np.random.default_rng(min_links)
        ref_mask, ref_slab, _ = LayerTarget(target.hyper).draw(6, 4, 0, ref_rng, min_links=min_links)
        np.testing.assert_array_equal(mask, ref_mask)
        np.testing.assert_array_equal(slab, ref_slab)
        np.testing.assert_array_equal(Y, target.factor_sigma(4, 7) * ref_rng.standard_normal((4, 7)))
        assert (mask.sum(axis=0) >= min_links).all()


def test_as_factor_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        model.as_factor_matrix(np.array([[1.0, float("inf")]]))
    with pytest.raises(ValueError):
        model.as_factor_matrix(np.zeros(3))
