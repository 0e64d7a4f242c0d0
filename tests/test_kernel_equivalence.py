"""The optimised kernels must follow the straightforward ones draw for draw.

The reference below is the plain numpy form of the weight kernel, the
factor row update and the sweep body, written one array operation per
formula.  From one seed, the library's kernels and the reference must
make the same accept/reject decisions, so the masks, link counts, move
counters and the generator's position come out identical, and the real
arrays agree to rounding.
"""

import copy
import math

import numpy as np
import pytest

from deepibp import inference, model, oracle
from deepibp.inference import ChainState, gibbs_sweep, gibbs_update_factor, _factor_row_update
from deepibp.model import LayerHyper, ParentContext

HYPER = LayerHyper(alpha_ibp=2.0, ig_shape=2.0, ig_scale=1.0, sigma_top=1.0, sigma_floor=1e-6)
STEP = 0.5  # the library's fixed random-walk step scale

# -- reference kernels ---------------------------------------------------------

_TOGGLE_CELLS = 21
_TOGGLE_SPAN = 7.0
_TOGGLE_T_WEIGHT = 0.1
_FACTOR_SUBSTEPS = 4


def _row_loglik(x_row, s_row, floor):
    sigma = np.maximum(np.abs(s_row), floor)
    z = x_row / sigma
    return float(-0.5 * x_row.size * model.LOG_2PI - np.log(sigma).sum() - 0.5 * (z * z).sum())


def _toggle_grid(x_row, base_row, y_row, floor, df, t_scale):
    half = _TOGGLE_SPAN * t_scale
    h = 2.0 * half / _TOGGLE_CELLS
    centers = -half + h * (np.arange(_TOGGLE_CELLS) + 0.5)
    sigma = np.maximum(np.abs(base_row[None, :] + centers[:, None] * y_row[None, :]), floor)
    z = x_row[None, :] / sigma
    log_lik = -np.log(sigma).sum(axis=1) - 0.5 * (z * z).sum(axis=1)
    zc = centers / t_scale
    log_mass = log_lik - 0.5 * (df + 1.0) * np.log1p(zc * zc / df)
    log_mass -= log_mass.max()
    log_mass -= math.log(float(np.exp(log_mass).sum()))
    return centers, log_mass, h


def _toggle_draw(centers, log_mass, h, df, t_scale, rng):
    if rng.random() < _TOGGLE_T_WEIGHT:
        return float(model.sample_student_t(df, t_scale, rng))
    probs = np.exp(log_mass)
    g = int(rng.choice(len(centers), p=probs / probs.sum()))
    return float(centers[g] + (rng.random() - 0.5) * h)


def _toggle_logq(w, centers, log_mass, h, df, t_scale):
    q = _TOGGLE_T_WEIGHT * math.exp(model.student_t_logpdf(w, df, t_scale))
    half = _TOGGLE_SPAN * t_scale
    if -half <= w < half:
        g = min(int((w + half) / h), len(centers) - 1)
        q += (1.0 - _TOGGLE_T_WEIGHT) * math.exp(float(log_mass[g])) / h
    return math.log(q)


def ref_update_weight(state, n, k, lh, rng, step_scale):
    m_minus = int(state.m[k]) - int(state.mask[n, k])
    spike_p, slab_p = model.spike_slab_predictive(m_minus, state.N, lh.alpha_ibp / state.K)
    col_active = state.mask[:, k].astype(bool)
    sq_col = float(np.sum(state.slab[col_active, k] ** 2))
    w_cur = float(state.slab[n, k])
    sq_minus = sq_col - (w_cur * w_cur if state.mask[n, k] else 0.0)
    df, t_scale = model.slab_predictive_params(m_minus, sq_minus, lh.ig_shape, lh.ig_scale)

    x_row, y_row = state.X[n], state.Y[k]
    base_row = state.S[n] - w_cur * y_row
    floor = lh.sigma_floor

    def loglik(w):
        return _row_loglik(x_row, base_row + w * y_row, floor)

    centers, log_mass, cell_h = _toggle_grid(x_row, base_row, y_row, floor, df, t_scale)
    state.stats.weight_proposed += 1
    if state.mask[n, k] == 0:
        w_star = _toggle_draw(centers, log_mass, cell_h, df, t_scale, rng)
        log_r = (
            math.log(slab_p) - math.log(spike_p)
            + model.student_t_logpdf(w_star, df, t_scale)
            - _toggle_logq(w_star, centers, log_mass, cell_h, df, t_scale)
            + loglik(w_star) - loglik(0.0)
        )
        if math.log(rng.random()) < log_r:
            state.mask[n, k] = 1
            state.slab[n, k] = w_star
            state.m[k] += 1
            state.S[n] = base_row + w_star * y_row
            state.stats.weight_accepted += 1
    else:
        log_r = (
            math.log(spike_p) - math.log(slab_p)
            + _toggle_logq(w_cur, centers, log_mass, cell_h, df, t_scale)
            - model.student_t_logpdf(w_cur, df, t_scale)
            + loglik(0.0) - loglik(w_cur)
        )
        if math.log(rng.random()) < log_r:
            state.mask[n, k] = 0
            state.slab[n, k] = 0.0
            state.m[k] -= 1
            state.S[n] = base_row
            state.stats.weight_accepted += 1

    if state.mask[n, k] == 1:
        w = float(state.slab[n, k])
        state.stats.weight_proposed += 1
        w_star = w + step_scale * t_scale * rng.standard_normal()
        if w_star != 0.0:
            log_r = (
                model.student_t_logpdf(w_star, df, t_scale)
                - model.student_t_logpdf(w, df, t_scale)
                + loglik(w_star) - loglik(w)
            )
            if math.log(rng.random()) < log_r:
                state.slab[n, k] = w_star
                state.S[n] = base_row + w_star * y_row
                state.stats.weight_accepted += 1
    return float(state.mask[n, k] * state.slab[n, k])


def ref_factor_row_update(state, k, ts, lh, rng, step_scale):
    rows = np.flatnonzero(state.mask[:, k])
    sig_prior = state.sigma_y[k, ts]
    y_cur = state.Y[k, ts]
    if len(rows) == 0:
        state.stats.factor_proposed += len(ts)
        state.Y[k, ts] = sig_prior * rng.standard_normal(len(ts))
        state.stats.factor_accepted += len(ts)
        return

    w_col = state.slab[rows, k]
    x_sub = state.X[np.ix_(rows, ts)]
    base = state.S[np.ix_(rows, ts)] - np.outer(w_col, y_cur)
    floor = lh.sigma_floor

    def col_loglik(y_vals):
        sigma = np.maximum(np.abs(base + np.outer(w_col, y_vals)), floor)
        z = x_sub / sigma
        return -(0.5 * model.LOG_2PI) * len(rows) - np.log(sigma).sum(axis=0) - 0.5 * (z * z).sum(axis=0)

    cur_ll = col_loglik(y_cur)
    state.stats.factor_proposed += (1 + _FACTOR_SUBSTEPS) * len(ts)
    y_star = sig_prior * rng.standard_normal(len(ts))
    star_ll = col_loglik(y_star)
    accept = np.log(rng.random(len(ts))) < star_ll - cur_ll
    y_cur = np.where(accept, y_star, y_cur)
    cur_ll = np.where(accept, star_ll, cur_ll)
    state.stats.factor_accepted += int(accept.sum())
    for _ in range(_FACTOR_SUBSTEPS):
        y_star = y_cur + step_scale * sig_prior * rng.standard_normal(len(ts))
        star_ll = col_loglik(y_star)
        log_r = star_ll - cur_ll - 0.5 * (y_star / sig_prior) ** 2 + 0.5 * (y_cur / sig_prior) ** 2
        accept = np.log(rng.random(len(ts))) < log_r
        y_cur = np.where(accept, y_star, y_cur)
        cur_ll = np.where(accept, star_ll, cur_ll)
        state.stats.factor_accepted += int(accept.sum())
    state.Y[k, ts] = y_cur
    state.S[np.ix_(rows, ts)] = base + np.outer(w_col, y_cur)


def ref_sweep(state, lh, rng, step_scale):
    for n in range(state.N):
        for k in range(state.K):
            ref_update_weight(state, n, k, lh, rng, step_scale)
    all_ts = np.arange(state.T)
    for k in range(state.K):
        ref_factor_row_update(state, k, all_ts, lh, rng, step_scale)
    state.refresh()


# -- comparison ------------------------------------------------------------------

def _state(seed, N, T, K, parent=False, unlinked=None):
    rng = np.random.default_rng(seed)
    mask = (rng.random((N, K)) < 0.6).astype(np.int8)
    mask[0] = 1  # every column starts linked unless one is emptied below
    if unlinked is not None:
        mask[:, unlinked] = 0
    slab = rng.standard_normal((N, K)) * mask
    Y = rng.standard_normal((K, T))
    sigma = np.maximum(np.abs((mask * slab) @ Y), HYPER.sigma_floor)
    X = sigma * rng.standard_normal((N, T))
    ctx = None
    if parent:
        ctx = ParentContext(weights=rng.standard_normal((K - 1, 2)), factors=rng.standard_normal((2, T)))
    return ChainState(X=X, Y=Y, mask=mask, slab=slab, layer_hyper=HYPER, parent_context=ctx)


def _assert_same_chain(new, ref, rng_new, rng_ref):
    np.testing.assert_array_equal(new.mask, ref.mask)
    np.testing.assert_array_equal(new.m, ref.m)
    assert new.stats == ref.stats
    assert rng_new.random() == rng_ref.random()
    for name in ("slab", "Y", "S"):
        np.testing.assert_allclose(getattr(new, name), getattr(ref, name), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "N, T, K, parent",
    [(4, 10, 2, False), (16, 200, 3, False), (16, 200, 10, False), (16, 200, 3, True)],
)
def test_sweeps_follow_reference(N, T, K, parent):
    new, ref = _state(11, N, T, K, parent), _state(11, N, T, K, parent)
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        gibbs_sweep(new, rng_new)
        ref_sweep(ref, HYPER, rng_ref, STEP)
    assert new.stats.weight_accepted > 0 and new.stats.factor_accepted > 0
    _assert_same_chain(new, ref, rng_new, rng_ref)


def test_unlinked_column_redraw_follows_reference():
    N, T, K, empty = 16, 200, 3, 1
    new, ref = _state(12, N, T, K, unlinked=empty), _state(12, N, T, K, unlinked=empty)
    rng_new, rng_ref = np.random.default_rng(6), np.random.default_rng(6)
    # The prior-redraw branch, on a whole row and on one entry, then sweeps.
    _factor_row_update(new, empty, np.arange(T), rng_new)
    ref_factor_row_update(ref, empty, np.arange(T), HYPER, rng_ref, STEP)
    for t in (0, 7, T - 1):
        gibbs_update_factor(new, empty, t, rng_new)
        ref_factor_row_update(ref, empty, np.array([t]), HYPER, rng_ref, STEP)
    assert new.m[empty] == 0
    for _ in range(200):
        gibbs_sweep(new, rng_new)
        ref_sweep(ref, HYPER, rng_ref, STEP)
    _assert_same_chain(new, ref, rng_new, rng_ref)


def test_single_entry_factor_updates_follow_reference():
    new, ref = oracle.frozen_kernel_state(), oracle.frozen_kernel_state()
    rng_new, rng_ref = np.random.default_rng(2025), np.random.default_rng(2025)
    for i in range(20_000):
        k, t = i % new.K, (i // new.K) % new.T
        gibbs_update_factor(new, k, t, rng_new)
        ref_factor_row_update(ref, k, np.array([t]), ref.layer_hyper, rng_ref, STEP)
    assert 0 < new.stats.factor_accepted < new.stats.factor_proposed
    _assert_same_chain(new, ref, rng_new, rng_ref)


# -- early rejection of the death toggle -------------------------------------------


def _count_grid_builds(monkeypatch):
    """Wrap the weight kernel and its likelihood helper; count active visits and their grid builds."""
    calls = {"active": 0, "grid": 0}
    in_active_visit = [False]
    update, price = inference.gibbs_update_weight, inference._loglik

    def counting_update(state, n, k, rng):
        in_active_visit[0] = bool(state.mask[n, k])
        calls["active"] += in_active_visit[0]
        try:
            return update(state, n, k, rng)
        finally:
            in_active_visit[0] = False

    def counting_price(x, s, *args, **kwargs):
        if in_active_visit[0] and s.shape == (_TOGGLE_CELLS, x.shape[-1]):  # the toggle grid
            calls["grid"] += 1
        return price(x, s, *args, **kwargs)

    monkeypatch.setattr(inference, "gibbs_update_weight", counting_update)
    monkeypatch.setattr(inference, "_loglik", counting_price)
    return calls


def test_early_rejection_skips_most_grids_and_keeps_the_chain(monkeypatch):
    N, T, K = 16, 200, 3
    new, ref = _state(11, N, T, K), _state(11, N, T, K)
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    calls = _count_grid_builds(monkeypatch)
    for _ in range(100):
        gibbs_sweep(new, rng_new)
        ref_sweep(ref, HYPER, rng_ref, STEP)
    assert calls["active"] > 1000
    assert 0 < calls["grid"] < calls["active"] / 2
    _assert_same_chain(new, ref, rng_new, rng_ref)


def _ref_death_log_ratio(state, n, k):
    """The exact death log-ratio of entry (n, k) from the reference grid, and the grid's half-width."""
    lh = state.layer_hyper
    m_minus = int(state.m[k]) - 1
    spike_p, slab_p = model.spike_slab_predictive(m_minus, state.N, lh.alpha_ibp / state.K)
    w_cur = float(state.slab[n, k])
    sq_minus = float(np.sum(state.slab[:, k] ** 2)) - w_cur * w_cur
    df, t_scale = model.slab_predictive_params(m_minus, sq_minus, lh.ig_shape, lh.ig_scale)
    x_row, y_row = state.X[n], state.Y[k]
    base_row = state.S[n] - w_cur * y_row
    centers, log_mass, cell_h = _toggle_grid(x_row, base_row, y_row, lh.sigma_floor, df, t_scale)
    return (
        math.log(spike_p) - math.log(slab_p)
        + _toggle_logq(w_cur, centers, log_mass, cell_h, df, t_scale)
        - model.student_t_logpdf(w_cur, df, t_scale)
        + _row_loglik(x_row, base_row, lh.sigma_floor)
        - _row_loglik(x_row, base_row + w_cur * y_row, lh.sigma_floor)
    ), _TOGGLE_SPAN * t_scale


class _FirstUniform:
    """A generator whose first ``random()`` is ``u``; later draws come from ``rng``."""

    def __init__(self, u, rng):
        self.u, self.rng = u, rng

    def random(self):
        u, self.u = self.u, None
        return self.rng.random() if u is None else u

    def standard_normal(self):
        return self.rng.standard_normal()


def _active_entries(rng):
    """Random states with every active entry, some moved outside the grid span."""
    frozen = oracle.frozen_kernel_state()
    yield frozen, [tuple(e) for e in np.argwhere(frozen.mask == 1)]
    for i, (N, T, K) in enumerate([(4, 10, 2), (8, 30, 3), (16, 50, 4), (16, 200, 3)] * 30):
        state = _state(100 + i, N, T, K)
        active = np.argwhere(state.mask == 1)
        for n, k in active[rng.random(len(active)) < 0.25]:
            # w_cur at 7.5 to 12 predictive scales: its cell mass drops out of q.
            m_minus = int(state.m[k]) - 1
            sq_minus = float(np.sum(state.slab[:, k] ** 2)) - state.slab[n, k] ** 2
            _, t_scale = model.slab_predictive_params(m_minus, sq_minus, HYPER.ig_shape, HYPER.ig_scale)
            state.slab[n, k] = rng.choice((-1.0, 1.0)) * rng.uniform(7.5, 12.0) * t_scale
        state.refresh()
        yield state, [tuple(e) for e in active]


def test_early_rejection_bound_never_falls_below_the_exact_ratio(monkeypatch):
    # The bound hi on the death log-ratio decides whether the grid is built:
    # the grid is skipped exactly when log u >= hi.  With log u just below
    # the exact ratio, a skip would mean hi < exact; the kernel must build
    # the grid and accept.  Just above it, the kernel must reject.
    rng = np.random.default_rng(31)
    calls = _count_grid_builds(monkeypatch)
    checked = outside = 0
    for state, entries in _active_entries(rng):
        for n, k in entries:
            exact, half = _ref_death_log_ratio(state, n, k)
            if exact < -700.0:  # exp(log u) would underflow
                continue
            checked += 1
            outside += not -half <= state.slab[n, k] < half
            if exact >= 0.0:
                sides = [(-1e-8, True)]
            else:
                eps = 1e-8 * (1.0 - exact)
                sides = [(exact - eps, True), (exact + eps, False)]
            for log_u, accepts in sides:
                trial = copy.deepcopy(state)
                grids = calls["grid"]
                inference.gibbs_update_weight(trial, n, k, _FirstUniform(math.exp(log_u), rng))
                assert trial.mask[n, k] == (0 if accepts else 1)
                if accepts:
                    assert calls["grid"] == grids + 1
    assert checked >= 1000 and outside >= 50
