"""Brute-force enumeration and quadrature counterparts of the closed forms.

Everything here trades speed for independence: these routines avoid the
package's conjugacy shortcuts so they can arbitrate whether those
shortcuts are right.  They back the test suite and the ``validate``
CLI subcommand.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import ibp, model

__all__ = [
    "ValidationCheck",
    "ValidationReport",
    "dish_count_mean_z",
    "enumerate_masks",
    "factor_kernel_tv",
    "freq_standard_error",
    "frozen_kernel_state",
    "geweke",
    "geweke_moment_zs",
    "ibp_sampler_max_z",
    "lof_class_probabilities",
    "marginal_weight_quadrature",
    "mc_lof_histogram",
    "run_validation",
    "slab_density_quadrature",
    "slab_logmarginal_quadrature",
    "weight_kernel_tv",
]


# Trapezoid-rule points of every quadrature below.
_QUADRATURE_POINTS = 20001


def enumerate_masks(N: int, K: int) -> np.ndarray:
    """All 2^(N K) binary masks as an (2^(N K), N, K) int8 array.

    Row-major bit order: the first axis enumerates matrices, each
    distinct, entry (n, k) of matrix i being bit n*K + k of i.
    """
    if N < 1 or K < 0:
        raise ValueError("need N >= 1 and K >= 0")
    cells = N * K
    if cells > 12:
        raise ValueError(f"enumeration capped at 12 cells, got {cells}")
    idx = np.arange(2 ** cells, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(cells, dtype=np.uint32)) & 1
    return bits.reshape(-1, N, K).astype(np.int8)


def _p_axis_integrals(m_minus: int, N: int, alpha_over_K: float) -> tuple[float, float]:
    """Spike/slab probabilities by integrating the inclusion prior directly.

    Integrates Beta(a, 1) against the other rows' Bernoulli factors on
    a substituted grid p = s^r.  The exponent r is chosen so the
    integrand's power at the zero endpoint is at least quadratic,
    keeping the trapezoid rule's O(h^2) accuracy even when a < 1 makes
    the raw prior density singular at p = 0; it shrinks back to 1 as
    m_minus grows so the integrand never over-concentrates near 1.
    """
    a = alpha_over_K
    m = m_minus
    r = max(1, math.ceil(3.0 / (a + m)))
    s = np.linspace(0.0, 1.0, _QUADRATURE_POINTS)
    p = s ** r
    # prior density a p^{a-1} times dp/ds, with p^m folded in: all powers of s.
    base = a * r * s ** (r * a - 1.0 + r * m) * (1.0 - p) ** (N - 1 - m)
    den = np.trapezoid(base, s)
    spike = np.trapezoid(base * (1.0 - p), s)
    slab = np.trapezoid(base * p, s)
    return spike / den, slab / den


# How far, in nats below its peak, the slab quadrature follows the
# integrand.  The mass it leaves out is of order e^-30 of the total.
_QUADRATURE_NATS = 30.0


def slab_logmarginal_quadrature(sq_sum: float, count: int, ig_shape: float, ig_scale: float) -> float:
    """Quadrature counterpart of the closed-form slab column marginal.

    The log of int prod_i N(g_i; 0, s2) InvGamma(s2; shape, scale) d s2,
    in which only the squared sum of the ``count`` values matters.
    Integrates by the trapezoid rule in u = log s2, where the
    log-integrand is -A u - B e^-u up to a constant, with
    A = shape + count / 2 and B = scale + sq_sum / 2.  It peaks at
    u* = log(B / A) and, d = u - u* from there, falls by
    A (d + e^-d - 1).  The grid ends where that fall first reaches
    ``_QUADRATURE_NATS`` by simple bounds: on the right the slope A
    (d = 1 + nats / A), on the left the double exponential
    (e^|d| = 2 + 2 nats / A).
    """
    a_post = ig_shape + 0.5 * count
    b_post = ig_scale + 0.5 * sq_sum
    u_peak = math.log(b_post / a_post)
    reach = _QUADRATURE_NATS / a_post
    u = np.linspace(u_peak - math.log(2.0 + 2.0 * reach), u_peak + 1.0 + reach, _QUADRATURE_POINTS)
    s2 = np.exp(u)
    log_f = (
        ig_shape * math.log(ig_scale)
        - math.lgamma(ig_shape)
        - (ig_shape + 1.0) * u
        - ig_scale / s2
        - 0.5 * count * (model.LOG_2PI + u)
        - 0.5 * sq_sum / s2
        + u  # Jacobian of s2 = e^u
    )
    c = log_f.max()
    return float(c + np.log(np.trapezoid(np.exp(log_f - c), u)))


def slab_density_quadrature(w: float, m_minus: int, other_sq_sum: float,
                            ig_shape: float, ig_scale: float) -> float:
    """Predictive density of one slab value given its column's others.

    Computed as the ratio of two variance integrals, never via the
    Student-t closed form.
    """
    log_num = slab_logmarginal_quadrature(other_sq_sum + w * w, m_minus + 1, ig_shape, ig_scale)
    log_den = slab_logmarginal_quadrature(other_sq_sum, m_minus, ig_shape, ig_scale)
    return math.exp(log_num - log_den)


def marginal_weight_quadrature(
    w: float,
    m_minus: int,
    N: int,
    alpha_over_K: float,
    ig_shape: float,
    ig_scale: float,
    other_sq_sum: float = 0.0,
) -> float:
    """Prior-predictive of one weight entry by direct numeric integration.

    Integrates the column's inclusion probability (Beta(a, 1) against
    the other rows' mask entries) and, for a nonzero value, the slab
    variance (inverse-gamma against the other active slab values with
    squared sum ``other_sq_sum``).

    Returns the point mass at zero when ``w == 0``, otherwise the
    continuous density at ``w``.
    """
    if not 0 <= m_minus <= N - 1:
        raise ValueError(f"m_minus must be in [0, {N - 1}], got {m_minus}")
    if min(alpha_over_K, ig_shape, ig_scale) <= 0.0:
        raise ValueError("alpha_over_K, ig_shape and ig_scale must be positive")
    spike, slab = _p_axis_integrals(m_minus, N, alpha_over_K)
    if w == 0.0:
        return spike
    return slab * slab_density_quadrature(w, m_minus, other_sq_sum, ig_shape, ig_scale)


def mc_lof_histogram(sampler, N: int, alpha: float, num_draws: int,
                     rng: np.random.Generator) -> dict[tuple, float]:
    """Empirical distribution over left-ordered classes from a sampler.

    ``sampler(N, alpha, rng)`` must return a binary mask with no
    all-zero columns.  Classes are keyed as ``ibp.left_order_form``
    gives them.  Restricted to N <= 3 so the class space stays
    enumerable by the comparisons this feeds.
    """
    if N > 3:
        raise ValueError("histogram comparisons only support N <= 3")
    if num_draws < 0:
        raise ValueError("num_draws must be >= 0")
    # Draws are counted by their sorted column histories; each distinct
    # class is then checked binary once.
    counts: dict[tuple, int] = {}
    for _ in range(num_draws):
        key = tuple(sorted(map(tuple, sampler(N, alpha, rng).T.tolist()), reverse=True))
        counts[key] = counts.get(key, 0) + 1
    for key in counts:
        ibp.as_binary_matrix(np.reshape(key, (-1, N)).T)
    return {key: c / num_draws for key, c in counts.items()}


def freq_standard_error(p: float, num_draws: int) -> float:
    """Binomial standard error of an empirical frequency at probability p."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / num_draws)


def lof_class_probabilities(N: int, alpha: float, max_k: int) -> Iterator[tuple[tuple, float]]:
    """Yield each left-ordered class with K <= max_k and its process-law probability.

    Classes are multisets of nonzero column histories.  Drawn in
    non-increasing order, each multiset is already its class in the
    form ``ibp.left_order_form`` gives, and is priced by the process
    law.  Classes come by K, then in that order within K; each is
    yielded as it is drawn, so a caller keeps only the classes it needs
    (N=3, max_k=8 gives 6,435 of them).
    """
    histories = []
    for h in range(1, 2 ** N):
        histories.append(tuple((h >> (N - 1 - n)) & 1 for n in range(N)))
    histories.sort(reverse=True)
    for k in range(max_k + 1):
        for combo in itertools.combinations_with_replacement(histories, k):
            yield combo, math.exp(ibp.logprob_lof_class(combo, N, alpha))


# -- frozen kernel state and total-variation checks -----------------------

# Reference-grid points of the TV checks are priced this many at a
# time.  Blocks keep the temporaries small; each point is priced on its
# own, so the floats do not depend on the block size.
_BLOCK = 1024
# Points of each TV check's reference grid, and equal bins over its span.
_TV_GRID_POINTS = 40001
_TV_BINS = 24


def _by_blocks(f, rows: np.ndarray) -> np.ndarray:
    """``f(rows)`` evaluated ``_BLOCK`` rows at a time, for an ``f`` that maps each row to one float."""
    out = np.empty(len(rows))
    for i in range(0, len(rows), _BLOCK):
        out[i:i + _BLOCK] = f(rows[i:i + _BLOCK])
    return out


def frozen_kernel_state():
    """A small fixed chain state for 1-D kernel checks (N=4, K=2, T=10).

    The mask/slab are hard-coded so both columns have several active
    entries and so the checked entry (0, 0) carries a small weight next
    to a larger one: its conditional then keeps visible mass on the
    spike, which makes the kernel checks exercise the toggle in both
    directions rather than only the value moves.  The factors and data
    are drawn once from seed 7.  The state's ``target.hyper`` holds the
    hyperparameters.
    """
    from .inference import ChainState

    hyper = model.LayerHyper(alpha_ibp=2.0, ig_shape=3.0, ig_scale=2.0, sigma_top=1.0, sigma_floor=1e-6)
    mask = np.array([[1, 1], [1, 1], [0, 1], [1, 1]], dtype=np.int8)
    slab = np.array([[0.4, -0.7], [-1.1, 0.6], [0.0, -0.8], [0.5, 1.2]])
    rng = np.random.default_rng(7)
    Y = rng.standard_normal((2, 10))
    X = model.draw_routed(mask * slab, Y, hyper.sigma_floor, rng)
    return ChainState(X=X, Y=Y, mask=mask, slab=slab, target=model.LayerTarget(hyper))


def _grid_tv(draws: np.ndarray, grid: np.ndarray, log_d: np.ndarray, log_atom: float) -> float:
    """Total variation between kernel draws and a law given on a grid.

    The law is an atom at zero with unnormalised log-mass ``log_atom``
    (-inf for none) plus a continuous part with log-density ``log_d`` on
    ``grid``, integrated by the trapezoid rule.  The comparison uses
    ``_TV_BINS`` equal bins over the grid's span, the atom, and the mass
    outside the span (zero under the law).
    """
    shift = max(float(log_d.max()), log_atom)
    dens = np.subtract(log_d, shift)
    np.exp(dens, out=dens)
    # The trapezoid pieces go in one buffer and their running sum into
    # the density's, which is spent by then.  The operations and their
    # order are those of
    # np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)),
    # so the values are that expression's.
    piece = np.add(dens[1:], dens[:-1])
    piece *= 0.5
    piece *= np.subtract(grid[1:], grid[:-1], out=dens[1:])
    cum = dens
    cum[0] = 0.0
    np.cumsum(piece, out=cum[1:])
    atom_unnorm = math.exp(log_atom - shift)
    Z = atom_unnorm + cum[-1]
    edges = np.linspace(grid[0], grid[-1], _TV_BINS + 1)
    bin_mass = np.diff(np.interp(edges, grid, cum)) / Z
    atom_mass = atom_unnorm / Z

    kept = len(draws)
    atom_hat = float(np.mean(draws == 0.0))
    nonatom = draws[draws != 0.0]
    counts, _ = np.histogram(nonatom, bins=edges)
    freq = counts / kept
    out_hat = (len(nonatom) - counts.sum()) / kept
    tv = 0.5 * (abs(atom_hat - atom_mass) + out_hat + np.abs(freq - bin_mass).sum())
    return float(tv)


def _kernel_tv(update, value, half_width: float, log_density, log_atom: float,
               kept: int, thin: int, seed: int) -> float:
    """Total variation between one kernel's samples and its conditional law.

    The law is priced on a ``_TV_GRID_POINTS`` grid over
    [-half_width, half_width] (``log_density`` of an array of points,
    plus the atom ``log_atom`` at zero).  ``update(rng)`` applies the
    kernel once with everything else held fixed; after every ``thin``
    calls ``value()`` is kept, ``kept`` times in all.
    """
    grid = np.linspace(-half_width, half_width, _TV_GRID_POINTS)
    log_d = _by_blocks(log_density, grid)
    rng = np.random.default_rng(seed)
    draws = np.empty(kept)
    for j in range(kept):
        for _ in range(thin):
            update(rng)
        draws[j] = value()
    return _grid_tv(draws, grid, log_d, log_atom)


def weight_kernel_tv(kept: int = 100_000, thin: int = 5, seed: int = 2024) -> float:
    """Total variation between the weight kernel's samples and its target.

    Repeatedly applies the single-entry kernel to entry (0, 0) of the
    frozen state with everything else held fixed, keeping every
    ``thin``-th value, and compares the atom-plus-histogram against the
    grid-integrated conditional law.
    """
    from .inference import gibbs_update_weight

    state = frozen_kernel_state()
    n0, k0 = 0, 0
    m_minus = int(state.m[k0]) - int(state.mask[n0, k0])
    active = state.mask[:, k0].astype(bool)
    sq_minus = float(np.sum(state.slab[active, k0] ** 2)) - float(state.slab[n0, k0]) ** 2
    spike_p, slab_p, df, t_scale = state.target.entry_prior(m_minus, state.N, state.K, sq_minus)
    base_row = state.S[n0] - state.slab[n0, k0] * state.Y[k0]
    x_row = state.X[n0].copy()
    y_row = state.Y[k0].copy()

    def loglik(w):
        s = np.maximum(np.abs(base_row[None, :] + np.atleast_1d(w)[:, None] * y_row[None, :]),
                       state.target.hyper.sigma_floor)
        z = x_row[None, :] / s
        return -0.5 * x_row.size * model.LOG_2PI - np.log(s).sum(axis=1) - 0.5 * (z * z).sum(axis=1)

    lik0 = float(loglik(0.0)[0])

    def log_density(w):
        return math.log(slab_p) + model.student_t_logpdf(w, df, t_scale) + loglik(w) - lik0

    return _kernel_tv(lambda rng: gibbs_update_weight(state, n0, k0, rng),
                      lambda: state.mask[n0, k0] * state.slab[n0, k0],
                      15.0 * t_scale, log_density,
                      math.log(spike_p),  # lik(0) - lik0 == 0
                      kept, thin, seed)


def factor_kernel_tv(kept: int = 100_000, thin: int = 5, seed: int = 2025) -> float:
    """Total variation between the factor kernel's samples and its target.

    Same protocol as the weight check, for factor entry (0, 0), whose
    conditional law has no atom.
    """
    from .inference import gibbs_update_factor

    state = frozen_kernel_state()
    k0, t0 = 0, 0
    rows = np.flatnonzero(state.mask[:, k0])
    w_col = state.slab[rows, k0].copy()
    x_col = state.X[rows, t0].copy()
    base = state.S[rows, t0] - w_col * state.Y[k0, t0]
    sig_prior = float(state.sigma_y[k0, t0])
    floor = state.target.hyper.sigma_floor

    def logtarget(y):
        y = np.atleast_1d(y)
        s = np.maximum(np.abs(base[None, :] + np.outer(y, w_col)), floor)
        z = x_col[None, :] / s
        lik = -0.5 * len(rows) * model.LOG_2PI - np.log(s).sum(axis=1) - 0.5 * (z * z).sum(axis=1)
        return lik - 0.5 * (y / sig_prior) ** 2

    return _kernel_tv(lambda rng: gibbs_update_factor(state, k0, t0, rng),
                      lambda: state.Y[k0, t0],
                      12.0 * sig_prior, logtarget, -math.inf, kept, thin, seed)


def ibp_sampler_max_z(num_draws: int, seed: int) -> float:
    """Worst per-class z-score of the sequential sampler vs the process law.

    Compares empirical class frequencies over ``num_draws`` draws at
    N=3 and alpha=1 with exp(logprob_mask_ibp), over the classes with
    K <= 8.  Classes whose expected count reaches 10 are tested
    individually (the z statistic is only meaningful there); everything
    rarer is pooled into one tail bucket tested the same way, so the
    whole law is still covered.
    """
    N, alpha, max_k, min_expected = 3, 1.0, 8, 10.0
    rng = np.random.default_rng(seed)
    freqs = mc_lof_histogram(ibp.sample_ibp_sequential, N, alpha, num_draws, rng)
    tested = {
        cls: p for cls, p in lof_class_probabilities(N, alpha, max_k) if p * num_draws >= min_expected
    }
    worst = 0.0
    for cls, p in tested.items():
        se = freq_standard_error(p, num_draws)
        z = abs(freqs.get(cls, 0.0) - p) / se if se > 0 else 0.0
        worst = max(worst, z)
    tail_p = 1.0 - sum(tested.values())
    tail_f = 1.0 - sum(freqs.get(cls, 0.0) for cls in tested)
    se = freq_standard_error(tail_p, num_draws)
    if se > 0:
        worst = max(worst, abs(tail_f - tail_p) / se)
    return worst


def dish_count_mean_z(num_draws: int, seed: int) -> float:
    """z-score of the mean sampled dish count against alpha * H_N, at N=10 and alpha=3."""
    N, alpha = 10, 3.0
    rng = np.random.default_rng(seed)
    counts = np.array([
        ibp.sample_ibp_sequential(N, alpha, rng).shape[1] for _ in range(num_draws)
    ])
    se = counts.std(ddof=1) / math.sqrt(num_draws)
    return float(abs(counts.mean() - alpha * ibp.harmonic_number(N)) / se)


# Hyperparameters for the generate-then-sample consistency run.  The
# inverse-gamma shape is raised to 4 so the slab marginal has finite
# fourth moments; otherwise the standard errors of the second-moment
# comparison would not exist.  The noise floor is raised well above its
# production default: when the chain regenerates its own data, a row
# whose weights are all inactive emits observations at the floor scale,
# and with a tiny floor the likelihood ratio for re-activating such a
# row underflows, splitting the state space into basins the chain
# cannot cross.  A floor of 0.3 keeps every toggle reachable so the
# time averages actually converge to the joint-law moments.
_GEWEKE_HYPER = dict(alpha_ibp=2.0, ig_shape=4.0, ig_scale=3.0, sigma_top=1.0, sigma_floor=0.3)


def _record(draw, label: str, names: list[str], n: int) -> np.ndarray:
    """Call ``draw`` n times; return its draws as an (n, len(names)) array.

    Each draw must be one float per name; a draw of any other length
    raises a ValueError that names it.
    """
    out = np.empty((n, len(names)))
    for i in range(n):
        row = draw()
        if len(row) != len(names):
            raise ValueError(f"{label} draw {i} has {len(row)} statistics, "
                             f"expected {len(names)} ({', '.join(names)})")
        out[i] = row
    return out


def geweke(forward, step, names: list[str], n_prior: int, n_sweeps: int, burn_in: int,
           batches: int) -> dict[str, float]:
    """Generate-then-sample agreement between two samplers of one law, as z-scores.

    ``forward()`` returns the statistics of an independent draw from
    the law and ``step()`` advances a chain that should leave the law
    invariant and returns the statistics of its current draw: one float
    per entry of ``names``, in that order.  Only these statistics are
    kept, so a draw may change dimension from one call to the next.  The
    harness takes ``n_prior`` forward draws and, after ``burn_in``
    unkept steps, ``n_sweeps - burn_in`` chain draws.  Returns |z| per
    statistic for the difference of the two means; the chain side's
    standard error uses ``batches`` batch means to absorb
    autocorrelation (a remainder of kept draws that does not fill a
    batch counts towards the mean only).  The prior side is drawn
    first, then the chain side.
    """
    if n_prior < 2:
        raise ValueError(f"n_prior must be >= 2, got {n_prior}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if batches < 2:
        raise ValueError(f"batches must be >= 2, got {batches}")
    kept = n_sweeps - burn_in
    if kept < batches:
        raise ValueError(
            f"n_sweeps - burn_in = {kept} kept sweeps cannot fill batches = {batches}"
        )
    # One (draw, statistic) array per side: the means below then sum in
    # a fixed order, so a pinned z stays the same float.
    prior = _record(forward, "forward", names, n_prior)
    for _ in range(burn_in):
        step()
    chain = _record(step, "step", names, kept)
    batch_means = chain[: kept // batches * batches].reshape(batches, -1, len(names)).mean(axis=1)
    zs = {}
    for j, name in enumerate(names):
        se_prior = prior[:, j].std(ddof=1) / math.sqrt(n_prior)
        se_chain = batch_means[:, j].std(ddof=1) / math.sqrt(batches)
        zs[name] = float(
            abs(prior[:, j].mean() - chain[:, j].mean()) / math.hypot(se_prior, se_chain)
        )
    return zs


def geweke_moment_zs(
    n_prior: int = 200_000,
    n_sweeps: int = 50_000,
    burn_in: int = 2_000,
    batches: int = 50,
    seed: int = 404,
) -> dict[str, float]:
    """Generate-then-sample agreement on the fixed-K model, as z-scores.

    Two ways of sampling the joint law of (weights, factors, data) at
    N=4, K=2 and T=10 must match: direct prior draws, and a chain that
    alternates one Gibbs sweep at fixed K with redrawing the data from
    the likelihood.  Any defect in the kernels' stationary law shows up
    as a moment discrepancy.  Compares the first and second moments of
    the effective weights and the factors through ``geweke``.  The
    chain starts from a prior draw, made after the prior side's; once
    it has run, its caches must still match a fresh derivation.
    Returns |z| per moment.
    """
    from .inference import ChainState, gibbs_sweep, resample_data

    N, K, T = 4, 2, 10
    target = model.LayerTarget(model.LayerHyper(**_GEWEKE_HYPER))
    rng = np.random.default_rng(seed)

    def moments(w, y):
        return w.sum() / w.size, (w * w).sum() / w.size, y.sum() / y.size, (y * y).sum() / y.size

    def draw_prior():
        mask, slab, Y = target.draw(N, K, T, rng)
        return moments(mask * slab, Y)

    state = None

    def step():
        nonlocal state
        if state is None:
            mask, slab, Y = target.draw(N, K, T, rng)
            X = model.draw_routed(mask * slab, Y, target.hyper.sigma_floor, rng)
            state = ChainState(X=X, Y=Y, mask=mask, slab=slab, target=target)
        gibbs_sweep(state, rng)
        resample_data(state, rng)
        # The slab is zero wherever the mask is, so it is the effective weight.
        return moments(state.slab, state.Y)

    zs = geweke(draw_prior, step, ["mean_w", "mean_w_sq", "mean_y", "mean_y_sq"],
                n_prior, n_sweeps, burn_in, batches)
    state.check_consistency()
    return zs


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error < self.tol

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return f"{status} {self.name}: max error {self.error:.3e} (tol {self.tol:.1e})"


@dataclass(frozen=True)
class ValidationReport:
    checks: list[ValidationCheck]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append("all checks passed" if self.ok else "validation FAILED")
        return out


def _check_mask_normalization() -> ValidationCheck:
    masks = enumerate_masks(3, 2)
    err = 0.0
    for alpha in (0.5, 1.0, 3.0):
        total = sum(math.exp(ibp.logprob_mask_marginal(Z, alpha)) for Z in masks)
        err = max(err, abs(total - 1.0))
    return ValidationCheck("mask marginal normalizes (N=3, K=2)", err, 1e-10)


def _check_spike_slab_integrates() -> ValidationCheck:
    err = 0.0
    for p, s2 in ((0.5, 2.0), (0.3, 0.5)):
        width = 50.0 * math.sqrt(s2)
        # The grid, then the density in place of it.  The grid is
        # uniform, so the trapezoid rule is h (sum f - (f_0 + f_last) / 2).
        f, h = np.linspace(-width, width, 100001, retstep=True)
        np.square(f, out=f)
        f /= -2.0 * s2
        f += math.log(p) - 0.5 * (model.LOG_2PI + math.log(s2))
        np.exp(f, out=f)
        err = max(err, abs(h * (float(f.sum()) - 0.5 * (f[0] + f[-1])) - p))
    return ValidationCheck("spike-and-slab continuous part integrates to p", err, 1e-8)


def _check_spike_mass() -> ValidationCheck:
    err = 0.0
    for m_minus, N, a in ((0, 2, 1.0), (1, 4, 0.5), (3, 6, 2.0)):
        closed = model.spike_slab_predictive(m_minus, N, a)[0]
        quad = marginal_weight_quadrature(0.0, m_minus, N, a, 2.0, 1.0)
        err = max(err, abs(closed - quad))
    return ValidationCheck("spike mass closed form vs quadrature", err, 1e-6)


def _check_slab_density() -> ValidationCheck:
    m_minus, sq, shape, scale = 2, 1.7, 2.0, 1.0
    df, t_scale = model.slab_predictive_params(m_minus, sq, shape, scale)
    err = 0.0
    for w in (0.3, 1.5, -2.2):
        closed = math.exp(model.student_t_logpdf(w, df, t_scale))
        quad = slab_density_quadrature(w, m_minus, sq, shape, scale)
        err = max(err, abs(closed - quad))
    return ValidationCheck("slab predictive density vs quadrature", err, 1e-6)


def _check_slab_marginal() -> ValidationCheck:
    closed = model.slab_column_logmarginal(2.4, 3, 2.0, 1.0)
    quad = slab_logmarginal_quadrature(2.4, 3, 2.0, 1.0)
    return ValidationCheck("slab column log-marginal vs quadrature", abs(closed - quad), 1e-6)


def _check_k_prior_normalizes() -> ValidationCheck:
    rate = 3.0 * ibp.harmonic_number(16)
    total = sum(math.exp(model.log_poisson_k(k, rate)) for k in range(400))
    return ValidationCheck("factor-count prior normalizes", abs(total - 1.0), 1e-10)


def _check_ibp_finite_limit() -> ValidationCheck:
    """Process law vs the finite Beta-Bernoulli law at a huge truncation.

    A left-ordered class with K+ distinct-history groups of sizes K_h
    collects K!/(K - K+)! / prod_h K_h! arrangements of a K-column
    finite mask whose remaining columns are zero; the finite marginal
    of any one arrangement times that count converges to the process
    law as K grows, at rate O(1/K).  The finite marginal is a sum of
    per-column terms at a = alpha / K, so it is priced as the K+ linked
    columns plus K - K+ copies of the empty column's term: no array
    has K entries.
    """
    K = 1_000_000
    alpha = 1.5
    err = 0.0
    for cols in (((1, 0),), ((1, 1),), ((1, 0), (0, 1)), ((1, 1), (1, 0), (1, 0))):
        Z = np.array(cols, dtype=np.int8).T
        N, K_plus = Z.shape
        lof = ibp.left_order_form(Z)
        log_count = (
            math.lgamma(K + 1.0)
            - math.lgamma(K - K_plus + 1.0)
            - sum(math.lgamma(len(list(g)) + 1.0) for _, g in itertools.groupby(lof))
        )
        # Each call's alpha is scaled so that its own a is alpha / K.
        linked = ibp.logprob_mask_marginal_counts(Z.sum(axis=0), N, alpha * K_plus / K)
        empty = ibp.logprob_mask_marginal_counts(np.zeros(1, dtype=np.int64), N, alpha / K)
        finite = log_count + linked + (K - K_plus) * empty
        process = ibp.logprob_lof_class(lof, N, alpha)
        err = max(err, abs(math.exp(finite) - math.exp(process)))
    return ValidationCheck("process law is the finite-mask limit", err, 1e-4)


def _check_ibp_sampler() -> ValidationCheck:
    z = ibp_sampler_max_z(num_draws=20_000, seed=11)
    return ValidationCheck("sequential mask sampler vs process law (z)", z, 4.0)


def _check_dish_count() -> ValidationCheck:
    z = dish_count_mean_z(num_draws=5_000, seed=12)
    return ValidationCheck("sampled dish-count mean vs alpha * H_N (z)", z, 4.0)


def _check_weight_kernel() -> ValidationCheck:
    tv = weight_kernel_tv(kept=20_000, thin=5, seed=21)
    return ValidationCheck("weight kernel vs conditional law (TV)", tv, 0.02)


def _check_factor_kernel() -> ValidationCheck:
    tv = factor_kernel_tv(kept=20_000, thin=5, seed=22)
    return ValidationCheck("factor kernel vs conditional law (TV)", tv, 0.02)


def run_validation() -> ValidationReport:
    """Run every closed-form-vs-oracle agreement check."""
    return ValidationReport(checks=[
        _check_mask_normalization(),
        _check_spike_slab_integrates(),
        _check_spike_mass(),
        _check_slab_density(),
        _check_slab_marginal(),
        _check_k_prior_normalizes(),
        _check_ibp_finite_limit(),
        _check_ibp_sampler(),
        _check_dish_count(),
        _check_weight_kernel(),
        _check_factor_kernel(),
    ])
