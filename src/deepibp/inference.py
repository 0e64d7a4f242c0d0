"""Trans-dimensional MH/Gibbs engine for one layer, plus the layerwise driver.

Each iteration makes one pass of dimension moves (propose adding an
empty factor or deleting an unlinked one), then sweeps every weight
entry and every factor entry with MH-within-Gibbs kernels.  All
acceptance arithmetic happens in log space; the interior ratios of the
dimension moves are exact differences of the marginalized prior terms,
so the add and delete ratios for a matched pair of states are exact
reciprocals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .ibp import as_binary_matrix, harmonic_number, logprob_mask_marginal_counts
from .model import LayerHyper, ParentContext

__all__ = [
    "ChainState",
    "ChainTrace",
    "InferenceConfig",
    "MoveStats",
    "check_init_k",
    "gibbs_sweep",
    "gibbs_update_factor",
    "gibbs_update_weight",
    "log_ratio_add",
    "log_ratio_delete",
    "resample_data",
    "run_mh_layer",
    "run_layerwise",
]


@dataclass
class MoveStats:
    """Proposal/acceptance counters per move kind."""

    add_proposed: int = 0
    add_accepted: int = 0
    delete_proposed: int = 0
    delete_accepted: int = 0
    weight_proposed: int = 0
    weight_accepted: int = 0
    factor_proposed: int = 0
    factor_accepted: int = 0

    def check(self) -> None:
        for kind in ("add", "delete", "weight", "factor"):
            if getattr(self, f"{kind}_accepted") > getattr(self, f"{kind}_proposed"):
                raise AssertionError(f"{kind}: accepted exceeds proposed")


def check_init_k(init_k, name: str = "init_k") -> int | tuple[int, int]:
    """Validate a starting factor count: an int >= 0 or an inclusive (lo, hi) pair.

    Returns the int, or the pair as a tuple; ``name`` labels the errors.
    """
    if isinstance(init_k, (list, tuple)):
        if len(init_k) != 2:
            raise ValueError(f"{name} range must be a (lo, hi) pair, got {init_k!r}")
        lo, hi = (model.as_int(v, name) for v in init_k)
        if not 0 <= lo <= hi:
            raise ValueError(f"bad {name} range ({lo}, {hi})")
        return lo, hi
    k = model.as_int(init_k, name)
    if k < 0:
        raise ValueError(f"{name} must be >= 0")
    return k


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for one chain.

    ``init_k`` is either a fixed integer or an inclusive (lo, hi) pair
    drawn uniformly at chain start.  The chain's randomness is the
    generator given to ``run_mh_layer`` (or the seed given to
    ``run_layerwise``).
    """

    iterations: int = 200
    init_k: int | tuple[int, int] = 2
    layerwise_outer_loops: int = 5

    def __post_init__(self) -> None:
        if model.as_int(self.iterations, "iterations") < 0:
            raise ValueError("iterations must be >= 0")
        if model.as_int(self.layerwise_outer_loops, "layerwise_outer_loops") < 1:
            raise ValueError("layerwise_outer_loops must be >= 1")
        object.__setattr__(self, "init_k", check_init_k(self.init_k))

    def draw_init_k(self, rng: np.random.Generator) -> int:
        if isinstance(self.init_k, int):
            return self.init_k
        lo, hi = self.init_k
        return int(rng.integers(lo, hi + 1))


@dataclass
class ChainTrace:
    """Per-iteration chain record."""

    k: np.ndarray
    log_joint: np.ndarray
    accepted_adds: np.ndarray
    accepted_deletes: np.ndarray

    def __len__(self) -> int:
        return len(self.k)

    @staticmethod
    def concatenate(traces: list["ChainTrace"]) -> "ChainTrace":
        return ChainTrace(
            k=np.concatenate([t.k for t in traces]) if traces else np.zeros(0, dtype=np.int64),
            log_joint=np.concatenate([t.log_joint for t in traces]) if traces else np.zeros(0),
            accepted_adds=np.concatenate([t.accepted_adds for t in traces]) if traces else np.zeros(0, dtype=np.int64),
            accepted_deletes=np.concatenate([t.accepted_deletes for t in traces]) if traces else np.zeros(0, dtype=np.int64),
        )


def _same_shape_close(cached: np.ndarray, fresh: np.ndarray, rtol: float, atol: float) -> bool:
    """``np.allclose`` without broadcasting: a cache of the wrong shape never matches."""
    return cached.shape == fresh.shape and np.allclose(cached, fresh, rtol=rtol, atol=atol)


@dataclass
class ChainState:
    """Sampler state for one layer: data, factors, mask/slab, caches.

    The constructor and ``rebind`` are where the arrays are checked:
    X, Y and slab must be 2-D and finite, the mask binary, the slab of
    the mask's shape and Y of shape (K, T).  The constructor copies the
    mask, slab and Y it is given, so the kernels never write into a
    caller's arrays.  The slab is kept exactly zero wherever the mask is
    zero, so the effective weight matrix equals ``mask * slab`` equals
    ``slab``.  ``refresh`` is where the caches are derived: ``S`` =
    slab @ Y, ``m`` the per-column link counts and ``sigma_y`` the
    factor-prior stds.  Those three are the only caches; no cache holds
    the log-joint, which ``model.log_joint`` prices on demand.  Every
    kernel reads its hyperparameters from ``layer_hyper``, the same
    values the log-joint is priced with.
    """

    X: np.ndarray
    Y: np.ndarray
    mask: np.ndarray
    slab: np.ndarray
    layer_hyper: LayerHyper
    parent_context: ParentContext | None = None
    stats: MoveStats = field(default_factory=MoveStats)
    m: np.ndarray = field(init=False)
    S: np.ndarray = field(init=False)
    sigma_y: np.ndarray = field(init=False)
    # One-slot memo of log_ratio_add: (key, ratio), keyed by what it reads.
    _add_ratio_memo: tuple[tuple[bytes, int, float], float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.mask = np.array(as_binary_matrix(self.mask), order="C")
        slab = model.as_factor_matrix(self.slab)
        if slab.shape != self.mask.shape:
            raise ValueError(f"slab shape {slab.shape} != mask shape {self.mask.shape}")
        self.slab = np.where(self.mask == 1, slab, 0.0)
        self.Y = model.as_factor_matrix(self.Y).copy()
        if self.Y.shape[0] != self.K:
            raise ValueError(f"Y has {self.Y.shape[0]} rows for {self.K} mask columns")
        self.rebind(self.X, self.parent_context)

    # -- dimensions ----------------------------------------------------
    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def T(self) -> int:
        return self.X.shape[1]

    @property
    def K(self) -> int:
        return self.mask.shape[1]

    @property
    def K_plus(self) -> int:
        return int(np.count_nonzero(self.m))

    # -- caches --------------------------------------------------------
    def refresh(self) -> None:
        """Recompute every cache from the primary arrays; the state is not priced."""
        self.m = self.mask.sum(axis=0, dtype=np.int64)
        self.S = self.slab @ self.Y
        self.sigma_y = model.factor_prior_sigma(self.K, self.T, self.layer_hyper, self.parent_context)

    def check_consistency(self) -> None:
        """Assert every cache matches a fresh recomputation and the log-joint is finite."""
        # Plain numpy comparisons: np.testing would import unittest and
        # more for the life of the process.
        if not np.array_equal(self.m, self.mask.sum(axis=0, dtype=np.int64)):
            raise AssertionError("cached m does not match the mask's column counts")
        if not _same_shape_close(self.S, self.slab @ self.Y, rtol=1e-7, atol=1e-10):
            raise AssertionError("cached S does not match slab @ Y")
        fresh_sigma = model.factor_prior_sigma(self.K, self.T, self.layer_hyper, self.parent_context)
        if not _same_shape_close(self.sigma_y, fresh_sigma, rtol=1e-12, atol=0.0):
            raise AssertionError("cached sigma_y does not match the factor prior")
        if np.any((self.mask == 0) & (self.slab != 0.0)):
            raise AssertionError("slab must be zero wherever the mask is zero")
        # The log-joint reads the caches checked above.
        fresh = model.log_joint(self)
        if not math.isfinite(fresh):
            raise AssertionError(f"log-joint is {fresh}")
        self.stats.check()

    # -- construction ----------------------------------------------------
    @classmethod
    def from_prior(
        cls,
        X: np.ndarray,
        cfg: InferenceConfig,
        hyper: LayerHyper,
        parent_context: ParentContext | None,
        rng: np.random.Generator,
    ) -> "ChainState":
        """Initialise mask/slab from the finite prior and factors from theirs.

        Each initial column is conditioned on having at least one link
        (empty columns are redrawn), so a chain initialised at K really
        starts with K active factors; columns are independent under the
        finite prior, so this is the conditioned prior law.  Data with
        no rows start at K = 0, the only factor count their prior allows.
        """
        X = model.as_factor_matrix(X)
        k0 = cfg.draw_init_k(rng) if X.shape[0] else 0
        layer = model.sample_weight_layer(
            X.shape[0], k0, hyper.alpha_ibp, hyper.ig_shape, hyper.ig_scale, rng
        )
        mask, slab = layer.mask, layer.slab
        N = X.shape[0]
        if N > 0 and k0 > 0:
            a = hyper.alpha_ibp / k0
            while True:
                empty = np.flatnonzero(mask.sum(axis=0) == 0)
                if empty.size == 0:
                    break
                mask[:, empty], slab[:, empty] = model._prior_columns(
                    N, empty.size, a, hyper.ig_shape, hyper.ig_scale, rng
                )
        sigma_y = model.factor_prior_sigma(k0, X.shape[1], hyper, parent_context)
        return cls(
            X=X,
            Y=sigma_y * rng.standard_normal((k0, X.shape[1])),
            mask=mask,
            slab=slab,
            layer_hyper=hyper,
            parent_context=parent_context,
        )

    def rebind(self, X: np.ndarray, parent_context: ParentContext | None) -> None:
        """Point the chain at new data / a new upper-layer context and refresh."""
        X = model.as_factor_matrix(X)
        if X.shape != (self.mask.shape[0], self.Y.shape[1]):
            raise ValueError(
                f"data shape {X.shape} does not fit a chain with mask {self.mask.shape} "
                f"and factors {self.Y.shape}"
            )
        if parent_context is not None and parent_context.factors.shape[1] != X.shape[1]:
            raise ValueError(
                f"context factors {parent_context.factors.shape} do not span the data's {X.shape[1]} instances"
            )
        self.X = X
        self.parent_context = parent_context
        self.refresh()


# -- dimension moves ----------------------------------------------------

def _log_ratio_from_small(m_small: np.ndarray, k_plus_small: int, N: int, alpha: float) -> float:
    """Interior log-ratio of the add move evaluated on the smaller state.

    Three exact pieces: the proposal structure factor
    log[(1/(K+1)) / (K+/K)], the mask-marginal difference for appending
    an all-zero column (every column re-priced at alpha/(K+1)), and the
    Poisson factor-count ratio log[rate/(K+1)].  The new factor's value
    terms cancel between proposal and target and never appear.  When no
    factor is linked (K+ = 0, which includes K = 0) the reverse factor
    K+/K is replaced by 1, letting the chain leave the empty state.
    """
    K = len(m_small)
    structure = -math.log(K + 1.0)
    if k_plus_small:
        structure -= math.log(k_plus_small / K)
    m_large = np.append(m_small, 0)
    delta_mask = logprob_mask_marginal_counts(m_large, N, alpha) - logprob_mask_marginal_counts(
        m_small, N, alpha
    )
    rate = alpha * harmonic_number(N)
    delta_k = math.log(rate) - math.log(K + 1.0)
    return structure + delta_mask + delta_k


def log_ratio_add(state: ChainState) -> float:
    """Unclamped interior log-ratio for adding one empty factor.

    The ratio depends only on the link counts, N and alpha, and the link
    counts seldom change between the dimension moves of one pass, so the
    chain keeps the last value under those inputs and reuses it while
    they match.
    """
    alpha = state.layer_hyper.alpha_ibp
    key = (state.m.tobytes(), state.N, alpha)
    memo = state._add_ratio_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    log_r = _log_ratio_from_small(state.m, state.K_plus, state.N, alpha)
    state._add_ratio_memo = (key, log_r)
    return log_r


def log_ratio_delete(state: ChainState, k: int) -> float:
    """Unclamped interior log-ratio for deleting unlinked factor ``k``.

    Exactly the negation of the add ratio evaluated on the state with
    column k removed, so matched add/delete ratios are reciprocal.
    """
    if not 0 <= k < state.K:
        raise IndexError(f"factor index {k} out of range")
    if state.m[k] != 0:
        raise ValueError(f"factor {k} has {state.m[k]} links; only unlinked factors can be deleted")
    m_small = np.delete(state.m, k)
    return -_log_ratio_from_small(
        m_small, int(np.count_nonzero(m_small)), state.N, state.layer_hyper.alpha_ibp
    )


def _resize(state: ChainState, keep: np.ndarray, n_new: int = 0) -> None:
    """Keep factor columns ``keep`` in order and append ``n_new`` empty ones.

    New columns have zero mask, slab and Y rows; callers draw their Y
    rows.  Only unlinked columns may be dropped, so ``S`` is unchanged.
    New rows take the factor prior's stds at their positions; kept rows
    keep theirs, even where a parent context prices a moved row by its
    new position.  Dropping that copy moves depth-2 draws, so it belongs
    with the fix of that defect.  Arrays are allocated C-ordered, then
    filled: an F-ordered slab, as ``slab[:, keep]`` gives, makes BLAS
    round ``slab @ Y`` differently.
    """
    n_keep = keep.size
    K = n_keep + n_new
    mask = np.zeros((state.N, K), dtype=np.int8)
    slab = np.zeros((state.N, K))
    Y = np.zeros((K, state.T))
    mask[:, :n_keep] = state.mask.take(keep, axis=1)
    slab[:, :n_keep] = state.slab.take(keep, axis=1)
    Y[:n_keep] = state.Y.take(keep, axis=0)
    sigma_y = model.factor_prior_sigma(K, state.T, state.layer_hyper, state.parent_context)
    sigma_y[:n_keep] = state.sigma_y.take(keep, axis=0)
    state.mask, state.slab, state.Y, state.sigma_y = mask, slab, Y, sigma_y
    state.m = np.append(state.m.take(keep), np.zeros(n_new, dtype=np.int64))


def _dimension_move(
    state: ChainState,
    i: int,
    rng: np.random.Generator,
    cursor: int,
) -> int:
    """One dimension move for data row ``i``; returns the column cursor.

    With no factors at all the only option is an add.  Otherwise the
    cursor cycles the columns in order: a column still linked by other
    rows prompts an add proposal, an unlinked column prompts its own
    deletion, and a column linked only by row i prompts nothing.
    """
    if state.K == 0:
        propose_delete = None
    else:
        k = cursor % state.K
        cursor += 1
        if state.m[k] - state.mask[i, k] > 0:
            propose_delete = None
        elif state.m[k] == 0:
            propose_delete = k
        else:
            return cursor

    if propose_delete is None:
        state.stats.add_proposed += 1
        if rng.random() < math.exp(min(log_ratio_add(state), 0.0)):
            _resize(state, np.arange(state.K), 1)
            state.Y[-1] = state.sigma_y[-1] * rng.standard_normal(state.T)
            state.stats.add_accepted += 1
    else:
        state.stats.delete_proposed += 1
        if rng.random() < math.exp(min(log_ratio_delete(state, propose_delete), 0.0)):
            _resize(state, np.delete(np.arange(state.K), propose_delete))
            state.stats.delete_accepted += 1
    return cursor


# -- weight kernel ------------------------------------------------------

# Random-walk proposals on a weight or a factor step by this multiple of
# the entry's natural scale: the predictive t scale or the prior std.
_STEP_SCALE = 0.5
# run_layerwise stops its outer loop once a pass raises the stack's
# log-joint by less than this many nats.
_CONVERGENCE_TOL = 1.0


def _loglik(x: np.ndarray, s: np.ndarray, floor: float, axis: int = -1):
    """-sum(log sigma + x^2 / (2 sigma^2)) along ``axis``, with sigma = max(|s|, floor).

    This is the data log-likelihood under routed scales ``s`` without
    its -log(2 pi)/2 per entry, which cancels in every ratio.  ``x``
    broadcasts against ``s``, so one data row prices a grid of rows.
    """
    sigma = np.abs(s)
    np.maximum(sigma, floor, out=sigma)
    terms = x / sigma
    terms *= terms
    terms *= 0.5
    terms += np.log(sigma)
    return -terms.sum(axis)


# Slab-value proposal for the spike<->slab toggle: a mixture of the
# predictive t and a histogram built on the entry's conditional.  The
# histogram puts proposal mass where the data wants the weight; the t
# component keeps the mixture density positive on the whole line so the
# reverse move is always priced.
_TOGGLE_CELLS = 21
_TOGGLE_SPAN = 7.0
_TOGGLE_T_WEIGHT = 0.1
# Cell centres in cell widths from the grid's left edge.
_GRID_OFFSETS = np.arange(_TOGGLE_CELLS) + 0.5
# Squared cell centres in predictive-scale units; the grid spans the
# same [-span, span] in those units whatever the scale.
_GRID_Z2 = ((_GRID_OFFSETS * (2.0 / _TOGGLE_CELLS) - 1.0) * _TOGGLE_SPAN) ** 2


@functools.lru_cache(maxsize=64)
def _t_grid_terms(df: float) -> tuple[float, float, np.ndarray]:
    """The toggle's Student-t terms that depend on df alone.

    Returns the log normaliser without its -log(scale) term, the power
    (df + 1)/2 and the log-kernel at every cell centre.  df takes at most
    N values per layer, so each is computed once.
    """
    t_power = 0.5 * (df + 1.0)
    norm = math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    grid_kernel = t_power * np.log1p(_GRID_Z2 / df)
    grid_kernel.flags.writeable = False
    return norm, t_power, grid_kernel


def gibbs_update_weight(state: ChainState, n: int, k: int, rng: np.random.Generator) -> float:
    """Resample weight (n, k) from its full conditional by MH-within-Gibbs.

    The conditional is the data likelihood of row n times the entry's
    prior predictive given the rest of its column: a spike/slab split
    from the integrated inclusion probability, and a Student-t slab law
    from the integrated column variance.  Two proposals are made: a
    spike<->slab toggle whose slab values come from a likelihood-informed
    mixture priced by the exact density ratio, and, if the entry is
    active, a random-walk move on the value.  Returns the entry's new
    effective value.

    The toggle's informed component discretises the slab conditional
    (predictive t times row likelihood) into _TOGGLE_CELLS uniform cells
    on [-span, span] predictive scales, each weighted by the conditional
    at its centre; a slab value is drawn as a uniform point of a cell
    picked by numpy's own ``choice`` algorithm (cumulative sum, then
    ``searchsorted`` on one uniform), so the draws are those of
    ``rng.choice(p=...)`` without its argument validation.

    A death toggle is rejected early when it would be rejected with
    every cell mass at its ceiling of 1, which needs only the
    log-likelihoods at w = 0 and w_cur; the grid is built only when that
    bound lets the toggle through, and the decision is the same.
    """
    lh = state.layer_hyper
    active = bool(state.mask[n, k])
    m_minus = int(state.m[k]) - active
    spike_p, slab_p = model.spike_slab_predictive(m_minus, state.N, lh.alpha_ibp / state.K)
    # The slab is zero off the mask, so this is the column's squared-slab sum.
    col = state.slab[:, k]
    w_cur = float(state.slab[n, k])
    sq_minus = float(col @ col) - w_cur * w_cur
    df, t_scale = model.slab_predictive_params(m_minus, sq_minus, lh.ig_shape, lh.ig_scale)
    t_norm, t_power, grid_kernel = _t_grid_terms(df)
    t_norm -= math.log(t_scale)

    def t_logpdf(w: float) -> float:
        z = w / t_scale
        return t_norm - t_power * math.log1p(z * z / df)

    x_row = state.X[n]
    y_row = state.Y[k]
    base_row = state.S[n] - w_cur * y_row
    floor = lh.sigma_floor
    half = _TOGGLE_SPAN * t_scale
    h = 2.0 * half / _TOGGLE_CELLS
    # The row without entry k is the row at w = 0; on a birth it is S[n].
    ll_zero = float(_loglik(x_row, base_row, floor))

    def cell_log_mass(ws: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        # Conditional at each cell centre, scaled so its largest cell is 1.
        rows = np.multiply.outer(ws, y_row)
        rows += base_row
        log_mass = _loglik(x_row, rows, floor) - grid_kernel
        log_mass -= log_mass.max()
        mass = np.exp(log_mass)
        return log_mass, mass, math.log(float(mass.sum()))

    def toggle_logq(w: float, log_mass: np.ndarray | None = None, log_total: float = 0.0) -> float:
        # Without the grid, w's cell mass takes its ceiling: the largest
        # cell is exp(0) = 1 and the masses sum to at least 1.
        q = _TOGGLE_T_WEIGHT * math.exp(t_logpdf(w))
        if -half <= w < half:
            cell = 1.0
            if log_mass is not None:
                g = min(int((w + half) / h), _TOGGLE_CELLS - 1)
                cell = math.exp(float(log_mass[g]) - log_total)
            q += (1.0 - _TOGGLE_T_WEIGHT) * cell / h
        return math.log(q)

    stats = state.stats
    stats.weight_proposed += 1
    if not active:
        ws = _GRID_OFFSETS * h - half
        log_mass, mass, log_total = cell_log_mass(ws)
        if rng.random() < _TOGGLE_T_WEIGHT:
            w_star = float(model.sample_student_t(df, t_scale, rng))
        else:
            cdf = np.cumsum(mass)
            cdf /= cdf[-1]
            g = int(cdf.searchsorted(rng.random(), side="right"))
            w_star = float(ws[g] + (rng.random() - 0.5) * h)
        s_star = base_row + w_star * y_row
        ll_star = float(_loglik(x_row, s_star, floor))
        log_r = (
            math.log(slab_p)
            - math.log(spike_p)
            + t_logpdf(w_star)
            - toggle_logq(w_star, log_mass, log_total)
            + ll_star
            - ll_zero
        )
        if math.log(rng.random()) < log_r:
            state.mask[n, k] = 1
            state.slab[n, k] = w_star
            state.m[k] += 1
            state.S[n] = s_star
            stats.weight_accepted += 1
            active, w_cur, ll_cur = True, w_star, ll_star
    else:
        ll_cur = float(_loglik(x_row, state.S[n], floor))
        log_u = math.log(rng.random())

        def death_log_r(logq: float) -> float:
            return math.log(spike_p) - math.log(slab_p) + logq - t_logpdf(w_cur) + ll_zero - ll_cur

        # Every step from q to log_r is monotone, so the ceiling bounds
        # the exact ratio: a toggle rejected here is rejected by it too.
        if log_u < death_log_r(toggle_logq(w_cur)):
            log_mass, _, log_total = cell_log_mass(_GRID_OFFSETS * h - half)
            if log_u < death_log_r(toggle_logq(w_cur, log_mass, log_total)):
                state.mask[n, k] = 0
                state.slab[n, k] = 0.0
                state.m[k] -= 1
                state.S[n] = base_row
                stats.weight_accepted += 1
                active = False

    if not active:
        return 0.0
    # Random walk on the active value.
    stats.weight_proposed += 1
    w_star = w_cur + _STEP_SCALE * t_scale * rng.standard_normal()
    if w_star != 0.0:
        s_star = base_row + w_star * y_row
        ll_star = float(_loglik(x_row, s_star, floor))
        log_r = t_logpdf(w_star) - t_logpdf(w_cur) + ll_star - ll_cur
        if math.log(rng.random()) < log_r:
            state.slab[n, k] = w_star
            state.S[n] = s_star
            stats.weight_accepted += 1
            w_cur = w_star
    return w_cur


# -- factor kernel ------------------------------------------------------

# Random-walk sub-steps per factor-entry visit.  Each sub-step is a
# valid move on the same conditional; chaining a few lets the factors
# keep pace with the weight updates between sweeps.  Every visit also
# opens with one independence sub-step drawn from the entry's prior:
# the conditional can be multimodal (the likelihood depends on the
# factor through |s|, so sign-flipped configurations carry mass), and
# a local walk alone crosses between such modes too rarely.
_FACTOR_SUBSTEPS = 4


def _factor_row_update(state: ChainState, k: int, ts: np.ndarray, rng: np.random.Generator) -> None:
    """MH update of Y[k, ts] for the chosen instances, vectorised.

    Instances are conditionally independent given the weights and the
    other factor rows, so proposing them jointly and accepting each
    instance separately composes the same kernel as an instance-by-
    instance sweep.  Each visit chains _FACTOR_SUBSTEPS random-walk
    moves.  A factor with no linked dimensions has the prior as its
    exact conditional and is redrawn from it directly.  A single
    instance takes the same steps on Python floats (_factor_entry_update).
    """
    rows = np.flatnonzero(state.mask[:, k])
    floor = state.layer_hyper.sigma_floor
    if len(ts) == 1:
        _factor_entry_update(state, k, int(ts[0]), rows, floor, rng)
        return
    stats = state.stats
    n_ts = len(ts)
    sig_prior = state.sigma_y[k, ts]
    if len(rows) == 0:
        stats.factor_proposed += n_ts
        state.Y[k, ts] = sig_prior * rng.standard_normal(n_ts)
        stats.factor_accepted += n_ts
        return

    y_cur = state.Y[k, ts]
    w_col = state.slab[rows, k][:, None]
    cells = (rows[:, None], ts)
    x_sub = state.X[cells]
    base = state.S[cells] - w_col * y_cur

    # Column log-likelihood per instance.
    cur_ll = _loglik(x_sub, base + w_col * y_cur, floor, axis=0)
    stats.factor_proposed += (1 + _FACTOR_SUBSTEPS) * n_ts

    # Independence sub-step from the prior: the prior density cancels
    # against the proposal, leaving the likelihood ratio.
    y_star = sig_prior * rng.standard_normal(n_ts)
    star_ll = _loglik(x_sub, base + w_col * y_star, floor, axis=0)
    accept = np.log(rng.random(n_ts)) < star_ll - cur_ll
    y_cur = np.where(accept, y_star, y_cur)
    cur_ll = np.where(accept, star_ll, cur_ll)
    stats.factor_accepted += int(np.count_nonzero(accept))

    step = _STEP_SCALE * sig_prior
    cur_prior = 0.5 * (y_cur / sig_prior) ** 2
    for _ in range(_FACTOR_SUBSTEPS):
        y_star = y_cur + step * rng.standard_normal(n_ts)
        star_ll = _loglik(x_sub, base + w_col * y_star, floor, axis=0)
        star_prior = 0.5 * (y_star / sig_prior) ** 2
        accept = np.log(rng.random(n_ts)) < star_ll - cur_ll - star_prior + cur_prior
        y_cur = np.where(accept, y_star, y_cur)
        cur_ll = np.where(accept, star_ll, cur_ll)
        cur_prior = np.where(accept, star_prior, cur_prior)
        stats.factor_accepted += int(np.count_nonzero(accept))

    state.Y[k, ts] = y_cur
    state.S[cells] = base + w_col * y_cur


def _factor_entry_update(
    state: ChainState,
    k: int,
    t: int,
    rows: np.ndarray,
    floor: float,
    rng: np.random.Generator,
) -> None:
    """_factor_row_update for the one instance t, on Python floats.

    A scalar draw consumes the generator exactly as a size-1 draw does,
    so this takes the same steps with the same draws as the array path,
    without numpy's per-call cost on one-element arrays.
    """
    stats = state.stats
    sig = float(state.sigma_y[k, t])
    if len(rows) == 0:
        stats.factor_proposed += 1
        state.Y[k, t] = sig * rng.standard_normal()
        stats.factor_accepted += 1
        return

    y_cur = float(state.Y[k, t])
    w_col = state.slab[rows, k].tolist()
    base = [s - w * y_cur for s, w in zip(state.S[rows, t].tolist(), w_col)]
    terms = list(zip(state.X[rows, t].tolist(), base, w_col))

    def loglik(y: float) -> float:
        log_sigma = 0.0
        z2 = 0.0
        for x, b, w in terms:
            sigma = abs(b + w * y)
            if sigma < floor:
                sigma = floor
            z = x / sigma
            log_sigma += math.log(sigma)
            z2 += z * z
        return -log_sigma - 0.5 * z2

    cur_ll = loglik(y_cur)
    stats.factor_proposed += 1 + _FACTOR_SUBSTEPS

    y_star = sig * rng.standard_normal()
    star_ll = loglik(y_star)
    if math.log(rng.random()) < star_ll - cur_ll:
        y_cur, cur_ll = y_star, star_ll
        stats.factor_accepted += 1

    step = _STEP_SCALE * sig
    cur_prior = 0.5 * (y_cur / sig) ** 2
    for _ in range(_FACTOR_SUBSTEPS):
        y_star = y_cur + step * rng.standard_normal()
        star_ll = loglik(y_star)
        star_prior = 0.5 * (y_star / sig) ** 2
        if math.log(rng.random()) < star_ll - cur_ll - star_prior + cur_prior:
            y_cur, cur_ll, cur_prior = y_star, star_ll, star_prior
            stats.factor_accepted += 1

    state.Y[k, t] = y_cur
    state.S[rows, t] = [b + w * y_cur for b, w in zip(base, w_col)]


def gibbs_update_factor(state: ChainState, k: int, t: int, rng: np.random.Generator) -> float:
    """Resample factor entry (k, t) from its full conditional.

    The target is the instance-t likelihood of the linked dimensions
    times the entry's N(0, sigma_y^2) prior; random-walk proposals at
    half the prior std are accepted by the exact ratio.
    Returns the entry's new value.
    """
    if not (0 <= k < state.K and 0 <= t < state.T):
        raise IndexError(f"factor entry ({k}, {t}) out of range")
    _factor_row_update(state, k, np.array([t]), rng)
    return float(state.Y[k, t])


# -- sweeps and drivers --------------------------------------------------

def gibbs_sweep(state: ChainState, rng: np.random.Generator) -> None:
    """One fixed-dimension sweep: all weights row-major, then all factors."""
    for n in range(state.N):
        for k in range(state.K):
            gibbs_update_weight(state, n, k, rng)
    all_ts = np.arange(state.T)
    for k in range(state.K):
        _factor_row_update(state, k, all_ts, rng)
    state.refresh()


def resample_data(state: ChainState, rng: np.random.Generator) -> None:
    """Redraw the data matrix from the current weights and factors; the state is not priced."""
    sigma = np.maximum(np.abs(state.S), state.layer_hyper.sigma_floor)
    state.X = sigma * rng.standard_normal(state.X.shape)


def run_mh_layer(
    X: np.ndarray,
    cfg: InferenceConfig,
    hyper: LayerHyper,
    parent_context: ParentContext | None = None,
    *,
    rng: np.random.Generator,
    initial_state: ChainState | None = None,
) -> tuple[ChainState, ChainTrace]:
    """Run one layer's chain: dimension moves, weight sweep, factor sweep.

    Per iteration, each data row proposes one dimension move against
    the cycling column cursor, then every weight and factor entry is
    resampled.  The trace records K, the refreshed log-joint and the
    per-iteration accepted add/delete counts; the state's ``stats``
    holds the chain's proposal and acceptance counters.  The chain
    runs on ``X`` under ``hyper`` and ``parent_context`` and draws from
    ``rng``: from the prior, or resumed from ``initial_state``, which is
    given ``hyper`` and rebound to ``X`` and ``parent_context``.
    """
    if initial_state is None:
        state = ChainState.from_prior(X, cfg, hyper, parent_context, rng)
    else:
        state = initial_state
        state.layer_hyper = hyper
        state.rebind(X, parent_context)
    cursor = 0
    ks = np.zeros(cfg.iterations, dtype=np.int64)
    ljs = np.zeros(cfg.iterations)
    adds = np.zeros(cfg.iterations, dtype=np.int64)
    dels = np.zeros(cfg.iterations, dtype=np.int64)
    for r in range(cfg.iterations):
        a0, d0 = state.stats.add_accepted, state.stats.delete_accepted
        for i in range(state.N):
            cursor = _dimension_move(state, i, rng, cursor)
        gibbs_sweep(state, rng)
        ks[r] = state.K
        ljs[r] = model.log_joint(state)
        adds[r] = state.stats.add_accepted - a0
        dels[r] = state.stats.delete_accepted - d0
    trace = ChainTrace(k=ks, log_joint=ljs, accepted_adds=adds, accepted_deletes=dels)
    return state, trace


def _layerwise_total(states: list[ChainState]) -> float:
    """Joint log-probability of the whole stack without double counting.

    Each layer's likelihood term prices the factors below it, so the
    per-layer factor-prior terms are dropped except at the very top.
    """
    total = 0.0
    for st in states:
        terms = model.log_joint_terms(st)
        total += terms.log_lik + terms.log_mask_prior + terms.log_slab_prior + terms.log_k_prior
    return total + terms.log_y_prior


def run_layerwise(
    X: np.ndarray,
    depth: int,
    cfg: InferenceConfig,
    hyper: model.HyperParams,
    seed: int,
    trace_sink=None,
) -> list[ChainState]:
    """Greedy bottom-up inference over ``depth`` stacked layers.

    Runs the single-layer chain on the data, then on the inferred
    factors, and so on; repeats the whole pass up to
    ``cfg.layerwise_outer_loops`` times, re-inferring each layer under
    the latest upper-layer context, until the stack's total log-joint
    improves by less than 1 nat (_CONVERGENCE_TOL).  With depth 1 this
    is exactly one run_mh_layer call drawing from ``default_rng(seed)``;
    deeper, the chain of outer loop ``outer`` at layer ``ell`` draws
    from ``SeedSequence([seed, outer, ell])``.

    Layer ``ell`` uses ``hyper.layer(ell)``; layers above the configured
    ones reuse the top configured layer's values.
    ``trace_sink(outer, layer, trace)``, when given, receives every
    per-chain trace.

    Returns one ChainState per layer, bottom first, each lower layer
    rebound under the final state of the layer above.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    seed = model.as_int(seed, "seed")
    if depth == 1:
        state, trace = run_mh_layer(X, cfg, hyper.layer(0), rng=np.random.default_rng(seed))
        if trace_sink is not None:
            trace_sink(0, 0, trace)
        return [state]
    states: list[ChainState | None] = [None] * depth
    prev_total = -math.inf
    for outer in range(cfg.layerwise_outer_loops):
        for ell in range(depth):
            data = X if ell == 0 else states[ell - 1].Y
            parent = None
            if ell + 1 < depth and states[ell + 1] is not None:
                up = states[ell + 1]
                parent = ParentContext(weights=up.slab, factors=up.Y)
            warm = states[ell]
            if warm is not None and warm.X.shape[0] != data.shape[0]:
                warm = None
            states[ell], trace = run_mh_layer(
                data, cfg, hyper.layer(min(ell, hyper.num_layers - 1)), parent,
                rng=np.random.default_rng(np.random.SeedSequence([seed, outer, ell])),
                initial_state=warm,
            )
            if trace_sink is not None:
                trace_sink(outer, ell, trace)
        total = _layerwise_total(states)
        if outer > 0 and total - prev_total < _CONVERGENCE_TOL:
            break
        prev_total = total
    for ell in range(depth - 1):
        up = states[ell + 1]
        states[ell].rebind(states[ell].X, ParentContext(weights=up.slab, factors=up.Y))
    return states
