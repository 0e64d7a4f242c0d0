"""Generative core: spike-and-slab weights, variance routing, synthetic data.

The model stacks weight layers between factor matrices.  Effective
weights are ``mask * slab`` where the mask is binary with Beta-Bernoulli
columns and the slab is Gaussian with a per-column inverse-gamma
variance.  A factor value routes variance downward: the child entry at
dimension n, instance t is N(0, sigma^2) with
sigma = max(|sum_k W[n, k] Y[k, t]|, sigma_floor).  The top layer's
factors are N(0, sigma_top^2).

The log-joint for one layer decomposes as data likelihood + factor
prior + weight prior (mask marginal times slab marginal) + a Poisson
prior on the number of factors; each term is exposed separately.
``LayerTarget`` is the one place that prices this law: the log-joint,
one weight's prior predictive and the add/delete ratios.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np

from .ibp import harmonic_number, logprob_mask_marginal, logprob_mask_marginal_counts

__all__ = [
    "FactorMatrix",
    "HyperParams",
    "JointTerms",
    "LayerHyper",
    "LayerTarget",
    "as_factor_matrix",
    "as_int",
    "as_real",
    "draw_routed",
    "draw_stack",
    "gaussian_loglik",
    "log_joint",
    "log_poisson_k",
    "propagate_sigma_matrix",
    "slab_column_logmarginal",
]

LOG_2PI = math.log(2.0 * math.pi)

# Alias for a real (K, T) factor matrix (or the (N, T) observation matrix).
FactorMatrix = np.ndarray


def as_factor_matrix(X: FactorMatrix) -> np.ndarray:
    """Validate a factor/data matrix: 2-D, float, finite entries only."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"factor matrix must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("factor matrix contains NaN or Inf")
    return X


def as_int(value, name: str) -> int:
    """``value`` as an int; a bool, float (even 2.0), string or None raises ValueError naming ``name``."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def as_real(value, name: str) -> float:
    """``value`` as a float; a bool, string, None or other non-number raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _as_layer_tuple(value, num_layers: int, name: str) -> tuple[float, ...]:
    raw = tuple(value) if isinstance(value, (list, tuple)) else (value,) * num_layers
    out = tuple(as_real(v, name) for v in raw)
    if len(out) != num_layers:
        raise ValueError(f"{name} must have one entry per layer ({num_layers}), got {len(out)}")
    if not all(0.0 < v < math.inf for v in out):
        raise ValueError(f"{name} entries must be finite and strictly positive")
    return out


@dataclass(frozen=True)
class LayerHyper:
    """Flattened hyperparameters for a single layer's inference or sampling.

    Every value must be a finite, strictly positive real number (a bool
    or a string is not one, see ``as_real``), and ``sigma_floor`` must
    not exceed ``sigma_top``; a ValueError names the first field that
    is not.
    """

    alpha_ibp: float
    ig_shape: float
    ig_scale: float
    sigma_top: float
    sigma_floor: float

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0.0 < as_real(getattr(self, f.name), f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and strictly positive")
        if self.sigma_floor > self.sigma_top:
            raise ValueError("sigma_floor must not exceed sigma_top")


@dataclass(frozen=True)
class HyperParams:
    """Model hyperparameters, one entry per layer, counted bottom-up.

    Layer 1 (index 0) is the layer whose weights connect hidden factors
    to the observed data.  ``layer_widths`` gives the finite truncation
    K^1..K^L used for forward generation; inference treats widths as
    unknown.

    Parameters
    ----------
    alpha_ibp_per_layer : float or sequence
        Beta/IBP concentration alpha' per layer; scalars broadcast.
    ig_shape_per_layer, ig_scale_per_layer : float or sequence
        Inverse-gamma shape/scale on the slab variance per layer.
    sigma_top : float
        Standard deviation of the topmost layer's factors.
    sigma_floor : float
        Lower clamp applied to every propagated standard deviation.
    layer_widths : sequence of int
        Generative truncation widths, bottom layer first.
    """

    alpha_ibp_per_layer: float | tuple[float, ...] = 3.0
    ig_shape_per_layer: float | tuple[float, ...] = 2.0
    ig_scale_per_layer: float | tuple[float, ...] = 1.0
    sigma_top: float = 1.0
    sigma_floor: float = 1e-6
    layer_widths: tuple[int, ...] = (3,)

    def __post_init__(self) -> None:
        raw = self.layer_widths
        widths = tuple(as_int(k, "layer_widths") for k in (raw if np.ndim(raw) else [raw]))
        if not widths:
            raise ValueError("layer_widths must name at least one layer")
        if any(k < 0 for k in widths):
            raise ValueError("layer widths must be >= 0")
        object.__setattr__(self, "layer_widths", widths)
        L = len(widths)
        for name in ("alpha_ibp_per_layer", "ig_shape_per_layer", "ig_scale_per_layer"):
            object.__setattr__(self, name, _as_layer_tuple(getattr(self, name), L, name))
        # The per-layer values are checked; a layer record checks the two sigmas.
        self.layer(0)

    @property
    def num_layers(self) -> int:
        return len(self.layer_widths)

    def layer(self, index: int) -> LayerHyper:
        """Per-layer view; index 0 is the layer adjacent to the data."""
        if not 0 <= index < self.num_layers:
            raise IndexError(f"layer index {index} out of range for {self.num_layers} layers")
        return LayerHyper(
            alpha_ibp=self.alpha_ibp_per_layer[index],
            ig_shape=self.ig_shape_per_layer[index],
            ig_scale=self.ig_scale_per_layer[index],
            sigma_top=self.sigma_top,
            sigma_floor=self.sigma_floor,
        )


def propagate_sigma_matrix(weights: np.ndarray, factors: np.ndarray, sigma_floor: float) -> np.ndarray:
    """Vectorised variance routing: max(|W @ Y|, sigma_floor), shape (N, T)."""
    return np.maximum(np.abs(weights @ factors), sigma_floor)


def draw_routed(weights: np.ndarray, factors: np.ndarray, sigma_floor: float, rng: np.random.Generator) -> np.ndarray:
    """One draw of the matrix below ``factors``: N(0, sigma^2) entries with ``propagate_sigma_matrix``'s stds."""
    sigma = propagate_sigma_matrix(weights, factors, sigma_floor)
    return sigma * rng.standard_normal(sigma.shape)


def _prior_columns(
    n_rows: int,
    n_cols: int,
    a: float,
    ig_shape: float,
    ig_scale: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_cols`` columns of the finite prior with Beta(a, 1) inclusion.

    Draws, in this order, each column's p by inverse CDF (U^(1/a)) and
    sigma^2 ~ InverseGamma(ig_shape, ig_scale), then mask entries
    Bernoulli(p) and slab entries N(0, sigma^2).  Returns (mask, slab).
    """
    p = rng.random(n_cols) ** (1.0 / a)
    sigma2 = 1.0 / rng.gamma(shape=ig_shape, scale=1.0 / ig_scale, size=n_cols)
    mask = (rng.random((n_rows, n_cols)) < p).astype(np.int8)
    slab = rng.standard_normal((n_rows, n_cols)) * np.sqrt(sigma2)
    return mask, slab


def _conditioned_columns(
    n_rows: int, n_cols: int, hyper: LayerHyper, rng: np.random.Generator, min_links: int
) -> tuple[np.ndarray, np.ndarray]:
    """(mask, slab) of ``n_cols`` prior columns each linking ``min_links`` rows; see ``LayerTarget.draw``."""
    if n_rows < 0 or n_cols < 0:
        raise ValueError("matrix dimensions must be >= 0")
    if n_cols > 0 and min_links > n_rows:
        raise ValueError(f"{n_cols} columns cannot each link {min_links} of {n_rows} rows")
    if n_cols == 0:
        return np.zeros((n_rows, 0), dtype=np.int8), np.zeros((n_rows, 0))
    a, shape, scale = hyper.alpha_ibp / n_cols, hyper.ig_shape, hyper.ig_scale
    mask, slab = _prior_columns(n_rows, n_cols, a, shape, scale, rng)
    # No column has fewer than zero links, so an unconditioned draw skips the count.
    while min_links > 0 and (short := np.flatnonzero(mask.sum(axis=0) < min_links)).size:
        mask[:, short], slab[:, short] = _prior_columns(n_rows, short.size, a, shape, scale, rng)
    return mask, slab


def draw_stack(
    hyper: HyperParams, n_dims: int, T: int, rng: np.random.Generator
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[np.ndarray]]:
    """One forward draw of the whole finite stack: (weights, values).

    ``weights[i]`` is layer i+1's (mask, slab), bottom layer first,
    drawn bottom-up from the unconditioned finite prior (see
    ``LayerTarget.draw``).  Then the top layer's factors are drawn
    i.i.d. N(0, sigma_top^2), and each matrix below them top-down
    through ``draw_routed``; weights stay fixed across instances.
    ``values[0]`` is the (n_dims, T) data and ``values[i]`` layer i's
    (K_i, T) factors.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    rows = (n_dims, *hyper.layer_widths)
    weights = [_conditioned_columns(rows[i], rows[i + 1], hyper.layer(i), rng, 0) for i in range(hyper.num_layers)]
    values = [hyper.sigma_top * rng.standard_normal((rows[-1], T))]
    for mask, slab in reversed(weights):
        values.append(draw_routed(mask * slab, values[-1], hyper.sigma_floor, rng))
    return weights, values[::-1]


@dataclass(frozen=True, eq=False)
class LayerTarget:
    """The law one layer's chain samples: its hyperparameters under the frozen layer above.

    ``upper_weights`` (this layer's K x J effective weights into the
    layer above) and ``upper_factors`` (that layer's J x T factors) are
    given together, or both left out for the top layer.  The target
    holds read-only copies of them, both checked 2-D and finite, so
    later changes to the upper layer's live state do not reach it.
    """

    hyper: LayerHyper
    upper_weights: np.ndarray | None = None
    upper_factors: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.hyper, LayerHyper):
            raise TypeError(f"hyper must be a LayerHyper, got {type(self.hyper).__name__}")
        if (self.upper_weights is None) != (self.upper_factors is None):
            raise ValueError("upper_weights and upper_factors must be given together")
        if self.upper_weights is None:
            return
        W = as_factor_matrix(self.upper_weights).copy()
        Y = as_factor_matrix(self.upper_factors).copy()
        if W.shape[1] != Y.shape[0]:
            raise ValueError(f"upper weights {W.shape} do not chain with upper factors {Y.shape}")
        W.flags.writeable = False
        Y.flags.writeable = False
        object.__setattr__(self, "upper_weights", W)
        object.__setattr__(self, "upper_factors", Y)

    def factor_sigma(self, n_rows: int, T: int) -> np.ndarray:
        """Prior stds of ``n_rows`` factor rows over T instances, shape (n_rows, T).

        Without an upper layer every row has std sigma_top.  Under one,
        row j below its width gets max(|row j of upper_weights @
        upper_factors|, sigma_floor); rows at or beyond the width
        (factors added after the upper layer was frozen) fall back to
        sigma_top.
        """
        out = np.full((n_rows, T), float(self.hyper.sigma_top))
        if self.upper_weights is not None:
            covered = min(n_rows, self.upper_weights.shape[0])
            if covered:
                out[:covered] = propagate_sigma_matrix(
                    self.upper_weights[:covered], self.upper_factors, self.hyper.sigma_floor
                )
        return out

    def draw(
        self, n_rows: int, n_cols: int, T: int, rng: np.random.Generator, min_links: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mask, slab, Y) of one prior draw of an ``n_rows`` x ``n_cols`` layer over T instances.

        Per column: p ~ Beta(alpha_ibp / n_cols, 1) via inverse CDF,
        sigma^2 ~ InverseGamma(ig_shape, ig_scale), mask entries
        Bernoulli(p), slab entries N(0, sigma^2) (drawn for every entry,
        masked or not), each column conditioned on linking at least
        ``min_links`` rows.
        Columns are independent under the finite prior, so redrawing
        only the columns with fewer than ``min_links`` links, until none
        is left, draws from the conditioned prior law.  The (n_cols, T)
        factors are then drawn with the stds of ``factor_sigma``.
        """
        mask, slab = _conditioned_columns(n_rows, n_cols, self.hyper, rng, min_links)
        return mask, slab, self.factor_sigma(n_cols, T) * rng.standard_normal((n_cols, T))

    def _k_rate(self, N: int) -> float:
        """Poisson rate alpha' H_N of the factor count over N data rows."""
        return self.hyper.alpha_ibp * harmonic_number(N)

    def log_joint_terms(self, state) -> JointTerms:
        """The four components of ``state``'s single-layer log-joint under this target.

        ``state`` is a ChainState, priced from its data ``X``, factors
        ``Y``, ``mask`` and ``slab`` and from the caches its
        ``refresh()`` derives: ``S`` (slab @ Y) for the data scales,
        ``sigma_y`` for the factor prior and ``m`` for the link counts.
        The slab is zero off the mask, so its squares are the active ones.

        The weight prior marginalizes both the per-column inclusion
        probabilities (Beta-Bernoulli mask marginal) and the per-column
        slab variances (Student-t mass over the active slab values); the
        factor count follows Poisson(alpha' H_N).
        """
        lh = self.hyper
        N, K = state.mask.shape
        sq = state.slab ** 2
        log_slab_prior = sum(
            slab_column_logmarginal(float(sq[:, k].sum()), int(state.m[k]), lh.ig_shape, lh.ig_scale)
            for k in range(K)
        )
        return JointTerms(
            log_lik=gaussian_loglik(state.X, np.maximum(np.abs(state.S), lh.sigma_floor)),
            log_y_prior=float(gaussian_loglik(state.Y, state.sigma_y) if K else 0.0),
            log_mask_prior=logprob_mask_marginal(state.mask, lh.alpha_ibp),
            log_slab_prior=float(log_slab_prior),
            log_k_prior=log_poisson_k(K, self._k_rate(N)),
        )

    def log_add_ratio(self, m: np.ndarray, N: int) -> float:
        """Interior log-ratio of adding one empty factor to a layer with link counts ``m`` over N rows.

        Three exact pieces: the proposal structure factor
        log[(1/(K+1)) / (K+/K)], the mask-marginal difference for appending
        an all-zero column (every column re-priced at alpha/(K+1)), and the
        Poisson factor-count ratio log[rate/(K+1)].  The new factor's value
        terms cancel between proposal and target and never appear.  When no
        factor is linked (K+ = 0, which includes K = 0) the reverse factor
        K+/K is replaced by 1, letting the chain leave the empty state.
        """
        alpha = self.hyper.alpha_ibp
        K = len(m)
        k_plus = int(np.count_nonzero(m))
        structure = -math.log(K + 1.0)
        if k_plus:
            structure -= math.log(k_plus / K)
        m_large = np.append(m, 0)
        delta_mask = logprob_mask_marginal_counts(m_large, N, alpha) - logprob_mask_marginal_counts(m, N, alpha)
        delta_k = math.log(self._k_rate(N)) - math.log(K + 1.0)
        return structure + delta_mask + delta_k

    def entry_prior(self, m_minus: int, N: int, K: int, sq_minus: float) -> tuple[float, float, float, float]:
        """Prior predictive of one weight entry of a K-column layer over N rows.

        Given the entry's column has ``m_minus`` other active entries with
        squared sum ``sq_minus``: returns (P(spike), P(slab)) from
        ``spike_slab_predictive`` at alpha/K and the slab's Student-t
        (df, scale) from ``slab_predictive_params``.
        """
        lh = self.hyper
        spike_p, slab_p = spike_slab_predictive(m_minus, N, lh.alpha_ibp / K)
        return (spike_p, slab_p, *slab_predictive_params(m_minus, sq_minus, lh.ig_shape, lh.ig_scale))


def gaussian_loglik(X: np.ndarray, sigma) -> float:
    """Sum of centred normal log-densities with per-entry stds."""
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), X.shape)
    z = X / sigma
    return float(-0.5 * X.size * LOG_2PI - np.log(sigma).sum() - 0.5 * np.sum(z * z))


def slab_column_logmarginal(sq_sum: float, count: int, ig_shape: float, ig_scale: float) -> float:
    """Log-marginal of ``count`` slab values with squared sum ``sq_sum``.

    The Gaussian slab's variance is integrated against its
    InverseGamma(ig_shape, ig_scale) prior, leaving a multivariate
    Student-t mass:

    log m = a log b - lgamma(a) - (count/2) log(2 pi)
            + lgamma(a + count/2) - (a + count/2) log(b + sq_sum/2).

    Zero count gives exactly 0.
    """
    a, b = ig_shape, ig_scale
    return float(
        a * math.log(b)
        - math.lgamma(a)
        - 0.5 * count * LOG_2PI
        + math.lgamma(a + 0.5 * count)
        - (a + 0.5 * count) * math.log(b + 0.5 * sq_sum)
    )


def log_poisson_k(k: int, rate: float) -> float:
    """Poisson log-pmf used as the prior over the number of factors.

    A layer over no data rows has rate alpha * H_0 = 0, whose law is the
    point mass at k = 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if rate == 0.0:
        return 0.0 if k == 0 else -math.inf
    return float(k * math.log(rate) - rate - math.lgamma(k + 1.0))


def spike_slab_predictive(m_minus: int, N: int, alpha_over_K: float) -> tuple[float, float]:
    """Prior-predictive split for one mask entry given the column's others.

    With m_minus active entries among the other N - 1 rows and
    a = alpha_over_K, integrating the column's Beta(a, 1) inclusion
    probability against those entries gives

    P(spike) = (N - m_minus) / (N + a),
    P(slab)  = (m_minus + a) / (N + a).

    Returns (P(spike), P(slab)); the two sum to 1.
    """
    if not 0 <= m_minus <= N - 1:
        raise ValueError(f"m_minus must be in [0, {N - 1}], got {m_minus}")
    if alpha_over_K <= 0.0:
        raise ValueError("alpha_over_K must be > 0")
    a = alpha_over_K
    return (N - m_minus) / (N + a), (m_minus + a) / (N + a)


def slab_predictive_params(
    m_minus: int, sq_sum_minus: float, ig_shape: float, ig_scale: float
) -> tuple[float, float]:
    """Student-t parameters for a slab value given the column's other slabs.

    Integrating the shared column variance sigma^2 ~ InverseGamma
    against m_minus observed slab values with squared sum sq_sum_minus
    leaves w ~ t_df(0, scale) with

    df = 2 (ig_shape + m_minus / 2),
    scale = sqrt((ig_scale + sq_sum_minus / 2) / (ig_shape + m_minus / 2)).

    Returns (df, scale).
    """
    a = ig_shape + 0.5 * m_minus
    b = ig_scale + 0.5 * sq_sum_minus
    return 2.0 * a, math.sqrt(b / a)


def student_t_logpdf(w, df: float, scale: float):
    """Log-density of a centred Student-t with the given df and scale.

    ``w`` may be a float, which gives a float, or an array, which gives
    an array of its shape.
    """
    const = (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
        - math.log(scale)
    )
    z = np.asarray(w, dtype=float) / scale
    out = const - 0.5 * (df + 1.0) * np.log1p(z * z / df)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class JointTerms:
    """Additive decomposition of one layer's log-joint."""

    log_lik: float
    log_y_prior: float
    log_mask_prior: float
    log_slab_prior: float
    log_k_prior: float

    @property
    def total(self) -> float:
        return (
            self.log_lik
            + self.log_y_prior
            + self.log_mask_prior
            + self.log_slab_prior
            + self.log_k_prior
        )


def log_joint(state) -> float:
    """Total single-layer log-joint; see ``LayerTarget.log_joint_terms``."""
    return state.target.log_joint_terms(state).total
