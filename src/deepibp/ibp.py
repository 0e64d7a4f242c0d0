"""Finite Beta-Bernoulli and Indian buffet process laws for binary masks.

A mask is an (N, K) integer array with entries in {0, 1}: rows index
observed dimensions, columns index latent factors.  The finite model
places p_k ~ Beta(alpha/K, 1) on each column's inclusion probability.
Integrating the p_k out gives a column-factorised marginal; letting
K -> infinity while grouping masks by left-ordered form gives the
Indian buffet process law over equivalence classes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "BinaryMatrix",
    "as_binary_matrix",
    "harmonic_number",
    "left_order_form",
    "logprob_lof_class",
    "logprob_mask_ibp",
    "logprob_mask_marginal",
    "logprob_mask_marginal_counts",
    "sample_ibp_sequential",
]

# Alias for an (N, K) array with values in {0, 1}.
BinaryMatrix = np.ndarray


def as_binary_matrix(Z: BinaryMatrix) -> np.ndarray:
    """Validate ``Z`` and return it as a 2-D int8 array.

    Accepts any array-like whose entries are exactly 0 or 1.  An
    (N, 0) matrix is legal: it represents a model with no factors.
    """
    Z = np.asarray(Z)
    if Z.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {Z.shape}")
    if Z.size and not np.logical_or(Z == 0, Z == 1).all():
        raise ValueError("mask entries must be 0 or 1")
    return Z.astype(np.int8, copy=False)


def harmonic_number(n: int) -> float:
    """Partial harmonic sum 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def logprob_mask_marginal(Z: BinaryMatrix, alpha: float) -> float:
    """Log-probability of a mask with Beta(alpha/K, 1) columns integrated out.

    Each column contributes
    (alpha/K) * B(m_k + alpha/K, N - m_k + 1), so

    log P = sum_k [ log a + lgamma(m_k + a) + lgamma(N - m_k + 1)
                    - lgamma(N + 1 + a) ],   a = alpha / K.

    An empty mask (K = 0) has probability one.
    """
    Z = as_binary_matrix(Z)
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return logprob_mask_marginal_counts(Z.sum(axis=0, dtype=np.int64), Z.shape[0], alpha)


def logprob_mask_marginal_counts(m: np.ndarray, N: int, alpha: float) -> float:
    """``logprob_mask_marginal`` from the column counts ``m`` of an N-row mask.

    The marginal depends on the mask only through its counts, so the
    sampler's dimension moves price masks they never build.  No input
    checks.  Columns with equal counts contribute equal terms, so each
    count that occurs is priced once and weighted by how many columns
    have it: a million-column mask costs a few terms.
    """
    K = len(m)
    if K == 0:
        return 0.0
    a = alpha / K
    log_a = math.log(a)
    lg_top = math.lgamma(N + 1.0 + a)
    n_with = np.bincount(m)
    counts = np.flatnonzero(n_with)
    return float(sum(
        n * (log_a + math.lgamma(c + a) + math.lgamma(N - c + 1.0) - lg_top)
        for c, n in zip(counts.tolist(), n_with[counts].tolist())
    ))


def left_order_form(Z: BinaryMatrix) -> tuple[tuple[int, ...], ...]:
    """Canonicalise a mask as its left-ordered class: its sorted column histories.

    Each column becomes the N-tuple of its entries (its binary history,
    row 0 most significant); the tuples are sorted largest first, which
    is invariant under column permutation of the input.  The result is
    hashable, and equal columns sit next to each other in it.
    """
    Z = as_binary_matrix(Z)
    return tuple(sorted(map(tuple, Z.T.tolist()), reverse=True))


def logprob_lof_class(histories, N: int, alpha: float) -> float:
    """Log-probability of a left-ordered class of N-row masks under the process law.

    ``histories`` is the class as ``left_order_form`` gives it.  With K+
    active columns, column counts m_k, and equal-history group sizes
    K_h,

    log P = K+ log(alpha) - sum_h lgamma(K_h + 1) - alpha H_N
            + sum_k [ lgamma(N - m_k + 1) + lgamma(m_k) - lgamma(N + 1) ].

    The class must have no all-zero column.  The empty class has
    log-probability -alpha H_N.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    out = -alpha * harmonic_number(N)
    if not histories:
        return float(out)
    out += len(histories) * math.log(alpha)
    out -= sum(math.lgamma(len(list(g)) + 1.0) for _, g in itertools.groupby(histories))
    lg_n = math.lgamma(N + 1.0)
    out += sum(math.lgamma(N - mk + 1.0) + math.lgamma(mk) - lg_n for mk in map(sum, histories))
    return float(out)


def logprob_mask_ibp(Z: BinaryMatrix, alpha: float) -> float:
    """Log-probability of a mask's left-ordered class under the process law.

    Canonicalises ``Z`` and prices its class by ``logprob_lof_class``.
    All-zero columns have no left-ordered representative and are
    rejected.  An empty mask is legal and has log-probability -alpha H_N.
    """
    Z = as_binary_matrix(Z)
    if np.any(Z.sum(axis=0) == 0):
        raise ValueError("mask has an all-zero column; drop it first")
    return logprob_lof_class(left_order_form(Z), Z.shape[0], alpha)


def sample_ibp_sequential(N: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Draw a mask by the sequential culinary construction.

    Customer i (1-based) takes each already-sampled dish k
    independently with probability m_k / i, where m_k counts previous
    takers, then samples Poisson(alpha / i) new dishes.  The result has
    no all-zero columns and a random number of columns.

    Returns
    -------
    (N, K+) int8 array
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    cols: list[np.ndarray] = []
    counts: list[int] = []
    for i in range(1, N + 1):
        if counts:
            take = rng.random(len(counts)) < np.asarray(counts) / i
            for k, t in enumerate(take):
                if t:
                    cols[k][i - 1] = 1
                    counts[k] += 1
        for _ in range(rng.poisson(alpha / i)):
            col = np.zeros(N, dtype=np.int8)
            col[i - 1] = 1
            cols.append(col)
            counts.append(1)
    if not cols:
        return np.zeros((N, 0), dtype=np.int8)
    return np.column_stack(cols)

