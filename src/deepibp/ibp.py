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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinaryMatrix",
    "LofClass",
    "as_binary_matrix",
    "column_counts",
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


def column_counts(Z: BinaryMatrix) -> np.ndarray:
    """Number of active rows per column, as an int64 vector."""
    return as_binary_matrix(Z).sum(axis=0, dtype=np.int64)


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


@dataclass(frozen=True, eq=False)
class LofClass:
    """Left-ordered canonical form of a mask.

    ``matrix`` holds the columns sorted by decreasing binary history
    (first row most significant); ``multiplicities`` counts how many
    identical columns fall in each distinct-history group, in the same
    order as they appear in ``matrix``.
    """

    matrix: np.ndarray
    multiplicities: tuple[int, ...]

    @property
    def key(self) -> bytes:
        """Hashable fingerprint of the class (shape plus column bits)."""
        n, k = self.matrix.shape
        return n.to_bytes(4, "little") + k.to_bytes(4, "little") + self.matrix.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, LofClass) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    @classmethod
    def from_histories(cls, histories, N: int) -> "LofClass":
        """The class whose columns are ``histories``.

        ``histories`` are N-tuples already in left-ordered
        (non-increasing) order.  No input checks.
        """
        matrix = np.array(histories, dtype=np.int8).T if histories else np.zeros((N, 0), dtype=np.int8)
        mult = tuple(len(list(g)) for _, g in itertools.groupby(histories))
        return cls(matrix=matrix, multiplicities=mult)


def left_order_form(Z: BinaryMatrix) -> LofClass:
    """Canonicalise a mask by sorting columns into left-ordered form.

    Columns are ordered by the magnitude of their binary history (row 0
    most significant), largest first, which is invariant under column
    permutation of the input.
    """
    Z = as_binary_matrix(Z)
    return LofClass.from_histories(sorted(map(tuple, Z.T.tolist()), reverse=True), Z.shape[0])


def logprob_lof_class(lof: LofClass, alpha: float) -> float:
    """Log-probability of a left-ordered class under the process law.

    With K+ active columns, column counts m_k, and equal-history group
    sizes K_h,

    log P = K+ log(alpha) - sum_h lgamma(K_h + 1) - alpha H_N
            + sum_k [ lgamma(N - m_k + 1) + lgamma(m_k) - lgamma(N + 1) ].

    The class must have no all-zero column.  The empty class has
    log-probability -alpha H_N.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    N, K = lof.matrix.shape
    out = -alpha * harmonic_number(N)
    if K == 0:
        return float(out)
    out += K * math.log(alpha)
    out -= sum(math.lgamma(c + 1.0) for c in lof.multiplicities)
    lg_n = math.lgamma(N + 1.0)
    m = lof.matrix.sum(axis=0, dtype=np.int64)
    out += sum(math.lgamma(N - mk + 1.0) + math.lgamma(mk) - lg_n for mk in m.tolist())
    return float(out)


def logprob_mask_ibp(Z: BinaryMatrix, alpha: float) -> float:
    """Log-probability of a mask's left-ordered class under the process law.

    Canonicalises ``Z`` and prices its class by ``logprob_lof_class``.
    All-zero columns have no left-ordered representative and are
    rejected.  An empty mask is legal and has log-probability -alpha H_N.
    """
    Z = as_binary_matrix(Z)
    if np.any(column_counts(Z) == 0):
        raise ValueError("mask has an all-zero column; drop it first")
    return logprob_lof_class(left_order_form(Z), alpha)


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

