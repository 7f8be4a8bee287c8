"""Exact L1-norm PCA maximizing projected deviation, for one or two components.

The optimum of max ||A X||_1 over orthonormal X equals the best nuclear norm
of A^T S over sign matrices S, so the solver enumerates S (first entry fixed
to +1, the rest a binary counter) and rounds the winner to its polar factor.
Aggregated weighted instances reduce to the unweighted problem by scaling
each row by its cluster size.

The aggregated optimum bounds the full one from below. ``spread_bound_terms``
turns it into an upper bound, and ``principal_halves`` splits the clusters
that keep the two apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import AggregatedInstance
from ..linalg import DataMatrix
from .lad import InstanceTooLargeError

__all__ = [
    "PcaSolution",
    "weighted_to_unweighted_pca",
    "solve_l1pca_exact",
    "solve_weighted_l1pca",
    "enumeration_fits",
    "spread_bound_terms",
    "principal_halves",
]

ENUM_BLOCK = 1 << 14


@dataclass(frozen=True)
class PcaSolution:
    components: np.ndarray  # (m, p), orthonormal columns
    objective: float
    sign_matrix: np.ndarray


def weighted_to_unweighted_pca(agg: AggregatedInstance) -> DataMatrix:
    """Scale each aggregated feature row by its cluster size.

    Valid only for the PCA problem, where the target matrix plays no role
    and must be zero. Returns a ``DataMatrix`` because ``solve_l1pca_exact``,
    the exact solver it feeds, is also the direct solver at the API edge.
    """
    if float(np.abs(agg.B_agg).max(initial=0.0)) != 0.0:
        raise ValueError("the PCA reduction expects a zero target matrix")
    return DataMatrix(agg.A_agg * agg.weights[:, None])


def _sign_block(start: int, count: int, bits: int) -> np.ndarray:
    """Rows start..start+count-1 of the +-1 counter over ``bits`` bits.

    Bit 0 of the counter is the last entry; counter value 0 is all +1.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    bit = (idx[:, None] >> shifts[None, :]) & np.uint64(1)
    return 1.0 - 2.0 * bit.astype(np.float64)


def _nuclear_pairs(g11: np.ndarray, g22: np.ndarray, g12: np.ndarray) -> np.ndarray:
    """Nuclear norm of a 2-column matrix from its Gram entries, vectorized."""
    tr = g11 + g22
    det = g11 * g22 - g12 * g12
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    hi = np.sqrt(np.maximum((tr + disc) / 2.0, 0.0))
    lo = np.sqrt(np.maximum((tr - disc) / 2.0, 0.0))
    return hi + lo


def enumeration_fits(rows: int, p: int, cap: int) -> bool:
    """Whether the 2^(rows*p-1) sign matrices of ``rows`` rows fit in ``cap``."""
    bits = rows * p - 1
    return bits < 63 and 2**bits <= cap


def spread_bound_terms(a: np.ndarray, clusters, p: int) -> np.ndarray:
    """Per-cluster bound on how far the full objective exceeds the aggregated one.

    ``clusters`` holds each cluster's row indices as an int array (any
    sequence of ints works).

    For every orthonormal m-by-p X and cluster c of w_c rows with mean abar_c,
    sum_{i in c} ||a_i X||_1
        <= w_c ||abar_c X||_1 + sum_{i in c} ||(a_i - abar_c) X||_1
        <= w_c ||abar_c X||_1 + sqrt(p w_c) ||(A_c - 1 abar_c^T) X||_F
        <= w_c ||abar_c X||_1 + sqrt(p w_c) (sigma_1^2 + ... + sigma_p^2)^(1/2)
    by the triangle inequality, Cauchy-Schwarz and Ky Fan, with sigma_j the
    singular values of the centred rows. Summed over clusters and added to
    the aggregated optimum, the terms bound the full optimum from above.
    Clusters of identical rows get exactly zero.
    """
    terms = np.zeros(len(clusters))
    for k, cluster in enumerate(clusters):
        rows = a[np.asarray(cluster)]
        if (rows == rows[0]).all():
            continue
        sv = np.linalg.svd(rows - rows.mean(axis=0), compute_uv=False)[:p]
        terms[k] = np.sqrt(p * len(cluster) * float(sv @ sv))
    return terms


def principal_halves(
    a: np.ndarray, cluster: np.ndarray
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a cluster by the sign of its centred rows' top principal projection.

    ``cluster`` holds the ascending row indices as an int array (any
    sequence of ints works); each half comes back as an ascending tuple.

    The top right singular vector v of the centred rows is signed so that
    its largest-magnitude entry (the first, on ties) is positive; rows with
    a positive projection on v come first, the rest (zero included) second.
    The projections sum to zero, so both halves are nonempty unless the
    rows differ only by rounding; then the first row is split off.
    """
    idx = np.asarray(cluster)
    centred = a[idx] - a[idx].mean(axis=0)
    v = np.linalg.svd(centred, full_matrices=False)[2][0]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    upper = centred @ v > 0.0
    if upper.all() or not upper.any():
        upper = np.arange(idx.size) == 0
    return tuple(idx[upper].tolist()), tuple(idx[~upper].tolist())


def solve_l1pca_exact(A: DataMatrix, p: int, cap: int = 2**26) -> PcaSolution:
    """Globally maximize ||A X||_1 over m-by-p X with orthonormal columns.

    Sign matrices are scored by the nuclear norm of A^T S; ties keep the
    earliest matrix in counter order. The winner is rounded to X = U V^T,
    the polar factor of A^T S = U Sigma V^T (thin SVD), and the objective
    recomputed as ||A X||_1.
    """
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    if p > A.cols:
        raise ValueError(f"p={p} orthonormal components need at least {p} columns")
    n = A.rows
    if n < 1:
        raise ValueError("need at least one data row")
    if not enumeration_fits(n, p, cap):
        raise InstanceTooLargeError(
            f"2^{n * p - 1} sign matrices exceed the enumeration cap {cap}"
        )
    a = A.values

    if p == 1:
        best_score = -np.inf
        best_index = -1
        total = 1 << (n - 1)
        for start in range(0, total, ENUM_BLOCK):
            count = min(ENUM_BLOCK, total - start)
            block = np.empty((count, n))
            block[:, 0] = 1.0
            if n > 1:
                block[:, 1:] = _sign_block(start, count, n - 1)
            proj = block @ a
            scores = np.sqrt(np.einsum("ij,ij->i", proj, proj))
            local = int(np.argmax(scores))
            if scores[local] > best_score:
                best_score = float(scores[local])
                best_index = start + local
        signs = np.empty((n, 1))
        signs[0, 0] = 1.0
        if n > 1:
            signs[1:, 0] = _sign_block(best_index, 1, n - 1)[0]
    else:
        half = 1 << (n - 1)
        full = 1 << n
        all_s2 = _sign_block(0, full, n)
        proj2 = all_s2 @ a
        g22 = np.einsum("ij,ij->i", proj2, proj2)
        best_score = -np.inf
        best_index = -1
        block_rows = max(1, (1 << 20) // full)
        for start in range(0, half, block_rows):
            count = min(block_rows, half - start)
            s1 = np.empty((count, n))
            s1[:, 0] = 1.0
            if n > 1:
                s1[:, 1:] = _sign_block(start, count, n - 1)
            proj1 = s1 @ a
            g11 = np.einsum("ij,ij->i", proj1, proj1)
            g12 = proj1 @ proj2.T
            scores = _nuclear_pairs(g11[:, None], g22[None, :], g12)
            local = int(np.argmax(scores))
            if scores.ravel()[local] > best_score:
                best_score = float(scores.ravel()[local])
                best_index = start * full + local
        i1, i2 = divmod(best_index, full)
        signs = np.empty((n, 2))
        signs[0, 0] = 1.0
        if n > 1:
            signs[1:, 0] = _sign_block(i1, 1, n - 1)[0]
        signs[:, 1] = _sign_block(i2, 1, n)[0]

    u, _, vt = np.linalg.svd(a.T @ signs, full_matrices=False)
    components = u @ vt
    objective = float(np.abs(a @ components).sum())
    return PcaSolution(components=components, objective=objective, sign_matrix=signs)


def solve_weighted_l1pca(agg: AggregatedInstance, p: int, cap: int = 2**26) -> PcaSolution:
    """Solve the cluster-weighted PCA problem through the row-scaling reduction."""
    scaled = weighted_to_unweighted_pca(agg)
    unweighted = solve_l1pca_exact(scaled, p, cap)
    fitted = agg.A_agg @ unweighted.components
    objective = float(agg.weights @ np.abs(fitted).sum(axis=1))
    return PcaSolution(
        components=unweighted.components,
        objective=objective,
        sign_matrix=unweighted.sign_matrix,
    )
