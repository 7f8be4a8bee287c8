"""Exact L1-norm PCA maximizing projected deviation, for one or two components.

The optimum of max ||A X||_1 over orthonormal X equals the best nuclear norm
of A^T S over sign matrices S, so the solver enumerates S (first entry fixed
to +1, the rest a binary counter) and rounds the winner to its polar factor.
The enumeration never forms S: it tabulates the signed sums of A's rows by
doubling and scores all sign vectors from two such tables with one GEMM per
chunk, meet-in-the-middle style (Horowitz and Sahni, 1974).
Aggregated weighted instances reduce to the unweighted problem by scaling
each row by its cluster size.

The aggregated optimum bounds the full one from below. ``spread_bound_terms``
turns it into an upper bound, and ``principal_halves`` splits the clusters
that keep the two apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import AggregatedInstance, ClusterPartition, SolverConfig
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

CHUNK = 1 << 17  # scores per GEMM chunk of the p=1 enumeration
TIE_REL = 1e-10  # relative band below the best expanded score that is rescored
DIRECT_BLOCK = 1 << 17  # floats per block of signed rows in ``_direct_scores``


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


def _sign_block(idx: int | np.ndarray, bits: int) -> np.ndarray:
    """Rows ``idx`` (an int or int array) of the +-1 counter over ``bits`` bits.

    Bit 0 of the counter is the last entry; counter value 0 is all +1.
    """
    idx = np.asarray(idx, dtype=np.uint64).reshape(-1)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    bit = (idx[:, None] >> shifts[None, :]) & np.uint64(1)
    return 1.0 - 2.0 * bit.astype(np.float64)


def _signed_sums(rows: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``base + s @ rows`` for every sign vector s of the counter over the rows.

    Row i of the table is counter value i, in ``_sign_block``'s order: each
    row doubles the table, and adding the rows last to first makes the first
    one the most significant bit.
    """
    table = np.empty((1 << len(rows), base.size))
    table[0] = base
    size = 1
    for row in rows[::-1]:
        np.subtract(table[:size], row, out=table[size : 2 * size])
        table[:size] += row
        size *= 2
    return table


def _half_tables(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Signed-sum tables of the high and low halves of the p=1 counter.

    Returns (TH, TL, l): TH[i] = a_0 + sum over the high rows and TL[j] the
    sum over the l low rows, so counter value i * 2^l + j has the signed sum
    TH[i] + TL[j].
    """
    bits = a.shape[0] - 1
    low = (bits + 1) // 2
    split = 1 + bits - low
    return (
        _signed_sums(a[1:split], a[0]),
        _signed_sums(a[split:], np.zeros(a.shape[1])),
        low,
    )


def _direct_scores(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Squared norm of s @ a for the p=1 counter values ``idx``, in a fixed order.

    The rows are added first to last and the squares summed column by
    column, so a vector's score does not depend on which others are scored
    with it (BLAS rounds a row of a product differently with the row count).
    Both sums are ``np.add.accumulate`` calls, which add strictly in order
    where ``sum`` would add pairwise. The signed rows are formed S vectors
    at a time: memory is a few blocks of S x n x m floats, with S n m at
    most ``DIRECT_BLOCK`` (S is at least 1).
    """
    n, m = a.shape
    shifts = np.arange(n - 2, -1, -1)
    step = max(1, DIRECT_BLOCK // (n * m))
    scores = np.empty(idx.size)
    for s0 in range(0, idx.size, step):
        block = idx[s0 : s0 + step]
        signs = np.ones((block.size, n))
        signs[:, 1:] -= 2.0 * ((block[:, None] >> shifts) & 1)
        proj = np.add.accumulate(signs[:, :, None] * a, axis=1)[:, -1]
        scores[s0 : s0 + step] = np.add.accumulate(proj * proj, axis=1)[:, -1]
    return scores


def _best_sign_vector(a: np.ndarray) -> int:
    """Counter value of the earliest maximizer of ``_direct_scores``.

    With TH, TL from ``_half_tables``, the squared score of i * 2^l + j is
    ||TH_i||^2 + ||TL_j||^2 + 2 TH_i . TL_j, one GEMM of the augmented
    tables [TH, ||TH||^2, 1] and [2 TL, 1, ||TL||^2] per chunk of at most
    ``CHUNK`` scores in counter order. At a maximizer TH_i . TL_j >= 0
    (flipping the whole low half would score higher otherwise), so there the
    expansion has no cancellation and lies within a few ulps per row of the
    direct score. Every entry within ``TIE_REL`` of the running expanded
    maximum is rescored directly, in counter order, and the incumbent is
    replaced only on a strictly higher direct score. Only the chunk rows
    whose own maximum reaches that band are searched for such entries.
    """
    th, tl, low_bits = _half_tables(a)
    hi = np.column_stack([th, np.einsum("ij,ij->i", th, th), np.ones(len(th))])
    lo = np.column_stack([2.0 * tl, np.ones(len(tl)), np.einsum("ij,ij->i", tl, tl)]).T
    cols = min(lo.shape[1], CHUNK)
    rows = CHUNK // cols
    top = -np.inf
    best_score = -np.inf
    best_index = 0
    for i0 in range(0, len(hi), rows):
        for j0 in range(0, lo.shape[1], cols):
            scores = hi[i0 : i0 + rows] @ lo[:, j0 : j0 + cols]
            rowmax = scores.max(axis=1)
            top = max(top, float(rowmax.max()))
            floor = top - TIE_REL * abs(top)
            live = np.flatnonzero(rowmax >= floor)
            if live.size == 0:
                continue
            r, j = np.nonzero(scores[live] >= floor)
            idx = ((live[r] + i0) << low_bits) + j + j0
            exact = _direct_scores(a, idx)
            k = int(np.argmax(exact))
            if exact[k] > best_score:
                best_score = float(exact[k])
                best_index = int(idx[k])
    return best_index


def _best_sign_pair(a: np.ndarray) -> tuple[int, int]:
    """Counter values (s1 over n-1 bits, s2 over n) of the earliest p=2 maximizer.

    The n-bit s2 table is the s1 table followed by its negation in reverse:
    s2 counter value 2^(n-1) + c is -s1 of the complement of c.
    """
    half = 1 << (a.shape[0] - 1)
    t1 = _signed_sums(a[1:], a[0])
    t2 = np.concatenate([t1, -t1[::-1]])
    g22 = np.einsum("ij,ij->i", t2, t2)
    best_score = -np.inf
    best_index = -1
    block_rows = max(1, (1 << 20) // (2 * half))
    for start in range(0, half, block_rows):
        stop = min(start + block_rows, half)
        g12 = t1[start:stop] @ t2.T
        scores = _nuclear_pairs(g22[start:stop, None], g22[None, :], g12)
        local = int(np.argmax(scores))
        if scores.ravel()[local] > best_score:
            best_score = float(scores.ravel()[local])
            best_index = start * 2 * half + local
    return divmod(best_index, 2 * half)


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


def spread_bound_terms(
    a: np.ndarray, partition: ClusterPartition, p: int, previous: np.ndarray | None = None
) -> np.ndarray:
    """Per-cluster bound on how far the full objective exceeds the aggregated one.

    For every orthonormal m-by-p X and cluster c of w_c rows with mean abar_c,
    sum_{i in c} ||a_i X||_1
        <= w_c ||abar_c X||_1 + sum_{i in c} ||(a_i - abar_c) X||_1
        <= w_c ||abar_c X||_1 + sqrt(p w_c) ||(A_c - 1 abar_c^T) X||_F
        <= w_c ||abar_c X||_1 + sqrt(p w_c) (sigma_1^2 + ... + sigma_p^2)^(1/2)
    by the triangle inequality, Cauchy-Schwarz and Ky Fan, with sigma_j the
    singular values of the centred rows. The sigma_j^2 are the top
    eigenvalues of the cluster's m-by-m centred scatter, so the rows are
    gathered and centred once, one small GEMM per cluster fills a (k, m, m)
    stack, and one ``eigvalsh`` call solves it. Summed over clusters and
    added to the aggregated optimum, the terms bound the full optimum from
    above. Clusters of identical rows get exactly zero, tested on the rows
    themselves: a float mean can differ from the row it repeats.

    ``previous`` holds the terms of the partition that ``partition`` was
    split from. A cluster the split kept whole (see
    ``ClusterPartition.fresh``) copies its term from there, and only the
    clusters the split created are computed, by the same arithmetic, so
    every term has the bits of a fresh call. Memory is the gathered rows of
    those clusters plus their (k, m, m) scatter stack.
    """
    if previous is None or partition.parent is None:
        fresh = np.arange(partition.cluster_count)
        terms = np.empty(fresh.size)
    else:
        fresh = np.flatnonzero(partition.fresh())
        terms = previous[partition.parent]
    pos, starts = partition.positions(fresh)
    rows = np.take(a, partition.order[pos], axis=0)
    sizes = partition.sizes[fresh]
    spread = (np.maximum.reduceat(rows, starts) != np.minimum.reduceat(rows, starts)).any(axis=1)
    rows -= np.repeat(np.add.reduceat(rows, starts) / sizes[:, None], sizes, axis=0)
    scatter = np.empty((sizes.size, a.shape[1], a.shape[1]))
    for c, (start, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
        block = rows[start : start + size]
        np.matmul(block.T, block, out=scatter[c])
    top = np.maximum(np.linalg.eigvalsh(scatter)[:, -p:], 0.0).sum(axis=1)
    terms[fresh] = np.where(spread, np.sqrt(p * sizes * top), 0.0)
    return terms


def principal_halves(a: np.ndarray, cluster: np.ndarray) -> np.ndarray:
    """Split a cluster by the sign of its centred rows' top principal projection.

    ``cluster`` holds the ascending row indices as an int array; the rows
    of the second half come back as an ascending int array.

    The top right singular vector v of the centred rows is signed so that
    its largest-magnitude entry (the first, on ties) is positive; rows with
    a positive projection on v form the first half, the rest (zero
    included) the second.
    The projections sum to zero, so both halves are nonempty unless the
    rows differ only by rounding; then the first row is split off.
    """
    rows = np.take(a, cluster, axis=0)
    centred = rows - rows.mean(axis=0)
    v = np.linalg.svd(centred, full_matrices=False)[2][0]
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    upper = centred @ v > 0.0
    if upper.all() or not upper.any():
        upper = np.arange(cluster.size) == 0
    return cluster[~upper]


def solve_l1pca_exact(A: DataMatrix, p: int, cap: int = SolverConfig.pca_cap) -> PcaSolution:
    """Globally maximize ||A X||_1 over m-by-p X with orthonormal columns.

    Sign matrices are scored by the nuclear norm of A^T S; ties keep the
    earliest matrix in counter order (for p=1, the earliest maximizer of
    ``_direct_scores``; for p=2, of the Gram-entry scores of the signed-sum
    table). The winner is rounded to X = U V^T, the polar factor of
    A^T S = U Sigma V^T (thin SVD), and the objective recomputed as
    ||A X||_1.
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
        i1 = _best_sign_vector(a)
    else:
        i1, i2 = _best_sign_pair(a)
    signs = np.empty((n, p))
    signs[0, 0] = 1.0
    signs[1:, 0] = _sign_block(i1, n - 1)[0]
    if p == 2:
        signs[:, 1] = _sign_block(i2, n)[0]

    u, _, vt = np.linalg.svd(a.T @ signs, full_matrices=False)
    components = u @ vt
    objective = float(np.abs(a @ components).sum())
    return PcaSolution(components=components, objective=objective, sign_matrix=signs)


def solve_weighted_l1pca(agg: AggregatedInstance, p: int, cap: int = SolverConfig.pca_cap) -> PcaSolution:
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
