"""Exact L1-norm PCA maximizing projected deviation, for one or two components.

The optimum of max ||A X||_1 over orthonormal X equals the best nuclear norm
of A^T S over sign matrices S, so the solver enumerates S (first entry fixed
to +1, the rest a binary counter) and rounds the winner to its polar factor.
The enumeration never forms S: it tabulates the signed sums of A's rows by
doubling and scores sign vectors from two such tables with one GEMM per
chunk, meet-in-the-middle style (Horowitz and Sahni, 1974). For p=1 only
half the low-half table is built: flipping every low-half sign negates the
low-half sum, so one GEMM entry scores a vector and that complement at
once. The GEMM only filters; candidates near the best are rescored
directly, and equal scores go to the smallest counter value.
Aggregated weighted instances reduce to the unweighted problem by scaling
each row by its cluster size.

The aggregated optimum bounds the full one from below. ``spread_bound_terms``
turns it into an upper bound, and ``principal_halves`` splits the clusters
that keep the two apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import AggregatedInstance, ClusterPartition
from ..linalg import DataMatrix
from .lad import InstanceTooLargeError

__all__ = [
    "PCA_CAP",
    "PcaSolution",
    "weighted_to_unweighted_pca",
    "solve_l1pca_exact",
    "solve_weighted_l1pca",
    "enumeration_fits",
    "spread_bound_terms",
    "principal_halves",
]

PCA_CAP = 2**26  # default enumeration budget: sign matrices per exact solve
CHUNK = 1 << 17  # sign vectors per GEMM chunk of the p=1 enumeration, two per score
TIE_REL = 1e-10  # relative band below the best expanded score that is rescored
DIRECT_BLOCK = 1 << 17  # floats per block of signed rows in ``_direct_scores``


@dataclass(frozen=True)
class PcaSolution:
    components: np.ndarray  # (m, p), orthonormal columns
    objective: float
    sign_matrix: np.ndarray


def weighted_to_unweighted_pca(agg: AggregatedInstance) -> np.ndarray:
    """Scale each aggregated feature row by its cluster size; returns a new array.

    Valid only for the PCA problem, where the target matrix plays no role
    and must be zero.
    """
    if float(np.abs(agg.B_agg).max(initial=0.0)) != 0.0:
        raise ValueError("the PCA reduction expects a zero target matrix")
    return agg.A_agg * agg.weights[:, None]


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
    """Signed-sum tables of the high half and of half the low half of the p=1 counter.

    Returns (TH, TL, l): TH[i] = a_0 + the signed sum of the high rows, and
    TL[j], j < 2^(l-1), the signed sum of the l low rows with the first of
    them at +1. Counter value i * 2^l + j has the signed sum TH[i] + TL[j],
    and its low-half complement i * 2^l + 2^l - 1 - j has TH[i] - TL[j].
    With one row there is no low half (l = 0): TL is one zero row, whose
    complement is itself.
    """
    bits = a.shape[0] - 1
    low = (bits + 1) // 2
    split = 1 + bits - low
    th = _signed_sums(a[1:split], a[0])
    if low == 0:
        return th, np.zeros((1, a.shape[1])), 0
    return th, _signed_sums(a[split + 1 :], a[split]), low


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

    With TH, TL from ``_half_tables``, counter value i * 2^l + j and its
    complement i * 2^l + 2^l - 1 - j score ||TH_i||^2 + ||TL_j||^2 +- 2 TH_i . TL_j,
    so one GEMM of TH against 2 TL per chunk of at most ``CHUNK`` / 2 pairs
    gives the better of the two as ||TH_i||^2 + ||TL_j||^2 + 2 |TH_i . TL_j|.
    Its terms are nonnegative, so it lies within a few ulps per row of the
    direct score; it only filters, and may round differently. Every pair
    within ``TIE_REL`` of the running maximum (searched only in the chunk
    rows whose maximum reaches it) is rescored directly: the member with
    the nonnegative dot product, and the other too if its own expansion
    reaches the band (ties, or a dot product too small to sign). The winner
    is the largest direct score, on ties the smallest counter value, a rule
    that does not depend on the order of the chunks.
    """
    th, tl, low_bits = _half_tables(a)
    th_sq = np.einsum("ij,ij->i", th, th)
    tl_sq = np.einsum("ij,ij->i", tl, tl)
    lo = (2.0 * tl).T.copy()  # C order: the thin GEMM runs faster on it than on tl's transpose
    cols = min(len(tl), CHUNK // 2)
    rows = CHUNK // 2 // cols
    top = -np.inf
    best_score = -np.inf
    best_index = 0
    for i0 in range(0, len(th), rows):
        for j0 in range(0, len(tl), cols):
            scores = th[i0 : i0 + rows] @ lo[:, j0 : j0 + cols]
            np.abs(scores, out=scores)
            scores += tl_sq[j0 : j0 + cols]
            rowmax = scores.max(axis=1) + th_sq[i0 : i0 + rows]
            top = max(top, float(rowmax.max()))
            floor = top - TIE_REL * abs(top)
            live = np.flatnonzero(rowmax >= floor)
            if live.size == 0:
                continue
            r, j = np.nonzero(scores[live] + th_sq[i0 + live, None] >= floor)
            i = live[r] + i0
            j += j0
            dot = np.einsum("ij,ij->i", th[i], tl[j])
            plus = (i << low_bits) + j
            minus = (i << low_bits) + (1 << low_bits) - 1 - j
            both = th_sq[i] + tl_sq[j] - 2.0 * np.abs(dot) >= floor
            idx = np.sort(np.concatenate([plus[(dot >= 0.0) | both], minus[(dot < 0.0) | both]]))
            exact = _direct_scores(a, idx)
            k = int(np.argmax(exact))
            if exact[k] > best_score or (exact[k] == best_score and idx[k] < best_index):
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
    ``ClusterPartition.recompute``) copies its term from there, and only the
    clusters the split created are computed, by the same arithmetic, so
    every term has the bits of a fresh call. Memory is the gathered rows of
    those clusters plus their (k, m, m) scatter stack.
    """
    fresh, members, starts = partition.recompute(previous is not None)
    terms = previous[partition.parent] if fresh.size < partition.cluster_count else np.empty(fresh.size)
    rows = np.take(a, members, axis=0)
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


def solve_l1pca_exact(A: DataMatrix, p: int, cap: int = PCA_CAP) -> PcaSolution:
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


def solve_weighted_l1pca(agg: AggregatedInstance, p: int, cap: int = PCA_CAP) -> PcaSolution:
    """Solve the cluster-weighted PCA problem through the row-scaling reduction.

    Every enumeration goes through ``solve_l1pca_exact``, where perfbench
    counts sign vectors, so the k scaled rows are wrapped in a ``DataMatrix``."""
    scaled = weighted_to_unweighted_pca(agg)
    unweighted = solve_l1pca_exact(DataMatrix(scaled), p, cap)
    fitted = agg.A_agg @ unweighted.components
    objective = float(agg.weights @ np.abs(fitted).sum(axis=1))
    return PcaSolution(
        components=unweighted.components,
        objective=objective,
        sign_matrix=unweighted.sign_matrix,
    )
