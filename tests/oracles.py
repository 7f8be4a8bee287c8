"""Independent brute-force implementations used only to cross-check solvers.

Nothing here may call into the library's solve paths: these are the second
route for every dual-route check.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple loop, accumulating over the inner index left to right."""
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def cluster_means(values: np.ndarray, clusters) -> np.ndarray:
    out = np.zeros((len(clusters), values.shape[1]))
    for k, cluster in enumerate(clusters):
        acc = np.zeros(values.shape[1])
        for i in cluster:
            acc += values[i]
        out[k] = acc / len(cluster)
    return out


def lad_vertex_oracle(b: np.ndarray, a: np.ndarray, w: np.ndarray) -> float:
    """Optimal weighted LAD objective via interpolation-vertex enumeration.

    Requires full column rank so the optimum sits on an intersection of m
    data hyperplanes.
    """
    n, m = a.shape
    best = np.inf
    for rows in itertools.combinations(range(n), m):
        sub = a[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        obj = float(w @ np.abs(b - a @ x))
        best = min(best, obj)
    return best


def boxed_lp_vertex_oracle(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, upper: np.ndarray
) -> float:
    """min c x over a x = b, 0 <= x <= upper (all finite) by vertex enumeration.

    Every vertex has a set of basic columns, one per row, with the others at
    one of their bounds; returns inf when no vertex is feasible.
    """
    rows, cols = a.shape
    best = np.inf
    for basis in itertools.combinations(range(cols), rows):
        sub = a[:, list(basis)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        others = [j for j in range(cols) if j not in basis]
        for at_upper in itertools.product((False, True), repeat=len(others)):
            x = np.zeros(cols)
            for j, up in zip(others, at_upper):
                x[j] = upper[j] if up else 0.0
            x[list(basis)] = np.linalg.solve(sub, b - a @ x)
            if (x >= -1e-9).all() and (x <= upper + 1e-9).all():
                best = min(best, float(c @ x))
    return best


def lad_grid_oracle(
    b: np.ndarray, a: np.ndarray, w: np.ndarray, span: float = 20.0
) -> float:
    """Two-stage grid refinement over the coefficient plane (m == 2 only)."""
    assert a.shape[1] == 2
    center = np.zeros(2)
    width = span
    best = np.inf
    for _ in range(3):
        g0 = np.linspace(center[0] - width, center[0] + width, 201)
        g1 = np.linspace(center[1] - width, center[1] + width, 201)
        xs = np.stack([np.repeat(g0, len(g1)), np.tile(g1, len(g0))], axis=1)
        vals = np.abs(b[None, :] - xs @ a.T) @ w
        idx = int(np.argmin(vals))
        best = min(best, float(vals[idx]))
        center = xs[idx]
        width = width * 2 / 200 * 5
    return best


def subset_oracle(b: np.ndarray, a: np.ndarray, w: np.ndarray, p: int) -> float:
    """Independent support loop; per-support solve by vertex enumeration."""
    m = a.shape[1]
    best = np.inf
    for support in itertools.combinations(range(m), p):
        best = min(best, lad_vertex_oracle(b, a[:, list(support)], w))
    return best


def sphere_grid_oracle(
    b: np.ndarray, a: np.ndarray, w: np.ndarray, radius: float, n_r=200, n_t=1200
) -> float:
    """Polar grid over the disk (m == 2 only)."""
    assert a.shape[1] == 2
    rs = np.sqrt(radius) * np.linspace(0.0, 1.0, n_r)
    ts = np.linspace(0.0, 2.0 * np.pi, n_t, endpoint=False)
    xs = np.stack(
        [np.outer(rs, np.cos(ts)).ravel(), np.outer(rs, np.sin(ts)).ravel()], axis=1
    )
    vals = np.abs(b[None, :] - xs @ a.T) @ w
    return float(vals.min())


def sphere_interval_oracle(
    b: np.ndarray, a: np.ndarray, w: np.ndarray, radius: float, points=400_001
) -> float:
    """Dense scan of the interval [-sqrt(R), sqrt(R)] (m == 1 only)."""
    assert a.shape[1] == 1
    xs = np.linspace(-np.sqrt(radius), np.sqrt(radius), points).reshape(-1, 1)
    vals = np.abs(b[None, :] - xs @ a.T) @ w
    return float(vals.min())


def l1pca_enumeration_oracle(a: np.ndarray, p: int) -> float:
    """Score every sign matrix (no symmetry reduction) with LAPACK's SVD."""
    n = a.shape[0]
    best = -np.inf
    for combo in itertools.product((1.0, -1.0), repeat=n * p):
        s = np.asarray(combo).reshape(n, p)
        best = max(best, float(np.linalg.svd(a.T @ s, compute_uv=False).sum()))
    return best


def direct_scores_row_loop(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``pca._direct_scores`` as a loop over the rows, then over the columns.

    Squared norm of s @ a for the p=1 counter values ``idx``: the rows are
    added first to last and the squares summed column by column.
    """
    n = a.shape[0]
    proj = np.tile(a[0], (idx.size, 1))
    for r in range(1, n):
        sign = 1.0 - 2.0 * ((idx >> (n - 1 - r)) & 1)
        proj += sign[:, None] * a[r]
    scores = np.zeros(idx.size)
    for col in proj.T:
        scores += col * col
    return scores


def l1pca_first_maximizer_oracle(a: np.ndarray) -> np.ndarray:
    """First p=1 sign vector in counter order maximizing the direct score.

    Counter order fixes the first sign to +1 and counts the rest in binary,
    the second row most significant and +1 before -1. The direct score is
    ||s @ a||^2 with the rows added first to last and the squares summed
    column by column; that order is part of the contract, because ties in
    exact arithmetic are broken by how the score rounds.
    """
    n, m = a.shape
    signs = np.array([(1.0,) + rest for rest in itertools.product((1.0, -1.0), repeat=n - 1)])
    proj = np.zeros((len(signs), m))
    for r in range(n):
        proj += signs[:, r, None] * a[r]
    scores = np.zeros(len(signs))
    for c in range(m):
        scores += proj[:, c] * proj[:, c]
    return signs[int(np.argmax(scores))]


def l1pca_weighted_enumeration_oracle(
    a: np.ndarray, weights: np.ndarray, p: int
) -> float:
    """Weighted objective maximum over all sign matrices."""
    n = a.shape[0]
    best = -np.inf
    for combo in itertools.product((1.0, -1.0), repeat=n * p):
        s = np.asarray(combo).reshape(n, p) * weights[:, None]
        best = max(best, float(np.linalg.svd(a.T @ s, compute_uv=False).sum()))
    return best


def l1pca_sampling_bound(a: np.ndarray, p: int, samples: int, seed: int = 0) -> float:
    """Best objective over random orthonormal candidates (a lower bound)."""
    rng = np.random.default_rng(seed)
    m = a.shape[1]
    best = -np.inf
    block = 50_000
    remaining = samples
    while remaining > 0:
        count = min(block, remaining)
        remaining -= count
        g = rng.standard_normal((count, m, p))
        q, _ = np.linalg.qr(g)
        vals = np.abs(np.einsum("nm,bmp->bnp", a, q)).sum(axis=(1, 2))
        best = max(best, float(vals.max()))
    return best


def hyperplane_oracle(a: np.ndarray) -> float:
    """Best coordinate regression via vertex enumeration, independent route."""
    n, m = a.shape
    best = np.inf
    ones = np.ones((n, 1))
    for j in range(m):
        others = [k for k in range(m) if k != j]
        feats = np.hstack([a[:, others], ones])
        best = min(best, lad_vertex_oracle(a[:, j], feats, np.ones(n)))
    return best


def nearest_center_labels(points: np.ndarray, centers: np.ndarray) -> list[int]:
    labels = []
    for row in points:
        best_d = np.inf
        best_k = -1
        for k, c in enumerate(centers):
            d = float(((row - c) ** 2).sum())
            if d < best_d:
                best_d = d
                best_k = k
        labels.append(best_k)
    return labels


def pattern_group_check(signs, clusters) -> list[int]:
    """Clusters whose rows carry two or more distinct patterns."""
    bad = []
    for k, cluster in enumerate(clusters):
        if len({tuple(signs[i]) for i in cluster}) > 1:
            bad.append(k)
    return bad


def counter_decluster(signs, clusters, violating) -> tuple[tuple[int, ...], ...]:
    """Clusters after splitting each violator into its mode rows, then the rest.

    The mode is the most common pattern, ties going to the pattern that is
    lexicographically first with +1 before -1. Other clusters are kept.
    """
    out = []
    for k, cluster in enumerate(clusters):
        if k not in violating:
            out.append(tuple(cluster))
            continue
        counts = Counter(tuple(signs[i]) for i in cluster)
        best = max(counts.values())
        mode = min(
            (pat for pat, cnt in counts.items() if cnt == best),
            key=lambda pat: tuple(s == -1 for s in pat),
        )
        out.append(tuple(i for i in cluster if tuple(signs[i]) == mode))
        out.append(tuple(i for i in cluster if tuple(signs[i]) != mode))
    return tuple(out)
