"""Initial cluster construction.

The engine accepts any starting partition; these helpers build one of three
feature spaces (residuals of a few exact LAD fits, projections onto the
leading L2 principal components, or the raw columns of A) and run one
seeded k-means pass on them.

Each residual fit solves a seeded sample of about 4√n rows, not all n, as
Portnoy and Koenker (1997, "The Gaussian hare and the Laplacian tortoise")
first fit a row sample to preprocess L1 regression: a start only has to
group rows, and ``run_aid``'s sign check and splits make the final answer
exact whatever the start. The residual columns are still formed on every
row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import ClusterPartition
from .linalg import DataMatrix, symmetric_eigen
from .problems.lad import solve_weighted_lad  # noqa: F401 - perfbench/spans.py traces this binding

__all__ = [
    "InitialClusterConfig",
    "default_initial_cluster_count",
    "random_column_subsets",
    "residual_fit_rows",
    "residual_features",
    "pca_projection_features",
    "kmeans_one_pass",
    "build_initial_partition",
]

KMEANS_BLOCK = 1 << 20  # scores per row block of kmeans_one_pass


@dataclass(frozen=True)
class InitialClusterConfig:
    target_cluster_count: int
    feature_source: Literal["residuals", "pca_projection", "raw_data"] = "residuals"
    seed: int = 0
    model_count: int = 5
    feature_p: int | None = None
    projection_p: int = 1


def default_initial_cluster_count(n: int, k_min: int = 2) -> int:
    """One percent of the rows, clamped into [k_min, n]."""
    return max(min(math.ceil(0.01 * n), n), min(k_min, n))


def random_column_subsets(
    m: int, p: int, count: int, seed: int | np.random.Generator
) -> list[tuple[int, ...]]:
    """``count`` sorted p-subsets of 0..m-1 drawn with a PCG64 stream.

    Draw order: one ``choice(m, p, replace=False)`` call per model, in model
    order, so callers can reproduce the subsets from the seed alone. A
    generator in place of the seed is drawn from and left advanced.
    """
    rng = np.random.default_rng(seed)
    return [
        tuple(sorted(int(c) for c in rng.choice(m, size=p, replace=False)))
        for _ in range(count)
    ]


def residual_fit_rows(n: int, rng: np.random.Generator) -> np.ndarray:
    """The s = min(n, ⌈4√n⌉) rows each residual fit solves, in ascending order.

    One ``choice(n, s, replace=False)`` call on ``rng``, sorted; for n ≤ 17
    that is every row.
    """
    s = min(n, math.ceil(4.0 * math.sqrt(n)))
    return np.sort(rng.choice(n, size=s, replace=False))


def _fit_lad_coefficients(targets: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Exact LAD fit of the rows given: one driver iteration from singletons, one LP.

    The dual simplex solves it faster than aggregation rounds would; ``run_aid``
    keeps the fit certified (t = 1, its LP bound checked against its objective).
    """
    from .core import AidConfig, run_aid
    from .problems.definitions import LadRegressionProblem

    report = run_aid(
        DataMatrix(targets.reshape(-1, 1)),
        DataMatrix(features),
        LadRegressionProblem(),
        ClusterPartition.singletons(features.shape[0]),
        AidConfig(tol=0.0),
    )
    return report.solution.coefficients


def residual_features(
    B: DataMatrix, A: DataMatrix, p: int, model_count: int, seed: int
) -> DataMatrix:
    """Residual columns of ``model_count`` LAD fits on random p-column subsets.

    Rows with similar residuals across the fits tend to sit on the same side
    of the eventual regression surface, which is what the initial clusters
    should capture. Each distinct subset is fitted once, by the model that
    draws it first, with an exact LAD fit of the row sample
    (``residual_fit_rows``) in one driver iteration
    (``_fit_lad_coefficients``); its column is the target minus the
    subset's features times that fit, on all n rows. A model that draws the
    subset again reuses that column.

    One PCG64 stream seeded with ``seed`` draws the subsets
    (``random_column_subsets``) and then the row sample, so both replay
    from the seed alone.
    """
    if model_count < 1:
        raise ValueError("model_count must be at least 1")
    if p > A.cols:
        raise ValueError(f"p={p} exceeds the {A.cols} available columns")
    n = A.rows
    targets = B.values[:, 0]
    rng = np.random.default_rng(seed)
    subsets = random_column_subsets(A.cols, p, model_count, rng)
    rows = residual_fit_rows(n, rng)
    out = np.empty((n, model_count))
    first: dict[tuple[int, ...], int] = {}
    for c, subset in enumerate(subsets):
        if subset in first:
            out[:, c] = out[:, first[subset]]
            continue
        first[subset] = c
        features = A.values[:, list(subset)]
        coeffs = _fit_lad_coefficients(targets[rows], features[rows])
        out[:, c] = targets - features @ coeffs
    return DataMatrix(out)


def pca_projection_features(A: DataMatrix, p: int) -> DataMatrix:
    """Projections of the rows onto the top p L2 principal directions."""
    if p > A.cols:
        raise ValueError(f"p={p} exceeds the {A.cols} available columns")
    a = A.values
    _, eigvecs = symmetric_eigen(a.T @ a)
    return DataMatrix(a @ eigvecs[:, :p])


def kmeans_one_pass(features: DataMatrix, k: int, seed: int) -> ClusterPartition:
    """Single assignment pass of k-means with seeded distinct-row centers.

    Every row joins its nearest center; centers are never updated and empty
    clusters are dropped. Rows are scored by a matrix product, ‖c‖² − 2·x·cᵀ
    (the row's own ‖x‖² does not change which center is nearest), on
    features centred at the centers' mean so that a large common offset
    cancels before the product. Ties go to the lowest center index among
    equal computed scores.

    The product runs over row blocks of about ``KMEANS_BLOCK`` scores (at
    least 8 rows), so the scores held at once do not grow with n. A last
    block of one row joins the block before it: numpy hands a one-row
    product to GEMV, which rounds differently from the GEMM that scores the
    other blocks.
    """
    n = features.rows
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be in [1, {n}]")
    rng = np.random.default_rng(seed)
    vals = features.values
    centers = vals[rng.choice(n, size=k, replace=False), :]
    mid = centers.mean(axis=0)
    centers -= mid
    norms = (centers * centers).sum(axis=1)
    edges = list(range(0, n, max(KMEANS_BLOCK // k, 8)))
    if len(edges) > 1 and n - edges[-1] == 1:
        edges.pop()
    labels = np.empty(n, dtype=np.int64)
    for start, stop in zip(edges, edges[1:] + [n]):
        score = (vals[start:stop] - mid) @ centers.T
        score *= -2.0
        score += norms
        labels[start:stop] = np.argmin(score, axis=1)
    return ClusterPartition.from_labels(labels)


def build_initial_partition(
    B: DataMatrix | None, A: DataMatrix, config: InitialClusterConfig
) -> ClusterPartition:
    """Construct the starting partition for a run, per the configured features.

    A target of one cluster per row gives the singleton partition, checked
    after the configuration and before any features are built: k-means
    would merge rows whose features coincide, such as the rows an exact fit
    interpolates, whose residuals are all zero.
    """
    source = config.feature_source
    if source not in ("residuals", "pca_projection", "raw_data"):
        raise ValueError(f"unknown feature source {source!r}")
    if source == "residuals" and B is None:
        raise ValueError("residual features need target data")
    if config.target_cluster_count == A.rows:
        return ClusterPartition.singletons(A.rows)
    if source == "residuals":
        p = config.feature_p if config.feature_p is not None else A.cols
        features = residual_features(B, A, p, config.model_count, config.seed)
    elif source == "pca_projection":
        features = pca_projection_features(A, config.projection_p)
    else:
        features = A
    return kmeans_one_pass(features, config.target_cluster_count, config.seed)
