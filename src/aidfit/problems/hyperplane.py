"""L1-norm best-fit hyperplane by reduction to coordinate regressions.

Each coordinate is regressed (with intercept) on the remaining ones; the
coordinate with the smallest total absolute residual wins, and its graph is
returned as the hyperplane. Points project onto the hyperplane along the
winning coordinate, so the recomputed fit error equals that regression's
residual sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import AggregatedInstance
from ..linalg import DataMatrix
from .lad import solve_weighted_lad

__all__ = ["HyperplaneFit", "DegenerateColumnError", "solve_best_fit_hyperplane"]


class DegenerateColumnError(ValueError):
    """A zero-variance column makes the coordinate regressions ill-posed."""


@dataclass(frozen=True)
class HyperplaneFit:
    basis: DataMatrix
    intercept: np.ndarray
    coordinates: DataMatrix
    objective: float
    winning_column: int


def _orthonormal_graph_basis(directions: np.ndarray) -> np.ndarray:
    """Gram-Schmidt over the given direction columns, processed in order."""
    m, k = directions.shape
    out = np.zeros((m, k))
    col = 0
    for j in range(k):
        v = directions[:, j].copy()
        for i in range(col):
            v -= np.dot(out[:, i], v) * out[:, i]
        norm = np.linalg.norm(v)
        if norm <= 1e-12:
            raise ValueError("direction columns are not independent")
        out[:, col] = v / norm
        col += 1
    return out


def solve_best_fit_hyperplane(
    A: DataMatrix, fit_lad=None
) -> HyperplaneFit:
    """Fit the hyperplane minimizing the summed L1 distance along one coordinate.

    ``fit_lad`` may replace the default exact regression routine (it must map
    (targets, features) to a coefficient vector); the aggregation-based
    driver can be plugged in for large row counts.
    """
    n, m = A.shape
    if m < 2:
        raise ValueError("need at least two columns to fit a hyperplane")
    if n < m:
        raise ValueError(f"need at least {m} rows, got {n}")
    a = A.values
    spans = a.max(axis=0) - a.min(axis=0)
    for j, span in enumerate(spans):
        if span == 0.0:
            raise DegenerateColumnError(f"column {j} has zero variance")

    if fit_lad is None:
        def fit_lad(targets: np.ndarray, features: np.ndarray) -> np.ndarray:
            agg = AggregatedInstance(
                B_agg=targets.reshape(-1, 1),
                A_agg=features,
                weights=np.ones(len(targets), dtype=np.int64),
            )
            return solve_weighted_lad(agg).coefficients

    best_j = -1
    best_obj = np.inf
    best_coeffs: np.ndarray | None = None
    for j in range(m):
        others = [k for k in range(m) if k != j]
        features = np.hstack([a[:, others], np.ones((n, 1))])
        coeffs = fit_lad(a[:, j], features)
        objective = float(np.abs(a[:, j] - features @ coeffs).sum())
        if objective < best_obj:
            best_j = j
            best_obj = objective
            best_coeffs = coeffs

    assert best_coeffs is not None
    others = [k for k in range(m) if k != best_j]
    slope = best_coeffs[:-1]
    intercept_term = best_coeffs[-1]

    # hyperplane = graph of the affine map u -> (u, slope @ u + intercept)
    directions = np.zeros((m, m - 1))
    for col, k in enumerate(others):
        directions[k, col] = 1.0
        directions[best_j, col] = slope[col]
    basis = _orthonormal_graph_basis(directions)
    beta = np.zeros(m)
    beta[best_j] = intercept_term

    # project points along the winning coordinate, then read coordinates off
    projected = a.copy()
    projected[:, best_j] = a[:, others] @ slope + intercept_term
    alphas = (projected - beta[None, :]) @ basis

    return HyperplaneFit(
        basis=DataMatrix(basis),
        intercept=beta,
        coordinates=DataMatrix(alphas),
        objective=best_obj,
        winning_column=best_j,
    )
