"""L1-norm best-fit hyperplane by reduction to coordinate regressions.

Each coordinate is regressed (with intercept) on the remaining ones through
the aggregation loop, every regression starting from the same partition;
the coordinate with the smallest total absolute residual wins, and its
graph is returned as the hyperplane. Points project onto the hyperplane
along the winning coordinate, so the recomputed fit error equals that
regression's residual sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import AidConfig, AidReport, ClusterPartition, run_aid
from ..linalg import DataMatrix
from .definitions import LadRegressionProblem

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
    # the winning coordinate regression's run; objective == report.best_objective
    report: AidReport


def _orthonormal_graph_basis(directions: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the direction columns' span, in column order.

    The Q factor of their QR decomposition, with columns signed so that
    diag(R) > 0: the basis Gram-Schmidt would build.
    """
    q, r = np.linalg.qr(directions)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def solve_best_fit_hyperplane(
    A: DataMatrix, initial: ClusterPartition, config: AidConfig | None = None
) -> HyperplaneFit:
    """Fit the hyperplane minimizing the summed L1 distance along one coordinate.

    Coordinate j is regressed on the other columns plus an intercept by one
    ``run_aid`` call from ``initial`` under ``config``; the first coordinate
    with the smallest objective wins. Singleton partitions solve each
    regression as one exact n-row problem.
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

    best_j = -1
    best: AidReport | None = None
    for j in range(m):
        others = [k for k in range(m) if k != j]
        features = DataMatrix(np.hstack([a[:, others], np.ones((n, 1))]))
        report = run_aid(DataMatrix(a[:, [j]]), features, LadRegressionProblem(), initial, config)
        if best is None or report.best_objective < best.best_objective:
            best_j, best = j, report

    others = [k for k in range(m) if k != best_j]
    slope = best.solution.coefficients[:-1]
    intercept_term = best.solution.coefficients[-1]

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
        objective=best.best_objective,
        winning_column=best_j,
        report=best,
    )
