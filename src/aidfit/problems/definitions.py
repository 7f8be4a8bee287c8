"""Concrete fitting problems pluggable into the aggregation engine."""

from __future__ import annotations

import numpy as np

from ..core import AggregatedInstance, ClusterPartition, ProblemDefinition, SolverConfig
from ..linalg import DataMatrix, matmul
from .lad import (
    RegressionSolution,
    SubsetSolution,
    solve_subset_selection,
    solve_weighted_lad,
)
from .pca import (
    PcaSolution,
    enumeration_fits,
    principal_halves,
    solve_weighted_l1pca,
    spread_bound_terms,
)
from .sphere import SphereSolution, solve_sphere_lad

__all__ = [
    "LadRegressionProblem",
    "SubsetSelectionProblem",
    "SphereRegressionProblem",
    "PcaProjectionProblem",
]


class _LinearMapMixin:
    """Shared f(X, A) = A X evaluation for coefficient-vector solutions."""

    q = 1

    def apply_f(self, solution, a: np.ndarray) -> np.ndarray:
        """The (n, 1) fit of the (n, m) rows ``a``."""
        coeffs = np.asarray(solution.coefficients, dtype=float).reshape(-1, 1)
        return matmul(a, coeffs)


class LadRegressionProblem(_LinearMapMixin, ProblemDefinition):
    """Plain least-absolute-deviations regression, one target column."""

    sense = "minimize"

    def solve_weighted(
        self, agg: AggregatedInstance, config: SolverConfig, prior=None
    ) -> RegressionSolution:
        return solve_weighted_lad(agg, None if prior is None else prior[0])


class SubsetSelectionProblem(_LinearMapMixin, ProblemDefinition):
    """LAD regression restricted to exactly p nonzero coefficients."""

    sense = "minimize"

    def __init__(self, m: int, p: int):
        if not 1 <= p <= m:
            raise ValueError(f"p={p} out of range for m={m}")
        self.p = p

    def solve_weighted(
        self, agg: AggregatedInstance, config: SolverConfig, prior=None
    ) -> SubsetSolution:
        return solve_subset_selection(agg, self.p, cap=config.subset_cap, prior=prior)


class SphereRegressionProblem(_LinearMapMixin, ProblemDefinition):
    """LAD regression with the coefficients confined to a Euclidean ball."""

    sense = "minimize"

    def __init__(self, radius: float):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = radius

    def solve_weighted(
        self, agg: AggregatedInstance, config: SolverConfig, prior=None
    ) -> SphereSolution:
        return solve_sphere_lad(agg, radius=self.radius, tol=config.sphere_tol)


class PcaProjectionProblem(ProblemDefinition):
    """L1-norm PCA maximizing projected deviation; target matrix is zero."""

    sense = "maximize"

    def __init__(self, p: int):
        if p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        self.p = p

    @property
    def q(self) -> int:
        return self.p

    def apply_f(self, solution: PcaSolution, a: np.ndarray) -> np.ndarray:
        """The (n, p) projections of the (n, m) rows ``a``."""
        return matmul(a, solution.components)

    def solve_weighted(
        self, agg: AggregatedInstance, config: SolverConfig, prior=None
    ) -> PcaSolution:
        return solve_weighted_l1pca(agg, self.p, cap=config.pca_cap)

    def bound_terms(
        self, a: np.ndarray, partition: ClusterPartition, previous: np.ndarray | None = None
    ) -> np.ndarray:
        return spread_bound_terms(a, partition, self.p, previous)

    def split_cluster(self, a: np.ndarray, cluster: np.ndarray):
        return principal_halves(a, cluster)

    def fits_budget(self, cluster_count: int, config: SolverConfig) -> bool:
        return enumeration_fits(cluster_count, self.p, config.pca_cap)

    def zero_target(self, n: int) -> DataMatrix:
        return DataMatrix(np.zeros((n, self.p)))
