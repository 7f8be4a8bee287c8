"""Exact solvers for the supported L1 fitting problems."""

from .definitions import (
    LadRegressionProblem,
    PcaProjectionProblem,
    SphereRegressionProblem,
    SubsetSelectionProblem,
)
from .hyperplane import DegenerateColumnError, HyperplaneFit, solve_best_fit_hyperplane
from .lad import (
    SUBSET_CAP,
    InstanceTooLargeError,
    RegressionSolution,
    SubsetSolution,
    solve_subset_selection,
    solve_weighted_lad,
    weighted_lad_lp,
)
from .pca import (
    PCA_CAP,
    PcaSolution,
    solve_l1pca_exact,
    solve_weighted_l1pca,
    weighted_to_unweighted_pca,
)
from .simplex import CycleGuardError, SimplexError, primal_simplex
from .sphere import SPHERE_TOL, SphereNotConvergedError, SphereSolution, solve_sphere_lad

__all__ = [
    "LadRegressionProblem",
    "SubsetSelectionProblem",
    "SphereRegressionProblem",
    "PcaProjectionProblem",
    "SUBSET_CAP",
    "SPHERE_TOL",
    "PCA_CAP",
    "RegressionSolution",
    "SubsetSolution",
    "SphereSolution",
    "PcaSolution",
    "HyperplaneFit",
    "solve_weighted_lad",
    "solve_subset_selection",
    "solve_sphere_lad",
    "solve_l1pca_exact",
    "solve_weighted_l1pca",
    "weighted_to_unweighted_pca",
    "solve_best_fit_hyperplane",
    "weighted_lad_lp",
    "primal_simplex",
    "InstanceTooLargeError",
    "SphereNotConvergedError",
    "DegenerateColumnError",
    "SimplexError",
    "CycleGuardError",
]
