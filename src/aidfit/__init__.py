"""Exact L1-norm error fitting through aggregation with iterative refinement.

The package solves least-absolute-deviations regression (plain, best-subset,
and ball-constrained) and projected-deviation L1 PCA by repeatedly solving a
small weighted problem on cluster means, certifying via residual-sign
agreement (minimize sense) or a sound upper bound (maximize sense), and
splitting clusters until the certificate holds.
"""

__version__ = "0.1.0"

from .core import (
    AidConfig,
    AidReport,
    AggregatedInstance,
    ClusterPartition,
    ProblemDefinition,
    aggregate,
    check_optimality,
    decluster,
    optimality_gap,
    residual_signs,
    run_aid,
)
from .linalg import DataMatrix, matmul, symmetric_eigen

__all__ = [
    "__version__",
    "DataMatrix",
    "matmul",
    "symmetric_eigen",
    "ClusterPartition",
    "AggregatedInstance",
    "AidConfig",
    "ProblemDefinition",
    "AidReport",
    "aggregate",
    "residual_signs",
    "check_optimality",
    "decluster",
    "optimality_gap",
    "run_aid",
]
