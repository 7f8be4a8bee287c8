"""Exact weighted least-absolute-deviations regression and subset selection.

The regression is solved as a linear program over split variables (positive
and negative parts of the coefficients and of the per-row residuals), which
always admits a starting basis of residual columns, so no phase-1 is needed.
Subset selection enumerates every support of the requested size and solves
the restricted regression exactly for each support that a previous solve's
bounds cannot rule out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from ..core import AggregatedInstance, LowerBoundViolationError, bound_slack
from .simplex import primal_simplex

__all__ = [
    "RegressionSolution",
    "SubsetSolution",
    "InstanceTooLargeError",
    "weighted_lad_lp",
    "solve_weighted_lad",
    "solve_subset_selection",
]


class InstanceTooLargeError(RuntimeError):
    """An enumeration budget would be exceeded."""


@dataclass(frozen=True)
class RegressionSolution:
    coefficients: np.ndarray
    objective: float


@dataclass(frozen=True)
class SubsetSolution:
    """The best support and its fit.

    ``support_bounds`` holds one value per support of size p, in
    ``itertools.combinations`` order: the support's aggregated optimum
    where this solve computed it, else the value carried from an earlier
    solve, which bounds it from below.
    """

    support: tuple[int, ...]
    coefficients: np.ndarray
    objective: float
    support_bounds: np.ndarray


def weighted_lad_lp(
    b: np.ndarray, a: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimize ``sum_i w_i |b_i - a_i @ x|`` exactly.

    Returns the coefficient vector, the duals of the residual constraints
    (oriented for the rows as given), and the recomputed objective.
    """
    n, m = a.shape
    if b.shape != (n,):
        raise ValueError(f"target must have shape ({n},), got {b.shape}")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")

    # columns: x+ (m), x- (m), e+ (n), e- (n)
    flip = np.where(b < 0, -1.0, 1.0)
    a_eq = np.zeros((n, 2 * m + 2 * n))
    a_eq[:, :m] = a * flip[:, None]
    a_eq[:, m : 2 * m] = -a * flip[:, None]
    a_eq[np.arange(n), 2 * m + np.arange(n)] = -flip
    a_eq[np.arange(n), 2 * m + n + np.arange(n)] = flip
    rhs = b * flip

    cost = np.zeros(2 * m + 2 * n)
    cost[2 * m :] = np.concatenate([weights, weights])

    basis = [2 * m + n + i if flip[i] > 0 else 2 * m + i for i in range(n)]
    result = primal_simplex(a_eq, rhs, cost, basis)

    x = result.x[:m] - result.x[m : 2 * m]
    objective = float(weights @ np.abs(b - a @ x))
    duals = result.duals * flip
    return x, duals, objective


def solve_weighted_lad(agg: AggregatedInstance) -> RegressionSolution:
    """Globally optimal weighted LAD coefficients for an aggregated instance."""
    if agg.B_agg.shape[1] != 1:
        raise ValueError("weighted LAD expects a single target column")
    x, _, objective = weighted_lad_lp(agg.B_agg[:, 0], agg.A_agg, agg.weights)
    return RegressionSolution(coefficients=x, objective=objective)


def solve_subset_selection(
    agg: AggregatedInstance,
    p: int,
    cap: int = 10**6,
    prior: tuple[SubsetSolution, float] | None = None,
) -> SubsetSolution:
    """Exact best-subset LAD: try every support of size p, keep the best.

    Supports are scanned in lexicographic order and only strict objective
    improvements replace the best so far, so equal-objective ties resolve to
    the lexicographically smallest support.

    ``prior`` is ``(previous, incumbent)``: the solution on a partition that
    ``agg``'s partition refines, and the full-data objective of some fit
    with p nonzeros. A support whose value in ``previous.support_bounds``
    exceeds the incumbent by more than ``bound_slack`` (taken with the
    aggregated target's magnitude as scale) is skipped and keeps that value.
    This is exact: splitting a cluster never lowers a support's aggregated
    optimum (triangle inequality per cluster), so the skipped support's
    optimum here still exceeds the incumbent, which is at least the full
    optimum, which is at least the best support's aggregated optimum. A
    skipped support can neither win nor tie, so the result equals the
    unpruned solve's.
    """
    m = agg.A_agg.shape[1]
    if not 1 <= p <= m:
        raise ValueError(f"subset size p={p} must be in [1, {m}]")
    n_supports = comb(m, p)
    if n_supports > cap:
        raise InstanceTooLargeError(
            f"{n_supports} supports exceed the enumeration cap {cap}"
        )

    b = agg.B_agg[:, 0]
    a = agg.A_agg
    if prior is None:
        bounds = np.full(n_supports, -np.inf)
        skip = np.zeros(n_supports, dtype=bool)
    else:
        previous, incumbent = prior
        if previous.support_bounds.shape != (n_supports,):
            raise ValueError(
                f"prior carries {previous.support_bounds.size} bounds, not {n_supports}"
            )
        bounds = previous.support_bounds.copy()
        scale = float(agg.weights @ np.abs(b))
        skip = bounds > incumbent + bound_slack(incumbent, bounds, scale)

    best = None
    for i, support in enumerate(combinations(range(m), p)):
        if skip[i]:
            continue
        x_sub, _, objective = weighted_lad_lp(b, a[:, list(support)], agg.weights)
        bounds[i] = objective
        if best is None or objective < best[0]:
            best = (objective, support, x_sub)
    if best is None:
        raise LowerBoundViolationError(
            f"incumbent {prior[1]} lies below every support's aggregated bound"
        )
    objective, support, x_sub = best
    x_full = np.zeros(m)
    x_full[list(support)] = x_sub
    return SubsetSolution(
        support=support, coefficients=x_full, objective=objective, support_bounds=bounds
    )
