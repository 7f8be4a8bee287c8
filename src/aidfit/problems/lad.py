"""Exact weighted least-absolute-deviations regression and subset selection.

The regression min sum_i w_i |b_i - a_i @ x| is solved through its dual,

    max b @ d  subject to  A^T d = 0,  |d_i| <= w_i,

one equality row per coefficient and one boxed variable per data row, in
the style of Barrodale and Roberts (1973). Writing d_i = sigma_i (w_i - z_i)
with sigma_i the sign of b_i and z_i in [0, 2 w_i] makes z = 0 the dual of
the fit x = 0, and the dual becomes the bounded LP

    min sum_i |b_i| z_i  subject to  (sigma * A)^T z = sum_i sigma_i w_i a_i.

It is solved by ``simplex.primal_simplex`` from a basis of one artificial
column per row, so a pivot touches about m x (k + m) cells for k data rows
and m coefficients. The coefficients are the row multipliers, solved from
the final basis like z itself, so the result depends on that basis only.

Every solve starts from the residual signs of a fit: d_i = w_i sign(r_i),
a corner of the box, with a zero residual counting as the sign of b_i. A
cold solve uses the fit x = 0, which puts every z_i at zero. A warm solve
uses the previous optimum's coefficients, whose signs already agree on
most rows, so phases one and two take fewer steps from there.

Before the solve every column of A, the target and the weights are scaled
by powers of two so that each one's largest magnitude lies in [1, 2); this
is exact, fixes the simplex tolerances relative to each column's scale,
and is undone on x and d. Linear constraints g @ x <= limit, the ball's
tangent cuts in ``sphere``, each add one dual column g with cost ``limit``
and no upper bound.

Subset selection enumerates every support of the requested size and solves
the restricted regression exactly for each support that a previous solve's
bounds cannot rule out, each from its own last fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from ..core import AggregatedInstance, LowerBoundViolationError, SolverConfig, bound_slack
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
    solve, which bounds it from below. ``fits`` holds, in the same order,
    the p coefficients of each support this solve computed, and None for
    the others.
    """

    support: tuple[int, ...]
    coefficients: np.ndarray
    objective: float
    support_bounds: np.ndarray
    fits: tuple[np.ndarray | None, ...]


def _unit_exponents(values: np.ndarray) -> np.ndarray:
    """Per column, the power of two that brings its largest magnitude into
    [1, 2); zero for an all-zero column."""
    peak = np.abs(values).max(axis=0, initial=0.0)
    _, exponent = np.frexp(peak)
    return np.where(peak > 0.0, 1 - exponent, 0)


def _lad_exponents(b: np.ndarray, a: np.ndarray, weights: np.ndarray) -> tuple:
    """The scaling exponents of each column of ``a``, of ``b`` and of ``weights``."""
    return _unit_exponents(a), int(_unit_exponents(b)), int(_unit_exponents(weights))


def weighted_lad_lp(
    b: np.ndarray,
    a: np.ndarray,
    weights: np.ndarray,
    cuts: np.ndarray | None = None,
    limit: float = 0.0,
    start: np.ndarray | None = None,
    *,
    _exponents: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimize ``sum_i w_i |b_i - a_i @ x|`` exactly, subject to
    ``g @ x <= limit`` for each row g of ``cuts``.

    Returns the coefficient vector, the dual vector d (|d_i| <= w_i; without
    cuts ``a.T @ d == 0`` and ``b @ d`` equals the optimum, with cuts
    ``a.T @ d`` is a nonnegative combination of them), and the objective
    recomputed on the data as given.

    ``start`` is a coefficient vector whose residual signs give the LP's
    starting bound pattern (see the module docstring); x = 0 when omitted.
    ``_exponents`` is ``_lad_exponents(b, a, weights)`` when a caller that
    solves many LPs over columns of one matrix has computed it already.
    """
    n, m = a.shape
    if b.shape != (n,):
        raise ValueError(f"target must have shape ({n},), got {b.shape}")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")

    col_exp, b_exp, w_exp = _exponents or _lad_exponents(b, a, weights)
    a_s = np.ldexp(a, col_exp)
    b_s = np.ldexp(b, b_exp)
    w_s = np.ldexp(np.asarray(weights, dtype=float), w_exp)

    # d = sigma (w - z) with z in [0, 2w]; z = 0 is the dual of the fit x = 0
    sigma = np.where(b_s < 0, -1.0, 1.0)
    signed = a_s * sigma[:, None]
    # a cut g @ x <= limit reads g @ x_s <= limit in the scaled coefficients
    g = np.empty((0, m)) if cuts is None else np.ldexp(cuts, col_exp - b_exp)
    matrix = np.hstack([signed.T, np.eye(m), g.T])
    cost = np.concatenate([np.abs(b_s), np.zeros(m), np.full(len(g), limit)])
    upper = np.concatenate([2.0 * w_s, np.zeros(m), np.full(len(g), np.inf)])
    at_upper = np.zeros(upper.size, dtype=bool)
    if start is not None:
        # d_i = -sigma_i w_i, z_i = 2 w_i, where the residual opposes sigma_i
        at_upper[:n] = sigma * (b_s - a_s @ np.ldexp(start, b_exp - col_exp)) < 0
    result = primal_simplex(
        matrix, w_s @ signed, cost, list(range(n, n + m)), upper=upper, at_upper=at_upper
    )

    # the row multipliers are the scaled coefficients
    x = np.ldexp(result.duals, col_exp - b_exp)
    duals = np.ldexp(sigma * (w_s - result.x[:n]), -w_exp)
    objective = float(weights @ np.abs(b - a @ x))
    return x, duals, objective


def solve_weighted_lad(
    agg: AggregatedInstance, prior: RegressionSolution | None = None
) -> RegressionSolution:
    """Globally optimal weighted LAD coefficients for an aggregated instance.

    ``prior``, a solution on another partition of the same data, starts the
    LP from its coefficients' residual signs.
    """
    if agg.B_agg.shape[1] != 1:
        raise ValueError("weighted LAD expects a single target column")
    start = None if prior is None else prior.coefficients
    x, _, objective = weighted_lad_lp(agg.B_agg[:, 0], agg.A_agg, agg.weights, start=start)
    return RegressionSolution(coefficients=x, objective=objective)


def solve_subset_selection(
    agg: AggregatedInstance,
    p: int,
    cap: int = SolverConfig.subset_cap,
    prior: tuple[SubsetSolution, float] | None = None,
) -> SubsetSolution:
    """Exact best-subset LAD: try every support of size p, keep the best.

    Supports are scanned in lexicographic order. The best is the first
    support whose objective lies within ``bound_slack`` (taken with the
    aggregated target's magnitude as scale) of the smallest, so ties, and
    near-ties that rounding cannot separate, resolve to the
    lexicographically smallest support.

    ``prior`` is ``(previous, incumbent)``: the solution on a partition that
    ``agg``'s partition refines, and the full-data objective of some fit
    with p nonzeros. A support whose value in ``previous.support_bounds``
    exceeds the incumbent by more than ``bound_slack`` is skipped and keeps
    that value. This is exact: splitting a cluster never lowers a support's
    aggregated optimum (triangle inequality per cluster), so the skipped
    support's optimum here still exceeds the incumbent, which is at least
    the full optimum, which is at least the best support's aggregated
    optimum, by more than the tie allowance. A skipped support can neither
    win nor tie, so the result is the unpruned solve's support. Each
    solved support whose fit ``previous`` carries starts its LP from that
    fit's residual signs.
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
    scale = float(agg.weights @ np.abs(b))
    carried = [None] * n_supports
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
        skip = bounds > incumbent + bound_slack(incumbent, bounds, scale)
        carried = previous.fits
    if skip.all():
        raise LowerBoundViolationError(
            f"incumbent {prior[1]} lies below every support's aggregated bound"
        )

    supports = list(combinations(range(m), p))
    fits = [None] * n_supports
    solved = np.flatnonzero(~skip)
    # a column's exponent does not depend on the support it sits in
    col_exp, b_exp, w_exp = _lad_exponents(b, a, agg.weights)
    for i in solved.tolist():
        cols = list(supports[i])
        fits[i], _, bounds[i] = weighted_lad_lp(
            b, a[:, cols], agg.weights, start=carried[i],
            _exponents=(col_exp[cols], b_exp, w_exp),
        )
    low = bounds[solved].min()
    best = int(solved[np.argmax(bounds[solved] <= low + bound_slack(bounds[solved], low, scale))])
    x_full = np.zeros(m)
    x_full[list(supports[best])] = fits[best]
    return SubsetSolution(
        support=supports[best],
        coefficients=x_full,
        objective=float(bounds[best]),
        support_bounds=bounds,
        fits=tuple(fits),
    )
