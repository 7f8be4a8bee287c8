"""Exact weighted least-absolute-deviations regression and subset selection.

The regression min sum_i w_i |b_i - a_i @ x| is solved through its dual,

    max b @ d  subject to  A^T d = 0,  |d_i| <= w_i,

one equality row per coefficient and one boxed variable per data row, in
the style of Barrodale and Roberts (1973). Writing d_i = sigma_i (w_i - z_i)
with sigma_i the sign of b_i and z_i in [0, 2 w_i] makes z = 0 the dual of
the fit x = 0, and the dual becomes the bounded LP

    min sum_i |b_i| z_i  subject to  (sigma * A)^T z = sum_i sigma_i w_i a_i.

It is solved by the dual simplex of ``simplex.primal_simplex`` from a
basis of one artificial column per row, so an iteration reads one row of
B^-1 A, about m x (k + m) cells, for k data rows and m coefficients. The
coefficients are the row multipliers, solved from the final basis like z
itself, so the result depends on that basis only.

Every solve starts from a fit x0: the artificials' cost is x0, which makes
x0 the start basis's row multipliers, and row i's reduced cost
sigma_i (b_i - a_i @ x0), sigma_i times its residual. The start is then
dual feasible at the corner d_i = w_i sign(r_i) of the box, a zero
residual counting as the sign of b_i. A cold solve uses the fit x0 = 0,
which puts every z_i at zero. A warm solve uses the previous optimum's
coefficients, whose signs already agree on most rows, so fewer iterations
remain from there.

Before the solve every column of A, the target and the weights are scaled
by powers of two so that each one's largest magnitude lies in [1, 2); this
is exact, fixes the simplex tolerances relative to each column's scale,
and is undone on x and d. Linear constraints g @ x <= limit, the ball's
tangent cuts in ``sphere``, each add one dual column g with cost ``limit``
and no upper bound.

One builder, ``_lad_lps``, sets this LP up for a stack of column supports,
solves it and undoes the scaling; ``weighted_lad_lp`` is that builder on
the one support of every column. Subset selection enumerates every support
of the requested size and hands the builder, in one call, each support that
a previous solve's bounds cannot rule out, each from its own last fit. The
builder picks the kernel: ``simplex.lockstep_dual_simplex`` for a stack of
at least ``STACK_MIN_LPS`` LPs of at most ``STACK_MAX_COLUMNS`` columns,
else one ``simplex.primal_simplex`` call per LP. Both return the bits of
separate solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from ..core import AggregatedInstance, LowerBoundViolationError, bound_slack
from .simplex import lockstep_dual_simplex, primal_simplex

__all__ = [
    "RegressionSolution",
    "SubsetSolution",
    "InstanceTooLargeError",
    "SUBSET_CAP",
    "weighted_lad_lp",
    "solve_weighted_lad",
    "solve_subset_selection",
]


# The stack pays numpy's per-call cost once per step for all its LPs, but a
# step makes more numpy calls than a ``primal_simplex`` step, and its ratio
# test sorts all of an LP's columns where ``primal_simplex`` sorts only the
# candidates. Timed on m = 6, p = 2 supports (2-core host, one BLAS
# thread), it was faster for 5 or more LPs of up to 256 columns, and slower
# for 2 LPs at any width and for 15 LPs past about 1,000 columns (1.7x at
# 5,000, where the sort is 43 % of its time). One LP of 22-169 columns, as
# the lad-tall and subset-paper pools solve singly, takes it 2.3x as long,
# with the sort 2 % of that: the minimum answers the extra calls per step,
# the width limit the sort.
STACK_MIN_LPS = 5
STACK_MAX_COLUMNS = 256
SUBSET_CAP = 10**6  # default budget of ``solve_subset_selection``: supports per solve


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


def _lad_lps(
    b: np.ndarray,
    a: np.ndarray,
    weights: np.ndarray,
    supports: np.ndarray | None,
    starts: list,
    cuts: np.ndarray | None = None,
    limit: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``weighted_lad_lp`` on the columns of each row of ``supports``, from
    the matching entry of ``starts`` (None for x = 0), run on the kernel
    the module docstring names. Returns the (S, p) fits, the (S, n) duals
    and the S objectives.

    ``supports`` is an (S, p) array of column indices, or None for the one
    LP on every column: None indexes as ``np.newaxis``, so that LP reads
    ``a`` through views, and a support's rows of ``a.T[supports]`` are laid
    out as ``a[:, support]``'s columns are. So each product is the BLAS call
    a lone LP makes on the same operand, and each LP returns the bits of
    its own ``weighted_lad_lp`` call.
    """
    n = len(b)
    # the power of two that brings the largest magnitude of each column, of
    # the target and of the weights into [1, 2): 1 - e for a peak of
    # mantissa times 2^e, zero for an all-zero one, where frexp gives e = 0
    peak = np.abs(np.concatenate([a.T, [b, weights]])).max(axis=1, initial=0.0)
    exponent = (peak > 0.0) - np.frexp(peak)[1]
    col_exp, (b_exp, w_exp) = exponent[:-2], exponent[-2:].tolist()
    b_s = np.ldexp(b, b_exp)
    w_s = np.ldexp(np.asarray(weights, dtype=float), w_exp)
    # d = sigma (w - z) with z in [0, 2w]; z = 0 is the dual of the fit x = 0
    sigma = np.where(b_s < 0, -1.0, 1.0)
    columns = (np.ldexp(a, col_exp) * sigma[:, None]).T[supports]
    n_lps, p, _ = columns.shape
    # x = 2^shift x_s for the scaled coefficients x_s, which are the row
    # multipliers; a cut g @ x <= limit reads (2^shift g) @ x_s <= limit
    shift = col_exp[supports] - b_exp
    width = n + p + (0 if cuts is None else len(cuts))
    matrix = np.empty((n_lps, p, width))
    matrix[..., :n] = columns
    matrix[..., n : n + p] = np.eye(p)
    if cuts is not None:
        matrix[..., n + p :] = np.ldexp(cuts.T[supports], shift[..., None])
    # the artificials' cost is the scaled start fit, the duals of the start
    # basis, so row i's reduced cost is sigma_i times its residual
    cost = np.empty((n_lps, width))
    cost[:, :n] = np.abs(b_s)
    for s, start in enumerate(starts):
        cost[s, n : n + p] = 0.0 if start is None else np.ldexp(start, -shift[s])
    cost[:, n + p :] = limit
    upper = np.zeros(width)
    upper[:n] = 2.0 * w_s
    upper[n + p :] = np.inf
    rhs = w_s @ columns.transpose(0, 2, 1)
    basis = list(range(n, n + p))
    if n_lps >= STACK_MIN_LPS and width <= STACK_MAX_COLUMNS:
        results = lockstep_dual_simplex(matrix, rhs, cost, basis, upper=upper)
    else:
        results = [primal_simplex(matrix[s], rhs[s], cost[s], basis, upper=upper) for s in range(n_lps)]

    x = np.ldexp([r.duals for r in results], shift)
    duals = np.ldexp(sigma * (w_s - np.array([r.x[:n] for r in results])), -w_exp)
    residual = b - (a.T[supports].transpose(0, 2, 1) @ x[..., None])[..., 0]
    return x, duals, (weights @ np.abs(residual)[..., None])[..., 0]


def weighted_lad_lp(
    b: np.ndarray,
    a: np.ndarray,
    weights: np.ndarray,
    cuts: np.ndarray | None = None,
    limit: float = 0.0,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimize ``sum_i w_i |b_i - a_i @ x|`` exactly, subject to
    ``g @ x <= limit`` for each row g of ``cuts``.

    Returns the coefficient vector, the dual vector d (|d_i| <= w_i; without
    cuts ``a.T @ d == 0`` and ``b @ d`` equals the optimum, with cuts
    ``a.T @ d`` is a nonnegative combination of them), and the objective
    recomputed on the data as given.

    ``start`` is the coefficient vector the LP starts from, its residual
    signs giving the starting bound pattern (see the module docstring);
    x = 0 when omitted.
    """
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"target must have shape ({n},), got {b.shape}")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    x, duals, objective = _lad_lps(b, a, weights, None, [start], cuts, limit)
    return x[0], duals[0], float(objective[0])


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
    cap: int = SUBSET_CAP,
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
    solved = np.flatnonzero(~skip)
    x, _, bounds[solved] = _lad_lps(
        b, a, agg.weights, np.array(supports)[solved], [carried[i] for i in solved]
    )
    fits = [None] * n_supports
    for i, fit in zip(solved.tolist(), x):
        fits[i] = fit
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
