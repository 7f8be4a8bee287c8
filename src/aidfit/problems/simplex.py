"""Dense one-phase dual simplex for bounded variables, from a basis of identity columns.

Solves ``min c @ x`` subject to ``a @ x == b`` and ``0 <= x <= upper``.
The start must be dual feasible: with the duals ``y`` of the start basis,
every column that has no upper bound must have a nonnegative reduced cost
``c_j - y @ a_j``. Each nonbasic column starts at the bound its reduced
cost prefers, its lower bound where that cost is nonnegative and its upper
bound where it is negative, so the start is optimal as soon as the basic
values it implies lie within their bounds. Start-basis columns with an
upper bound of zero are artificial: fixed at zero, they only need to leave.

Each iteration the basic variable furthest outside its bounds leaves to the
bound it violates, and the duals move along that row of the basis inverse.
The ratio test is the bound-flipping ("long-step") one of Maros (2003, "A
generalized dual phase-2 simplex algorithm"): the nonbasic columns whose
reduced costs the step drives through zero are taken in ascending ratio
order, ties to the lowest column index. A column whose bound flip, costing
``|alpha_j| * upper_j`` of the leaving row's infeasibility, still leaves some
of it is flipped to its other bound (counted in ``flips``); the first one
that cannot be passed enters the basis (an iteration, counted in
``pivots``). Flips are what make the method pay on boxed LPs: each one
would cost a full iteration without them.

x and the duals are read from the final basis by two linear solves, not
off the iteration path, so solves that end at the same basis return the
same bits, whatever their start.

Tolerances are absolute: an entry of magnitude at most ``PIVOT_TOL`` is not
a ratio-test candidate, and a basic value counts as within its bounds up
to ``PIVOT_TOL`` times the right-hand side's largest magnitude (plus one).
They suit data whose entries, costs and bounds are of order one.
``lad.weighted_lad_lp`` scales its columns, target and weights by powers of
two so that each one's largest magnitude lies in [1, 2), which makes both
tolerances relative to the scale of each column of the original data, and
scaling by powers of two rounds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "SimplexError", "CycleGuardError", "primal_simplex"]

PIVOT_TOL = 1e-9


class SimplexError(RuntimeError):
    """Base class for simplex failures."""


class CycleGuardError(SimplexError):
    """Iteration cap exceeded."""


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    objective: float
    duals: np.ndarray
    pivots: int
    flips: int


def primal_simplex(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: list[int],
    max_pivots: int | None = None,
    upper: np.ndarray | None = None,
) -> SimplexResult:
    """Minimize ``c @ x`` subject to ``a @ x == b``, ``0 <= x <= upper``.

    Despite its name this runs the dual simplex of the module docstring.
    ``basis`` must index columns forming the identity in order (basic
    variable of row i has coefficient 1 in row i, 0 elsewhere). ``upper``
    defaults to no bound. Raises ``ValueError`` when the start is not dual
    feasible, ``SimplexError`` when the LP has no feasible point, and
    ``CycleGuardError`` after ``max_pivots`` iterations.

    x and the duals y (with reduced costs ``c - a.T @ y`` nonnegative at a
    variable's lower bound and nonpositive at its upper bound, any sign for
    fixed variables) are computed from the final basis, its columns in
    ascending order, with one ``np.linalg.solve`` each, and x is clipped
    into its bounds. Solves that end at the same basis and bounds therefore
    return identical bits, whatever their start.
    """
    n_rows, n_cols = a.shape
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    basic = np.array(basis, dtype=np.int64)
    upper = np.full(n_cols, np.inf) if upper is None else np.array(upper, dtype=float)
    if np.any(upper < 0):
        raise ValueError("upper bounds must be nonnegative")
    # the start basis is the identity, so its duals are its costs
    at_upper = c - c[basic] @ a < 0
    at_upper[basic] = False
    if np.any(at_upper & np.isinf(upper)):
        raise ValueError("the start is not dual feasible: an unbounded column has a negative reduced cost")
    movable = upper > 0
    if max_pivots is None:
        max_pivots = max(20_000, 200 * (n_rows + n_cols))
    tol = PIVOT_TOL * (1.0 + np.abs(b).max(initial=0.0))

    inverse = np.eye(n_rows)
    pivots = flips = 0
    while True:
        values = inverse @ (b - a @ np.where(at_upper, upper, 0.0))
        below, above = -values, values - upper[basic]
        row = int(np.maximum(below, above).argmax())
        infeasibility = max(below[row], above[row])
        if infeasibility <= tol:
            break
        if pivots >= max_pivots:
            raise CycleGuardError(f"exceeded {max_pivots} iterations")

        # the leaving variable moves to the bound it violates; the reduced
        # cost of column j then moves at rate -alpha[j], and the columns it
        # drives towards zero, from either bound, are the candidates
        leaving = int(basic[row])
        direction = 1.0 if below[row] > above[row] else -1.0
        alpha = direction * (inverse[row] @ a)
        sense = np.where(at_upper, -1.0, 1.0)
        eligible = movable & (sense * alpha < -PIVOT_TOL)
        eligible[basic] = False
        candidates = np.flatnonzero(eligible)
        reduced = c - c[basic] @ inverse @ a
        ratio = np.maximum(sense[candidates] * reduced[candidates], 0.0) / np.abs(alpha[candidates])
        order = candidates[np.argsort(ratio, kind="stable")]
        # pass each breakpoint whose flip leaves the slope positive
        passed = int(np.searchsorted(np.cumsum(np.abs(alpha[order]) * upper[order]), infeasibility))
        if passed == order.size:
            raise SimplexError("no feasible point (the dual is unbounded)")
        entering = int(order[passed])
        at_upper[order[:passed]] ^= True
        flips += passed

        column = inverse @ a[:, entering]
        pivot_row = inverse[row] / column[row]
        inverse -= np.outer(column, pivot_row)
        inverse[row] = pivot_row
        at_upper[leaving] = direction < 0
        at_upper[entering] = False
        basic[row] = entering
        pivots += 1

    x = np.where(at_upper, upper, 0.0)
    order = np.sort(basic)
    square = a[:, order]
    x[order] = np.linalg.solve(square, b - a @ x)
    x = np.clip(x, 0.0, upper)
    return SimplexResult(
        x=x,
        objective=float(c @ x),
        duals=np.linalg.solve(square.T, c[order]),
        pivots=pivots,
        flips=flips,
    )
