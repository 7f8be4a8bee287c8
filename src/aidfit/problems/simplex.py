"""Dense bounded-variable primal simplex from a basis of identity columns.

Solves ``min c @ x`` subject to ``a @ x == b`` and ``0 <= x <= upper``.
Every nonbasic variable sits at one of its bounds. An improving variable
either moves to its other bound, a *bound flip* that only shifts the basic
values (O(rows) work, counted in ``flips``), or enters the basis by a
*pivot* that updates the rows x (cols + 1) tableau (counted in ``pivots``).

A solve starts from a bound pattern: each nonbasic column at its lower
bound or, where ``at_upper`` says so, at its upper bound. Start-basis
columns with an upper bound of zero are artificial and take up the rest of
the right-hand side; a row whose starting value is negative is negated,
its artificial kept at +1, so every artificial starts nonnegative, and the
row's dual is negated back at the end. A first phase minimizes the sum of
the artificials; once they are zero they are fixed there and never priced
again, and the second phase minimizes ``c @ x``.

x and the duals are read from the final basis by two linear solves, not
off the pivot path, so solves that end at the same basis return the same
bits, whatever bound pattern they started from.

Pricing is Dantzig's rule: the largest reduced-cost violation enters, ties
to the lowest column index. After ``STALL_PIVOTS`` degenerate pivots in a
row it hands over to Bland's rule (lowest eligible column in, lowest basic
variable among the minimum-ratio rows out), which cannot cycle, until a
step makes progress again. Leaving-row ties always go to the lowest basic
variable, so the optimal basis is deterministic.

Tolerances are absolute: an entry of magnitude at most ``PIVOT_TOL`` is not
a pivot candidate, and a reduced cost must exceed ``REDUCED_COST_TOL`` to
improve. They suit data whose entries, costs and bounds are of order one.
``lad.weighted_lad_lp`` scales its columns, target and weights by powers of
two so that each one's largest magnitude lies in [1, 2), which makes both
tolerances relative to the scale of each column of the original data, and
scaling by powers of two rounds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "SimplexError", "UnboundedError", "CycleGuardError", "primal_simplex"]

REDUCED_COST_TOL = 1e-9
PIVOT_TOL = 1e-9
# degenerate pivots in a row before pricing falls back to Bland's rule
STALL_PIVOTS = 10


class SimplexError(RuntimeError):
    """Base class for simplex failures."""


class UnboundedError(SimplexError):
    """No leaving row or bound limits an improving column."""


class CycleGuardError(SimplexError):
    """Iteration cap exceeded, which the Bland fallback should make impossible."""


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
    at_upper: np.ndarray | None = None,
) -> SimplexResult:
    """Minimize ``c @ x`` subject to ``a @ x == b``, ``0 <= x <= upper``.

    ``basis`` must index columns forming the identity in order (basic
    variable of row i has coefficient 1 in row i, 0 elsewhere). ``upper``
    defaults to no bound. Every other column starts at its lower bound, or
    at its upper bound where the boolean mask ``at_upper`` is set and that
    bound is finite. A start-basis column whose upper bound is zero is
    artificial: any starting value is allowed in its row, which is negated
    when that value is negative. Every other basic value the start implies
    must lie within its bounds. ``max_pivots`` caps pivots plus bound
    flips.

    x and the duals y (with reduced costs ``c - a.T @ y`` nonnegative at a
    variable's lower bound and nonpositive at its upper bound, any sign for
    fixed variables) are computed from the final basis, its columns in
    ascending order, with one ``np.linalg.solve`` each, and x is clipped
    into its bounds. Solves that end at the same basis and bounds therefore
    return identical bits, whatever their start.
    """
    n_rows, n_cols = a.shape
    b = np.asarray(b, dtype=float)
    initial = np.array(basis, dtype=np.int64)
    upper = np.full(n_cols, np.inf) if upper is None else np.array(upper, dtype=float)
    if np.any(upper < 0):
        raise ValueError("upper bounds must be nonnegative")
    artificial = upper[initial] == 0.0
    # +1 nonbasic at its lower bound, -1 nonbasic at its upper bound, 0 basic
    # or fixed: the direction in which the variable may move
    sense = (upper > 0.0).astype(float)
    sense[initial] = 0.0
    if at_upper is not None:
        sense[np.asarray(at_upper, dtype=bool) & (sense > 0.0) & np.isfinite(upper)] = -1.0
    values = b - a @ np.where(sense < 0, upper, 0.0)
    if np.any((values[~artificial] < 0) | (values[~artificial] > upper[initial[~artificial]])):
        raise ValueError("a starting basic value lies outside its bounds")
    # negate the rows whose artificial would start negative, keeping the
    # start-basis columns, so each artificial stays at +1
    rho = np.where(artificial & (values < 0), -1.0, 1.0)
    identity = a[:, initial]
    a = a * rho[:, None]
    a[:, initial] = identity
    b, values = b * rho, values * rho
    if max_pivots is None:
        max_pivots = max(20_000, 200 * (n_rows + n_cols))

    # constraint rows, then the reduced-cost row, so one update pivots both
    tableau = np.vstack([a, np.zeros(n_cols)])
    zrow = tableau[n_rows]
    phase_one = bool(artificial.any())
    phase_cost = np.zeros(n_cols)
    phase_cost[initial[artificial]] = 1.0
    cost = phase_cost if phase_one else c
    zrow[:] = cost - cost[initial] @ tableau[:n_rows]

    # the ratio test walks the rows in Python: there are few of them (one
    # per coefficient in the LAD dual), and per-row numpy calls cost more
    tol = PIVOT_TOL * (1.0 + float(values.sum()))
    bounds = upper.tolist()
    values = values.tolist()
    basic = initial.tolist()
    # bound on each basic value; artificials are unbounded in phase one
    caps = [np.inf if art else bounds[j] for j, art in zip(basic, artificial.tolist())]

    pivots = flips = stalled = 0
    while True:
        score = sense * zrow
        if stalled >= STALL_PIVOTS:
            eligible = np.flatnonzero(score < -REDUCED_COST_TOL)
            entering = int(eligible[0]) if eligible.size else -1
        else:
            entering = int(score.argmin()) if n_cols else -1
            if entering >= 0 and score[entering] >= -REDUCED_COST_TOL:
                entering = -1
        if entering < 0:
            if not phase_one:
                break
            infeasibility = sum(v for v, j in zip(values, basic) if bounds[j] == 0.0)
            if infeasibility > tol:
                raise SimplexError(f"no feasible point (phase one ends at {infeasibility:.3e})")
            phase_one = False
            caps = [bounds[j] for j in basic]
            stalled = 0
            zrow[:] = c - c[basic] @ tableau[:n_rows]
            continue
        if pivots + flips >= max_pivots:
            raise CycleGuardError(f"exceeded {max_pivots} pivots and flips")

        # moving the entering variable by t in ``direction`` moves basic value
        # i by -t * alpha[i]; each row limits t by the bound it runs into
        direction = float(sense[entering])
        alpha = (direction * tableau[:n_rows, entering]).tolist()
        step, row = np.inf, -1
        for i, rate in enumerate(alpha):
            if rate > PIVOT_TOL:
                limit = max(values[i], 0.0) / rate
            elif rate < -PIVOT_TOL and caps[i] != np.inf:
                limit = max(caps[i] - values[i], 0.0) / -rate
            else:
                continue
            if limit < step or (limit == step and basic[i] < basic[row]):
                step, row = limit, i
        bound = bounds[entering]
        if bound <= step:
            if bound == np.inf:
                raise UnboundedError("objective unbounded below (no limiting row or bound)")
            flips += 1
            values = [v - bound * rate for v, rate in zip(values, alpha)]
            sense[entering] = -direction
            stalled = 0
            continue

        pivots += 1
        stalled = stalled + 1 if step <= PIVOT_TOL else 0
        leaving = basic[row]
        values = [v - step * rate for v, rate in zip(values, alpha)]
        values[row] = step if direction > 0 else bound - step
        if bounds[leaving] == 0.0:
            sense[leaving] = 0.0
        else:
            sense[leaving] = -1.0 if alpha[row] < 0 else 1.0
        sense[entering] = 0.0
        basic[row] = entering
        caps[row] = bound

        pivot_row = tableau[row] / tableau[row, entering]
        tableau -= tableau[:, entering, None] * pivot_row
        tableau[row] = pivot_row

    x = np.where(sense < 0, upper, 0.0)
    order = sorted(basic)
    square = a[:, order]
    x[order] = np.linalg.solve(square, b - a @ x)
    x = np.clip(x, 0.0, upper)
    return SimplexResult(
        x=x,
        objective=float(c @ x),
        duals=rho * np.linalg.solve(square.T, c[order]),
        pivots=pivots,
        flips=flips,
    )
