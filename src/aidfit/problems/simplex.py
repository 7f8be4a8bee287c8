"""Dense bounded-variable primal simplex from a basis of identity columns.

Solves ``min c @ x`` subject to ``a @ x == b`` and ``0 <= x <= upper``.
Every nonbasic variable sits at one of its bounds. An improving variable
either moves to its other bound, a *bound flip* that only shifts the basic
values (O(rows) work, counted in ``flips``), or enters the basis by a
*pivot* that updates the rows x (cols + 1) tableau (counted in ``pivots``).

Start-basis columns with an upper bound of zero are artificial. A first
phase minimizes their sum; once they are zero they are fixed there and
never priced again, and the second phase minimizes ``c @ x``. A warm start
skips the first phase: given values that satisfy the equalities, a crash
pivots the ones strictly inside their bounds into the artificials' rows,
pushing those that depend on the columns already in to a bound, and the
second phase starts from that basis.

x and the duals are read from the final basis by two linear solves, not
off the pivot path, so a warm and a cold solve that end at the same basis
return the same bits.

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
    basis: tuple[int, ...]
    duals: np.ndarray
    pivots: int
    flips: int
    # steps that installed ``start`` before the simplex proper
    crash: int = 0


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    tableau -= tableau[:, col, None] * pivot_row
    tableau[row] = pivot_row


def primal_simplex(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: list[int],
    max_pivots: int | None = None,
    upper: np.ndarray | None = None,
    start: np.ndarray | None = None,
) -> SimplexResult:
    """Minimize ``c @ x`` subject to ``a @ x == b``, ``0 <= x <= upper``.

    ``basis`` must index columns forming the identity in order (basic
    variable of row i has coefficient 1 in row i, 0 elsewhere), ``b`` must
    be nonnegative, and every other variable starts at zero. ``upper``
    defaults to no bound. A start-basis column whose upper bound is zero is
    artificial and may start above it; every other basic value must lie
    within its bounds. ``max_pivots`` caps pivots plus bound flips.

    ``start`` optionally gives every column a starting value, clipped into
    its bounds; the start-basis columns' values are ignored. It is used when
    the basic values it implies, ``b - a @ start``, lie within their bounds
    up to the phase-one tolerance (so the artificials are about zero), and
    ignored otherwise. Then each column strictly inside its bounds is, in
    column order, pivoted into the row of an artificial (its largest entry
    among those rows) or, when those entries are all zero, moved towards
    the bound that does not raise the cost, by one ratio-test step that
    ends at that bound or pivots it in for a basic column reaching its own.
    These steps are counted in ``crash``; the artificials left over stay
    basic at zero, and phase two starts at once.

    x and the duals y (with reduced costs ``c - a.T @ y`` nonnegative at a
    variable's lower bound and nonpositive at its upper bound, any sign for
    fixed variables) are computed from the final basis, its columns in
    ascending order, with one ``np.linalg.solve`` each, and x is clipped
    into its bounds. Solves that end at the same basis and bounds therefore
    return identical bits, whatever their path.
    """
    n_rows, n_cols = a.shape
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise ValueError("right-hand side must be nonnegative")
    initial = np.array(basis, dtype=np.int64)
    upper = np.full(n_cols, np.inf) if upper is None else np.array(upper, dtype=float)
    if np.any(upper < 0):
        raise ValueError("upper bounds must be nonnegative")
    artificial = upper[initial] == 0.0
    if np.any(b[~artificial] > upper[initial[~artificial]]):
        raise ValueError("a starting basic value exceeds its upper bound")
    if max_pivots is None:
        max_pivots = max(20_000, 200 * (n_rows + n_cols))
    tol = PIVOT_TOL * (1.0 + float(b.sum()))

    # constraint rows, then the reduced-cost row, so one update pivots both
    tableau = np.vstack([a.astype(float), np.zeros(n_cols)])
    zrow = tableau[n_rows]
    # +1 nonbasic at its lower bound, -1 nonbasic at its upper bound, 0 basic
    # or fixed: the direction in which the variable may move
    sense = (upper > 0.0).astype(float)
    sense[initial] = 0.0
    bounds = upper.tolist()
    basic = initial.tolist()
    # bound on each basic value
    caps = [bounds[j] for j in basic]
    values = b.tolist()

    if start is not None:
        start = np.clip(np.asarray(start, dtype=float), 0.0, upper)
        start[initial] = 0.0
        implied = b - a @ start
        if np.all((implied >= -tol) & (implied <= upper[initial] + tol)):
            values = implied.tolist()
            sense[(start == upper) & (sense > 0.0)] = -1.0
        else:
            start = None
    phase_one = start is None and bool(artificial.any())
    cost = c
    if phase_one:
        cost = np.zeros(n_cols)
        cost[initial[artificial]] = 1.0
        # artificials are unbounded in phase one
        caps = [np.inf if art else cap for cap, art in zip(caps, artificial.tolist())]
    zrow[:] = cost - cost[initial] @ tableau[:n_rows]

    def move(entering: int, direction: float, current: float) -> tuple[int, float]:
        """Move a nonbasic variable from ``current`` in ``direction`` until it
        reaches its far bound (row -1) or a basic value reaches one of its
        own, in which case it enters the basis at that row. Returns the row
        and the step length."""
        reach = bounds[entering] - current if direction > 0 else current
        # moving the entering variable by t moves basic value i by
        # -t * alpha[i]; the rows are walked in Python, as there are few of
        # them (one per coefficient in the LAD dual) and per-row numpy calls
        # cost more
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
        if reach <= step:
            if reach == np.inf:
                raise UnboundedError("objective unbounded below (no limiting row or bound)")
            values[:] = [v - reach * rate for v, rate in zip(values, alpha)]
            sense[entering] = -direction
            return -1, reach
        leaving = basic[row]
        values[:] = [v - step * rate for v, rate in zip(values, alpha)]
        values[row] = current + direction * step
        if bounds[leaving] == 0.0:
            sense[leaving] = 0.0
        else:
            sense[leaving] = -1.0 if alpha[row] < 0 else 1.0
        sense[entering] = 0.0
        basic[row] = entering
        caps[row] = bounds[entering]
        _pivot(tableau, row, entering)
        return row, step

    crash = 0
    if start is not None:
        for j in np.flatnonzero((start > 0.0) & (start < upper)).tolist():
            crash += 1
            held = [i for i, k in enumerate(basic) if bounds[k] == 0.0]
            entries = np.abs(tableau[held, j])
            if entries.size and entries.max() > PIVOT_TOL:
                row = held[int(entries.argmax())]
                basic[row], caps[row], values[row] = j, bounds[j], float(start[j])
                sense[j] = 0.0
                _pivot(tableau, row, j)
            else:
                # dependent on the basic columns: a step that keeps a @ x
                move(j, 1.0 if zrow[j] < 0.0 else -1.0, float(start[j]))

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
            caps[:] = [bounds[j] for j in basic]
            stalled = 0
            zrow[:] = c - c[basic] @ tableau[:n_rows]
            continue
        if pivots + flips >= max_pivots:
            raise CycleGuardError(f"exceeded {max_pivots} pivots and flips")

        direction = float(sense[entering])
        row, step = move(entering, direction, 0.0 if direction > 0 else bounds[entering])
        if row < 0:
            flips += 1
            stalled = 0
        else:
            pivots += 1
            stalled = stalled + 1 if step <= PIVOT_TOL else 0

    x = np.where(sense < 0, upper, 0.0)
    order = sorted(basic)
    square = a[:, order]
    x[order] = np.linalg.solve(square, b - a @ x)
    x = np.clip(x, 0.0, upper)
    return SimplexResult(
        x=x,
        objective=float(c @ x),
        basis=tuple(basic),
        duals=np.linalg.solve(square.T, c[order]),
        pivots=pivots,
        flips=flips,
        crash=crash,
    )
