"""Dense primal simplex for equality-form LPs with a known starting basis.

Pivot selection follows Bland's rule throughout (lowest eligible variable
index in, lowest basic variable index among minimum-ratio rows out), so the
solve terminates on degenerate instances and the optimal basis is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "SimplexError", "UnboundedError", "CycleGuardError", "primal_simplex"]

REDUCED_COST_TOL = 1e-9
PIVOT_TOL = 1e-9


class SimplexError(RuntimeError):
    """Base class for simplex failures."""


class UnboundedError(SimplexError):
    """No leaving row exists for an improving column."""


class CycleGuardError(SimplexError):
    """Iteration cap exceeded, which Bland's rule should make impossible."""


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    objective: float
    basis: tuple[int, ...]
    duals: np.ndarray
    pivots: int


def primal_simplex(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: list[int],
    max_pivots: int | None = None,
) -> SimplexResult:
    """Minimize ``c @ x`` subject to ``a @ x == b``, ``x >= 0``.

    ``basis`` must index columns forming the identity in order (basic
    variable of row i has coefficient 1 in row i, 0 elsewhere) and ``b``
    must be nonnegative, which the LAD formulation guarantees by
    construction.

    The duals y (with ``a.T @ y <= c`` at the optimum and ``b @ y`` equal to
    the objective) are read off the final reduced costs: the starting basis
    columns form the identity, so their reduced costs are ``c - y``.
    """
    n_rows, n_cols = a.shape
    if np.any(b < 0):
        raise ValueError("right-hand side must be nonnegative")
    tableau = np.hstack([a.astype(float, copy=True), b.reshape(-1, 1).astype(float)])
    start = np.array(basis, dtype=np.int64)

    # reduced cost row: z_j = c_j - c_B @ T[:, j]
    c_basis = c[start]
    zrow = c.astype(float, copy=True) - c_basis @ tableau[:, :-1]

    if max_pivots is None:
        max_pivots = max(20_000, 200 * (n_rows + n_cols))

    basis_arr = start.copy()
    pivots = 0
    while True:
        improving = np.flatnonzero(zrow < -REDUCED_COST_TOL)
        if improving.size == 0:
            break
        entering = int(improving[0])

        col = tableau[:, entering]
        eligible = col > PIVOT_TOL
        if not eligible.any():
            raise UnboundedError("objective unbounded below (no positive pivot entry)")
        ratios = np.full(n_rows, np.inf)
        ratios[eligible] = tableau[eligible, -1] / col[eligible]
        best_ratio = ratios.min()
        ties = np.flatnonzero(ratios == best_ratio)
        leaving = int(ties[np.argmin(basis_arr[ties])])

        pivots += 1
        if pivots > max_pivots:
            raise CycleGuardError(f"exceeded {max_pivots} pivots")

        pivot_val = tableau[leaving, entering]
        tableau[leaving, :] /= pivot_val
        pivot_row = tableau[leaving, :]
        factors = tableau[:, entering].copy()
        factors[leaving] = 0.0
        tableau -= np.outer(factors, pivot_row)
        z_factor = zrow[entering]
        zrow -= z_factor * pivot_row[:-1]
        zrow[entering] = 0.0
        basis_arr[leaving] = entering

    basis_out = [int(v) for v in basis_arr]
    x = np.zeros(n_cols)
    for i, var in enumerate(basis_out):
        x[var] = tableau[i, -1]

    duals = c[start] - zrow[start]
    return SimplexResult(
        x=x,
        objective=float(c @ x),
        basis=tuple(basis_out),
        duals=duals,
        pivots=pivots,
    )
