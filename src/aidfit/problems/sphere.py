"""Weighted LAD regression with a Euclidean-ball constraint on the coefficients.

Kelley's cutting planes on the shared LAD LP (``lad.weighted_lad_lp``): each
round solves the LP under the ball's tangent cuts collected so far. An LP
optimum inside the ball is optimal. Otherwise the round snaps to the exact
KKT point of the structure that optimum fits, then cuts the optimum off. The
LP's dual and the snap's dual are box-feasible certificates

    dual(v) = v @ b - sqrt(R) * ||A^T v||_2   for |v_i| <= w_i,

which lower-bound the optimum however v was produced, so a wrong structure
guess only costs rounds and never yields a false certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import DEFAULT_EPS_SIGN, AggregatedInstance, bound_slack
from .lad import weighted_lad_lp

__all__ = ["SPHERE_TOL", "SphereSolution", "SphereNotConvergedError", "solve_sphere_lad"]

SPHERE_TOL = 1e-7  # default relative gap at which ``solve_sphere_lad`` certifies


@dataclass(frozen=True)
class SphereSolution:
    coefficients: np.ndarray
    objective: float
    certified_gap: float


class SphereNotConvergedError(RuntimeError):
    """Gap certification failed within the iteration budget."""

    def __init__(self, solution: SphereSolution):
        super().__init__(
            f"sphere solver stopped with certified gap {solution.certified_gap:.3e}"
        )
        self.solution = solution


def _dual_value(v: np.ndarray, b: np.ndarray, a: np.ndarray, root: float) -> float:
    return float(v @ b - root * np.linalg.norm(a.T @ v))


def _snap(
    x: np.ndarray, b: np.ndarray, a: np.ndarray, w: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """The KKT point on the ball for the rows ``x`` interpolates and the
    residual signs elsewhere, with a box-feasible dual; None when the
    interpolated rows admit no solution inside the ball."""
    ax = a @ x
    r = b - ax
    # interpolated rows: the sign check's zero band
    zero = np.abs(r) <= DEFAULT_EPS_SIGN * (np.abs(b) + np.abs(ax))
    d = w * np.sign(r)
    g = a[~zero].T @ d[~zero]

    # minimum-norm interpolant x0 and null-space basis of the interpolated
    # rows, with numpy's default rank cutoff
    a_z = a[zero]
    u, s, vt = np.linalg.svd(a_z)
    rank = int(np.sum(s > max(a_z.shape) * np.finfo(float).eps * s.max(initial=0.0)))
    x0 = vt[:rank].T @ ((u[:, :rank].T @ b[zero]) / s[:rank])
    slack = radius - float(x0 @ x0)
    if slack < 0.0:
        return None
    null = vt[rank:]
    direction = null.T @ (null @ g)
    length = float(np.linalg.norm(direction))
    point = x0 + np.sqrt(slack) / length * direction if length > 0.0 else x0

    # multipliers of A_Z^T eta - nu * point = -g, clipped to the box on Z
    lhs = np.hstack([a_z.T, -point[:, None]])
    eta = np.linalg.lstsq(lhs, -g, rcond=None)[0][:-1]
    d[zero] = np.clip(eta, -w[zero], w[zero])
    return point, d


def solve_sphere_lad(
    agg: AggregatedInstance,
    radius: float,
    tol: float = SPHERE_TOL,
    max_iters: int = 100,
) -> SphereSolution:
    """Exactly solve min sum_k w_k |b_k - a_k @ x| subject to ||x||^2 <= R.

    The returned solution is certified: ``certified_gap`` is a genuine
    primal-dual gap and satisfies ``certified_gap <= tol * objective +
    bound_slack(objective, dual, scale)``, with ``dual`` the best dual value
    and ``scale = sum_k w_k |b_k|``, the size of the rounding noise in an
    exact fit's objective; both terms scale with the data. The gap is not
    checked when the LP optimum itself lies in the ball, which makes it
    optimal.
    After ``max_iters`` cut rounds ``SphereNotConvergedError`` carries the
    best feasible iterate.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    if agg.B_agg.shape[1] != 1:
        raise ValueError("sphere LAD expects a single target column")

    b = agg.B_agg[:, 0]
    a = agg.A_agg
    w = agg.weights
    root = float(np.sqrt(radius))
    scale = float(w @ np.abs(b))

    cuts = np.empty((0, a.shape[1]))
    best_x, best_primal, best_dual = None, np.inf, -np.inf
    for _ in range(max_iters):
        x, d, objective = weighted_lad_lp(b, a, w, cuts, root)
        best_dual = max(best_dual, _dual_value(d, b, a, root))
        if float(x @ x) <= radius:
            gap = max(objective - best_dual, 0.0)
            return SphereSolution(coefficients=x, objective=objective, certified_gap=gap)

        norm = float(np.linalg.norm(x))
        candidates = [x * (root / norm)]
        snapped = _snap(x, b, a, w, radius)
        if snapped is not None:
            candidates.append(snapped[0])
            best_dual = max(best_dual, _dual_value(snapped[1], b, a, root))
        for point in candidates:
            value = float(w @ np.abs(b - a @ point))
            if value < best_primal:
                best_x, best_primal = point, value
        best = SphereSolution(best_x, best_primal, max(best_primal - best_dual, 0.0))
        if best.certified_gap <= tol * best_primal + bound_slack(best_primal, best_dual, scale):
            return best
        cuts = np.vstack([cuts, x / norm])
    raise SphereNotConvergedError(best)
