"""Weighted LAD regression with a Euclidean-ball constraint on the coefficients.

Strategy: solve the unconstrained LP first and return it when it already
sits inside the ball. Otherwise run ADMM (ball projection step solved as an
exact trust-region subproblem) and, once the active structure stabilizes,
snap to the exact KKT point for that structure. Every returned solution
carries a duality gap computed from a box-feasible dual certificate

    dual(v) = v @ b - sqrt(R) * ||A^T v||_2   for |v_i| <= w_i,

which lower-bounds the optimum regardless of how the iterate was produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import AggregatedInstance
from ..linalg import symmetric_eigen
from .lad import weighted_lad_lp

__all__ = ["SphereSolution", "SphereNotConvergedError", "solve_sphere_lad"]


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


def _dual_value(nu: np.ndarray, b: np.ndarray, a: np.ndarray, radius: float) -> float:
    return float(nu @ b - np.sqrt(radius) * np.linalg.norm(a.T @ nu))


def _clip_box(nu: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.clip(nu, -w, w)


def _primal_value(x: np.ndarray, b: np.ndarray, a: np.ndarray, w: np.ndarray) -> float:
    return float(w @ np.abs(b - a @ x))


def _ball_least_squares(
    eigvals: np.ndarray, eigvecs: np.ndarray, d: np.ndarray, radius: float
) -> np.ndarray:
    """Minimize ||A x - z||^2 over ||x||^2 <= R given A^T A = Q L Q^T and d = A^T z."""
    beta = eigvecs.T @ d
    lam_max = float(eigvals[0]) if eigvals.size else 0.0
    safe = eigvals > 1e-13 * max(lam_max, 1.0)
    coords = np.where(safe, beta / np.where(safe, eigvals, 1.0), 0.0)
    if coords @ coords <= radius:
        return eigvecs @ coords

    norm_beta = np.linalg.norm(beta)
    mu_lo, mu_hi = 0.0, norm_beta / np.sqrt(radius)
    mu = mu_hi / 2.0
    for _ in range(200):
        denom = eigvals + mu
        phi = float(np.sum((beta / denom) ** 2))
        if abs(phi - radius) <= 1e-14 * radius:
            break
        if phi > radius:
            mu_lo = mu
        else:
            mu_hi = mu
        # Newton step on 1/sqrt(phi) - 1/sqrt(R), safeguarded by bisection
        dphi = -2.0 * float(np.sum(beta**2 / denom**3))
        psi = phi**-0.5 - radius**-0.5
        dpsi = -0.5 * phi**-1.5 * dphi
        step = mu - psi / dpsi if dpsi != 0 else 0.5 * (mu_lo + mu_hi)
        mu = step if mu_lo < step < mu_hi else 0.5 * (mu_lo + mu_hi)
    denom = eigvals + mu
    return eigvecs @ (beta / denom)


def _polish(
    zero_rows: np.ndarray,
    signs: np.ndarray,
    b: np.ndarray,
    a: np.ndarray,
    w: np.ndarray,
    radius: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve the KKT system for a fixed active structure on the ball boundary.

    ``zero_rows`` marks residuals pinned to zero; ``signs`` holds the residual
    signs elsewhere. Returns (x, nu) on success, None when the structure is
    inconsistent.
    """
    n, _ = a.shape
    free = ~zero_rows
    g = a[free].T @ (w[free] * signs[free])
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))

    candidates: list[tuple[float, np.ndarray, np.ndarray]] = []
    if not zero_rows.any():
        lam = float(np.linalg.norm(g)) / (2.0 * np.sqrt(radius))
        if lam > 1e-14:
            candidates.append((lam, g / (2.0 * lam), np.empty(0)))
    else:
        a_z = a[zero_rows]
        b_z = b[zero_rows]
        gram = a_z @ a_z.T
        eta0, *_ = np.linalg.lstsq(gram, -(a_z @ g), rcond=None)
        eta1, *_ = np.linalg.lstsq(gram, 2.0 * b_z, rcond=None)
        v0 = g + a_z.T @ eta0
        v1 = a_z.T @ eta1
        qa = float(v1 @ v1) - 4.0 * radius
        qb = 2.0 * float(v0 @ v1)
        qc = float(v0 @ v0)
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0:
            return None
        root = np.sqrt(disc)
        for lam in ((-qb + root) / (2.0 * qa), (-qb - root) / (2.0 * qa)) if qa != 0 else (
            (-qc / qb,) if qb != 0 else ()
        ):
            if lam > 1e-14:
                x = v0 / (2.0 * lam) + v1 / 2.0
                eta = eta0 + lam * eta1
                candidates.append((lam, x, eta))

    for lam, x, eta in candidates:
        if zero_rows.any():
            if np.abs(a[zero_rows] @ x - b[zero_rows]).max() > 1e-7 * scale:
                continue
            if np.any(np.abs(eta) > w[zero_rows] * (1.0 + 1e-8) + 1e-12):
                continue
        resid = b - a @ x
        if np.any(signs[free] * resid[free] < -1e-8 * scale):
            continue
        nu = np.empty(n)
        nu[free] = w[free] * signs[free]
        if zero_rows.any():
            nu[zero_rows] = np.clip(eta, -w[zero_rows], w[zero_rows])
        return x, nu
    return None


def solve_sphere_lad(
    agg: AggregatedInstance,
    radius: float,
    tol: float = 1e-7,
    max_iters: int = 200_000,
) -> SphereSolution:
    """Exactly solve min sum_k w_k |b_k - a_k @ x| subject to ||x||^2 <= R.

    The returned solution is certified: ``certified_gap`` is a genuine
    primal-dual gap and satisfies ``certified_gap <= tol * (1 + objective)``,
    otherwise ``SphereNotConvergedError`` carries the best iterate.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if agg.B_agg.shape[1] != 1:
        raise ValueError("sphere LAD expects a single target column")

    b = agg.B_agg[:, 0]
    a = agg.A_agg
    w = agg.weights
    n = a.shape[0]

    x_lp, duals_lp, obj_lp = weighted_lad_lp(b, a, w)
    nu_lp = _clip_box(duals_lp, w)
    best_dual = _dual_value(nu_lp, b, a, radius)
    if float(x_lp @ x_lp) <= radius:
        gap = max(obj_lp - best_dual, 0.0)
        return SphereSolution(coefficients=x_lp, objective=obj_lp, certified_gap=gap)

    eigvals, eigvecs = symmetric_eigen(a.T @ a)

    x = x_lp * np.sqrt(radius) / np.linalg.norm(x_lp)
    r = b - a @ x
    r_prev = r.copy()
    u = np.zeros(n)
    rho = float(np.mean(w))

    best_primal = _primal_value(x, b, a, w)
    best_x = x.copy()

    def certified(px: float) -> float:
        return max(px - best_dual, 0.0)

    for it in range(1, max_iters + 1):
        z = b - r - u
        x = _ball_least_squares(eigvals, eigvecs, a.T @ z, radius)
        ax = a @ x
        v = b - ax - u
        r_prev = r
        r = np.sign(v) * np.maximum(np.abs(v) - w / rho, 0.0)
        u = u + ax + r - b

        if it % 25 != 0:
            continue

        px = _primal_value(x, b, a, w)
        if px < best_primal:
            best_primal = px
            best_x = x.copy()
        nu = _clip_box(-rho * u, w)
        best_dual = max(best_dual, _dual_value(nu, b, a, radius))
        if certified(best_primal) <= tol * (1.0 + abs(best_primal)):
            break

        zero_rows = r == 0.0
        signs = np.sign(b - ax)
        signs[signs == 0.0] = 1.0
        polished = _polish(zero_rows, signs, b, a, w, radius)
        if polished is not None:
            x_pol, nu_pol = polished
            if float(x_pol @ x_pol) <= radius * (1.0 + 1e-9):
                p_pol = _primal_value(x_pol, b, a, w)
                best_dual = max(best_dual, _dual_value(nu_pol, b, a, radius))
                if p_pol < best_primal:
                    best_primal = p_pol
                    best_x = x_pol
                if certified(best_primal) <= tol * (1.0 + abs(best_primal)):
                    break

        # residual balancing keeps the penalty in a useful range
        primal_res = float(np.linalg.norm(ax + r - b))
        dual_res = float(rho * np.linalg.norm(a.T @ (r - r_prev)))
        if primal_res > 10.0 * dual_res:
            rho *= 2.0
            u /= 2.0
        elif dual_res > 10.0 * primal_res:
            rho /= 2.0
            u *= 2.0

    px = _primal_value(x, b, a, w)
    if px < best_primal:
        best_primal = px
        best_x = x.copy()
    gap = certified(best_primal)
    solution = SphereSolution(
        coefficients=best_x, objective=best_primal, certified_gap=gap
    )
    if gap > tol * (1.0 + abs(best_primal)):
        raise SphereNotConvergedError(solution)
    return solution
