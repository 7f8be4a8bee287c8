"""Independent output checks, written with plain numpy only.

A solve passes when the objective recomputed from its returned solution
matches both the report and the recorded per-instance reference. Nothing
here calls aidfit's own linear algebra, so a defect there cannot hide itself.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9
CERTIFIED = ("optimality_condition", "fully_disaggregated")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def l1_objective(b: np.ndarray | None, a: np.ndarray, x: np.ndarray) -> float:
    """||B - A X||_1 with B = 0 when the problem has no target."""
    fitted = a @ x
    resid = fitted if b is None else b.reshape(fitted.shape) - fitted
    return float(np.abs(resid).sum())


def subgradient_failure(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> str | None:
    """Certify a LAD optimum: some v with v_i = sign(r_i) off the zero-residual
    rows Z and |v_i| <= 1 on Z satisfies A^T v = 0.

    v on Z is the least-norm solution of A_Z^T v_Z = -A_off^T sign(r_off),
    which is the unique one whenever |Z| equals the column count (a vertex
    in general position).
    """
    r = b - a @ x
    zero = np.abs(r) <= REL_TOL * max(1.0, float(np.abs(b).max()))
    g = -(a[~zero].T @ np.sign(r[~zero]))
    if not zero.any():
        return None if np.abs(g).max() <= REL_TOL * len(b) else "no zero residuals and A^T sign(r) != 0"
    v, *_ = np.linalg.lstsq(a[zero].T, g, rcond=None)
    scale = float(np.abs(a).sum(axis=0).max())
    if np.abs(a[zero].T @ v - g).max() > REL_TOL * scale:
        return "A^T v = 0 has no solution on the zero-residual rows"
    if np.abs(v).max() > 1.0 + 1e-7:
        return f"multiplier {np.abs(v).max():.6g} exceeds 1"
    return None


def check_solve(
    problem: str,
    payload: dict,
    b: np.ndarray | None,
    a: np.ndarray,
    reference: float,
    p: int | None = None,
    subgradient: bool = False,
) -> list[str]:
    """Every reason the report is wrong; an empty list means it passed."""
    errors = []
    sol = payload["solution"]
    if problem == "l1pca":
        x = np.asarray(sol["components"], dtype=float)
        gram = x.T @ x
        if np.abs(gram - np.eye(gram.shape[0])).max() > REL_TOL:
            errors.append("components are not orthonormal")
    else:
        x = np.asarray(sol["coefficients"], dtype=float)
        if payload["termination"] not in CERTIFIED:
            errors.append(f"terminated uncertified: {payload['termination']}")
        if problem == "subset":
            support = sorted(sol["support"])
            off = np.setdiff1d(np.arange(x.size), support)
            if len(support) != p or np.any(x[off] != 0.0):
                errors.append(f"support {support} is not a {p}-subset holding every nonzero")

    objective = l1_objective(b, a, x)
    if _rel(objective, payload["objective"]) > REL_TOL:
        errors.append(f"reported objective {payload['objective']!r} != recomputed {objective!r}")
    if problem == "l1pca":
        # maximize: an improvement over the reference is allowed, a shortfall is not
        if objective < reference * (1.0 - REL_TOL):
            errors.append(f"objective {objective!r} below reference {reference!r}")
    elif _rel(objective, reference) > REL_TOL:
        errors.append(f"objective {objective!r} != reference {reference!r}")
    if subgradient:
        failure = subgradient_failure(b.ravel(), a, x)
        if failure:
            errors.append(f"subgradient check: {failure}")
    return errors
