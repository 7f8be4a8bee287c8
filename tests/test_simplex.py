import numpy as np
import pytest

from aidfit.problems.lad import weighted_lad_lp
from aidfit.problems.simplex import CycleGuardError, SimplexError, UnboundedError, primal_simplex


def standard_lp(c, a_ub, b_ub):
    """min c x s.t. a_ub x <= b_ub, x >= 0 with slacks appended (b_ub >= 0)."""
    n, m = a_ub.shape
    a_eq = np.hstack([a_ub, np.eye(n)])
    cost = np.concatenate([c, np.zeros(n)])
    basis = list(range(m, m + n))
    return a_eq, b_ub, cost, basis


def test_textbook_lp():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> optimum 36 at (2, 6)
    a = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
    b = np.array([4.0, 12.0, 18.0])
    c = np.array([-3.0, -5.0])
    a_eq, rhs, cost, basis = standard_lp(c, a, b)
    res = primal_simplex(a_eq, rhs, cost, basis)
    assert abs(res.objective + 36.0) <= 1e-9
    assert np.allclose(res.x[:2], [2.0, 6.0], atol=1e-9)


def test_duals_solve_transposed_system():
    a = np.array([[1.0, 1.0], [2.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([-2.0, -1.0])
    a_eq, rhs, cost, basis = standard_lp(c, a, b)
    res = primal_simplex(a_eq, rhs, cost, basis)
    # weak duality at optimality: y @ b == objective for equality-form LP
    assert abs(res.duals @ rhs - res.objective) <= 1e-9


def test_duals_are_feasible_and_close_the_gap(rng):
    for _ in range(200):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.uniform(0.1, 2.0, size=(rows, cols))
        b = rng.uniform(0.0, 5.0, size=rows)
        c = rng.standard_normal(cols)
        a_eq, rhs, cost, basis = standard_lp(c, a, b)
        res = primal_simplex(a_eq, rhs, cost, basis)
        scale = 1.0 + np.abs(cost).max()
        assert (cost - a_eq.T @ res.duals).min() >= -1e-9 * scale
        assert abs(cost @ res.x - rhs @ res.duals) <= 1e-9 * (1.0 + abs(res.objective))


def test_unbounded_detected():
    # min -x with x free to grow: constraint row 0*x + s = 1
    a_eq = np.array([[0.0, 1.0]])
    rhs = np.array([1.0])
    cost = np.array([-1.0, 0.0])
    with pytest.raises(UnboundedError):
        primal_simplex(a_eq, rhs, cost, [1])


def test_degenerate_ties_terminate():
    # multiple zero rhs rows force degenerate pivots; Bland must still finish
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-1.0, -2.0])
    a_eq, rhs, cost, basis = standard_lp(c, a, b)
    res = primal_simplex(a_eq, rhs, cost, basis)
    assert res.pivots < 100


def test_deterministic_repeat_runs():
    rng = np.random.default_rng(5)
    a = rng.integers(-2, 3, size=(6, 2)).astype(float)
    b = rng.integers(-3, 4, size=6).astype(float)
    w = rng.integers(1, 4, size=6).astype(float)
    x1, d1, o1 = weighted_lad_lp(b, a, w)
    x2, d2, o2 = weighted_lad_lp(b, a, w)
    assert np.array_equal(x1, x2)
    assert np.array_equal(d1, d2)
    assert o1 == o2


def test_pivot_cap_raises_cycle_guard():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
    b = np.array([4.0, 12.0, 18.0])
    c = np.array([-3.0, -5.0])
    a_eq, rhs, cost, basis = standard_lp(c, a, b)
    with pytest.raises(CycleGuardError):
        primal_simplex(a_eq, rhs, cost, basis, max_pivots=1)


def test_bland_terminates_on_degenerate_batch(rng):
    # compact version of the anti-cycling sweep; the full 10^4 run is in
    # the acceptance suite
    from conftest import make_agg
    from aidfit.problems.lad import solve_weighted_lad

    for trial in range(500):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        a = rng.integers(-2, 3, size=(n, m)).astype(float)
        b = rng.integers(-2, 3, size=n).astype(float)
        w = rng.integers(1, 4, size=n)
        sol = solve_weighted_lad(make_agg(b, a, w))
        recomputed = float(w @ np.abs(b - a @ sol.coefficients))
        assert abs(sol.objective - recomputed) <= 1e-9


def check_optimal_basis(res, a, b, c, upper, tol=1e-9):
    """Feasible x, reduced costs of the right sign at each bound, no duality gap."""
    scale = 1.0 + np.abs(c).max() + np.abs(b).max()
    assert np.abs(a @ res.x - b).max() <= tol * scale
    assert res.x.min() >= -tol * scale and (res.x - upper).max() <= tol * scale
    rc = c - a.T @ res.duals
    movable = upper > 0
    at_lower = movable & (res.x <= tol * scale)
    at_upper = movable & (res.x >= upper - tol * scale)
    assert rc[at_lower & ~at_upper].min(initial=0.0) >= -tol * scale
    assert rc[at_upper & ~at_lower].max(initial=0.0) <= tol * scale
    assert np.abs(rc[movable & ~at_lower & ~at_upper]).max(initial=0.0) <= tol * scale
    finite = np.where(np.isfinite(upper), upper, 0.0)
    dual_value = b @ res.duals + finite @ (np.minimum(rc, 0.0) * movable)
    assert abs(dual_value - res.objective) <= tol * scale * (1.0 + abs(res.objective))


def test_random_boxed_lps_match_vertex_enumeration(rng):
    from oracles import boxed_lp_vertex_oracle

    for trial in range(240):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        structural = rng.uniform(-2.0, 2.0, size=(rows, cols))
        a = np.hstack([structural, np.eye(rows)])
        b = rng.uniform(0.0, 3.0, size=rows)
        c = rng.standard_normal(cols + rows)
        upper = np.concatenate([rng.uniform(0.5, 3.0, cols), b + rng.uniform(0.0, 3.0, rows)])
        # structural columns starting at their upper bound: with artificials
        # any mask is valid, and a row whose artificial would start negative
        # is negated
        at_upper = np.concatenate([rng.random(cols) < 0.5, np.zeros(rows, dtype=bool)])
        basis = list(range(cols, cols + rows))
        artificial = trial % 3 != 0
        if artificial:
            # identity columns fixed at zero: phase one must drive them out
            upper[cols:] = 0.0
        else:
            slack = b - structural[:, at_upper[:cols]] @ upper[:cols][at_upper[:cols]]
            if np.any((slack < 0) | (slack > upper[cols:])):
                with pytest.raises(ValueError, match="outside its bounds"):
                    primal_simplex(a, b, c, basis, upper=upper, at_upper=at_upper)
                at_upper[:] = False
        expected = boxed_lp_vertex_oracle(a, b, c, upper)
        if np.isinf(expected):
            with pytest.raises(SimplexError):
                primal_simplex(a, b, c, basis, upper=upper, at_upper=at_upper)
            continue
        res = primal_simplex(a, b, c, basis, upper=upper, at_upper=at_upper)
        assert abs(res.objective - expected) <= 1e-9 * (1.0 + abs(expected))
        check_optimal_basis(res, a, b, c, upper)


def test_start_at_upper_bound_and_leave_at_upper_bound():
    # min -x1 - x2  s.t.  x1 + s1 = 2 (s1 <= 2, so it starts at its upper
    # bound), -x2 + s2 = 1 (s2 <= 3, so it rises to its upper bound)
    a = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 1.0]])
    b = np.array([2.0, 1.0])
    c = np.array([-1.0, -1.0, 0.0, 0.0])
    upper = np.array([5.0, 10.0, 2.0, 3.0])
    res = primal_simplex(a, b, c, [2, 3], upper=upper)
    assert np.allclose(res.x, [2.0, 2.0, 0.0, 3.0], atol=1e-12)
    assert res.objective == pytest.approx(-4.0, abs=1e-12)
    assert res.pivots == 2 and res.flips == 0
    check_optimal_basis(res, a, b, c, upper)


def test_pure_bound_flip_path():
    # both columns reach their own bounds before the slack runs out
    a = np.array([[1.0, 1.0, 1.0]])
    b = np.array([10.0])
    c = np.array([-1.0, -2.0, 0.0])
    upper = np.array([2.0, 3.0, np.inf])
    res = primal_simplex(a, b, c, [2], upper=upper)
    assert res.pivots == 0 and res.flips == 2
    assert np.array_equal(res.x, [2.0, 3.0, 5.0])
    assert res.objective == -8.0
    check_optimal_basis(res, a, b, c, upper)


def beale():
    """Beale's example, on which Dantzig's rule cycles through degenerate pivots."""
    a = np.array(
        [
            [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
            [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    return a, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])


def test_degenerate_stall_hands_over_to_bland(monkeypatch):
    import aidfit.problems.simplex as simplex

    a, b, c = beale()
    res = primal_simplex(a, b, c, [0, 1, 2], max_pivots=200)
    assert res.objective == pytest.approx(-1.25, abs=1e-12)
    assert np.allclose(res.x, [0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], atol=1e-12)
    # without the hand-over Dantzig's rule never leaves the degenerate vertex
    monkeypatch.setattr(simplex, "STALL_PIVOTS", 10**9)
    with pytest.raises(CycleGuardError):
        primal_simplex(a, b, c, [0, 1, 2], max_pivots=200)


def test_weighted_lad_dual_certificate(rng):
    from oracles import lad_vertex_oracle

    for trial in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(3, n) + 1))
        a0 = rng.standard_normal((n, m))
        b0 = a0 @ rng.standard_normal(m) if trial % 4 == 0 else rng.standard_normal(n)
        w = rng.integers(1, 50, size=n).astype(float)
        # scaling a column rescales its coefficient, scaling b the optimum
        col_scale = 10.0 ** rng.integers(-9, 9, size=m)
        b_scale = 10.0 ** int(rng.integers(-9, 9))
        a, b = a0 * col_scale, b0 * b_scale
        x, d, objective = weighted_lad_lp(b, a, w)
        expected = lad_vertex_oracle(b0, a0, w) * b_scale
        scale = w @ np.abs(b)
        assert abs(objective - expected) <= 1e-9 * scale
        assert (np.abs(d) - w).max() <= 1e-9 * w.max()
        assert np.all(np.abs(a.T @ d) <= 1e-9 * (np.abs(a).T @ w))
        assert abs(b @ d - objective) <= 1e-9 * scale
