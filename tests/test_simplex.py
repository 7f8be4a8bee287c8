import numpy as np
import pytest

from aidfit.problems.simplex import UnboundedError, primal_simplex


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
    from aidfit.problems.lad import weighted_lad_lp

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
    from aidfit.problems.simplex import CycleGuardError

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
