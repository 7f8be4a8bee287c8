from itertools import combinations

import numpy as np
import pytest

import aidfit.problems.lad as lad
from aidfit.problems.lad import weighted_lad_lp
from aidfit.problems.simplex import (
    CycleGuardError,
    SimplexError,
    lockstep_dual_simplex,
    primal_simplex,
)
from conftest import subset_instance


def standard_lp(c, a_ub, b_ub, bound):
    """min c x s.t. a_ub x <= b_ub, 0 <= x <= bound with slacks appended.

    ``bound`` is chosen above every feasible x, so the LP keeps the optimum
    of its unboxed form; it makes the slack start dual feasible."""
    n, m = a_ub.shape
    a_eq = np.hstack([a_ub, np.eye(n)])
    cost = np.concatenate([c, np.zeros(n)])
    upper = np.concatenate([np.full(m, bound), np.full(n, np.inf)])
    basis = list(range(m, m + n))
    return a_eq, b_ub, cost, basis, upper


def test_textbook_lp():
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> optimum 36 at (2, 6)
    a = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
    b = np.array([4.0, 12.0, 18.0])
    c = np.array([-3.0, -5.0])
    a_eq, rhs, cost, basis, upper = standard_lp(c, a, b, 10.0)
    res = primal_simplex(a_eq, rhs, cost, basis, upper=upper)
    assert abs(res.objective + 36.0) <= 1e-9
    assert np.allclose(res.x[:2], [2.0, 6.0], atol=1e-9)


def test_duals_solve_transposed_system():
    a = np.array([[1.0, 1.0], [2.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([-2.0, -1.0])
    a_eq, rhs, cost, basis, upper = standard_lp(c, a, b, 10.0)
    res = primal_simplex(a_eq, rhs, cost, basis, upper=upper)
    # weak duality at optimality: y @ b == objective for equality-form LP
    assert abs(res.duals @ rhs - res.objective) <= 1e-9


def test_duals_are_feasible_and_close_the_gap(rng):
    for _ in range(200):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.uniform(0.1, 2.0, size=(rows, cols))
        b = rng.uniform(0.0, 5.0, size=rows)
        c = rng.standard_normal(cols)
        # every feasible x_j is at most 5 / 0.1
        a_eq, rhs, cost, basis, upper = standard_lp(c, a, b, 100.0)
        res = primal_simplex(a_eq, rhs, cost, basis, upper=upper)
        scale = 1.0 + np.abs(cost).max()
        assert (cost - a_eq.T @ res.duals).min() >= -1e-9 * scale
        assert abs(cost @ res.x - rhs @ res.duals) <= 1e-9 * (1.0 + abs(res.objective))


def test_dual_infeasible_start_rejected():
    # min -x with x free to grow: its reduced cost is negative and no upper
    # bound can take it, so the start is not dual feasible
    a_eq = np.array([[0.0, 1.0]])
    rhs = np.array([1.0])
    cost = np.array([-1.0, 0.0])
    with pytest.raises(ValueError, match="not dual feasible"):
        primal_simplex(a_eq, rhs, cost, [1])
    # the same column boxed is a valid start
    res = primal_simplex(a_eq, rhs, cost, [1], upper=np.array([2.0, np.inf]))
    assert np.array_equal(res.x, [2.0, 1.0])


def test_degenerate_ties_terminate():
    # multiple zero rhs rows force degenerate steps; the solve must still finish
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-1.0, -2.0])
    a_eq, rhs, cost, basis, upper = standard_lp(c, a, b, 10.0)
    res = primal_simplex(a_eq, rhs, cost, basis, upper=upper)
    assert res.pivots < 100
    assert res.objective == pytest.approx(0.0, abs=1e-12)


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
    a_eq, rhs, cost, basis, upper = standard_lp(c, a, b, 10.0)
    with pytest.raises(CycleGuardError):
        primal_simplex(a_eq, rhs, cost, basis, max_pivots=1, upper=upper)


def test_degenerate_integer_batch_terminates(rng):
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
        basis = list(range(cols, cols + rows))
        if trial % 3 != 0:
            # identity columns fixed at zero: artificials that must leave
            upper[cols:] = 0.0
        # otherwise slack identity columns, whose starting values take any
        # sign once the structural columns sit at the bounds their reduced
        # costs prefer
        expected = boxed_lp_vertex_oracle(a, b, c, upper)
        if np.isinf(expected):
            with pytest.raises(SimplexError):
                primal_simplex(a, b, c, basis, upper=upper)
            continue
        res = primal_simplex(a, b, c, basis, upper=upper)
        assert abs(res.objective - expected) <= 1e-9 * (1.0 + abs(expected))
        check_optimal_basis(res, a, b, c, upper)


def test_start_at_upper_bound_and_leave_at_upper_bound():
    # min -x1 - x2  s.t.  x1 + s1 = 2 (s1 <= 2), -x2 + s2 = 1 (s2 <= 3, so
    # it ends at its upper bound); x1 and x2 start at their upper bounds
    a = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 1.0]])
    b = np.array([2.0, 1.0])
    c = np.array([-1.0, -1.0, 0.0, 0.0])
    upper = np.array([5.0, 10.0, 2.0, 3.0])
    res = primal_simplex(a, b, c, [2, 3], upper=upper)
    assert np.allclose(res.x, [2.0, 2.0, 0.0, 3.0], atol=1e-12)
    assert res.objective == pytest.approx(-4.0, abs=1e-12)
    check_optimal_basis(res, a, b, c, upper)


def test_pure_bound_flip_path():
    # both columns reach their own bounds before the slack runs out
    a = np.array([[1.0, 1.0, 1.0]])
    b = np.array([10.0])
    c = np.array([-1.0, -2.0, 0.0])
    upper = np.array([2.0, 3.0, np.inf])
    res = primal_simplex(a, b, c, [2], upper=upper)
    assert np.array_equal(res.x, [2.0, 3.0, 5.0])
    assert res.objective == -8.0
    check_optimal_basis(res, a, b, c, upper)


def test_beale_boxed_matches_vertex_enumeration():
    # Beale's example, on which Dantzig's primal rule cycles through
    # degenerate pivots, with every column boxed above its optimal value
    from oracles import boxed_lp_vertex_oracle

    a = np.array(
        [
            [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
            [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    upper = np.full(7, 2.0)
    res = primal_simplex(a, b, c, [0, 1, 2], max_pivots=200, upper=upper)
    assert res.objective == pytest.approx(-1.25, abs=1e-12)
    assert res.objective == pytest.approx(boxed_lp_vertex_oracle(a, b, c, upper), abs=1e-12)
    assert np.allclose(res.x, [0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], atol=1e-12)
    check_optimal_basis(res, a, b, c, upper)


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


def support_stack(rng, kind, n, m, p):
    """The scaled LAD dual LP of every size-p support of a random
    ``subset_instance``, as ``lad._lad_lps`` builds it and hands it to a
    simplex kernel, each from its own start: x = 0, a random fit, the
    support's optimum, or that optimum blurred."""
    target, features = subset_instance(rng, n, m, kind)
    b, a = target.values[:, 0], features.values
    w = rng.integers(1, 50, size=n).astype(float)
    supports = np.array(list(combinations(range(m), p)))
    starts = []
    for i, support in enumerate(supports):
        if i % 4 == 0:
            starts.append(None)
        elif i % 4 == 1:
            starts.append(rng.standard_normal(p))
        else:
            x, _, _ = weighted_lad_lp(b, a[:, support], w)
            starts.append(x if i % 4 == 2 else x * rng.uniform(0.9, 1.1, p))
    # a stack of LPs or one LP per call, whichever kernel the builder picks
    lps = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("primal_simplex", "lockstep_dual_simplex"):

            def recording(a, b, c, basis, upper, kernel=getattr(lad, name)):
                lps.append((a, b, c, basis, upper))
                return kernel(a, b, c, basis, upper=upper)

            patch.setattr(lad, name, recording)
        lad._lad_lps(b, a, w, supports, starts)
    if len(lps) == 1 and lps[0][0].ndim == 3:
        return lps[0]
    stacked_a, stacked_b, stacked_c, bases, uppers = zip(*lps)
    return np.array(stacked_a), np.array(stacked_b), np.array(stacked_c), bases[0], uppers[0]


def assert_lockstep_matches_single(a, b, c, basis, upper, **kwargs):
    """Each LP of the stack gives ``primal_simplex``'s result bit for bit;
    returns the stack's iteration counts."""
    stacked = lockstep_dual_simplex(a, b, c, basis, upper=upper, **kwargs)
    assert len(stacked) == len(a)
    for s, got in enumerate(stacked):
        lp_upper = upper if upper is None or upper.ndim == 1 else upper[s]
        single = primal_simplex(a[s], b[s], c[s], basis, upper=lp_upper, **kwargs)
        assert np.array_equal(got.x, single.x)
        assert np.array_equal(got.duals, single.duals)
        assert got.objective == single.objective
        assert (got.pivots, got.flips) == (single.pivots, single.flips)
    return [r.pivots for r in stacked]


@pytest.mark.parametrize("kind", ["integer", "duplicated", "exact", "exact-1e8"])
def test_lockstep_support_stacks_match_single_solves(kind):
    rng = np.random.default_rng(31)
    spread = 0
    for trial in range(12):
        n, m, p = int(rng.integers(6, 40)), int(rng.integers(3, 7)), 1 + trial % 3
        pivots = assert_lockstep_matches_single(*support_stack(rng, kind, n, m, min(p, m - 1)))
        spread += len(set(pivots)) > 1
    # at least half the stacks hold LPs that finish at different iterations
    assert spread >= 6


def test_lockstep_random_boxed_stacks_match_single_solves(rng):
    # general boxed LPs, slack or artificial starts, one upper bound per LP
    for trial in range(60):
        lps, rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
        structural = rng.uniform(-2.0, 2.0, size=(lps, rows, cols))
        a = np.concatenate([structural, np.broadcast_to(np.eye(rows), (lps, rows, rows))], axis=2)
        b = rng.uniform(0.0, 3.0, size=(lps, rows))
        c = rng.standard_normal((lps, cols + rows))
        upper = np.concatenate([rng.uniform(0.5, 3.0, (lps, cols)), b + 3.0], axis=1)
        if trial % 2:
            upper[:, cols:] = 0.0
        basis = list(range(cols, cols + rows))
        try:
            for s in range(lps):
                primal_simplex(a[s], b[s], c[s], basis, upper=upper[s])
        except SimplexError:
            with pytest.raises(SimplexError):
                lockstep_dual_simplex(a, b, c, basis, upper=upper)
            continue
        assert_lockstep_matches_single(a, b, c, basis, upper)


def test_lockstep_one_infeasible_lp_raises():
    # x0 + x1 = b with x0 <= 1 and the artificial x1 fixed at zero: b = 0.5
    # is feasible, b = 10 is not
    a = np.array([[[1.0, 1.0]], [[1.0, 1.0]], [[1.0, 1.0]]])
    c = np.array([[1.0, 0.0]] * 3)
    upper = np.array([1.0, 0.0])
    feasible = np.array([[0.5], [0.25], [0.75]])
    assert_lockstep_matches_single(a, feasible, c, [1], upper)
    with pytest.raises(SimplexError, match="no feasible point"):
        primal_simplex(a[1], np.array([10.0]), c[1], [1], upper=upper)
    with pytest.raises(SimplexError, match="no feasible point"):
        lockstep_dual_simplex(a, np.array([[0.5], [10.0], [0.75]]), c, [1], upper=upper)


def test_lockstep_dual_infeasible_start_rejected():
    # as test_dual_infeasible_start_rejected, the second LP of the stack
    a = np.array([[[0.0, 1.0]], [[0.0, 1.0]]])
    b = np.array([[1.0], [1.0]])
    c = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="not dual feasible"):
        lockstep_dual_simplex(a, b, c, [1])
    assert_lockstep_matches_single(a, b, c, [1], np.array([2.0, np.inf]))


def test_lockstep_pivot_cap_raises_cycle_guard():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
    b = np.array([4.0, 12.0, 18.0])
    c = np.array([-3.0, -5.0])
    a_eq, rhs, cost, basis, upper = standard_lp(c, a, b, 10.0)
    stack = np.array([a_eq, a_eq]), np.array([rhs, rhs / 2]), np.array([cost, cost])
    assert_lockstep_matches_single(*stack, basis, upper, max_pivots=5)
    with pytest.raises(CycleGuardError):
        lockstep_dual_simplex(*stack, basis, max_pivots=1, upper=upper)
