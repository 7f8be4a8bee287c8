from itertools import combinations
from math import comb

import numpy as np
import pytest

import aidfit.problems.lad as lad
from aidfit.clustering import kmeans_one_pass
from aidfit.core import AidConfig, LowerBoundViolationError, bound_slack, run_aid
from aidfit.linalg import DataMatrix
from aidfit.problems import LadRegressionProblem, SubsetSelectionProblem
from aidfit.problems.lad import (
    InstanceTooLargeError,
    solve_subset_selection,
    solve_weighted_lad,
)
from conftest import make_agg, subset_instance
from oracles import lad_grid_oracle, lad_vertex_oracle, subset_oracle


class TestWeightedLad:
    def test_unit_weight_median_at_zero(self):
        sol = solve_weighted_lad(make_agg([0.0, 0.0, 10.0], [[1.0], [1.0], [1.0]]))
        assert sol.coefficients[0] == 0.0
        assert sol.objective == 10.0

    def test_heavy_weight_shifts_median(self):
        sol = solve_weighted_lad(
            make_agg([0.0, 0.0, 10.0], [[1.0], [1.0], [1.0]], weights=[1, 1, 3])
        )
        assert sol.coefficients[0] == 10.0
        assert sol.objective == 20.0

    def test_weighted_8x2_matches_grid_and_vertices(self, rng):
        a = rng.standard_normal((8, 2))
        b = a @ np.array([2.0, -1.0]) + rng.standard_normal(8)
        w = rng.integers(1, 5, size=8).astype(float)
        sol = solve_weighted_lad(make_agg(b, a, w))
        grid = lad_grid_oracle(b, a, w)
        assert abs(sol.objective - grid) <= 1e-3 * (1 + abs(grid))
        vertices = lad_vertex_oracle(b, a, w)
        assert abs(sol.objective - vertices) <= 1e-9

    def test_many_random_instances_match_vertex_oracle(self, rng):
        for _ in range(120):
            n = int(rng.integers(3, 10))
            m = int(rng.integers(1, min(4, n) + 1))
            a = rng.standard_normal((n, m))
            b = rng.standard_normal(n)
            w = rng.integers(1, 6, size=n).astype(float)
            sol = solve_weighted_lad(make_agg(b, a, w))
            assert abs(sol.objective - lad_vertex_oracle(b, a, w)) <= 1e-9

    def test_objective_is_recomputed(self, rng):
        a = rng.standard_normal((12, 3))
        b = rng.standard_normal(12)
        sol = solve_weighted_lad(make_agg(b, a))
        assert sol.objective == pytest.approx(
            float(np.abs(b - a @ sol.coefficients).sum()), abs=1e-9
        )

    def test_weight_scaling_scales_objective(self, rng):
        a = rng.standard_normal((9, 2))
        b = rng.standard_normal(9)
        w = rng.integers(1, 4, size=9)
        base = solve_weighted_lad(make_agg(b, a, w))
        scaled = solve_weighted_lad(make_agg(b, a, 3 * w))
        assert scaled.objective == pytest.approx(3 * base.objective, rel=1e-9)

    def test_interval_cuts_match_breakpoint_scan(self, rng):
        # cuts x <= L and -x <= L confine one coefficient to [-L, L]; the
        # optimum of a convex piecewise-linear objective there lies at a
        # breakpoint inside or at an end of the interval
        for _ in range(40):
            n = int(rng.integers(3, 12))
            a = rng.standard_normal((n, 1))
            b = a[:, 0] * rng.uniform(-8, 8) + rng.standard_normal(n)
            w = rng.integers(1, 5, size=n).astype(float)
            limit = float(rng.uniform(0.1, 5.0))
            x, _, objective = lad.weighted_lad_lp(b, a, w, np.array([[1.0], [-1.0]]), limit)
            assert abs(x[0]) <= limit * (1 + 1e-12)
            points = np.concatenate([np.clip(b / a[:, 0], -limit, limit), [-limit, limit]])
            best = min(float(w @ np.abs(b - a[:, 0] * t)) for t in points)
            assert abs(objective - best) <= 1e-9 * (1 + best)

    def test_no_cuts_is_the_plain_lp(self, rng):
        a = rng.standard_normal((15, 3))
        b = rng.standard_normal(15)
        w = rng.integers(1, 4, size=15).astype(float)
        plain = lad.weighted_lad_lp(b, a, w)
        empty = lad.weighted_lad_lp(b, a, w, np.empty((0, 3)), 1.0)
        for left, right in zip(plain, empty):
            assert np.array_equal(left, right)

    def test_rejects_multi_column_target(self, rng):
        agg = make_agg(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
        with pytest.raises(ValueError):
            solve_weighted_lad(agg)


class TestSubsetSelection:
    def test_full_support_equals_unrestricted(self, rng):
        a = rng.standard_normal((10, 2))
        b = rng.standard_normal(10)
        full = solve_subset_selection(make_agg(b, a), p=2)
        unrestricted = solve_weighted_lad(make_agg(b, a))
        assert abs(full.objective - unrestricted.objective) <= 1e-9
        assert full.support == (0, 1)

    def test_exact_recovery_zero_noise(self, rng):
        a = rng.standard_normal((20, 3))
        b = 3.0 * a[:, 1]
        sol = solve_subset_selection(make_agg(b, a), p=1)
        assert sol.support == (1,)
        assert sol.objective <= 1e-12
        assert sol.coefficients[0] == 0.0 and sol.coefficients[2] == 0.0

    def test_matches_independent_enumeration(self, rng):
        for _ in range(60):
            n = int(rng.integers(4, 11))
            m = int(rng.integers(2, 5))
            p = int(rng.integers(1, m + 1))
            a = rng.standard_normal((n, m))
            b = rng.standard_normal(n)
            w = rng.integers(1, 4, size=n).astype(float)
            sol = solve_subset_selection(make_agg(b, a, w), p)
            assert abs(sol.objective - subset_oracle(b, a, w, p)) <= 1e-9
            assert len(sol.support) == p
            off = [j for j in range(m) if j not in sol.support]
            assert all(sol.coefficients[j] == 0.0 for j in off)

    @pytest.mark.parametrize("kind", ["normal", "integer", "duplicated", "exact", "exact-1e8"])
    def test_each_support_is_its_own_lp_bit_for_bit(self, kind, monkeypatch):
        # five or more narrow supports run as one stack, fewer one by one;
        # each support's fit, dual and bound must be those of its own
        # weighted_lad_lp call, cold and from the fits an earlier solve
        # carries, and its dual must certify its bound
        stacks = []
        original = lad.lockstep_dual_simplex

        def recording(a, *args, **kwargs):
            stacks.append(len(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(lad, "lockstep_dual_simplex", recording)
        rng = np.random.default_rng(21)
        for trial in range(6):
            m, p = int(rng.integers(3, 7)), 1 + trial % 3
            target, features = subset_instance(rng, 24, m, kind)
            b, a = target.values[:, 0], features.values
            w = rng.integers(1, 40, size=24)
            supports = list(combinations(range(m), p))
            first = solve_subset_selection(make_agg(b[:12], a[:12], w[:12]), p)
            agg = make_agg(b, a, w)
            scale = float(w @ np.abs(b))
            for prior in (None, (first, np.inf)):
                sol = solve_subset_selection(agg, p, prior=prior)
                starts = [None if prior is None else fit for fit in first.fits]
                fits, duals, bounds = lad._lad_lps(b, a, w, np.array(supports), starts)
                for i, support in enumerate(supports):
                    x, d, objective = lad.weighted_lad_lp(b, a[:, support], w, start=starts[i])
                    assert np.array_equal(sol.fits[i], x) and np.array_equal(fits[i], x)
                    assert np.array_equal(duals[i], d)
                    assert sol.support_bounds[i] == bounds[i] == objective
                    columns = a[:, support]
                    assert np.all(np.abs(d) <= w)
                    assert np.all(np.abs(columns.T @ d) <= 1e-9 * (np.abs(columns).T @ w))
                    assert abs(b @ d - objective) <= bound_slack(b @ d, objective, scale)
        assert stacks and min(stacks) >= lad.STACK_MIN_LPS

    def test_stack_only_for_enough_narrow_supports(self, monkeypatch):
        stacks = []
        original = lad.lockstep_dual_simplex

        def recording(a, *args, **kwargs):
            stacks.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(lad, "lockstep_dual_simplex", recording)
        rng = np.random.default_rng(4)
        widest = lad.STACK_MAX_COLUMNS - 2
        for n, m, p in ((widest, 6, 2), (widest + 1, 6, 2), (24, 4, 1), (24, 5, 1)):
            target, features = subset_instance(rng, n, m, "normal")
            solve_subset_selection(make_agg(target.values[:, 0], features.values), p)
        # C(6, 2) = 15 LPs of 256 columns and C(5, 1) = 5 of 25 stack;
        # 257 columns or C(4, 1) = 4 LPs go one by one
        assert stacks == [(15, 2, lad.STACK_MAX_COLUMNS), (5, 1, 25)]

    def test_tie_breaks_to_lexicographic_support(self):
        # duplicated columns make every singleton support equally good
        a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        b = np.array([1.0, 2.0, 3.0])
        sol = solve_subset_selection(make_agg(b, a), p=1)
        assert sol.support == (0,)

    def test_cap_enforced(self, rng):
        agg = make_agg(rng.standard_normal(4), rng.standard_normal((4, 30)))
        with pytest.raises(InstanceTooLargeError):
            solve_subset_selection(agg, p=15, cap=1000)

    def test_p_out_of_range(self, rng):
        agg = make_agg(rng.standard_normal(4), rng.standard_normal((4, 3)))
        with pytest.raises(ValueError):
            solve_subset_selection(agg, p=4)


class CheckedSubset(SubsetSelectionProblem):
    """Checks every pruned, warm-started solve against the cold unpruned one
    and counts the supports it solved, the non-None entries of its ``fits``.

    Both must pick the same support at objectives within ``bound_slack``; a
    warm start may end at another optimal basis of a degenerate LP. With
    ``bitwise`` the coefficients must also be identical, which holds where
    the optimum is unique.
    """

    def __init__(self, m, p, bitwise=False):
        super().__init__(m, p)
        self.bitwise = bitwise
        self.per_solve = []

    def solve_weighted(self, agg, prior=None):
        pruned = super().solve_weighted(agg, prior)
        self.per_solve.append(sum(fit is not None for fit in pruned.fits))
        full = solve_subset_selection(agg, self.p)
        assert pruned.support == full.support
        scale = float(agg.weights @ np.abs(agg.B_agg[:, 0]))
        slack = bound_slack(pruned.objective, full.objective, scale)
        assert abs(pruned.objective - full.objective) <= slack
        if self.bitwise:
            assert np.array_equal(pruned.coefficients, full.coefficients)
        return pruned


def run_checked(b, a, p, seed=0, k=4, bitwise=False):
    problem = CheckedSubset(a.cols, p, bitwise)
    initial = kmeans_one_pass(DataMatrix(np.hstack([a.values, b.values])), k, seed)
    return problem, run_aid(b, a, problem, initial, AidConfig(tol=0.0))


class TestSubsetPruning:
    @pytest.mark.parametrize(
        "seed,kind", enumerate(["normal", "integer", "duplicated", "exact", "exact-1e8"])
    )
    def test_every_iterate_matches_unpruned_solve(self, seed, kind):
        rng = np.random.default_rng(seed)
        for m in (4, 5, 6):
            for p in (1, 2, 3):
                for trial in range(2):
                    b, a = subset_instance(rng, 90, m, kind)
                    problem, report = run_checked(b, a, p, seed=trial, bitwise=kind == "normal")
                    assert len(problem.per_solve) == report.total_iterations
                    assert problem.per_solve[0] == comb(m, p)

    def test_later_iterations_solve_fewer_supports(self):
        b, a = subset_instance(np.random.default_rng(7), 300, 6, "normal")
        problem, report = run_checked(b, a, 2)
        assert report.total_iterations >= 3
        assert problem.per_solve[0] == 15
        assert all(count < 15 for count in problem.per_solve[1:])

    def test_reused_problem_gives_identical_reports(self):
        b, a = subset_instance(np.random.default_rng(8), 200, 5, "normal")
        problem = SubsetSelectionProblem(5, 2)
        initial = kmeans_one_pass(DataMatrix(np.hstack([a.values, b.values])), 3, 0)
        first = run_aid(b, a, problem, initial, AidConfig(tol=0.0))
        second = run_aid(b, a, problem, initial, AidConfig(tol=0.0))
        assert first.total_iterations >= 2
        assert first.iterations == second.iterations
        assert first.solution.support == second.solution.support
        assert np.array_equal(first.solution.coefficients, second.solution.coefficients)
        assert np.array_equal(first.solution.support_bounds, second.solution.support_bounds)

    def test_skipped_supports_keep_their_bounds(self, rng):
        a = rng.standard_normal((12, 4))
        b = 5.0 * a[:, 1] + 0.1 * rng.standard_normal(12)
        first = solve_subset_selection(make_agg(b, a), p=1)
        assert first.support == (1,)
        second = solve_subset_selection(make_agg(b, a), p=1, prior=(first, first.objective))
        assert np.array_equal(second.support_bounds, first.support_bounds)
        assert second.objective == first.objective

    def test_incumbent_below_every_bound_raises(self, rng):
        agg = make_agg(rng.standard_normal(8), rng.standard_normal((8, 3)))
        first = solve_subset_selection(agg, p=2)
        with pytest.raises(LowerBoundViolationError):
            solve_subset_selection(agg, p=2, prior=(first, first.objective / 2 - 1.0))

    def test_prior_of_other_size_rejected(self, rng):
        agg = make_agg(rng.standard_normal(8), rng.standard_normal((8, 4)))
        with pytest.raises(ValueError, match="bounds"):
            solve_subset_selection(agg, p=2, prior=(solve_subset_selection(agg, p=1), 0.0))


def lad_instance(rng, n, m, kind):
    """(b, a) of a random LAD instance: a ``subset_instance`` kind, or
    "scaled" with column scales 10^6, 1, 10^-6, 1."""
    if kind == "scaled":
        scales = np.array([1e6, 1.0, 1e-6, 1.0])[:m]
        a = rng.standard_normal((n, m)) * scales
        return a @ (rng.uniform(-5, 5, m) / scales) + rng.standard_normal(n), a
    target, features = subset_instance(rng, n, m, kind)
    return target.values[:, 0], features.values


class CheckedLad(LadRegressionProblem):
    """Checks every warm-started solve against a cold one of the same LP."""

    def __init__(self):
        self.warm = 0

    def solve_weighted(self, agg, prior=None):
        warm = super().solve_weighted(agg, prior)
        self.warm += prior is not None
        cold = solve_weighted_lad(agg)
        b, w = agg.B_agg[:, 0], agg.weights
        scale = float(w @ np.abs(b))
        assert abs(warm.objective - cold.objective) <= bound_slack(
            warm.objective, cold.objective, scale
        )
        return warm


@pytest.fixture
def simplex_results(monkeypatch):
    results = []
    original = lad.primal_simplex

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(lad, "primal_simplex", recording)
    return results


class TestWarmStart:
    @pytest.mark.parametrize("kind", ["normal", "integer", "duplicated", "exact", "scaled"])
    def test_prior_fit_start_matches_cold_solve(self, kind):
        rng = np.random.default_rng(11)
        warm = 0
        for m in (3, 4):
            for trial in range(6):
                b, a = lad_instance(rng, 120, m, kind)
                problem = CheckedLad()
                initial = kmeans_one_pass(DataMatrix(np.hstack([a, b[:, None]])), 3, trial)
                run_aid(DataMatrix(b[:, None]), DataMatrix(a), problem, initial)
                warm += problem.warm
        assert warm > 0

    def test_start_at_the_optimum_returns_the_cold_bits(self, rng, simplex_results):
        # a unique optimum has one optimal basis, which x and d are solved
        # from; its residual signs are most of the way there
        steps = {"cold": 0, "warm": 0}
        for _ in range(30):
            n, m = int(rng.integers(5, 30)), int(rng.integers(1, 4))
            a = rng.standard_normal((n, m))
            b = rng.standard_normal(n)
            w = rng.integers(1, 5, size=n).astype(float)
            x, d, objective = lad.weighted_lad_lp(b, a, w)
            again_x, again_d, again = lad.weighted_lad_lp(b, a, w, start=x)
            assert np.array_equal(again_x, x)
            assert np.array_equal(again_d, d)
            assert again == objective
            for result, key in zip(simplex_results[-2:], ("cold", "warm")):
                steps[key] += result.pivots + result.flips
        assert steps["warm"] < steps["cold"]

    def test_start_with_more_free_entries_than_rows(self, rng, simplex_results):
        # a start that fits more than m rows exactly leaves their residual
        # signs, and so their starting bounds, undecided by the fit
        for _ in range(30):
            n, m = int(rng.integers(8, 30)), int(rng.integers(1, 4))
            a = rng.integers(-5, 6, size=(n, m)).astype(float)
            x0 = rng.integers(-3, 4, size=m).astype(float)
            b = a @ x0
            exact = int(rng.integers(m + 1, n))
            b[exact:] += rng.integers(-4, 5, size=n - exact)
            w = rng.integers(1, 5, size=n).astype(float)
            assert np.count_nonzero(b - a @ x0 == 0) > m
            _, _, cold = lad.weighted_lad_lp(b, a, w)
            _, warm_d, warm = lad.weighted_lad_lp(b, a, w, start=x0)
            assert abs(warm - cold) <= bound_slack(warm, cold, float(w @ np.abs(b)))
            assert np.all(np.abs(warm_d) <= w)
            assert np.all(np.abs(a.T @ warm_d) <= 1e-9 * (np.abs(a).T @ w))
            assert abs(b @ warm_d - warm) <= 1e-9 * (1 + float(w @ np.abs(b)))

    def test_inconsistent_start_is_ignored(self, rng, simplex_results):
        # a start whose residual signs all agree with the target's sets no
        # bound the cold start does not, however far its fit is from the data
        a = rng.standard_normal((20, 2))
        b = rng.standard_normal(20)
        w = np.ones(20)
        cold = lad.weighted_lad_lp(b, a, w)
        small = 1e-3 * np.min(np.abs(b)) / np.abs(a).sum(axis=1).max()
        for start in (np.zeros(2), np.full(2, small)):
            assert np.all(np.sign(b - a @ start) == np.sign(b))
            warm = lad.weighted_lad_lp(b, a, w, start=start)
            for left, right in zip(cold, warm):
                assert np.array_equal(left, right)
            cold_run, warm_run = simplex_results[0], simplex_results[-1]
            assert (warm_run.pivots, warm_run.flips) == (cold_run.pivots, cold_run.flips)

    @pytest.mark.parametrize("kind", ["normal", "integer", "duplicated", "exact", "scaled"])
    def test_any_coefficient_start_reaches_the_cold_optimum(self, kind):
        # every bound pattern is a valid start, however far off its fit
        rng = np.random.default_rng(12)
        for trial in range(24):
            n, m = int(rng.integers(6, 40)), int(rng.integers(3, 5))
            b, a = lad_instance(rng, n, m, kind)
            w = rng.integers(1, 5, size=n).astype(float)
            cold_x, _, cold = lad.weighted_lad_lp(b, a, w)
            off = 10.0 ** [0, 3, 6][trial % 3]
            start = cold_x * rng.uniform(-off, off, m) + off * rng.standard_normal(m)
            _, d, warm = lad.weighted_lad_lp(b, a, w, start=start)
            assert abs(warm - cold) <= bound_slack(warm, cold, float(w @ np.abs(b)))
            assert np.all(np.abs(d) <= w)
            assert np.all(np.abs(a.T @ d) <= 1e-9 * (np.abs(a).T @ w))
