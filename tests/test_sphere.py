import numpy as np
import pytest

from aidfit.clustering import kmeans_one_pass
from aidfit.core import AidConfig, run_aid
from aidfit.linalg import DataMatrix
from aidfit.problems import SphereRegressionProblem
from aidfit.problems.lad import solve_weighted_lad
from aidfit.problems.sphere import (
    SphereNotConvergedError,
    solve_sphere_lad,
)
from conftest import make_agg
from oracles import sphere_grid_oracle, sphere_interval_oracle


class TestFastPath:
    def test_huge_radius_equals_unconstrained(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 25))
            m = int(rng.integers(1, 5))
            a = rng.standard_normal((n, m))
            b = rng.standard_normal(n)
            w = rng.integers(1, 5, size=n)
            unconstrained = solve_weighted_lad(make_agg(b, a, w))
            sol = solve_sphere_lad(make_agg(b, a, w), radius=1e9)
            assert abs(sol.objective - unconstrained.objective) <= 1e-6
            assert sol.certified_gap <= 1e-7 * (1 + sol.objective)


class TestBoundary:
    def test_one_dimensional_projection(self):
        sol = solve_sphere_lad(make_agg([10.0, 10.0], [[1.0], [1.0]]), radius=4.0)
        assert sol.coefficients[0] == pytest.approx(2.0, abs=1e-7)
        assert sol.objective == pytest.approx(16.0, abs=1e-9)

    def test_matches_disk_grid(self, rng):
        # binding-constraint 10x2 instance against a dense polar grid
        a = rng.standard_normal((10, 2))
        b = a @ np.array([4.0, -3.0]) + rng.standard_normal(10)
        w = rng.integers(1, 4, size=10).astype(float)
        unconstrained = solve_weighted_lad(make_agg(b, a, w))
        radius = 0.3 * float(
            unconstrained.coefficients @ unconstrained.coefficients
        )
        sol = solve_sphere_lad(make_agg(b, a, w), radius=radius, tol=1e-9)
        # fine grid: resolution ~1e-3 in radius fraction
        ref = sphere_grid_oracle(b, a, w, radius, n_r=1000, n_t=3000)
        assert sol.objective <= ref + 1e-6
        assert sol.objective >= ref - 1e-2 * (1 + ref)

    def test_matches_interval_scan_m1(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 15))
            a = rng.standard_normal((n, 1))
            b = a[:, 0] * 8.0 + rng.standard_normal(n)
            w = rng.integers(1, 4, size=n).astype(float)
            sol = solve_sphere_lad(make_agg(b, a, w), radius=4.0, tol=1e-9)
            ref = sphere_interval_oracle(b, a, w, 4.0)
            assert abs(sol.objective - ref) <= 1e-3 * (1 + ref)

    def test_coarse_grid_sweep(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 30))
            a = rng.standard_normal((n, 2))
            b = a @ rng.uniform(2, 8, 2) + rng.standard_normal(n)
            w = rng.integers(1, 5, size=n).astype(float)
            unc = solve_weighted_lad(make_agg(b, a, w))
            radius = float(unc.coefficients @ unc.coefficients) * 0.4 + 1e-3
            sol = solve_sphere_lad(make_agg(b, a, w), radius=radius, tol=1e-9)
            ref = sphere_grid_oracle(b, a, w, radius)
            assert sol.objective <= ref + 1e-6
            assert sol.objective >= ref - 2e-2 * (1 + ref)


class TestContract:
    def test_solution_inside_ball(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 40))
            m = int(rng.integers(1, 5))
            a = rng.standard_normal((n, m))
            b = a @ rng.uniform(0, 10, m) + rng.standard_normal(n)
            w = rng.integers(1, 5, size=n)
            radius = float(rng.uniform(0.5, 50.0))
            sol = solve_sphere_lad(make_agg(b, a, w), radius=radius, tol=1e-9)
            assert float(sol.coefficients @ sol.coefficients) <= radius + 1e-9
            assert sol.certified_gap <= 1e-9 * (1 + abs(sol.objective))
            recomputed = float(w @ np.abs(b - a @ sol.coefficients))
            assert sol.objective == pytest.approx(recomputed, abs=1e-9)

    def test_default_tolerance_satisfied(self, rng):
        a = rng.standard_normal((30, 3))
        b = a @ np.array([5.0, 5.0, 5.0]) + rng.standard_normal(30)
        sol = solve_sphere_lad(make_agg(b, a), radius=10.0)
        assert sol.certified_gap <= 1e-7 * (1 + abs(sol.objective))

    def test_budget_exhaustion_carries_best_iterate(self, rng):
        a = rng.standard_normal((20, 2))
        b = a @ np.array([9.0, -7.0]) + rng.standard_normal(20)
        with pytest.raises(SphereNotConvergedError) as err:
            solve_sphere_lad(make_agg(b, a), radius=1.0, tol=1e-12, max_iters=1)
        sol = err.value.solution
        assert float(sol.coefficients @ sol.coefficients) <= 1.0 + 1e-9
        assert sol.certified_gap > 0

    def test_invalid_inputs(self, rng):
        agg = make_agg(rng.standard_normal(5), rng.standard_normal((5, 2)))
        with pytest.raises(ValueError):
            solve_sphere_lad(agg, radius=-1.0)
        with pytest.raises(ValueError):
            solve_sphere_lad(agg, radius=1.0, tol=0.0)
        with pytest.raises(ValueError):
            solve_sphere_lad(agg, radius=1.0, max_iters=0)


class TestExactFitsAndScale:
    def test_interpolant_inside_ball(self, rng):
        # fewer rows than coefficients: every interpolant fits exactly, the
        # LP's vertex lies outside the ball and the minimum-norm one inside,
        # where the snap has no direction left to move in
        checked = 0
        for _ in range(40):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(k + 1, 6))
            a = rng.standard_normal((k, m))
            b = 5.0 * rng.standard_normal(k)
            x0 = np.linalg.lstsq(a, b, rcond=None)[0]
            radius = 1.5 * float(x0 @ x0)
            vertex = solve_weighted_lad(make_agg(b, a)).coefficients
            if float(vertex @ vertex) <= radius:
                continue
            sol = solve_sphere_lad(make_agg(b, a), radius=radius, tol=1e-11)
            assert float(sol.coefficients @ sol.coefficients) <= radius * (1 + 1e-12)
            assert sol.objective <= 1e-12 * (1 + float(np.abs(b).sum()))
            checked += 1
        assert checked >= 20

    def test_scaled_exact_fits(self, rng):
        # n <= m rows fit exactly; A and b scaled together scale the optimum
        for _ in range(30):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, m + 1))
            a = rng.standard_normal((n, m))
            b = 3.0 * rng.standard_normal(n)
            w = rng.integers(1, 5, size=n)
            x0 = np.linalg.lstsq(a, b, rcond=None)[0]
            radius = float(x0 @ x0) * float(rng.uniform(0.3, 3.0))
            base = solve_sphere_lad(make_agg(b, a, w), radius=radius).objective
            for scale in (1e3, 1e6):
                sol = solve_sphere_lad(make_agg(b * scale, a * scale, w), radius=radius)
                assert abs(sol.objective - scale * base) <= 1e-9 * scale * (1 + base)

    def test_power_of_two_scaling(self, rng):
        # the LP is exactly scale-free under powers of two; the stop test
        # is not, so compare through the certified gaps
        scale = 2.0**-30
        for _ in range(60):
            n = int(rng.integers(4, 40))
            m = int(rng.integers(1, 5))
            a = rng.standard_normal((n, m))
            b = a @ rng.uniform(0, 10, m) + rng.standard_normal(n)
            w = rng.integers(1, 5, size=n)
            radius = float(rng.uniform(0.5, 50.0))
            base = solve_sphere_lad(make_agg(b, a, w), radius=radius, tol=1e-11)
            sol = solve_sphere_lad(make_agg(b * scale, a * scale, w), radius=radius, tol=1e-11)
            slack = sol.certified_gap + scale * (base.certified_gap + 1e-12 * base.objective)
            assert abs(sol.objective - scale * base.objective) <= slack

    def test_large_exact_fits_at_tight_tol(self, rng):
        # the rounding noise of an exact fit's objective, about 1e-16 of the
        # target's magnitude, must not count as a gap to close
        for _ in range(60):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, m + 1))
            a = rng.standard_normal((n, m)) * 1e6
            b = 3e6 * rng.standard_normal(n)
            w = rng.integers(1, 5, size=n)
            x0 = np.linalg.lstsq(a, b, rcond=None)[0]
            radius = float(x0 @ x0) * float(rng.uniform(0.3, 3.0))
            sol = solve_sphere_lad(make_agg(b, a, w), radius=radius, tol=1e-11)
            assert float(sol.coefficients @ sol.coefficients) <= radius * (1 + 1e-12)

    def test_small_data_keeps_the_relative_gap(self, rng):
        # at 2^-30 the objective is about 1e-8, so a gap test absolute in
        # the objective would stop far above tol
        scale = 2.0**-30
        for _ in range(60):
            n = int(rng.integers(4, 40))
            m = int(rng.integers(1, 5))
            a = rng.standard_normal((n, m))
            b = a @ rng.uniform(0, 10, m) + rng.standard_normal(n)
            w = rng.integers(1, 5, size=n)
            radius = float(rng.uniform(0.5, 50.0))
            sol = solve_sphere_lad(make_agg(b * scale, a * scale, w), radius=radius, tol=1e-11)
            assert sol.certified_gap <= 1e-11 * sol.objective


class RecordingSphere(SphereRegressionProblem):
    def __init__(self, radius, tol):
        super().__init__(radius, tol)
        self.solves = []

    def solve_weighted(self, agg, prior=None):
        solution = super().solve_weighted(agg, prior)
        self.solves.append((agg, solution))
        return solution


class TestAggregatedBound:
    def test_recorded_bound_lies_below_the_aggregated_optimum(self, rng):
        # a loose solver tolerance leaves the primal objectives above the
        # aggregated optima; the recorded bound must still lie below them
        checked = 0
        for seed in range(6):
            a = rng.standard_normal((120, 3))
            b = a @ np.array([4.0, -3.0, 2.0]) + rng.standard_normal(120)
            problem = RecordingSphere(radius=9.0, tol=1e-4)
            initial = kmeans_one_pass(DataMatrix(np.hstack([a, b[:, None]])), 6, seed)
            config = AidConfig(tol=0.0)
            report = run_aid(DataMatrix(b[:, None]), DataMatrix(a), problem, initial, config)
            for rec, (agg, solution) in zip(report.iterations, problem.solves):
                assert rec.aggregated_objective == solution.objective - solution.certified_gap
                optimum = solve_sphere_lad(agg, radius=9.0, tol=1e-12).objective
                assert rec.aggregated_objective <= optimum * (1.0 + 1e-12)
                checked += solution.certified_gap > 1e-9 * optimum
        assert checked > 0
