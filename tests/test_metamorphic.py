"""Metamorphic checks of ``lad``, ``subset`` and ``l1pca`` through ``run_aid``.

Each test transforms an instance in a way whose effect on the optimum is
known in closed form and runs the whole loop, from a k-means partition of
the transformed data, on both. Power-of-two scaling rounds nothing inside
the regression loop, so it must give the same bits. The other transforms
must give the same certified optimum, transformed, to a relative tolerance,
and on small instances the optimum of ``tests/oracles.py`` or, for
``l1pca``, of ``solve_l1pca_exact`` on the untransformed rows.
"""

import numpy as np
import pytest

from aidfit.clustering import kmeans_one_pass
from aidfit.core import AidConfig, run_aid
from aidfit.linalg import DataMatrix
from aidfit.problems import (
    LadRegressionProblem,
    PcaProjectionProblem,
    SubsetSelectionProblem,
    solve_l1pca_exact,
)
from oracles import lad_vertex_oracle, subset_oracle

P = 2
PROBLEMS = ["lad", "subset"]
REL = 1e-9


def instance(seed, n=150, m=4):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, m))
    b = a[:, :P] @ rng.uniform(1.0, 10.0, P) + rng.standard_normal(n)
    return b, a


def solve(problem, b, a, seed=0, k=6):
    """A certified run of ``problem`` on (b, a)."""
    initial = kmeans_one_pass(DataMatrix(np.hstack([a, b[:, None]])), k, seed)
    fit = LadRegressionProblem() if problem == "lad" else SubsetSelectionProblem(a.shape[1], P)
    report = run_aid(DataMatrix(b[:, None]), DataMatrix(a), fit, initial, AidConfig(tol=0.0))
    assert report.termination in ("optimality_condition", "fully_disaggregated")
    return report


def counts(report):
    return [record.cluster_count for record in report.iterations]


def assert_close(value, expected, scale):
    assert abs(value - expected) <= REL * scale


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("seed", range(6))
def test_power_of_two_scaling_is_bitwise(problem, seed):
    b, a = instance(seed)
    base = solve(problem, b, a)
    for k in (7, -9, 30):
        scaled = solve(problem, np.ldexp(b, k), np.ldexp(a, k))
        assert np.array_equal(scaled.solution.coefficients, base.solution.coefficients)
        assert scaled.termination == base.termination
        assert counts(scaled) == counts(base)
        assert scaled.best_objective == np.ldexp(base.best_objective, k)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_row_permutation(problem):
    for seed in range(3):
        b, a = instance(seed)
        order = np.random.default_rng(seed).permutation(b.size)
        base = solve(problem, b, a).best_objective
        assert_close(solve(problem, b[order], a[order]).best_objective, base, base)


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("k", [-9, -3, 3, 9])
def test_decimal_scaling(problem, k):
    b, a = instance(k + 20)
    base = solve(problem, b, a)
    scaled = solve(problem, b * 10.0**k, a * 10.0**k)
    assert_close(scaled.best_objective, base.best_objective * 10.0**k, scaled.best_objective)
    coefficients = base.solution.coefficients
    assert np.allclose(scaled.solution.coefficients, coefficients, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_column_scaling(problem):
    # a column scaled by s takes the coefficient divided by s
    for seed, scales in enumerate([(1e6, 1.0, 1e-6, 1.0), (1e-6, 1e6, 1.0, 1e6)]):
        b, a = instance(seed + 30)
        base = solve(problem, b, a)
        scaled = solve(problem, b, a * np.array(scales))
        assert_close(scaled.best_objective, base.best_objective, base.best_objective)
        rescaled = scaled.solution.coefficients * np.array(scales)
        assert np.allclose(rescaled, base.solution.coefficients, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_duplicated_rows_double_the_objective(problem):
    for seed in range(3):
        b, a = instance(seed + 40)
        base = solve(problem, b, a).best_objective
        twice = solve(problem, np.concatenate([b, b]), np.vstack([a, a])).best_objective
        assert_close(twice, 2.0 * base, base)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_exact_fit(problem):
    for seed in range(3):
        rng = np.random.default_rng(seed + 50)
        a = rng.standard_normal((150, 4))
        truth = np.array([3.0, -7.0, 0.0, 0.0])
        report = solve(problem, a @ truth, a)
        assert report.best_objective <= REL * float(np.abs(a @ truth).sum())
        assert np.allclose(report.solution.coefficients, truth, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_constant_column_absorbs_a_shift(problem):
    # with an intercept column, shifting the target moves only the intercept;
    # the data put it in the best support, where every support keeps its value
    for seed in range(3):
        rng = np.random.default_rng(seed + 60)
        a = rng.standard_normal((150, 4))
        a[:, 0] = 1.0
        b = a[:, :P] @ rng.uniform(1.0, 10.0, P) + rng.standard_normal(150)
        base = solve(problem, b, a)
        shifted = solve(problem, b + 250.0, a)
        if problem == "subset":
            assert shifted.solution.support == base.solution.support == (0, 1)
        assert_close(shifted.best_objective, base.best_objective, base.best_objective)
        moved = shifted.solution.coefficients - base.solution.coefficients
        assert np.allclose(moved, [250.0, 0.0, 0.0, 0.0], rtol=1e-9, atol=1e-6)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_collinear_column_changes_nothing(problem):
    # a multiple of column 0 adds no fit: every support using it has a
    # support of the original columns that spans as much
    for seed in range(3):
        b, a = instance(seed + 70)
        base = solve(problem, b, a).best_objective
        wider = solve(problem, b, np.hstack([a, -2.5 * a[:, :1]])).best_objective
        assert_close(wider, base, base)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_small_transformed_instances_match_the_oracles(problem):
    for seed in range(6):
        rng = np.random.default_rng(seed + 80)
        n, m = int(rng.integers(8, 14)), 3
        a = rng.standard_normal((n, m))
        b = a @ rng.uniform(-5.0, 5.0, m) + rng.standard_normal(n)
        if seed % 2:
            a[:, 2] = 1.0
        w = np.ones(n)
        expected = lad_vertex_oracle(b, a, w) if problem == "lad" else subset_oracle(b, a, w, P)
        order = rng.permutation(n)
        # (target, features, factor on the optimum)
        cases = [
            (b, a, 1.0),
            (b[order], a[order], 1.0),
            (b * 1e-6, a * 1e-6, 1e-6),
            (b * 1e6, a * 1e6, 1e6),
            (b, a * np.array([1e6, 1.0, 1e-6]), 1.0),
            (np.concatenate([b, b]), np.vstack([a, a]), 2.0),
        ]
        for target, features, factor in cases:
            report = solve(problem, target, features, seed, k=3)
            scale = float(np.abs(target).sum())
            assert_close(report.best_objective, expected * factor, scale)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_fewer_rows_than_columns(problem):
    # with n < m every row can be fitted exactly; a support of p <= n columns
    # is an ordinary small instance
    for seed in range(10):
        rng = np.random.default_rng(seed + 90)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        report = solve(problem, b, a, seed, k=2)
        scale = float(np.abs(b).sum())
        if problem == "lad":
            assert report.best_objective <= REL * scale
        else:
            assert_close(report.best_objective, subset_oracle(b, a, np.ones(3), P), scale)


def test_l1pca_transformed_instances_match_the_exact_solve():
    # a scaled copy scales the optimum, a permuted copy keeps it
    for seed in range(3):
        rng = np.random.default_rng(seed + 100)
        a = rng.standard_normal((14, 3))
        expected = solve_l1pca_exact(DataMatrix(a), 1).objective
        order = rng.permutation(14)
        cases = [(a[order], 1.0)] + [
            (a * factor, factor) for factor in (2.0**-30, 2.0**30, 1e-9, 1e-3, 1e3, 1e9)
        ]
        for rows, factor in cases:
            problem = PcaProjectionProblem(1)
            initial = kmeans_one_pass(DataMatrix(rows), 3, seed)
            report = run_aid(
                problem.zero_target(14), DataMatrix(rows), problem, initial, AidConfig(tol=0.0)
            )
            assert report.certified_optimal
            assert_close(report.best_objective, expected * factor, expected * factor)
