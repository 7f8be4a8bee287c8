import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataclasses import replace

from aidfit.core import (
    AggregatedInstance,
    AidConfig,
    ClusterPartition,
    DeclusterError,
    IterationLimitError,
    LowerBoundViolationError,
    PartitionError,
    aggregate,
    check_optimality,
    decluster,
    optimality_gap,
    refine,
    residual_signs,
    run_aid,
    sign_codes,
    validate_report,
)
from aidfit.clustering import (
    InitialClusterConfig,
    build_initial_partition,
    default_initial_cluster_count,
    kmeans_one_pass,
)
from aidfit.data_io import SyntheticSpec, generate_instance
from aidfit.linalg import DataMatrix, matmul
from aidfit.problems import (
    LadRegressionProblem,
    PcaProjectionProblem,
    SphereRegressionProblem,
    SubsetSelectionProblem,
    solve_weighted_lad,
)
from conftest import clusters_of, make_agg, partition_of
from oracles import (
    cluster_means,
    counter_decluster,
    l1pca_enumeration_oracle,
    lad_vertex_oracle,
    pattern_group_check,
)


def random_partition(rng, n, k) -> ClusterPartition:
    labels = rng.integers(0, k, size=n)
    labels[rng.choice(n, size=min(k, n), replace=False)] = np.arange(min(k, n))
    return ClusterPartition.from_labels(labels)


class TestClusterPartition:
    def test_from_labels_rejects_non_vector_labels(self):
        with pytest.raises(PartitionError, match="one-dimensional"):
            ClusterPartition.from_labels([[0, 1], [1, 0]])
        with pytest.raises(PartitionError, match="one-dimensional"):
            ClusterPartition.from_labels(3)

    def test_singletons(self):
        p = ClusterPartition.singletons(4)
        assert p.cluster_count == 4
        assert p.labels().tolist() == [0, 1, 2, 3]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 8), st.integers(0, 10_000))
    def test_from_labels_always_valid(self, n, k, seed):
        rng = np.random.default_rng(seed)
        p = random_partition(rng, n, min(k, n))
        assert sorted(np.concatenate(clusters_of(p)).tolist()) == list(range(n))
        assert all(np.all(np.diff(rows) > 0) for rows in clusters_of(p))

    @pytest.mark.parametrize("n, count", [(1, 1), (500, 7), (10_000, 150), (70_000, 70_000)])
    def test_linear_index_matches_unique_and_stable_argsort(self, n, count):
        # 70 000 clusters do not fit 16-bit sort keys, so the int64 sort runs
        rng = np.random.default_rng(count)
        raw = rng.permutation(n) if count == n else 2 * rng.integers(0, count, size=n)
        part = ClusterPartition.from_labels(raw)
        values, compact = np.unique(raw, return_inverse=True)
        assert part.cluster_count == values.size
        assert np.array_equal(part.labels(), compact)
        assert np.array_equal(part.order, np.argsort(compact, kind="stable"))
        assert np.array_equal(part.sizes, np.bincount(compact))
        # negative labels take the np.unique route
        shifted = ClusterPartition.from_labels(raw - n)
        assert shifted == part
        assert np.array_equal(shifted.order, part.order)
        assert partition_of(n, clusters_of(part)) == part


class TestAggregate:
    def test_mean_of_two_rows(self):
        b = np.array([[1.0, 3.0], [5.0, 7.0]])
        a = np.array([[0.0], [2.0]])
        agg = aggregate(b, a, ClusterPartition.from_labels([0, 0]))
        assert agg.B_agg.tolist() == [[3.0, 5.0]]
        assert agg.A_agg.tolist() == [[1.0]]
        assert np.array_equal(agg.weights, [2])

    def test_singleton_partition_is_identity(self, rng):
        b = rng.standard_normal((5, 2))
        a = rng.standard_normal((5, 3))
        agg = aggregate(b, a, ClusterPartition.singletons(5))
        assert np.array_equal(agg.B_agg, b)
        assert np.array_equal(agg.A_agg, a)
        assert np.array_equal(agg.weights, np.ones(5))

    def test_matches_mean_oracle(self, rng):
        b = rng.standard_normal((10, 3))
        a = rng.standard_normal((10, 2))
        part = random_partition(rng, 10, 3)
        agg = aggregate(b, a, part)
        ref_b = cluster_means(b, clusters_of(part))
        ref_a = cluster_means(a, clusters_of(part))
        assert np.abs(agg.B_agg - ref_b).max() <= 1e-12
        assert np.abs(agg.A_agg - ref_a).max() <= 1e-12
        assert agg.weights.sum() == 10

    def test_row_count_mismatch(self, rng):
        b = rng.standard_normal((4, 1))
        a = rng.standard_normal((5, 2))
        with pytest.raises(PartitionError):
            aggregate(b, a, ClusterPartition.singletons(5))

    def test_weights_validated(self):
        with pytest.raises(PartitionError):
            AggregatedInstance(
                B_agg=np.zeros((1, 1)), A_agg=np.zeros((1, 1)), weights=np.zeros(1, dtype=int)
            )


class TestResidualSigns:
    def test_direct_signs(self):
        signs = residual_signs(np.array([[2.0, -3.0]]), eps_sign=0.0)
        assert signs.tolist() == [[1, -1]]

    def test_zero_maps_to_plus(self):
        signs = residual_signs(np.array([[0.0, 0.0]]))
        assert signs.tolist() == [[1, 1]]

    def test_zero_band(self):
        signs = residual_signs(np.array([[-1e-12, 5.0]]), eps_sign=1e-9)
        assert signs.tolist() == [[1, 1]]

    def test_shape_mismatch(self):
        # a residual must keep its (n, q) shape; a flat vector is refused
        with pytest.raises(PartitionError):
            residual_signs(np.array([1.0, 2.0]))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            residual_signs(np.array([[1.0]]), eps_sign=-1.0)


class TestCheckOptimality:
    def test_uniform_positive_residuals(self, rng):
        a = rng.standard_normal((6, 2))
        b = a @ np.array([1.0, 2.0]) + 1.0  # all residuals +1 at the true coefficients
        prob = LadRegressionProblem()
        sol = type("S", (), {"coefficients": np.array([1.0, 2.0]), "objective": 6.0})()
        residual = b.reshape(-1, 1) - prob.apply_f(sol, a)
        ok, violating, codes = check_optimality(residual, ClusterPartition.from_labels([0] * 6))
        assert ok and violating.tolist() == [] and codes.tolist() == [0] * 6

    def test_mixed_cluster_detected(self):
        b = np.array([[1.0], [-1.0]])
        a = np.array([[1.0], [1.0]])
        prob = LadRegressionProblem()
        sol = type("S", (), {"coefficients": np.array([0.0]), "objective": 2.0})()
        residual = b - prob.apply_f(sol, a)
        ok, violating, _ = check_optimality(residual, ClusterPartition.from_labels([0, 0]))
        assert not ok and violating.tolist() == [0]

    def test_matches_grouping_oracle(self, rng):
        n = 20
        a = rng.standard_normal((n, 2))
        b = rng.standard_normal((n, 1))
        part = random_partition(rng, n, 5)
        prob = LadRegressionProblem()
        sol = type("S", (), {"coefficients": rng.standard_normal(2), "objective": 0.0})()
        residual = b - prob.apply_f(sol, a)
        ok, violating, codes = check_optimality(residual, part)
        signs = residual_signs(residual)
        assert np.array_equal(codes, sign_codes(signs))
        ref = pattern_group_check(signs, clusters_of(part))
        assert violating.dtype == np.int64 and violating.tolist() == ref
        assert ok == (len(ref) == 0)

    def test_given_residual_matches_evaluation(self, rng):
        # the codes and the verdict are those of the residual's own signs,
        # whatever the zero band
        n = 30
        a = rng.standard_normal((n, 3))
        b = rng.standard_normal((n, 1))
        part = random_partition(rng, n, 6)
        prob = LadRegressionProblem()
        sol = type("S", (), {"coefficients": rng.standard_normal(3), "objective": 0.0})()
        residual = b - prob.apply_f(sol, a)
        for eps_sign in (0.0, 1e-9, 0.5):
            ok, violating, codes = check_optimality(residual, part, eps_sign)
            signs = residual_signs(residual, eps_sign)
            assert np.array_equal(codes, sign_codes(signs))
            assert violating.tolist() == pattern_group_check(signs, clusters_of(part))
            assert ok == (violating.size == 0)


class TestDecluster:
    def test_traced_split(self):
        # patterns: rows 0..3 -> (+,+), (+,-), (+,-), (-,+); mode is (+,-)
        signs = [(1, 1), (1, -1), (1, -1), (-1, 1)]
        part = ClusterPartition.from_labels([0] * 4)
        out = decluster(part, sign_codes(signs), np.array([0]))
        assert out == ClusterPartition.from_labels([1, 0, 0, 1])
        assert out.rows(0).tolist() == [1, 2] and out.rows(1).tolist() == [0, 3]

    def test_no_violators_is_noop(self):
        part = ClusterPartition.from_labels([0, 0, 1])
        out = decluster(part, sign_codes([(1,), (1,), (1,)]), np.array([], dtype=np.int64))
        assert np.array_equal(out.order, part.order)
        assert out == part and hash(out) == hash(part)

    def test_tie_break_exhaustive_two_pattern_ties(self):
        # every unordered pair of distinct q=2 patterns, two rows each
        patterns = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        order = {p: i for i, p in enumerate(patterns)}  # +1 sorts before -1
        for i in range(4):
            for j in range(i + 1, 4):
                signs = [patterns[i], patterns[j], patterns[i], patterns[j]]
                part = ClusterPartition.from_labels([0] * 4)
                out = decluster(part, sign_codes(signs), np.array([0]))
                mode = patterns[min(i, j, key=lambda t: order[patterns[t]])]
                mode_rows = [k for k in range(4) if signs[k] == mode]
                assert out.rows(0).tolist() == mode_rows

    def test_single_pattern_violator_rejected(self):
        part = ClusterPartition.from_labels([0, 0])
        with pytest.raises(DeclusterError):
            decluster(part, sign_codes([(1,), (1,)]), np.array([0]))

    def test_bad_cluster_index_rejected(self):
        part = ClusterPartition.from_labels([0, 0])
        with pytest.raises(DeclusterError):
            decluster(part, sign_codes([(1,), (-1,)]), np.array([3]))
        # the split needs the violating clusters ascending and distinct
        part = ClusterPartition.from_labels([0, 0, 1, 1])
        for violating in ([1, 0], [0, 0]):
            with pytest.raises(DeclusterError, match="not ascending"):
                decluster(part, sign_codes([(1,), (-1,)] * 2), np.array(violating))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 9999))
    def test_partition_stays_valid_and_grows(self, n, seed):
        rng = np.random.default_rng(seed)
        part = random_partition(rng, n, max(1, n // 4))
        signs = [tuple(1 if v else -1 for v in rng.integers(0, 2, 2)) for _ in range(n)]
        violating = np.array(pattern_group_check(signs, clusters_of(part)), dtype=np.int64)
        out = decluster(part, sign_codes(signs), violating)
        assert sorted(np.concatenate(clusters_of(out)).tolist()) == list(range(n))
        assert out.cluster_count == part.cluster_count + len(violating)
        assert out.cluster_count <= 2 * part.cluster_count


@st.composite
def labelled_signs(draw):
    q = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    labels = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    pattern = st.tuples(*[st.sampled_from((1, -1))] * q)
    return labels, draw(st.lists(pattern, min_size=n, max_size=n))


@st.composite
def split_chains(draw):
    """A labelled partition and two or three split steps: ``decluster`` with
    fresh sign patterns per row, or ``refine`` with a flag per cluster."""
    q = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    labels = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    pattern = st.tuples(*[st.sampled_from((1, -1))] * q)
    steps = []
    for _ in range(draw(st.integers(2, 3))):
        if draw(st.booleans()):
            steps.append(("decluster", draw(st.lists(pattern, min_size=n, max_size=n))))
        else:
            steps.append(("refine", draw(st.lists(st.booleans(), min_size=1, max_size=8))))
    return n, q, labels, steps


class AlternateHalves:
    """A refinement split that sends every other row of a cluster to its second half."""

    def split_cluster(self, a, cluster):
        return cluster[1::2]


class TestArrayPath:
    """check_optimality, decluster and aggregate against the loop-based oracles."""

    @settings(max_examples=150, deadline=None)
    @given(labelled_signs())
    @example(([0, 0, 1, 1, 2, 2, 2], [(1,), (-1,), (-1,), (1,), (1,), (-1,), (-1,)]))
    @example(([0, 0, 0, 0], [(1, -1), (-1, 1), (-1, 1), (1, -1)]))
    @example(([3, 0, 2, 1], [(1, 1, -1), (-1, -1, 1), (1, 1, 1), (-1, 1, -1)]))
    def test_matches_tuple_reference(self, case):
        labels, signs = case
        n = len(labels)
        part = ClusterPartition.from_labels(labels)
        b = np.array(signs, dtype=float)
        a = np.sin(np.arange(3.0 * n)).reshape(n, 3)
        ok, violating, codes = check_optimality(b, part, eps_sign=0.0)
        assert np.array_equal(codes, sign_codes(signs))
        assert violating.tolist() == pattern_group_check(signs, clusters_of(part))
        assert ok == (violating.size == 0)

        out = decluster(part, codes, violating)
        expected = partition_of(n, counter_decluster(signs, clusters_of(part), violating))
        assert out == expected
        assert [rows.tolist() for rows in clusters_of(out)] == [
            rows.tolist() for rows in clusters_of(expected)
        ]

        # means of the clusters a split kept are reused bit for bit
        reused = aggregate(b, a, out, previous=aggregate(b, a, part))
        fresh = aggregate(b, a, expected)
        assert np.array_equal(reused.B_agg, fresh.B_agg)
        assert np.array_equal(reused.A_agg, fresh.A_agg)
        assert np.array_equal(reused.weights, fresh.weights)

    @settings(max_examples=100, deadline=None)
    @given(split_chains())
    @example((5, 1, [0] * 5, [("refine", [True]), ("decluster", [(1,), (-1,), (1,), (-1,), (1,)])]))
    def test_chained_splits_match_from_labels(self, case):
        # later steps split partitions that _split built, whose labels are
        # not derived until the end
        n, q, labels, steps = case
        a = np.sin(np.arange(3.0 * n)).reshape(n, 3)
        b = np.cos(np.arange(float(q) * n)).reshape(n, q)
        part = ClusterPartition.from_labels(labels)
        agg = aggregate(b, a, part)
        chain = []
        for kind, draw in steps:
            clusters = [tuple(rows.tolist()) for rows in clusters_of(part)]
            if kind == "decluster":
                _, violating, codes = check_optimality(np.array(draw, dtype=float), part, 0.0)
                split = set(violating.tolist())
                expected = counter_decluster(draw, clusters, split)
                out = decluster(part, codes, violating)
            else:
                split = {
                    c for c, rows in enumerate(clusters) if len(rows) > 1 and draw[c % len(draw)]
                }
                expected = tuple(
                    half for c, rows in enumerate(clusters)
                    for half in ((rows[0::2], rows[1::2]) if c in split else (rows,))
                )
                terms = np.array([1.0 if c in split else 0.0 for c in range(len(clusters))])
                out = refine(a, AlternateHalves(), part, terms)
            parent = [c for c in range(len(clusters)) for _ in range(1 + (c in split))]
            reference = partition_of(n, expected)
            assert out._labels is None
            assert np.array_equal(out.order, reference.order)
            assert np.array_equal(out.starts, reference.starts)
            assert np.array_equal(out.sizes, reference.sizes)
            assert out.parent.tolist() == parent
            assert out.fresh().tolist() == [c in split for c in parent]
            agg = aggregate(b, a, out, previous=agg)
            scratch = aggregate(b, a, out)
            assert np.array_equal(agg.B_agg, scratch.B_agg)
            assert np.array_equal(agg.A_agg, scratch.A_agg)
            assert np.array_equal(agg.weights, scratch.weights)
            chain.append((out, reference))
            part = out
        for out, reference in chain:
            assert np.array_equal(out.labels(), reference.labels())
            assert out == reference and hash(out) == hash(reference)


class TestOptimalityGap:
    def test_direct_value(self):
        assert abs(optimality_gap(110.0, 100.0) - 0.09090909090909091) <= 1e-12

    def test_equal_is_zero(self):
        assert optimality_gap(5.0, 5.0) == 0.0

    def test_perfect_fit_convention(self):
        assert optimality_gap(0.0, 0.0) == 0.0

    def test_bound_violation_raises(self):
        with pytest.raises(LowerBoundViolationError):
            optimality_gap(1.0, 2.0)

    def test_tiny_violation_tolerated(self):
        assert optimality_gap(1.0, 1.0 + 1e-10) < 0

    def test_maximize_gap_runs_to_upper_bound(self):
        assert optimality_gap(100.0, 90.0, 110.0) == pytest.approx(0.1, abs=1e-12)
        assert optimality_gap(0.0, 0.0, 1.0) == np.inf

    def test_upper_bound_below_incumbent_raises(self):
        with pytest.raises(LowerBoundViolationError):
            optimality_gap(2.0, 1.0, 1.5)

    def test_slack_is_relative_without_floor(self):
        assert optimality_gap(1e12, 1e12 * (1 + 1e-14)) < 0
        with pytest.raises(LowerBoundViolationError):
            optimality_gap(1e-12, 2e-12)
        # an exact fit's objectives are rounding noise of the target's size
        assert optimality_gap(0.0, 2e-12, scale=1e4) == 0.0
        with pytest.raises(LowerBoundViolationError):
            optimality_gap(0.0, 2e-12)


def sweep_reports(B, A):
    """One run per k-means seed (12) and feature source (residuals, raw data)."""
    k = default_initial_cluster_count(B.rows)
    for seed in range(12):
        for source in ("residuals", "raw_data"):
            part = build_initial_partition(B, A, InitialClusterConfig(k, source, seed))
            yield run_aid(B, A, LadRegressionProblem(), part, AidConfig(tol=0.0))


def assert_certified_optimum(report, truth):
    """Not a false certificate: a certified stop at the direct optimum."""
    validate_report(report, tol=0.0)
    assert report.termination in ("optimality_condition", "fully_disaggregated")
    assert abs(report.best_objective - truth) <= 1e-9 * truth


class TestScaledSweep:
    """One lad instance scaled as a whole or per column, over 12 k-means
    seeds and two feature sources: every run must certify the optimum of
    the unscaled data, times the scale, and none may raise."""

    @pytest.mark.parametrize("scale", [1e-9, 1e3, 1e6])
    def test_no_bound_violation_at_scale(self, scale):
        a, b, _ = generate_instance(SyntheticSpec(n=300, m=2, informative_p=2, seed=3))
        truth = solve_weighted_lad(make_agg(b.values, a.values)).objective * scale
        A, B = DataMatrix(a.values * scale), DataMatrix(b.values * scale)
        objectives = []
        for report in sweep_reports(B, A):
            assert_certified_optimum(report, truth)
            objectives.append(report.best_objective)
        assert max(objectives) - min(objectives) <= 1e-12 * max(objectives)

    @pytest.mark.parametrize(
        "column_scales", [(1e6, 1.0, 1e-6), (1e-6, 1e-6, 1.0), (1e3, 1e-3, 1e6)]
    )
    def test_certificates_hold_under_column_scales(self, column_scales):
        a, b, _ = generate_instance(SyntheticSpec(n=300, m=3, informative_p=3, seed=3))
        truth = solve_weighted_lad(make_agg(b.values, a.values)).objective
        A = DataMatrix(a.values * np.array(column_scales))
        for report in sweep_reports(b, A):
            assert_certified_optimum(report, truth)

    def test_exact_fit_at_large_scale_certifies_at_first_iteration(self):
        rng = np.random.default_rng(20240817)
        a = rng.standard_normal((200, 4))
        b = a[:, 1] * 3.0 - a[:, 2] * 7.0
        for scale in (1.0, 1e8):
            A, B = DataMatrix(a * scale), DataMatrix(b.reshape(-1, 1) * scale)
            for seed in range(10):
                initial = kmeans_one_pass(DataMatrix(np.hstack([A.values, B.values])), 4, seed)
                report = run_aid(B, A, LadRegressionProblem(), initial, AidConfig(tol=0.0))
                assert report.termination == "optimality_condition"
                assert (report.total_iterations, report.final_cluster_count) == (1, 4)


def lad_instance(rng, n=40, m=3):
    a = rng.standard_normal((n, m))
    b = a @ rng.uniform(0, 10, m) + rng.standard_normal(n)
    return DataMatrix(b.reshape(-1, 1)), DataMatrix(a)


class TestRunAid:
    def test_singleton_initial_terminates_immediately(self, rng):
        b, a = lad_instance(rng, n=25)
        prob = LadRegressionProblem()
        report = run_aid(b, a, prob, ClusterPartition.singletons(25), AidConfig(tol=0.0))
        assert report.total_iterations == 1
        assert report.termination == "fully_disaggregated"
        assert report.final_gap <= 1e-12
        direct = solve_weighted_lad(make_agg(b.values, a.values))
        assert abs(report.best_objective - direct.objective) <= 1e-9

    def test_tol_zero_reaches_direct_optimum(self, rng):
        n = 30
        a = rng.standard_normal((n, 3))
        b = a @ np.array([3.0, -2.0, 5.0]) + rng.standard_normal(n)
        prob = LadRegressionProblem()
        part = ClusterPartition.from_labels([i % 3 for i in range(n)])
        report = run_aid(DataMatrix(b.reshape(-1, 1)), DataMatrix(a), prob, part)
        ref = lad_vertex_oracle(b, a, np.ones(n))
        assert abs(report.best_objective - ref) <= 1e-9

    def test_bound_sequence_nondecreasing(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed)
            b, a = lad_instance(local, n=60, m=2)
            part = random_partition(local, 60, 4)
            report = run_aid(b, a, LadRegressionProblem(), part)
            bounds = [r.aggregated_objective for r in report.iterations]
            assert all(
                later >= earlier - 1e-9 for earlier, later in zip(bounds, bounds[1:])
            )
            validate_report(report)

    def test_cluster_count_strictly_grows(self, rng):
        b, a = lad_instance(rng, n=80, m=2)
        part = random_partition(rng, 80, 3)
        report = run_aid(b, a, LadRegressionProblem(), part)
        counts = [r.cluster_count for r in report.iterations]
        assert all(c2 > c1 for c1, c2 in zip(counts, counts[1:]))
        assert all(c2 <= 2 * c1 for c1, c2 in zip(counts, counts[1:]))

    def test_iteration_limit_carries_partial_report(self, rng):
        b, a = lad_instance(rng, n=60, m=3)
        part = ClusterPartition.from_labels([0] * 60)
        with pytest.raises(IterationLimitError) as err:
            run_aid(b, a, LadRegressionProblem(), part, AidConfig(max_iters=1))
        assert err.value.report.termination == "iteration_limit"
        assert not err.value.report.converged
        assert len(err.value.report.iterations) == 1
        validate_report(err.value.report)

    def test_zero_max_iters_rejected(self, rng):
        b, a = lad_instance(rng, n=5)
        with pytest.raises(ValueError):
            run_aid(
                b, a, LadRegressionProblem(), ClusterPartition.singletons(5),
                AidConfig(max_iters=0),
            )

    def test_gap_termination_respects_tol(self, rng):
        b, a = lad_instance(rng, n=100, m=3)
        part = random_partition(rng, 100, 2)
        report = run_aid(b, a, LadRegressionProblem(), part, AidConfig(tol=0.05))
        assert report.final_gap <= 0.05 + 1e-12
        validate_report(report, tol=0.05)

    def test_one_evaluation_per_iteration(self, rng):
        b, a = lad_instance(rng, n=60, m=2)
        prob = CountingLad()
        report = run_aid(b, a, prob, random_partition(rng, 60, 3))
        assert report.total_iterations >= 2
        assert prob.evaluations == report.total_iterations

    def test_shape_validation(self, rng):
        b, a = lad_instance(rng, n=10)
        with pytest.raises(PartitionError):
            run_aid(b, a, LadRegressionProblem(), ClusterPartition.singletons(9))

    def test_flat_fit_rejected_not_broadcast(self, rng):
        # an (n,) fit against the (n, 1) target would broadcast to n x n
        class FlatLad(LadRegressionProblem):
            def apply_f(self, solution, a):
                return super().apply_f(solution, a)[:, 0]

        b, a = lad_instance(rng, n=10)
        with pytest.raises(PartitionError, match="shape"):
            run_aid(b, a, FlatLad(), random_partition(rng, 10, 2))


class CountingLad(LadRegressionProblem):
    """Counts full-data evaluations of the fit."""

    def __init__(self):
        self.evaluations = 0

    def apply_f(self, solution, A):
        self.evaluations += 1
        return super().apply_f(solution, A)


class CountingPca(PcaProjectionProblem):
    """Records the cluster count and solution of every exact solve."""

    def __init__(self, p, cap):
        super().__init__(p, cap)
        self.calls = []

    def solve_weighted(self, agg, prior=None):
        sol = super().solve_weighted(agg, prior)
        self.calls.append((agg.cluster_count, sol))
        return sol


def two_blob_pca(rng, per_blob=6):
    # two tight blobs on opposite sides of the origin: every row of a blob
    # projects with one sign on the leading direction
    centre = np.array([5.0, 0.0])
    a = np.vstack(
        [centre + 0.3 * rng.standard_normal((per_blob, 2)),
         -centre + 0.3 * rng.standard_normal((per_blob, 2))]
    )
    part = ClusterPartition.from_labels([0] * per_blob + [1] * per_blob)
    return DataMatrix(a), part


class TestRunAidMaximize:
    def test_budget_stop_keeps_agreement_incumbent(self, rng):
        a, part = two_blob_pca(rng)
        prob = CountingPca(1, cap=2)  # two clusters fit (2^1 sign vectors), four would not
        report = run_aid(prob.zero_target(a.rows), a, prob, part, AidConfig(tol=0.0))
        assert report.termination == "enumeration_budget"
        assert report.converged and not report.certified_optimal
        assert [count for count, _ in prob.calls] == [2]
        assert report.solution is prob.calls[-1][1]
        assert report.best_objective == report.iterations[-1].objective
        last = report.iterations[-1]
        assert last.gap == pytest.approx(
            (last.upper_bound - last.best_objective) / last.best_objective, abs=1e-15
        )
        assert last.upper_bound >= l1pca_enumeration_oracle(a.values, 1) - 1e-9
        validate_report(report, tol=0.0)

    def test_budget_stop_before_disagreement_split(self, rng):
        a, _ = two_blob_pca(rng)
        # each cluster holds rows of both blobs, which project with opposite signs
        part = ClusterPartition.from_labels([0, 1] * 6)
        prob = CountingPca(1, cap=2)  # two clusters fit, the four a split would make do not
        b = prob.zero_target(a.rows)
        report = run_aid(b, a, prob, part, AidConfig(tol=0.0))
        assert report.termination == "enumeration_budget"
        assert not report.certified_optimal
        assert [count for count, _ in prob.calls] == [2]
        assert report.solution is prob.calls[-1][1]
        residual = b.values - prob.apply_f(report.solution, a.values)
        ok, violating, _ = check_optimality(residual, part)
        assert not ok and violating.tolist() == [0, 1]
        assert report.iterations[-1].upper_bound >= l1pca_enumeration_oracle(a.values, 1) - 1e-9
        validate_report(report, tol=0.0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_tol_zero_ends_certified(self, rng, p):
        for _ in range(5):
            a = DataMatrix(rng.standard_normal((8, 3)))
            prob = PcaProjectionProblem(p)
            part = random_partition(rng, 8, 2)
            report = run_aid(prob.zero_target(8), a, prob, part, AidConfig(tol=0.0))
            assert report.certified_optimal
            assert report.final_gap <= 1e-12
            optimum = l1pca_enumeration_oracle(a.values, p)
            assert report.best_objective == pytest.approx(optimum, abs=1e-9)
            assert all(r.upper_bound >= optimum - 1e-9 for r in report.iterations)
            validate_report(report, tol=0.0)

    def test_loop_reads_clusters_as_arrays(self, rng):
        # bound terms, refinement and disagreement splits all run on the
        # label arrays, the halves of a refined cluster included
        a = DataMatrix(rng.standard_normal((8, 3)))
        prob = PcaProjectionProblem(2)
        part = ClusterPartition.from_labels([0, 1] * 4)
        report = run_aid(prob.zero_target(8), a, prob, part, AidConfig(tol=0.0))
        assert report.total_iterations > 1 and report.certified_optimal

    def test_duplicate_rows_end_certified(self, rng):
        rows = rng.standard_normal((4, 3))
        a = DataMatrix(np.repeat(rows, 3, axis=0))
        prob = PcaProjectionProblem(1)
        part = ClusterPartition.from_labels(np.repeat(np.arange(4), 3))
        report = run_aid(prob.zero_target(12), a, prob, part, AidConfig(tol=0.0))
        assert report.total_iterations == 1
        assert report.iterations[-1].upper_bound == report.iterations[-1].aggregated_objective
        assert report.certified_optimal

    def test_refine_splits_only_positive_terms(self, rng):
        # cluster 0 lies on a line through its mean, so its principal halves
        # are known: the rows right of the mean first, the rest second
        offsets = np.array([-1.0, 1.0, -2.0, 2.0, -3.0, 3.0])
        line = np.column_stack([5.0 + offsets, np.zeros(6)])
        a = np.vstack([line, rng.standard_normal((6, 2))])
        part = ClusterPartition.from_labels([0] * 6 + [1] * 6)
        out = refine(a, PcaProjectionProblem(1), part, np.array([1.0, 0.0]))
        assert out == ClusterPartition.from_labels([1, 0, 1, 0, 1, 0] + [2] * 6)
        assert out.parent.tolist() == [0, 0, 1]

    def test_validate_report_checks_upper_bound(self, rng):
        a = DataMatrix(rng.standard_normal((8, 3)))
        prob = PcaProjectionProblem(1)
        report = run_aid(
            prob.zero_target(8), a, prob, random_partition(rng, 8, 2), AidConfig(tol=0.0)
        )
        assert report.total_iterations >= 2
        validate_report(report)
        first, second, *rest = report.iterations
        below = replace(first, upper_bound=first.best_objective - 1.0)
        with pytest.raises(ValueError, match="below incumbent"):
            validate_report(replace(report, iterations=(below, second, *rest)))
        rising = replace(second, upper_bound=first.upper_bound + 1.0)
        with pytest.raises(ValueError, match="increased"):
            validate_report(replace(report, iterations=(first, rising, *rest)))
        wrong_gap = replace(first, gap=first.gap + 0.5)
        with pytest.raises(ValueError, match="gap mismatch"):
            validate_report(replace(report, iterations=(wrong_gap, second, *rest)))


class TestAveragingCommutation:
    """f(X, W A) == W f(X, A) for every problem's mapping."""

    def _averaging_matrix(self, part: ClusterPartition) -> np.ndarray:
        w = np.zeros((part.cluster_count, part.n))
        for k, cluster in enumerate(clusters_of(part)):
            w[k, cluster] = 1.0 / len(cluster)
        return w

    @pytest.mark.parametrize("problem_name", ["lad", "subset", "sphere", "pca"])
    def test_commutes_with_averaging(self, problem_name, rng):
        n, m = 12, 3
        for _ in range(60):
            a = rng.standard_normal((n, m))
            part = random_partition(rng, n, 4)
            w = self._averaging_matrix(part)
            if problem_name == "pca":
                prob = PcaProjectionProblem(2)
                g = rng.standard_normal((m, 2))
                q, _ = np.linalg.qr(g)
                sol = type("S", (), {"components": q})()
            else:
                prob = {
                    "lad": LadRegressionProblem(),
                    "subset": SubsetSelectionProblem(m, 2),
                    "sphere": SphereRegressionProblem(4.0),
                }[problem_name]
                x = rng.standard_normal(m)
                if problem_name == "subset":
                    x[rng.choice(m)] = 0.0
                if problem_name == "sphere":
                    x = x / np.linalg.norm(x) * 1.5
                sol = type("S", (), {"coefficients": x})()
            left = prob.apply_f(sol, matmul(w, a))
            right = matmul(w, prob.apply_f(sol, a))
            assert np.abs(left - right).max() <= 1e-10
