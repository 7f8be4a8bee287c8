import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aidfit import clustering
from aidfit.clustering import (
    InitialClusterConfig,
    build_initial_partition,
    default_initial_cluster_count,
    kmeans_one_pass,
    pca_projection_features,
    random_column_subsets,
    residual_features,
    residual_fit_rows,
)
from aidfit.core import ClusterPartition
from aidfit.linalg import DataMatrix
from aidfit.problems.lad import solve_weighted_lad
from conftest import make_agg
from oracles import nearest_center_labels


class TestKmeansOnePass:
    def test_k_equals_n_gives_singletons(self, rng):
        feats = DataMatrix(rng.standard_normal((8, 2)))
        part = kmeans_one_pass(feats, k=8, seed=0)
        assert part.cluster_count == 8
        assert np.array_equal(part.sizes, np.ones(8))

    def test_k_one_single_cluster(self, rng):
        feats = DataMatrix(rng.standard_normal((6, 3)))
        part = kmeans_one_pass(feats, k=1, seed=0)
        assert part == ClusterPartition.from_labels([0] * 6)

    def test_assignment_matches_nearest_center_scan(self, rng):
        feats = rng.standard_normal((20, 2))
        seed = 3
        part = kmeans_one_pass(DataMatrix(feats), k=4, seed=seed)
        centers = feats[np.random.default_rng(seed).choice(20, size=4, replace=False)]
        ref = nearest_center_labels(feats, centers)
        # surviving clusters keep the order of their centers
        assert part == ClusterPartition.from_labels(ref)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_nearest_center_oracle(self, data):
        m = data.draw(st.sampled_from([1, 2, 5]))
        n = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 2**16))
        elements = st.floats(-1e3, 1e3, allow_subnormal=False)
        feats = data.draw(arrays(np.float64, (n, m), elements=elements, unique=True))
        centers = feats[np.random.default_rng(seed).choice(n, size=k, replace=False)]
        # a row about as near to two centers as rounding resolves may go to either
        dist = np.sort(((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)
        spread = np.abs(feats).max()
        assume(k == 1 or (dist[:, 1] - dist[:, 0] > 1e-9 * (1 + m * spread**2)).all())
        part = kmeans_one_pass(DataMatrix(feats), k, seed)
        assert part == ClusterPartition.from_labels(nearest_center_labels(feats, centers))

    @pytest.mark.parametrize("offset", [1e8, 1e12])
    @pytest.mark.parametrize("m", [1, 2])
    def test_large_offset_matches_oracle(self, m, offset):
        # scoring uncentred features misses over half of these rows
        feats = np.random.default_rng(5).standard_normal((400, m)) + offset
        k, seed = 12, 2
        centers = feats[np.random.default_rng(seed).choice(400, size=k, replace=False)]
        part = kmeans_one_pass(DataMatrix(feats), k, seed)
        assert part == ClusterPartition.from_labels(nearest_center_labels(feats, centers))

    @pytest.mark.parametrize("power", [-40, -3, 5, 60])
    def test_power_of_two_scaling_keeps_the_partition(self, rng, power):
        feats = rng.standard_normal((300, 3)) + 4.0
        part = kmeans_one_pass(DataMatrix(feats), 17, seed=4)
        assert kmeans_one_pass(DataMatrix(np.ldexp(feats, power)), 17, seed=4) == part

    def test_peak_memory_below_two_score_arrays(self, rng):
        n, k, m = 20_000, 32, 8
        feats = DataMatrix(rng.standard_normal((n, m)))
        tracemalloc.start()
        try:
            kmeans_one_pass(feats, k, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (n, k, m) difference tensor alone would be 41 MB
        assert peak < 2 * n * k * 8

    def test_row_blocks_give_the_one_block_labels(self, rng, monkeypatch):
        # 8-row blocks; every n leaves one row after the last full block. That
        # row lies midway between two centers, where a one-row product (GEMV)
        # rounds differently from the GEMM and can pick the other center.
        k, seed = 13, 6
        cases = []
        for n in range(105, 1305, 8):
            feats = rng.standard_normal((n, 3)) + 2.0
            centers = np.random.default_rng(seed).choice(n, size=k, replace=False)
            i, j = rng.choice(centers[centers != n - 1], size=2, replace=False)
            feats[-1] = (feats[i] + feats[j]) / 2.0
            cases.append((DataMatrix(feats), kmeans_one_pass(DataMatrix(feats), k, seed)))
        monkeypatch.setattr(clustering, "KMEANS_BLOCK", 1)
        for feats, whole in cases:
            assert kmeans_one_pass(feats, k, seed) == whole, feats.rows

    def test_duplicate_rows_drop_empty_clusters(self):
        feats = DataMatrix(np.zeros((5, 2)))
        part = kmeans_one_pass(feats, k=3, seed=1)
        assert part.cluster_count == 1

    def test_determinism(self, rng):
        feats = DataMatrix(rng.standard_normal((15, 3)))
        assert kmeans_one_pass(feats, 4, seed=9) == kmeans_one_pass(feats, 4, seed=9)

    def test_k_out_of_range(self, rng):
        feats = DataMatrix(rng.standard_normal((3, 1)))
        with pytest.raises(ValueError):
            kmeans_one_pass(feats, k=4, seed=0)


class TestResidualFeatures:
    def test_perfect_fit_gives_zero_column(self, rng):
        a = rng.standard_normal((12, 2))
        b = a @ np.array([2.0, -1.0])
        feats = residual_features(
            DataMatrix(b.reshape(-1, 1)), DataMatrix(a), p=2, model_count=1, seed=0
        )
        assert np.abs(feats.values).max() <= 1e-9

    def test_deterministic_across_runs(self, rng):
        for n in (15, 400):  # 400 rows fit a sample of 80
            a = rng.standard_normal((n, 3))
            b = rng.standard_normal((n, 1))
            f1 = residual_features(DataMatrix(b), DataMatrix(a), p=2, model_count=3, seed=7)
            f2 = residual_features(DataMatrix(b), DataMatrix(a), p=2, model_count=3, seed=7)
            assert f1 == f2

    def test_columns_recompute_from_logged_subsets(self, rng):
        n, m, p, count, seed = 60, 4, 2, 3, 11
        a = rng.standard_normal((n, m))
        b0 = rng.standard_normal(n)
        replay = np.random.default_rng(seed)
        subsets = random_column_subsets(m, p, count, replay)
        rows = residual_fit_rows(n, replay)
        assert len(rows) == 31
        for power in (0, -30, 30):  # 2^k target scaling
            b = b0 * 2.0**power
            feats = residual_features(
                DataMatrix(b.reshape(-1, 1)), DataMatrix(a), p=p, model_count=count, seed=seed
            )
            for c, subset in enumerate(subsets):
                sub = a[:, list(subset)]
                coeffs = solve_weighted_lad(make_agg(b[rows], sub[rows])).coefficients
                err = np.abs(feats.values[:, c] - (b - sub @ coeffs)).max()
                assert err <= 1e-12 * 2.0**power

    @pytest.mark.parametrize("m, p", [(3, 3), (3, 2), (6, 2)])
    def test_each_distinct_subset_fitted_once(self, rng, monkeypatch, m, p):
        a = rng.standard_normal((30, m))
        b = rng.standard_normal((30, 1))
        replay = np.random.default_rng(3)
        subsets = random_column_subsets(m, p, 5, replay)
        rows = residual_fit_rows(30, replay)
        fitted = []
        original = clustering._fit_lad_coefficients

        def recording(targets, features):
            assert np.array_equal(targets, b[rows, 0])
            # which column block of a, on the sampled rows, this call fits
            fitted.append(
                tuple(
                    j for j in range(m) if any(np.array_equal(a[rows, j], f) for f in features.T)
                )
            )
            return original(targets, features)

        monkeypatch.setattr(clustering, "_fit_lad_coefficients", recording)
        feats = residual_features(DataMatrix(b), DataMatrix(a), p=p, model_count=5, seed=3)
        first = {s: subsets.index(s) for s in subsets}
        # each distinct subset is fitted once, by the first model that draws it
        assert fitted == [subsets[c] for c in sorted(first.values())]
        assert feats.cols == 5
        for c, subset in enumerate(subsets):
            assert np.array_equal(feats.values[:, c], feats.values[:, first[subset]])

    def test_sample_is_sorted_and_every_row_up_to_17(self):
        for n in (1, 2, 16, 17, 18, 30, 1000):
            rows = residual_fit_rows(n, np.random.default_rng(5))
            s = min(n, int(np.ceil(4 * np.sqrt(n))))
            assert len(rows) == s and np.all(np.diff(rows) > 0)
            assert 0 <= rows[0] and rows[-1] < n
            if n <= 17:
                assert np.array_equal(rows, np.arange(n))

    def test_small_n_fits_every_row_bitwise(self, rng):
        n, m, p = 16, 4, 2
        a = rng.standard_normal((n, m))
        b = rng.standard_normal(n)
        feats = residual_features(
            DataMatrix(b.reshape(-1, 1)), DataMatrix(a), p=p, model_count=4, seed=2
        )
        for c, subset in enumerate(random_column_subsets(m, p, 4, 2)):
            sub = a[:, list(subset)]
            column = b - sub @ clustering._fit_lad_coefficients(b, sub)
            assert np.array_equal(feats.values[:, c], column)

    def test_each_fit_is_one_certified_driver_iteration_from_singletons(self, rng, monkeypatch):
        import aidfit.core as core

        reports = []
        original = core.run_aid

        def spy(B, A, problem, initial, config=None):
            assert initial == ClusterPartition.singletons(A.rows)
            reports.append(original(B, A, problem, initial, config))
            return reports[-1]

        monkeypatch.setattr(core, "run_aid", spy)
        # samples of 57 rows, and of 22 rows for 25 columns
        for n, m, p, s in ((200, 6, 2, 57), (30, 25, 25, 22)):
            reports.clear()
            a = rng.standard_normal((n, m))
            b = rng.standard_normal((n, 1))
            feats = residual_features(DataMatrix(b), DataMatrix(a), p=p, model_count=5, seed=1)
            assert np.isfinite(feats.values).all()
            assert len(reports) == len(set(random_column_subsets(m, p, 5, 1)))
            for report in reports:
                assert len(report.solution.coefficients) == p
                assert report.iterations[0].cluster_count == s
                assert report.total_iterations == 1
                assert report.termination == "fully_disaggregated"
                assert report.certified_optimal

    def test_kmeans_runs_only_for_the_partition(self, rng, monkeypatch):
        calls = []
        original = clustering.kmeans_one_pass

        def counting(features, k, seed):
            calls.append(k)
            return original(features, k, seed)

        monkeypatch.setattr(clustering, "kmeans_one_pass", counting)
        a = DataMatrix(rng.standard_normal((300, 4)))
        b = DataMatrix(rng.standard_normal((300, 1)))
        residual_features(b, a, p=2, model_count=3, seed=5)
        assert calls == []
        build_initial_partition(b, a, InitialClusterConfig(6, "residuals", seed=5, feature_p=2))
        assert calls == [6]


class TestPcaProjectionFeatures:
    def test_orthogonal_columns_pick_larger(self):
        col1 = np.array([3.0, 0.0, 0.0])
        col2 = np.array([0.0, 1.0, 0.0])
        a = np.stack([col1, col2], axis=1)
        feats = pca_projection_features(DataMatrix(a), p=1)
        assert np.allclose(np.abs(feats.values[:, 0]), np.abs(col1))

    def test_full_projection_is_isometry(self, rng):
        a = rng.standard_normal((10, 4))
        feats = pca_projection_features(DataMatrix(a), p=4)
        before = np.linalg.norm(a, axis=1)
        after = np.linalg.norm(feats.values, axis=1)
        assert np.abs(before - after).max() <= 1e-9

    def test_column_variance_ordering(self, rng):
        a = rng.standard_normal((10, 4)) * np.array([5.0, 3.0, 1.0, 0.5])
        feats = pca_projection_features(DataMatrix(a), p=4).values
        second_moments = (feats**2).sum(axis=0)
        assert all(
            second_moments[j] >= second_moments[j + 1] - 1e-9 for j in range(3)
        )

    def test_p_too_large(self, rng):
        with pytest.raises(ValueError):
            pca_projection_features(DataMatrix(rng.standard_normal((5, 2))), p=3)


class TestBuildInitialPartition:
    def test_default_cluster_count(self):
        assert default_initial_cluster_count(100) == 2
        assert default_initial_cluster_count(1000) == 10
        assert default_initial_cluster_count(5) == 2
        assert default_initial_cluster_count(1) == 1

    def test_dispatches_all_sources(self, rng):
        a = DataMatrix(rng.standard_normal((20, 3)))
        b = DataMatrix(rng.standard_normal((20, 1)))
        for source in ("residuals", "pca_projection", "raw_data"):
            cfg = InitialClusterConfig(4, source, seed=2)
            part = build_initial_partition(b, a, cfg)
            assert 1 <= part.cluster_count <= 4
            assert part.n == 20 and part.sizes.sum() == 20 and (part.sizes > 0).all()

    def test_residuals_require_targets(self, rng):
        a = DataMatrix(rng.standard_normal((10, 2)))
        with pytest.raises(ValueError):
            build_initial_partition(None, a, InitialClusterConfig(2, "residuals", 0))

    def test_singleton_start_builds_no_features(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(clustering, "residual_features", lambda *args: calls.append(args))
        a = DataMatrix(rng.standard_normal((40, 3)))
        b = DataMatrix(rng.standard_normal((40, 1)))
        part = build_initial_partition(b, a, InitialClusterConfig(40, "residuals", 4))
        assert part == ClusterPartition.singletons(40)
        assert calls == []
        # the configuration is still checked first
        with pytest.raises(ValueError, match="need target data"):
            build_initial_partition(None, a, InitialClusterConfig(40, "residuals", 4))
        with pytest.raises(ValueError, match="unknown feature source"):
            build_initial_partition(b, a, InitialClusterConfig(40, "columns", 4))

    def test_one_cluster_per_row_is_singletons_despite_equal_features(self, rng):
        # an exact fit interpolates some rows, whose residual features are all zero
        a = rng.standard_normal((12, 3))
        b = a @ np.array([1.0, -2.0, 0.5])
        b[[0, 5]] += 1.0
        for source in ("residuals", "raw_data"):
            features = np.vstack([a[:11], a[:1]]) if source == "raw_data" else a
            part = build_initial_partition(
                DataMatrix(b.reshape(-1, 1)), DataMatrix(features), InitialClusterConfig(12, source, 3)
            )
            assert part == ClusterPartition.singletons(12)
