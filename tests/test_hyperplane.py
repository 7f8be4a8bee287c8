import numpy as np
import pytest

from aidfit.clustering import kmeans_one_pass
from aidfit.core import ClusterPartition
from aidfit.linalg import DataMatrix
from aidfit.problems.hyperplane import (
    DegenerateColumnError,
    _orthonormal_graph_basis,
    solve_best_fit_hyperplane,
)
from oracles import hyperplane_oracle, lad_vertex_oracle


def singleton_partition(a: np.ndarray, seed: int = 0) -> ClusterPartition:
    return ClusterPartition.singletons(len(a))


def fit_singletons(a: np.ndarray):
    return solve_best_fit_hyperplane(DataMatrix(a), singleton_partition(a))


def kmeans_partition(a: np.ndarray, seed: int) -> ClusterPartition:
    """One k-means pass on the raw rows with 2 <= k < n clusters."""
    return kmeans_one_pass(DataMatrix(a), max(2, len(a) // 3), seed=seed)


def l2_plane_l1_error(a: np.ndarray) -> float:
    """L1 error of the least-squares best-fit hyperplane (a sanity bound)."""
    center = a.mean(axis=0)
    centered = a - center
    _, _, vt = np.linalg.svd(centered, full_matrices=True)
    normal = vt[-1]
    offsets = centered @ normal
    # move each point along the coordinate with the largest normal entry
    j = int(np.argmax(np.abs(normal)))
    return float(np.abs(offsets / normal[j]).sum())


class TestHyperplane:
    def test_perfect_line_fit(self):
        x1 = np.linspace(-2, 2, 9)
        pts = np.stack([x1, 2 * x1], axis=1)
        fit = fit_singletons(pts)
        assert fit.objective <= 1e-10
        # every point lies on the fitted hyperplane
        recon = fit.coordinates.values @ fit.basis.values.T + fit.intercept
        assert np.abs(recon - pts).max() <= 1e-9

    def test_three_point_example(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        fit = fit_singletons(pts)
        assert fit.objective == pytest.approx(1.0, abs=1e-12)
        # both coordinates reach 1.0; the first one wins the tie
        assert fit.winning_column == 0

    @pytest.mark.parametrize(
        "partition", [singleton_partition, kmeans_partition], ids=["singletons", "kmeans"]
    )
    def test_matches_coordinate_regression_oracle(self, rng, partition):
        for seed in range(40):
            n = int(rng.integers(4, 13))
            m = int(rng.integers(2, 4))
            a = rng.standard_normal((n, m))
            initial = partition(a, seed)
            fit = solve_best_fit_hyperplane(DataMatrix(a), initial)
            assert fit.objective == pytest.approx(hyperplane_oracle(a), abs=1e-9)
            assert fit.objective == fit.report.best_objective
            assert fit.report.iterations[0].cluster_count == initial.cluster_count

    def test_winner_is_smallest_coordinate_objective(self, rng):
        a = rng.standard_normal((30, 3))
        fit = solve_best_fit_hyperplane(DataMatrix(a), kmeans_partition(a, seed=4))
        objectives = [
            lad_vertex_oracle(
                a[:, j], np.hstack([np.delete(a, j, axis=1), np.ones((30, 1))]), np.ones(30)
            )
            for j in range(3)
        ]
        assert fit.winning_column == int(np.argmin(objectives))
        assert fit.objective == pytest.approx(min(objectives), abs=1e-9)
        assert fit.report.converged

    def test_basis_matches_gram_schmidt(self, rng):
        directions = rng.standard_normal((5, 3))
        expected = np.zeros((5, 3))
        for j in range(3):
            v = directions[:, j] - expected[:, :j] @ (expected[:, :j].T @ directions[:, j])
            expected[:, j] = v / np.linalg.norm(v)
        assert np.abs(_orthonormal_graph_basis(directions) - expected).max() <= 1e-12

    def test_beats_l2_plane(self, rng):
        a = rng.standard_normal((12, 3))
        a[:, 2] = a[:, 0] - 2 * a[:, 1] + 0.3 * rng.standard_normal(12)
        fit = fit_singletons(a)
        assert fit.objective <= l2_plane_l1_error(a) + 1e-9

    def test_objective_recomputes_from_fit(self, rng):
        a = rng.standard_normal((10, 3))
        fit = fit_singletons(a)
        recon = fit.coordinates.values @ fit.basis.values.T + fit.intercept
        assert fit.objective == pytest.approx(float(np.abs(a - recon).sum()), abs=1e-9)
        # basis columns orthonormal
        g = fit.basis.values.T @ fit.basis.values
        assert np.abs(g - np.eye(a.shape[1] - 1)).max() <= 1e-9

    def test_degenerate_column_named(self, rng):
        a = rng.standard_normal((8, 3))
        a[:, 1] = 7.0
        with pytest.raises(DegenerateColumnError, match="column 1"):
            fit_singletons(a)

    def test_too_few_rows(self, rng):
        with pytest.raises(ValueError):
            fit_singletons(rng.standard_normal((2, 3)))
