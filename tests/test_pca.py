import numpy as np
import pytest

from aidfit.problems import pca
from aidfit.problems.lad import InstanceTooLargeError
from aidfit.core import AidConfig, ClusterPartition, aggregate, decluster, refine, run_aid
from aidfit.problems.pca import (
    enumeration_fits,
    principal_halves,
    solve_l1pca_exact,
    solve_weighted_l1pca,
    spread_bound_terms,
    weighted_to_unweighted_pca,
)
from aidfit.linalg import DataMatrix
from aidfit.problems import definitions
from aidfit.problems.definitions import PcaProjectionProblem
from conftest import make_agg
from oracles import (
    direct_scores_row_loop,
    l1pca_enumeration_oracle,
    l1pca_first_maximizer_oracle,
    l1pca_sampling_bound,
    l1pca_weighted_enumeration_oracle,
)


def zero_target(n, p=1):
    return np.zeros((n, p))


def pca_agg(a, weights):
    a = np.asarray(a, dtype=float)
    return make_agg(zero_target(a.shape[0]), a, weights)


class TestExactSolver:
    def test_identity_two_rows(self):
        sol = solve_l1pca_exact(DataMatrix(np.eye(2)), p=1)
        assert sol.objective == pytest.approx(np.sqrt(2), abs=1e-12)
        assert np.allclose(np.abs(sol.components.ravel()), [1 / np.sqrt(2)] * 2)

    def test_two_candidate_hand_case(self):
        sol = solve_l1pca_exact(DataMatrix([[2.0, 0.0], [0.0, 1.0]]), p=1)
        assert sol.objective == pytest.approx(np.sqrt(5), abs=1e-12)
        assert np.allclose(
            np.abs(sol.components.ravel()), np.array([2.0, 1.0]) / np.sqrt(5)
        )
        assert sol.sign_matrix[0, 0] == 1.0

    def test_8x3_p2_matches_full_enumeration(self, rng):
        a = rng.standard_normal((8, 3))
        sol = solve_l1pca_exact(DataMatrix(a), p=2)
        ref = l1pca_enumeration_oracle(a, 2)
        assert sol.objective == pytest.approx(ref, abs=1e-9)

    def test_sampling_never_beats_exact(self, rng):
        a = rng.standard_normal((8, 3))
        sol = solve_l1pca_exact(DataMatrix(a), p=2)
        sampled = l1pca_sampling_bound(a, 2, samples=1_000_000, seed=1)
        assert sampled <= sol.objective + 1e-9
        assert sampled >= sol.objective - 0.02 * (1 + sol.objective)

    def test_random_instances_match_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(2, 5))
            p = int(rng.integers(1, 3))
            a = rng.standard_normal((n, m))
            sol = solve_l1pca_exact(DataMatrix(a), p=p)
            assert sol.objective == pytest.approx(
                l1pca_enumeration_oracle(a, p), abs=1e-9
            )

    def test_components_orthonormal_and_objective_recomputed(self, rng):
        a = rng.standard_normal((7, 4))
        sol = solve_l1pca_exact(DataMatrix(a), p=2)
        x = sol.components
        assert np.abs(x.T @ x - np.eye(2)).max() <= 1e-9
        assert sol.objective == pytest.approx(float(np.abs(a @ x).sum()), abs=1e-9)

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[3.0, 4.0, 0.0]]),
            np.array([[1.0, -2.0]]),
            np.outer([1.0, 2.0, -2.0, 0.5], [3.0, 4.0, 1.0]),
            np.outer([1.0, -1.0, 3.0], [0.0, 2.0]),
        ],
        ids=["one-row", "one-row-m2", "collinear-rows", "collinear-rows-m2"],
    )
    def test_rank_one_p2_orthonormal_and_optimal(self, a):
        # A^T S has rank one for every sign matrix, so the rounding must
        # complete the second component itself
        sol = solve_l1pca_exact(DataMatrix(a), p=2)
        x = sol.components
        assert x.shape == (a.shape[1], 2)
        assert np.abs(x.T @ x - np.eye(2)).max() <= 1e-12
        assert sol.objective == pytest.approx(l1pca_enumeration_oracle(a, 2), abs=1e-9)
        assert sol.objective == pytest.approx(float(np.abs(a @ x).sum()), abs=1e-12)

    def test_first_sign_fixed(self, rng):
        a = rng.standard_normal((6, 3))
        sol = solve_l1pca_exact(DataMatrix(a), p=2)
        assert sol.sign_matrix[0, 0] == 1.0

    def test_cap_and_p_validation(self, rng):
        a = DataMatrix(rng.standard_normal((30, 3)))
        with pytest.raises(InstanceTooLargeError):
            solve_l1pca_exact(a, p=2, cap=2**20)
        with pytest.raises(ValueError):
            solve_l1pca_exact(a, p=3)
        with pytest.raises(ValueError, match="at least 2 columns"):
            solve_l1pca_exact(DataMatrix([[1.0], [2.0]]), p=2)

    def test_tie_break_keeps_earliest_counter_state(self, rng):
        # a zero data row makes every sign choice for that row score equally;
        # the earliest counter state maps it to +1
        a = rng.standard_normal((5, 3))
        a[2, :] = 0.0
        for p in (1, 2):
            sol = solve_l1pca_exact(DataMatrix(a), p)
            assert np.all(sol.sign_matrix[2, :] == 1.0)

    def test_first_maximizer_in_counter_order(self, rng):
        # re-enumerate with the same analytic score in the same counter
        # order (column 1 bits first, row 1 most significant): the solver
        # must return the first maximizer
        import itertools

        def analytic_nuclear(m2):
            g = m2.T @ m2
            tr = g[0, 0] + g[1, 1]
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
            hi = np.sqrt(max((tr + disc) / 2.0, 0.0))
            lo = np.sqrt(max((tr - disc) / 2.0, 0.0))
            return hi + lo

        a = rng.standard_normal((4, 3))
        n = 4
        best = (-np.inf, None)
        for bits1 in itertools.product((1.0, -1.0), repeat=n - 1):
            s1 = np.array((1.0,) + bits1)
            for bits2 in itertools.product((1.0, -1.0), repeat=n):
                s = np.stack([s1, np.array(bits2)], axis=1)
                score = analytic_nuclear(a.T @ s)
                if score > best[0]:
                    best = (score, s)
        sol = solve_l1pca_exact(DataMatrix(a), 2)
        assert np.array_equal(sol.sign_matrix, best[1])


def tie_heavy_cases(rng, n):
    """Data whose sign vectors tie in exact arithmetic, so counter order decides."""
    m = int(rng.integers(1, 5))
    integer = rng.integers(-3, 4, size=(n, m)).astype(float)
    duplicated = rng.standard_normal((n, m))
    duplicated[rng.integers(n, size=(n + 1) // 2)] = duplicated[-1]
    zero_row = rng.standard_normal((n, m))
    zero_row[rng.integers(n)] = 0.0
    return {"integer": integer, "duplicated": duplicated, "zero-row": zero_row}


class TestTieBreak:
    @pytest.mark.parametrize("chunk", [pca.CHUNK, 4], ids=["default-chunk", "chunk-4"])
    @pytest.mark.parametrize("scale", [1.0, 2.0**20, 2.0**-20, 1e6, 1e-6])
    def test_p1_returns_first_maximizer_of_direct_score(self, rng, monkeypatch, chunk, scale):
        # a chunk of 4 scores splits the enumeration across chunks and,
        # from n=6 on, each high-half row across several column blocks
        monkeypatch.setattr(pca, "CHUNK", chunk)
        for n in range(1, 13):
            for kind, a in tie_heavy_cases(rng, n).items():
                sol = solve_l1pca_exact(DataMatrix(a * scale), p=1)
                expected = l1pca_first_maximizer_oracle(a * scale)
                assert np.array_equal(sol.sign_matrix[:, 0], expected), (n, kind)

    @pytest.mark.parametrize("kind", ["integer", "zero-row"])
    def test_p1_ties_across_rows_of_one_chunk(self, rng, monkeypatch, kind):
        # with 64 scores per chunk and n <= 9 each chunk spans 4 or more
        # high-half rows; copies of one high-half row give equal maxima to
        # the rows whose copies cancel, and with integer data or a zero
        # high-half row the maximizers often lie in several rows of a chunk
        monkeypatch.setattr(pca, "CHUNK", 64)
        for n in range(5, 10):
            split = n - n // 2  # first low-half row
            for _ in range(40):
                m = int(rng.integers(1, 5))
                if kind == "integer":
                    a = rng.integers(-2, 3, size=(n, m)).astype(float)
                else:
                    a = rng.standard_normal((n, m))
                    a[rng.integers(1, split)] = 0.0
                a[rng.integers(1, split, size=2)] = a[rng.integers(1, split)]
                sol = solve_l1pca_exact(DataMatrix(a), p=1)
                expected = l1pca_first_maximizer_oracle(a)
                assert np.array_equal(sol.sign_matrix[:, 0], expected), (n, a)

    def test_all_zero_rows_return_counter_zero_one_chunk_at_a_time(self, monkeypatch):
        # every sign vector ties, so every one is rescored, a chunk at a time
        batches = []
        direct = pca._direct_scores

        def spy(a, idx):
            batches.append(idx.size)
            return direct(a, idx)

        monkeypatch.setattr(pca, "_direct_scores", spy)
        sol = solve_l1pca_exact(DataMatrix(np.zeros((20, 3))), p=1)
        assert np.all(sol.sign_matrix == 1.0)
        assert sum(batches) == 2**19
        assert max(batches) <= pca.CHUNK

    @pytest.mark.parametrize("m", [1, 8])
    @pytest.mark.parametrize("n", [1, 2, 9, 17, 23])
    def test_direct_scores_match_the_row_loop_bitwise(self, rng, n, m):
        # at n = 23, m = 8 a block holds 712 vectors, so 5000 span eight
        a = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-6, 7, size=(n, 1))
        for size in (1, 7, 5000):
            idx = rng.integers(0, 2 ** (n - 1), size=size)
            expected = direct_scores_row_loop(a, idx)
            assert pca._direct_scores(a, idx).tobytes() == expected.tobytes(), size

    def test_direct_scores_blocks_split_anywhere(self, rng, monkeypatch):
        # blocks of 3, 2 and 1 vectors (block sizes floor at one vector)
        a = rng.standard_normal((9, 4))
        idx = rng.integers(0, 2**8, size=50)
        expected = direct_scores_row_loop(a, idx)
        for block in (3 * 36, 2 * 36 + 35, 1, 0):
            monkeypatch.setattr(pca, "DIRECT_BLOCK", block)
            assert pca._direct_scores(a, idx).tobytes() == expected.tobytes(), block

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
    def test_half_tables_are_signed_sums_in_counter_order(self, rng, n):
        a = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-6, 7, size=(n, 1))
        th, tl, low = pca._half_tables(a)
        assert th.shape == (2 ** (n - 1 - low), 3) and tl.shape == (2**low, 3)
        idx = np.arange(2 ** (n - 1))
        signs = np.column_stack([np.ones(idx.size), pca._sign_block(idx, n - 1)])
        i, j = np.divmod(idx, 2**low)
        err = np.abs(th[i] + tl[j] - signs @ a)
        assert np.all(err <= 1e-12 * np.abs(a).sum(axis=0))


class TestWeightedTransform:
    def test_unit_weights_identity(self, rng):
        a = rng.standard_normal((5, 3))
        agg = pca_agg(a, [1] * 5)
        assert np.array_equal(weighted_to_unweighted_pca(agg), a)

    def test_single_row_scaling(self):
        agg = pca_agg([[1.0, 2.0]], [3])
        assert weighted_to_unweighted_pca(agg).tolist() == [[3.0, 6.0]]

    def test_weighted_objective_identity(self, rng):
        # sum_k w_k ||A_k X||_1 == sum_k ||Abar_k X||_1 for any orthonormal X
        a = rng.standard_normal((6, 3))
        w = rng.integers(1, 6, size=6)
        agg = pca_agg(a, w)
        scaled = weighted_to_unweighted_pca(agg)
        q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        weighted = float(w @ np.abs(a @ q).sum(axis=1))
        unweighted = float(np.abs(scaled @ q).sum())
        assert weighted == pytest.approx(unweighted, abs=1e-10)

    def test_nonzero_target_rejected(self, rng):
        agg = make_agg(np.ones((3, 1)), rng.standard_normal((3, 2)), [1, 1, 1])
        with pytest.raises(ValueError):
            weighted_to_unweighted_pca(agg)


class TestWeightedSolver:
    def test_unit_weights_equal_unweighted(self, rng):
        a = rng.standard_normal((6, 3))
        weighted = solve_weighted_l1pca(pca_agg(a, [1] * 6), p=1)
        plain = solve_l1pca_exact(DataMatrix(a), p=1)
        assert weighted.objective == pytest.approx(plain.objective, abs=1e-12)

    def test_single_heavy_row(self):
        sol = solve_weighted_l1pca(pca_agg([[1.0, 0.0]], [5]), p=1)
        assert sol.objective == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(np.abs(sol.components.ravel()), [1.0, 0.0])

    def test_matches_weighted_enumeration(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 7))
            m = int(rng.integers(2, 5))
            a = rng.standard_normal((k, m))
            w = rng.integers(1, 6, size=k)
            sol = solve_weighted_l1pca(pca_agg(a, w), p=1)
            ref = l1pca_weighted_enumeration_oracle(a, w.astype(float), 1)
            assert sol.objective == pytest.approx(ref, abs=1e-9)

    def test_reduction_identity_p2(self, rng):
        # weighted objective equals the unweighted objective on scaled rows
        for _ in range(25):
            k = int(rng.integers(2, 7))
            m = int(rng.integers(2, 5))
            a = rng.standard_normal((k, m))
            w = rng.integers(1, 5, size=k)
            p = int(rng.integers(1, 3))
            agg = pca_agg(a, w)
            weighted = solve_weighted_l1pca(agg, p=p)
            scaled = weighted_to_unweighted_pca(agg)
            unweighted = solve_l1pca_exact(DataMatrix(scaled), p=p)
            assert weighted.objective == pytest.approx(unweighted.objective, abs=1e-9)


def random_clusters(rng, n, k):
    labels = rng.integers(0, k, size=n)
    labels[rng.choice(n, size=min(k, n), replace=False)] = np.arange(min(k, n))
    return ClusterPartition.from_labels(labels)


class TestUpperBound:
    @pytest.mark.parametrize("p", [1, 2])
    def test_bound_dominates_enumeration_oracle(self, rng, p):
        for _ in range(25):
            n = int(rng.integers(2, 8 if p == 1 else 7))
            m = int(rng.integers(2, 5))
            a = rng.standard_normal((n, m))
            part = random_clusters(rng, n, int(rng.integers(1, n + 1)))
            agg = aggregate(np.zeros((n, p)), a, part)
            lower = solve_weighted_l1pca(agg, p).objective
            upper = lower + spread_bound_terms(a, part, p).sum()
            optimum = l1pca_enumeration_oracle(a, p)
            assert lower <= optimum + 1e-9
            assert upper >= optimum - 1e-9

    def test_terms_vanish_exactly_on_identical_rows(self, rng):
        row = rng.standard_normal(3) / 3.0
        a = np.vstack([np.tile(row, (5, 1)), rng.standard_normal((2, 3))])
        terms = spread_bound_terms(a, ClusterPartition.from_labels([0] * 5 + [1, 2]), 2)
        assert terms.tolist() == [0.0, 0.0, 0.0]
        assert spread_bound_terms(a, ClusterPartition.from_labels([0] * 6 + [1]), 1)[0] > 0.0

    @pytest.mark.parametrize("p", [1, 2])
    def test_terms_match_per_cluster_svd(self, rng, p):
        # cluster 0 holds three copies of a row whose float mean is not the
        # row itself; the last two clusters are singletons
        repeated = np.tile([0.1, -0.7, 0.3, 0.1], (3, 1))
        for _ in range(30):
            n = int(rng.integers(5, 40))
            m = int(rng.integers(p, 5))
            a = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-3, 4)
            a[:3] = repeated[:, :m]
            labels = rng.integers(0, int(rng.integers(1, n)), size=n)
            labels[:3] = -1
            labels[rng.choice(np.arange(3, n), size=2, replace=False)] = [n, n + 1]
            part = ClusterPartition.from_labels(labels)
            terms = spread_bound_terms(a, part, p)
            for c in range(part.cluster_count):
                rows = a[part.rows(c)]
                if c == 0:
                    assert terms[c] == 0.0
                    continue
                sv = np.linalg.svd(rows - rows.mean(axis=0), compute_uv=False)[:p]
                expected = np.sqrt(p * len(rows) * float(sv @ sv))
                assert abs(terms[c] - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("p", [1, 2])
    def test_carried_terms_equal_fresh_terms_bitwise(self, rng, p):
        # chains of decluster and refine steps: each step's terms, carried
        # from the previous step's, must equal terms computed from scratch
        problem = PcaProjectionProblem(p)
        for _ in range(20):
            n = int(rng.integers(6, 60))
            m = int(rng.integers(p, 6))
            a = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-3, 4)
            a[rng.integers(n, size=n // 4)] = a[0]
            # every cluster holds two rows or more, so the first step can
            # split them all
            k = int(rng.integers(1, n // 2 + 1))
            part = ClusterPartition.from_labels(rng.permutation(np.arange(n) % k))
            assert part.parent is None
            terms = spread_bound_terms(a, part, p)
            # without a parent, previous terms are ignored
            ignored = spread_bound_terms(a, part, p, previous=np.full(k, np.nan))
            assert ignored.tobytes() == terms.tobytes()
            for step in range(4):
                if step == 0:
                    child = refine(a, problem, part, np.ones(k))
                    assert child.fresh().all()
                elif rng.uniform() < 0.5 and (terms > 0.0).any():
                    child = refine(a, problem, part, terms)
                else:
                    codes = rng.integers(0, 3, size=n)
                    ordered = codes[part.order]
                    mixed = np.flatnonzero(
                        np.minimum.reduceat(ordered, part.starts)
                        != np.maximum.reduceat(ordered, part.starts)
                    )
                    if mixed.size == 0:
                        break
                    violating = rng.choice(mixed, size=int(rng.integers(1, mixed.size + 1)),
                                           replace=False)
                    child = decluster(part, codes, np.sort(violating))
                carried = spread_bound_terms(a, child, p, previous=terms)
                assert carried.tobytes() == spread_bound_terms(a, child, p).tobytes()
                part, terms = child, carried

    def test_run_aid_passes_the_previous_terms(self, rng, monkeypatch):
        calls = []
        terms_of = pca.spread_bound_terms

        def spy(a, partition, p, previous=None):
            terms = terms_of(a, partition, p, previous)
            calls.append((partition, previous, terms))
            return terms

        monkeypatch.setattr(definitions, "spread_bound_terms", spy)
        a = rng.standard_normal((40, 3))
        problem = PcaProjectionProblem(1)
        run_aid(DataMatrix(np.zeros((40, 1))), DataMatrix(a), problem,
                random_clusters(rng, 40, 4), AidConfig(tol=0.0))
        assert len(calls) >= 2 and calls[0][1] is None
        for (_, _, before), (partition, previous, _) in zip(calls, calls[1:]):
            assert previous is before and partition.parent is not None

    def test_budget_matches_solver_cap(self, rng):
        assert enumeration_fits(5, 1, 16) and not enumeration_fits(6, 1, 16)
        assert enumeration_fits(3, 2, 32) and not enumeration_fits(4, 2, 64)
        assert not enumeration_fits(40, 2, 2**62)
        with pytest.raises(InstanceTooLargeError):
            solve_l1pca_exact(DataMatrix(rng.standard_normal((6, 2))), p=1, cap=16)


class TestPrincipalHalves:
    def test_halves_nonempty_partition_and_repeat(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, 5))
            a = rng.standard_normal((n, m))
            if rng.uniform() < 0.3:
                # duplicated rows and ties on the projection
                a[rng.integers(n, size=n // 2)] = a[0]
            size = int(rng.integers(2, n + 1))
            cluster = np.sort(rng.choice(n, size=size, replace=False))
            if (a[cluster] == a[cluster[0]]).all():
                continue
            second = principal_halves(a, cluster)
            assert second.dtype == np.int64 and 0 < second.size < cluster.size
            assert (np.diff(second) > 0).all() and np.isin(second, cluster).all()
            assert np.array_equal(principal_halves(a.copy(), cluster), second)

    def test_split_follows_the_leading_direction(self):
        # rows spread along the first axis: the rows with the larger first
        # coordinate form the first half, whatever sign the SVD returns
        a = np.array([[-3.0, 0.1], [-1.0, -0.1], [2.0, 0.0], [4.0, 0.2]])
        rows = np.arange(4)
        assert principal_halves(a, rows).tolist() == [0, 1]
        assert principal_halves(-a, rows).tolist() == [2, 3]
