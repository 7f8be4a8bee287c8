import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aidfit.linalg import DataMatrix, ShapeError, matmul, symmetric_eigen
from oracles import naive_matmul

finite_elements = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def square_strategy(side):
    return arrays(np.float64, (side, side), elements=finite_elements)


class TestDataMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DataMatrix([[1.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            DataMatrix([[float("inf")]])

    def test_rejects_3d(self):
        with pytest.raises(ShapeError):
            DataMatrix(np.zeros((2, 2, 2)))

    def test_values_read_only(self):
        m = DataMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 3.0

    def test_row_major_layout(self):
        m = DataMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.values.flags["C_CONTIGUOUS"]
        assert list(m.values.ravel()) == [1.0, 2.0, 3.0, 4.0]

    def test_column_vector_input(self):
        m = DataMatrix([1.0, 2.0, 3.0])
        assert m.shape == (3, 1)


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_hand_computed(self):
        out = matmul(np.array([[1.0, 1.0]]), np.array([[2.0], [3.0]]))
        assert out[0, 0] == 5.0

    def test_matches_naive_loop(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = matmul(a, b)
        scale = np.abs(a) @ np.abs(b)
        assert (np.abs(out - naive_matmul(a, b)) <= 1e-12 * scale).all()

    def test_repeat_calls_are_bit_identical(self, rng):
        a = rng.standard_normal((50, 7))
        b = rng.standard_normal((7, 3))
        first = matmul(a, b)
        for _ in range(5):
            assert matmul(a, b).tobytes() == first.tobytes()

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match="3x2.*4x1"):
            matmul(np.zeros((3, 2)), np.zeros((4, 1)))

    @settings(max_examples=40, deadline=None)
    @given(
        a=arrays(np.float64, (3, 3), elements=finite_elements),
        b=arrays(np.float64, (3, 3), elements=finite_elements),
        c=arrays(np.float64, (3, 3), elements=finite_elements),
    )
    def test_associativity(self, a, b, c):
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        scale = max(1.0, np.abs(left).max())
        assert np.abs(left - right).max() <= 1e-9 * scale


class TestSymmetricEigen:
    def test_diagonal(self):
        vals, vecs = symmetric_eigen(np.array([[3.0, 0.0], [0.0, 1.0]]))
        assert vals.tolist() == [3.0, 1.0]
        assert np.abs(np.abs(vecs) - np.eye(2)).max() < 1e-12

    def test_classic_2x2(self):
        vals, _ = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert abs(vals[0] - 3.0) < 1e-9
        assert abs(vals[1] - 1.0) < 1e-9

    def test_reconstruction_random(self, rng):
        g = rng.standard_normal((5, 5))
        s = (g + g.T) / 2
        vals, v = symmetric_eigen(s)
        rec = v @ np.diag(vals) @ v.T
        assert np.abs(rec - s).max() <= 1e-9

    def test_eigenpairs_and_ordering(self, rng):
        g = rng.standard_normal((6, 6))
        s = (g + g.T) / 2
        vals, vecs = symmetric_eigen(s)
        assert vals.tolist() == sorted(vals, reverse=True)
        for lam, v in zip(vals, vecs.T):
            assert np.abs(s @ v - lam * v).max() <= 1e-9

    def test_trace_preserved_and_orthonormal(self, rng):
        for _ in range(10):
            g = rng.standard_normal((4, 4))
            s = (g + g.T) / 2
            vals, vecs = symmetric_eigen(s)
            assert abs(sum(vals) - np.trace(s)) <= 1e-9
            gram = vecs.T @ vecs
            assert np.abs(gram - np.eye(4)).max() <= 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            symmetric_eigen(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sign_convention(self, rng):
        g = rng.standard_normal((4, 4))
        s = g + g.T
        _, vecs = symmetric_eigen(s)
        for col in vecs.T:
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert first > 0
