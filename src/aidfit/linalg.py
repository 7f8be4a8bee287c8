"""The validated matrix type data enters by, plus two array kernels.

``DataMatrix`` checks shape and finiteness once, where data enters the
library (loading, generation, ``run_aid`` and the public builders). Below
that edge everything is a plain float64 ndarray: ``matmul`` and
``symmetric_eigen`` take and return arrays and check only shapes.
Products and eigendecompositions go to numpy's BLAS/LAPACK kernels.
Results are byte-identical across repeat runs on one host at a fixed BLAS
thread count; another host or thread count may move them by rounding.
``symmetric_eigen`` fixes the sign of each eigenvector so that its output
does not depend on the kernel's choice.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DataMatrix",
    "ShapeError",
    "matmul",
    "symmetric_eigen",
]

SYMMETRY_TOL = 1e-10


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible or unsupported."""


class DataMatrix:
    """Immutable dense matrix of finite float64 values, stored row-major.

    NaN and infinity are rejected at construction so downstream code never
    has to re-validate.
    """

    __slots__ = ("_values",)

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.float64, order="C", copy=True)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        arr.flags.writeable = False
        self._values = arr

    @property
    def rows(self) -> int:
        return self._values.shape[0]

    @property
    def cols(self) -> int:
        return self._values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape

    @property
    def values(self) -> np.ndarray:
        """Read-only 2-D float64 array (C order)."""
        return self._values

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._values, other._values)
        )

    def __hash__(self):  # pragma: no cover - mutable-by-content semantics
        raise TypeError("DataMatrix is not hashable")

    def __repr__(self) -> str:
        return f"DataMatrix({self.rows}x{self.cols})"


def matmul(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-D arrays."""
    if lhs.ndim != 2 or rhs.ndim != 2 or lhs.shape[1] != rhs.shape[0]:
        left, right = ("x".join(map(str, m.shape)) for m in (lhs, rhs))
        raise ShapeError(f"cannot multiply {left} by {right}")
    return lhs @ rhs


def _first_nonzero_sign_fix(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip column signs so the first entry above tol is nonnegative."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > tol)
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def symmetric_eigen(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric 2-D array.

    Returns eigenvalues sorted descending and the matching orthonormal
    eigenvector columns, each signed so its first entry above 1e-12 in
    magnitude is positive.
    """
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {s.shape}")
    if s.size and np.abs(s - s.T).max() > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within 1e-10")
    eigenvalues, vectors = np.linalg.eigh(s)
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], _first_nonzero_sign_fix(vectors[:, order])
