"""Validated dense matrices at the API edge, plus the few kernels built on them.

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
    "l1_norm",
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


def matmul(lhs: DataMatrix, rhs: DataMatrix) -> DataMatrix:
    """Matrix product of two validated matrices."""
    if lhs.cols != rhs.rows:
        raise ShapeError(
            f"cannot multiply {lhs.rows}x{lhs.cols} by {rhs.rows}x{rhs.cols}"
        )
    return DataMatrix(lhs.values @ rhs.values)


def l1_norm(m: DataMatrix) -> float:
    """Entrywise sum of absolute values."""
    return float(np.abs(m.values).sum())


def _first_nonzero_sign_fix(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip column signs so the first entry above tol is nonnegative."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > tol)
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def symmetric_eigen(s: DataMatrix) -> tuple[list[float], DataMatrix]:
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues sorted descending and the matching orthonormal
    eigenvector columns, each signed so its first entry above 1e-12 in
    magnitude is positive.
    """
    if s.rows != s.cols:
        raise ShapeError(f"matrix must be square, got {s.rows}x{s.cols}")
    a = s.values
    if a.size and np.abs(a - a.T).max() > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within 1e-10")
    eigenvalues, vectors = np.linalg.eigh(a)
    order = np.argsort(-eigenvalues, kind="stable")
    vectors = _first_nonzero_sign_fix(vectors[:, order])
    return eigenvalues[order].tolist(), DataMatrix(vectors)
