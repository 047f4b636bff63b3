"""Dense matrix and permutation primitives.

Everything downstream (spectral analysis, block plans, adapters,
diagnostics) is built on two immutable value types: :class:`Matrix`, a
dense real matrix with finite float64 entries, and :class:`Permutation`,
a bijection on coordinate indices. Operations are pure functions; values
never mutate after construction, so they are safe to share across
threads.

Indices in this API are 0-based, the native Python convention. File
formats convert to 1-based indices at the serialization boundary (see
:mod:`smoa.matio` and the per-module savers).
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, DimensionError, NumericalError, RangeError

__all__ = [
    "Matrix",
    "Permutation",
    "apply_permutations",
    "invert_permutations",
    "block_diagonal",
]


class Matrix:
    """Immutable dense real matrix (float64, row-major).

    Constructors reject empty shapes and non-finite entries, so every
    Matrix in the system is safe input for decompositions and norms.
    The backing array is marked read-only; ``data`` exposes it without
    copying, ``to_array`` returns a writable copy.
    """

    __slots__ = ("_data",)

    def __init__(self, entries) -> None:
        data = np.array(entries, dtype=np.float64, order="C")
        if data.ndim != 2:
            raise DimensionError(f"expected a 2-d array, got {data.ndim}-d")
        if data.shape[0] == 0 or data.shape[1] == 0:
            raise DimensionError(f"matrix dimensions must be positive, got {data.shape}")
        if not np.isfinite(data).all():
            raise NumericalError("matrix entries must be finite, got NaN or Inf")
        data.setflags(write=False)
        self._data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        return cls(np.zeros((rows, cols)))

    @classmethod
    def ones(cls, rows: int, cols: int) -> Matrix:
        return cls(np.ones((rows, cols)))

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, values, rows: int | None = None, cols: int | None = None) -> Matrix:
        """Matrix with ``values`` on the main diagonal, zero elsewhere."""
        vals = np.asarray(values, dtype=np.float64).ravel()
        n = vals.size
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        if n > min(rows, cols):
            raise RangeError(
                f"{n} diagonal values do not fit a {rows}x{cols} matrix"
            )
        data = np.zeros((rows, cols))
        data[np.arange(n), np.arange(n)] = vals
        return cls(data)

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the backing array."""
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    def to_array(self) -> np.ndarray:
        return self._data.copy()

    def transpose(self) -> Matrix:
        return Matrix(self._data.T)

    @property
    def T(self) -> Matrix:
        return self.transpose()

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self._data))

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self._data.astype(dtype)
        return self._data

    def __getitem__(self, key):
        return self._data[key]

    def __add__(self, other: Matrix) -> Matrix:
        _check_same_shape("add", self, other)
        return Matrix(self._data + other._data)

    def __sub__(self, other: Matrix) -> Matrix:
        _check_same_shape("subtract", self, other)
        return Matrix(self._data - other._data)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.shape} by {other.shape}: inner dimensions differ"
            )
        return Matrix(self._data @ other._data)

    def __mul__(self, scalar: float) -> Matrix:
        return Matrix(self._data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> Matrix:
        return Matrix(-self._data)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def _check_same_shape(op: str, a: Matrix, b: Matrix) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"cannot {op} {a.shape} and {b.shape}")


class Permutation:
    """Bijection on ``{0, ..., size - 1}``.

    ``indices[i]`` is the original coordinate placed at new position
    ``i``. Applying a permutation pair to a matrix therefore gathers
    entries, and applying the inverses scatters them back exactly.
    """

    __slots__ = ("_indices",)

    def __init__(self, indices) -> None:
        idx = np.array(indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise DimensionError("permutation needs a nonempty 1-d index array")
        if not np.array_equal(np.sort(idx), np.arange(idx.size)):
            raise ConfigurationError(
                f"indices are not a bijection on 0..{idx.size - 1}"
            )
        idx.setflags(write=False)
        self._indices = idx

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(np.arange(n))

    @classmethod
    def from_one_based(cls, indices: Sequence[int]) -> Permutation:
        return cls(np.asarray(indices, dtype=np.intp) - 1)

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def size(self) -> int:
        return self._indices.size

    def inverse(self) -> Permutation:
        inv = np.empty(self.size, dtype=np.intp)
        inv[self._indices] = np.arange(self.size)
        return Permutation(inv)

    def to_one_based(self) -> list[int]:
        return [int(i) + 1 for i in self._indices]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self._indices, other._indices)

    def __hash__(self) -> int:
        return hash(self._indices.tobytes())

    def __repr__(self) -> str:
        return f"Permutation(size={self.size})"


def apply_permutations(w: Matrix, p_out: Permutation, p_in: Permutation) -> Matrix:
    """Reorder rows by ``p_out`` and columns by ``p_in``.

    Entry ``(i, j)`` of the result is entry ``(p_out[i], p_in[j])`` of
    ``w``; a pure gather, bitwise exact.
    """
    if p_out.size != w.rows or p_in.size != w.cols:
        raise DimensionError(
            f"permutation sizes ({p_out.size}, {p_in.size}) do not match matrix {w.shape}"
        )
    return Matrix(w.data[np.ix_(p_out.indices, p_in.indices)])


def invert_permutations(w: Matrix, p_out: Permutation, p_in: Permutation) -> Matrix:
    """Undo :func:`apply_permutations` with the same pair; bitwise exact."""
    if p_out.size != w.rows or p_in.size != w.cols:
        raise DimensionError(
            f"permutation sizes ({p_out.size}, {p_in.size}) do not match matrix {w.shape}"
        )
    out = np.empty_like(w.data)
    out[np.ix_(p_out.indices, p_in.indices)] = w.data
    return Matrix(out)


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    """Assemble blocks on the diagonal, exact zeros elsewhere.

    Result shape is the sum of block shapes; the list must be nonempty.
    """
    if len(blocks) == 0:
        raise ConfigurationError("block_diagonal needs at least one block")
    return Matrix(scipy.linalg.block_diag(*[b.data for b in blocks]))
