"""Singular-value analysis: decomposition, numerical rank, tail energy.

The decomposition contract is algorithm-agnostic: orthonormal singular
vector columns, descending singular values, and reconstruction of the
input, each to 1e-10. LAPACK provides the factorization through numpy:
``gesdd`` for full SVDs, with scipy's ``gesvd`` as the fallback when it
does not converge, and ``gesdd`` without vectors for values only. A
deterministic sign convention on top makes repeated runs bit-comparable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RangeError
from .matrices import Matrix

__all__ = [
    "SpectralDecomposition",
    "svd",
    "singular_values",
    "default_tolerance",
    "numerical_rank",
    "truncated_svd",
    "tail_energy",
    "balanced_factors",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Thin SVD ``w = U diag(s) V^T`` with ``m = min(rows, cols)`` triplets.

    ``left_vectors`` is d_out x m, ``right_vectors`` is d_in x m, both
    with orthonormal columns; ``singular_values`` is descending and
    nonnegative.
    """

    left_vectors: Matrix
    singular_values: np.ndarray
    right_vectors: Matrix

    def __post_init__(self) -> None:
        vals = np.asarray(self.singular_values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "singular_values", vals)

    @property
    def m(self) -> int:
        return self.singular_values.size

    def reconstruct(self) -> Matrix:
        u = self.left_vectors.data
        v = self.right_vectors.data
        return Matrix((u * self.singular_values) @ v.T)


def _thin_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin ``(U, s, V^T)`` of a matrix or a ``(K, m, n)`` stack in one
    LAPACK call, with deterministic signs: each triplet is flipped so the
    first nonzero entry of its left vector is nonnegative; an all-zero left
    vector defers to the right vector.

    The driver is numpy's ``gesdd`` (divide and conquer). Only when it does
    not converge is the input retried with scipy's ``gesvd`` (QR iteration),
    which converges on inputs where ``gesdd`` fails.

    Raises
    ------
    NumericalError
        If neither driver converges; the message carries the input shape.
    """
    try:
        u, s, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError:
        import scipy.linalg  # numpy offers no gesvd driver; loaded only for this retry

        try:
            u, s, vt = scipy.linalg.svd(x, full_matrices=False, lapack_driver="gesvd")
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge for shape {x.shape}") from exc
    # one row per triplet, left vector then right: its first nonzero entry is
    # the left vector's, or the right vector's when the left one is all zero
    rows = np.concatenate([np.swapaxes(u, -1, -2), vt], axis=-1)
    lead = np.take_along_axis(rows, (rows != 0).argmax(axis=-1)[..., None], axis=-1)
    sign = np.where(lead < 0, -1.0, 1.0)  # (..., triplets, 1); an all-zero triplet keeps +1
    return u * np.swapaxes(sign, -1, -2), s, vt * sign


def svd(w: Matrix) -> SpectralDecomposition:
    """Thin SVD with deterministic signs (see :func:`_thin_svd`)."""
    u, s, vt = _thin_svd(w.data)
    return SpectralDecomposition(Matrix(u), s, Matrix(vt.T))


def singular_values(w: Matrix | np.ndarray) -> np.ndarray:
    """Descending singular values only (no vectors). A ``(K, m, n)``
    stack gives a ``(K, min(m, n))`` array, one row per matrix."""
    try:
        return np.linalg.svd(np.asarray(w), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for shape {w.shape}") from exc


def default_tolerance(shape: tuple[int, int], sigma_max: float) -> float:
    """Rank cutoff ``max(rows, cols) * sigma_max * u`` with u the double
    unit roundoff; scale-aware, the usual conservative choice."""
    return max(shape) * float(sigma_max) * np.finfo(np.float64).eps


def _rank_from_values(s: np.ndarray, shape: tuple[int, int], epsilon: float | None):
    """Count of ``s`` strictly above the cutoff (per row of a stack), and the cutoff used."""
    if epsilon is None:
        epsilon = default_tolerance(shape, s.max() if s.size else 0.0)
    if not 0 <= epsilon < np.inf:
        raise RangeError(f"epsilon must be nonnegative and finite, got {epsilon}")
    return np.count_nonzero(s > epsilon, axis=-1).tolist(), epsilon


def numerical_rank(w: Matrix, epsilon: float | None = None) -> int:
    """Count of singular values strictly above ``epsilon``.

    ``epsilon=None`` selects :func:`default_tolerance` for ``w``.
    """
    return _rank_from_values(singular_values(w), w.shape, epsilon)[0]


def truncated_svd(w: Matrix, r: int) -> Matrix:
    """Best rank-``r`` approximation in the Frobenius norm.

    ``r = 0`` gives the zero matrix; ``r`` above ``min(rows, cols)`` is a
    range error.
    """
    m = min(w.shape)
    if not 0 <= r <= m:
        raise RangeError(f"rank {r} out of range 0..{m} for shape {w.shape}")
    if r == 0:
        return Matrix.zeros(w.rows, w.cols)
    u, s, vt = _thin_svd(w.data)
    return Matrix((u[:, :r] * s[:r]) @ vt[:r])


def _tail_from_values(s: np.ndarray, r: int) -> float:
    """Sum of squares of ``s`` beyond index ``r``: the one tail formula,
    shared by :func:`tail_energy` and the witness manifest."""
    return float(np.sum(s[r:] ** 2))


def tail_energy(w: Matrix, r: int) -> float:
    """Sum of squared singular values beyond index ``r``.

    Equals the squared Frobenius distance from ``w`` to its best rank-r
    approximation; exactly 0.0 at ``r = min(rows, cols)``.
    """
    m = min(w.shape)
    if not 0 <= r <= m:
        raise RangeError(f"rank {r} out of range 0..{m} for shape {w.shape}")
    return _tail_from_values(singular_values(w), r)


def balanced_factors(c: Matrix | np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Square-root split ``(a, b)`` of the rank-``r`` truncated SVD:
    ``b = U_r sqrt(s_r)`` and ``a = sqrt(s_r) V_r^T``, so ``b @ a`` is
    the best rank-r approximation of ``c``. A ``(K, m, n)`` stack is
    split in one decomposition into ``(K, r, n)`` and ``(K, m, r)`` stacks."""
    x = np.asarray(c)
    if not 1 <= r <= min(x.shape[-2:]):
        raise RangeError(f"rank {r} out of range 1..{min(x.shape[-2:])} for shape {x.shape}")
    u, s, vt = _thin_svd(x)
    root = np.sqrt(s[..., :r])
    return vt[..., :r, :] * root[..., :, None], u[..., :, :r] * root[..., None, :]
