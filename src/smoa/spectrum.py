"""Singular-value analysis: decomposition, numerical rank, tail energy.

The decomposition contract is algorithm-agnostic: orthonormal singular
vector columns, descending singular values, and reconstruction of the
input, each to 1e-10. LAPACK provides the factorization through numpy:
``gesdd`` for full SVDs, with scipy's ``gesvd`` as the fallback when it
does not converge, and ``gesdd`` without vectors for values only. The
singular vectors keep LAPACK's signs, which are deterministic for one input
and one LAPACK build; of the files the CLI writes, only a spectral fit's
factor files carry them.
The spectrum of a permuted block-diagonal matrix is read off its K blocks
in one batched values-only call, never off the scattered matrix.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError, RangeError
from .matrices import Matrix

__all__ = [
    "svd",
    "singular_values",
    "default_tolerance",
    "numerical_rank",
    "truncated_svd",
    "tail_energy",
    "balanced_factors",
]


def svd(w: Matrix | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin ``(u, s, vt)`` of a matrix or a ``(K, m, n)`` stack in one
    LAPACK call, read-only and otherwise as LAPACK gives it: for a d_out x
    d_in matrix, ``u`` is d_out x m with orthonormal columns, ``s`` holds m
    descending values and ``vt`` is m x d_in with orthonormal rows, m =
    min(d_out, d_in). The vectors carry LAPACK's signs, deterministic for
    one input and one LAPACK build.

    The driver is numpy's ``gesdd`` (divide and conquer). Only when it does
    not converge is the input retried with scipy's ``gesvd`` (QR iteration),
    which converges on inputs where ``gesdd`` fails.

    Raises
    ------
    NumericalError
        If neither driver converges; the message carries the input shape.
    """
    x = np.asarray(w)
    try:
        factors = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError:
        import scipy.linalg  # numpy offers no gesvd driver; loaded only for this retry

        try:
            factors = scipy.linalg.svd(x, full_matrices=False, lapack_driver="gesvd")
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge for shape {x.shape}") from exc
    for array in factors:
        array.setflags(write=False)
    return tuple(factors)


def singular_values(w: Matrix | np.ndarray) -> np.ndarray:
    """Descending singular values only (no vectors). A ``(K, m, n)``
    stack gives a ``(K, min(m, n))`` array, one row per matrix."""
    try:
        return np.linalg.svd(np.asarray(w), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for shape {w.shape}") from exc


def _union_values(values: np.ndarray) -> np.ndarray:
    """Descending union of the rows of the ``(K, m)`` values that
    :func:`singular_values` gives for a ``(K, s_out, s_in)`` block stack.
    Permutations and block-diagonal structure leave singular values
    unchanged (Golub & Van Loan, *Matrix Computations*), so these are the
    singular values of the blocks scattered onto a permuted block diagonal:
    min(d_out, d_in) of them for K equal blocks, without a d_out x d_in
    decomposition."""
    return np.sort(values, axis=None)[::-1]


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
    range error. Each left vector meets its own right vector, so the
    signs LAPACK gives them cancel.
    """
    m = min(w.shape)
    if not 0 <= r <= m:
        raise RangeError(f"rank {r} out of range 0..{m} for shape {w.shape}")
    if r == 0:
        return Matrix.zeros(w.rows, w.cols)
    u, s, vt = svd(w)
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
    split in one decomposition into ``(K, r, n)`` and ``(K, m, r)`` stacks.
    The factors carry LAPACK's signs, deterministic for one input and one
    LAPACK build; ``b @ a`` does not depend on them."""
    x = np.asarray(c)
    if not 1 <= r <= min(x.shape[-2:]):
        raise RangeError(f"rank {r} out of range 1..{min(x.shape[-2:])} for shape {x.shape}")
    u, s, vt = svd(x)
    root = np.sqrt(s[..., :r])
    return vt[..., :r, :] * root[..., :, None], u[..., :, :r] * root[..., None, :]
