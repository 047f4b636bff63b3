"""Seeded test-matrix generators.

Four families cover the regimes the diagnostics distinguish: pure
noise, exact diagonal structure, noise with planted rank-one spikes,
and a low-rank signal buried in noise. All draws go through
``numpy.random.default_rng`` so a seed pins the matrix bit for bit.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ConfigurationError, RangeError
from .matrices import Matrix

__all__ = [
    "gaussian_matrix",
    "diagonal_matrix",
    "spiked_matrix",
    "low_rank_plus_noise",
]


def _check_shape(rows: int, cols: int) -> None:
    """Positive dimensions of a float64 array whose byte size numpy can address."""
    if rows < 1 or cols < 1:
        raise RangeError(f"dimensions must be positive, got {rows}x{cols}")
    if rows * cols * 8 > np.iinfo(np.intp).max:
        raise RangeError(f"a {rows}x{cols} float64 array is too large to address")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise RangeError(f"seed must be nonnegative, got {seed}")


def _rng(seed: int) -> np.random.Generator:
    _check_seed(seed)
    return np.random.default_rng(seed)


def gaussian_matrix(rows: int, cols: int, seed: int, scale: float = 1.0) -> Matrix:
    """i.i.d. N(0, scale^2) entries."""
    _check_shape(rows, cols)
    if not 0 < scale < np.inf:
        raise ConfigurationError(f"scale must be positive and finite, got {scale}")
    rng = _rng(seed)
    return Matrix(rng.standard_normal((rows, cols)) * scale)


def diagonal_matrix(rows: int, cols: int, values: Sequence[float]) -> Matrix:
    """Given values on the main diagonal, zero elsewhere."""
    _check_shape(rows, cols)
    return Matrix.diagonal(values, rows=rows, cols=cols)


def spiked_matrix(
    rows: int, cols: int, spikes: int, strength: float, seed: int
) -> Matrix:
    """Unit Gaussian noise plus ``spikes`` planted rank-one directions.

    Each spike is c * u v^T with orthonormal u, v and c = strength *
    sqrt(max(rows, cols)), i.e. ``strength`` is measured in units of
    the noise normalization, so a strength well above the bulk edge
    shows up as exactly that many spectral outliers.
    """
    _check_shape(rows, cols)
    if spikes < 0 or spikes > min(rows, cols):
        raise RangeError(f"spikes={spikes} out of range 0..{min(rows, cols)}")
    if not 0 <= strength < np.inf:
        raise ConfigurationError(f"strength must be nonnegative and finite, got {strength}")
    rng = _rng(seed)
    noise = rng.standard_normal((rows, cols))
    if spikes == 0:
        return Matrix(noise)
    u, _ = np.linalg.qr(rng.standard_normal((rows, spikes)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, spikes)))
    c = strength * np.sqrt(max(rows, cols))
    return Matrix(noise + c * (u @ v.T))


def low_rank_plus_noise(
    rows: int, cols: int, rank: int, noise: float, seed: int
) -> Matrix:
    """Rank-``rank`` Gaussian factor product plus noise * N(0, 1).

    The signal part is scaled by 1/sqrt(rank) so its entries stay O(1)
    regardless of rank. ``rank = 0`` gives pure noise.
    """
    _check_shape(rows, cols)
    if rank < 0 or rank > min(rows, cols):
        raise RangeError(f"rank={rank} out of range 0..{min(rows, cols)}")
    if not 0 <= noise < np.inf:
        raise ConfigurationError(f"noise must be nonnegative and finite, got {noise}")
    rng = _rng(seed)
    if rank == 0:
        signal = np.zeros((rows, cols))
    else:
        signal = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        signal /= np.sqrt(rank)
    return Matrix(signal + noise * rng.standard_normal((rows, cols)))
