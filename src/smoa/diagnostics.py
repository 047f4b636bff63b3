"""Random-matrix diagnostics for weight spectra.

Singular values are normalized as nu_i = sigma_i / (sigma_hat sqrt(n))
with n the larger dimension, so an i.i.d. noise matrix concentrates its
spectrum in the Marchenko-Pastur bulk: squared normalized values fill
[(1 - sqrt(lambda))^2, (1 + sqrt(lambda))^2] with lambda the aspect
ratio min/max, and the singular bulk edge sits at 1 + sqrt(lambda).
Values strictly beyond that edge are outliers, the structure a low-rank
adapter could latch onto.

When no noise scale is supplied, it is estimated from the spectrum
median: sigma_hat = median(sigma) / sqrt(n * m_med) where m_med is the
median of the Marchenko-Pastur eigenvalue law at the same aspect ratio,
found by bisecting its closed-form CDF (Bai & Silverstein, Spectral
Analysis of Large Dimensional Random Matrices). The median is robust to
a small number of planted spikes.

Overlap scores locate singular directions against the eigenbasis of an
activation second-moment matrix: score_k is the squared best alignment
of right singular vector k, 1.0 for perfect alignment, order log(d)/d
for an unrelated basis. A Monte Carlo band over random unit vectors
calibrates that baseline.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DimensionError, EstimationError, RangeError
from .fileutil import atomic_write_text, csv_text, write_json
from .gen import _check_shape, _rng
from .matrices import Matrix
from .spectrum import SpectralDecomposition, _rank_from_values, singular_values, svd

__all__ = [
    "ActivationSample",
    "SpectralReport",
    "normalized_spectrum",
    "estimate_noise_scale",
    "mp_bulk_edge",
    "mp_median",
    "mp_singular_density",
    "count_outliers",
    "overlap_scores",
    "full_report",
    "save_report",
]


def _aspect_ratio(rows: int, cols: int) -> float:
    return min(rows, cols) / max(rows, cols)


def mp_singular_density(nu, ratio: float):
    """Marchenko-Pastur density of normalized singular values.

    Support is [1 - sqrt(ratio), 1 + sqrt(ratio)] (unit noise scale);
    the eigenvalue law pushed through the square root. Vectorized.
    """
    if not 0 < ratio <= 1:
        raise RangeError(f"aspect ratio must lie in (0, 1], got {ratio}")
    nu_arr = np.asarray(nu, dtype=np.float64)
    a = (1 - math.sqrt(ratio)) ** 2
    b = (1 + math.sqrt(ratio)) ** 2
    sq = nu_arr**2
    inside = (sq > a) & (sq < b)
    safe = np.where(inside, nu_arr, 1.0)
    radicand = np.maximum((b - safe**2) * (safe**2 - a), 0.0)
    out = np.where(inside, np.sqrt(radicand) / (math.pi * ratio * safe), 0.0)
    return out if out.ndim else float(out)


def _mp_sv_cdf(x: float, ratio: float) -> float:
    """CDF of the normalized singular-value law at ``x``: the closed-form
    integral of the eigenvalue density over [lo^2, x^2]."""
    lo = 1 - math.sqrt(ratio)
    hi = 1 + math.sqrt(ratio)
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    t, c, h = x * x, 1 + ratio, 2 * math.sqrt(ratio)
    root = math.sqrt(max((hi * hi - t) * (t - lo * lo), 0.0))
    inner = math.asin(min(max((t - c) / h, -1.0), 1.0)) + math.pi / 2
    outer = math.asin(min(max((c * t - (1 - ratio) ** 2) / (h * t), -1.0), 1.0)) + math.pi / 2
    return (root + c * inner - (1 - ratio) * outer) / (2 * math.pi * ratio)


def mp_median(ratio: float) -> float:
    """Median of the Marchenko-Pastur eigenvalue law at ``ratio``.

    Found by bisecting the singular-value CDF to 1e-10 and squaring,
    which is the same median in eigenvalue units.
    """
    if not 0 < ratio <= 1:
        raise RangeError(f"aspect ratio must lie in (0, 1], got {ratio}")
    lo = 1 - math.sqrt(ratio)
    hi = 1 + math.sqrt(ratio)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if _mp_sv_cdf(mid, ratio) < 0.5:
            lo = mid
        else:
            hi = mid
    nu_med = 0.5 * (lo + hi)
    return nu_med**2


def _estimate_from_values(values: np.ndarray, shape: tuple[int, int]) -> float:
    med = float(np.median(values))
    if med <= 0.0:
        raise EstimationError(
            "cannot estimate a noise scale: the spectrum median is zero"
        )
    n = max(shape)
    return med / math.sqrt(n * mp_median(_aspect_ratio(*shape)))


def estimate_noise_scale(w: Matrix) -> float:
    """Median-based noise-scale estimate; robust to a few spikes."""
    return _estimate_from_values(singular_values(w), w.shape)


def _normalize(values: np.ndarray, shape: tuple[int, int], noise_scale: float | None) -> tuple[np.ndarray, float]:
    """``(nu, noise_scale)`` with nu = values / (noise_scale * sqrt(max
    dimension)); ``noise_scale=None`` triggers the median estimator."""
    if noise_scale is None:
        noise_scale = _estimate_from_values(values, shape)
    elif not 0 < noise_scale < math.inf:
        raise ConfigurationError(f"noise scale must be positive and finite, got {noise_scale}")
    return values / (noise_scale * math.sqrt(max(shape))), noise_scale


def normalized_spectrum(w: Matrix, noise_scale: float | None = None) -> np.ndarray:
    """Descending nu_i = sigma_i / (noise_scale * sqrt(max dimension)).

    ``noise_scale=None`` triggers the median estimator.
    """
    return _normalize(singular_values(w), w.shape, noise_scale)[0]


def mp_bulk_edge(rows: int, cols: int) -> float:
    """Upper bulk edge 1 + sqrt(lambda) in normalized units.

    The normalization already divides the noise scale out, so the edge
    depends only on the aspect ratio.
    """
    if rows < 1 or cols < 1:
        raise RangeError(f"dimensions must be positive, got {rows}x{cols}")
    return 1.0 + math.sqrt(_aspect_ratio(rows, cols))


def count_outliers(w: Matrix, noise_scale: float | None = None) -> int:
    """Number of normalized singular values strictly above the edge."""
    nu = normalized_spectrum(w, noise_scale)
    return int(np.count_nonzero(nu > mp_bulk_edge(w.rows, w.cols)))


@dataclass(frozen=True)
class ActivationSample:
    """Batch of activation columns, shape d_in x n."""

    data: Matrix

    @property
    def d_in(self) -> int:
        return self.data.rows

    @property
    def count(self) -> int:
        return self.data.cols

    @cached_property
    def covariance(self) -> np.ndarray:
        """Biased (1/n) second-moment matrix, symmetrized."""
        x = self.data.data
        c = (x @ x.T) / self.count
        return (c + c.T) / 2

    @cached_property
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = np.linalg.eigh(self.covariance)
        order = np.argsort(vals, kind="stable")[::-1]
        return vals[order], vecs[:, order]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigensystem[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Columns are eigenvectors, eigenvalue-descending."""
        return self._eigensystem[1]


def _overlaps(dec: SpectralDecomposition, activations: ActivationSample) -> list[tuple[int, float]]:
    """Overlap scores from a decomposition the caller already holds."""
    right = dec.right_vectors.data
    if activations.d_in != right.shape[0]:
        raise DimensionError(
            f"activations live in dimension {activations.d_in}, weight columns are {right.shape[0]}"
        )
    projections = (right.T @ activations.eigenvectors) ** 2
    best = np.minimum(projections.max(axis=1), 1.0)
    return [(k + 1, float(score)) for k, score in enumerate(best)]


def overlap_scores(w: Matrix, activations: ActivationSample) -> list[tuple[int, float]]:
    """Squared best alignment of each right singular vector of ``w``
    against the activation eigenbasis; ``(k, score)`` with k 1-based."""
    return _overlaps(svd(w), activations)


_BAND_DRAWS = 200  # random unit vectors behind the Monte Carlo overlap band


def _bulk_band(eigenvectors: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    g = rng.standard_normal((_BAND_DRAWS, eigenvectors.shape[0]))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    scores = ((g @ eigenvectors) ** 2).max(axis=1)
    return float(scores.mean()), float(scores.std())


@dataclass(frozen=True)
class SpectralReport:
    """Full spectral diagnosis of one weight matrix.

    ``tail_energy_curve[r]`` is ``(r, sum of squared singular values
    beyond r)`` for r = 0..m. ``overlaps`` is empty when no activations
    were supplied, and the bulk band fields are None in that case.
    Metadata records the shape, the rank cutoff, the noise scale
    actually used, and the Monte Carlo seed.
    """

    normalized_values: tuple[float, ...]
    bulk_edge: float
    outlier_count: int
    numerical_rank: int
    tail_energy_curve: tuple[tuple[int, float], ...]
    overlaps: tuple[tuple[int, float], ...]
    bulk_overlap_mean: float | None
    bulk_overlap_sigma: float | None
    rows: int
    cols: int
    epsilon: float
    noise_scale: float
    seed: int
    band_draws: int


def full_report(
    w: Matrix,
    activations: ActivationSample | None = None,
    *,
    epsilon: float | None = None,
    noise_scale: float | None = None,
    seed: int = 0,
) -> SpectralReport:
    """Assemble every diagnostic in one pass over one decomposition.

    Deterministic for fixed inputs and seed; the seed feeds only the
    Monte Carlo bulk band (200 random unit vectors).
    """
    rng = _rng(seed)
    dec = svd(w)
    values = dec.singular_values
    nu, noise_scale = _normalize(values, w.shape, noise_scale)
    edge = mp_bulk_edge(w.rows, w.cols)
    rank, epsilon = _rank_from_values(values, w.shape, epsilon)
    tail = np.concatenate([np.cumsum((values**2)[::-1])[::-1], [0.0]])
    curve = tuple((r, float(tail[r])) for r in range(values.size + 1))
    if activations is not None:
        pairs = _overlaps(dec, activations)
        mean, sigma = _bulk_band(activations.eigenvectors, rng)
    else:
        pairs, mean, sigma = [], None, None
    return SpectralReport(
        normalized_values=tuple(float(v) for v in nu),
        bulk_edge=float(edge),
        outlier_count=int(np.count_nonzero(nu > edge)),
        numerical_rank=rank,
        tail_energy_curve=curve,
        overlaps=tuple(pairs),
        bulk_overlap_mean=mean,
        bulk_overlap_sigma=sigma,
        rows=w.rows,
        cols=w.cols,
        epsilon=float(epsilon),
        noise_scale=float(noise_scale),
        seed=seed,
        band_draws=_BAND_DRAWS,
    )


def save_report(
    report: SpectralReport,
    json_path: str | os.PathLike,
    histogram_path: str | os.PathLike | None = None,
    overlaps_path: str | os.PathLike | None = None,
    bins: int = 50,
) -> None:
    """Write the report JSON and its two CSV panels.

    ``nu_histogram.csv`` holds bin edges, counts, and the bulk density
    prediction at the bin center; ``overlaps.csv`` holds one row per
    singular direction with the Monte Carlo band repeated alongside.
    Nothing is written until both panels are rendered: a failure leaves no file.
    """
    if histogram_path is not None:
        if bins < 1:
            raise ConfigurationError(f"bins must be positive, got {bins}")
        _check_shape(1, bins + 1)  # the bin edges
    doc = {
        "normalized_values": list(report.normalized_values),
        "bulk_edge": report.bulk_edge,
        "outlier_count": report.outlier_count,
        "numerical_rank": report.numerical_rank,
        "tail_energy_curve": [[r, e] for r, e in report.tail_energy_curve],
        "overlaps": [[k, s] for k, s in report.overlaps],
        "bulk_overlap_mean": report.bulk_overlap_mean,
        "bulk_overlap_sigma": report.bulk_overlap_sigma,
        "metadata": {
            "rows": report.rows,
            "cols": report.cols,
            "epsilon": report.epsilon,
            "noise_scale": report.noise_scale,
            "seed": report.seed,
            "band_draws": report.band_draws,
        },
    }
    panels = []  # (path, CSV text)
    if histogram_path is not None:
        nu = np.asarray(report.normalized_values)
        top = max(float(nu.max()) if nu.size else 0.0, report.bulk_edge) * 1.02
        edges = np.linspace(0.0, top, bins + 1)
        counts, _ = np.histogram(nu, bins=edges)
        centers = (edges[:-1] + edges[1:]) / 2
        density = mp_singular_density(centers, _aspect_ratio(report.rows, report.cols))
        panels.append((histogram_path, csv_text([["bin_left", "bin_right", "count", "mp_density"],
                                                 *zip(edges[:-1], edges[1:], counts, density)])))
    if overlaps_path is not None:
        rows = []
        if report.overlaps and report.bulk_overlap_mean is not None:
            mean = report.bulk_overlap_mean
            sigma = report.bulk_overlap_sigma or 0.0
            lo, hi = mean - 3 * sigma, mean + 3 * sigma
            rows = [[k, report.normalized_values[k - 1], score, mean, lo, hi]
                    for k, score in report.overlaps]
        panels.append((overlaps_path, csv_text([["k", "nu_k", "score", "bulk_mean", "bulk_lo",
                                                 "bulk_hi"], *rows])))
    write_json(json_path, doc)
    for path, text in panels:
        atomic_write_text(path, text)
