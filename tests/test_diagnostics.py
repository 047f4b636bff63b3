"""Spectral diagnostics: bulk law oracles, outliers, overlap scores."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from numpy.testing import assert_allclose

from smoa import (
    ActivationSample,
    ConfigurationError,
    DimensionError,
    EstimationError,
    Matrix,
    NumericalError,
    RangeError,
    count_outliers,
    estimate_noise_scale,
    full_report,
    gaussian_matrix,
    low_rank_plus_noise,
    mp_bulk_edge,
    mp_median,
    mp_singular_density,
    normalized_spectrum,
    overlap_scores,
    save_report,
    spiked_matrix,
)

import smoa
from smoa.diagnostics import _mp_sv_cdf

from conftest import random_matrix


class TestBulkLaw:
    def test_density_integrates_to_one(self):
        for ratio in (0.25, 0.5, 1.0):
            lo, hi = 1 - math.sqrt(ratio), 1 + math.sqrt(ratio)
            mass, _ = scipy.integrate.quad(
                mp_singular_density, lo, hi, args=(ratio,), limit=200
            )
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_square_case_is_quarter_circle(self):
        """At aspect ratio 1 the singular density reduces to
        sqrt(4 - nu^2) / pi on (0, 2)."""
        for nu in (0.3, 1.0, 1.7):
            expected = math.sqrt(4 - nu**2) / math.pi
            assert mp_singular_density(nu, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_density_zero_outside_support(self):
        assert mp_singular_density(0.4, 0.25) == 0.0  # below 1 - 0.5
        assert mp_singular_density(1.6, 0.25) == 0.0  # above 1 + 0.5
        assert mp_singular_density(0.0, 1.0) == 0.0

    def test_density_vectorized(self):
        grid = np.linspace(0.0, 2.5, 7)
        values = mp_singular_density(grid, 0.5)
        assert values.shape == grid.shape
        assert_allclose(values, [mp_singular_density(float(x), 0.5) for x in grid])

    def test_ratio_guard(self):
        with pytest.raises(RangeError):
            mp_singular_density(1.0, 0.0)
        with pytest.raises(RangeError):
            mp_singular_density(1.0, 1.5)
        with pytest.raises(RangeError):
            mp_median(-0.5)

    def test_median_against_monte_carlo(self):
        """Independent oracle: empirical median eigenvalue of a large
        sample covariance matches the analytic law median."""
        rng = np.random.default_rng(4242)
        rows, cols = 512, 1024  # ratio 0.5, n = 1024
        x = rng.standard_normal((rows, cols))
        eigs = np.linalg.svd(x, compute_uv=False) ** 2 / cols
        assert float(np.median(eigs)) == pytest.approx(mp_median(0.5), rel=0.05)

    def test_median_square_case(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal((768, 768))
        eigs = np.linalg.svd(x, compute_uv=False) ** 2 / 768
        assert float(np.median(eigs)) == pytest.approx(mp_median(1.0), rel=0.05)

    def test_median_monotone_in_ratio(self):
        medians = [mp_median(r) for r in (0.1, 0.4, 0.7, 1.0)]
        assert all(a > b for a, b in zip(medians, medians[1:]))

    @pytest.mark.parametrize("ratio", [0.01, 0.1, 0.25, 0.5, 2 / 3, 0.75, 0.999, 1.0])
    def test_cdf_matches_quadrature(self, ratio):
        """The closed-form CDF against numerical integration of the
        density, across the bulk and just outside both edges."""
        lo, hi = 1 - math.sqrt(ratio), 1 + math.sqrt(ratio)
        for x in np.linspace(lo - 0.01, hi + 0.01, 41):
            x = float(x)
            if x <= lo:
                expected = 0.0
            elif x >= hi:
                expected = 1.0
            else:
                expected, _ = scipy.integrate.quad(
                    mp_singular_density, lo, x, args=(ratio,),
                    epsabs=1e-12, epsrel=1e-12, limit=200,
                )
            assert _mp_sv_cdf(x, ratio) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("ratio,expected", [
        (0.1, "0x1.eee1a0836797ep-1"),
        (0.25, "0x1.d4fe7c4cd8a8dp-1"),
        (0.5, "0x1.a932d2f428bf0p-1"),
        (0.75, "0x1.7c63be7cc1f66p-1"),
        (1.0, "0x1.4e38a5f220e9ep-1"),
        (48 / 72, "0x1.8b74dd2da2d10p-1"),
        (256 / 512, "0x1.a932d2f428bf0p-1"),
    ])
    def test_median_bits_pinned(self, ratio, expected):
        """Bit-exact medians, recorded when the CDF was still integrated
        numerically; noise-scale estimates and reports depend on them."""
        assert mp_median(ratio).hex() == expected

    def test_cli_import_skips_numerical_integration(self):
        code = "import sys, smoa.cli; print('scipy.integrate' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(smoa.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
        ).stdout
        assert out.strip() == "False"


class TestGenerators:
    @pytest.mark.parametrize("count", [-1, 5])
    @pytest.mark.parametrize("make,name", [(spiked_matrix, "spikes"), (low_rank_plus_noise, "rank")],
                             ids=["spiked", "low-rank"])
    def test_count_out_of_range(self, make, name, count):
        with pytest.raises(RangeError, match=f"{name}={count} out of range 0..4"):
            make(4, 6, count, 1.0, 0)

    @pytest.mark.parametrize("make", [spiked_matrix, low_rank_plus_noise], ids=["spiked", "low-rank"])
    def test_zero_count_is_the_seeds_unit_noise(self, make):
        """No spike and no signal: the seed's unit Gaussian draw, bit for bit."""
        assert make(4, 6, 0, 1.0, 3).data.tobytes() == gaussian_matrix(4, 6, 3).data.tobytes()


class TestBulkEdge:
    def test_closed_form(self):
        assert mp_bulk_edge(256, 256) == 2.0
        assert mp_bulk_edge(256, 1024) == 1.5
        assert mp_bulk_edge(1024, 256) == 1.5  # orientation-free

    def test_guards(self):
        with pytest.raises(RangeError):
            mp_bulk_edge(0, 4)
        with pytest.raises(RangeError):
            mp_bulk_edge(4, 0)


class TestNoiseEstimate:
    def test_recovers_unit_scale(self):
        noise = gaussian_matrix(256, 256, seed=7)
        assert estimate_noise_scale(noise) == pytest.approx(1.0, rel=0.02)

    def test_scales_linearly(self):
        noise = gaussian_matrix(192, 256, seed=11)
        scaled = Matrix(noise.data * 3.5)
        assert estimate_noise_scale(scaled) == pytest.approx(
            3.5 * estimate_noise_scale(noise), rel=1e-10
        )

    def test_robust_to_spikes(self):
        """A handful of planted spikes barely moves the median-based
        estimate."""
        spiked = spiked_matrix(256, 256, spikes=5, strength=10.0, seed=13)
        assert estimate_noise_scale(spiked) == pytest.approx(1.0, rel=0.05)

    def test_zero_spectrum_raises(self):
        with pytest.raises(EstimationError):
            estimate_noise_scale(Matrix.zeros(8, 8))

    def test_rectangular_aspect(self):
        noise = gaussian_matrix(128, 512, seed=17)
        assert estimate_noise_scale(noise) == pytest.approx(1.0, rel=0.03)


class TestNormalizedSpectrum:
    def test_explicit_scale_divides_out(self, rng):
        w = random_matrix(rng, 32, 48)
        nu = normalized_spectrum(w, noise_scale=2.0)
        from smoa import singular_values

        assert_allclose(nu, singular_values(w) / (2.0 * math.sqrt(48)), rtol=1e-12)

    def test_noise_fills_bulk(self):
        noise = gaussian_matrix(384, 512, seed=23)
        nu = normalized_spectrum(noise, noise_scale=1.0)
        edge = mp_bulk_edge(384, 512)
        lower = 1 - math.sqrt(384 / 512)
        assert nu[0] == pytest.approx(edge, rel=0.03)
        assert nu[-1] == pytest.approx(lower, abs=0.05)

    def test_scale_guard(self, rng):
        with pytest.raises(ConfigurationError):
            normalized_spectrum(random_matrix(rng, 4, 4), noise_scale=0.0)


class TestOutliers:
    def test_pure_noise_has_almost_none(self):
        counts = [count_outliers(gaussian_matrix(256, 256, seed=s)) for s in range(5)]
        assert np.mean(counts) <= 0.02 * 256

    def test_planted_spikes_are_counted_exactly(self):
        for seed in range(5):
            spiked = spiked_matrix(256, 256, spikes=5, strength=10.0, seed=seed)
            assert count_outliers(spiked) == 5

    def test_spike_count_scales(self):
        spiked = spiked_matrix(256, 256, spikes=12, strength=8.0, seed=3)
        assert count_outliers(spiked) == 12


class TestActivationSample:
    def test_covariance_shape_and_symmetry(self, rng):
        sample = ActivationSample(random_matrix(rng, 6, 40))
        cov = sample.covariance
        assert cov.shape == (6, 6)
        assert np.array_equal(cov, cov.T)
        assert sample.d_in == 6 and sample.count == 40

    def test_eigensystem_descending_orthonormal(self, rng):
        sample = ActivationSample(random_matrix(rng, 8, 100))
        vals, vecs = sample.eigenvalues, sample.eigenvectors
        assert np.all(vals[:-1] >= vals[1:])
        assert np.all(vals >= -1e-12)
        assert_allclose(vecs.T @ vecs, np.eye(8), atol=1e-12)

    def test_covariance_matches_definition(self, rng):
        x = random_matrix(rng, 5, 30)
        sample = ActivationSample(x)
        assert_allclose(sample.covariance, x.data @ x.data.T / 30, atol=1e-14)

    def test_overflowing_second_moment_is_numerical_error(self, rng, capfd):
        """1e200-scale activations overflow their second moment; the report
        refuses it with a typed error before LAPACK, which would print to
        stdout and fail untyped, ever sees it."""
        sample = ActivationSample(Matrix(random_matrix(rng, 8, 20).data * 1e200))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalError, match="second-moment matrix is not finite"):
            full_report(random_matrix(rng, 8, 8), sample)
        assert capfd.readouterr().out == ""


class TestOverlapScores:
    def test_exactly_aligned_construction(self, rng):
        """Build activations whose covariance eigenbasis is exactly a
        known V, and a weight whose right singular basis is the same V;
        every score must be 1 up to roundoff."""
        d = 8
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        profile = np.linspace(4.0, 1.0, d)  # distinct, descending
        x = Matrix(q * np.sqrt(d * profile))  # (1/d) X X^T = q diag(profile) q^T
        sample = ActivationSample(x)
        w = Matrix((np.diag(np.linspace(9.0, 2.0, d)) @ q.T))
        scores = overlap_scores(w, sample)
        assert len(scores) == d
        assert [k for k, _ in scores] == list(range(1, d + 1))
        for _, score in scores:
            assert score == pytest.approx(1.0, abs=1e-9)

    def test_aligned_spectrum_statistical(self, rng):
        """Activations drawn from a covariance with geometrically spaced
        eigenvalues; the weight's right basis is set to the population
        basis. Sample eigenvectors concentrate, so scores run high."""
        d, n = 16, 50 * 16
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        profile = d * (1e-8) ** (np.arange(d) / (d - 1))
        x = q @ (np.sqrt(profile)[:, None] * rng.standard_normal((d, n)))
        sample = ActivationSample(Matrix(x))
        w = Matrix(np.diag(np.linspace(5.0, 1.0, d)) @ q.T)
        scores = [score for _, score in overlap_scores(w, sample)]
        assert min(scores) > 0.9

    def test_isotropic_baseline_is_low(self, rng):
        """Against an unrelated basis the best squared alignment sits at
        the log(d)/d scale, far from 1."""
        d, n = 64, 64 * 50
        sample = ActivationSample(Matrix(rng.standard_normal((d, n))))
        w = random_matrix(rng, d, d)
        scores = np.array([score for _, score in overlap_scores(w, sample)])
        baseline = math.log(d) / d
        assert 0.5 * baseline < scores.mean() < 4 * baseline

    def test_scores_clipped_to_one(self, rng):
        sample = ActivationSample(random_matrix(rng, 4, 12))
        for _, score in overlap_scores(random_matrix(rng, 6, 4), sample):
            assert 0.0 <= score <= 1.0

    def test_dimension_guard(self, rng):
        sample = ActivationSample(random_matrix(rng, 5, 12))
        with pytest.raises(DimensionError):
            overlap_scores(random_matrix(rng, 6, 4), sample)


class TestFullReport:
    def test_one_svd_with_activations(self, rng, count_decompositions):
        w = random_matrix(rng, 10, 6)
        sample = ActivationSample(random_matrix(rng, 6, 40))
        report, calls = count_decompositions(full_report, w, sample)
        assert calls == {"svd": 1, "eigh": 1}
        assert report.overlaps == tuple(overlap_scores(w, sample))

    def test_mismatched_activations_rejected(self, rng):
        sample = ActivationSample(random_matrix(rng, 5, 40))
        with pytest.raises(DimensionError):
            full_report(random_matrix(rng, 10, 6), sample)

    def test_consistency_with_parts(self):
        w = spiked_matrix(96, 128, spikes=3, strength=9.0, seed=31)
        report = full_report(w, noise_scale=1.0)
        assert report.outlier_count == count_outliers(w, noise_scale=1.0)
        assert report.bulk_edge == mp_bulk_edge(96, 128)
        assert_allclose(
            np.asarray(report.normalized_values),
            normalized_spectrum(w, noise_scale=1.0),
            rtol=1e-12,
        )
        assert report.rows == 96 and report.cols == 128
        assert report.noise_scale == 1.0

    def test_tail_curve_endpoints(self, rng):
        from smoa import tail_energy

        w = random_matrix(rng, 6, 9)
        report = full_report(w, noise_scale=1.0)
        assert len(report.tail_energy_curve) == 7
        assert report.tail_energy_curve[0] == (0, pytest.approx(w.norm() ** 2, rel=1e-12))
        assert report.tail_energy_curve[-1] == (6, 0.0)
        for r, energy in report.tail_energy_curve:
            assert energy == pytest.approx(tail_energy(w, r), rel=1e-12, abs=1e-12)

    def test_without_activations(self, rng):
        report = full_report(random_matrix(rng, 8, 8), noise_scale=1.0)
        assert report.overlaps == ()
        assert report.bulk_overlap_mean is None
        assert report.bulk_overlap_sigma is None

    def test_with_activations_band_is_deterministic(self, rng):
        w = random_matrix(rng, 8, 8)
        sample = ActivationSample(random_matrix(rng, 8, 64))
        first = full_report(w, sample, noise_scale=1.0, seed=5)
        second = full_report(w, sample, noise_scale=1.0, seed=5)
        assert first.bulk_overlap_mean == second.bulk_overlap_mean
        assert first.bulk_overlap_sigma == second.bulk_overlap_sigma
        assert len(first.overlaps) == 8
        third = full_report(w, sample, noise_scale=1.0, seed=6)
        assert third.bulk_overlap_mean != first.bulk_overlap_mean

    def test_estimates_scale_when_omitted(self):
        noise = gaussian_matrix(128, 128, seed=41)
        report = full_report(noise)
        assert report.noise_scale == pytest.approx(estimate_noise_scale(noise), rel=1e-12)

    def test_guards(self, rng):
        w = random_matrix(rng, 4, 4)
        with pytest.raises(RangeError):
            full_report(w, noise_scale=1.0, epsilon=-1.0)

    def test_band_uses_200_draws(self, tmp_path):
        w = spiked_matrix(16, 16, spikes=1, strength=6.0, seed=2)
        sample = ActivationSample(Matrix(np.random.default_rng(5).standard_normal((16, 64))))
        report = full_report(w, sample, noise_scale=1.0, seed=7)
        assert report.band_draws == 200
        rng = np.random.default_rng(7)
        g = rng.standard_normal((200, 16))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        scores = ((g @ sample.eigenvectors) ** 2).max(axis=1)
        assert report.bulk_overlap_mean == float(scores.mean())
        assert report.bulk_overlap_sigma == float(scores.std())
        save_report(report, tmp_path / "report.json")
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["metadata"]["band_draws"] == 200


class TestReportFiles:
    @pytest.fixture
    def report(self, rng):
        w = spiked_matrix(64, 64, spikes=2, strength=8.0, seed=3)
        sample = ActivationSample(Matrix(np.random.default_rng(4).standard_normal((64, 256))))
        return full_report(w, sample, noise_scale=1.0, seed=9)

    def test_json_document(self, report, tmp_path):
        path = tmp_path / "report.json"
        save_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["outlier_count"] == report.outlier_count
        assert doc["bulk_edge"] == report.bulk_edge
        assert doc["metadata"]["rows"] == 64
        assert doc["metadata"]["seed"] == 9
        assert len(doc["normalized_values"]) == 64
        assert len(doc["tail_energy_curve"]) == 65

    def test_histogram_csv(self, report, tmp_path):
        path = tmp_path / "hist.csv"
        save_report(report, tmp_path / "report.json", histogram_path=path, bins=40)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count,mp_density"
        assert len(lines) == 41
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 64
        last_right = float(lines[-1].split(",")[1])
        assert last_right >= max(max(report.normalized_values), report.bulk_edge)

    def test_overlaps_csv(self, report, tmp_path):
        path = tmp_path / "overlaps.csv"
        save_report(report, tmp_path / "report.json", overlaps_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,nu_k,score,bulk_mean,bulk_lo,bulk_hi"
        assert len(lines) == 65
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == report.normalized_values[0]
        lo, hi = float(first[4]), float(first[5])
        assert lo == pytest.approx(report.bulk_overlap_mean - 3 * report.bulk_overlap_sigma)
        assert hi == pytest.approx(report.bulk_overlap_mean + 3 * report.bulk_overlap_sigma)

    def test_overlaps_csv_header_only_without_activations(self, rng, tmp_path):
        report = full_report(random_matrix(rng, 6, 6), noise_scale=1.0)
        path = tmp_path / "overlaps.csv"
        save_report(report, tmp_path / "report.json", overlaps_path=path)
        assert path.read_text().strip() == "k,nu_k,score,bulk_mean,bulk_lo,bulk_hi"

    def test_bins_guard(self, report, tmp_path):
        with pytest.raises(ConfigurationError):
            save_report(report, tmp_path / "r.json", histogram_path=tmp_path / "h.csv", bins=0)

    def test_unallocatable_bins_write_nothing(self, report, tmp_path):
        """Bin edges too many to allocate fail before any file of the report is written."""
        with pytest.raises(MemoryError):
            save_report(report, tmp_path / "report.json", histogram_path=tmp_path / "h.csv",
                        overlaps_path=tmp_path / "o.csv", bins=99999999999999999)
        assert list(tmp_path.iterdir()) == []
