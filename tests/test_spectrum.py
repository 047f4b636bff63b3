"""Spectral primitives: SVD wrapper, rank decisions, truncation energy."""
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from smoa import (
    ActivationSample,
    AdapterInit,
    FitConfig,
    FitProblem,
    Matrix,
    NumericalError,
    RangeError,
    balanced_factors,
    build_plan,
    default_tolerance,
    fit,
    full_report,
    lora_update,
    make_witness,
    numerical_rank,
    save_matrix,
    singular_values,
    svd,
    tail_energy,
    truncated_svd,
)
from smoa.cli import main

from conftest import random_matrix


def reference_thin_svd(x: np.ndarray):
    """One matrix through its own ``gesdd`` call."""
    return np.linalg.svd(x, full_matrices=False)


def reference_gesvd(x: np.ndarray):
    """One matrix through the fallback driver, ``gesvd``."""
    return scipy.linalg.svd(x, full_matrices=False, lapack_driver="gesvd")


def reference_balanced_factors(c: np.ndarray, r: int, reference=reference_thin_svd):
    u, s, vt = reference(c)
    root = np.sqrt(s[:r])
    return (vt.T[:, :r] * root).T, u[:, :r] * root


class TestSvd:
    def test_reconstruction(self, rng):
        w = random_matrix(rng, 7, 5)
        u, s, vt = svd(w)
        assert_allclose((u * s) @ vt, w.data, atol=1e-12)

    def test_values_descending_and_nonnegative(self, rng):
        _, vals, _ = svd(random_matrix(rng, 6, 9))
        assert np.all(vals[:-1] >= vals[1:])
        assert np.all(vals >= 0)

    def test_m_is_min_dimension(self, rng):
        """A thin SVD: m = min(rows, cols) triplets."""
        assert [x.shape for x in svd(random_matrix(rng, 3, 8))] == [(3, 3), (3,), (3, 8)]
        assert [x.shape for x in svd(random_matrix(rng, 8, 3))] == [(8, 3), (3,), (3, 3)]

    def test_sign_convention_deterministic(self, rng):
        w = random_matrix(rng, 5, 5)
        first = svd(w)
        second = svd(Matrix(w.data.copy()))
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[2], second[2])

    def test_orthonormal_factors(self, rng):
        u, _, vt = svd(random_matrix(rng, 5, 8))
        assert u.shape == (5, 5)
        assert vt.shape == (5, 8)
        assert_allclose(u.T @ u, np.eye(5), atol=1e-12)
        assert_allclose(vt @ vt.T, np.eye(5), atol=1e-12)

    def test_values_match_svdvals_path(self, rng):
        w = random_matrix(rng, 6, 4)
        assert_allclose(svd(w)[1], singular_values(w), atol=1e-12)

    def test_decomposition_is_frozen(self, rng):
        for array in svd(random_matrix(rng, 3, 3)):
            with pytest.raises(ValueError):
                array[0] = 99.0


def _stack(seed: int, k: int, m: int, n: int, pattern: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((k, m, n))
    if pattern == "zero-slice":  # the coefficients of a rho = 0 witness
        stack[rng.integers(k)] = 0.0
    elif pattern == "zero-first-column":
        stack[:, :, 0] = 0.0
    elif pattern == "zero-first-row":  # left vectors lead with zeros
        stack[:, 0, :] = 0.0
    elif pattern == "negative-zeros":
        stack[rng.random((k, m, n)) < 0.5] = -0.0
    elif pattern == "negative-zero-slice":
        stack[rng.integers(k)] = -0.0
    return stack


PATTERNS = ["gaussian", "zero-slice", "zero-first-column", "zero-first-row",
            "negative-zeros", "negative-zero-slice"]

stacks = st.builds(
    _stack,
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from(PATTERNS),
)


class TestLapackOutput:
    """The decomposition is numpy's own, read-only: no sign rule or copy on
    top, for a matrix, a ``Matrix`` and a stack."""

    @pytest.mark.parametrize("shape", [(6, 6), (5, 8), (9, 4), (3, 5, 7), (4, 6, 6)])
    def test_thin_svd_is_numpy_svd_bitwise(self, rng, shape):
        x = rng.standard_normal(shape)
        inputs = [x, Matrix(x)] if x.ndim == 2 else [x]
        for ours in map(svd, inputs):
            assert type(ours) is tuple and len(ours) == 3
            for array, numpys in zip(ours, np.linalg.svd(x, full_matrices=False)):
                assert array.shape == numpys.shape
                assert array.tobytes() == numpys.tobytes()
                assert not array.flags.writeable


class TestSignInvariance:
    """No output reads a singular vector's sign: negating a seeded subset of
    the triplets LAPACK returns leaves every consumer's bits unchanged."""

    @staticmethod
    def plain_and_flipped(monkeypatch, compute):
        """``compute()`` as LAPACK signs the vectors, then again with
        a random subset of the triplets negated."""
        plain = compute()
        lapack = np.linalg.svd
        flips = np.random.default_rng(7)

        def svd_with_flipped_signs(x, *args, **kwargs):
            result = lapack(x, *args, **kwargs)
            if not kwargs.get("compute_uv", True):
                return result
            u, s, vt = result
            sign = np.where(flips.random(s.shape) < 0.5, -1.0, 1.0)
            return u * sign[..., None, :], s, vt * sign[..., :, None]

        monkeypatch.setattr(np.linalg, "svd", svd_with_flipped_signs)
        return plain, compute()

    def test_build_plan(self, rng, monkeypatch):
        w = random_matrix(rng, 64, 48)
        plain, flipped = self.plain_and_flipped(monkeypatch, lambda: build_plan(w, 4))
        assert plain.p_out.indices.tobytes() == flipped.p_out.indices.tobytes()
        assert plain.p_in.indices.tobytes() == flipped.p_in.indices.tobytes()
        assert plain.anchor_stack.tobytes() == flipped.anchor_stack.tobytes()

    def test_full_report_with_activations(self, rng, monkeypatch):
        w = random_matrix(rng, 24, 32)
        sample = ActivationSample(random_matrix(rng, 32, 80))
        plain, flipped = self.plain_and_flipped(monkeypatch, lambda: full_report(w, sample, seed=3))
        assert plain.overlaps
        assert plain == flipped

    def test_truncated_svd(self, rng, monkeypatch):
        w = random_matrix(rng, 9, 7)
        plain, flipped = self.plain_and_flipped(
            monkeypatch, lambda: [truncated_svd(w, r).data.tobytes() for r in range(8)])
        assert plain == flipped

    def test_spectral_lora_fit(self, rng, monkeypatch):
        problem = FitProblem(random_matrix(rng, 16, 12), "lora", 4)
        config = FitConfig(max_steps=50, grad_tol=0.0)
        plain, flipped = self.plain_and_flipped(
            monkeypatch, lambda: fit(problem, AdapterInit("spectral"), config))
        assert not np.array_equal(plain.adapter.b, flipped.adapter.b)  # signs did flip
        assert plain.step_count == 50
        assert plain.steps == flipped.steps
        assert lora_update(plain.adapter).data.tobytes() == lora_update(flipped.adapter).data.tobytes()


class TestStackedSvd:
    """One stacked decomposition gives, slice by slice, the bits of one
    decomposition per matrix."""

    @settings(deadline=None, max_examples=150)
    @given(stacks)
    def test_stack_matches_per_slice_reference_bitwise(self, stack):
        u, s, vt = svd(stack)
        for k, block in enumerate(stack):
            ref_u, ref_s, ref_vt = reference_thin_svd(block)
            assert u[k].tobytes() == ref_u.tobytes()
            assert s[k].tobytes() == ref_s.tobytes()
            assert vt[k].tobytes() == ref_vt.tobytes()

    @settings(deadline=None, max_examples=150)
    @given(stacks, st.integers(1, 7))
    def test_balanced_factors_match_per_slice_reference_bitwise(self, stack, r):
        r = min(r, *stack.shape[1:])
        a, b = balanced_factors(stack, r)
        assert a.shape == (stack.shape[0], r, stack.shape[2])
        assert b.shape == (*stack.shape[:2], r)
        for k, block in enumerate(stack):
            ref_a, ref_b = reference_balanced_factors(block, r)
            assert a[k].tobytes() == ref_a.tobytes()
            assert b[k].tobytes() == ref_b.tobytes()

    @pytest.mark.parametrize("shape", [(6, 6), (5, 8), (9, 4), (1, 3)])
    def test_matrix_matches_reference_bitwise(self, rng, shape):
        w = random_matrix(rng, *shape)
        ref_u, ref_s, ref_vt = reference_thin_svd(w.data)
        for array, ref in zip(svd(w), (ref_u, ref_s, ref_vt)):
            assert array.tobytes() == ref.tobytes()
        for r in range(min(shape) + 1):
            u, s, vt = ref_u[:, :r], ref_s[:r], ref_vt[:r]
            assert truncated_svd(w, r).data.tobytes() == ((u * s) @ vt).tobytes()


class TestGesvdFallback:
    """A full SVD that ``gesdd`` cannot converge on is retried with ``gesvd``:
    the bits of one ``gesvd`` call per matrix."""

    @staticmethod
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    @classmethod
    def fail_gesdd(cls, monkeypatch):
        """numpy's full SVD fails; its values-only SVD still runs."""
        values_only = np.linalg.svd

        def svd_without_vectors(*args, **kwargs):
            if kwargs.get("compute_uv", True):
                cls.fail()
            return values_only(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_without_vectors)

    @pytest.fixture
    def gesdd_fails(self, monkeypatch):
        self.fail_gesdd(monkeypatch)

    @pytest.mark.parametrize("shape", [(6, 6), (5, 8), (9, 4), (1, 3)])
    def test_svd_and_truncation_match_gesvd_bitwise(self, rng, gesdd_fails, shape):
        w = random_matrix(rng, *shape)
        ref_u, ref_s, ref_vt = reference_gesvd(w.data)
        for array, ref in zip(svd(w), (ref_u, ref_s, ref_vt)):
            assert array.tobytes() == ref.tobytes()
            assert not array.flags.writeable
        for r in range(min(shape) + 1):
            u, s, vt = ref_u[:, :r], ref_s[:r], ref_vt[:r]
            assert truncated_svd(w, r).data.tobytes() == ((u * s) @ vt).tobytes()

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("shape", [(3, 5, 6), (4, 7, 2)])
    def test_stacked_balanced_factors_match_gesvd_bitwise(self, gesdd_fails, shape, pattern):
        stack = _stack(11, *shape, pattern)
        r = min(shape[1:])
        a, b = balanced_factors(stack, r)
        for k, block in enumerate(stack):
            ref_a, ref_b = reference_balanced_factors(block, r, reference_gesvd)
            assert a[k].tobytes() == ref_a.tobytes()
            assert b[k].tobytes() == ref_b.tobytes()

    @pytest.mark.parametrize("d,k,rho,seed", [(64, 4, 4, 0), (256, 4, 4, 1), (256, 8, 2, 2)])
    def test_witness_target_signs_do_not_depend_on_driver(self, monkeypatch, d, k, rho, seed):
        """The drivers may sign a factor pair differently, but the product
        ``b @ a`` pairs each left vector with its right one, so the signs
        cancel and both drivers give the same rank-r update."""
        plan = build_plan(random_matrix(np.random.default_rng(seed), d, d), k)
        target = make_witness(plan, rho, seed).target.data
        a, b = balanced_factors(target, k * rho)
        self.fail_gesdd(monkeypatch)
        gesvd_a, gesvd_b = balanced_factors(target, k * rho)
        assert_allclose(b @ a, gesvd_b @ gesvd_a, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("call,shape", [
        (lambda x: svd(Matrix(x)), (5, 3)),
        (lambda x: truncated_svd(Matrix(x), 1), (4, 6)),
        (lambda x: balanced_factors(x, 1), (2, 4, 4)),
    ], ids=["svd", "truncated_svd", "balanced_factors"])
    def test_both_drivers_failing_is_numerical_error(self, rng, monkeypatch, call, shape):
        monkeypatch.setattr(np.linalg, "svd", self.fail)
        monkeypatch.setattr(scipy.linalg, "svd", self.fail)
        with pytest.raises(NumericalError, match=re.escape(f"shape {shape}")):
            call(rng.standard_normal(shape))

    def test_singular_values_do_not_fall_back(self, rng, monkeypatch):
        retried = []
        monkeypatch.setattr(np.linalg, "svd", self.fail)
        monkeypatch.setattr(scipy.linalg, "svd", lambda *args, **kwargs: retried.append(args))
        with pytest.raises(NumericalError, match=r"shape \(5, 3\)"):
            singular_values(random_matrix(rng, 5, 3))
        assert retried == []


class TestNumericalRank:
    def test_exact_low_rank_product(self, rng):
        g1 = rng.standard_normal((8, 3))
        g2 = rng.standard_normal((3, 8))
        assert numerical_rank(Matrix(g1 @ g2)) == 3

    def test_zero_matrix(self):
        assert numerical_rank(Matrix.zeros(4, 4)) == 0

    def test_threshold_is_strict(self):
        m = Matrix.diagonal([2.0, 1.0, 0.5], rows=3, cols=3)
        assert numerical_rank(m, epsilon=0.5) == 2
        assert numerical_rank(m, epsilon=0.49) == 3

    def test_negative_epsilon_rejected(self, rng):
        with pytest.raises(RangeError):
            numerical_rank(random_matrix(rng, 2, 2), epsilon=-1.0)

    def test_default_tolerance_formula(self):
        eps = np.finfo(np.float64).eps
        assert default_tolerance((100, 40), 3.0) == 100 * 3.0 * eps

    def test_matches_numpy_matrix_rank(self, rng):
        for _ in range(20):
            w = random_matrix(rng, 6, 5)
            assert numerical_rank(w) == np.linalg.matrix_rank(w.data)


class TestSingularValues:
    @pytest.mark.parametrize("shape", [(4, 64, 64), (8, 16, 32), (2, 48, 24), (3, 5, 7)])
    def test_stack_rows_match_each_matrix_bitwise(self, rng, shape):
        stack = rng.standard_normal(shape)
        values = singular_values(stack)
        assert values.shape == (shape[0], min(shape[1:]))
        for row, block in zip(values, stack):
            assert row.tobytes() == singular_values(Matrix(block)).tobytes()


class TestScipyParity:
    """Values-only decompositions and block assembly run on numpy; they
    give the bits scipy gives, so no stored output moves."""

    @pytest.mark.parametrize("d", [16, 32, 64, 256])
    def test_square_values_match_svdvals_bitwise(self, rng, d):
        w = rng.standard_normal((d, d))
        assert singular_values(Matrix(w)).tobytes() == scipy.linalg.svdvals(w).tobytes()

    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("d", [16, 32, 64])
    def test_block_stack_values_match_svdvals_bitwise(self, rng, d, k):
        stack = rng.standard_normal((k, d // k, d // k))
        assert singular_values(stack).tobytes() == scipy.linalg.svdvals(stack).tobytes()

    @pytest.fixture
    def failing_svd(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)

    def test_non_convergence_is_numerical_error(self, rng, failing_svd):
        with pytest.raises(NumericalError, match=r"shape \(5, 3\)"):
            singular_values(random_matrix(rng, 5, 3))

    def test_non_convergence_exits_four(self, rng, tmp_path, capsys, failing_svd):
        save_matrix(random_matrix(rng, 4, 4), tmp_path / "w.mat")
        code = main(["rank", "--matrix", str(tmp_path / "w.mat"), "--quiet"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestTruncation:
    def test_rank_zero_gives_zeros(self, rng):
        w = random_matrix(rng, 4, 6)
        assert np.array_equal(truncated_svd(w, 0).data, np.zeros((4, 6)))

    def test_full_rank_recovers_matrix(self, rng):
        w = random_matrix(rng, 5, 7)
        assert_allclose(truncated_svd(w, 5).data, w.data, atol=1e-12)

    def test_out_of_range(self, rng):
        w = random_matrix(rng, 4, 6)
        with pytest.raises(RangeError):
            truncated_svd(w, 5)
        with pytest.raises(RangeError):
            truncated_svd(w, -1)

    def test_truncation_has_expected_rank(self, rng):
        w = random_matrix(rng, 8, 8)
        assert numerical_rank(truncated_svd(w, 3)) == 3

    def test_best_approximation_beats_cross_truncations(self, rng):
        """Truncation at rank r must beat every other rank-r candidate we
        can build cheaply; here truncations of perturbed matrices."""
        w = random_matrix(rng, 6, 6)
        best = np.linalg.norm(w.data - truncated_svd(w, 2).data)
        for _ in range(10):
            other = truncated_svd(Matrix(w.data + 0.3 * rng.standard_normal((6, 6))), 2)
            assert np.linalg.norm(w.data - other.data) >= best - 1e-12


class TestTailEnergy:
    def test_matches_trailing_value_sum(self, rng):
        w = random_matrix(rng, 7, 5)
        vals = singular_values(w)
        for r in range(6):
            assert tail_energy(w, r) == pytest.approx(float(np.sum(vals[r:] ** 2)), rel=1e-12)

    def test_equals_residual_energy_of_truncation(self, rng):
        """Independent oracle: tail energy at r is the squared distance to
        the rank-r truncation."""
        w = random_matrix(rng, 6, 9)
        for r in (0, 1, 3, 6):
            residual = w.data - truncated_svd(w, r).data
            assert tail_energy(w, r) == pytest.approx(float(np.sum(residual**2)), rel=1e-9, abs=1e-12)

    def test_zero_at_full_rank(self, rng):
        w = random_matrix(rng, 4, 4)
        assert tail_energy(w, 4) <= 1e-20 * tail_energy(w, 0)

    def test_monotone_decreasing(self, rng):
        w = random_matrix(rng, 5, 5)
        energies = [tail_energy(w, r) for r in range(6)]
        assert all(a >= b for a, b in zip(energies, energies[1:]))

    def test_full_energy_is_squared_norm(self, rng):
        w = random_matrix(rng, 6, 3)
        assert tail_energy(w, 0) == pytest.approx(np.linalg.norm(w.data) ** 2, rel=1e-12)

    @pytest.mark.parametrize("r", [-1, 5])
    def test_rank_out_of_range(self, rng, r):
        with pytest.raises(RangeError, match=rf"rank {r} out of range 0..4 for shape \(4, 6\)"):
            tail_energy(random_matrix(rng, 4, 6), r)


class TestBalancedFactors:
    @pytest.mark.parametrize("shape", [(6, 6), (5, 8), (9, 4)])
    def test_square_root_split_bits(self, rng, shape):
        c = random_matrix(rng, *shape)
        u, s, vt = svd(c)
        root = np.sqrt(s[:3])
        a, b = balanced_factors(c, 3)
        assert np.array_equal(b, u[:, :3] * root)
        assert np.array_equal(a, (vt.T[:, :3] * root).T)

    def test_product_is_truncation(self, rng):
        c = random_matrix(rng, 7, 5)
        a, b = balanced_factors(c, 2)
        assert_allclose(b @ a, truncated_svd(c, 2).data, atol=1e-12)

    def test_rank_out_of_range(self, rng):
        c = random_matrix(rng, 4, 3)
        with pytest.raises(RangeError):
            balanced_factors(c, 0)
        with pytest.raises(RangeError):
            balanced_factors(c, 4)
