"""Spectral primitives: SVD wrapper, rank decisions, truncation energy."""
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from smoa import (
    Matrix,
    NumericalError,
    RangeError,
    balanced_factors,
    block_diagonal,
    build_plan,
    default_tolerance,
    make_witness,
    numerical_rank,
    save_matrix,
    singular_values,
    smoa_exact_fit,
    svd,
    tail_energy,
    truncated_svd,
)
from smoa.cli import main
from smoa.spectrum import _thin_svd

from conftest import random_matrix


def _normalize_signs(u: np.ndarray, vt: np.ndarray) -> None:
    """Reference sign rule, one triplet at a time: read the left vector then
    the right vector as one row, and flip the triplet so that the first entry
    whose magnitude exceeds sqrt(eps) times the row's largest magnitude is
    nonnegative; an all-zero triplet keeps its signs."""
    floor = np.sqrt(np.finfo(np.float64).eps)
    for i in range(u.shape[1]):
        row = np.concatenate([u[:, i], vt[i]])
        above = np.nonzero(np.abs(row) > floor * np.abs(row).max())[0]
        if above.size and row[above[0]] < 0:
            u[:, i] = -u[:, i]
            vt[i] = -vt[i]


def reference_thin_svd(x: np.ndarray):
    """One matrix through its own ``gesdd`` call and the per-triplet sign rule."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    _normalize_signs(u, vt)
    return u, s, vt


def reference_gesvd(x: np.ndarray):
    """One matrix through the fallback driver, ``gesvd``, and the per-triplet sign rule."""
    u, s, vt = scipy.linalg.svd(x, full_matrices=False, lapack_driver="gesvd")
    _normalize_signs(u, vt)
    return u, s, vt


def reference_balanced_factors(c: np.ndarray, r: int, reference=reference_thin_svd):
    u, s, vt = reference(c)
    root = np.sqrt(s[:r])
    return (vt.T[:, :r] * root).T, u[:, :r] * root


class TestSvd:
    def test_reconstruction(self, rng):
        w = random_matrix(rng, 7, 5)
        dec = svd(w)
        assert_allclose(dec.reconstruct().data, w.data, atol=1e-12)

    def test_values_descending_and_nonnegative(self, rng):
        dec = svd(random_matrix(rng, 6, 9))
        vals = dec.singular_values
        assert np.all(vals[:-1] >= vals[1:])
        assert np.all(vals >= 0)

    def test_m_is_min_dimension(self, rng):
        assert svd(random_matrix(rng, 3, 8)).m == 3
        assert svd(random_matrix(rng, 8, 3)).m == 3

    def test_sign_convention_deterministic(self, rng):
        w = random_matrix(rng, 5, 5)
        first = svd(w)
        second = svd(Matrix(w.data.copy()))
        assert np.array_equal(first.left_vectors, second.left_vectors)
        assert np.array_equal(first.right_vectors, second.right_vectors)

    def test_sign_convention_leading_entries(self, rng):
        dec = svd(random_matrix(rng, 6, 6))
        for j in range(6):
            col = dec.left_vectors[:, j]
            lead = col[np.nonzero(col)[0][0]]
            assert lead > 0

    def test_orthonormal_factors(self, rng):
        dec = svd(random_matrix(rng, 5, 8))
        assert dec.left_vectors.shape == (5, 5)
        assert dec.right_vectors.shape == (8, 5)
        assert_allclose((dec.left_vectors.T @ dec.left_vectors).data, np.eye(5), atol=1e-12)
        assert_allclose((dec.right_vectors.T @ dec.right_vectors).data, np.eye(5), atol=1e-12)

    def test_values_match_svdvals_path(self, rng):
        w = random_matrix(rng, 6, 4)
        assert_allclose(svd(w).singular_values, singular_values(w), atol=1e-12)

    def test_decomposition_is_frozen(self, rng):
        dec = svd(random_matrix(rng, 3, 3))
        with pytest.raises(ValueError):
            dec.singular_values[0] = 99.0


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


class TestStackedSvd:
    """One stacked decomposition gives, slice by slice, the bits of one
    decomposition per matrix under the per-triplet sign rule."""

    @settings(deadline=None, max_examples=150)
    @given(stacks)
    def test_stack_matches_per_slice_reference_bitwise(self, stack):
        u, s, vt = _thin_svd(stack)
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
        dec = svd(w)
        ref_u, ref_s, ref_vt = reference_thin_svd(w.data)
        assert dec.left_vectors.data.tobytes() == ref_u.tobytes()
        assert dec.singular_values.tobytes() == ref_s.tobytes()
        assert dec.right_vectors.data.tobytes() == np.ascontiguousarray(ref_vt.T).tobytes()
        for r in range(min(shape) + 1):
            u, s, vt = ref_u[:, :r], ref_s[:r], ref_vt[:r]
            assert truncated_svd(w, r).data.tobytes() == ((u * s) @ vt).tobytes()


class TestGesvdFallback:
    """A full SVD that ``gesdd`` cannot converge on is retried with ``gesvd``:
    the bits of one ``gesvd`` call per matrix under the same sign rule."""

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
        dec = svd(w)
        ref_u, ref_s, ref_vt = reference_gesvd(w.data)
        assert dec.left_vectors.data.tobytes() == ref_u.tobytes()
        assert dec.singular_values.tobytes() == ref_s.tobytes()
        assert dec.right_vectors.data.tobytes() == np.ascontiguousarray(ref_vt.T).tobytes()
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
        """A witness target is block diagonal up to a permutation, so most
        entries of each singular vector are zero in exact arithmetic and
        driver-dependent roundoff in floating point; the sign floor skips
        them, and both drivers give the same signed factors."""
        plan = build_plan(random_matrix(np.random.default_rng(seed), d, d), k)
        target = make_witness(plan, rho, seed).target.data
        by_gesdd = balanced_factors(target, k * rho)
        self.fail_gesdd(monkeypatch)
        by_gesvd = balanced_factors(target, k * rho)
        for factor, reference in zip(by_gesdd, by_gesvd):
            assert_allclose(factor, reference, rtol=0, atol=1e-8)

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

    def test_block_diagonal_matches_block_diag_bitwise(self, rng):
        blocks = [random_matrix(rng, r, c) for r, c in [(2, 3), (4, 4), (1, 5), (3, 1)]]
        expected = scipy.linalg.block_diag(*[b.data for b in blocks])
        assert block_diagonal(blocks).data.tobytes() == expected.tobytes()

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
        assert tail_energy(w, 0) == pytest.approx(w.norm() ** 2, rel=1e-12)

    @pytest.mark.parametrize("r", [-1, 5])
    def test_rank_out_of_range(self, rng, r):
        with pytest.raises(RangeError, match=rf"rank {r} out of range 0..4 for shape \(4, 6\)"):
            tail_energy(random_matrix(rng, 4, 6), r)


class TestBalancedFactors:
    @pytest.mark.parametrize("shape", [(6, 6), (5, 8), (9, 4)])
    def test_square_root_split_bits(self, rng, shape):
        c = random_matrix(rng, *shape)
        dec = svd(c)
        root = np.sqrt(dec.singular_values[:3])
        a, b = balanced_factors(c, 3)
        assert np.array_equal(b, dec.left_vectors.data[:, :3] * root)
        assert np.array_equal(a, (dec.right_vectors.data[:, :3] * root).T)

    def test_product_is_truncation(self, rng):
        c = random_matrix(rng, 7, 5)
        a, b = balanced_factors(c, 2)
        assert_allclose(b @ a, truncated_svd(c, 2).data, atol=1e-12)

    def test_exact_fit_uses_the_split(self, rng):
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=4)
        exact = smoa_exact_fit(witness)
        for (a, b), c in zip(exact.factors, witness.coefficients):
            ref_a, ref_b = balanced_factors(c, 2)
            assert np.array_equal(a.data, ref_a) and np.array_equal(b.data, ref_b)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_exact_fit_is_one_stacked_svd(self, rng, count_decompositions, k):
        witness = make_witness(build_plan(random_matrix(rng, 16, 16), k), rho=1, seed=k)
        exact, calls = count_decompositions(smoa_exact_fit, witness)
        assert calls == {"svd": 1}
        assert_allclose(exact.b @ exact.a, witness.coefficient_stack, atol=1e-10)

    def test_rank_out_of_range(self, rng):
        c = random_matrix(rng, 4, 3)
        with pytest.raises(RangeError):
            balanced_factors(c, 0)
        with pytest.raises(RangeError):
            balanced_factors(c, 4)
