"""Matrix and permutation primitives: constructors and exact moves."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from smoa import (
    ConfigurationError,
    DimensionError,
    Matrix,
    NumericalError,
    Permutation,
    RangeError,
    apply_permutations,
)

from conftest import random_matrix


class TestMatrixConstruction:
    def test_rejects_nan(self):
        with pytest.raises(NumericalError):
            Matrix([[1.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(NumericalError):
            Matrix([[float("inf")], [0.0]])

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            Matrix(np.zeros((0, 3)))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DimensionError):
            Matrix([1.0, 2.0, 3.0])

    def test_rejects_ragged_rows(self):
        with pytest.raises(DimensionError):
            Matrix([[1, 2], [3]])

    def test_rejects_non_numeric(self):
        with pytest.raises(DimensionError):
            Matrix("abc")

    def test_backing_array_is_read_only(self):
        m = Matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_constructor_copies_input(self):
        src = np.ones((2, 2))
        m = Matrix(src)
        src[0, 0] = 7.0
        assert m[0, 0] == 1.0

    def test_array_copies_unless_asked_not_to(self, rng):
        m = random_matrix(rng, 3, 4)
        for copied in (np.array(m), np.array(m, copy=True)):
            assert copied.flags.writeable
            assert not np.shares_memory(copied, m.data)
            assert_array_equal(copied, m.data)
        assert np.shares_memory(np.asarray(m), m.data)
        with pytest.raises(ValueError):
            np.array(m, dtype=np.float32, copy=False)

    def test_diagonal_factory(self):
        m = Matrix.diagonal([3.0, 2.0], rows=3, cols=4)
        expected = np.zeros((3, 4))
        expected[0, 0], expected[1, 1] = 3.0, 2.0
        assert_array_equal(m.data, expected)

    def test_diagonal_overflow_is_range_error(self):
        with pytest.raises(RangeError):
            Matrix.diagonal([1.0, 2.0, 3.0], rows=2, cols=2)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ConfigurationError):
            Permutation([0, 0, 2])

    def test_inverse_composes_to_identity(self, rng):
        p = Permutation(rng.permutation(11))
        assert_array_equal(p.indices[p.inverse().indices], np.arange(11))

    def test_one_based_roundtrip(self):
        p = Permutation([2, 0, 1])
        assert p.to_one_based() == [3, 1, 2]
        assert Permutation.from_one_based([3, 1, 2]) == p

    def test_apply_matches_gather_definition(self, rng):
        """Entry (i, j) of the reordered matrix is entry
        (p_out[i], p_in[j]) of the original."""
        w = random_matrix(rng, 4, 5)
        p_out = Permutation(rng.permutation(4))
        p_in = Permutation(rng.permutation(5))
        moved = apply_permutations(w, p_out, p_in)
        for i in range(4):
            for j in range(5):
                assert moved[i, j] == w[p_out.indices[i], p_in.indices[j]]

    def test_roundtrip_is_bitwise_exact(self, rng):
        w = random_matrix(rng, 8, 6)
        p_out = Permutation(rng.permutation(8))
        p_in = Permutation(rng.permutation(6))
        back = apply_permutations(apply_permutations(w, p_out, p_in), p_out.inverse(), p_in.inverse())
        assert np.array_equal(back.data, w.data)

    def test_entry_multiset_is_preserved_exactly(self, rng):
        w = random_matrix(rng, 7, 7)
        p = Permutation(rng.permutation(7))
        moved = apply_permutations(w, p, p)
        assert np.array_equal(np.sort(moved.data, axis=None), np.sort(w.data, axis=None))
        assert np.linalg.norm(moved.data) == pytest.approx(np.linalg.norm(w.data), rel=1e-15)

    def test_size_mismatch(self, rng):
        w = random_matrix(rng, 4, 5)
        with pytest.raises(DimensionError):
            apply_permutations(w, Permutation(np.arange(5)), Permutation(np.arange(5)))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 10), st.integers(2, 10))
    def test_roundtrip_property(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        w = Matrix(rng.standard_normal((rows, cols)))
        p_out = Permutation(rng.permutation(rows))
        p_in = Permutation(rng.permutation(cols))
        back = apply_permutations(apply_permutations(w, p_out, p_in), p_out.inverse(), p_in.inverse())
        assert np.array_equal(back.data, w.data)

