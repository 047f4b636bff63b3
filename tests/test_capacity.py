"""Rank ceilings, separation witnesses, and the spectral gap bound."""
import dataclasses
import itertools
import json

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_array_equal

from smoa import (
    AdapterInit,
    BlockPlan,
    ConfigurationError,
    DimensionError,
    FormatError,
    Matrix,
    NumericalError,
    RangeError,
    SmoaAdapter,
    WitnessInstance,
    achieved_rank,
    block_diagonal,
    build_plan,
    default_tolerance,
    full_rank_ceiling,
    init_smoa,
    invert_permutations,
    load_matrix,
    load_witness,
    lora_gap,
    low_rank_plus_noise,
    make_witness,
    numerical_rank,
    rank_ceiling,
    save_plan,
    save_witness,
    singular_values,
    smoa_exact_fit,
    smoa_update,
    tail_energy,
    truncated_svd,
)

import smoa.capacity
from smoa.fileutil import sha256_file

from conftest import random_matrix


def save_bundle(witness, directory):
    """Save the witness's plan beside ``directory``, then the bundle pinned to it."""
    plan = save_plan(witness.plan, directory.parent / "plan.json")
    return save_witness(dataclasses.replace(witness, plan=plan), directory)


def exact_rank_matrix(rng, rows, cols, rank):
    """Gaussian factor product; rank holds with probability one."""
    return Matrix(rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols)))


class TestRankCeiling:
    def test_full_rank_anchors_bound(self, rng):
        """Gaussian anchors are full rank, so each block contributes
        min(s, rho * s) and the total is min(K, r) * s."""
        w = random_matrix(rng, 16, 16)
        plan = build_plan(w, 4)
        report = rank_ceiling(plan, 8)  # rho = 2, s = 4
        for block in report.per_block:
            assert block.s_k == 4
            assert block.anchor_rank == 4
            assert block.block_ceiling == 4
        assert report.total_ceiling == 16
        assert report.lora_ceiling == 8
        assert report.separated is True

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_one_batched_decomposition(self, rng, count_decompositions, k):
        plan = build_plan(random_matrix(rng, 16, 32), k)
        report, calls = count_decompositions(rank_ceiling, plan, k)
        assert calls == {"svdvals": 1}
        for block, anchor in zip(report.per_block, plan.anchors):
            assert block.anchor_rank == numerical_rank(anchor, report.epsilon)

    def test_matches_integer_formula_on_random_grids(self, rng):
        for _ in range(10):
            k = int(rng.choice([1, 2, 4]))
            s = int(rng.integers(2, 5))
            d = k * s
            r = k * int(rng.integers(1, s + 1))
            plan = build_plan(random_matrix(rng, d, d), k)
            report = rank_ceiling(plan, r)
            assert report.total_ceiling == full_rank_ceiling(d, d, k, r)

    def test_low_rank_anchor_lowers_ceiling(self, rng):
        """Rank-1 anchors cap each block at min(s, rho * 1); with both
        anchors degenerate the ceiling collapses to r and separation is
        gone."""
        from smoa import BlockPlan

        base = build_plan(random_matrix(rng, 8, 8), 2)
        anchors = tuple(exact_rank_matrix(rng, 4, 4, 1) for _ in range(2))
        plan = BlockPlan(base.k, base.p_out, base.p_in, anchors)
        report = rank_ceiling(plan, 2)  # rho = 1
        for block in report.per_block:
            assert block.anchor_rank == 1
            assert block.block_ceiling == 1
        assert report.total_ceiling == 2
        assert report.separated is False
        # one healthy anchor restores some headroom
        mixed = BlockPlan(base.k, base.p_out, base.p_in, (anchors[0], base.anchors[1]))
        mixed_report = rank_ceiling(mixed, 2)
        assert mixed_report.per_block[0].block_ceiling == 1
        assert mixed_report.per_block[1].block_ceiling == 4
        assert mixed_report.total_ceiling == 5
        assert mixed_report.separated is True

    def test_separation_flag_is_strict(self, rng):
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        assert rank_ceiling(plan, 2).separated is True   # ceiling 4 > 2
        assert rank_ceiling(plan, 8).separated is False  # ceiling 8 == 8

    def test_divisibility_and_epsilon_guards(self, rng):
        plan = build_plan(random_matrix(rng, 6, 6), 3)
        with pytest.raises(ConfigurationError):
            rank_ceiling(plan, 4)
        with pytest.raises(RangeError):
            rank_ceiling(plan, 3, epsilon=-1e-3)

    def test_shared_cutoff_with_rank_deficient_anchor(self, rng, count_decompositions):
        """One cutoff, scaled by the largest anchor value overall, ranks
        every row of the batched values, as the per-anchor loop did."""
        base = build_plan(random_matrix(rng, 12, 12), 3)
        deficient = 10.0 * rng.standard_normal((4, 4))
        deficient[:, 2:] = 0.0
        anchors = (base.anchors[0], Matrix(deficient), base.anchors[2])
        plan = BlockPlan(base.k, base.p_out, base.p_in, anchors)
        report, calls = count_decompositions(rank_ceiling, plan, 3)
        assert calls == {"svdvals": 1}
        values = [singular_values(a) for a in anchors]
        epsilon = default_tolerance((4, 4), max(v[0] for v in values))
        assert report.epsilon == epsilon
        assert [b.anchor_rank for b in report.per_block] == [
            int(np.count_nonzero(v > epsilon)) for v in values
        ] == [4, 2, 4]

    def test_explicit_epsilon_respected(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        generous = rank_ceiling(plan, 2, epsilon=1e12)
        assert all(b.anchor_rank == 0 for b in generous.per_block)
        assert generous.total_ceiling == 0


class TestFullRankCeiling:
    def test_closed_form_cases(self):
        assert full_rank_ceiling(16, 16, 2, 4) == 16    # K*s = 16 < r*s = 32
        assert full_rank_ceiling(16, 16, 4, 4) == 16    # tie
        assert full_rank_ceiling(16, 16, 8, 4) == 8     # r*s = 8 < K*s = 16
        assert full_rank_ceiling(12, 8, 4, 4) == 8      # s = min(3, 2) = 2

    def test_sub_k_budget_stays_integer(self):
        # r < K: per-block budget is fractional, ceiling is still exact
        assert full_rank_ceiling(16, 16, 8, 2) == 4     # min(8*2, 2*2)

    def test_guards(self):
        with pytest.raises(ConfigurationError):
            full_rank_ceiling(15, 16, 2, 4)
        with pytest.raises(ConfigurationError):
            full_rank_ceiling(16, 16, 2, 0)


class TestBlockDiagonalRankAdditivity:
    def test_rank_of_block_diagonal_is_sum(self, rng):
        """Assemble blocks of known exact rank; the assembled rank must
        be the sum. One epsilon for the assembled matrix keeps the
        comparison honest."""
        for _ in range(10):
            ranks = [int(rng.integers(0, 4)) for _ in range(3)]
            blocks = [
                exact_rank_matrix(rng, 4, 5, rank) if rank else Matrix.zeros(4, 5)
                for rank in ranks
            ]
            assembled = block_diagonal(blocks)
            assert numerical_rank(assembled) == sum(ranks)

    def test_permutation_preserves_rank(self, rng):
        from smoa import Permutation

        w = exact_rank_matrix(rng, 6, 6, 3)
        p_out = Permutation(rng.permutation(6))
        p_in = Permutation(rng.permutation(6))
        moved = invert_permutations(w, p_out, p_in)
        assert numerical_rank(moved) == 3


def random_plans(rng, rows, cols, k):
    """Plans over two Gaussian weights and two of rank 3, whose anchors are
    rank deficient, so the rank cutoff decides on values that are roundoff."""
    for low_rank in (False, False, True, True):
        w = exact_rank_matrix(rng, rows, cols, 3) if low_rank else random_matrix(rng, rows, cols)
        yield build_plan(w, k)


def assert_same_spectrum(values, dense):
    """Block values against the dense decomposition's: same count, equal to
    1e-12 of the largest."""
    assert values.shape == dense.shape
    assert np.abs(values - dense).max() <= 1e-12 * dense[0]


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("rows,cols", [(12, 12), (12, 8)])
class TestBlockSpectrum:
    """A witness target and a block update are permuted block diagonals, so
    their singular values are the union of their K blocks' values; the dense
    decomposition of the scattered matrix is the oracle for both."""

    @pytest.mark.parametrize("rho", [0, 1, 2])
    def test_witness_values_are_the_dense_values(self, rng, rows, cols, k, rho):
        for plan in random_plans(rng, rows, cols, k):
            witness = make_witness(plan, rho, seed=int(rng.integers(2**31)))
            assert_same_spectrum(witness._values, singular_values(witness.target))
            assert witness.reordered_target_rank == numerical_rank(witness.target)

    @pytest.mark.parametrize("rho", [1, 2])
    def test_update_rank_is_the_dense_rank(self, rng, rows, cols, k, rho):
        for plan in random_plans(rng, rows, cols, k):
            adapter = init_smoa(plan, rho * k, AdapterInit("gaussian", int(rng.integers(2**31))))
            values, shape = smoa.capacity._update_spectrum(adapter)
            delta = smoa_update(adapter)
            assert shape == delta.shape
            assert_same_spectrum(values, singular_values(delta))
            assert smoa.capacity._update_rank(adapter) == numerical_rank(delta)


class TestWitness:
    @pytest.fixture
    def witness(self, rng):
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        return make_witness(plan, rho=2, seed=77)

    def test_target_structure(self, witness):
        """Reordering the target exposes exactly the modulated blocks."""
        from smoa import apply_permutations

        plan = witness.plan
        reordered = apply_permutations(witness.target, plan.p_out, plan.p_in)
        for g in range(plan.k):
            r0, r1 = plan.row_intervals[g]
            c0, c1 = plan.col_intervals[g]
            expected = witness.coefficient_stack[g] * plan.anchor_stack[g]
            assert_array_equal(reordered.data[r0:r1, c0:c1], expected)

    def test_coefficients_have_rank_rho(self, witness):
        for c in witness.coefficient_stack:
            assert numerical_rank(Matrix(c)) == 2

    def test_reordered_rank_recorded(self, witness):
        assert witness.reordered_target_rank == numerical_rank(witness.target)

    def test_derived_once(self, rng, tmp_path, count_decompositions):
        """Building a witness decomposes nothing; saving it and reading
        every gap shares one values-only decomposition of its K blocks and
        none of the dense target. The block values carry no cross-block
        roundoff, so the gaps agree with the dense ones to rel 1e-9, not bit
        for bit."""
        plan = save_plan(build_plan(random_matrix(rng, 12, 8), 2), tmp_path / "plan.json")
        witness, calls = count_decompositions(make_witness, plan, rho=2, seed=3)
        assert calls == {}

        def save_and_read_gaps():
            save_witness(witness, tmp_path / "bundle")
            return [lora_gap(witness, r) for r in range(1, 9)], witness.reordered_target_rank

        (gaps, rank), calls = count_decompositions(save_and_read_gaps)
        assert calls == {"svdvals": 1}
        assert count_decompositions.shapes == [("svdvals", (2, 6, 4))]
        assert gaps == pytest.approx([tail_energy(witness.target, r) for r in range(1, 9)],
                                     rel=1e-9)
        assert rank == numerical_rank(witness.target) == 8

    def test_seeded_reproducibility(self, rng):
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        first = make_witness(plan, rho=2, seed=5)
        second = make_witness(plan, rho=2, seed=5)
        assert np.array_equal(first.target.data, second.target.data)

    def test_zero_rho_gives_zero_target(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        witness = make_witness(plan, rho=0, seed=1)
        assert np.all(witness.target.data == 0.0)
        assert witness.reordered_target_rank == 0

    def test_rho_out_of_range(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)  # blocks 2x2
        with pytest.raises(RangeError):
            make_witness(plan, rho=3, seed=1)
        with pytest.raises(RangeError):
            make_witness(plan, rho=-1, seed=1)

    def test_negative_seed_rejected(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        with pytest.raises(RangeError):
            make_witness(plan, rho=1, seed=-1)

    @pytest.mark.parametrize("rho,seed", [(3, 1), (-1, 1), (1, -1)],
                             ids=["rho-above-block-side", "rho-negative", "seed-negative"])
    def test_constructor_bounds_rho_and_seed(self, rng, rho, seed):
        witness = make_witness(build_plan(random_matrix(rng, 4, 4), 2), rho=1, seed=1)
        with pytest.raises(RangeError):
            WitnessInstance(witness.plan, rho, seed)

    def test_coefficient_stack_is_the_seeds_draw(self, rng):
        """A witness is its plan, rho and seed: its read-only stack is, bit for
        bit, one (K, rho (s_out + s_in)) draw from ``default_rng(seed)`` whose
        row k holds L_k's entries then R_k's, multiplied out as L_k R_k."""
        plan = build_plan(random_matrix(rng, 8, 12), 2)  # blocks 4x6
        witness = make_witness(plan, 2, 0)
        assert [f.name for f in dataclasses.fields(WitnessInstance)] == ["plan", "rho", "seed"]
        draws = np.random.default_rng(0).standard_normal((2, 2 * (4 + 6)))
        expected = np.stack([draws[g, :8].reshape(4, 2) @ draws[g, 8:].reshape(2, 6)
                             for g in range(2)])
        stack = witness.coefficient_stack
        assert stack.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0

    @pytest.mark.parametrize("rows,cols,k,rho", [(12, 18, 3, 2), (8, 8, 2, 0)],
                             ids=["rectangular-k3", "rho-zero"])
    def test_matches_block_diagonal_reference(self, rng, rows, cols, k, rho):
        """Per-block draws, ``block_diag`` and the inverse permutations
        give the same bytes as the stacked construction."""
        plan = build_plan(random_matrix(rng, rows, cols), k)
        s_out, s_in = plan.block_shape
        draws = np.random.default_rng(31)
        coefficients, blocks = [], []
        for anchor in plan.anchors:
            if rho:
                c = draws.standard_normal((s_out, rho)) @ draws.standard_normal((rho, s_in))
            else:
                c = np.zeros((s_out, s_in))
            coefficients.append(c)
            blocks.append(c * anchor.data)
        reordered = Matrix(scipy.linalg.block_diag(*blocks))
        expected = invert_permutations(reordered, plan.p_out, plan.p_in)

        witness = make_witness(plan, rho, seed=31)
        assert witness.target.data.tobytes() == expected.data.tobytes()
        assert [c.tobytes() for c in witness.coefficient_stack] == [c.tobytes() for c in coefficients]
        assert witness.reordered_target_rank == numerical_rank(reordered)

    @pytest.mark.parametrize("rows,cols,k", [(8, 8, 2), (12, 18, 3), (16, 8, 4), (64, 64, 8),
                                             (96, 64, 2)])
    def test_one_draw_matches_per_block_loop(self, rng, rows, cols, k):
        """The one (K, rho (s_out + s_in)) draw and batched product give the
        bytes of drawing C_k's two factors block by block, at every rho."""
        plan = build_plan(random_matrix(rng, rows, cols), k)
        s_out, s_in = plan.block_shape
        for rho in range(min(s_out, s_in) + 1):
            for seed in (0, 5):
                draws = np.random.default_rng(seed)
                reference = np.stack([
                    draws.standard_normal((s_out, rho)) @ draws.standard_normal((rho, s_in))
                    for _ in range(k)
                ])
                stack = make_witness(plan, rho, seed).coefficient_stack
                assert stack.tobytes() == reference.tobytes(), (rho, seed)


class TestSeparation:
    def test_exact_fit_reproduces_target(self, rng):
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=13)
        adapter = smoa_exact_fit(witness)
        residual = smoa_update(adapter) - witness.target
        assert residual.norm() <= 1e-10 * witness.target.norm()

    def test_exact_fit_of_zero_witness(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        witness = make_witness(plan, rho=0, seed=13)
        adapter = smoa_exact_fit(witness)
        assert adapter.rho == 1
        assert (adapter.a.shape, adapter.b.shape) == ((2, 1, 2), (2, 2, 1))
        assert not adapter.a.any() and not adapter.b.any()
        assert np.all(smoa_update(adapter).data == 0.0)

    @pytest.mark.parametrize("rows,cols,k,rho", [(8, 8, 2, 2), (12, 18, 3, 1), (16, 8, 4, 2),
                                                 (8, 8, 1, 8)])
    def test_exact_fit_is_the_witness_draws(self, rng, rows, cols, k, rho):
        """The exact fit's factor pairs are the witness's own draws, taken
        here block by block: b_k = L_k and a_k = R_k, bit for bit."""
        plan = build_plan(random_matrix(rng, rows, cols), k)
        s_out, s_in = plan.block_shape
        draws = np.random.default_rng(9)
        left, right = zip(*[(draws.standard_normal((s_out, rho)), draws.standard_normal((rho, s_in)))
                            for _ in range(k)])
        exact = smoa_exact_fit(make_witness(plan, rho, seed=9))
        assert exact.rho == rho
        assert exact.b.tobytes() == np.stack(left).tobytes()
        assert exact.a.tobytes() == np.stack(right).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_exact_fit_decomposes_nothing(self, rng, count_decompositions, k):
        witness = make_witness(build_plan(random_matrix(rng, 16, 16), k), rho=1, seed=k)
        _, calls = count_decompositions(smoa_exact_fit, witness)
        assert calls == {}

    @pytest.mark.parametrize("rho", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("rows,cols", [(8, 8), (12, 8), (8, 12), (24, 16)])
    def test_exact_fit_update_is_the_target_bitwise(self, rng, rows, cols, k, rho):
        """The exact fit's update is the very batched product the target is
        built from, so the two agree byte for byte, not to roundoff."""
        witness = make_witness(build_plan(random_matrix(rng, rows, cols), k), rho, seed=rows + k)
        assert smoa_update(smoa_exact_fit(witness)).data.tobytes() == witness.target.data.tobytes()

    def test_gap_matches_truncation_residual(self, rng):
        """Independent oracle: the gap at r is the squared distance to
        the best rank-r approximation computed directly."""
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=29)
        for r in (1, 2, 3, 4, 6):
            direct = witness.target - truncated_svd(witness.target, r)
            assert lora_gap(witness, r) == pytest.approx(
                float(np.sum(direct.data**2)), rel=1e-9, abs=1e-12
            )

    def test_gap_positive_below_target_rank_zero_at_it(self, rng):
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=41)
        rank = witness.reordered_target_rank
        assert rank == 8  # two rank-2 blocks modulated by full-rank anchors... see below
        # ranks: hadamard can raise rank up to s_k; with generic anchors
        # rank(C * anchor) = s_k almost surely, so the target is full rank
        assert lora_gap(witness, rank - 1) > 0.0
        assert lora_gap(witness, rank) <= 1e-18 * witness.target.norm() ** 2

    def test_gap_beyond_m_clamps(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        witness = make_witness(plan, rho=1, seed=3)
        assert lora_gap(witness, 100) == lora_gap(witness, 4)

    def test_gap_requires_positive_r(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        witness = make_witness(plan, rho=1, seed=3)
        with pytest.raises(ConfigurationError):
            lora_gap(witness, 0)

    def test_separation_is_constructive(self, rng):
        """The witness shows U > r is real: block family exact at budget
        rho*K, global family strictly positive error at the same r."""
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=97)
        r = witness.rho * plan.k  # equal nominal budget: 4
        adapter = smoa_exact_fit(witness)
        block_error = (smoa_update(adapter) - witness.target).norm() ** 2
        global_floor = lora_gap(witness, r)
        assert block_error < 1e-20 * witness.target.norm() ** 2
        # strictly positive at float scale, and astronomically above the
        # block family's exact fit
        assert global_floor > 1e-6 * witness.target.norm() ** 2
        assert global_floor > 1e10 * max(block_error, 1e-300)


class TestAchievedRank:
    def test_on_exact_fit_update(self, rng):
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=7)
        adapter = smoa_exact_fit(witness)
        assert achieved_rank(smoa_update(adapter)) == witness.reordered_target_rank


def _stores(rng):
    """One of each stacked store over an 8x12 plan with K = 2. Each comes
    with a constructor taking the stacks as keywords, its valid stacks,
    and its blocks, the rows of its held stacks, as a list of
    ``(field, index, block)``. A witness draws its one stack from its seed,
    so its constructor takes no stack and its valid stack is the one it draws."""
    plan = build_plan(random_matrix(rng, 8, 12), 2)
    adapter = init_smoa(plan, 4, AdapterInit("gaussian", seed=3))
    witness = make_witness(plan, rho=2, seed=5)
    return [
        (plan,
         lambda **s: BlockPlan(plan.k, plan.p_out, plan.p_in, **s),
         {"anchor_stack": plan.anchor_stack},
         lambda p: [("anchor_stack", g, m) for g, m in enumerate(p.anchor_stack)]),
        (adapter,
         lambda **s: SmoaAdapter(plan, 2, **s),
         {"a": adapter.a, "b": adapter.b},
         lambda ad: [(f, g, m) for f in "ab" for g, m in enumerate(getattr(ad, f))]),
        (witness,
         lambda **_: WitnessInstance(plan, rho=2, seed=5),
         {"coefficient_stack": witness.coefficient_stack},
         lambda w: [("coefficient_stack", g, m) for g, m in enumerate(w.coefficient_stack)]),
    ]


STORES = ["plan", "adapter", "witness"]
BUILT = STORES[:2]  # the stores whose constructor takes their stacks


class TestCeilingAttained:
    """The ceiling where the Hadamard bound binds: w0 of exact rank q makes
    every anchor rank at most q, so a block's term is min(s, rho * q) and the
    ceiling falls below d in most cells (in 162 of these 216). A Gaussian-init
    block adapter and a witness both reach it, and the exact fit is exact."""

    @pytest.mark.parametrize("d", [32, 64])
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_update_ceiling_and_witness_ranks_agree(self, d, k):
        failures, binding = [], 0
        for q, seed in itertools.product((1, 2, 3, 5), range(3)):
            plan = build_plan(low_rank_plus_noise(d, d, q, 0.0, seed), k)
            for r in (k, 2 * k, 4 * k):
                ceiling = rank_ceiling(plan, r)
                achieved = smoa.capacity._update_rank(
                    init_smoa(plan, r, AdapterInit("gaussian", seed=seed + 1000)))
                witness = make_witness(plan, r // k, seed + 2000)
                binding += ceiling.total_ceiling < d
                if not (achieved == ceiling.total_ceiling == witness.reordered_target_rank
                        and ceiling.separated == (achieved > r)
                        and smoa.capacity._exact_fit_residual(witness) == 0.0):
                    failures.append((q, seed, r, achieved, ceiling.total_ceiling,
                                     witness.reordered_target_rank))
        assert failures == []
        assert binding > 0


class TestStackedStores:
    """BlockPlan and SmoaAdapter hold their K blocks, and WitnessInstance
    draws its K blocks, as read-only (K, ., .) arrays: block k is row k."""

    @pytest.mark.parametrize("which", range(3), ids=STORES)
    def test_views_equal_stack_slices(self, rng, which):
        _, make, stacks, blocks = _stores(rng)[which]
        entries = blocks(make(**stacks))
        assert len(entries) == 2 * len(stacks)
        for field, g, block in entries:
            assert_array_equal(Matrix(block).data, stacks[field][g])

    @pytest.mark.parametrize("which", range(3), ids=STORES)
    def test_stacks_are_read_only_copies(self, rng, which):
        _, make, stacks, _ = _stores(rng)[which]
        writable = {field: np.array(stack) for field, stack in stacks.items()}
        store = make(**writable)
        for field, stack in writable.items():
            held = getattr(store, field)
            assert held.dtype == np.float64 and held.flags.c_contiguous
            with pytest.raises(ValueError):
                held[0, 0, 0] = 1.0
            stack[0, 0, 0] += 1.0
            assert held[0, 0, 0] != stack[0, 0, 0]

    @pytest.mark.parametrize("which", range(2), ids=BUILT)
    def test_sequence_of_matrices_accepted(self, rng, which):
        _, make, stacks, _ = _stores(rng)[which]
        store = make(**{f: [Matrix(m) for m in stack] for f, stack in stacks.items()})
        for field, stack in stacks.items():
            assert_array_equal(getattr(store, field), stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", range(2), ids=BUILT)
    def test_non_finite_stack_rejected(self, rng, which, bad):
        _, make, stacks, _ = _stores(rng)[which]
        for field in stacks:
            poisoned = np.array(stacks[field])
            poisoned[-1, -1, -1] = bad
            with pytest.raises(NumericalError):
                make(**{**stacks, field: poisoned})

    @pytest.mark.parametrize("which", range(2), ids=BUILT)
    def test_wrong_k_rejected(self, rng, which):
        _, make, stacks, _ = _stores(rng)[which]
        for field, stack in stacks.items():
            for wrong in (stack[:1], np.concatenate([stack, stack[:1]])):
                with pytest.raises(DimensionError):
                    make(**{**stacks, field: wrong})

    @pytest.mark.parametrize("which", range(2), ids=BUILT)
    def test_wrong_block_shape_rejected(self, rng, which):
        _, make, stacks, _ = _stores(rng)[which]
        for field, stack in stacks.items():
            ragged = [Matrix(stack[0]), Matrix(stack[1][:, :-1])]
            for wrong in (stack[:, :, :-1], stack[0], ragged):
                with pytest.raises(DimensionError):
                    make(**{**stacks, field: wrong})

    def test_equality_is_identity(self, rng):
        for store, make, stacks, _ in _stores(rng):
            twin = make(**stacks)
            assert store == store and not store != store
            assert store != twin
            assert hash(store) == hash(store)
            assert len({store, twin}) == 2


class TestWitnessFiles:
    def test_bundle_roundtrip(self, rng, tmp_path):
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=19)
        manifest_path = save_bundle(witness, tmp_path / "bundle")
        assert manifest_path.name == "witness.json"
        loaded = load_witness(tmp_path / "bundle")
        assert np.array_equal(loaded.target.data, witness.target.data)
        assert loaded.rho == 2 and loaded.seed == 19
        assert loaded.reordered_target_rank == witness.reordered_target_rank
        assert np.array_equal(loaded.coefficient_stack, witness.coefficient_stack)

    def test_manifest_gaps_cover_all_budgets(self, rng, tmp_path):
        plan = build_plan(random_matrix(rng, 6, 6), 2)
        witness = make_witness(plan, rho=1, seed=23)
        save_bundle(witness, tmp_path / "bundle")
        manifest = json.loads((tmp_path / "bundle" / "witness.json").read_text())
        assert manifest["format"] == "SMOA-WITNESS" and manifest["version"] == 5
        assert manifest["target"]["path"] == "target.mat" and "coefficients" not in manifest
        assert sorted(manifest["gaps"], key=int) == [str(r) for r in range(1, 7)]
        for r in range(1, 7):
            assert manifest["gaps"][str(r)] == pytest.approx(lora_gap(witness, r), rel=1e-12)

    @pytest.mark.parametrize("rows,cols,k,rho", [(12, 12, 3, 2), (12, 8, 2, 1), (8, 8, 2, 0)])
    def test_save_decomposes_target_once(
        self, rng, tmp_path, count_decompositions, rows, cols, k, rho
    ):
        witness = make_witness(build_plan(random_matrix(rng, rows, cols), k), rho=rho, seed=29)
        _, calls = count_decompositions(save_bundle, witness, tmp_path / "bundle")
        assert calls == {"svdvals": 1}
        assert count_decompositions.shapes == [("svdvals", (k, rows // k, cols // k))]
        manifest = json.loads((tmp_path / "bundle" / "witness.json").read_text())
        assert manifest["reordered_target_rank"] == numerical_rank(witness.target)
        for r in range(1, min(rows, cols) + 1):
            assert manifest["gaps"][str(r)] == lora_gap(witness, r)

    def test_witness_holds_no_dense_target(self, rng, tmp_path):
        """Gaps and a save read the witness's one cached spectrum and its one
        kept factor draw; the dense target is derived on each use, so the
        witness keeps no copy of it."""
        plan = save_plan(build_plan(random_matrix(rng, 8, 12), 2), tmp_path / "plan.json")
        witness = make_witness(plan, rho=2, seed=37)
        lora_gap(witness, 2)
        save_witness(witness, tmp_path / "bundle")
        held = vars(witness)
        assert set(held) == {"plan", "rho", "seed", "_factors", "_values"}
        assert all(getattr(value, "shape", None) != (8, 12)
                   for value in (*held.values(), *held["_factors"]))

    def test_numerical_failure_writes_nothing(self, rng, tmp_path, monkeypatch):
        witness = make_witness(build_plan(random_matrix(rng, 8, 8), 2), rho=1, seed=31)

        def fail(_):
            raise NumericalError("no convergence")

        monkeypatch.setattr(smoa.capacity, "singular_values", fail)
        with pytest.raises(NumericalError):
            save_bundle(witness, tmp_path / "bundle")
        assert not (tmp_path / "bundle").exists() or not any((tmp_path / "bundle").iterdir())

    @pytest.mark.parametrize("key,value", [("rho", 5), ("rho", -1), ("seed", -1)],
                             ids=["rho-above-block-side", "rho-negative", "seed-negative"])
    def test_out_of_range_rho_or_seed_is_range_error(self, rng, tmp_path, key, value):
        witness = make_witness(build_plan(random_matrix(rng, 8, 8), 2), rho=1, seed=3)
        manifest = save_bundle(witness, tmp_path / "bundle")
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
        with pytest.raises(RangeError):
            load_witness(tmp_path / "bundle")

    @pytest.mark.parametrize("rows,cols,k,rho", [(8, 8, 2, 0), (12, 8, 2, 3), (16, 24, 4, 2)],
                             ids=["rho-zero", "tall-blocks", "wide-blocks-k4"])
    def test_bundle_is_two_files_and_roundtrips_bitwise(self, rng, tmp_path, rows, cols, k, rho):
        witness = make_witness(build_plan(random_matrix(rng, rows, cols), k), rho=rho, seed=41)
        save_bundle(witness, tmp_path / "bundle")
        assert sorted(p.name for p in (tmp_path / "bundle").iterdir()) == [
            "target.mat", "witness.json"]
        stored = load_matrix(tmp_path / "bundle" / "target.mat").data
        assert stored.tobytes() == witness.target.data.tobytes()
        loaded = load_witness(tmp_path / "bundle")
        assert loaded.coefficient_stack.tobytes() == witness.coefficient_stack.tobytes()
        assert loaded.target.data.tobytes() == witness.target.data.tobytes()

    def test_bad_manifest_rejected(self, tmp_path):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "witness.json").write_text(json.dumps({"format": "OTHER", "version": 1}))
        with pytest.raises(FormatError):
            load_witness(bundle)

    def test_manifest_pins_the_plan_by_relative_path_and_hash(self, rng, tmp_path):
        """So is the target, by the hash of the bytes written; nothing else is pinned."""
        witness = make_witness(build_plan(random_matrix(rng, 8, 8), 2), rho=1, seed=43)
        manifest = json.loads(save_bundle(witness, tmp_path / "bundle").read_text())
        assert manifest["plan"] == {"path": "../plan.json",
                                    "hash": sha256_file(tmp_path / "plan.json")}
        assert manifest["target"] == {"path": "target.mat",
                                      "hash": sha256_file(tmp_path / "bundle" / "target.mat")}
        assert {key for key, value in manifest.items() if type(value) is dict} == {
            "plan", "target", "gaps"}
        assert "plan_path" not in manifest and "target_rank" not in manifest
        assert manifest["reordered_target_rank"] == witness.reordered_target_rank

    def test_edited_plan_is_a_stale_pairing(self, rng, tmp_path):
        witness = make_witness(build_plan(random_matrix(rng, 8, 8), 2), rho=1, seed=53)
        save_bundle(witness, tmp_path / "bundle")
        save_plan(witness.plan, tmp_path / "plan.json", source_hash="rebuilt")
        with pytest.raises(ConfigurationError, match="stale pairing"):
            load_witness(tmp_path / "bundle")

    def test_bundle_pinned_to_another_plan_is_refused(self, rng, tmp_path):
        """The hash matches the file named, but that file is not the witness's plan:
        a manifest edited by hand to pin another same-shape plan by its true hash."""
        witness = make_witness(build_plan(random_matrix(rng, 8, 8), 2), rho=1, seed=59)
        manifest = save_bundle(witness, tmp_path / "bundle")
        other = tmp_path / "other.json"
        save_plan(build_plan(random_matrix(rng, 8, 8), 2), other)
        doc = json.loads(manifest.read_text())
        doc["plan"] = {"path": "../other.json", "hash": sha256_file(other)}
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="does not match its plan, rho and seed"):
            load_witness(tmp_path / "bundle")

    @pytest.mark.parametrize("key,value", [("seed", 999), ("rho", 2)], ids=["seed", "rho"])
    def test_edited_seed_or_rho_is_refused(self, rng, tmp_path, key, value):
        """Another seed or an in-range rho draws another target than the one stored."""
        witness = make_witness(build_plan(random_matrix(rng, 8, 8), 2), rho=1, seed=5)
        manifest = save_bundle(witness, tmp_path / "bundle")
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
        with pytest.raises(FormatError, match="does not match its plan, rho and seed"):
            load_witness(tmp_path / "bundle")

    def test_zero_rho_loads_under_any_seed(self, rng, tmp_path):
        """A rho = 0 witness is the zero target whatever its seed."""
        witness = make_witness(build_plan(random_matrix(rng, 8, 8), 2), rho=0, seed=5)
        manifest = save_bundle(witness, tmp_path / "bundle")
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "seed": 999}))
        loaded = load_witness(tmp_path / "bundle")
        assert loaded.seed == 999 and not loaded.target.data.any()

    def test_missing_plan_writes_no_bundle(self, rng, tmp_path):
        """A witness over a plan with no file has nothing to pin: nothing is written."""
        witness = make_witness(build_plan(random_matrix(rng, 8, 8), 2), rho=1, seed=61)
        with pytest.raises(ConfigurationError, match="must come from a file"):
            save_witness(witness, tmp_path / "bundle")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_earlier_manifest_versions_refused(self, rng, tmp_path, version):
        manifest = save_bundle(make_witness(build_plan(random_matrix(rng, 8, 8), 2), 1, 67),
                               tmp_path / "bundle")
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "version": version}))
        with pytest.raises(FormatError, match=f"unsupported .* version {version}"):
            load_witness(tmp_path / "bundle")
