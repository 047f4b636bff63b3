"""Adapter families: update placement oracle, budgets, serialization."""
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from smoa import (
    AdapterInit,
    ConfigurationError,
    DimensionError,
    FormatError,
    LoraAdapter,
    Matrix,
    NumericalError,
    RangeError,
    SmoaAdapter,
    apply_forward,
    build_plan,
    init_lora,
    init_smoa,
    load_adapter,
    load_matrix,
    lora_update,
    merge,
    param_count,
    save_adapter,
    save_matrix,
    save_plan,
    smoa_update,
    update,
)
from smoa.fileutil import sha256_file
from smoa.gen import gaussian_matrix

from conftest import random_matrix


def oracle_smoa_update(adapter: SmoaAdapter) -> np.ndarray:
    """Entry-by-entry restatement: compute each block product with plain
    numpy, modulate by the anchor, scatter through the permutations one
    entry at a time."""
    plan = adapter.plan
    out = np.zeros((plan.d_out, plan.d_in))
    s_out, s_in = plan.block_shape
    for g in range(plan.k):
        block = (adapter.b[g] @ adapter.a[g]) * plan.anchor_stack[g]
        r0, _ = plan.row_intervals[g]
        c0, _ = plan.col_intervals[g]
        for i in range(s_out):
            for j in range(s_in):
                orig_row = plan.p_out.indices[r0 + i]
                orig_col = plan.p_in.indices[c0 + j]
                out[orig_row, orig_col] = block[i, j]
    return out


class TestUpdates:
    def test_lora_update_is_factor_product(self, rng):
        a = random_matrix(rng, 3, 8)
        b = random_matrix(rng, 6, 3)
        assert_array_equal(lora_update(LoraAdapter([a], [b])).data, b.data @ a.data)

    def test_smoa_update_matches_scatter_oracle(self, rng):
        w = random_matrix(rng, 8, 12)
        plan = build_plan(w, 4)
        adapter = init_smoa(plan, 8, AdapterInit("gaussian", seed=3))
        assert_array_equal(smoa_update(adapter).data, oracle_smoa_update(adapter))

    def test_smoa_update_zero_outside_blocks(self, rng):
        """In reordered coordinates the update lives only on the diagonal
        blocks; everything else is exactly zero."""
        from smoa import apply_permutations

        w = random_matrix(rng, 6, 6)
        plan = build_plan(w, 3)
        adapter = init_smoa(plan, 3, AdapterInit("gaussian", seed=1))
        reordered = apply_permutations(smoa_update(adapter), plan.p_out, plan.p_in)
        mask = np.ones((6, 6), dtype=bool)
        for g in range(3):
            r0, r1 = plan.row_intervals[g]
            c0, c1 = plan.col_intervals[g]
            mask[r0:r1, c0:c1] = False
        assert np.all(reordered.data[mask] == 0.0)

    def test_zero_anchor_entries_pin_update(self, rng):
        """Anchor zeros force update zeros at the same positions."""
        from smoa import BlockPlan, apply_permutations

        base = build_plan(random_matrix(rng, 6, 6), 2)
        sparse_anchors = []
        for anchor in base.anchors:
            data = np.array(anchor)
            data[rng.random(data.shape) < 0.5] = 0.0
            data[0, 0] = 0.0  # guarantee at least one zero
            sparse_anchors.append(Matrix(data))
        plan = BlockPlan(base.k, base.p_out, base.p_in, tuple(sparse_anchors))
        adapter = init_smoa(plan, 2, AdapterInit("gaussian", seed=7))
        reordered = apply_permutations(smoa_update(adapter), plan.p_out, plan.p_in)
        for g in range(2):
            anchor = plan.anchors[g].data
            r0, r1 = plan.row_intervals[g]
            c0, c1 = plan.col_intervals[g]
            block = reordered.data[r0:r1, c0:c1]
            assert np.all(block[anchor == 0.0] == 0.0)
            assert np.any(anchor == 0.0)

    def test_k1_all_ones_anchor_equals_lora(self, rng):
        """One block over an all-ones anchor reduces to plain LoRA: in
        reordered coordinates the update is exactly b @ a."""
        from smoa import apply_permutations

        plan = build_plan(Matrix(np.ones((5, 7))), 1)
        assert_array_equal(plan.anchors[0].data, np.ones((5, 7)))
        a = random_matrix(rng, 2, 7)
        b = random_matrix(rng, 5, 2)
        block = SmoaAdapter(plan, 2, a.data[np.newaxis], b.data[np.newaxis])
        moved = apply_permutations(smoa_update(block), plan.p_out, plan.p_in)
        assert_array_equal(moved.data, lora_update(LoraAdapter(block.a, block.b)).data)

    def test_update_dispatch(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        block = init_smoa(plan, 2, AdapterInit("gaussian", seed=2))
        lora = init_lora(4, 4, 2, AdapterInit("gaussian", seed=2))
        assert_array_equal(update(block).data, smoa_update(block).data)
        assert_array_equal(update(lora).data, lora_update(lora).data)


def reference_draw(k, s_out, s_in, rho, init):
    """The per-block draw loop: A_k, then B_k under ``gaussian``, each entry
    N(0, (scale/sqrt(fan_in))^2) from one seeded stream; zero B otherwise."""
    def draw(rows, cols):
        return rng.standard_normal((rows, cols)) * (init.scale / np.sqrt(cols))

    rng = np.random.default_rng(init.seed)
    a, b = [], []
    for _ in range(k):
        a.append(draw(rho, s_in))
        b.append(draw(s_out, rho) if init.scheme == "gaussian" else np.zeros((s_out, rho)))
    return np.stack(a), np.stack(b)


class TestInit:
    @pytest.mark.parametrize("scheme", ["zero-update", "gaussian"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_both_families_match_the_per_block_draw(self, scheme, k):
        for seed, (d_out, d_in), rho in [(0, (8, 8), 1), (7, (8, 12), 2), (2**40, (16, 8), 2)]:
            init = AdapterInit(scheme, seed, 0.7)
            s_out, s_in = d_out // k, d_in // k
            a, b = reference_draw(k, s_out, s_in, rho, init)
            block = init_smoa(build_plan(gaussian_matrix(d_out, d_in, seed), k), rho * k, init)
            assert (block.a.tobytes(), block.b.tobytes()) == (a.tobytes(), b.tobytes())
            a, b = reference_draw(1, d_out, d_in, rho * k, init)
            lora = init_lora(d_out, d_in, rho * k, init)
            assert (lora.a.tobytes(), lora.b.tobytes()) == (a.tobytes(), b.tobytes())

    def test_zero_update_scheme_gives_zero_update(self, rng):
        plan = build_plan(random_matrix(rng, 6, 6), 2)
        block = init_smoa(plan, 4, AdapterInit("zero-update", seed=11))
        lora = init_lora(6, 6, 4, AdapterInit("zero-update", seed=11))
        assert np.all(smoa_update(block).data == 0.0)
        assert np.all(lora_update(lora).data == 0.0)
        # A carries entropy even when B is zeroed
        assert np.any(block.a[0] != 0.0)
        assert np.any(lora.a != 0.0)

    def test_same_seed_reproduces(self, rng):
        plan = build_plan(random_matrix(rng, 4, 8), 2)
        first = init_smoa(plan, 2, AdapterInit("gaussian", seed=42))
        second = init_smoa(plan, 2, AdapterInit("gaussian", seed=42))
        assert np.array_equal(first.a, second.a)
        assert np.array_equal(first.b, second.b)

    def test_different_seeds_differ(self, rng):
        lora1 = init_lora(4, 4, 2, AdapterInit("gaussian", seed=1))
        lora2 = init_lora(4, 4, 2, AdapterInit("gaussian", seed=2))
        assert not np.array_equal(lora1.a, lora2.a)

    def test_scale_is_linear_in_draws(self):
        small = init_lora(8, 8, 2, AdapterInit("gaussian", seed=5, scale=1.0))
        big = init_lora(8, 8, 2, AdapterInit("gaussian", seed=5, scale=3.0))
        assert_allclose(big.a, 3.0 * small.a, rtol=1e-15)

    def test_draw_variance_tracks_fan_in(self):
        """std scale/sqrt(cols): empirical check on a wide factor."""
        lora = init_lora(4, 4096, 64, AdapterInit("gaussian", seed=9))
        observed = float(lora.a.std())
        assert observed == pytest.approx(1.0 / np.sqrt(4096), rel=0.05)

    def test_spectral_rejected_outside_trainer(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        with pytest.raises(ConfigurationError):
            init_lora(4, 4, 2, AdapterInit("spectral"))
        with pytest.raises(ConfigurationError):
            init_smoa(plan, 2, AdapterInit("spectral"))

    def test_rho_bounded_by_block_dims(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)  # blocks are 2x2
        with pytest.raises(RangeError):
            init_smoa(plan, 6, AdapterInit("gaussian"))  # rho = 3 > 2

    def test_constructor_bounds_rho_by_block_dims(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)  # blocks are 2x2
        with pytest.raises(RangeError):
            SmoaAdapter(plan, 3, np.zeros((2, 3, 2)), np.zeros((2, 2, 3)))

    def test_constructor_refuses_rho_zero(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        with pytest.raises(ConfigurationError, match="rho must be a positive integer, got 0"):
            SmoaAdapter(plan, 0, np.zeros((2, 0, 2)), np.zeros((2, 2, 0)))

    def test_lora_factors_must_chain(self):
        with pytest.raises(DimensionError, match=r"factor shapes \(4, 3\) @ \(2, 4\) do not chain"):
            LoraAdapter([Matrix(np.ones((2, 4)))], [Matrix(np.ones((4, 3)))])

    @pytest.mark.parametrize("a,b", [
        ([[[1.0, 2.0], [3.0]]], np.ones((1, 3, 2))),
        (np.ones((2, 4)), np.ones((1, 3, 2))),
        (np.ones((1, 2, 4)), np.ones((3, 2))),
        (np.ones((2, 2, 4)), np.ones((2, 3, 2))),
        (np.ones((1, 0, 4)), np.ones((1, 3, 0))),
        (np.ones((1, 2, 0)), np.ones((1, 3, 2))),
        (np.ones((1, 2, 4)), np.ones((1, 0, 2))),
    ], ids=["ragged", "a-not-3d", "b-not-3d", "two-blocks", "rank-0", "d_in-0", "d_out-0"])
    def test_lora_constructor_refuses_bad_shapes(self, a, b):
        with pytest.raises(DimensionError):
            LoraAdapter(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", "ab")
    def test_lora_constructor_refuses_non_finite(self, side, bad):
        factors = {"a": np.ones((1, 2, 4)), "b": np.ones((1, 3, 2))}
        factors[side][0, -1, -1] = bad
        with pytest.raises(NumericalError, match=f"factor stack {side} entries must be finite"):
            LoraAdapter(**factors)

    def test_lora_holds_read_only_one_block_stacks(self, rng):
        """Matrices or stacks in, read-only (1, r, d_in) and (1, d_out, r)
        copies held, sizes read off them, equal only to itself."""
        a, b = random_matrix(rng, 2, 5), random_matrix(rng, 4, 2)
        stack_a, stack_b = np.array(a)[np.newaxis], np.array(b)[np.newaxis]
        for lora in (LoraAdapter([a], [b]), LoraAdapter(stack_a, stack_b)):
            assert (lora.a.shape, lora.b.shape) == ((1, 2, 5), (1, 4, 2))
            assert (lora.r, lora.d_in, lora.d_out, lora.trainable_parameters) == (2, 5, 4, 18)
            assert not (lora.a.flags.writeable or lora.b.flags.writeable)
            assert (lora.a[0].tobytes(), lora.b[0].tobytes()) == (a.data.tobytes(), b.data.tobytes())
        stack_a[...] = 0.0
        assert lora.a[0].tobytes() == a.data.tobytes()
        assert lora == lora and lora != LoraAdapter(stack_a, stack_b)

    def test_k_must_divide_r(self, rng):
        plan = build_plan(random_matrix(rng, 6, 6), 3)
        with pytest.raises(ConfigurationError):
            init_smoa(plan, 4, AdapterInit("gaussian"))

    def test_bad_scheme_and_scale(self):
        with pytest.raises(ConfigurationError):
            AdapterInit("fancy")
        with pytest.raises(ConfigurationError):
            AdapterInit("gaussian", scale=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(RangeError):
            AdapterInit("gaussian", seed=-1)


class TestBudget:
    def test_param_law_exact(self):
        for d_in, d_out, r, k in ((16, 16, 4, 2), (64, 32, 8, 4), (1024, 512, 16, 8)):
            lora = param_count("lora", d_in, d_out, r)
            block = param_count("smoa", d_in, d_out, r, k)
            assert lora == r * (d_in + d_out)
            assert block * k == lora

    def test_counts_match_live_adapters(self, rng):
        plan = build_plan(random_matrix(rng, 8, 12), 4)
        block = init_smoa(plan, 8, AdapterInit("gaussian"))
        lora = init_lora(8, 12, 8, AdapterInit("gaussian"))
        assert block.trainable_parameters == param_count("smoa", 12, 8, 8, 4)
        assert lora.trainable_parameters == param_count("lora", 12, 8, 8)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            param_count("smoa", 16, 16, 5, 2)
        with pytest.raises(ConfigurationError):
            param_count("smoa", 15, 16, 4, 2)
        with pytest.raises(ConfigurationError):
            param_count("smoa", 16, 16, 4, None)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            param_count("prefix", 4, 4, 2)


class TestForwardAndMerge:
    def test_merge_then_multiply_equals_forward(self, rng):
        w0 = random_matrix(rng, 6, 4)
        lora = init_lora(6, 4, 2, AdapterInit("gaussian", seed=3))
        x = random_matrix(rng, 4, 5)
        via_forward = apply_forward(w0, lora_update(lora), x)
        via_merge = merge(w0, lora).data @ x.data
        assert_allclose(via_forward.data, via_merge, atol=1e-13)

    def test_zero_update_merge_is_identity(self, rng):
        w0 = random_matrix(rng, 4, 4)
        lora = init_lora(4, 4, 2, AdapterInit("zero-update", seed=1))
        assert_array_equal(merge(w0, lora).data, w0.data)

    def test_shape_guards(self, rng):
        w0 = random_matrix(rng, 4, 4)
        with pytest.raises(DimensionError):
            apply_forward(w0, Matrix.zeros(3, 3), random_matrix(rng, 4, 2))
        with pytest.raises(DimensionError):
            apply_forward(w0, Matrix.zeros(4, 4), random_matrix(rng, 5, 2))
        with pytest.raises(DimensionError):
            merge(w0, init_lora(6, 6, 2, AdapterInit("gaussian")))


class TestAdapterFiles:
    def test_lora_roundtrip(self, rng, tmp_path):
        lora = init_lora(5, 7, 3, AdapterInit("gaussian", seed=21))
        path = tmp_path / "adapter.json"
        written = save_adapter(lora, path, init=AdapterInit("gaussian", seed=21))
        assert written[0] == path
        assert [p.name for p in written[1:]] == ["adapter.a.mat", "adapter.b.mat"]
        assert load_matrix(tmp_path / "adapter.a.mat").data.tobytes() == lora.a.tobytes()
        assert load_matrix(tmp_path / "adapter.b.mat").data.tobytes() == lora.b.tobytes()
        loaded = load_adapter(path)
        assert isinstance(loaded, LoraAdapter)
        assert np.array_equal(loaded.a, lora.a)
        assert np.array_equal(loaded.b, lora.b)

    def test_smoa_roundtrip_with_plan(self, rng, tmp_path):
        plan = save_plan(build_plan(random_matrix(rng, 6, 6), 2), tmp_path / "plan.json")
        adapter = init_smoa(plan, 4, AdapterInit("gaussian", seed=8))
        path = tmp_path / "adapter.json"
        save_adapter(adapter, path)
        loaded = load_adapter(path)
        assert isinstance(loaded, SmoaAdapter)
        assert loaded.rho == 2 and loaded.plan.k == 2
        assert_array_equal(smoa_update(loaded).data, smoa_update(adapter).data)

    def test_adapter_pins_the_file_its_plan_came_from(self, rng, tmp_path):
        """Saved in another directory, a block adapter pins its plan's file by
        relative path and hash, and reloads to the same update bytes."""
        plan_path = tmp_path / "plans" / "plan.json"
        plan = save_plan(build_plan(random_matrix(rng, 8, 8), 2), plan_path)
        adapter = init_smoa(plan, 4, AdapterInit("gaussian", seed=3))
        path = tmp_path / "adapters" / "adapter.json"
        save_adapter(adapter, path)
        assert json.loads(path.read_text())["plan"] == {"path": "../plans/plan.json",
                                                       "hash": sha256_file(plan_path)}
        assert smoa_update(load_adapter(path)).data.tobytes() == smoa_update(adapter).data.tobytes()

    def test_envelope_fields(self, rng, tmp_path):
        """Either family's envelope is its format, version, three pins and
        ``init``: nothing the pinned plan and factor files define."""
        plan = save_plan(build_plan(random_matrix(rng, 4, 6), 2), tmp_path / "plan.json")
        init = AdapterInit("zero-update", seed=5)
        for adapter in (init_lora(4, 6, 2, init), init_smoa(plan, 2, init)):
            path = tmp_path / "adapter.json"
            save_adapter(adapter, path, init=init)
            doc = json.loads(path.read_text())
            assert sorted(doc) == ["a", "b", "format", "init", "plan", "version"]
            assert doc["format"] == "SMOA-ADPT" and doc["version"] == 4
            for side in "ab":
                assert doc[side] == {"path": f"adapter.{side}.mat",
                                     "hash": sha256_file(tmp_path / f"adapter.{side}.mat")}
            assert doc["plan"] == (None if isinstance(adapter, LoraAdapter) else
                                   {"path": "plan.json", "hash": sha256_file(plan.file[0])})
            assert doc["init"] == {"scheme": "zero-update", "seed": 5, "scale": 1.0}

    def test_smoa_plan_without_file_writes_nothing(self, rng, tmp_path):
        """A block adapter pins the file its plan came from; a plan just
        built has none, so the save refuses before writing."""
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        assert plan.file is None
        adapter = init_smoa(plan, 2, AdapterInit("gaussian"))
        with pytest.raises(ConfigurationError, match="must come from a file"):
            save_adapter(adapter, tmp_path / "adapter.json")
        assert list(tmp_path.iterdir()) == []

    def test_stale_plan_hash_rejected(self, rng, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan = save_plan(build_plan(random_matrix(rng, 4, 4), 2), plan_path)
        adapter = init_smoa(plan, 2, AdapterInit("gaussian", seed=4))
        path = tmp_path / "adapter.json"
        save_adapter(adapter, path)
        # regenerate the plan from a different matrix: hash changes
        save_plan(build_plan(random_matrix(rng, 4, 4), 2), plan_path)
        with pytest.raises(ConfigurationError, match="stale"):
            load_adapter(path)

    def test_missing_plan_hash_is_refused(self, rng, tmp_path):
        """No longer skipped: a block adapter without a plan hash is rejected."""
        plan_path = tmp_path / "plan.json"
        plan = save_plan(build_plan(random_matrix(rng, 4, 4), 2), plan_path)
        adapter = init_smoa(plan, 2, AdapterInit("gaussian"))
        path = tmp_path / "adapter.json"
        save_adapter(adapter, path)
        doc = json.loads(path.read_text())
        assert doc["plan"] == {"path": "plan.json", "hash": sha256_file(plan_path)}
        doc["plan"]["hash"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="pin 'plan' field 'hash'"):
            load_adapter(path)

    def test_load_bounds_rho_by_block_dims(self, rng, tmp_path):
        """Re-pinned rho = 3 factor stacks over 2x2 blocks are refused on load."""
        plan = save_plan(build_plan(random_matrix(rng, 4, 4), 2), tmp_path / "plan.json")
        path = tmp_path / "adapter.json"
        save_adapter(init_smoa(plan, 4, AdapterInit("gaussian")), path)
        # two blocks of A_k (rho x 2) and of B_k (2 x rho), each stacked by rows
        save_matrix(random_matrix(rng, 6, 2), tmp_path / "adapter.a.mat")
        save_matrix(random_matrix(rng, 4, 3), tmp_path / "adapter.b.mat")
        doc = json.loads(path.read_text())
        for side in "ab":  # re-pinned, so the load reaches the rho bound
            doc[side]["hash"] = sha256_file(tmp_path / f"adapter.{side}.mat")
        path.write_text(json.dumps(doc))
        with pytest.raises(RangeError, match="rho=3 out of range 0..2"):
            load_adapter(path)

    def test_missing_plan_key_is_not_global(self, rng, tmp_path):
        """Only a null ``plan`` marks a global adapter; a missing one is refused."""
        path = tmp_path / "adapter.json"
        save_adapter(init_lora(4, 4, 2, AdapterInit("gaussian")), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({key: value for key, value in doc.items() if key != "plan"}))
        with pytest.raises(FormatError, match="missing field 'plan'"):
            load_adapter(path)

    @pytest.mark.parametrize("k,r", [(2, 2), (2, 4), (4, 4)])
    def test_block_adapter_with_null_plan_fails_its_shapes(self, rng, tmp_path, k, r):
        """The plan pin names the family: read as the global K = 1 stack,
        K >= 2 stacked pairs (A: K rho rows, B: rho columns) do not chain."""
        plan = save_plan(build_plan(random_matrix(rng, 8, 8), k), tmp_path / "plan.json")
        path = tmp_path / "adapter.json"
        save_adapter(init_smoa(plan, r, AdapterInit("gaussian")), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "plan": None}))
        with pytest.raises(DimensionError, match="do not chain"):
            load_adapter(path)

    def test_one_block_adapter_with_null_plan_loads_as_global(self, rng, tmp_path):
        """A K = 1 block adapter's stacks are a global adapter's two matrices,
        so with its plan pin set to null it loads as that global adapter."""
        plan = save_plan(build_plan(random_matrix(rng, 4, 6), 1), tmp_path / "plan.json")
        adapter = init_smoa(plan, 2, AdapterInit("gaussian", seed=2))
        path = tmp_path / "adapter.json"
        save_adapter(adapter, path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "plan": None}))
        loaded = load_adapter(path)
        assert isinstance(loaded, LoraAdapter)
        assert loaded.a.tobytes() == adapter.a.tobytes()
        assert loaded.b.tobytes() == adapter.b.tobytes()

    def test_resave_with_fewer_factors_leaves_no_orphans(self, rng, tmp_path):
        """Whatever K is, a save writes exactly two factor files, so a re-save
        over a K = 4 adapter leaves exactly two."""
        plan = save_plan(build_plan(random_matrix(rng, 8, 8), 4), tmp_path / "plan.json")
        path = tmp_path / "adapter.json"
        save_adapter(init_smoa(plan, 4, AdapterInit("gaussian")), path)
        assert sorted(p.name for p in tmp_path.glob("adapter.*.mat")) == [
            "adapter.a.mat", "adapter.b.mat",
        ]
        lora = init_lora(8, 8, 2, AdapterInit("gaussian"))
        save_adapter(lora, path)
        assert sorted(p.name for p in tmp_path.glob("adapter.*.mat")) == [
            "adapter.a.mat", "adapter.b.mat",
        ]
        assert isinstance(load_adapter(path), LoraAdapter)

    @pytest.mark.parametrize("d_out,d_in,k,r", [(8, 12, 2, 4), (16, 24, 4, 8), (16, 8, 4, 4)])
    def test_block_roundtrip_is_bitwise(self, rng, tmp_path, d_out, d_in, k, r):
        """Non-square blocks: each stack file holds block k in rows
        k*m .. (k+1)*m, and the stacks load back bit for bit."""
        plan = save_plan(build_plan(random_matrix(rng, d_out, d_in), k), tmp_path / "plan.json")
        path = tmp_path / "adapter.json"
        adapter = init_smoa(plan, r, AdapterInit("gaussian", seed=k))
        save_adapter(adapter, path)
        assert sorted(p.name for p in tmp_path.glob("*.mat")) == ["adapter.a.mat", "adapter.b.mat"]
        for side, stack in (("a", adapter.a), ("b", adapter.b)):
            stored = load_matrix(tmp_path / f"adapter.{side}.mat").data
            assert stored.tobytes() == np.concatenate(list(stack)).tobytes()
        loaded = load_adapter(path)
        assert loaded.a.tobytes() == adapter.a.tobytes()
        assert loaded.b.tobytes() == adapter.b.tobytes()

    def test_factor_pin_missing_rejected(self, rng, tmp_path):
        path = tmp_path / "adapter.json"
        save_adapter(init_lora(4, 4, 2, AdapterInit("gaussian")), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({key: value for key, value in doc.items() if key != "b"}))
        with pytest.raises(FormatError, match="missing field 'b'"):
            load_adapter(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_earlier_envelope_versions_refused(self, tmp_path, version):
        path = tmp_path / "adapter.json"
        save_adapter(init_lora(4, 4, 2, AdapterInit("gaussian")), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": version}))
        with pytest.raises(FormatError, match=f"unsupported .* version {version}"):
            load_adapter(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "adapter.json"
        path.write_text(json.dumps({"format": "SMOA-PLAN", "version": 1}))
        with pytest.raises(FormatError):
            load_adapter(path)
