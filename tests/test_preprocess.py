"""Reordering plans: score oracle, block anchors, plan file roundtrips."""
import json
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from smoa import (
    AdapterInit,
    BlockPlan,
    ConfigurationError,
    DimensionError,
    FitProblem,
    FormatError,
    Matrix,
    Permutation,
    RangeError,
    SmoaAdapter,
    WitnessInstance,
    build_plan,
    coordinate_scores,
    full_rank_ceiling,
    init_lora,
    init_smoa,
    load_plan,
    lora_gap,
    make_witness,
    param_count,
    rank_ceiling,
    reordered_weight,
    save_plan,
    svd,
)
from smoa.fileutil import sha256_file
from smoa.gen import gaussian_matrix
from smoa.matio import save_matrix

from conftest import random_matrix


def oracle_scores(vectors: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Plain-loop restatement of the score rule: energy-weighted mean of
    1-based direction positions, with zero-energy rows pushed past m."""
    m = s.size
    out = np.empty(vectors.shape[0])
    for i in range(vectors.shape[0]):
        num = den = 0.0
        for j in range(m):
            weight = s[j] * vectors[i, j] ** 2
            num += (j + 1) * weight
            den += weight
        out[i] = num / den if den > 0.0 else m + 1
    return out


class TestCoordinateScores:
    def test_matches_loop_oracle(self, rng):
        w = random_matrix(rng, 9, 6)
        u, s, vt = dec = svd(w)
        out_scores, in_scores = coordinate_scores(dec)
        assert_allclose(out_scores, oracle_scores(u, s), rtol=1e-12)
        assert_allclose(in_scores, oracle_scores(vt.T, s), rtol=1e-12)

    def test_range_is_one_to_m(self, rng):
        dec = svd(random_matrix(rng, 12, 7))
        out_scores, in_scores = coordinate_scores(dec)
        for scores in (out_scores, in_scores):
            assert np.all(scores >= 1.0 - 1e-12)
            assert np.all(scores <= 7.0 + 1e-12)

    def test_rank_one_scores_are_exactly_one(self, rng):
        u = rng.standard_normal((6, 1))
        v = rng.standard_normal((1, 6))
        # keep every entry nonzero so no coordinate is energy-free
        u[np.abs(u) < 0.1] += 0.5
        v[np.abs(v) < 0.1] += 0.5
        out_scores, in_scores = coordinate_scores(svd(Matrix(u @ v)))
        assert_allclose(out_scores, np.ones(6), atol=1e-9)
        assert_allclose(in_scores, np.ones(6), atol=1e-9)

    def test_zero_row_scores_past_m(self):
        data = np.diag([3.0, 2.0, 1.0, 0.0])
        out_scores, _ = coordinate_scores(svd(Matrix(data)))
        assert out_scores[3] == 4.0 + 1.0
        assert np.all(out_scores[:3] < 4.0)

    def test_diagonal_scores_are_positions(self):
        """diag(4,3,2,1) aligns coordinate i with direction i + 1."""
        dec = svd(Matrix(np.diag([4.0, 3.0, 2.0, 1.0])))
        out_scores, in_scores = coordinate_scores(dec)
        assert_allclose(out_scores, [1.0, 2.0, 3.0, 4.0], atol=1e-12)
        assert_allclose(in_scores, [1.0, 2.0, 3.0, 4.0], atol=1e-12)


class TestBuildPlan:
    def test_ascending_diagonal_reverses(self):
        plan = build_plan(Matrix(np.diag([1.0, 2.0, 3.0, 4.0])), 2)
        assert_array_equal(plan.p_out.indices, [3, 2, 1, 0])
        assert_array_equal(plan.p_in.indices, [3, 2, 1, 0])
        assert_array_equal(plan.anchors[0].data, np.diag([4.0, 3.0]))
        assert_array_equal(plan.anchors[1].data, np.diag([2.0, 1.0]))

    def test_permutations_are_stable_argsort_of_scores(self, rng):
        """The plan must order coordinates exactly as a stable ascending
        sort of the published scores, so near-ties resolve by original
        index rather than by float noise reshuffling."""
        w = random_matrix(rng, 10, 6)
        out_scores, in_scores = coordinate_scores(svd(w))
        plan = build_plan(w, 2)
        assert_array_equal(plan.p_out.indices, np.argsort(out_scores, kind="stable"))
        assert_array_equal(plan.p_in.indices, np.argsort(in_scores, kind="stable"))

    @pytest.mark.parametrize("shape", [(10, 6), (6, 10), (16, 16)])
    def test_one_full_svd_of_the_weight(self, rng, count_decompositions, shape):
        """``build_plan`` runs exactly one full SVD, on the dense weight."""
        _, calls = count_decompositions(build_plan, random_matrix(rng, *shape), 2)
        assert calls == {"svd": 1}
        assert count_decompositions.shapes == [("svd", shape)]

    def test_anchors_are_diagonal_blocks_of_reordered(self, rng):
        w = random_matrix(rng, 8, 12)
        plan = build_plan(w, 4)
        reordered = reordered_weight(plan, w)
        for g in range(4):
            (r0, r1), (c0, c1) = plan.row_intervals[g], plan.col_intervals[g]
            assert_array_equal(plan.anchors[g].data, reordered.data[r0:r1, c0:c1])

    def test_intervals_tile_axes(self, rng):
        plan = build_plan(random_matrix(rng, 6, 9), 3)
        assert plan.row_intervals == ((0, 2), (2, 4), (4, 6))
        assert plan.col_intervals == ((0, 3), (3, 6), (6, 9))
        assert plan.block_shape == (2, 3)

    def test_deterministic(self, rng):
        w = random_matrix(rng, 10, 10)
        first = build_plan(w, 2)
        second = build_plan(Matrix(w.data.copy()), 2)
        assert first.p_out == second.p_out and first.p_in == second.p_in
        for a, b in zip(first.anchors, second.anchors):
            assert np.array_equal(a.data, b.data)

    def test_k_one_keeps_whole_matrix(self, rng):
        w = random_matrix(rng, 5, 7)
        plan = build_plan(w, 1)
        assert plan.anchors[0].shape == (5, 7)
        assert_array_equal(plan.anchors[0].data, reordered_weight(plan, w).data)

    def test_scores_actually_sorted(self, rng):
        w = random_matrix(rng, 10, 8)
        dec = svd(w)
        out_scores, in_scores = coordinate_scores(dec)
        plan = build_plan(w, 2)
        assert np.all(np.diff(out_scores[plan.p_out.indices]) >= 0)
        assert np.all(np.diff(in_scores[plan.p_in.indices]) >= 0)

    def test_reordering_preserves_spectrum(self, rng):
        from smoa import singular_values

        w = random_matrix(rng, 9, 9)
        plan = build_plan(w, 3)
        assert_allclose(
            singular_values(reordered_weight(plan, w)),
            singular_values(w),
            rtol=1e-10,
        )

    @pytest.mark.parametrize("scale", [1e307, 1e-300])
    def test_scale_keeps_the_permutations(self, rng, scale):
        """Scores weight by sigma_j / sigma_1, so no scale overflows or
        flushes them, under the floating-point rules the CLI runs with."""
        w = random_matrix(rng, 16, 16)
        plan = build_plan(w, 2)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            scaled = build_plan(Matrix(w.data * scale), 2)
        assert (scaled.p_out, scaled.p_in) == (plan.p_out, plan.p_in)

    def test_zero_weight_plans_identity_permutations(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                plan = build_plan(Matrix.zeros(16, 16), 2)
        identity = Permutation(np.arange(16))
        assert (plan.p_out, plan.p_in) == (identity, identity)

    def test_k_must_divide(self, rng):
        with pytest.raises(ConfigurationError):
            build_plan(random_matrix(rng, 6, 6), 4)
        with pytest.raises(ConfigurationError):
            build_plan(random_matrix(rng, 6, 9), 2)

    def test_k_must_be_positive(self, rng):
        with pytest.raises(ConfigurationError):
            build_plan(random_matrix(rng, 4, 4), 0)


# every entry point that takes a rank budget r, with the K it splits r over;
# full_rank_ceiling and lora_gap read r as a global budget
_PLAN = build_plan(gaussian_matrix(8, 8, seed=3), 2)
BUDGET_ENTRY_POINTS = {
    "init_lora": (1, lambda r: init_lora(8, 8, r, AdapterInit())),
    "init_smoa": (2, lambda r: init_smoa(_PLAN, r, AdapterInit())),
    "param_count-lora": (1, lambda r: param_count("lora", 8, 8, r)),
    "param_count-smoa": (2, lambda r: param_count("smoa", 8, 8, r, 2)),
    "rank_ceiling": (2, lambda r: rank_ceiling(_PLAN, r)),
    "full_rank_ceiling": (1, lambda r: full_rank_ceiling(8, 8, 2, r)),
    "lora_gap": (1, lambda r: lora_gap(make_witness(_PLAN, 1, 0), r)),
    "FitProblem-lora": (1, lambda r: FitProblem(Matrix(np.ones((8, 8))), "lora", r)),
    "FitProblem-smoa": (2, lambda r: FitProblem(Matrix(np.ones((8, 8))), "smoa", r, _PLAN)),
}


class TestBudgetRule:
    @pytest.mark.parametrize("name", sorted(BUDGET_ENTRY_POINTS))
    def test_entry_points_share_one_rule(self, name):
        k, call = BUDGET_ENTRY_POINTS[name]
        call(2)
        for r in (0, -1, *([k + 1] if k > 1 else [])):
            with pytest.raises(ConfigurationError, match=f"r={r} must be a positive multiple"):
                call(r)


# every entry point that takes a block rank rho over _PLAN's 4x4 blocks
RHO_ENTRY_POINTS = {
    "init_smoa": lambda rho: init_smoa(_PLAN, 2 * rho, AdapterInit()),
    "SmoaAdapter": lambda rho: SmoaAdapter(_PLAN, rho, np.zeros((2, rho, 4)),
                                           np.zeros((2, 4, rho))),
    "make_witness": lambda rho: make_witness(_PLAN, rho, 0),
    "WitnessInstance": lambda rho: WitnessInstance(_PLAN, rho, 0),
    "rank_ceiling": lambda rho: rank_ceiling(_PLAN, 2 * rho),
}


class TestBlockRankBound:
    @pytest.mark.parametrize("name", sorted(RHO_ENTRY_POINTS))
    def test_entry_points_share_one_bound(self, name):
        call = RHO_ENTRY_POINTS[name]
        call(4)
        with pytest.raises(RangeError, match="rho=5 out of range 0..4"):
            call(5)


class TestPlanValidation:
    def test_wrong_interval_grid_rejected(self, rng, tmp_path):
        path = tmp_path / "plan.json"
        save_plan(build_plan(random_matrix(rng, 4, 4), 2), path)
        doc = json.loads(path.read_text())
        doc["row_intervals"] = [[1, 3], [4, 4]]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_plan(path)

    def test_reordered_weight_needs_the_plan_shape(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        with pytest.raises(DimensionError):
            reordered_weight(plan, random_matrix(rng, 4, 6))

    def test_wrong_anchor_shape_rejected(self, rng):
        good = build_plan(random_matrix(rng, 4, 4), 2)
        with pytest.raises(DimensionError):
            BlockPlan(
                k=2,
                p_out=good.p_out,
                p_in=good.p_in,
                anchor_stack=(good.anchors[0], Matrix(np.ones((3, 3)))),
            )


class TestPlanFiles:
    def test_roundtrip_bitwise(self, rng, tmp_path):
        plan = build_plan(random_matrix(rng, 8, 6), 2)
        path = tmp_path / "plan.json"
        save_plan(plan, path, source_hash="abc123")
        loaded = load_plan(path)
        assert loaded.k == plan.k
        assert loaded.p_out == plan.p_out and loaded.p_in == plan.p_in
        assert loaded.row_intervals == plan.row_intervals
        assert loaded.col_intervals == plan.col_intervals
        for a, b in zip(loaded.anchors, plan.anchors):
            assert np.array_equal(a.data, b.data)

    def test_saved_and_loaded_plan_name_the_same_file(self, rng, tmp_path, monkeypatch):
        """A built plan has no file; saving returns it with the absolute path and
        hash of the bytes written, which a load of that path reports too."""
        plan = build_plan(random_matrix(rng, 8, 6), 2)
        path = tmp_path / "plan.json"
        saved = save_plan(plan, path)
        assert plan.file is None and "file" not in repr(saved)
        assert saved.file == load_plan(path).file == (str(path), sha256_file(path))
        assert saved.anchor_stack.tobytes() == plan.anchor_stack.tobytes()
        monkeypatch.chdir(tmp_path)
        assert load_plan("plan.json").file == saved.file

    def test_file_uses_one_based_closed_intervals(self, rng, tmp_path):
        plan = build_plan(random_matrix(rng, 6, 6), 3)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "SMOA-PLAN" and doc["version"] == 1
        assert doc["row_intervals"] == [[1, 2], [3, 4], [5, 6]]
        assert min(doc["p_out"]) == 1 and max(doc["p_out"]) == 6

    def test_source_hash_persisted(self, rng, tmp_path):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        path = tmp_path / "plan.json"
        save_plan(plan, path, source_hash="deadbeef")
        assert json.loads(path.read_text())["source_hash"] == "deadbeef"

    @pytest.mark.parametrize("entry", ["anchor1.mat", "/anchor1.mat"], ids=["relative", "absolute"])
    def test_anchor_given_as_a_path_refused(self, rng, tmp_path, entry):
        """A plan holds its anchors inline; a matrix file named in their place,
        even one that exists, is a malformed anchor entry."""
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        save_matrix(plan.anchors[1], tmp_path / "anchor1.mat")
        doc = json.loads(path.read_text())
        doc["anchors"][1] = entry
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(f"plan file {path} anchor 2 is missing")):
            load_plan(path)

    def test_rejects_wrong_format_marker(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"format": "OTHER", "version": 1}))
        with pytest.raises(FormatError):
            load_plan(path)

    def test_rejects_unknown_version(self, rng, tmp_path):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        doc = json.loads(path.read_text())
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_plan(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_plan(path)

    def test_rejects_bad_anchor_entry(self, rng, tmp_path):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        doc = json.loads(path.read_text())
        doc["anchors"][0] = 42
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_plan(path)
