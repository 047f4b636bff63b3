"""Reordering plans: score oracle, block anchors, plan file roundtrips."""
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from smoa import (
    BlockPlan,
    ConfigurationError,
    DimensionError,
    FormatError,
    Matrix,
    Permutation,
    apply_permutations,
    build_plan,
    coordinate_scores,
    load_plan,
    reordered_weight,
    save_plan,
    svd,
)
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
        dec = svd(w)
        out_scores, in_scores = coordinate_scores(dec)
        assert_allclose(out_scores, oracle_scores(dec.left_vectors.data, dec.singular_values), rtol=1e-12)
        assert_allclose(in_scores, oracle_scores(dec.right_vectors.data, dec.singular_values), rtol=1e-12)

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

    def test_k_must_divide(self, rng):
        with pytest.raises(ConfigurationError):
            build_plan(random_matrix(rng, 6, 6), 4)
        with pytest.raises(ConfigurationError):
            build_plan(random_matrix(rng, 6, 9), 2)

    def test_k_must_be_positive(self, rng):
        with pytest.raises(ConfigurationError):
            build_plan(random_matrix(rng, 4, 4), 0)


class TestPlanValidation:
    def test_wrong_interval_grid_rejected(self, rng, tmp_path):
        path = tmp_path / "plan.json"
        save_plan(build_plan(random_matrix(rng, 4, 4), 2), path)
        doc = json.loads(path.read_text())
        doc["row_intervals"] = [[1, 3], [4, 4]]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_plan(path)

    def test_wrong_anchor_shape_rejected(self, rng):
        good = build_plan(random_matrix(rng, 4, 4), 2)
        with pytest.raises(DimensionError):
            BlockPlan(
                k=2,
                p_out=good.p_out,
                p_in=good.p_in,
                anchor_stack=(good.anchors[0], Matrix.ones(3, 3)),
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

    def test_anchor_paths_resolved_relative_to_plan(self, rng, tmp_path):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        doc = json.loads(path.read_text())
        for g, anchor in enumerate(plan.anchors):
            save_matrix(anchor, tmp_path / f"anchor{g}.mat")
            doc["anchors"][g] = f"anchor{g}.mat"
        path.write_text(json.dumps(doc))
        loaded = load_plan(path)
        for a, b in zip(loaded.anchors, plan.anchors):
            assert np.array_equal(a.data, b.data)

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
