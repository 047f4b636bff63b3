"""Spectrum-aware preprocessing: coordinate reordering and block anchors.

A frozen weight matrix is analyzed once, its rows and columns are
permuted so that coordinates with similar spectral content become
adjacent, and the reordered matrix is cut into K equal diagonal blocks
whose contents (the anchors) stay frozen. Adapters later modulate those
anchors; nothing here is trainable.

The reordering rule: each coordinate gets the energy-weighted mean index
of the singular directions it loads on (weights sigma_j * U[i, j]^2 for
rows, sigma_j * V[j, l]^2 for columns), coordinates are sorted by that
score ascending with ties broken by original index, and the sorted axis
is cut into K consecutive equal-length groups. Scores run in [1, m]; a
coordinate with no spectral energy scores m + 1 and sorts last.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DimensionError, FormatError
from .fileutil import atomic_write_text, envelope_fields, read_envelope
from .matio import load_matrix, matrix_from_csv, matrix_to_csv
from .matrices import Matrix, Permutation, apply_permutations
from .spectrum import SpectralDecomposition, svd

__all__ = [
    "BlockPlan",
    "coordinate_scores",
    "build_plan",
    "reordered_weight",
    "save_plan",
    "load_plan",
]

PLAN_FORMAT = "SMOA-PLAN"
PLAN_VERSION = 1


@dataclass(frozen=True)
class BlockPlan:
    """Deterministic reordering and blocking of one weight matrix.

    Diagonal block k of the reordered weight is made of the original rows
    ``p_out[k*s_out:(k+1)*s_out]`` and columns ``p_in[k*s_in:(k+1)*s_in]``
    with ``(s_out, s_in) = block_shape``. ``anchors[k]`` is a deep copy of
    that block. ``row_intervals`` and ``col_intervals`` state the same
    layout as 0-based half-open ``(start, stop)`` pairs on the reordered
    axes.
    """

    k: int
    p_out: Permutation
    p_in: Permutation
    anchors: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchors", tuple(self.anchors))
        _check_split(self.k, self.d_out, self.d_in)
        if len(self.anchors) != self.k:
            raise ConfigurationError(f"expected {self.k} anchors, got {len(self.anchors)}")
        for g, anchor in enumerate(self.anchors):
            if anchor.shape != self.block_shape:
                raise DimensionError(
                    f"anchor {g} has shape {anchor.shape}, expected {self.block_shape}"
                )

    @property
    def d_out(self) -> int:
        return self.p_out.size

    @property
    def d_in(self) -> int:
        return self.p_in.size

    @property
    def block_shape(self) -> tuple[int, int]:
        return (self.d_out // self.k, self.d_in // self.k)

    @property
    def row_intervals(self) -> tuple[tuple[int, int], ...]:
        s = self.block_shape[0]
        return tuple((g * s, (g + 1) * s) for g in range(self.k))

    @property
    def col_intervals(self) -> tuple[tuple[int, int], ...]:
        s = self.block_shape[1]
        return tuple((g * s, (g + 1) * s) for g in range(self.k))


def _check_split(k: int, d_out: int, d_in: int) -> None:
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    if d_out % k or d_in % k:
        raise ConfigurationError(f"k={k} must divide both dimensions, got {d_out}x{d_in}")


def _block_index(k: int, p_out: Permutation, p_in: Permutation) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` such that ``w[rows, cols]`` is the (K, s_out, s_in)
    stack of reordered diagonal blocks, addressed in original coordinates."""
    return p_out.indices.reshape(k, -1, 1), p_in.indices.reshape(k, 1, -1)


def _gather_blocks(w: np.ndarray, k: int, p_out: Permutation, p_in: Permutation) -> np.ndarray:
    """Fresh (K, s_out, s_in) stack of the K diagonal blocks of ``w``."""
    return w[_block_index(k, p_out, p_in)]


def _scatter_blocks(blocks: np.ndarray, p_out: Permutation, p_in: Permutation) -> np.ndarray:
    """Inverse of :func:`_gather_blocks`: a (d_out, d_in) array holding
    ``blocks`` at their original coordinates and exact zeros elsewhere."""
    out = np.zeros((p_out.size, p_in.size))
    out[_block_index(len(blocks), p_out, p_in)] = blocks
    return out


def _anchor_stack(plan: BlockPlan) -> np.ndarray:
    """The plan's anchors as one fresh (K, s_out, s_in) array."""
    return np.stack([anchor.data for anchor in plan.anchors])


def coordinate_scores(decomposition: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Spectral centroid score per output and input coordinate.

    Returns ``(out_scores, in_scores)``; entry i of ``out_scores`` is
    the weighted mean position (1-based) of the singular directions row
    i loads on, weighted by ``sigma_j * U[i, j]^2``. Zero-energy
    coordinates score ``m + 1``.
    """
    s = decomposition.singular_values
    positions = np.arange(1, s.size + 1, dtype=np.float64)

    def scores(vectors: np.ndarray) -> np.ndarray:
        weights = vectors**2 * s
        energy = weights.sum(axis=1)
        centroid = weights @ positions
        out = np.full(vectors.shape[0], float(s.size + 1))
        np.divide(centroid, energy, out=out, where=energy > 0)
        return out

    return scores(decomposition.left_vectors.data), scores(decomposition.right_vectors.data)


def build_plan(w0: Matrix, k: int) -> BlockPlan:
    """Analyze ``w0`` and derive the K-block reordering plan.

    Deterministic: identical inputs give identical permutations and
    anchors bit for bit. ``k`` must divide both dimensions.
    """
    _check_split(k, w0.rows, w0.cols)
    out_scores, in_scores = coordinate_scores(svd(w0))
    p_out = Permutation(np.argsort(out_scores, kind="stable"))
    p_in = Permutation(np.argsort(in_scores, kind="stable"))
    blocks = _gather_blocks(w0.data, k, p_out, p_in)
    return BlockPlan(k, p_out, p_in, tuple(Matrix(block) for block in blocks))


def reordered_weight(plan: BlockPlan, w0: Matrix) -> Matrix:
    """Apply the plan's permutations to ``w0``."""
    if w0.shape != (plan.d_out, plan.d_in):
        raise DimensionError(
            f"matrix {w0.shape} does not match plan dimensions {(plan.d_out, plan.d_in)}"
        )
    return apply_permutations(w0, plan.p_out, plan.p_in)


def _intervals_to_file(intervals: tuple[tuple[int, int], ...]) -> list[list[int]]:
    # 0-based half-open in memory, 1-based closed on disk.
    return [[start + 1, stop] for start, stop in intervals]


def save_plan(plan: BlockPlan, path: str | os.PathLike, source_hash: str | None = None) -> None:
    """Write a plan as SMOA-PLAN v1 JSON with inline anchor CSV blocks.

    ``source_hash`` records the content hash of the weight file the plan
    was built from, when the caller has one.
    """
    doc = {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        "k": plan.k,
        "p_out": plan.p_out.to_one_based(),
        "p_in": plan.p_in.to_one_based(),
        "row_intervals": _intervals_to_file(plan.row_intervals),
        "col_intervals": _intervals_to_file(plan.col_intervals),
        "anchors": [{"csv": matrix_to_csv(anchor)} for anchor in plan.anchors],
        "source_hash": source_hash,
    }
    atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_plan(path: str | os.PathLike) -> BlockPlan:
    """Read a SMOA-PLAN v1 file; anchor entries may be inline CSV blocks
    or paths to matrix files, resolved relative to the plan file."""
    doc = read_envelope(path, PLAN_FORMAT, PLAN_VERSION, "plan file")
    base = Path(path).parent
    with envelope_fields("plan file"):
        anchors = []
        for entry in doc["anchors"]:
            if isinstance(entry, str):
                anchors.append(load_matrix(base / entry))
            elif isinstance(entry, dict) and "csv" in entry:
                anchors.append(matrix_from_csv(entry["csv"]))
            else:
                raise FormatError(f"anchor entry must be a path or a csv block, got {entry!r}")
        plan = BlockPlan(
            k=int(doc["k"]),
            p_out=Permutation.from_one_based(doc["p_out"]),
            p_in=Permutation.from_one_based(doc["p_in"]),
            anchors=tuple(anchors),
        )
        for key in ("row_intervals", "col_intervals"):
            if doc[key] != _intervals_to_file(getattr(plan, key)):
                raise FormatError(f"plan {key} {doc[key]!r} are not the equal split for k={plan.k}")
        return plan
