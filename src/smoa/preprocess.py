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
from .matrices import Matrix, Permutation, apply_permutations, block_extract
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

    ``row_intervals`` and ``col_intervals`` are 0-based half-open
    ``(start, stop)`` pairs covering the reordered axes in K consecutive
    equal-length runs. ``anchors[k]`` is a deep copy of diagonal block k
    of the reordered weight.
    """

    k: int
    p_out: Permutation
    p_in: Permutation
    row_intervals: tuple[tuple[int, int], ...]
    col_intervals: tuple[tuple[int, int], ...]
    anchors: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_intervals", tuple(tuple(iv) for iv in self.row_intervals))
        object.__setattr__(self, "col_intervals", tuple(tuple(iv) for iv in self.col_intervals))
        object.__setattr__(self, "anchors", tuple(self.anchors))
        k = self.k
        if k < 1:
            raise ConfigurationError(f"k must be positive, got {k}")
        d_out, d_in = self.p_out.size, self.p_in.size
        if d_out % k or d_in % k:
            raise ConfigurationError(
                f"k={k} must divide both dimensions, got {d_out}x{d_in}"
            )
        if len(self.row_intervals) != k or len(self.col_intervals) != k or len(self.anchors) != k:
            raise ConfigurationError(f"expected {k} intervals and anchors")
        for intervals, size in ((self.row_intervals, d_out), (self.col_intervals, d_in)):
            step = size // k
            for g, (a, b) in enumerate(intervals):
                if (a, b) != (g * step, (g + 1) * step):
                    raise ConfigurationError(
                        f"interval {g} is {(a, b)}, expected {(g * step, (g + 1) * step)}"
                    )
        for g, anchor in enumerate(self.anchors):
            expected = (d_out // k, d_in // k)
            if anchor.shape != expected:
                raise DimensionError(
                    f"anchor {g} has shape {anchor.shape}, expected {expected}"
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
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    if w0.rows % k or w0.cols % k:
        raise ConfigurationError(
            f"k={k} must divide both dimensions of {w0.shape}"
        )
    out_scores, in_scores = coordinate_scores(svd(w0))
    p_out = Permutation(np.argsort(out_scores, kind="stable"))
    p_in = Permutation(np.argsort(in_scores, kind="stable"))
    reordered = apply_permutations(w0, p_out, p_in)
    row_step, col_step = w0.rows // k, w0.cols // k
    row_intervals = tuple((g * row_step, (g + 1) * row_step) for g in range(k))
    col_intervals = tuple((g * col_step, (g + 1) * col_step) for g in range(k))
    anchors = tuple(
        block_extract(reordered, row_intervals[g], col_intervals[g]) for g in range(k)
    )
    return BlockPlan(k, p_out, p_in, row_intervals, col_intervals, anchors)


def reordered_weight(plan: BlockPlan, w0: Matrix) -> Matrix:
    """Apply the plan's permutations to ``w0``."""
    if w0.shape != (plan.d_out, plan.d_in):
        raise DimensionError(
            f"matrix {w0.shape} does not match plan dimensions {(plan.d_out, plan.d_in)}"
        )
    return apply_permutations(w0, plan.p_out, plan.p_in)


def _interval_to_file(iv: tuple[int, int]) -> list[int]:
    # 0-based half-open in memory, 1-based closed on disk.
    return [iv[0] + 1, iv[1]]


def _interval_from_file(iv) -> tuple[int, int]:
    return (int(iv[0]) - 1, int(iv[1]))


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
        "row_intervals": [_interval_to_file(iv) for iv in plan.row_intervals],
        "col_intervals": [_interval_to_file(iv) for iv in plan.col_intervals],
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
        return BlockPlan(
            k=int(doc["k"]),
            p_out=Permutation.from_one_based(doc["p_out"]),
            p_in=Permutation.from_one_based(doc["p_in"]),
            row_intervals=tuple(_interval_from_file(iv) for iv in doc["row_intervals"]),
            col_intervals=tuple(_interval_from_file(iv) for iv in doc["col_intervals"]),
            anchors=tuple(anchors),
        )
