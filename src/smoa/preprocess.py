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

import os
from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, RangeError
from .fileutil import envelope_fields, field, pin, read_envelope, sha256_bytes, write_json
from .matio import matrix_from_csv, matrix_to_csv
from .matrices import Matrix, Permutation, _frozen_stack, apply_permutations
from .spectrum import svd

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


@dataclass(frozen=True, eq=False)
class BlockPlan:
    """Deterministic reordering and blocking of one weight matrix.

    Diagonal block k of the reordered weight is made of the original rows
    ``p_out[k*s_out:(k+1)*s_out]`` and columns ``p_in[k*s_in:(k+1)*s_in]``
    with ``(s_out, s_in) = block_shape``. The read-only ``(K, s_out, s_in)``
    ``anchor_stack`` holds a copy of each block; its ``anchors`` view, read
    only by the benchmark's plan round-trip check, goes with plan v2, whose
    files store no anchors. ``row_intervals`` and ``col_intervals`` state the
    layout as 0-based half-open ``(start, stop)`` pairs on the reordered axes.

    ``file`` is ``(path, sha256)`` of the SMOA-PLAN file the plan was saved to
    or read from, the file an adapter or witness over it pins; ``None`` for a
    plan that :func:`build_plan` just derived. It defines nothing else.
    """

    k: int
    p_out: Permutation
    p_in: Permutation
    anchor_stack: np.ndarray
    file: tuple[str, str] | None = dataclass_field(default=None, repr=False)

    def __post_init__(self) -> None:
        _check_split(self.k, self.d_out, self.d_in)
        stack = _frozen_stack(self.anchor_stack, (self.k, *self.block_shape), "anchor stack")
        object.__setattr__(self, "anchor_stack", stack)

    @property
    def anchors(self) -> tuple[Matrix, ...]:
        return tuple(Matrix(anchor) for anchor in self.anchor_stack)

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
    """The one split rule: K >= 1 divides two positive dimensions."""
    if k < 1 or d_out < 1 or d_in < 1:
        raise ConfigurationError(f"k={k} and dimensions {d_out}x{d_in} must be positive")
    if d_out % k or d_in % k:
        raise ConfigurationError(f"k={k} must divide both dimensions, got {d_out}x{d_in}")


def _block_rank(k: int, r: int) -> int:
    """The one budget rule: r over K blocks is rank rho = r / K per block,
    so K divides r >= 1. The global family is K = 1."""
    if r < 1 or r % k:
        raise ConfigurationError(f"r={r} must be a positive multiple of k={k}")
    return r // k


def _check_rho(rho: int, block_shape: tuple[int, int]) -> None:
    """The one block-rank bound: a rank-rho branch fits its block, 0 <= rho <= min(s_out, s_in)."""
    if not 0 <= rho <= min(block_shape):
        raise RangeError(f"rho={rho} out of range 0..{min(block_shape)}")


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


def coordinate_scores(
    decomposition: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral centroid score per output and input coordinate, from the
    ``(u, s, vt)`` that :func:`~smoa.spectrum.svd` gives.

    Returns ``(out_scores, in_scores)``; entry i of ``out_scores`` is
    the weighted mean position (1-based) of the singular directions row
    i loads on, weighted by ``sigma_j * U[i, j]^2``. Zero-energy
    coordinates score ``m + 1``.
    """
    u, s, vt = decomposition
    positions = np.arange(1, s.size + 1, dtype=np.float64)

    def scores(vectors: np.ndarray) -> np.ndarray:
        weights = vectors**2 * s
        energy = weights.sum(axis=1)
        centroid = weights @ positions
        out = np.full(vectors.shape[0], float(s.size + 1))
        np.divide(centroid, energy, out=out, where=energy > 0)
        return out

    # row-major U and V: the row sums' order, and so the scores' last bits,
    # follows the memory layout, which differs between the two drivers
    return scores(np.ascontiguousarray(u)), scores(np.ascontiguousarray(vt.T))


def build_plan(w0: Matrix, k: int) -> BlockPlan:
    """Analyze ``w0`` and derive the K-block reordering plan.

    Deterministic: identical inputs give identical permutations and
    anchors bit for bit. ``k`` must divide both dimensions.
    """
    _check_split(k, w0.rows, w0.cols)
    out_scores, in_scores = coordinate_scores(svd(w0))
    p_out = Permutation(np.argsort(out_scores, kind="stable"))
    p_in = Permutation(np.argsort(in_scores, kind="stable"))
    return BlockPlan(k, p_out, p_in, _gather_blocks(w0.data, k, p_out, p_in))


def reordered_weight(plan: BlockPlan, w0: Matrix) -> Matrix:
    """Apply the plan's permutations to ``w0``; its shape must be the plan's."""
    return apply_permutations(w0, plan.p_out, plan.p_in)


def _intervals_to_file(intervals: tuple[tuple[int, int], ...]) -> list[list[int]]:
    # 0-based half-open in memory, 1-based closed on disk.
    return [[start + 1, stop] for start, stop in intervals]


def save_plan(plan: BlockPlan, path: str | os.PathLike,
              source_hash: str | None = None) -> BlockPlan:
    """Write a plan as SMOA-PLAN v1 JSON with inline anchor CSV blocks, and
    return it with ``file`` naming the bytes written.

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
        "anchors": [{"csv": matrix_to_csv(Matrix(anchor))} for anchor in plan.anchor_stack],
        "source_hash": source_hash,
    }
    return replace(plan, file=(os.path.abspath(path), sha256_bytes(write_json(path, doc))))


def load_plan(path: str | os.PathLike) -> BlockPlan:
    """Read a SMOA-PLAN v1 file; every anchor is an inline CSV block."""
    payload = Path(path).read_bytes()
    return _decode_plan(path, payload, sha256_bytes(payload))


def _decode_plan(path: str | os.PathLike, payload: bytes, digest: str) -> BlockPlan:
    """The plan held by SMOA-PLAN v1 bytes read from ``path``; their hash ``digest``
    is taken once by the caller and kept in the plan's ``file``."""
    what = f"plan file {path}"
    doc = read_envelope(payload, PLAN_FORMAT, PLAN_VERSION, what)
    with envelope_fields(what):
        anchors = [matrix_from_csv(field(entry, "csv", str, f"{what} anchor {g + 1}"))
                   for g, entry in enumerate(field(doc, "anchors", list, what))]
        plan = BlockPlan(
            k=field(doc, "k", int, what),
            p_out=Permutation.from_one_based(field(doc, "p_out", list, what, int)),
            p_in=Permutation.from_one_based(field(doc, "p_in", list, what, int)),
            anchor_stack=anchors,
            file=(os.path.abspath(path), digest),
        )
        for key in ("row_intervals", "col_intervals"):
            if field(doc, key, list, what) != _intervals_to_file(getattr(plan, key)):
                raise FormatError(f"plan {key} {doc[key]!r} are not the equal split for k={plan.k}")
        return plan


def _plan_pin(plan: BlockPlan, directory: str | os.PathLike) -> dict:
    """The pin by which an artifact in ``directory`` names the file ``plan`` came from."""
    if plan.file is None:
        raise ConfigurationError("a plan pinned by an adapter or witness must come from a file: "
                                 "save_plan or load_plan it first")
    return pin(*plan.file, directory)
