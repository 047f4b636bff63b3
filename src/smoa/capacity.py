"""Rank capacity of block adapters versus a global low-rank budget.

A global rank-r update can never exceed rank r. A block update is a
permutation of a block-diagonal matrix, so its rank is the sum of the
block ranks, and block k is bounded by min(s_k, rho * rank(anchor_k))
with s_k the smaller block dimension. Summed over blocks this ceiling U
can exceed r while spending r / K times fewer parameters; ``separated``
flags exactly that regime.

Witnesses make the separation constructive: draw rank-rho coefficient
matrices C_k from a seed, modulate the anchors, and assemble the
block-diagonal target. A witness is its plan, rho and seed; C_k and the
target are derived from them. The block family reproduces the target
exactly by factoring each C_k, while any rank-r approximation pays at
least the Frobenius tail energy beyond r (the Eckart-Young bound).
``lora_gap`` evaluates that bound spectrally; no training is involved here.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .adapters import SmoaAdapter
from .errors import FormatError
from .fileutil import (atomic_write_bytes, envelope_fields, field, pin, read_envelope,
                       read_pinned, sha256_bytes, write_json)
from .gen import _check_seed, _rng
from .matio import encode_matrix
from .matrices import Matrix
from .preprocess import (BlockPlan, _block_rank, _check_rho, _check_split, _decode_plan,
                         _plan_pin, _scatter_blocks)
from .spectrum import (
    _rank_from_values,
    _tail_from_values,
    balanced_factors,
    numerical_rank,
    singular_values,
)

__all__ = [
    "BlockCeiling",
    "RankCeilingReport",
    "rank_ceiling",
    "full_rank_ceiling",
    "achieved_rank",
    "WitnessInstance",
    "make_witness",
    "smoa_exact_fit",
    "lora_gap",
    "save_witness",
    "load_witness",
]

WITNESS_FORMAT = "SMOA-WITNESS"
WITNESS_VERSION = 5


@dataclass(frozen=True)
class BlockCeiling:
    """Per-block ingredients: smaller block side, anchor rank, ceiling."""

    s_k: int
    anchor_rank: int
    block_ceiling: int


@dataclass(frozen=True)
class RankCeilingReport:
    """Update-rank ceiling of a block adapter next to the global bound.

    ``total_ceiling`` is the sum of block ceilings and never exceeds
    min(d_out, d_in); ``separated`` is true when it strictly exceeds the
    global budget ``lora_ceiling`` = r. ``epsilon`` is the rank cutoff
    the anchor ranks were measured with.
    """

    per_block: tuple[BlockCeiling, ...]
    total_ceiling: int
    lora_ceiling: int
    separated: bool
    epsilon: float


def rank_ceiling(plan: BlockPlan, r: int, epsilon: float | None = None) -> RankCeilingReport:
    """Ceiling on the update rank achievable at budget r over ``plan``.

    K must divide r, and rho = r / K must fit a block (``RangeError``
    otherwise); anchor ranks are measured at ``epsilon`` (default
    tolerance per anchor when omitted).
    """
    rho = _block_rank(plan.k, r)
    _check_rho(rho, plan.block_shape)
    s_k = min(plan.block_shape)
    values = singular_values(plan.anchor_stack)  # (K, s_k), one row per anchor
    ranks, epsilon = _rank_from_values(values, plan.block_shape, epsilon)
    blocks = tuple(BlockCeiling(s_k, rank, min(s_k, rho * rank)) for rank in ranks)
    total = sum(b.block_ceiling for b in blocks)
    return RankCeilingReport(
        per_block=blocks,
        total_ceiling=total,
        lora_ceiling=r,
        separated=total > r,
        epsilon=float(epsilon),
    )


def full_rank_ceiling(d_out: int, d_in: int, k: int, r: int) -> int:
    """Ceiling when every anchor has full rank: K * min(s, (r/K) * s).

    Evaluated as min(K*s, r*s) in exact integer arithmetic, which also
    covers r < K (where the per-block budget is fractional) without
    leaving the integers. K must divide both dimensions; r is any
    positive budget.
    """
    _check_split(k, d_out, d_in)
    _block_rank(1, r)
    s = min(d_out // k, d_in // k)
    return min(k * s, r * s)


def achieved_rank(delta: Matrix, epsilon: float | None = None) -> int:
    """Numerical rank of a realized update."""
    return numerical_rank(delta, epsilon)


@dataclass(frozen=True, eq=False)
class WitnessInstance:
    """A target the block family fits exactly at rank budget rho * K.

    A witness is its plan, ``rho`` and ``seed``; all else is derived on each
    use. ``coefficient_stack``, the read-only (K, s_out, s_in) rank-rho C_k =
    L_k R_k, is one (K, rho (s_out + s_in)) standard-normal draw from ``seed``
    (row k: L_k's entries, then R_k's) and one batched product; ``coefficients``
    views it as matrices. The target is blkdiag(C_k * anchor_k) (entrywise)
    carried back through the plan's inverse permutations, and its singular
    values are derived once; ``reordered_target_rank`` is their numerical rank.
    ``rho`` lies in 0..min(block_shape) and ``seed`` >= 0, else :class:`RangeError`.
    """

    plan: BlockPlan
    rho: int
    seed: int

    def __post_init__(self) -> None:
        _check_rho(self.rho, self.plan.block_shape)
        _check_seed(self.seed)

    @property
    def coefficient_stack(self) -> np.ndarray:
        k, (s_out, s_in), rho = self.plan.k, self.plan.block_shape, self.rho
        draws = _rng(self.seed).standard_normal((k, rho * (s_out + s_in)))
        left = draws[:, :s_out * rho].reshape(k, s_out, rho)
        right = draws[:, s_out * rho:].reshape(k, rho, s_in)
        stack = left @ right  # rho = 0 is the empty product: zeros
        stack.setflags(write=False)
        return stack

    @property
    def coefficients(self) -> tuple[Matrix, ...]:
        return tuple(Matrix(c) for c in self.coefficient_stack)

    @property
    def target(self) -> Matrix:
        blocks = self.coefficient_stack * self.plan.anchor_stack
        return Matrix(_scatter_blocks(blocks, self.plan.p_out, self.plan.p_in))

    @cached_property
    def _values(self) -> np.ndarray:
        return singular_values(self.target)

    @property
    def reordered_target_rank(self) -> int:
        return _rank_from_values(self._values, (self.plan.d_out, self.plan.d_in), None)[0]


def make_witness(plan: BlockPlan, rho: int, seed: int) -> WitnessInstance:
    """Seeded witness with C_k a product of standard Gaussian factors.

    ``rho = 0`` gives the zero target. A ``rho`` above the smaller block
    side, or a negative ``rho`` or ``seed``, raises :class:`RangeError`.
    """
    return WitnessInstance(plan, rho, seed)


def smoa_exact_fit(witness: WitnessInstance) -> SmoaAdapter:
    """Block adapter reproducing the witness target exactly.

    The coefficient stack is split in one stacked decomposition into the
    rank-rho truncated SVD of each C_k (exact, since rank(C_k) <= rho).
    A zero witness returns a rho = 1 adapter with zero factors.
    """
    rho = max(witness.rho, 1)
    return SmoaAdapter(witness.plan, rho, *balanced_factors(witness.coefficient_stack, rho))


def lora_gap(witness: WitnessInstance, r: int) -> float:
    """Frobenius-squared distance from the target to the rank-r set.

    Evaluated spectrally as the tail energy beyond r (Eckart-Young);
    zero once r reaches the target rank. Never computed by training.
    """
    _block_rank(1, r)
    return _tail_from_values(witness._values, r)  # empty past the last value


def save_witness(witness: WitnessInstance, directory: str | os.PathLike) -> Path:
    """Write a SMOA-WITNESS v5 bundle: the manifest ``witness.json`` and
    ``target.mat``, and no plan copy.

    The manifest pins the witness plan's ``file`` and the target (see
    :mod:`smoa.fileutil`) and records seed, rho, the target rank and the gap
    ``lora_gap(witness, r)`` at every budget r = 1..min(d_out, d_in), all read
    off one decomposition of the target. Nothing is written until the
    manifest is complete, so a numerical failure or a plan with no file
    (:class:`ConfigurationError`) leaves no partial bundle.
    """
    base = Path(directory)
    plan_pin = _plan_pin(witness.plan, base)
    values = witness._values
    target = encode_matrix(witness.target)
    manifest = {
        "format": WITNESS_FORMAT,
        "version": WITNESS_VERSION,
        "seed": witness.seed,
        "rho": witness.rho,
        "reordered_target_rank": witness.reordered_target_rank,
        "gaps": {str(r): _tail_from_values(values, r) for r in range(1, values.size + 1)},
        "plan": plan_pin,
        "target": pin(base / "target.mat", sha256_bytes(target), base),
    }
    atomic_write_bytes(base / "target.mat", target)
    write_json(base / "witness.json", manifest)
    return base / "witness.json"


def load_witness(directory: str | os.PathLike) -> WitnessInstance:
    """Rebuild a witness from its pinned plan and its ``rho`` and ``seed``, JSON
    integers that :class:`WitnessInstance` bounds. Every pinned file must hash to
    its pin, and the pinned target must encode to the bytes of the target the
    plan, rho and seed define, so an edited rho or seed is a :class:`FormatError`;
    a rho = 0 target is zero whatever the seed, so a seed edit there still loads.
    Recorded ranks and gaps are not read back."""
    base = Path(directory)
    what = f"witness manifest {base / 'witness.json'}"
    manifest = read_envelope((base / "witness.json").read_bytes(), WITNESS_FORMAT,
                             WITNESS_VERSION, what)
    rho, seed = field(manifest, "rho", int, what), field(manifest, "seed", int, what)
    with envelope_fields(what):
        plan = _decode_plan(*read_pinned(manifest, "plan", base, what))
        stored = read_pinned(manifest, "target", base, what)[1]
        witness = WitnessInstance(plan, rho, seed)
    if stored != encode_matrix(witness.target):
        raise FormatError(f"witness target in {base} does not match its plan, rho and seed")
    return witness
