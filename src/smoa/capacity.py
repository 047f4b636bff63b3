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
bit for bit from the drawn factors L_k and R_k, while any rank-r fit
pays at least the Frobenius tail energy beyond r (the Eckart-Young bound).
``lora_gap`` evaluates that bound spectrally; no training is involved here.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .adapters import Adapter, SmoaAdapter, _update_blocks, lora_update
from .errors import ConfigurationError, FormatError
from .fileutil import (atomic_write_bytes, atomic_write_text, envelope_fields, field, json_text,
                       pin, read_envelope, read_json, read_pinned, sha256_bytes)
from .gen import _check_seed, _rng
from .matio import encode_matrix
from .matrices import Matrix
from .preprocess import (BlockPlan, _block_rank, _check_rho, _check_split, _decode_plan,
                         _plan_pin, _scatter_blocks)
from .spectrum import (
    _rank_from_values,
    _tail_from_values,
    _union_values,
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
    otherwise); every anchor's rank is measured at one cutoff, ``epsilon``,
    or when omitted the default tolerance of the block shape scaled by the
    largest singular value over all anchors.
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


def _update_spectrum(adapter: Adapter, delta: Matrix | None = None
                     ) -> tuple[np.ndarray, tuple[int, int]]:
    """Descending singular values and shape of an adapter's update. A block
    update is a permuted block diagonal, so its values are its K blocks'
    (:func:`~smoa.spectrum._union_values`); a global update is decomposed
    whole, as ``delta`` when the caller has already built it."""
    if isinstance(adapter, SmoaAdapter):
        plan = adapter.plan
        return _union_values(singular_values(_update_blocks(adapter))), (plan.d_out, plan.d_in)
    delta = lora_update(adapter) if delta is None else delta
    return singular_values(delta), delta.shape


def _update_rank(adapter: Adapter, epsilon: float | None = None,
                 delta: Matrix | None = None) -> int:
    """Numerical rank of an adapter's update, read off :func:`_update_spectrum`,
    whose values agree with those of ``update(adapter)`` up to roundoff."""
    return _rank_from_values(*_update_spectrum(adapter, delta), epsilon)[0]


@dataclass(frozen=True, eq=False)
class WitnessInstance:
    """A target the block family fits exactly at rank budget rho * K.

    A witness is its plan, ``rho`` and ``seed``. The factor stacks
    ``_factors`` are drawn once, on first use, and kept; all else is derived
    from them on each use. ``coefficient_stack``, the read-only (K, s_out,
    s_in) rank-rho C_k = L_k R_k, is their batched product, and the exact
    fit's factors are those stacks. The target is
    blkdiag(C_k * anchor_k) (entrywise) carried back through the plan's
    inverse permutations. Its singular values are those of the K blocks
    C_k * anchor_k, derived once in one batched call and kept;
    ``reordered_target_rank`` is their numerical rank.
    ``rho`` lies in 0..min(block_shape) and ``seed`` >= 0, else :class:`RangeError`.
    """

    plan: BlockPlan
    rho: int
    seed: int

    def __post_init__(self) -> None:
        _check_rho(self.rho, self.plan.block_shape)
        _check_seed(self.seed)

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The (K, s_out, rho) L and (K, rho, s_in) R stacks: read-only views
        of one (K, rho (s_out + s_in)) standard-normal draw from ``seed``, row
        k L_k then R_k, drawn on first use and kept."""
        k, (s_out, s_in), rho = self.plan.k, self.plan.block_shape, self.rho
        draws = _rng(self.seed).standard_normal((k, rho * (s_out + s_in)))
        draws.setflags(write=False)
        return draws[:, :s_out * rho].reshape(k, s_out, rho), draws[:, s_out * rho:].reshape(k, rho, s_in)

    @property
    def coefficient_stack(self) -> np.ndarray:
        left, right = self._factors
        stack = left @ right  # rho = 0 is the empty product: zeros
        stack.setflags(write=False)
        return stack

    @property
    def _blocks(self) -> np.ndarray:
        """The (K, s_out, s_in) stack of target blocks C_k * anchor_k."""
        return self.coefficient_stack * self.plan.anchor_stack

    @property
    def target(self) -> Matrix:
        return Matrix(_scatter_blocks(self._blocks, self.plan.p_out, self.plan.p_in))

    @cached_property
    def _values(self) -> np.ndarray:
        return _union_values(singular_values(self._blocks))

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
    """Block adapter reproducing the witness target bit for bit.

    Its factor pairs are the witness's own draws, a_k = R_k and b_k = L_k, so
    its update is the very batched product the target is built from and nothing
    is decomposed. A zero witness returns a rho = 1 adapter with zero factors.
    """
    left, right = witness._factors
    if witness.rho == 0:
        left, right = np.zeros(left.shape[:2] + (1,)), np.zeros((right.shape[0], 1, right.shape[2]))
    return SmoaAdapter(witness.plan, max(witness.rho, 1), a=right, b=left)


def _exact_fit_residual(witness: WitnessInstance) -> float:
    """Frobenius-squared distance from ``smoa_exact_fit(witness)``'s update to
    the target, exactly 0.0 by construction. Both scatter K blocks through the
    plan's permutations and are zero off them, so it is summed over the blocks."""
    residual = _update_blocks(smoa_exact_fit(witness)) - witness._blocks
    return float(np.sum(residual ** 2))


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
    off the witness's one batched decomposition of its K blocks. Nothing is
    written until the manifest is rendered, so a numerical failure (a
    non-finite gap among them) or a plan with no file
    (:class:`ConfigurationError`) leaves no partial bundle. The
    ``coefficients.mat`` that an older (v4) bundle's ``witness.json`` in
    ``directory`` pins is removed once the new bundle is written.
    """
    base = Path(directory)
    plan_pin = _plan_pin(witness.plan, base)
    superseded = _superseded_coefficients(base, Path(witness.plan.file[0]))
    values = witness._values
    target = encode_matrix(witness.target)
    manifest = json_text({
        "format": WITNESS_FORMAT,
        "version": WITNESS_VERSION,
        "seed": witness.seed,
        "rho": witness.rho,
        "reordered_target_rank": witness.reordered_target_rank,
        "gaps": {str(r): _tail_from_values(values, r) for r in range(1, values.size + 1)},
        "plan": plan_pin,
        "target": pin(base / "target.mat", sha256_bytes(target), base),
    }, f"witness manifest {base / 'witness.json'}", indent=1)
    atomic_write_bytes(base / "target.mat", target)
    atomic_write_text(base / "witness.json", manifest)
    if superseded is not None:
        superseded.unlink(missing_ok=True)
    return base / "witness.json"


def _superseded_coefficients(base: Path, keep: Path) -> Path | None:
    """``base / "coefficients.mat"`` when an older SMOA-WITNESS manifest in
    ``base`` (below version 5, which stores no coefficients) pins that file
    under its ``coefficients`` key and the file still hashes to the pin, and
    it is not ``keep``, the plan the new bundle pins; ``None`` otherwise,
    including when there is no readable manifest."""
    manifest = base / "witness.json"
    if not manifest.is_file():
        return None
    what = f"witness manifest {manifest}"
    try:
        old = read_json(manifest.read_bytes(), what)
        if (field(old, "format", str, what) != WITNESS_FORMAT
                or field(old, "version", int, what) >= WITNESS_VERSION):
            return None
        path = read_pinned(old, "coefficients", base, what)[0].resolve()
    except (OSError, FormatError, ConfigurationError):
        return None
    if path != (base / "coefficients.mat").resolve() or path == keep.resolve():
        return None
    return path


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
