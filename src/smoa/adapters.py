"""Trainable low-rank adapters over a frozen weight.

Two families share one parameter-budget axis and one representation:
read-only factor stacks ``a: (K, rho, s_in)`` and ``b: (K, s_out, rho)``.
A global adapter (LoRA style) is the one-block stack, a single pair
(A: r x d_in, B: d_out x r), and its update is B A. A block adapter (SMoA
style) holds K local pairs of rank rho = r / K over a
:class:`~smoa.preprocess.BlockPlan`; block k produces
(B_k A_k) entrywise-times anchor_k, the blocks sit on the diagonal in
reordered coordinates, and the inverse permutations carry the update
back. At equal nominal rank r the block family trains exactly K times
fewer parameters.

Updates enter additively, W0 + Delta, with no extra scaling factor.
Anchor entries that are exactly zero pin the corresponding update
entries to zero by construction; that is a property of the modulation,
not something the adapter works around.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Union

import numpy as np

from .errors import ConfigurationError, DimensionError, FormatError
from .fileutil import (atomic_write_bytes, envelope_fields, pin, read_envelope, read_pinned,
                       sha256_bytes, write_json)
from .gen import _check_seed, _check_shape
from .matio import _decode_stack, _encode_stack
from .matrices import Matrix, _frozen
from .preprocess import (BlockPlan, _block_rank, _check_rho, _check_split, _decode_plan,
                         _plan_pin, _scatter_blocks)

__all__ = [
    "LoraAdapter",
    "SmoaAdapter",
    "AdapterInit",
    "init_lora",
    "init_smoa",
    "lora_update",
    "smoa_update",
    "update",
    "apply_forward",
    "merge",
    "param_count",
    "save_adapter",
    "load_adapter",
]

ADAPTER_FORMAT = "SMOA-ADPT"
ADAPTER_VERSION = 4

Scheme = Literal["zero-update", "gaussian", "spectral"]


@dataclass(frozen=True, eq=False)
class LoraAdapter:
    """Global factor pair, the one-block stack: read-only ``a: (1, r, d_in)``
    and ``b: (1, d_out, r)``, so ``a[0]`` is A and ``b[0]`` is B, and the
    update is ``b[0] @ a[0]`` of shape d_out x d_in."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = _frozen(self.a, (1, None, None), "factor stack a")
        b = _frozen(self.b, (1, None, None), "factor stack b")
        if a.shape[1] != b.shape[2]:
            raise DimensionError(f"factor shapes {b.shape[1:]} @ {a.shape[1:]} do not chain")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def r(self) -> int:
        return self.a.shape[1]

    @property
    def d_in(self) -> int:
        return self.a.shape[2]

    @property
    def d_out(self) -> int:
        return self.b.shape[1]

    @property
    def trainable_parameters(self) -> int:
        return self.a.size + self.b.size


@dataclass(frozen=True, eq=False)
class SmoaAdapter:
    """K local factor pairs of rank 1 <= ``rho`` <= min(block_shape) over a plan.

    Read-only stacks ``a: (K, rho, d_in/K)`` and ``b: (K, d_out/K, rho)``
    hold the pairs: pair k is ``(a[k], b[k])``.
    """

    plan: BlockPlan
    rho: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.rho < 1:
            raise ConfigurationError(f"rho must be a positive integer, got {self.rho}")
        _check_rho(self.rho, self.plan.block_shape)
        k, (s_out, s_in) = self.plan.k, self.plan.block_shape
        object.__setattr__(self, "a", _frozen(self.a, (k, self.rho, s_in), "factor stack a"))
        object.__setattr__(self, "b", _frozen(self.b, (k, s_out, self.rho), "factor stack b"))

    @property
    def r(self) -> int:
        """Nominal rank budget, rho * K."""
        return self.rho * self.plan.k

    @property
    def trainable_parameters(self) -> int:
        return self.a.size + self.b.size


Adapter = Union[LoraAdapter, SmoaAdapter]


@dataclass(frozen=True)
class AdapterInit:
    """Initialization recipe: scheme, RNG seed, scale multiplier.

    ``zero-update`` draws A entries from N(0, (scale/sqrt(fan_in))^2)
    and zeroes B, so the initial update is exactly zero. ``gaussian``
    draws both factors that way. ``spectral`` is accepted only by the
    trainer, which builds factors from the fit target.
    """

    scheme: Scheme = "zero-update"
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scheme not in ("zero-update", "gaussian", "spectral"):
            raise ConfigurationError(f"unknown init scheme {self.scheme!r}")
        if not 0 < self.scale < np.inf:
            raise ConfigurationError(f"scale must be positive and finite, got {self.scale}")
        _check_seed(self.seed)


def _init_stacks(k: int, s_out: int, s_in: int, rho: int,
                 init: AdapterInit) -> tuple[np.ndarray, np.ndarray]:
    """Seeded factor stacks ``a: (K, rho, s_in)`` and ``b: (K, s_out, rho)``.

    One stream serves both families: block by block, A_k is drawn and then,
    under ``gaussian``, B_k; each entry is N(0, (scale/sqrt(fan_in))^2).
    ``zero-update`` draws only the A_k and leaves every B_k zero.
    """
    if init.scheme == "spectral":
        raise ConfigurationError("spectral init needs a fit target; use trainer.fit")
    _check_shape(k * rho, s_in + s_out)  # every A_k and B_k^T, side by side
    gaussian = init.scheme == "gaussian"
    width = rho * (s_in + s_out) if gaussian else rho * s_in  # row g: A_g's draws, then B_g's
    draws = np.random.default_rng(init.seed).standard_normal((k, width))
    a = draws[:, :rho * s_in].reshape(k, rho, s_in) * (init.scale / np.sqrt(s_in))
    if not gaussian:
        return a, np.zeros((k, s_out, rho))
    return a, draws[:, rho * s_in:].reshape(k, s_out, rho) * (init.scale / np.sqrt(rho))


def init_lora(d_out: int, d_in: int, r: int, init: AdapterInit) -> LoraAdapter:
    """Seeded LoRA factors, the one-block draw; ``zero-update`` gives b = 0 exactly."""
    _check_split(1, d_out, d_in)
    return LoraAdapter(*_init_stacks(1, d_out, d_in, _block_rank(1, r), init))


def init_smoa(plan: BlockPlan, r: int, init: AdapterInit) -> SmoaAdapter:
    """Seeded block factors at rho = r / K; K must divide r, and a rho above
    the smaller block side raises :class:`RangeError` before any draw."""
    rho = _block_rank(plan.k, r)
    _check_rho(rho, plan.block_shape)
    return SmoaAdapter(plan, rho, *_init_stacks(plan.k, *plan.block_shape, rho, init))


def lora_update(adapter: LoraAdapter) -> Matrix:
    """Global update ``B A``, the product of the one-block stacks' matrices."""
    return Matrix(adapter.b[0] @ adapter.a[0])


def _update_blocks(adapter: SmoaAdapter) -> np.ndarray:
    """The (K, s_out, s_in) stack of a block update's diagonal blocks in
    reordered coordinates, ``(b_k @ a_k) * anchor_k`` (entrywise), in one
    batched product."""
    return (adapter.b @ adapter.a) * adapter.plan.anchor_stack


def smoa_update(adapter: SmoaAdapter) -> Matrix:
    """Block update carried back to original coordinates.

    The diagonal blocks (:func:`_update_blocks`) scatter straight to their
    original coordinates; off-diagonal blocks are exactly zero.
    """
    plan = adapter.plan
    return Matrix(_scatter_blocks(_update_blocks(adapter), plan.p_out, plan.p_in))


def update(adapter: Adapter) -> Matrix:
    """Update of either adapter family."""
    if isinstance(adapter, LoraAdapter):
        return lora_update(adapter)
    return smoa_update(adapter)


def apply_forward(w0: Matrix, delta: Matrix, x: Matrix) -> Matrix:
    """``(w0 + delta) @ x`` for a batch ``x`` of shape d_in x n."""
    if w0.shape != delta.shape:
        raise DimensionError(f"update {delta.shape} does not match weight {w0.shape}")
    if x.rows != w0.cols:
        raise DimensionError(f"batch {x.shape} does not match weight {w0.shape}")
    return Matrix((w0.data + delta.data) @ x.data)


def merge(w0: Matrix, adapter: Adapter) -> Matrix:
    """Fold the adapter into the weight: ``w0 + update``."""
    delta = update(adapter)
    if delta.shape != w0.shape:
        raise DimensionError(f"update {delta.shape} does not match weight {w0.shape}")
    return Matrix(w0.data + delta.data)


def param_count(kind: str, d_in: int, d_out: int, r: int, k: int | None = None) -> int:
    """Trainable parameter count; exact integer arithmetic.

    ``lora``: r (d_in + d_out). ``smoa``: (r / K)(d_in + d_out), K times
    fewer at the same nominal rank; K must divide r, d_in, and d_out.
    """
    if kind == "lora":
        k = 1
    elif kind != "smoa":
        raise ConfigurationError(f"unknown adapter kind {kind!r}")
    elif k is None:
        raise ConfigurationError("smoa needs a positive block count k")
    _check_split(k, d_out, d_in)
    return _block_rank(k, r) * (d_in + d_out)


def save_adapter(adapter: Adapter, path: str | os.PathLike, *,
                 init: AdapterInit | None = None) -> list[Path]:
    """Write a SMOA-ADPT v4 envelope plus two factor files.

    The factor files sit next to the envelope: ``<stem>.a.mat`` holds the
    A stack and ``<stem>.b.mat`` the B stack, each one K-block stack file
    (see :mod:`smoa.matio`) written from ``adapter.a`` and ``adapter.b``, so
    a global adapter's hold its one-block stacks as two matrices. The
    envelope holds its format and version, the pins (see
    :mod:`smoa.fileutil`) of both stacks (``a``, ``b``) and of a block
    adapter's plan by its ``file`` (``plan``, null for a global adapter),
    and the ``init`` provenance: nothing the pinned files define. A block
    adapter whose plan has no file raises :class:`ConfigurationError` and
    writes nothing. Returns the written paths, envelope first.
    """
    target = Path(path)
    plan_pin = _plan_pin(adapter.plan, target.parent) if isinstance(adapter, SmoaAdapter) else None
    init = init or AdapterInit()
    written = [target, *(target.with_name(f"{target.stem}.{side}.mat") for side in "ab")]
    payloads = [_encode_stack(adapter.a), _encode_stack(adapter.b)]
    doc = {
        "format": ADAPTER_FORMAT,
        "version": ADAPTER_VERSION,
        "plan": plan_pin,
        **{side: pin(p, sha256_bytes(payload), target.parent)
           for side, p, payload in zip("ab", written[1:], payloads)},
        "init": {"scheme": init.scheme, "seed": init.seed, "scale": init.scale},
    }
    for factor_path, payload in zip(written[1:], payloads):
        atomic_write_bytes(factor_path, payload)
    write_json(target, doc)
    return written


def load_adapter(path: str | os.PathLike) -> Adapter:
    """Read a SMOA-ADPT v4 envelope and its two factor files.

    Every pinned file (both factor files, and a block adapter's plan) is
    read once and must hash to its recorded pin, else
    :class:`ConfigurationError` reports a stale pairing. The plan pin names
    the family: a plan makes a block adapter over its K blocks, and a null
    ``plan`` a global adapter, the K = 1 stack; a missing ``plan`` is a
    :class:`FormatError`. The adapter's constructor checks the factor shapes
    against each other and the plan, and rho against the block sides.
    """
    target = Path(path)
    what = f"adapter file {target}"
    doc = read_envelope(target.read_bytes(), ADAPTER_FORMAT, ADAPTER_VERSION, what)
    if "plan" not in doc:
        raise FormatError(f"{what} is missing field 'plan'")
    with envelope_fields(what):
        plan = None if doc["plan"] is None else _decode_plan(
            *read_pinned(doc, "plan", target.parent, what))
        a, b = (_decode_stack(*read_pinned(doc, side, target.parent, what)[:2],
                              1 if plan is None else plan.k) for side in "ab")
    if plan is None:
        return LoraAdapter(a, b)
    return SmoaAdapter(plan, a.shape[1], a, b)
