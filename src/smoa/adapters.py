"""Trainable low-rank adapters over a frozen weight.

Two families share one parameter-budget axis. A global adapter (LoRA
style) holds a single factor pair (A: r x d_in, B: d_out x r) and its
update is B A. A block adapter (SMoA style) holds K local pairs of rank
rho = r / K over a :class:`~smoa.preprocess.BlockPlan`; block k produces
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
from .fileutil import envelope_fields, field, read_envelope, sha256_file, write_json
from .gen import _check_seed
from .matio import load_matrix, save_matrix
from .matrices import Matrix, _frozen_stack
from .preprocess import BlockPlan, _scatter_blocks, load_plan

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
ADAPTER_VERSION = 1

Scheme = Literal["zero-update", "gaussian", "spectral"]


@dataclass(frozen=True)
class LoraAdapter:
    """Global factor pair; update is ``b @ a`` of shape d_out x d_in."""

    a: Matrix
    b: Matrix

    def __post_init__(self) -> None:
        if self.a.rows != self.b.cols:
            raise DimensionError(
                f"factor shapes {self.b.shape} @ {self.a.shape} do not chain"
            )

    @property
    def r(self) -> int:
        return self.a.rows

    @property
    def d_in(self) -> int:
        return self.a.cols

    @property
    def d_out(self) -> int:
        return self.b.rows

    @property
    def trainable_parameters(self) -> int:
        return self.a.rows * self.a.cols + self.b.rows * self.b.cols


@dataclass(frozen=True, eq=False)
class SmoaAdapter:
    """K local factor pairs of rank ``rho`` over a block plan.

    Read-only stacks ``a: (K, rho, d_in/K)`` and ``b: (K, d_out/K, rho)``
    hold the pairs; ``factors[k]`` views pair k as ``(a_k, b_k)`` matrices.
    """

    plan: BlockPlan
    rho: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.rho < 1:
            raise ConfigurationError(f"rho must be a positive integer, got {self.rho}")
        k, (s_out, s_in) = self.plan.k, self.plan.block_shape
        object.__setattr__(self, "a", _frozen_stack(self.a, (k, self.rho, s_in), "factor stack a"))
        object.__setattr__(self, "b", _frozen_stack(self.b, (k, s_out, self.rho), "factor stack b"))

    @property
    def factors(self) -> tuple[tuple[Matrix, Matrix], ...]:
        return tuple((Matrix(a), Matrix(b)) for a, b in zip(self.a, self.b))

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


def _draw(rng: np.random.Generator, rows: int, cols: int, scale: float) -> Matrix:
    return Matrix(rng.standard_normal((rows, cols)) * (scale / np.sqrt(cols)))


def init_lora(d_out: int, d_in: int, r: int, init: AdapterInit) -> LoraAdapter:
    """Seeded LoRA factors; ``zero-update`` gives b = 0 exactly."""
    if r < 1:
        raise ConfigurationError(f"r must be a positive integer, got {r}")
    if init.scheme == "spectral":
        raise ConfigurationError("spectral init needs a fit target; use trainer.fit")
    rng = np.random.default_rng(init.seed)
    a = _draw(rng, r, d_in, init.scale)
    if init.scheme == "zero-update":
        b = Matrix.zeros(d_out, r)
    else:
        b = _draw(rng, d_out, r, init.scale)
    return LoraAdapter(a, b)


def init_smoa(plan: BlockPlan, r: int, init: AdapterInit) -> SmoaAdapter:
    """Seeded block factors at rho = r / K; K must divide r."""
    if init.scheme == "spectral":
        raise ConfigurationError("spectral init needs a fit target; use trainer.fit")
    if r < 1 or r % plan.k:
        raise ConfigurationError(f"k={plan.k} must divide r={r}")
    rho = r // plan.k
    s_out, s_in = plan.block_shape
    if rho > min(s_out, s_in):
        raise ConfigurationError(
            f"rho={rho} exceeds block dimensions {s_out}x{s_in}"
        )
    rng = np.random.default_rng(init.seed)
    a, b = [], []
    for _ in range(plan.k):
        a.append(_draw(rng, rho, s_in, init.scale))
        if init.scheme == "gaussian":
            b.append(_draw(rng, s_out, rho, init.scale))
    return SmoaAdapter(plan, rho, a, b or np.zeros((plan.k, s_out, rho)))  # zero-update


def lora_update(adapter: LoraAdapter) -> Matrix:
    """Global update ``b @ a``."""
    return adapter.b @ adapter.a


def _factor_stacks(adapter: Adapter) -> tuple[np.ndarray, np.ndarray]:
    """Read-only factor stacks ``a: (K, rho, s_in)`` and ``b: (K, s_out, rho)``
    of either family; a global adapter is the K = 1 stack."""
    if isinstance(adapter, LoraAdapter):
        return adapter.a.data[np.newaxis], adapter.b.data[np.newaxis]
    return adapter.a, adapter.b


def smoa_update(adapter: SmoaAdapter) -> Matrix:
    """Block update carried back to original coordinates.

    Diagonal block k in reordered coordinates is
    ``(b_k @ a_k) * anchor_k`` (entrywise), computed for all blocks in
    one batched product; off-diagonal blocks are exactly zero, and the
    blocks scatter straight to their original coordinates.
    """
    plan = adapter.plan
    return Matrix(_scatter_blocks((adapter.b @ adapter.a) * plan.anchor_stack, plan.p_out, plan.p_in))


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
    if min(d_in, d_out, r) < 1:
        raise ConfigurationError(f"dimensions and rank must be positive, got "
                                 f"d_in={d_in}, d_out={d_out}, r={r}")
    if kind == "lora":
        return r * (d_in + d_out)
    if kind == "smoa":
        if k is None or k < 1:
            raise ConfigurationError("smoa needs a positive block count k")
        if r % k or d_in % k or d_out % k:
            raise ConfigurationError(
                f"k={k} must divide r={r}, d_in={d_in}, d_out={d_out}"
            )
        return (r // k) * (d_in + d_out)
    raise ConfigurationError(f"unknown adapter kind {kind!r}")


def _restated(adapter: Adapter) -> dict:
    """The envelope fields that an adapter's factors and plan define."""
    if isinstance(adapter, SmoaAdapter):
        plan = adapter.plan
        return {"kind": "smoa", "r": adapter.r, "k": plan.k, "rho": adapter.rho,
                "d_out": plan.d_out, "d_in": plan.d_in}
    return {"kind": "lora", "r": adapter.r, "k": None, "rho": None,
            "d_out": adapter.d_out, "d_in": adapter.d_in}


def save_adapter(
    adapter: Adapter,
    path: str | os.PathLike,
    *,
    init: AdapterInit | None = None,
    plan_path: str | os.PathLike | None = None,
) -> list[Path]:
    """Write a SMOA-ADPT v1 envelope plus one matrix file per factor.

    Factor files sit next to the envelope, named ``<stem>.fNN.mat`` in
    A-then-B order per block. ``plan_path`` (required for block adapters)
    is stored relative to the envelope with the plan file's content hash,
    taken before the first write; :func:`load_adapter` always checks a
    block adapter's hash.
    Returns the written paths, envelope first.
    """
    target = Path(path)
    if isinstance(adapter, SmoaAdapter) and plan_path is None:
        raise ConfigurationError("block adapters need a plan_path to serialize")
    plan_hash = None if plan_path is None else sha256_file(plan_path)
    plan_ref = None if plan_path is None else os.path.relpath(Path(plan_path), target.parent)
    factors = [Matrix(factor) for pair in zip(*_factor_stacks(adapter)) for factor in pair]
    factor_names = [f"{target.stem}.f{i:02d}.mat" for i in range(len(factors))]
    init = init or AdapterInit()
    doc = {
        "format": ADAPTER_FORMAT,
        "version": ADAPTER_VERSION,
        **_restated(adapter),
        "plan_path": plan_ref,
        "plan_hash": plan_hash,
        "factors": factor_names,
        "init": {"scheme": init.scheme, "seed": init.seed, "scale": init.scale},
        "seed": init.seed,
    }
    written = [target]
    for name, factor in zip(factor_names, factors):
        factor_path = target.parent / name
        save_matrix(factor, factor_path)
        written.append(factor_path)
    write_json(target, doc)
    # factor files a previous save under this name wrote beyond the new count
    stale = len(factors)
    while (orphan := target.parent / f"{target.stem}.f{stale:02d}.mat").exists():
        orphan.unlink()
        stale += 1
    return written


def load_adapter(path: str | os.PathLike) -> Adapter:
    """Read a SMOA-ADPT v1 envelope and its factor files.

    For block adapters the plan file's current hash must equal the recorded
    ``plan_hash``, else the stale pairing raises :class:`ConfigurationError`.
    The recorded kind, r, k, rho, d_out and d_in must be what the factors
    and plan define.
    """
    target = Path(path)
    what = f"adapter file {target}"
    doc = read_envelope(target, ADAPTER_FORMAT, ADAPTER_VERSION, what)
    with envelope_fields(what):
        factors = [load_matrix(target.parent / name)
                   for name in field(doc, "factors", list, what, str)]
        kind = field(doc, "kind", str, what)
        if kind == "lora":
            if len(factors) != 2:
                raise FormatError(f"lora envelope lists {len(factors)} factors, expected 2")
            adapter: Adapter = LoraAdapter(factors[0], factors[1])
        elif kind == "smoa":
            plan_file = target.parent / field(doc, "plan_path", str, what)
            recorded, current = field(doc, "plan_hash", str, what), sha256_file(plan_file)
            if current != recorded:
                raise ConfigurationError(
                    f"stale pairing: plan {plan_file} hash {current[:12]}... does not "
                    f"match adapter's recorded {recorded[:12]}..."
                )
            plan = load_plan(plan_file)
            if len(factors) != 2 * plan.k:
                raise FormatError(
                    f"smoa envelope lists {len(factors)} factors for k={plan.k}"
                )
            adapter = SmoaAdapter(plan, factors[0].rows, factors[0::2], factors[1::2])
        else:
            raise FormatError(f"unknown adapter kind {kind!r}")
    for key, value in _restated(adapter).items():
        if field(doc, key, type(value), what) != value:
            raise FormatError(f"{what} says {key}={doc[key]!r}, its factors give {value!r}")
    return adapter
