"""Gradient descent on the matrix-approximation objective.

The objective is L(theta) = 0.5 * ||Delta(theta) - T||_F^2 where Delta
is the adapter update. Both families share one stacked core: factors
``a: (K, rho, s_in)`` and ``b: (K, s_out, rho)``, target blocks T and
anchors M as ``(K, s_out, s_in)`` arrays in reordered coordinates. The
batched residual is R = (B A) * M - T, the loss is a constant (the
off-diagonal-block energy, which block updates cannot touch) plus the
per-block sums 0.5 * ||R_k||^2, and the gradients are B^T (R * M) and
(R * M) A^T. The global family is the K = 1 case with no anchor.

Descent is full-batch with backtracking: a candidate that would
increase the loss is rejected and its step halved, so accepted steps
never increase the loss. The step size carries from one step to the
next (see ``fit``), and the accepted candidate's residual feeds the
next gradient.
Determinism comes from seeded initialization and a fixed
iteration order (block sums are added in block order); there is no
stochasticity in the updates.

A descent step allocates nothing. The objective owns its residual,
square and masked buffers and writes them in place, so the residual that
``_Objective.evaluate`` returns is valid only until the next
``evaluate``. ``fit`` holds three flat vectors, each an ``a`` stack then
a ``b`` stack: the iterate, the candidate and the gradient. A candidate
is written into its vector, and an accepted one swaps places with the
iterate. Returned adapters and gradients are copies, so no later call
changes them.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .adapters import Adapter, AdapterInit, LoraAdapter, SmoaAdapter, init_lora, init_smoa
from .errors import ConfigurationError, DimensionError, NumericalError
from .fileutil import atomic_write_text, csv_text, json_text
from .matrices import Matrix
from .preprocess import BlockPlan, _block_rank, _gather_blocks
from .spectrum import balanced_factors, tail_energy

__all__ = [
    "FitProblem",
    "FitConfig",
    "TraceStep",
    "FitTrace",
    "loss",
    "gradient",
    "fit",
    "finite_difference_check",
    "save_trace",
]


@dataclass(frozen=True)
class FitProblem:
    """One fitting task: approximate ``target`` with an adapter update.

    ``kind`` picks the family, ``r`` the nominal rank budget (for the
    block family rho = r / plan.k); ``plan`` is given exactly when kind
    is ``smoa``.
    """

    target: Matrix
    kind: Literal["lora", "smoa"]
    r: int
    plan: BlockPlan | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("lora", "smoa"):
            raise ConfigurationError(f"unknown adapter kind {self.kind!r}")
        if (self.plan is not None) != (self.kind == "smoa"):
            raise ConfigurationError("block (smoa) fits need a plan, global (lora) fits take none")
        if self.kind == "smoa" and self.target.shape != (self.plan.d_out, self.plan.d_in):
            raise DimensionError(
                f"target {self.target.shape} does not match plan {(self.plan.d_out, self.plan.d_in)}"
            )
        _block_rank(self.plan.k if self.kind == "smoa" else 1, self.r)


# an accepted step multiplies eta by this, up to the cap
_STEP_GROWTH = 1.5


@dataclass(frozen=True)
class FitConfig:
    """Descent hyperparameters; defaults match the reference runs.

    ``step_size`` is the first step's eta. ``max_halvings`` bounds eta on
    both sides: it never grows past ``step_size * 2**max_halvings``, and a
    step search that halves it below ``step_size * 2**-max_halvings``
    stalls. Both bounds must be positive and finite floats.
    """

    step_size: float = 1e-2
    max_steps: int = 50000
    grad_tol: float = 1e-9
    max_halvings: int = 10

    def __post_init__(self) -> None:
        finite = 0 < self.step_size < math.inf and 0 <= self.grad_tol < math.inf
        if not finite or self.max_steps < 0 or self.max_halvings < 0:
            raise ConfigurationError(f"invalid fit configuration {self}")
        _step_bounds(self)


def _step_bounds(config: FitConfig) -> tuple[float, float]:
    """``(step_size * 2**-max_halvings, step_size * 2**max_halvings)``."""
    try:
        low = math.ldexp(config.step_size, -config.max_halvings)
        high = math.ldexp(config.step_size, config.max_halvings)
    except OverflowError:
        low = high = math.inf
    if not (0 < low and high < math.inf):
        raise ConfigurationError(
            f"step_size * 2**(+-max_halvings) leaves the float range in {config}"
        )
    return low, high


class TraceStep(NamedTuple):
    """One point of the descent path: ``step_size`` is the eta that
    reached it and ``halvings`` the candidates rejected before; step 0,
    the start, records ``config.step_size`` and 0."""

    step: int
    loss: float
    grad_norm: float
    step_size: float
    halvings: int


@dataclass(frozen=True)
class FitTrace:
    """Recorded descent path plus the final adapter.

    ``floor`` carries the spectral lower bound 0.5 * tail_energy(T, r)
    for global fits (None for block fits); accepted losses are
    monotonically nonincreasing and never drop below the floor.
    ``stop_reason`` is ``grad_tol``, ``max_steps`` (budget spent) or
    ``stalled`` (no halving of the step lowered the loss).
    """

    steps: tuple[TraceStep, ...]
    adapter: Adapter
    floor: float | None
    target_norm_sq: float
    init: AdapterInit
    config: FitConfig
    stop_reason: Literal["grad_tol", "max_steps", "stalled"]

    @property
    def converged(self) -> bool:
        return self.stop_reason == "grad_tol"

    @property
    def final_loss(self) -> float:
        return self.steps[-1].loss

    @property
    def step_count(self) -> int:
        return self.steps[-1].step

    @property
    def relative_loss(self) -> float:
        """Final loss over ||T||_F^2; 0.0 for an exactly zero target."""
        if self.target_norm_sq == 0.0:
            return 0.0
        return self.final_loss / self.target_norm_sq


class _Objective:
    """Stacked evaluation core shared by loss, gradients, and descent.

    ``t`` holds the K target blocks T and ``m`` the K anchors M, both
    ``(K, s_out, s_in)``; the global family has K = 1 and no anchors.
    The objective owns its residual, square and masked buffers and fills
    them in place, so an evaluation allocates nothing.
    """

    def __init__(self, problem: FitProblem):
        if problem.kind == "lora":
            self.t = problem.target.data[np.newaxis]
            self.m = None
        else:
            plan = problem.plan
            self.t = _gather_blocks(problem.target.data, plan.k, plan.p_out, plan.p_in)
            self.m = plan.anchor_stack
            self._masked = np.empty_like(self.t)
        self._residual = np.empty_like(self.t)
        self._square = np.empty_like(self.t)
        self._square_rows = self._square.reshape(len(self.t), -1)
        self._sums = np.empty(len(self.t))
        self.constant = 0.0
        if self.m is not None:
            in_block = 0.0
            for energy in self._block_sums(self.t):
                in_block += energy
            reordered = problem.target.data[np.ix_(plan.p_out.indices, plan.p_in.indices)]
            # off-diagonal-block energy is constant under block updates
            self.constant = 0.5 * max(float(np.sum(reordered**2)) - in_block, 0.0)

    def _block_sums(self, x: np.ndarray) -> list[float]:
        """Sum of squares of each block of ``x``; each block is reduced on
        its own, in the order ``np.sum`` uses on that block alone."""
        np.multiply(x, x, self._square)
        return np.add.reduce(self._square_rows, 1, None, self._sums).tolist()

    def evaluate(self, a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and residual ``R = (B A) * M - T`` at the stacked factors.

        The residual is the objective's own buffer: it stays valid until
        the next ``evaluate``, which overwrites it.
        """
        residual = np.matmul(b, a, self._residual)
        if self.m is not None:
            np.multiply(residual, self.m, residual)
        np.subtract(residual, self.t, residual)
        value = self.constant
        for energy in self._block_sums(residual):
            value += 0.5 * energy
        return value, residual

    def gradients(self, a: np.ndarray, b: np.ndarray, residual: np.ndarray,
                  da: np.ndarray, db: np.ndarray) -> None:
        """Write the ``dA`` and ``dB`` stacks into ``da`` and ``db``, from
        the residual that ``evaluate`` gave at (a, b)."""
        masked = residual if self.m is None else np.multiply(residual, self.m, self._masked)
        np.matmul(b.transpose(0, 2, 1), masked, da)
        np.matmul(masked, a.transpose(0, 2, 1), db)


def _flat_views(vector: np.ndarray, a_shape: tuple[int, ...], b_shape: tuple[int, ...]):
    """``(vector, a, b, a_rows, b_rows)``: a flat vector that holds an ``a``
    stack then a ``b`` stack, those stacks, and each stack as one row per
    block. Every view shares ``vector``'s memory."""
    head, tail = np.split(vector, [math.prod(a_shape)])
    k = a_shape[0]
    return vector, head.reshape(a_shape), tail.reshape(b_shape), head.reshape(k, -1), tail.reshape(k, -1)


def _check_adapter(problem: FitProblem, adapter: Adapter) -> None:
    if not isinstance(adapter, LoraAdapter if problem.kind == "lora" else SmoaAdapter):
        raise ConfigurationError(f"problem kind is {problem.kind} but adapter is not")
    if isinstance(adapter, LoraAdapter):
        if (adapter.d_out, adapter.d_in) != problem.target.shape:
            raise DimensionError(
                f"adapter {(adapter.d_out, adapter.d_in)} does not match "
                f"target {problem.target.shape}"
            )
    elif (adapter.plan.k, adapter.plan.p_out, adapter.plan.p_in) != (
        problem.plan.k, problem.plan.p_out, problem.plan.p_in
    ) or not np.array_equal(adapter.plan.anchor_stack, problem.plan.anchor_stack):
        raise ConfigurationError("adapter was built over a different plan")


def loss(problem: FitProblem, adapter: Adapter) -> float:
    """Objective value 0.5 * ||Delta - T||_F^2 for this adapter."""
    _check_adapter(problem, adapter)
    with np.errstate(over="ignore", invalid="ignore"):
        return _Objective(problem).evaluate(adapter.a, adapter.b)[0]


def gradient(problem: FitProblem, adapter: Adapter) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients as fresh read-only stacks shaped as the factor
    stacks, ``dA: (K, rho, s_in)`` and ``dB: (K, s_out, rho)``, K = 1 globally.

    Global family: dA = B^T R, dB = R A^T with R = B A - T. Block
    family: dA_k = B_k^T (R_k * M_k), dB_k = (R_k * M_k) A_k^T with
    R_k = (B_k A_k) * M_k - T_k, products entrywise against anchors.
    """
    _check_adapter(problem, adapter)
    objective = _Objective(problem)
    a, b = adapter.a, adapter.b
    da, db = np.empty_like(a), np.empty_like(b)
    objective.gradients(a, b, objective.evaluate(a, b)[1], da, db)
    da.setflags(write=False)
    db.setflags(write=False)
    return da, db


def _initial_factors(problem: FitProblem, init: AdapterInit) -> tuple[np.ndarray, np.ndarray]:
    if init.scheme == "spectral":
        if problem.kind != "lora":
            raise ConfigurationError("spectral init applies to lora fits only")
        m = min(problem.target.shape)
        if problem.r > m:
            raise ConfigurationError(f"spectral init needs r <= {m}, got {problem.r}")
        factors = balanced_factors(problem.target, problem.r)
        adapter: Adapter = LoraAdapter(*(factor[np.newaxis] for factor in factors))
    elif problem.kind == "lora":
        adapter = init_lora(problem.target.rows, problem.target.cols, problem.r, init)
    else:
        adapter = init_smoa(problem.plan, problem.r, init)
    return adapter.a, adapter.b


def fit(problem: FitProblem, init: AdapterInit, config: FitConfig = FitConfig()) -> FitTrace:
    """Run backtracking gradient descent from a seeded initialization.

    eta starts at ``config.step_size``, halves after each rejected
    candidate and grows 1.5-fold after each accepted step, never past
    ``step_size * 2**max_halvings``. The first step thus tries exactly
    the candidates of a fixed-step search, and a step tries at most
    ``2 * max_halvings + 1``. Stops when the gradient norm falls
    below ``grad_tol``, when ``max_steps`` is exhausted, or when no eta
    down to ``step_size * 2**-max_halvings`` lowers the loss;
    ``FitTrace.stop_reason`` records which. Raises
    :class:`NumericalError` with the step index if the loss or the gradient
    norm leaves the finite range, step 0 when the starting loss is already
    not finite.
    """
    a, b = _initial_factors(problem, init)
    shapes = a.shape, b.shape
    # three flat vectors, each an a stack then a b stack: the iterate, the
    # candidate (swapped with the iterate when accepted) and the gradient
    iterate = _flat_views(np.concatenate((a, b), axis=None), *shapes)
    candidate = _flat_views(np.empty_like(iterate[0]), *shapes)
    g, da, db, _, _ = _flat_views(np.empty_like(iterate[0]), *shapes)
    sums_a, sums_b = np.empty(len(a)), np.empty(len(a))
    eta_min, eta_max = _step_bounds(config)
    eta = taken = config.step_size
    stop_reason = "grad_tol"
    step = halvings = 0
    steps = []
    # the target's energy or a candidate step may overflow; non-finite
    # losses are detected, so the warning is suppressed rather than surfaced
    with np.errstate(over="ignore", invalid="ignore"):
        objective = _Objective(problem)
        current_loss, residual = objective.evaluate(a, b)
        if not math.isfinite(current_loss):
            raise NumericalError("loss is non-finite at step 0, the starting point")
        while True:
            x, a, b, _, _ = iterate
            y, candidate_a, candidate_b, square_a, square_b = candidate
            objective.gradients(a, b, residual, da, db)
            # the candidate vector is free until the next step search, so
            # it holds the squared gradient; blocks add in block order
            np.multiply(g, g, y)
            np.add.reduce(square_a, 1, None, sums_a)
            np.add.reduce(square_b, 1, None, sums_b)
            gnorm = math.sqrt(sum(np.add(sums_a, sums_b, sums_a).tolist()))
            if not math.isfinite(gnorm):
                raise NumericalError(f"gradient norm is non-finite at step {step}")
            steps.append(TraceStep(step, current_loss, gnorm, taken, halvings))
            if gnorm < config.grad_tol:
                break
            if step == config.max_steps:
                stop_reason = "max_steps"
                break
            halvings = 0
            while eta >= eta_min:
                np.subtract(x, np.multiply(g, eta, y), y)
                candidate_loss, residual = objective.evaluate(candidate_a, candidate_b)
                if math.isfinite(candidate_loss) and candidate_loss <= current_loss:
                    break
                eta /= 2
                halvings += 1
            else:
                if not math.isfinite(candidate_loss):
                    raise NumericalError(f"loss diverged to non-finite at step {step + 1}")
                stop_reason = "stalled"
                break
            iterate, candidate, current_loss = candidate, iterate, candidate_loss
            step += 1
            taken, eta = eta, min(_STEP_GROWTH * eta, eta_max)
    if problem.kind == "lora":
        floor = 0.5 * tail_energy(problem.target, min(problem.r, min(problem.target.shape)))
        adapter: Adapter = LoraAdapter(a, b)
    else:
        floor, adapter = None, SmoaAdapter(problem.plan, a.shape[1], a, b)
    return FitTrace(
        steps=tuple(steps),
        adapter=adapter,
        floor=floor,
        target_norm_sq=float(np.sum(problem.target.data**2)),
        init=init,
        config=config,
        stop_reason=stop_reason,
    )


def finite_difference_check(problem: FitProblem, adapter: Adapter, step: float = 1e-6) -> float:
    """Max relative disagreement between analytic and central differences.

    Perturbs every trainable entry by +-``step`` (positive and finite) and
    compares the analytic gradient against (L+ - L-) / (2 step), normalizing
    by max(|analytic|, |numeric|, 1e-12); a non-finite difference raises NumericalError.
    """
    if not 0 < step < np.inf:
        raise ConfigurationError(f"step must be positive and finite, got {step}")
    _check_adapter(problem, adapter)
    objective = _Objective(problem)
    a, b = adapter.a.copy(), adapter.b.copy()
    analytic = np.empty_like(a), np.empty_like(b)
    objective.gradients(a, b, objective.evaluate(a, b)[1], *analytic)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for name, factor, grad in zip("ab", (a, b), analytic):
            for entry in np.ndindex(factor.shape):
                original = factor[entry]
                factor[entry] = original + step
                plus = objective.evaluate(a, b)[0]
                factor[entry] = original - step
                minus = objective.evaluate(a, b)[0]
                factor[entry] = original
                numeric = (plus - minus) / (2 * step)
                if not np.isfinite(numeric):
                    raise NumericalError(f"non-finite central difference at {name}{list(entry)}")
                scale = max(abs(grad[entry]), abs(numeric), 1e-12)
                worst = max(worst, abs(grad[entry] - numeric) / scale)
    return worst


def save_trace(trace: FitTrace, csv_path: str | os.PathLike, summary_path: str | os.PathLike) -> None:
    """Write the per-step CSV and the JSON summary for one fit. Both are
    rendered before either is written, so a failure writes neither."""
    table = csv_text([["step", "loss", "grad_norm", "step_size", "halvings"],
                      *([entry.step, entry.loss, entry.grad_norm, entry.step_size, entry.halvings]
                        for entry in trace.steps)], f"CSV file {csv_path}")
    summary = {
        "final_loss": trace.final_loss,
        "relative_loss": trace.relative_loss,
        "floor": trace.floor,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "steps": trace.step_count,
        "halvings": sum(entry.halvings for entry in trace.steps),
        "seed": trace.init.seed,
        "config": {
            "step_size": trace.config.step_size,
            "max_steps": trace.config.max_steps,
            "grad_tol": trace.config.grad_tol,
            "max_halvings": trace.config.max_halvings,
            "init_scheme": trace.init.scheme,
            "init_scale": trace.init.scale,
        },
    }
    summary_text = json_text(summary, f"JSON file {summary_path}", indent=1)
    atomic_write_text(csv_path, table)
    atomic_write_text(summary_path, summary_text)
