"""Descent on the approximation objective: gradients, floors, traces."""
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import smoa.trainer
from smoa import (
    AdapterInit,
    ConfigurationError,
    DimensionError,
    FitConfig,
    FitProblem,
    Matrix,
    NumericalError,
    TraceStep,
    apply_permutations,
    build_plan,
    finite_difference_check,
    fit,
    gaussian_matrix,
    gradient,
    init_lora,
    init_smoa,
    loss,
    lora_update,
    make_witness,
    save_trace,
    smoa_update,
    svd,
    tail_energy,
)

from conftest import random_matrix


class TestProblemValidation:
    def test_smoa_needs_plan(self, rng):
        with pytest.raises(ConfigurationError):
            FitProblem(random_matrix(rng, 4, 4), "smoa", 2)

    def test_smoa_plan_shape_must_match(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        with pytest.raises(DimensionError):
            FitProblem(random_matrix(rng, 6, 6), "smoa", 2, plan)

    def test_k_divides_r(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        with pytest.raises(ConfigurationError):
            FitProblem(random_matrix(rng, 4, 4), "smoa", 3, plan)

    def test_unknown_kind(self, rng):
        with pytest.raises(ConfigurationError):
            FitProblem(random_matrix(rng, 4, 4), "prefix", 2)

    def test_lora_takes_no_plan(self, rng):
        """A plan is given exactly when the kind is smoa."""
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        with pytest.raises(ConfigurationError, match="global .* take none"):
            FitProblem(random_matrix(rng, 4, 4), "lora", 2, plan)

    def test_config_guards(self):
        with pytest.raises(ConfigurationError):
            FitConfig(step_size=0.0)
        with pytest.raises(ConfigurationError):
            FitConfig(grad_tol=-1.0)

    @pytest.mark.parametrize("step_size,max_halvings", [(1e306, 10), (1.0, 1100), (5e-324, 1)])
    def test_step_bounds_must_be_floats(self, step_size, max_halvings):
        """eta lives in step_size * 2**[-max_halvings, max_halvings]; a
        range that overflows or underflows cannot bound the search."""
        with pytest.raises(ConfigurationError):
            FitConfig(step_size=step_size, max_halvings=max_halvings)


class TestLossAndGradient:
    def test_lora_loss_is_half_squared_residual(self, rng):
        target = random_matrix(rng, 5, 4)
        problem = FitProblem(target, "lora", 2)
        adapter = init_lora(5, 4, 2, AdapterInit("gaussian", seed=2))
        residual = lora_update(adapter) - target
        assert loss(problem, adapter) == pytest.approx(0.5 * residual.norm() ** 2, rel=1e-12)

    def test_smoa_loss_counts_off_block_energy(self, rng):
        """The update cannot touch off-diagonal blocks, so even a perfect
        block fit keeps that energy in the loss."""
        w = random_matrix(rng, 6, 6)
        plan = build_plan(w, 3)
        problem = FitProblem(w, "smoa", 3, plan)
        adapter = init_smoa(plan, 3, AdapterInit("gaussian", seed=5))
        residual = smoa_update(adapter) - w
        assert loss(problem, adapter) == pytest.approx(0.5 * residual.norm() ** 2, rel=1e-12)

    def test_zero_update_loss_is_half_target_energy(self, rng):
        target = random_matrix(rng, 4, 4)
        problem = FitProblem(target, "lora", 2)
        adapter = init_lora(4, 4, 2, AdapterInit("zero-update", seed=3))
        assert loss(problem, adapter) == pytest.approx(0.5 * target.norm() ** 2, rel=1e-12)

    def test_lora_gradient_closed_form(self, rng):
        target = random_matrix(rng, 5, 6)
        problem = FitProblem(target, "lora", 3)
        adapter = init_lora(5, 6, 3, AdapterInit("gaussian", seed=9))
        da, db = gradient(problem, adapter)
        assert (da.shape, db.shape) == ((1, 3, 6), (1, 5, 3))
        assert not (da.flags.writeable or db.flags.writeable)
        residual = adapter.b[0] @ adapter.a[0] - target.data
        assert_allclose(da[0], adapter.b[0].T @ residual, rtol=1e-12)
        assert_allclose(db[0], residual @ adapter.a[0].T, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["lora", "smoa"])
    def test_gradient_has_the_factor_stack_shapes(self, rng, kind):
        """Either family's gradient stacks have exactly its factor stacks' shapes."""
        w = random_matrix(rng, 8, 12)
        init = AdapterInit("gaussian", seed=6)
        if kind == "lora":
            problem, adapter = FitProblem(w, "lora", 4), init_lora(8, 12, 4, init)
        else:
            plan = build_plan(w, 2)
            problem, adapter = FitProblem(w, "smoa", 4, plan), init_smoa(plan, 4, init)
        da, db = gradient(problem, adapter)
        assert (da.shape, db.shape) == (adapter.a.shape, adapter.b.shape)

    def test_gradient_matches_finite_differences_lora(self, rng):
        problem = FitProblem(random_matrix(rng, 6, 5), "lora", 2)
        adapter = init_lora(6, 5, 2, AdapterInit("gaussian", seed=11))
        assert finite_difference_check(problem, adapter) < 1e-5

    def test_gradient_matches_finite_differences_smoa(self, rng):
        w = random_matrix(rng, 6, 6)
        plan = build_plan(w, 2)
        problem = FitProblem(w, "smoa", 4, plan)
        adapter = init_smoa(plan, 4, AdapterInit("gaussian", seed=13))
        assert finite_difference_check(problem, adapter) < 1e-5

    def test_gradient_zero_at_exact_fit(self, rng):
        """At a perfectly fitted witness the analytic gradient vanishes."""
        from smoa import smoa_exact_fit

        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=17)
        problem = FitProblem(witness.target, "smoa", 4, plan)
        adapter = smoa_exact_fit(witness)
        da, db = gradient(problem, adapter)
        assert (da.shape, db.shape) == (adapter.a.shape, adapter.b.shape)
        total = float(np.sum(da**2) + np.sum(db**2))
        assert total < 1e-18 * witness.target.norm() ** 2

    def test_adapter_kind_mismatch(self, rng):
        problem = FitProblem(random_matrix(rng, 4, 4), "lora", 2)
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        block = init_smoa(plan, 2, AdapterInit("gaussian"))
        with pytest.raises(ConfigurationError):
            loss(problem, block)

    def test_adapter_from_different_plan(self, rng):
        w = random_matrix(rng, 4, 4)
        plan = build_plan(w, 2)
        other = build_plan(random_matrix(rng, 4, 4), 2)
        problem = FitProblem(w, "smoa", 2, plan)
        adapter = init_smoa(other, 2, AdapterInit("gaussian"))
        if other.p_out == plan.p_out and other.p_in == plan.p_in:
            pytest.skip("random plans coincided")
        with pytest.raises(ConfigurationError):
            loss(problem, adapter)

    @pytest.mark.parametrize("call", [loss, gradient, finite_difference_check],
                             ids=["loss", "gradient", "finite-difference"])
    def test_adapter_over_other_anchors_is_a_different_plan(self, call):
        """Scaling a weight keeps its permutations but doubles its anchors, so
        an adapter over the scaled plan does not fit the unscaled problem."""
        w0 = gaussian_matrix(8, 8, seed=1)
        plan, scaled = build_plan(w0, 2), build_plan(w0 * 2.0, 2)
        assert (scaled.p_out, scaled.p_in) == (plan.p_out, plan.p_in)
        problem = FitProblem(make_witness(plan, 2, 0).target, "smoa", 4, plan)
        adapter = init_smoa(scaled, 4, AdapterInit("gaussian", seed=0))
        with pytest.raises(ConfigurationError, match="different plan"):
            call(problem, adapter)

    def test_lora_adapter_shape_mismatch(self, rng):
        problem = FitProblem(random_matrix(rng, 4, 6), "lora", 2)
        with pytest.raises(DimensionError, match=r"adapter \(6, 4\) does not match target"):
            loss(problem, init_lora(6, 4, 2, AdapterInit("gaussian")))


class TestFit:
    def test_accepted_losses_never_increase(self, rng):
        target = random_matrix(rng, 6, 6)
        problem = FitProblem(target, "lora", 2)
        trace = fit(problem, AdapterInit("gaussian", seed=21), FitConfig(max_steps=200))
        losses = [s.loss for s in trace.steps]
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_lora_floor_holds_and_is_approached(self, rng):
        """Descent cannot beat the spectral floor and from spectral init
        it sits on it from step zero."""
        target = random_matrix(rng, 8, 8)
        problem = FitProblem(target, "lora", 3)
        trace = fit(problem, AdapterInit("spectral"), FitConfig(max_steps=100))
        assert trace.floor == pytest.approx(0.5 * tail_energy(target, 3), rel=1e-12)
        assert trace.final_loss >= trace.floor - 1e-9
        assert trace.final_loss == pytest.approx(trace.floor, rel=1e-6)

    def test_spectral_init_is_stationary(self, rng):
        target = random_matrix(rng, 6, 6)
        problem = FitProblem(target, "lora", 2)
        trace = fit(problem, AdapterInit("spectral"), FitConfig(max_steps=50))
        assert trace.step_count <= 1
        assert trace.steps[0].loss == pytest.approx(trace.floor, rel=1e-9)

    def test_witness_fit_reaches_exactness(self, rng):
        """Block descent drives the witness loss to numerical zero."""
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=31)
        problem = FitProblem(witness.target, "smoa", 4, plan)
        trace = fit(problem, AdapterInit("zero-update", seed=31),
                    FitConfig(step_size=2e-2, max_steps=30000, grad_tol=1e-12))
        assert trace.relative_loss < 1e-6

    def test_lora_on_witness_stalls_at_gap(self, rng):
        """Global descent on the same witness bottoms out at the
        spectral gap, not at zero."""
        from smoa import lora_gap

        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=37)
        problem = FitProblem(witness.target, "lora", 4)
        trace = fit(problem, AdapterInit("spectral"), FitConfig(max_steps=2000))
        assert trace.final_loss >= 0.5 * lora_gap(witness, 4) - 1e-9
        assert trace.final_loss == pytest.approx(0.5 * lora_gap(witness, 4), rel=1e-6)

    def test_zero_target_smoa(self, rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        problem = FitProblem(Matrix.zeros(4, 4), "smoa", 2, plan)
        trace = fit(problem, AdapterInit("zero-update", seed=1), FitConfig(max_steps=100))
        assert trace.relative_loss == 0.0
        assert trace.converged

    def test_trace_records_step_zero(self, rng):
        problem = FitProblem(random_matrix(rng, 4, 4), "lora", 2)
        trace = fit(problem, AdapterInit("gaussian", seed=2), FitConfig(max_steps=0))
        assert trace.steps[0].step == 0
        assert len(trace.steps) == 1
        assert not trace.converged

    def test_divergent_step_raises_numerical_error(self, rng):
        target = random_matrix(rng, 4, 4)
        problem = FitProblem(target, "lora", 2)
        # large enough that the candidate loss overflows to inf and no
        # halvings remain to rescue it
        config = FitConfig(step_size=1e160, max_steps=10, max_halvings=0)
        with pytest.raises(NumericalError, match="step"):
            fit(problem, AdapterInit("gaussian", seed=3), config)

    @pytest.mark.parametrize("kind", ["smoa", "lora"])
    def test_non_finite_start_is_step_zero(self, rng, kind):
        """A target whose energy overflows makes the starting loss infinite;
        that is step 0, and the overflow raises no numpy warning."""
        target = Matrix(random_matrix(rng, 8, 8).data * 1e200)
        plan = build_plan(target, 2) if kind == "smoa" else None
        problem = FitProblem(target, kind, 2, plan)
        with pytest.raises(NumericalError, match="at step 0"):
            fit(problem, AdapterInit("gaussian", seed=3), FitConfig(max_steps=5))

    def test_non_finite_gradient_norm_names_its_step(self, rng):
        """A finite starting loss whose gradient norm overflows (1e150 target
        entries against 1e10 anchors) is refused at step 0, where it arises."""
        plan = build_plan(Matrix(random_matrix(rng, 16, 16).data * 1e10), 2)
        problem = FitProblem(Matrix(random_matrix(rng, 16, 16).data * 1e150), "smoa", 4, plan)
        with pytest.raises(NumericalError, match="gradient norm is non-finite at step 0"):
            fit(problem, AdapterInit("gaussian", seed=3), FitConfig(max_steps=0))

    def test_halvings_rescue_oversized_steps(self, rng):
        """With backtracking enabled the same oversized step is halved
        into an accepted one instead of diverging."""
        target = random_matrix(rng, 4, 4)
        problem = FitProblem(target, "lora", 2)
        config = FitConfig(step_size=1.0, max_steps=200, max_halvings=10)
        trace = fit(problem, AdapterInit("gaussian", seed=3), config)
        losses = [s.loss for s in trace.steps]
        assert all(a >= b for a, b in zip(losses, losses[1:]))
        assert trace.final_loss < losses[0]

    def test_deterministic_given_seed(self, rng):
        target = random_matrix(rng, 5, 5)
        problem = FitProblem(target, "lora", 2)
        first = fit(problem, AdapterInit("gaussian", seed=8), FitConfig(max_steps=50))
        second = fit(problem, AdapterInit("gaussian", seed=8), FitConfig(max_steps=50))
        assert first.final_loss == second.final_loss
        assert np.array_equal(first.adapter.a, second.adapter.a)

    def test_spectral_init_rejected_for_smoa(self, rng):
        w = random_matrix(rng, 4, 4)
        plan = build_plan(w, 2)
        problem = FitProblem(w, "smoa", 2, plan)
        with pytest.raises(ConfigurationError):
            fit(problem, AdapterInit("spectral"), FitConfig(max_steps=1))

    def test_spectral_init_needs_r_within_m(self, rng):
        problem = FitProblem(random_matrix(rng, 4, 4), "lora", 6)
        with pytest.raises(ConfigurationError):
            fit(problem, AdapterInit("spectral"), FitConfig(max_steps=1))

    def test_smoa_floor_is_none(self, rng):
        w = random_matrix(rng, 4, 4)
        plan = build_plan(w, 2)
        trace = fit(FitProblem(w, "smoa", 2, plan), AdapterInit("zero-update"), FitConfig(max_steps=5))
        assert trace.floor is None


def _count_evaluations(monkeypatch, budget):
    """Spy on the objective: returns the list of candidate losses
    evaluated, and fails once more than ``budget`` are asked for, so a
    search that never ends fails instead of hanging."""
    losses = []
    real = smoa.trainer._Objective.evaluate

    def spy(self, a, b):
        value, residual = real(self, a, b)
        losses.append(value)
        assert len(losses) <= budget, "step search exceeded its candidate budget"
        return value, residual

    monkeypatch.setattr(smoa.trainer._Objective, "evaluate", spy)
    return losses


class TestStepSize:
    """eta carries between steps within step_size * 2**[-max_halvings, max_halvings]."""

    def test_zero_gradient_fit_ends(self, monkeypatch):
        """Every step of a zero-gradient fit is accepted, so eta grows at
        each one; the cap keeps it finite and the fit ends at max_steps."""
        config = FitConfig(max_steps=5000, grad_tol=0.0)
        problem = FitProblem(Matrix.zeros(6, 6), "lora", 2)
        budget = 1 + config.max_steps * (2 * config.max_halvings + 1)
        losses = _count_evaluations(monkeypatch, budget)
        start = time.perf_counter()
        trace = fit(problem, AdapterInit("zero-update", seed=1), config)
        assert time.perf_counter() - start < 10
        assert trace.stop_reason == "max_steps"
        assert trace.step_count == 5000
        low = config.step_size * 2.0**-config.max_halvings
        high = config.step_size * 2.0**config.max_halvings
        assert all(low <= s.step_size <= high for s in trace.steps)
        assert trace.steps[-1].step_size == high
        assert len(losses) == 1 + config.max_steps

    def test_stall_searches_down_to_the_floor(self, monkeypatch):
        """After eta grew to its cap, a stalled search still halves it
        below 2 * step_size * 2**-max_halvings before giving up."""
        target = Matrix(np.random.default_rng(4).standard_normal((2, 2)) * 10)
        config = FitConfig(step_size=0.1, max_steps=2000, grad_tol=0.0, max_halvings=1)
        losses = _count_evaluations(monkeypatch, 1 + config.max_steps * 3)
        trace = fit(FitProblem(target, "lora", 1), AdapterInit("gaussian", seed=4, scale=0.1),
                    config)
        assert trace.stop_reason == "stalled"
        last = trace.steps[-1]
        assert last.step_size >= 2 * config.step_size
        accepted = sum(s.halvings + 1 for s in trace.steps[1:])
        tried = len(losses) - 1 - accepted
        assert all(not value <= last.loss for value in losses[-tried:])
        eta_min = config.step_size * 2.0**-config.max_halvings
        first = min(1.5 * last.step_size, config.step_size * 2.0**config.max_halvings)
        final = first / 2 ** (tried - 1)
        assert eta_min <= final < 2 * eta_min


class TestFiniteDifference:
    def test_over_random_instances(self, rng):
        worst = 0.0
        for trial in range(5):
            d = int(rng.integers(3, 7))
            target = random_matrix(rng, d, d)
            problem = FitProblem(target, "lora", 2)
            adapter = init_lora(d, d, 2, AdapterInit("gaussian", seed=trial))
            worst = max(worst, finite_difference_check(problem, adapter))
        assert worst < 1e-5

    def test_step_guard(self, rng):
        problem = FitProblem(random_matrix(rng, 4, 4), "lora", 2)
        adapter = init_lora(4, 4, 2, AdapterInit("gaussian"))
        with pytest.raises(ConfigurationError):
            finite_difference_check(problem, adapter, step=0.0)

    @staticmethod
    def _block_problem(rng):
        plan = build_plan(random_matrix(rng, 4, 4), 2)
        problem = FitProblem(random_matrix(rng, 4, 4), "smoa", 2, plan)
        return problem, init_smoa(plan, 2, AdapterInit("gaussian", seed=1))

    @pytest.mark.parametrize("step", [math.nan, math.inf], ids=["nan", "inf"])
    def test_step_must_be_finite(self, rng, step):
        with pytest.raises(ConfigurationError):
            finite_difference_check(*self._block_problem(rng), step=step)

    def test_non_finite_difference_is_numerical_error(self, rng):
        """At step 1e300 both perturbed losses overflow; no vacuous 0.0."""
        with pytest.raises(NumericalError, match=r"central difference at a\[0, 0, 0\]$"):
            finite_difference_check(*self._block_problem(rng), step=1e300)


class TestTraceFiles:
    def test_trace_step_is_an_immutable_named_tuple(self, rng):
        trace = fit(FitProblem(random_matrix(rng, 4, 4), "lora", 2),
                    AdapterInit("gaussian", seed=6), FitConfig(max_steps=3))
        entry = trace.steps[-1]
        assert TraceStep._fields == ("step", "loss", "grad_norm", "step_size", "halvings")
        assert entry == (entry.step, entry.loss, entry.grad_norm, entry.step_size, entry.halvings)
        with pytest.raises(AttributeError):
            entry.loss = 0.0

    def test_csv_and_summary(self, rng, tmp_path):
        target = random_matrix(rng, 4, 4)
        problem = FitProblem(target, "lora", 2)
        trace = fit(problem, AdapterInit("gaussian", seed=6), FitConfig(max_steps=20))
        csv_path = tmp_path / "trace.csv"
        summary_path = tmp_path / "summary.json"
        save_trace(trace, csv_path, summary_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,grad_norm,step_size,halvings"
        assert len(lines) == len(trace.steps) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == trace.steps[0].loss
        assert (float(first[3]), int(first[4])) == (1e-2, 0)
        for line, entry in zip(lines[1:], trace.steps):
            step, loss, grad_norm, step_size, halvings = line.split(",")
            assert int(step) == entry.step
            assert float(loss) == entry.loss
            assert float(grad_norm) == entry.grad_norm
            assert float(step_size) == entry.step_size
            assert int(halvings) == entry.halvings
        summary = json.loads(summary_path.read_text())
        assert summary["halvings"] == sum(entry.halvings for entry in trace.steps)
        assert summary["final_loss"] == trace.final_loss
        assert summary["relative_loss"] == trace.relative_loss
        assert summary["steps"] == trace.step_count
        assert summary["converged"] == trace.converged
        assert summary["seed"] == 6
        assert summary["config"]["step_size"] == 1e-2


def _reference_objective(problem):
    """Per-block loss and gradients, one Python pass per block.

    This is the evaluation the stacked core replaced; it stays here as
    the oracle the stacked core must reproduce bit for bit.
    """
    if problem.kind == "lora":
        t = problem.target.data

        def loss_fn(factors):
            (a, b), = factors
            return 0.5 * float(np.sum((b @ a - t) ** 2))

        def grad_fn(factors):
            (a, b), = factors
            residual = b @ a - t
            return [(b.T @ residual, residual @ a.T)]

        return loss_fn, grad_fn
    plan = problem.plan
    reordered = apply_permutations(problem.target, plan.p_out, plan.p_in).data
    anchors = list(plan.anchor_stack)
    blocks = [
        reordered[r0:r1, c0:c1].copy()
        for (r0, r1), (c0, c1) in zip(plan.row_intervals, plan.col_intervals)
    ]
    in_block = 0.0
    for block in blocks:
        in_block += float(np.sum(block**2))
    constant = 0.5 * max(float(np.sum(reordered**2)) - in_block, 0.0)

    def loss_fn(factors):
        acc = constant
        for (a, b), anchor, block in zip(factors, anchors, blocks):
            acc += 0.5 * float(np.sum(((b @ a) * anchor - block) ** 2))
        return acc

    def grad_fn(factors):
        grads = []
        for (a, b), anchor, block in zip(factors, anchors, blocks):
            masked = ((b @ a) * anchor - block) * anchor
            grads.append((b.T @ masked, masked @ a.T))
        return grads

    return loss_fn, grad_fn


def _reference_descent(problem, factors, config):
    """Per-block backtracking loop with the carried step size: eta halves
    on a rejected candidate and grows 1.5-fold, capped at
    step_size * 2**max_halvings, on an accepted step; the search stalls
    below step_size * 2**-max_halvings. Returns the
    (step, loss, grad_norm, step_size, halvings) path and the factors."""
    loss_fn, grad_fn = _reference_objective(problem)
    eta_min = config.step_size * 2.0**-config.max_halvings
    eta_max = config.step_size * 2.0**config.max_halvings

    def grad_norm(grads):
        return math.sqrt(sum(float(np.sum(da**2) + np.sum(db**2)) for da, db in grads))

    with np.errstate(over="ignore", invalid="ignore"):
        current = loss_fn(factors)
        grads = grad_fn(factors)
        gnorm = grad_norm(grads)
        eta = config.step_size
        path = [(0, current, gnorm, eta, 0)]
        step = 0
        while not gnorm < config.grad_tol and step < config.max_steps:
            accepted = None
            halvings = 0
            while eta >= eta_min:
                candidate = [(a - eta * da, b - eta * db) for (a, b), (da, db) in zip(factors, grads)]
                candidate_loss = loss_fn(candidate)
                if math.isfinite(candidate_loss) and candidate_loss <= current:
                    accepted = candidate
                    break
                eta /= 2
                halvings += 1
            if accepted is None:
                break
            factors, current = accepted, candidate_loss
            grads = grad_fn(factors)
            gnorm = grad_norm(grads)
            step += 1
            path.append((step, current, gnorm, eta, halvings))
            eta = min(1.5 * eta, eta_max)
    return path, factors


def _pairs(adapter):
    return list(zip(adapter.a, adapter.b))


def _assert_matches_reference(problem, init, config):
    if init.scheme == "spectral":
        u, s, vt = svd(problem.target)
        root = np.sqrt(s[:problem.r])
        start = [((vt.T[:, :problem.r] * root).T, u[:, :problem.r] * root)]
    elif problem.kind == "lora":
        start = _pairs(init_lora(problem.target.rows, problem.target.cols, problem.r, init))
    else:
        start = _pairs(init_smoa(problem.plan, problem.r, init))
    path, factors = _reference_descent(problem, start, config)
    trace = fit(problem, init, config)
    assert [(s.step, s.loss, s.grad_norm, s.step_size, s.halvings) for s in trace.steps] == path
    for (a, b), (ref_a, ref_b) in zip(_pairs(trace.adapter), factors):
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
    return trace


class TestStackedCoreMatchesPerBlockReference:
    """The batched core reproduces the per-block trajectory exactly."""

    def test_witness_8x8_k2_rho2(self, rng):
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=3)
        problem = FitProblem(witness.target, "smoa", 4, plan)
        config = FitConfig(step_size=0.05, max_steps=3000, grad_tol=1e-7, max_halvings=20)
        trace = _assert_matches_reference(problem, AdapterInit("gaussian", seed=0, scale=0.5), config)
        assert trace.step_count > 100

    def test_oversized_step_halves_then_regrows(self, rng):
        """From step_size 1.0 the first step halves; eta then grows back
        and halves again along the path."""
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=3)
        problem = FitProblem(witness.target, "smoa", 4, plan)
        config = FitConfig(step_size=1.0, max_steps=400, grad_tol=1e-7, max_halvings=20)
        trace = _assert_matches_reference(problem, AdapterInit("gaussian", seed=0, scale=0.5), config)
        assert trace.steps[1].halvings > 0
        regrown = [s for s in trace.steps[2:] if s.step_size > trace.steps[1].step_size]
        assert regrown
        assert any(s.halvings > 0 for s in trace.steps if s.step > regrown[0].step)

    def test_64x64_k4_fixed_steps(self, rng):
        plan = build_plan(random_matrix(rng, 64, 64), 4)
        problem = FitProblem(random_matrix(rng, 64, 64), "smoa", 16, plan)
        config = FitConfig(step_size=0.01, max_steps=300, grad_tol=0.0)
        trace = _assert_matches_reference(problem, AdapterInit("gaussian", seed=3), config)
        assert trace.step_count == 300

    def test_rectangular_plan(self, rng):
        plan = build_plan(random_matrix(rng, 12, 18), 3)
        problem = FitProblem(random_matrix(rng, 12, 18), "smoa", 6, plan)
        config = FitConfig(step_size=0.02, max_steps=400, grad_tol=0.0)
        _assert_matches_reference(problem, AdapterInit("gaussian", seed=4), config)

    @pytest.mark.parametrize("scheme", ["gaussian", "spectral"])
    def test_lora(self, rng, scheme):
        plan = build_plan(random_matrix(rng, 8, 8), 2)
        witness = make_witness(plan, rho=2, seed=5)
        problem = FitProblem(witness.target, "lora", 4)
        config = FitConfig(step_size=0.05, max_steps=500, grad_tol=1e-9, max_halvings=20)
        _assert_matches_reference(problem, AdapterInit(scheme, seed=6, scale=0.5), config)

    def test_single_block_plan(self, rng):
        plan = build_plan(random_matrix(rng, 6, 10), 1)
        problem = FitProblem(random_matrix(rng, 6, 10), "smoa", 3, plan)
        config = FitConfig(step_size=0.02, max_steps=300, grad_tol=0.0)
        _assert_matches_reference(problem, AdapterInit("gaussian", seed=7), config)

    def test_rank_one_blocks(self, rng):
        plan = build_plan(random_matrix(rng, 12, 20), 4)
        problem = FitProblem(random_matrix(rng, 12, 20), "smoa", 4, plan)
        config = FitConfig(step_size=0.05, max_steps=300, grad_tol=0.0)
        trace = _assert_matches_reference(problem, AdapterInit("gaussian", seed=8), config)
        assert trace.adapter.rho == 1

    def test_stalled(self):
        target = Matrix(np.random.default_rng(4).standard_normal((2, 2)) * 10)
        config = FitConfig(step_size=0.1, max_steps=2000, grad_tol=0.0, max_halvings=1)
        trace = _assert_matches_reference(FitProblem(target, "lora", 1),
                                          AdapterInit("gaussian", seed=4, scale=0.1), config)
        assert trace.stop_reason == "stalled"


def _capture_objectives(monkeypatch):
    """Record every objective built, so a test can reach its buffers."""
    built = []
    real = smoa.trainer._Objective.__init__

    def spy(self, problem):
        real(self, problem)
        built.append(self)

    monkeypatch.setattr(smoa.trainer._Objective, "__init__", spy)
    return built


def _buffers(objective):
    return [value for value in vars(objective).values() if isinstance(value, np.ndarray)]


class TestResultsOwnTheirMemory:
    """The objective's buffers are reused in place; nothing a caller gets
    back may alias them or change when the next fit or gradient runs."""

    @staticmethod
    def _problem(rng, kind):
        plan = build_plan(random_matrix(rng, 8, 8), 2) if kind == "smoa" else None
        return FitProblem(random_matrix(rng, 8, 8), kind, 4, plan)

    @pytest.mark.parametrize("kind", ["smoa", "lora"])
    def test_fit_results_share_no_buffer_and_survive_the_next_fit(self, rng, monkeypatch, kind):
        built = _capture_objectives(monkeypatch)
        problem = self._problem(rng, kind)
        config = FitConfig(step_size=0.05, max_steps=50, grad_tol=0.0)
        first = fit(problem, AdapterInit("gaussian", seed=1), config)
        factors = first.adapter.a, first.adapter.b
        kept = [f.copy() for f in factors]
        assert all(not np.shares_memory(f, buffer) for f in factors for buffer in _buffers(built[0]))
        fit(problem, AdapterInit("gaussian", seed=2), config)
        assert all(np.array_equal(f, k) for f, k in zip(factors, kept))

    @pytest.mark.parametrize("kind", ["smoa", "lora"])
    def test_gradient_results_share_no_buffer_and_survive_the_next_call(self, rng, monkeypatch, kind):
        built = _capture_objectives(monkeypatch)
        problem = self._problem(rng, kind)
        init = init_smoa if kind == "smoa" else (lambda plan, r, i: init_lora(8, 8, r, i))
        first = gradient(problem, init(problem.plan, 4, AdapterInit("gaussian", seed=1)))
        grads = list(first)
        kept = [g.copy() for g in grads]
        assert all(not np.shares_memory(g, buffer) for g in grads for buffer in _buffers(built[0]))
        gradient(problem, init(problem.plan, 4, AdapterInit("gaussian", seed=2)))
        assert all(np.array_equal(g, k) for g, k in zip(grads, kept))


class TestLossAgreesWithUpdate:
    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from([1, 2, 4]),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**31 - 1),
    )
    def test_block_loss_is_half_squared_update_residual(self, k, s_out, s_in, seed):
        rng = np.random.default_rng(seed)
        rho = int(rng.integers(1, min(s_out, s_in) + 1))
        plan = build_plan(random_matrix(rng, k * s_out, k * s_in), k)
        target = random_matrix(rng, k * s_out, k * s_in)
        adapter = init_smoa(plan, k * rho, AdapterInit("gaussian", seed=seed))
        expected = 0.5 * float(np.sum((smoa_update(adapter).data - target.data) ** 2))
        got = loss(FitProblem(target, "smoa", k * rho, plan), adapter)
        assert got == pytest.approx(expected, rel=1e-12)


class TestStopReason:
    def test_grad_tol(self, rng):
        problem = FitProblem(random_matrix(rng, 6, 6), "lora", 2)
        trace = fit(problem, AdapterInit("gaussian", seed=1),
                    FitConfig(step_size=0.05, max_steps=50000, grad_tol=1e-6))
        assert trace.stop_reason == "grad_tol"
        assert trace.converged
        assert trace.steps[-1].grad_norm < 1e-6
        assert trace.step_count < 50000

    def test_max_steps(self, rng):
        problem = FitProblem(random_matrix(rng, 6, 6), "lora", 2)
        trace = fit(problem, AdapterInit("gaussian", seed=1), FitConfig(max_steps=5, grad_tol=0.0))
        assert trace.stop_reason == "max_steps"
        assert not trace.converged
        assert trace.step_count == 5

    def test_stalled(self, rng):
        """An oversized step with no halvings raises the loss, so descent
        stops at step zero without converging."""
        problem = FitProblem(random_matrix(rng, 4, 4), "lora", 2)
        trace = fit(problem, AdapterInit("gaussian", seed=3),
                    FitConfig(step_size=10.0, max_steps=100, max_halvings=0))
        assert trace.stop_reason == "stalled"
        assert not trace.converged
        assert trace.step_count == 0

    def test_summary_records_reason(self, rng, tmp_path):
        problem = FitProblem(random_matrix(rng, 4, 4), "lora", 2)
        trace = fit(problem, AdapterInit("gaussian", seed=6), FitConfig(max_steps=3, grad_tol=0.0))
        save_trace(trace, tmp_path / "trace.csv", tmp_path / "summary.json")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["stop_reason"] == "max_steps"
