"""Acceptance gate: ten numbered end-to-end checks with pinned budgets.

Each test carries a ``criterion`` marker; the terminal summary prints
one PASS/FAIL line per criterion. Tolerances and runtime limits are
part of the contract and are asserted, not logged.
"""
import json
import time

import numpy as np
import pytest

from smoa import (
    ActivationSample,
    AdapterInit,
    FitConfig,
    FitProblem,
    Matrix,
    achieved_rank,
    apply_permutations,
    block_diagonal,
    build_plan,
    count_outliers,
    finite_difference_check,
    fit,
    full_rank_ceiling,
    gaussian_matrix,
    init_lora,
    init_smoa,
    invert_permutations,
    lora_gap,
    lora_update,
    make_witness,
    numerical_rank,
    overlap_scores,
    param_count,
    rank_ceiling,
    reordered_weight,
    singular_values,
    smoa_exact_fit,
    smoa_update,
    spiked_matrix,
    tail_energy,
    truncated_svd,
    update,
)
from smoa.cli import main as cli_main

from conftest import random_matrix


def build_witness_suite():
    """Twenty seeded rank-8 block targets on 8x8 plans, two blocks each."""
    suite = []
    for seed in range(20):
        w0 = gaussian_matrix(8, 8, seed=1000 + seed)
        plan = build_plan(w0, 2)
        suite.append(make_witness(plan, rho=2, seed=seed))
    return suite


@pytest.mark.criterion(1, "parameter budget is one K-th of the global baseline")
def test_criterion_01_parameter_budget_law():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 50:
        k = int(rng.choice([1, 2, 3, 4, 8, 16]))
        r = k * int(rng.integers(1, 9))
        d_in = k * int(rng.integers(1, 4096 // k + 1))
        d_out = k * int(rng.integers(1, 4096 // k + 1))
        if max(d_in, d_out) > 4096:
            continue
        lora = param_count("lora", d_in, d_out, r)
        smoa = param_count("smoa", d_in, d_out, r, k)
        assert isinstance(lora, int) and isinstance(smoa, int)
        assert smoa * k == lora
        checked += 1
    assert time.perf_counter() - started < 1.0


@pytest.mark.criterion(2, "achieved update rank never exceeds the block ceiling")
def test_criterion_02_rank_ceiling_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    for trial in range(1000):
        d_out = 4 * int(rng.integers(2, 9))
        d_in = 4 * int(rng.integers(2, 9))
        k = int(rng.choice([2, 4]))
        r = int(rng.choice([4, 8] if k == 4 else [2, 4, 8]))
        plan = build_plan(random_matrix(rng, d_out, d_in), k)
        adapter = init_smoa(plan, r, AdapterInit("gaussian", seed=trial, scale=1.0))
        report = rank_ceiling(plan, r)
        assert achieved_rank(smoa_update(adapter)) <= report.total_ceiling
    assert time.perf_counter() - started < 30.0


@pytest.mark.criterion(3, "full-rank anchors push the ceiling past r and rho=1 attains it")
def test_criterion_03_full_rank_separation():
    started = time.perf_counter()
    for r in (2, 4, 8):
        assert full_rank_ceiling(16, 16, 2, r) > r
    for seed in range(10):
        plan = build_plan(gaussian_matrix(16, 16, seed=300 + seed), 2)
        adapter = init_smoa(plan, 2, AdapterInit("gaussian", seed=seed, scale=1.0))
        assert np.all(adapter.a != 0.0) and np.all(adapter.b != 0.0)
        assert achieved_rank(smoa_update(adapter)) == 16
    assert time.perf_counter() - started < 5.0


@pytest.mark.criterion(4, "witness targets separate: positive truncation gap, exact block fit")
def test_criterion_04_witness_separation():
    started = time.perf_counter()
    for witness in build_witness_suite():
        assert witness.reordered_target_rank == 8
        target = witness.target
        gap = lora_gap(witness, 4)
        residual = (target - truncated_svd(target, 4)).norm() ** 2
        assert gap > 0.0
        assert abs(gap - residual) <= 1e-9 * residual
        exact = smoa_exact_fit(witness)
        error = (update(exact) - target).norm()
        assert error < 1e-10 * target.norm()
    assert time.perf_counter() - started < 10.0


@pytest.mark.criterion(5, "descent respects the spectral floor globally and fits blocks exactly")
def test_criterion_05_descent_floor_and_block_fit():
    started = time.perf_counter()
    suite = build_witness_suite()

    lora_config = FitConfig(step_size=0.05, max_steps=1000, grad_tol=1e-9, max_halvings=10)
    for witness in suite:
        problem = FitProblem(witness.target, "lora", 4)
        trace = fit(problem, AdapterInit("spectral", seed=0, scale=1.0), lora_config)
        floor = trace.floor
        assert floor is not None and floor > 0.0
        assert trace.final_loss >= floor - 1e-9
        assert abs(trace.final_loss - floor) <= 1e-3 * floor

    # The block objective is nonconvex; a deterministic ladder of seeded
    # restarts is part of the protocol. Ten starts leave headroom over the
    # worst case observed across the suite (two, witnesses 1 and 10).
    smoa_config = FitConfig(step_size=0.05, max_steps=60000, grad_tol=1e-7, max_halvings=20)
    for witness in suite:
        problem = FitProblem(witness.target, "smoa", 4, witness.plan)
        best = np.inf
        for attempt in range(10):
            trace = fit(problem, AdapterInit("gaussian", seed=attempt, scale=0.5), smoa_config)
            best = min(best, trace.relative_loss)
            if best < 1e-6:
                break
        assert best < 1e-6
    assert time.perf_counter() - started < 300.0


@pytest.mark.criterion(6, "analytic gradients agree with finite differences")
def test_criterion_06_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    # The loss is quadratic in any single entry, so central differences
    # carry no truncation error; a step of 1e-3 only shrinks the
    # cancellation roundoff that a 1e-6 step leaves near-zero gradients.
    fd_step = 1e-3
    for i in range(50):
        d_out = int(rng.integers(2, 17))
        d_in = int(rng.integers(2, 17))
        r = int(rng.integers(1, min(d_out, d_in) + 1))
        adapter = init_lora(d_out, d_in, r, AdapterInit("gaussian", seed=i, scale=0.7))
        problem = FitProblem(random_matrix(rng, d_out, d_in), "lora", r)
        assert finite_difference_check(problem, adapter, step=fd_step) < 1e-5
    for i in range(50):
        k = int(rng.choice([2, 4]))
        d_out = k * int(rng.integers(1, 16 // k + 1))
        d_in = k * int(rng.integers(1, 16 // k + 1))
        rho = int(rng.integers(1, min(d_out, d_in) // k + 1))
        plan = build_plan(random_matrix(rng, d_out, d_in), k)
        adapter = init_smoa(plan, rho * k, AdapterInit("gaussian", seed=i, scale=0.7))
        problem = FitProblem(random_matrix(rng, d_out, d_in), "smoa", rho * k, plan)
        assert finite_difference_check(problem, adapter, step=fd_step) < 1e-5
    assert time.perf_counter() - started < 60.0


@pytest.mark.criterion(7, "tail energy equals the explicit truncation residual")
def test_criterion_07_tail_energy_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    for _ in range(50):
        rows = int(rng.integers(2, 65))
        cols = int(rng.integers(2, 49))
        w = random_matrix(rng, rows, cols)
        m = min(rows, cols)
        for r in sorted({0, 1, m // 2, m}):
            residual = (w - truncated_svd(w, r)).norm() ** 2
            assert tail_energy(w, r) == pytest.approx(residual, rel=1e-9, abs=1e-12)
    assert time.perf_counter() - started < 30.0


@pytest.mark.criterion(8, "noise stays inside the bulk, spikes and alignment stand out")
def test_criterion_08_spectral_diagnostics():
    started = time.perf_counter()

    fractions = [count_outliers(gaussian_matrix(256, 256, seed=s)) / 256 for s in range(20)]
    assert np.mean(fractions) <= 0.02

    hits = sum(
        count_outliers(spiked_matrix(256, 256, spikes=5, strength=10.0, seed=s)) == 5
        for s in range(20)
    )
    assert hits >= 19

    d, n = 64, 50 * 64
    rng = np.random.default_rng(88)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    profile = d * (1e-8) ** (np.arange(d) / (d - 1))
    x = q @ (np.sqrt(profile)[:, None] * rng.standard_normal((d, n)))
    w = Matrix(np.diag(np.linspace(5.0, 1.0, d)) @ q.T)
    aligned = np.array([s for _, s in overlap_scores(w, ActivationSample(Matrix(x)))])
    assert aligned.min() > 0.9

    iso_sample = ActivationSample(Matrix(rng.standard_normal((d, n))))
    iso = np.array([s for _, s in overlap_scores(random_matrix(rng, d, d), iso_sample)])
    assert aligned.min() - iso.mean() >= 5.0 * iso.std()
    assert time.perf_counter() - started < 120.0


@pytest.mark.criterion(9, "permutations, spectra, the K=1 reduction, and block ranks hold exactly")
def test_criterion_09_structural_invariances():
    started = time.perf_counter()
    rng = np.random.default_rng(909)

    for rows, cols, k in ((24, 16, 4), (40, 64, 2), (36, 24, 4), (16, 16, 2)):
        w = random_matrix(rng, rows, cols)
        plan = build_plan(w, k)
        moved = apply_permutations(w, plan.p_out, plan.p_in)
        assert np.array_equal(
            invert_permutations(moved, plan.p_out, plan.p_in).data, w.data
        )
        original = singular_values(w)
        reordered = singular_values(reordered_weight(plan, w))
        assert np.all(np.abs(reordered - original) <= 1e-10 * original)

    plan = build_plan(Matrix.ones(6, 10), 1)
    assert np.all(plan.anchors[0].data == 1.0)
    init = AdapterInit("gaussian", seed=11, scale=0.8)
    block = init_smoa(plan, 3, init)
    flat = init_lora(6, 10, 3, init)
    assert block.trainable_parameters == flat.trainable_parameters
    moved_update = apply_permutations(smoa_update(block), plan.p_out, plan.p_in)
    assert np.array_equal(moved_update.data, lora_update(flat).data)

    for trial in range(100):
        blocks = []
        total = 0
        for _ in range(int(rng.integers(1, 5))):
            rows = int(rng.integers(1, 11))
            cols = int(rng.integers(1, 11))
            rank = int(rng.integers(0, min(rows, cols) + 1))
            if rank == 0:
                blocks.append(Matrix.zeros(rows, cols))
            else:
                blocks.append(
                    Matrix(rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols)))
                )
            total += rank
        assert numerical_rank(block_diagonal(blocks)) == total
    assert time.perf_counter() - started < 30.0


@pytest.mark.criterion(10, "swept block adapters beat the nominal rank budget at every cell")
def test_criterion_10_sweep_separation(tmp_path):
    started = time.perf_counter()
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"dims": [64], "ks": [2], "rs": [4, 8, 16, 32], "trials": 1, "seed": 7})
    )
    assert cli_main(["sweep", "--spec", str(spec), "--out", str(tmp_path), "--quiet"]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "method,d,k,r,trial,params,achieved_rank,ceiling,gap"
    seen = set()
    for line in rows[1:]:
        fields = line.split(",")
        if fields[0] != "smoa":
            continue
        r = int(fields[3])
        seen.add(r)
        assert int(fields[6]) > r
    assert seen == {4, 8, 16, 32}
    assert time.perf_counter() - started < 60.0
