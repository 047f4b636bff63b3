"""Targets only the block family can fit, and what descent does there.

A witness target is block diagonal in reordered coordinates with each
block a rank-rho coefficient times the anchor entrywise. Its rank can
reach rho * K while the trainable budget stays r = rho * K, so any
global rank-r fit pays an irreducible truncation tail. Gradient
descent shows both sides: the global fit lands on its spectral floor
and stays there, and the block fit drives the loss to zero, though its
objective is nonconvex and an unlucky start can park in a spurious
basin until restarted.
"""
import numpy as np

from smoa import (
    AdapterInit,
    FitConfig,
    FitProblem,
    build_plan,
    fit,
    gaussian_matrix,
    lora_gap,
    make_witness,
    smoa_exact_fit,
    update,
)

plan = build_plan(gaussian_matrix(8, 8, seed=1004), 2)
witness = make_witness(plan, rho=2, seed=4)
target = witness.target
print(f"witness target: 8x8, reordered rank {witness.reordered_target_rank}, "
      f"budget r = rho * K = 4")

print("\nirreducible global-fit error by budget (squared Frobenius tail):")
for r in range(1, 9):
    print(f"  r={r}: {lora_gap(witness, r):10.6f}")

exact = smoa_exact_fit(witness)
residual = np.linalg.norm(update(exact).data - target.data) / np.linalg.norm(target.data)
print(f"\nclosed-form block fit residual: {residual:.2e} (exact: the witness's own factors)")

floor_cfg = FitConfig(step_size=0.05, max_steps=1000, grad_tol=1e-9, max_halvings=10)
problem = FitProblem(target, "lora", 4)
trace = fit(problem, AdapterInit("spectral", seed=0, scale=1.0), floor_cfg)
print(f"\nglobal fit from spectral init: loss {trace.final_loss:.6f}, "
      f"floor {trace.floor:.6f}, steps {trace.step_count}")
print("  (descent cannot beat the floor; it is already standing on it)")

block_cfg = FitConfig(step_size=0.05, max_steps=60000, grad_tol=1e-7, max_halvings=20)
problem = FitProblem(target, "smoa", 4, plan)
print("\nblock fit, two starts on the same target:")
for seed in (4, 0):
    trace = fit(problem, AdapterInit("gaussian", seed=seed, scale=0.5), block_cfg)
    verdict = "spurious basin" if trace.relative_loss > 1e-6 else "global minimum"
    print(f"  init seed {seed}: relative loss {trace.relative_loss:.2e} "
          f"after {trace.step_count} steps ({verdict})")
print("  restarting from a fresh seed is part of the fitting protocol")
