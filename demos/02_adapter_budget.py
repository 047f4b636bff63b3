"""What the K-fold parameter discount buys.

Both adapter families are factor pairs around a rank budget r. The
global family trains r(d_in + d_out) numbers. The block family splits
the budget across K anchors at local rank rho = r/K and trains exactly
one K-th as many, because each factor pair only spans a 1/K slice of
each dimension. Merging and applying are the same algebra either way.
"""
import numpy as np

from smoa import (
    AdapterInit,
    apply_forward,
    build_plan,
    gaussian_matrix,
    init_lora,
    init_smoa,
    lora_update,
    merge,
    param_count,
    smoa_update,
)

d = 64
print(f"{'r':>4} {'K':>3} {'global params':>14} {'block params':>13} {'ratio':>6}")
for r in (4, 8, 16):
    for k in (2, 4):
        lora = param_count("lora", d, d, r)
        smoa = param_count("smoa", d, d, r, k)
        print(f"{r:>4} {k:>3} {lora:>14} {smoa:>13} {lora // smoa:>5}x")

w0 = gaussian_matrix(16, 16, seed=7)
plan = build_plan(w0, 2)
init = AdapterInit("gaussian", seed=3, scale=0.3)

flat = init_lora(16, 16, 8, init)
block = init_smoa(plan, 8, init)
print(f"\nlive adapters at d=16, r=8, K=2: "
      f"global {flat.trainable_parameters} params, block {block.trainable_parameters}")

x = gaussian_matrix(16, 5, seed=9)
merged = merge(w0, block)
via_forward = apply_forward(w0, smoa_update(block), x)
drift = np.max(np.abs((merged @ x).data - via_forward.data))
print(f"merge vs forward-with-update drift: {drift:.2e}")

frozen = init_smoa(plan, 8, AdapterInit("zero-update", seed=3, scale=0.3))
print(f"zero-update init leaves the weight untouched: "
      f"{np.array_equal(merge(w0, frozen).data, w0.data)}")

delta = smoa_update(block)
outside = np.array(delta.data, copy=True)
moved = outside[np.ix_(plan.p_out.indices, plan.p_in.indices)]
s_out, s_in = plan.block_shape
for g in range(plan.k):
    moved[g * s_out:(g + 1) * s_out, g * s_in:(g + 1) * s_in] = 0.0
print(f"update lives only on the anchor blocks: {np.all(moved == 0.0)}")
print(f"global update rank: {np.linalg.matrix_rank(lora_update(flat).data)}, "
      f"block update rank: {np.linalg.matrix_rank(delta.data)}")
