"""Where the blocks come from.

A frozen weight is decomposed once; every row and column gets a score
saying which singular directions carry its energy. Sorting by score
groups spectrally similar coordinates, and equal consecutive groups of
the reordered matrix become the frozen diagonal anchors the adapters
modulate. The reordering is a pure gather, so nothing about the
spectrum changes.
"""
import numpy as np

from smoa import (
    build_plan,
    coordinate_scores,
    invert_permutations,
    low_rank_plus_noise,
    reordered_weight,
    singular_values,
    svd,
)

w0 = low_rank_plus_noise(12, 12, rank=3, noise=0.05, seed=42)
print(f"frozen weight: {w0.rows}x{w0.cols}, singular values "
      f"{np.round(singular_values(w0)[:5], 3)} ...")

out_scores, in_scores = coordinate_scores(svd(w0))
print("\nrow scores (energy-weighted mean direction index, 1-based):")
print(" ", np.round(out_scores, 3))

plan = build_plan(w0, 3)
print(f"\nplan: K={plan.k}, block shape {plan.block_shape}")
print(f"row permutation (new position -> original row): {plan.p_out.indices.tolist()}")
print(f"row intervals (0-based, half-open): {plan.row_intervals}")

reordered = reordered_weight(plan, w0)
for g, anchor in enumerate(plan.anchor_stack):
    print(f"anchor {g}: {anchor.shape[0]}x{anchor.shape[1]}, "
          f"|entries| mean {np.abs(anchor).mean():.3f}")

sv_before = singular_values(w0)
sv_after = singular_values(reordered)
print(f"\nspectrum drift after reordering: {np.max(np.abs(sv_after - sv_before)):.2e}")

roundtrip = invert_permutations(reordered, plan.p_out, plan.p_in)
print(f"gather/scatter roundtrip bit-exact: {np.array_equal(roundtrip.data, w0.data)}")
