"""Fit the interference model to the bundled Fruits/Vegetables data.

Walks the full pipeline by hand (normalize, magnitudes, signs, closing
coefficient, phases, vectors) and prints the fitted table next to the
verification residuals.
"""

import numpy as np

from concept_interference import (
    classify_exemplars,
    fruits_vegetables,
    solve,
    validate_and_normalize,
)

raw = fruits_vegetables()
print(f"dataset: {raw.label_a} / {raw.label_b} -> {raw.combination_label!r}")
print("raw column sums:", {k: round(v, 6) for k, v in raw.column_sums().items()})

table = validate_and_normalize(raw)  # rescale the rounded columns to unit sum
solution = solve(table)
classes = dict(classify_exemplars(solution))

header = f"{'':>3} {'exemplar':<14} {'mu_a':>7} {'mu_b':>7} {'mu_ab':>7} {'avg':>7} {'lambda':>8} {'phi':>10}  effect"
print()
print(header)
print("-" * len(header))
columns = (table.mu_a.tolist(), table.mu_b.tolist(), table.mu_ab.tolist())
for i, (name, mu_a, mu_b, mu_ab) in enumerate(zip(table.names, *columns)):
    print(
        f"{i + 1:>3} {name:<14}"
        f" {mu_a:7.4f} {mu_b:7.4f} {mu_ab:7.4f}"
        f" {0.5 * (mu_a + mu_b):7.4f}"
        f" {solution.lambdas[i]:+8.4f}"
        f" {solution.phi_deg[i]:+10.4f}"
        f"  {classes[i + 1].value}"
    )

print()
print(f"distinguished exemplar m = {solution.m} ({table.names[solution.m - 1]})")
print(f"closing coefficient c_m = {solution.c_m:.4f}")
print(f"|A> first coordinates: {np.round(solution.vector_a[:4].real, 4)}")
print(f"|B> plane coordinate:  {solution.vector_b[-1].real:.4f}")

res = solution.residuals
print()
print("verification residuals (all should be ~1e-16):")
print(f"  |<A|B>|              = {res.orthogonality_modulus:.3e}")
print(f"  | ||A|| - 1 |        = {res.norm_a_error:.3e}")
print(f"  | ||B|| - 1 |        = {res.norm_b_error:.3e}")
print(f"  max reconstruction   = {res.max_reconstruction_error:.3e}")
