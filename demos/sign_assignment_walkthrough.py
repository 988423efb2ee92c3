"""Step-by-step trace of the greedy sign assignment.

The magnitudes are visited largest-first; the largest opens with "+", and
every later entry subtracts when the running sum stays nonnegative,
otherwise it adds.  The leftover sum is what the closing coefficient on the
distinguished exemplar absorbs.
"""

import numpy as np

from concept_interference import (
    assign_signs,
    compute_cm,
    compute_lambda_magnitudes,
    fruits_vegetables,
    validate_and_normalize,
)

table = validate_and_normalize(fruits_vegetables())
magnitudes, report = compute_lambda_magnitudes(table)
assert not report.infeasible_exemplars

print(f"{'step':>4} {'exemplar':<14} {'|lambda|':>9} {'sign':>4} {'running sum':>12}")
print("-" * 48)
signs, m = assign_signs(magnitudes)
lambdas = signs * magnitudes
order = np.argsort(-magnitudes, kind="stable").tolist()  # the visit order
running_sums = np.cumsum(lambdas[order]).tolist()
for step_number, (k, running) in enumerate(zip(order, running_sums), start=1):
    print(
        f"{step_number:>4} {table.names[k]:<14}"
        f" {magnitudes[k]:9.4f} {'+' if signs[k] > 0 else '-':>4}"
        f" {running:12.4f}"
    )

print()
print(f"final running sum: {running_sums[-1]:.4f} (never negative)")
print(f"m = {m} ({table.names[m - 1]}), the largest magnitude")
print(f"c_m = {compute_cm(table, lambdas, m):.4f} absorbs the leftover sum")
