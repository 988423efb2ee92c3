"""What happens when data cannot carry an interference model.

A row whose combined probability strays farther from the classical average
than the geometric mean of its marginals has no real phase: the magnitude
radicand goes negative.  The solver reports such rows as structured data
instead of fitting a partial model.  The first row below is the culprit.
"""

from concept_interference import (
    ExemplarRecord,
    InfeasibilityError,
    TypicalityTable,
    compute_deviations,
    compute_lambda_magnitudes,
    solve,
    validate_and_normalize,
)

records = (
    ExemplarRecord(1, "runaway", 0.01, 0.01, 0.5),
    ExemplarRecord(2, "steady", 0.5, 0.5, 0.3),
    ExemplarRecord(3, "calm", 0.49, 0.49, 0.2),
)
table = validate_and_normalize(TypicalityTable(records=records))

deviations = compute_deviations(table)
magnitudes, report = compute_lambda_magnitudes(table)
print("deviation per exemplar:", [round(float(d), 4) for d in deviations])
print("constructible:", not report.infeasible_exemplars)
for index, radicand in report.infeasible_exemplars:
    print(
        f"  exemplar {index} ({table.names[index - 1]}): "
        f"radicand {radicand:.4f} < 0 "
        f"(deviation {deviations[index - 1]:+.4f} exceeds the geometric mean)"
    )

try:
    solve(table)
except InfeasibilityError as error:
    print(f"solve refused: {error}")
