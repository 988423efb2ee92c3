"""The domain-boundary rules, each on data built exactly on its threshold.

Every input here is an exact binary fraction, so each comparison sees the
threshold itself, and flipping it (``<=`` for ``<``, ``>`` for ``>=``)
fails a test:

- ``compute_deviations``: a deviation of exactly ``_DEVIATION_SLACK`` times
  the classical average reads as 0;
- ``compute_lambda_magnitudes``: a radicand of exactly ``-slack`` is
  feasible, and one of exactly ``slack`` gives magnitude 0;
- ``compute_cm``: c_m of exactly ``1 + _CM_OVERSHOOT_SLACK`` is clamped to 1;
- ``validate_and_normalize``: a column that sums to exactly 1 + tolerance
  is accepted.

Two thresholds cannot be reached by any float input, so these tests pin
their side of the rule from the nearest inputs instead:

- ``CLASSICAL_TOLERANCE`` (1e-12): no float phase has a cosine of exactly
  +-1e-12.  Near +-90 degrees the cosines of neighbouring float phases lie
  about 2.5e-16 apart, some 1e12 ulps of 1e-12.  The test moves the
  tolerance onto the cosine of a float phase, on both sides of 90 degrees.
- ``_EXACT_SUM_SLACK`` (1e-14): a column sum s near 1 has s - 1 a multiple
  of 2^-53, and 1e-14 is none, so ``<=`` and ``<`` agree on every input.
  The test takes the sums 45 and 46 times 2^-52 above 1, either side of it.
"""

from dataclasses import replace

import numpy as np
import pytest

from concept_interference import (
    Classification,
    InfeasibilityError,
    ValidationError,
    classify_exemplars,
    compute_cm,
    compute_deviations,
    compute_lambda_magnitudes,
    solver,
    validate_and_normalize,
)

from conftest import make_table

ULP = 2.0**-52  # the spacing of floats in [1, 2)


@pytest.mark.parametrize("excess, deviation", [(ULP, 0.0), (2 * ULP, 2 * ULP)])
def test_deviation_slack(excess, deviation):
    # _DEVIATION_SLACK * (1/4) is 2^-52 exactly
    table = make_table([0.25], [0.25], [0.25 + excess])
    assert compute_deviations(table).tolist() == [deviation]


@pytest.mark.parametrize(
    "mu_ab, radicand",
    [
        (0.5 + ULP, -(2.0**-53)),  # d = 1/4 + 2^-52: d^2 rounds to 1/16 + 2^-53
        (ULP, 2.0**-53),  # d = -(1/4 - 2^-52): d^2 rounds to 1/16 - 2^-53
    ],
    ids=["minus-slack", "plus-slack"],
)
def test_radicand_on_the_slack_is_zero(mu_ab, radicand):
    # at mu_a = mu_b = 1/4 the slack is 8 eps * (1/4) * (1/4) = 2^-53
    table = make_table([0.25], [0.25], [mu_ab])
    deviation = float(compute_deviations(table)[0])
    assert 0.0625 - deviation * deviation == radicand
    magnitudes, report = compute_lambda_magnitudes(table)
    assert magnitudes.tolist() == [0.0]
    assert report.infeasible_exemplars == ()


def test_radicand_past_the_slack():
    # d = 1/4 + 2^-51: d^2 rounds to 1/16 + 2^-52, a radicand of -2^-52
    table = make_table([0.25], [0.25], [0.5 + 2 * ULP])
    magnitudes, report = compute_lambda_magnitudes(table)
    assert np.isnan(magnitudes[0])
    assert report.infeasible_exemplars == ((1, -ULP),)


def test_closing_coefficient_on_the_overshoot_slack():
    # row m has mu_a * mu_b = 1 and deviation 0, so c_m is the off-m sum
    table = make_table([1.0, 0.5], [1.0, 0.5], [1.0, 0.5])
    on_slack = 1.0 + solver._CM_OVERSHOOT_SLACK
    assert compute_cm(table, [0.0, on_slack], 1) == 1.0
    past = float(np.nextafter(on_slack, 2.0))
    with pytest.raises(InfeasibilityError) as excinfo:
        compute_cm(table, [0.0, past], 1)
    assert excinfo.value.report.cm_violation == past


def test_column_sum_on_the_tolerance():
    table = make_table([0.625, 0.625], [0.5, 0.5], [0.5, 0.5])  # mu_a sums to 1.25
    assert validate_and_normalize(table, tolerance=0.25).mu_a.tolist() == [0.5, 0.5]
    past = make_table([0.625, 0.625 + ULP], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValidationError, match="outside tolerance"):
        validate_and_normalize(past, tolerance=0.25)


@pytest.mark.parametrize("steps, untouched", [(45, True), (46, False)])
def test_exact_sum_slack(steps, untouched):
    # 45 * 2^-52 is below 1e-14 and 46 * 2^-52 above it
    column = [0.5, 0.5 + steps * ULP]
    table = make_table(column, [0.5, 0.5], [0.5, 0.5])
    assert (validate_and_normalize(table) is table) is untouched


@pytest.mark.parametrize(
    "phase, beyond",
    [(89.9999, Classification.STRENGTHENING), (90.0001, Classification.WEAKENING)],
)
def test_cosine_on_the_classical_tolerance(monkeypatch, reference_solution, phase, beyond):
    cosine = float(np.cos(np.radians(phase)))
    monkeypatch.setattr(solver, "CLASSICAL_TOLERANCE", abs(cosine))
    # one float step further from 90 degrees, |cos phi| is past the tolerance
    further = float(np.nextafter(phase, 2 * phase - 90.0))
    solution = replace(reference_solution, phi_deg=np.array([phase, further]))
    labels = [label for _, label in classify_exemplars(solution)]
    assert labels == [Classification.CLASSICAL, beyond]
