import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concept_interference import (
    Classification,
    DegeneracyError,
    InfeasibilityError,
    ProjectorLayout,
    ValidationError,
    assign_signs,
    build_state_vectors,
    classify_exemplars,
    compute_cm,
    compute_deviations,
    compute_lambda_magnitudes,
    compute_phases,
    measure_residuals,
    solve,
    validate_and_normalize,
    verify_solution,
)
from concept_interference.cli import build_solve_report
from concept_interference.solver import FeasibilityReport

from conftest import (
    feasible_tables,
    greedy_trace,
    make_table,
    place_on_boundary,
    reference_phase,
    reference_probability,
    solve_feasible,
)
from reference_values import (
    MOST_STRENGTHENING,
    MOST_WEAKENING,
    ORACLE_C_M,
    ORACLE_M,
    ORACLE_PHI,
    ORACLE_SIGNS,
    ORACLE_VISIT_ORDER,
    REF_C_M,
    REF_LAMBDA,
    REF_M,
    REF_PHI,
    REF_VECTOR_A,
    REF_VECTOR_B_COORD_19_CONSISTENT,
    REF_VECTOR_B_MODULI,
    SIGNS_IN_VISIT_ORDER,
    STRENGTHENING_NAMES,
    VISIT_ORDER,
    WEAKENING_NAMES,
)


class TestDeviations:
    def test_reference_spot_values(self, reference_table):
        deviations = compute_deviations(reference_table)
        assert deviations[0] == pytest.approx(0.0023, abs=1e-4)    # Almond
        assert deviations[18] == pytest.approx(-0.0092, abs=1e-4)  # Tomato

    def test_classical_row_is_zero(self):
        table = make_table([0.5, 0.5], [0.3, 0.7], [0.4, 0.6])
        assert compute_deviations(table)[0] == 0.0
        assert compute_deviations(table)[1] == 0.0


class TestLambdaMagnitudes:
    def test_reference_spot_values(self, reference_table):
        magnitudes, report = compute_lambda_magnitudes(reference_table)
        assert report == FeasibilityReport()
        assert magnitudes[0] == pytest.approx(0.0218, abs=5e-4)   # Almond
        assert magnitudes[13] == pytest.approx(0.0088, abs=5e-4)  # Mushroom

    def test_negative_radicand_reported_not_raised(self):
        table = make_table(
            [0.01, 0.5, 0.49], [0.01, 0.5, 0.49], [0.5, 0.3, 0.2]
        )
        magnitudes, report = compute_lambda_magnitudes(table)
        assert len(report.infeasible_exemplars) == 1
        index, radicand = report.infeasible_exemplars[0]
        assert index == 1
        assert radicand == pytest.approx(0.01 * 0.01 - 0.49**2)
        assert math.isnan(magnitudes[0])
        assert not math.isnan(magnitudes[1])


@pytest.mark.parametrize(
    "n, ratio, gap",
    [
        (4, 1.0, 0.0),
        (4, 1000.0, 0.0),
        (2, 1.0, 0.0),
        (4, 1.0, 1e-15),
        (4, 100.0, 1e-15),
        (4, 1.0, 1e-14),
        (4, 100.0, 1e-14),
    ],
    ids=[
        "balanced",
        "unbalanced",
        "two-rows",
        "near-1e-15",
        "near-1e-15-unbalanced",
        "near-1e-14",
        "near-1e-14-unbalanced",
    ],
)
def test_rows_at_zero_or_180_degrees_are_feasible(n, ratio, gap):
    # Seeded n-row tables with one row at d = +-(1 - gap) sqrt(mu_a * mu_b),
    # the other rows absorbing the shift; "unbalanced" gives that row a mu_a
    # about `ratio` times its mu_b.  On the boundary (gap 0) rounding leaves
    # its radicand a few ulps either side of 0, and a negative one must read
    # as 0, not as infeasible.  With two rows the other row is m, and its
    # phase sits on the boundary too.  Just off the boundary the radicand may
    # or may not read as 0; either way the phase must match the lambda, or
    # |<A|B>| grows to the order of sqrt(eps) * 1e-2.
    rng = random.Random(7)
    solved = 0
    while solved < 200:
        row = rng.randrange(n)
        weights_a = [rng.uniform(0.05, 1.0) for _ in range(n)]
        weights_b = [rng.uniform(0.05, 1.0) for _ in range(n)]
        weights_b[row] = weights_a[row] / (ratio * rng.uniform(1.0, 3.0))
        mu_a = [w / math.fsum(weights_a) for w in weights_a]
        mu_b = [w / math.fsum(weights_b) for w in weights_b]
        geometric = [math.sqrt(a * b) for a, b in zip(mu_a, mu_b)]
        raw = [g * rng.uniform(-0.5, 0.5) for g in geometric]
        drift, total = math.fsum(raw), math.fsum(geometric)
        centered = [d - g / total * drift for d, g in zip(raw, geometric)]
        cos_phi = rng.choice((1.0, -1.0)) * (1.0 - gap)
        deviations = place_on_boundary(mu_a, mu_b, geometric, centered, row, cos_phi)
        if deviations is None:
            continue
        mu_ab = [0.5 * (a + b) + d for a, b, d in zip(mu_a, mu_b, deviations)]
        table = validate_and_normalize(make_table(mu_a, mu_b, mu_ab))
        solution = solve(table)
        if gap == 0.0:
            assert solution.lambdas[row] == 0.0
            assert abs(solution.phi_deg[row]) == (0.0 if cos_phi > 0.0 else 180.0)
        assert solution.residuals.orthogonality_modulus <= 1e-12
        assert solution.residuals.max_reconstruction_error < 1e-9
        if n == 2:
            assert abs(solution.phi_deg[solution.m - 1]) in (0.0, 180.0)
        solved += 1


class TestSignAssignment:
    def test_hand_trace_three_entries(self):
        # 0.5 first; 0.5 - 0.3 = 0.2 >= 0 so minus; 0.2 - 0.2 = 0 >= 0 so minus
        signs, m = assign_signs([0.5, 0.3, 0.2])
        assert m == 1
        assert signs.tolist() == [1, -1, -1]
        _, _, running = greedy_trace([0.5, 0.3, 0.2])
        assert running.tolist() == [0.5, 0.2, 0.0]

    def test_hand_trace_with_tie(self):
        # equal maxima tie-break low: m = 1, visit 1, 3, 2; the third entry
        # zeroes the running sum, forcing a plus on the last visit
        signs, m = assign_signs([0.31623, 0.3, 0.31623])
        assert m == 1
        assert signs.tolist() == [1, 1, -1]
        visited, _, running = greedy_trace([0.31623, 0.3, 0.31623])
        assert visited.tolist() == [1, 3, 2]
        assert running[-1] == pytest.approx(0.3)
        # visit 3, 4, 1, 2: an unstable sort may visit the tied 2 before 1,
        # which flips both their signs
        signs, m = assign_signs([1, 1, 3, 2])
        assert m == 3
        assert signs.tolist() == [-1, 1, 1, -1]

    def test_reference_trace_matches_published_narrative(self, reference_table):
        magnitudes, _ = compute_lambda_magnitudes(reference_table)
        visited, signs, _ = greedy_trace(magnitudes)
        assert [reference_table.names[k - 1] for k in visited] == VISIT_ORDER
        assert "".join("+" if s > 0 else "-" for s in signs) == SIGNS_IN_VISIT_ORDER
        assert visited[0] == REF_M

    def test_running_sum_nonnegative_after_minus(self, reference_table):
        magnitudes, _ = compute_lambda_magnitudes(reference_table)
        _, signs, running = greedy_trace(magnitudes)
        assert np.all(running[signs < 0] >= 0.0)

    def test_too_few_entries(self):
        with pytest.raises(ValidationError):
            assign_signs([1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            assign_signs([1.0, float("nan")])


class TestClosingCoefficient:
    def test_reference_value(self, reference_table, reference_solution):
        assert reference_solution.c_m == pytest.approx(REF_C_M, abs=5e-3)

    def test_oracle_value(self, oracle_table):
        magnitudes, _ = compute_lambda_magnitudes(oracle_table)
        signs, m = assign_signs(magnitudes)
        assert m == ORACLE_M
        c_m = compute_cm(oracle_table, signs * magnitudes, m)
        assert c_m == pytest.approx(ORACLE_C_M, abs=1e-6)
        assert c_m == pytest.approx(0.0513, abs=1e-4)

    def test_cm_above_one_rejected(self):
        # force it by handing compute_cm a huge off-m lambda sum
        table = make_table([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(InfeasibilityError) as excinfo:
            compute_cm(table, np.array([0.1, 2.0]), 1)
        assert excinfo.value.report.cm_violation > 1.0

    def test_overshoot_within_the_slack_clamps_to_one(self):
        # c_m = 2 * lambda_2 here: 1 + 2e-10 lies within the rounding slack
        # of 1e-9 and reads as exactly 1, 1 + 1e-8 lies beyond it
        table = make_table([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        assert compute_cm(table, np.array([0.0, 0.5 * (1 + 2e-10)]), 1) == 1.0
        with pytest.raises(InfeasibilityError) as excinfo:
            compute_cm(table, np.array([0.0, 0.5 * (1 + 1e-8)]), 1)
        assert str(excinfo.value) == (
            "closing coefficient c_m = 1.00000001 exceeds 1: the signed "
            "magnitudes cannot be cancelled on exemplar 1 (E1)"
        )

    def test_zero_marginal_product_at_m_names_exemplar(self):
        # an unnormalized table can reach compute_cm with mu_a_m = 0
        table = make_table([0.0, 0.5], [0.5, 0.5], [0.5, 0.5], names=["Kale", "Fig"])
        with pytest.raises(DegeneracyError, match=r"exemplar 1 \(Kale\) has zero"):
            compute_cm(table, np.array([0.5, -0.1]), 1)

    def test_cm_zero_is_degenerate(self):
        # both deviations zero and the off-m lambda exactly zero
        table = make_table([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(DegeneracyError, match="classically additive"):
            compute_cm(table, np.array([0.5, 0.0]), 1)


class TestPhases:
    def test_reference_spot_values(self, reference_solution):
        phi = reference_solution.phi_deg
        assert phi[0] == pytest.approx(83.96, abs=0.05)
        assert abs(phi[0] - 83.8854) <= 0.5          # Almond
        assert phi[6] == pytest.approx(-113.31, abs=0.05)
        assert abs(phi[6] - -113.2431) <= 0.5        # Elderberry

    def test_zero_deviation_gives_exact_right_angle(self):
        table = make_table([0.5, 0.5], [0.3, 0.7], [0.4, 0.6])
        lambdas = np.array([math.sqrt(0.15), -math.sqrt(0.35)])
        phi, beta = compute_phases(table, lambdas, 1, 1.0)
        assert phi[0] == 90.0
        assert phi[1] == -90.0
        assert beta is phi

    @pytest.mark.parametrize("c_m", [0.0, 1.5, math.nan])
    def test_closing_coefficient_outside_unit_interval_rejected(
        self, reference_table, reference_solution, c_m
    ):
        lambdas, m = reference_solution.lambdas, reference_solution.m
        with pytest.raises(ValidationError, match="c_m must be in"):
            compute_phases(reference_table, lambdas, m, c_m)

    def test_sign_follows_lambda(self, reference_solution):
        nonzero = reference_solution.lambdas != 0.0
        assert np.all(
            np.sign(reference_solution.phi_deg[nonzero])
            == np.sign(reference_solution.lambdas[nonzero])
        )

    def test_beta_equals_phi_except_m(self, reference_table, reference_solution):
        m = reference_solution.m
        phi = reference_solution.phi_deg
        beta = _report_column(reference_table, reference_solution, "beta_deg")
        assert np.array_equal(np.delete(phi, m - 1), np.delete(beta, m - 1))
        assert beta[m - 1] == abs(phi[m - 1])


class TestStateVectors:
    def test_vector_a_matches_reference(self, reference_solution):
        for got, expected in zip(reference_solution.vector_a, REF_VECTOR_A):
            assert got.imag == 0.0
            assert got.real == pytest.approx(expected, abs=1e-3)

    def test_vector_b_moduli_match_reference(self, reference_solution):
        moduli = np.abs(reference_solution.vector_b)
        for k, (got, expected) in enumerate(
            zip(moduli, REF_VECTOR_B_MODULI), start=1
        ):
            if k == REF_M:
                continue
            assert got == pytest.approx(expected, abs=2e-3)
        assert moduli[24] == pytest.approx(0.1565, abs=2e-3)

    def test_vector_b_coordinate_m_carries_closing_coefficient(
        self, reference_table, reference_solution
    ):
        # the reference listing prints sqrt(mu_b_19) = 0.2606 for this
        # coordinate, dropping the closing coefficient its own definition
        # applies; the consistent value (and the one that keeps the vector
        # normalized) is c_m * sqrt(mu_b_19)
        modulus = abs(reference_solution.vector_b[REF_M - 1])
        expected = reference_solution.c_m * math.sqrt(
            reference_table.mu_b[REF_M - 1]
        )
        assert modulus == pytest.approx(expected, rel=1e-12)
        assert modulus == pytest.approx(
            REF_VECTOR_B_COORD_19_CONSISTENT, abs=2e-3
        )

    def test_plane_coordinate_real_nonnegative(self, reference_solution):
        plane = reference_solution.vector_b[24]
        assert plane.imag == 0.0
        assert plane.real >= 0.0

    def test_both_vectors_normalized(self, reference_solution):
        assert np.linalg.norm(reference_solution.vector_a) == pytest.approx(
            1.0, abs=1e-9
        )
        assert np.linalg.norm(reference_solution.vector_b) == pytest.approx(
            1.0, abs=1e-9
        )


@pytest.mark.parametrize(
    "stage",
    [
        lambda t, s: compute_cm(t, s.lambdas, 0),
        lambda t, s: compute_cm(t, s.lambdas[:-1], s.m),
        lambda t, s: compute_phases(t, s.lambdas[:-1], s.m, s.c_m),
        lambda t, s: compute_phases(t, np.append(s.lambdas, 0.1), s.m, s.c_m),
        lambda t, s: compute_phases(t, s.lambdas, t.n + 1, s.c_m),
        lambda t, s: build_state_vectors(t, s.m, s.c_m, s.phi_deg[:1]),
        lambda t, s: build_state_vectors(t, s.m, 1.5, s.phi_deg),
        lambda t, s: build_state_vectors(t, 0, s.c_m, s.phi_deg),
        lambda t, s: build_state_vectors(
            t, s.m, s.c_m, np.where(s.phi_deg > 0, np.inf, s.phi_deg)
        ),
    ],
    ids=[
        "cm-m-0",
        "cm-short-lambdas",
        "phases-short-lambdas",
        "phases-long-lambdas",
        "phases-m-past-n",
        "vectors-one-beta",
        "vectors-cm-above-one",
        "vectors-m-0",
        "vectors-infinite-beta",
    ],
)
def test_stages_reject_malformed_inputs(reference_table, reference_solution, stage):
    with pytest.raises(ValidationError):
        stage(reference_table, reference_solution)


@pytest.mark.parametrize(
    "m", [2.5, 19.0, True, np.True_], ids=["half", "float", "bool", "numpy-bool"]
)
def test_m_must_be_an_integer_exemplar_index(reference_table, reference_solution, m):
    table, s = reference_table, reference_solution
    stages = [
        lambda: compute_cm(table, s.lambdas, m),
        lambda: compute_phases(table, s.lambdas, m, s.c_m),
        lambda: build_state_vectors(table, m, s.c_m, s.phi_deg),
        lambda: measure_residuals(s.vector_a, s.vector_b, table, ProjectorLayout(24, m)),
    ]
    for stage in stages:
        with pytest.raises(ValidationError, match=r"m must be an integer in 1\.\.24, got"):
            stage()


def test_numpy_integer_m_is_an_exemplar_index(reference_table, reference_solution):
    m = np.int64(reference_solution.m)
    assert compute_cm(reference_table, reference_solution.lambdas, m) == reference_solution.c_m
    assert ProjectorLayout(24, m).m == m


class TestVerification:
    def test_reference_residuals_tiny(self, reference_solution):
        residuals = reference_solution.residuals
        assert residuals.orthogonality_modulus < 1e-9
        assert residuals.norm_a_error < 1e-9
        assert residuals.norm_b_error < 1e-9
        assert residuals.max_reconstruction_error < 1e-9

    def test_oracle_residuals_tiny(self, oracle_table):
        solution = solve(oracle_table)
        assert solution.residuals.orthogonality_modulus < 1e-9
        assert solution.residuals.max_reconstruction_error < 1e-9

    def test_verify_solution_recomputes(self, reference_table, reference_solution):
        report = verify_solution(reference_solution, reference_table)
        assert report == reference_solution.residuals

    @pytest.mark.parametrize("n", [1, 10], ids=["fewer-rows", "more-rows"])
    def test_layout_for_another_table_rejected(self, reference_table, n):
        # vectors of the layout's size, so only the table tells the sizes apart
        vector = np.full(n + 1, 0.5, dtype=complex)
        message = rf"^layout is for {n} exemplars, table has 24$"
        with pytest.raises(ValidationError, match=message):
            measure_residuals(vector, vector, reference_table, ProjectorLayout(n, 1))

    def test_detects_perturbed_phase(self, reference_table, reference_solution):
        phi = reference_solution.phi_deg.copy()
        phi[4] += 10.0
        vector_a, vector_b = build_state_vectors(
            reference_table,
            reference_solution.m,
            reference_solution.c_m,
            phi,
        )
        report = measure_residuals(
            vector_a,
            vector_b,
            reference_table,
            ProjectorLayout(reference_table.n, reference_solution.m),
        )
        assert report.orthogonality_modulus > 1e-4


class TestClassification:
    def test_reference_sets(self, reference_table, reference_solution):
        labels = dict(classify_exemplars(reference_solution))
        weakening = {
            reference_table.names[k - 1]
            for k, label in labels.items()
            if label is Classification.WEAKENING
        }
        strengthening = {
            reference_table.names[k - 1]
            for k, label in labels.items()
            if label is Classification.STRENGTHENING
        }
        assert weakening == WEAKENING_NAMES
        assert strengthening == STRENGTHENING_NAMES

    def test_extremes_by_phase(self, reference_table, reference_solution):
        cos_phi = np.cos(np.radians(reference_solution.phi_deg))
        names = reference_table.names
        assert names[int(np.argmin(cos_phi))] == MOST_WEAKENING
        assert names[int(np.argmax(cos_phi))] == MOST_STRENGTHENING

    def test_tiny_marginal_row_follows_its_phase(self):
        # row 1's deviation, 8e-13, is tiny in absolute terms, but it is 0.4
        # of the row's geometric mean: a phase of 66.42 degrees, not 90
        mu_a, mu_b = [1e-23, 0.5, 0.5], [0.4, 0.3, 0.3]
        d = 0.4 * math.sqrt(mu_a[0] * mu_b[0])
        mu_ab = [0.5 * (mu_a[0] + mu_b[0]) + d, 0.45, 0.35 - d]
        solution = solve(make_table(mu_a, mu_b, mu_ab))
        assert solution.phi_deg[0] == pytest.approx(66.42, abs=0.01)
        labels = dict(classify_exemplars(solution))
        assert labels[1] is Classification.STRENGTHENING

    def test_exactly_classical_row_with_unbalanced_marginals(self):
        # 0.08500000005 is the decimal average of 1e-10 and 0.17; as doubles
        # the row's deviation is -1.4e-17, rounding of the average, which is
        # -3.4e-12 of its geometric mean of 4.1e-6: it must read as 0
        mu_a, mu_b = [1e-10, 0.5, 0.5 - 1e-10], [0.17, 0.415, 1 - 0.17 - 0.415]
        mu_ab = [0.08500000005, 0.5075]
        mu_ab.append(1 - mu_ab[0] - mu_ab[1])
        table = make_table(mu_a, mu_b, mu_ab)
        assert validate_and_normalize(table) is table
        solution = solve(table)
        assert solution.deviations[0] == 0.0
        assert solution.phi_deg[0] == 90.0
        assert dict(classify_exemplars(solution))[1] is Classification.CLASSICAL

    def test_zero_deviation_is_classical(self):
        table = make_table([0.5, 0.5], [0.3, 0.7], [0.4, 0.6])
        solution = solve(table)
        assert all(
            label is Classification.CLASSICAL
            for _, label in classify_exemplars(solution)
        )


class TestOracleSolution:
    def test_full_oracle_solve(self, oracle_table):
        solution = solve(oracle_table)
        assert solution.m == ORACLE_M
        assert np.sign(solution.lambdas).tolist() == ORACLE_SIGNS
        magnitudes, _ = compute_lambda_magnitudes(oracle_table)
        visited, _, _ = greedy_trace(magnitudes)
        assert visited.tolist() == ORACLE_VISIT_ORDER
        assert solution.c_m == pytest.approx(ORACLE_C_M, abs=1e-6)
        assert solution.phi_deg.tolist() == ORACLE_PHI


class TestSolvePipeline:
    def test_lambda_regression_full(self, reference_solution):
        for got, expected in zip(reference_solution.lambdas, REF_LAMBDA):
            assert abs(got - expected) <= 5e-4
            assert math.copysign(1, got) == math.copysign(1, expected)

    def test_phi_regression_off_m(self, reference_solution):
        for k, (got, expected) in enumerate(
            zip(reference_solution.phi_deg, REF_PHI), start=1
        ):
            if k == REF_M:
                continue
            assert abs(got - expected) <= 0.5

    def test_reconstruction_identity_at_m(
        self, reference_table, reference_solution
    ):
        # the published phi at m is not reproduced by the phase formula
        # (see the erratum notes); the reconstruction identity is what the
        # construction guarantees there
        m = reference_solution.m
        a, b, ab = (
            float(column[m - 1])
            for column in (reference_table.mu_a, reference_table.mu_b, reference_table.mu_ab)
        )
        reconstructed = 0.5 * (a + b) + (
            reference_solution.c_m
            * math.sqrt(a * b)
            * math.cos(math.radians(reference_solution.phi_deg[m - 1]))
        )
        assert abs(reconstructed - ab) <= 1e-12

    def test_infeasible_table_raises_with_report(self):
        table = make_table(
            [0.01, 0.5, 0.49], [0.01, 0.5, 0.49], [0.5, 0.3, 0.2]
        )
        with pytest.raises(InfeasibilityError) as excinfo:
            solve(table)
        assert excinfo.value.report is not None
        assert excinfo.value.report.infeasible_exemplars[0][0] == 1
        assert "E1" in str(excinfo.value)

    def test_determinism_bit_identical(self, reference_table):
        first = solve(reference_table)
        second = solve(reference_table)
        assert np.array_equal(first.lambdas, second.lambdas)
        assert np.array_equal(first.phi_deg, second.phi_deg)
        assert np.array_equal(first.vector_a, second.vector_a)
        assert np.array_equal(first.vector_b, second.vector_b)
        assert first.c_m == second.c_m
        assert first.m == second.m
        assert first.residuals == second.residuals


# ---------------------------------------------------------------------------
# property suite over random feasible tables
# ---------------------------------------------------------------------------


@given(feasible_tables())
@settings(max_examples=60, deadline=None)
def test_pythagorean_identity(table):
    solution = solve_feasible(table)
    lhs = solution.lambdas**2 + solution.deviations**2
    rhs = table.mu_a * table.mu_b
    assert np.all(np.abs(lhs - rhs) <= 1e-12)


def _coefficients(solution):
    """c_k: 1 for every exemplar except c_m at m."""
    c = np.ones(solution.phi_deg.size)
    c[solution.m - 1] = solution.c_m
    return c


def _report_column(table, solution, key):
    rows = build_solve_report(table, table, solution)["exemplars"]
    return np.array([row[key] for row in rows])


@given(feasible_tables())
@settings(max_examples=60, deadline=None)
def test_model_exactness(table):
    solution = solve_feasible(table)
    residuals = solution.residuals
    assert residuals.orthogonality_modulus < 1e-9
    assert residuals.norm_a_error < 1e-9
    assert residuals.norm_b_error < 1e-9
    assert residuals.max_reconstruction_error < 1e-9
    # the closed-form reconstruction is even tighter
    c = _coefficients(solution)
    reconstructed = 0.5 * (table.mu_a + table.mu_b) + c * np.sqrt(
        table.mu_a * table.mu_b
    ) * np.cos(np.radians(solution.phi_deg))
    assert np.all(np.abs(reconstructed - table.mu_ab) <= 1e-12)


@given(feasible_tables())
@settings(max_examples=60, deadline=None)
def test_beta_is_phi_bitwise(table):
    # phi_m = atan2(|s|, d_m) lies in [+0, 180] degrees, so the report's
    # beta_m = |phi_m| changes no bit of it; c is 1 except c_m at m
    solution = solve_feasible(table)
    beta = _report_column(table, solution, "beta_deg")
    assert beta.tobytes() == solution.phi_deg.tobytes()
    c = _report_column(table, solution, "c")
    assert np.all(c[np.arange(table.n) != solution.m - 1] == 1.0)
    assert c[solution.m - 1] == solution.c_m


@given(feasible_tables())
@settings(max_examples=60, deadline=None)
def test_sign_sum_invariant(table):
    solution = solve_feasible(table)
    total = solution.lambdas.sum()
    assert total >= -1e-15
    assert 0.0 < solution.c_m <= 1.0
    # the running sums never go negative, and the visit order opens on m
    # and is nonincreasing in magnitude
    magnitudes, _ = compute_lambda_magnitudes(table)
    visited, signs, running = greedy_trace(magnitudes)
    assert visited[0] == solution.m
    assert running[-1] >= 0.0
    assert np.all(running[signs < 0] >= 0.0)
    visited_magnitudes = magnitudes[visited - 1]
    assert np.all(visited_magnitudes[:-1] >= visited_magnitudes[1:])
    # the leftover sum never exceeds the largest magnitude, which is what
    # keeps the closing coefficient inside (0, 1]
    assert running[-1] <= visited_magnitudes[0] + 1e-15


@given(feasible_tables())
@settings(max_examples=60, deadline=None)
def test_phase_signs_follow_lambdas(table):
    solution = solve_feasible(table)
    nonzero = solution.lambdas != 0.0
    # phi_k = atan2(lambda_k, d_k) keeps lambda's sign even on an angle that
    # reads 0 (+0.0 / -0.0), which np.sign would read as 0: compare sign bits.
    assert np.all(
        np.signbit(solution.phi_deg[nonzero]) == (solution.lambdas[nonzero] < 0.0)
    )


def _assert_phases_match_the_arccos_reference(table):
    solution = solve_feasible(table)
    m = solution.m
    off_m_zero = math.fsum(np.delete(solution.lambdas, m - 1).tolist()) == 0.0
    for k, (phi, lambda_k, c_k) in enumerate(
        zip(solution.phi_deg, solution.lambdas, _coefficients(solution)), start=1
    ):
        expected, cosine = reference_phase(table, k, lambda_k, c_k)
        if (off_m_zero if k == m else lambda_k == 0.0):
            # a boundary row: exactly 0 degrees, or +180 (never -180)
            assert phi == (0.0 if cosine > 0.0 else 180.0)
        elif abs(cosine) <= 1.0 - 1e-6:
            assert abs(phi - expected) <= 1e-9


@given(feasible_tables())
@settings(max_examples=60, deadline=None)
def test_phases_match_the_arccos_reference(table):
    _assert_phases_match_the_arccos_reference(table)


def test_phase_at_a_rounding_deviation_matches_the_arccos_reference():
    # row m's deviation, -2.2e-16 against an average of 0.75, is rounding and
    # reads 0; taken as it is, a closing coefficient near 3e-6 would magnify
    # it into a phase 6e-9 degrees off 90
    table = make_table(
        [8.739743153875479e-12, 0.9999999999912603],
        [0.5, 0.5],
        [0.25000000000437017, 0.7499999999956299],
    )
    _assert_phases_match_the_arccos_reference(table)


@given(feasible_tables())
@settings(max_examples=60, deadline=None)
def test_classification_consistent_with_phase(table):
    solution = solve_feasible(table)
    # the label is the sign of cos phi_k outside 1e-12 of zero, at m too,
    # and that sign is the deviation's
    labels = classify_exemplars(solution)
    for (k, label), phi, d in zip(labels, solution.phi_deg, solution.deviations):
        cosine = math.cos(math.radians(phi))
        if label is Classification.WEAKENING:
            assert cosine < -1e-12 and abs(phi) > 90.0 and d < 0.0
        elif label is Classification.STRENGTHENING:
            assert cosine > 1e-12 and abs(phi) < 90.0 and d > 0.0
        else:
            assert abs(cosine) <= 1e-12


@given(feasible_tables(min_n=3, max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_permutation_equivariance(table, rng):
    solution = solve_feasible(table)
    magnitudes = np.abs(solution.lambdas)
    if len(np.unique(magnitudes)) != len(magnitudes):
        return  # ties make the visit order depend on labels
    order = list(range(table.n))
    rng.shuffle(order)
    permuted = make_table(
        [table.mu_a[i] for i in order],
        [table.mu_b[i] for i in order],
        [table.mu_ab[i] for i in order],
    )
    permuted_solution = solve_feasible(permuted)
    assert permuted_solution.m == order.index(solution.m - 1) + 1
    assert permuted_solution.c_m == pytest.approx(solution.c_m, abs=1e-12)
    for position, original in enumerate(order):
        assert permuted_solution.lambdas[position] == solution.lambdas[original]
        assert permuted_solution.phi_deg[position] == pytest.approx(
            solution.phi_deg[original], abs=1e-9
        )
    original_labels = dict(classify_exemplars(solution))
    permuted_labels = dict(classify_exemplars(permuted_solution))
    for position, original in enumerate(order):
        assert permuted_labels[position + 1] == original_labels[original + 1]


@given(feasible_tables())
@settings(max_examples=60, deadline=None)
def test_reconstruction_error_matches_projector_reference(table):
    solution = solve_feasible(table)
    layout = ProjectorLayout(table.n, solution.m)
    superposed = solution.vector_a + solution.vector_b
    reference = max(
        abs(0.5 * reference_probability(layout, k, superposed) - table.mu_ab[k - 1])
        for k in range(1, table.n + 1)
    )
    report = measure_residuals(solution.vector_a, solution.vector_b, table, layout)
    assert report.max_reconstruction_error == reference

