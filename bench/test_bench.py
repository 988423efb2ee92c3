"""Tests of the benchmark's own code: inputs, output checks and spans.

Run from the root of a checkout: ``python3 -m pytest -q bench``.
"""

import json
import math
import time

import numpy as np
import pytest

import checks
import inputs
import workloads
from spans import Tracer

workloads.import_package()
ci, cli = workloads.ci, workloads.cli
NULL = workloads.NULL

SEEDS = (1, 2, 3)


def _solved(generated):
    table = ci.validate_and_normalize(ci.parse_table(generated.to_csv()))
    return table, ci.solve(table)


@pytest.fixture(scope="module")
def small_tables():
    return {seed: inputs.many_small_inputs(seed, count=200) for seed in SEEDS}


def test_same_seed_same_inputs_and_other_seed_other_inputs(small_tables):
    assert inputs.many_small_inputs(1, count=200) == small_tables[1]
    assert small_tables[1] != small_tables[2]
    assert inputs.table_scale_input(7, n=300) == inputs.table_scale_input(7, n=300)
    assert inputs.table_scale_input(7, n=300).to_csv() != inputs.table_scale_input(8, n=300).to_csv()


def test_tables_are_probability_columns_with_distinct_tops(small_tables):
    for tables in small_tables.values():
        for t in tables:
            for column in (t.mu_a, t.mu_b, t.mu_ab):
                assert all(0.0 <= x <= 1.0 for x in column)
                assert math.fsum(column) == pytest.approx(1.0, abs=1e-12)
            assert np.argmax(t.mu_a) != np.argmax(t.mu_b)
            assert "np.float64" not in t.to_csv()


def test_feasible_tables_solve_verify_and_render(small_tables):
    for tables in small_tables.values():
        for generated in tables:
            if generated.planted_row is not None:
                continue
            table, solution = _solved(generated)
            report = cli.build_solve_report(table, table, solution)
            assert checks.check_solve_report(report, generated) == []
            residuals = ci.verify_solution(solution, table)
            mu_ab = np.array(generated.mu_ab)
            assert checks.check_residuals(
                residuals, solution.vector_a, solution.vector_b, mu_ab, solution.m
            ) == []
            placements, _, _, grids, pgms, _ = workloads.lib_render(NULL, table, solution, 16)
            assert checks.check_rendered(placements, grids, pgms, generated, 16) == []
            assert checks.check_classification(ci.classify_exemplars(solution), generated) == []


def test_planted_tables_raise_and_name_their_row(small_tables):
    planted = [t for tables in small_tables.values() for t in tables if t.planted_row]
    assert len(planted) == 20 * len(SEEDS)
    for generated in planted:
        table = ci.validate_and_normalize(ci.parse_table(generated.to_csv()))
        with pytest.raises(ci.InfeasibilityError) as raised:
            ci.solve(table)
        rows = [index for index, _ in raised.value.report.infeasible_exemplars]
        assert rows == [generated.planted_row]
        report = cli.build_infeasible_report(table, table, raised.value)
        assert checks.check_infeasible_report(report, generated) == []


def test_untraced_library_table_counts_no_failure(small_tables):
    tally = workloads.Tally()
    for generated in small_tables[1][:30]:
        workloads.library_table(NULL, tally, generated.to_csv(), generated, 16)
    assert tally.failed == 0, tally.problems
    assert tally.infeasible == tally.planted == 3


@pytest.fixture()
def cli_outputs(tmp_path):
    """A solve report and a render directory written by the in-process CLI."""
    generated = inputs.many_small_inputs(4, count=1)[0]
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(generated.to_csv())
    for command in ("solve", "render"):
        argv = workloads.cli_argv(command, csv_path, 12)
        assert workloads.cli_main_in_process(argv)[1] == 0
    return generated, tmp_path


def test_check_rejects_a_perturbed_phase(cli_outputs):
    generated, out = cli_outputs
    report = json.loads((out / "report.json").read_text())
    assert checks.check_solve_report(report, generated) == []
    report["exemplars"][0]["phi_deg"] += 1.0
    assert checks.check_solve_report(report, generated)


def test_check_rejects_a_flipped_pgm_byte(cli_outputs):
    generated, out = cli_outputs
    assert checks.check_render_dir(out / "render", generated, 12) == []
    path = out / "render" / "interference.pgm"
    data = bytearray(path.read_bytes())
    data[-40] ^= 0x80
    path.write_bytes(bytes(data))
    assert checks.check_render_dir(out / "render", generated, 12)


def test_check_rejects_a_truncated_csv_row(cli_outputs):
    generated, out = cli_outputs
    path = out / "render" / "classical.csv"
    lines = path.read_text().split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0]
    path.write_text("\n".join(lines))
    assert checks.check_render_dir(out / "render", generated, 12)


def test_check_rejects_a_misfiled_classify_row(tmp_path):
    generated = inputs.many_small_inputs(5, count=1)[0]
    table, solution = _solved(generated)
    labels = ci.classify_exemplars(solution)
    listing = workloads.classify_listing(NULL, table, solution, labels)
    assert checks.check_classify_listing(listing, generated) == []
    lines = listing.splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith("  ")]
    first, last = rows[0], rows[-1]
    lines[first], lines[last] = lines[last], lines[first]
    assert checks.check_classify_listing("\n".join(lines), generated)


def test_check_rejects_verify_output_over_threshold():
    good = "\n".join(
        f"{key} = 1.0e-16"
        for key in ("orthogonality_modulus", "norm_a_error", "norm_b_error", "max_reconstruction_error")
    ) + "\nmodel verified: residuals reproduced and under thresholds\n"
    assert checks.check_verify_output(0, good) == []
    assert checks.check_verify_output(0, good.replace("norm_a_error = 1.0e-16", "norm_a_error = 2.0e-09"))
    assert checks.check_verify_output(2, good)


def test_span_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        tracer.call("leaf", time.sleep, 0.01)
    outer, inner, leaf = tracer.spans
    assert inner.parent == 0 and leaf.parent == 0 and outer.parent is None
    own = tracer.self_times()
    assert own[0] == pytest.approx(outer.duration - inner.duration - leaf.duration)
    assert own[0] < 0.005 <= own[2]
    assert tracer.root_durations(0) == {"outer": outer.duration}
