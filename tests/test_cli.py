import argparse
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concept_interference import (
    InfeasibilityError,
    PhaseField,
    cli,
    parse_table,
    solve,
    validate_and_normalize,
    wavefield,
)
from concept_interference.cli import (
    _CHUNK_ROWS,
    _Columns,
    _column_report,
    _write_report,
    build_infeasible_report,
    build_solve_report,
    main,
)
from concept_interference.dataset import fruits_vegetables_csv

from conftest import DiscardingSink, feasible_tables, make_table, solve_feasible

INFEASIBLE_CSV = (
    "exemplar,mu_a,mu_b,mu_ab\n"
    "bad,0.01,0.01,0.5\n"
    "okA,0.5,0.5,0.3\n"
    "okB,0.49,0.49,0.2\n"
)

CLASSICAL_CSV = (
    "exemplar,mu_a,mu_b,mu_ab\n"
    "one,0.5,0.3,0.4\n"
    "two,0.5,0.7,0.6\n"
)


def _edited(edit):
    """A report corruption that edits the solved report in place."""

    def corrupt(report):
        edit(report)
        return report

    return corrupt


def _scale_vector_a(report, scale):
    for pair in report["vector_a"]:
        pair.update(re=pair["re"] * scale, im=pair["im"] * scale)


_SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308)
# any float, the non-finite ones and -0.0 and subnormals for sure, and the
# scalars json writes through its general path
_VALUES = (
    st.floats()
    | st.sampled_from(_SPECIAL_FLOATS)
    | st.integers()
    | st.none()
    | st.booleans()
)
_ROW_FLOAT_KEYS = (
    "mu_a", "mu_b", "mu_ab", "average", "deviation",
    "lambda", "phi_deg", "beta_deg", "c", "radicand", "re", "im",
)


def _infeasible_args():
    """(raw, table, None, error) of INFEASIBLE_CSV, as the CLI's solve has them."""
    raw = parse_table(INFEASIBLE_CSV)
    table = validate_and_normalize(raw)
    with pytest.raises(InfeasibilityError) as info:
        solve(table)
    return raw, table, None, info.value


def _replaced(column, draw):
    """A copy of ``column`` with some values replaced by drawn scalars."""
    column = list(column)
    indices = st.integers(0, len(column) - 1)
    for index, value in draw(st.dictionaries(indices, _VALUES)).items():
        column[index] = value
    return column


@st.composite
def reports(draw):
    """Solve and infeasible reports in column form, with names from
    st.text() and some column values replaced by drawn floats and other
    scalars; phi_deg and beta_deg stay one list unless either is drawn."""
    if draw(st.booleans()):
        report = _column_report(*_infeasible_args())
    else:
        table = draw(feasible_tables())
        report = _column_report(table, table, solve_feasible(table), None)
    members = [value for value in report.values() if isinstance(value, _Columns)]
    for columns in members:
        if "name" in columns:
            columns["name"] = [draw(st.text()) for _ in columns["name"]]
        for key in [key for key in _ROW_FLOAT_KEYS if key in columns]:
            if draw(st.booleans()):
                columns[key] = _replaced(columns[key], draw)
    for row in report["feasibility"]["infeasible_exemplars"]:
        row.update(name=draw(st.text()), radicand=draw(_VALUES))
    if draw(st.booleans()):
        report["c_m"] = draw(_VALUES)
    return report


def _rows(columns: dict) -> list[dict]:
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _written(write, value) -> str:
    """What ``write(value, out)`` writes to a text buffer."""
    out = io.StringIO()
    write(value, out)
    return out.getvalue()


@settings(max_examples=80, deadline=None)
@given(reports())
def test_encoder_writes_json_dumps_bytes(report):
    expanded = {
        key: _rows(value) if isinstance(value, _Columns) else value
        for key, value in report.items()
    }
    assert _written(_write_report, report) == json.dumps(expanded, indent=2) + "\n"


# lists of flat rows with JSON scalar values, which the encoder writes from
# their columns whatever their mix of kinds
_SCALAR_ROWS = [
    [{"a": 1.5}, {"a": math.nan}],
    [{"a": math.inf}, {"a": -math.inf}],
    [{"a": 1.5}, {"a": None}],
    [{"a": 1.5}, {"a": True}],
    [{"a": 1}, {"a": 2.5}],
    [{"a": "raw\nnewline", "b": "},\n      {"}],
    [{"a": 1}],
    [{"a": -0.0}, {"a": 1e308}],
    [{"a": True, "b": False}, {"a": 1, "b": 0}],
    [{"100%": 1.0, "%s": "x"}, {"100%": "%s", "%s": "%%"}],
]


@pytest.mark.parametrize("rows", _SCALAR_ROWS, ids=repr)
def test_encoder_writes_scalar_rows_row_by_row(rows):
    columns = _Columns({key: [row[key] for row in rows] for key in rows[0]})
    assert _written(_Columns.write, columns) == json.dumps(rows, indent=2).replace("\n", "\n  ")


def test_encoder_writes_a_shared_column_under_each_key():
    """One list under two keys, on each side of the chunk boundaries."""
    for length in (4, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1):
        shared = [0.1, -0.0, math.nan, 1e308] + [k / 7 for k in range(4, length)]
        rows = [{"a": v, "b": v, "c": i} for i, v in enumerate(shared)]
        columns = _Columns(a=shared, b=shared, c=list(range(length)))
        want = json.dumps(rows, indent=2).replace("\n", "\n  ")
        assert _written(_Columns.write, columns) == want, length


def test_report_writer_memory_does_not_grow_with_rows():
    """An n = 20,000 report, about 11 MB of text, is written a few chunks
    of rows at a time."""
    n = 20_000
    rng = np.random.default_rng(5)
    mu_a, mu_b = (w / w.sum() for w in rng.uniform(0.05, 1.0, (2, n)))
    deviations = 0.5 * np.sqrt(mu_a * mu_b) * np.resize([1.0, -1.0], n)
    mu_ab = 0.5 * (mu_a + mu_b) + deviations - deviations.sum() / n
    table = validate_and_normalize(make_table(mu_a, mu_b, mu_ab))
    report = _column_report(table, table, solve(table), None)
    sink = DiscardingSink()
    tracemalloc.start()
    try:
        _write_report(report, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 10 * 2**20
    assert peak < 2 * 2**20, peak


# characters str.splitlines breaks a line at, which no name in a CSV holds
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_CSV_NAMES = st.text(
    st.sampled_from('%"\\\x00\x07\t\x7fé→')
    | st.characters(codec="utf-8", exclude_characters=_LINE_BREAKS),
    min_size=1,
    max_size=8,
).filter(lambda name: name == name.strip() and not name.startswith("#"))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_writes_json_dumps_of_the_report_dict(tmp_path_factory, data):
    """CLI solve writes json.dumps(build_..._report(...), indent=2) + "\\n",
    to the -o file and to stdout, for feasible and infeasible tables."""
    if data.draw(st.booleans()):
        table = data.draw(feasible_tables())
        columns = (table.mu_a.tolist(), table.mu_b.tolist(), table.mu_ab.tolist())
    else:
        columns = ([0.01, 0.5, 0.49], [0.01, 0.5, 0.49], [0.5, 0.3, 0.2])
    n = len(columns[0])
    names = data.draw(st.lists(_CSV_NAMES, min_size=n, max_size=n, unique=True))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("exemplar", "mu_a", "mu_b", "mu_ab"))
    writer.writerows(zip(names, *(map(repr, column) for column in columns)))
    raw = parse_table(buffer.getvalue())
    table = validate_and_normalize(raw)
    assert table.names == tuple(names)
    try:
        report = build_solve_report(raw, table, solve_feasible(table))
    except InfeasibilityError as error:
        report = build_infeasible_report(raw, table, error)
    want = json.dumps(report, indent=2) + "\n"
    directory = tmp_path_factory.mktemp("solve")
    (directory / "table.csv").write_text(buffer.getvalue(), encoding="utf-8")
    argv = ["solve", str(directory / "table.csv")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
        assert main([*argv, "-o", str(directory / "report.json")]) == status
    assert status == (0 if report["vector_a"] else 2)
    assert stdout.getvalue() == want
    assert (directory / "report.json").read_text(encoding="utf-8") == want


@pytest.mark.parametrize(
    "value",
    [
        [],
        [{}],
        [{"a": [1, 2]}],
        [{"a": [5]}],
        [{"a": {"b": 1}}],
        [{"a": (1.5,)}],
        [{"a": 1}, {"b": 2}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
        [{"a": 1}, 3],
        [{1: "integer key"}],
        [{"100%": 1.0, "%s": "x"}],
        [{"a": 1e308}, {"a": 1e308}],
        [{"a": True}, {"a": 1}],
        {"nested": [{"a": 1}]},
        "text",
        *_SCALAR_ROWS,
    ],
    ids=repr,
)
def test_encoder_falls_back_on_other_values(value):
    report = {"value": value, "after": None}
    assert _written(_write_report, report) == json.dumps(report, indent=2) + "\n"


@pytest.fixture()
def dataset_path(tmp_path):
    path = tmp_path / "fruits_vegetables.csv"
    path.write_text(fruits_vegetables_csv(), encoding="utf-8")
    return path


class TestSolveCommand:
    def test_solve_reference_dataset(self, dataset_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        status = main(["solve", str(dataset_path), "-o", str(report_path)])
        assert status == 0
        report = json.loads(report_path.read_text())
        assert report["m"] == 19
        assert abs(report["exemplars"][18]["lambda"] - 0.0768) <= 5e-4
        assert abs(report["c_m"] - 0.7997) <= 5e-3
        assert report["dataset"]["label_a"] == "Fruits"
        assert report["feasibility"]["infeasible_exemplars"] == []
        assert capsys.readouterr().err == ""

    def test_solve_writes_to_stdout_without_output_flag(
        self, dataset_path, capsys
    ):
        status = main(["solve", str(dataset_path)])
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        assert report["m"] == 19

    def test_report_round_trips_losslessly(self, dataset_path, tmp_path):
        report_path = tmp_path / "report.json"
        main(["solve", str(dataset_path), "-o", str(report_path)])
        first = json.loads(report_path.read_text())
        second = json.loads(json.dumps(first))
        assert first == second
        # the parsed values are bitwise the solver's values, not approximations
        from concept_interference import fruits_vegetables, solve, validate_and_normalize

        solution = solve(validate_and_normalize(fruits_vegetables()))
        assert [row["lambda"] for row in first["exemplars"]] == list(
            solution.lambdas
        )
        assert first["c_m"] == solution.c_m
        assert [p["re"] for p in first["vector_b"]] == list(
            solution.vector_b.real
        )
        assert [p["im"] for p in first["vector_b"]] == list(
            solution.vector_b.imag
        )

    def test_missing_input_exits_1(self, tmp_path, capsys):
        status = main(["solve", str(tmp_path / "missing.csv")])
        assert status == 1
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "classify", "render", "verify"])
    def test_undecodable_input_exits_1(self, dataset_path, tmp_path, capsys, command):
        # a Latin-1 "e acute" (0xe9) or "u umlaut" (0xfc) is not UTF-8
        text = b"exemplar,mu_a,mu_b,mu_ab\nCaf\xe9,0.5,0.5,0.5\nB,0.5,0.5,0.5\n"
        path = tmp_path / "latin1.csv"
        argv = [str(path)] + (["-o", str(tmp_path / "out")] if command == "render" else [])
        if command == "verify":
            assert main(["solve", str(dataset_path), "-o", str(path)]) == 0
            text = path.read_bytes().replace(b'"Fruits"', b'"Fr\xfcits"')
        path.write_bytes(text)
        assert main([command, *argv]) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: 'utf-8' codec can't decode byte 0x")
        assert "Traceback" not in error
        assert not (tmp_path / "out").exists()

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("exemplar,mu_a,mu_b,mu_ab\nA,0.5,zzz,0.5\n")
        status = main(["solve", str(path)])
        assert status == 1
        assert "line 2" in capsys.readouterr().err

    def test_label_starting_with_the_comment_marker_exits_1(self, tmp_path, capsys):
        path = tmp_path / "label.csv"
        path.write_text(
            "# label_a: #Fruits\nexemplar,mu_a,mu_b,mu_ab\nA,0.5,0.5,0.5\nB,0.5,0.5,0.5\n"
        )
        assert main(["solve", str(path), "-o", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == (
            "error: label_a '#Fruits' starts with the comment marker '#'\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_out_of_tolerance_sum_exits_1(self, tmp_path, capsys):
        path = tmp_path / "half.csv"
        path.write_text("exemplar,mu_a,mu_b,mu_ab\nA,0.2,0.5,0.5\nB,0.3,0.5,0.5\n")
        status = main(["solve", str(path)])
        assert status == 1
        assert "mu_a" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "render", "classify"])
    def test_table_commands_share_input_and_tolerance(self, command):
        parser = cli._build_parser()
        args = parser.parse_args([command, "table.csv", "--tolerance", "0.1"])
        assert (args.input, args.tolerance) == ("table.csv", 0.1)
        sub = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert "column-sum tolerance" in sub.choices[command].format_help()

    def test_tolerance_flag_relaxes_the_check(self, tmp_path):
        path = tmp_path / "off.csv"
        path.write_text("exemplar,mu_a,mu_b,mu_ab\nA,0.45,0.5,0.5\nB,0.5,0.45,0.45\n")
        assert main(["solve", str(path)]) == 1
        assert main(["solve", str(path), "--tolerance", "0.1", "-o",
                     str(tmp_path / "r.json")]) == 0

    def test_infeasible_row_exits_2_and_names_row(
        self, tmp_path, capsys
    ):
        path = tmp_path / "infeasible.csv"
        path.write_text(INFEASIBLE_CSV)
        report_path = tmp_path / "report.json"
        status = main(["solve", str(path), "-o", str(report_path)])
        assert status == 2
        err = capsys.readouterr().err
        assert "bad" in err
        report = json.loads(report_path.read_text())
        assert report["m"] is None
        assert report["vector_a"] is None
        rows = report["feasibility"]["infeasible_exemplars"]
        assert len(rows) == 1
        assert rows[0]["index"] == 1
        assert rows[0]["name"] == "bad"
        assert rows[0]["radicand"] < 0.0

    def test_classically_additive_data_exits_2(self, tmp_path, capsys):
        # zero deviations everywhere and off-m magnitudes (0.3, 0.3) that
        # cancel each other exactly in the greedy pass, so c_m = 0
        path = tmp_path / "classical.csv"
        path.write_text(
            "exemplar,mu_a,mu_b,mu_ab\n"
            "one,0.4,0.4,0.4\ntwo,0.3,0.3,0.3\nthree,0.3,0.3,0.3\n"
        )
        status = main(["solve", str(path), "-o", str(tmp_path / "r.json")])
        assert status == 2
        assert "classically additive" in capsys.readouterr().err

    @pytest.mark.parametrize("mu_ab", ["1e-200", "2e-200"])
    def test_underflowing_marginal_product_exits_1(self, tmp_path, capsys, mu_ab):
        # mu_a * mu_b = 1e-400 underflows to 0, so x has no defined phase
        # whether or not its deviation is zero
        path = tmp_path / "tiny.csv"
        path.write_text(
            "exemplar,mu_a,mu_b,mu_ab\n"
            f"a,0.6,0.4,0.45\nb,0.4,0.6,0.55\nx,1e-200,1e-200,{mu_ab}\n"
        )
        status = main(["solve", str(path), "-o", str(tmp_path / "r.json")])
        assert status == 1
        err = capsys.readouterr().err
        assert "exemplar 3 (x)" in err
        assert "marginal product" in err
        assert not (tmp_path / "r.json").exists()

    def test_report_is_canonical_indented_json(self, dataset_path, capsys):
        assert main(["solve", str(dataset_path)]) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_byte_identical_reruns(self, dataset_path, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        main(["solve", str(dataset_path), "-o", str(first)])
        main(["solve", str(dataset_path), "-o", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_usage_error_exits_1(self, capsys):
        assert main(["solve"]) == 1
        assert main(["frobnicate"]) == 1
        capsys.readouterr()
        assert main([]) == 1
        assert capsys.readouterr().err == (
            "error: the following arguments are required: command\n"
        )
        assert main(["render", "table.csv", "--phase-constant", "abc"]) == 1
        assert capsys.readouterr().err == (
            "error: argument --phase-constant: invalid float value: 'abc'\n"
        )

    def test_residual_over_threshold_exits_2(
        self, dataset_path, tmp_path, capsys, monkeypatch
    ):
        # an absurdly strict threshold trips the residual gate of both
        # commands; solve still writes its report
        monkeypatch.setattr(cli, "RESIDUAL_THRESHOLD", 1e-30)
        report_path = tmp_path / "r.json"
        assert main(["solve", str(dataset_path), "-o", str(report_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("model residuals over thresholds: orthogonality_modulus")
        assert "> 1e-30" in err
        assert main(["verify", str(report_path)]) == 2
        err = capsys.readouterr().err
        assert "verification failed: orthogonality_modulus = " in err
        assert "over threshold 1e-30" in err

    def test_unwritable_output_exits_1(self, dataset_path, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "r.json"
        assert main(["solve", str(dataset_path), "-o", str(target)]) == 1
        capsys.readouterr()


class TestVerifyCommand:
    def test_verify_reproduces_residuals(self, dataset_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(["solve", str(dataset_path), "-o", str(report_path)])
        status = main(["verify", str(report_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "orthogonality_modulus" in out
        assert "verified" in out

    def test_verify_detects_tampering(self, dataset_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(["solve", str(dataset_path), "-o", str(report_path)])
        report = json.loads(report_path.read_text())
        report["vector_b"][3]["re"] *= 1.5
        report_path.write_text(json.dumps(report))
        status = main(["verify", str(report_path)])
        assert status == 2
        assert "verification failed" in capsys.readouterr().err

    def test_verify_compares_each_stored_residual(self, dataset_path, tmp_path, capsys):
        # 5e-10 is under the threshold, but more than 1e-12 from the
        # recomputed residual
        report_path = tmp_path / "report.json"
        main(["solve", str(dataset_path), "-o", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["residuals"]["orthogonality_modulus"] < 1e-12
        report["residuals"]["orthogonality_modulus"] = 5e-10
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify", str(report_path)]) == 2
        assert capsys.readouterr().err == (
            "verification failed: orthogonality_modulus differs from the "
            "stored value 5e-10\n"
        )

    @pytest.mark.parametrize(
        "corrupt",
        [
            _edited(lambda report: report["vector_b"][0].update(re=math.nan)),
            _edited(
                lambda report: (
                    report["vector_b"][0].update(re=math.nan),
                    report["residuals"].update(
                        dict.fromkeys(report["residuals"], math.nan)
                    ),
                )
            ),
        ],
        ids=["nan-coordinate", "nan-coordinate-and-residuals"],
    )
    def test_verify_rejects_nan(self, dataset_path, tmp_path, capsys, corrupt):
        report_path = tmp_path / "report.json"
        main(["solve", str(dataset_path), "-o", str(report_path)])
        report = json.loads(report_path.read_text())
        report_path.write_text(json.dumps(corrupt(report)))
        assert main(["verify", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert "verification failed" in captured.err
        assert "model verified" not in captured.out

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200, math.nan])
    def test_verify_fails_vector_outside_normal_range(
        self, dataset_path, tmp_path, capsys, scale
    ):
        # the squared norm of such a vector underflows, overflows or is NaN,
        # and whatever its norm rounds to, it is far from 1
        report_path = tmp_path / "report.json"
        main(["solve", str(dataset_path), "-o", str(report_path)])
        report = json.loads(report_path.read_text())
        _scale_vector_a(report, scale)
        report_path.write_text(json.dumps(report))
        assert main(["verify", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert re.search(
            r"verification failed: norm_a_error = \S+ over threshold 1e-09",
            captured.err,
        )
        assert "model verified" not in captured.out

    def test_verify_equal_infinities_agree(self, dataset_path, tmp_path, capsys):
        # the squares of the superposed state overflow, so the recomputed
        # reconstruction error is inf, which the stored Infinity matches
        report_path = tmp_path / "report.json"
        main(["solve", str(dataset_path), "-o", str(report_path)])
        report = json.loads(report_path.read_text())
        _scale_vector_a(report, 1e200)
        report["residuals"]["max_reconstruction_error"] = math.inf
        report_path.write_text(json.dumps(report))
        assert main(["verify", str(report_path)]) == 2
        err = capsys.readouterr().err
        assert "max_reconstruction_error = inf over threshold 1e-09" in err
        assert "max_reconstruction_error differs" not in err

    def test_verify_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.json")]) == 1
        capsys.readouterr()

    def test_verify_non_json_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("not json\n")
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: Expecting value: line 1 column 1 (char 0)\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_edited(lambda report: report["residuals"].pop("norm_a_error")), ""),
            (
                _edited(lambda report: report["vector_a"].pop()),
                ": ValidationError('state vector has shape (24,), layout needs "
                "25 coordinates')",
            ),
            (
                _edited(lambda report: (report["vector_a"].pop(), report["vector_b"].pop())),
                "",
            ),
            (_edited(lambda report: report["exemplars"].pop()), ""),
            # a JSON number, but no float holds it
            (_edited(lambda report: report["vector_b"][0].update(re=10**400)), ""),
            (lambda report: [], ""),
            (lambda report: "text", ""),
            (
                _edited(lambda report: report["dataset"].update(notes="abc")),
                ": ValidationError(\"notes must be a list of texts, got 'abc'\")",
            ),
            (
                _edited(lambda report: report.update(m=True)),
                ": ValidationError('m must be an integer in 1..24, got True')",
            ),
            (
                _edited(lambda report: report.update(m=0)),
                ": ValidationError('m must be an integer in 1..24, got 0')",
            ),
            (
                _edited(lambda report: report.update(m=len(report["exemplars"]) + 1)),
                ": ValidationError('m must be an integer in 1..24, got 25')",
            ),
        ],
        ids=[
            "missing-residual",
            "short-vector-a",
            "short-vectors",
            "missing-row",
            "integer-beyond-float",
            "top-level-list",
            "top-level-string",
            "notes-as-text",
            "bool-m",
            "m-0",
            "m-past-n",
        ],
    )
    def test_verify_malformed_report_exits_1(
        self, dataset_path, tmp_path, capsys, corrupt, message
    ):
        report_path = tmp_path / "report.json"
        main(["solve", str(dataset_path), "-o", str(report_path)])
        report = json.loads(report_path.read_text())
        report_path.write_text(json.dumps(corrupt(report)))
        assert main(["verify", str(report_path)]) == 1
        assert "malformed report" + message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda report: report.update(m=report["m"] + 0.9),
            lambda report: report.update(m=str(report["m"])),
            lambda report: report["exemplars"][0].update(index=True),
            lambda report: report["exemplars"][0].update(index=1.0),
            lambda report: report["exemplars"][0].update(
                mu_a=repr(report["exemplars"][0]["mu_a"])
            ),
            lambda report: report["vector_a"][0].update(im=False),
            lambda report: report["residuals"].update(orthogonality_modulus=False),
            lambda report: report["residuals"].update(
                norm_a_error=repr(report["residuals"]["norm_a_error"])
            ),
        ],
        ids=[
            "float-m",
            "string-m",
            "bool-index",
            "float-index",
            "string-mu-a",
            "bool-vector-im",
            "bool-residual",
            "string-residual",
        ],
    )
    def test_verify_rejects_wrong_json_types(
        self, dataset_path, tmp_path, capsys, edit
    ):
        # each edit names the same number in another JSON type, which Python
        # would read back as the original value
        report_path = tmp_path / "report.json"
        main(["solve", str(dataset_path), "-o", str(report_path)])
        report = json.loads(report_path.read_text())
        edit(report)
        report_path.write_text(json.dumps(report))
        assert main(["verify", str(report_path)]) == 1
        captured = capsys.readouterr()
        assert "malformed report" in captured.err
        assert "model verified" not in captured.out

    def test_verify_infeasible_report_exits_1(self, tmp_path, capsys):
        path = tmp_path / "infeasible.csv"
        path.write_text(INFEASIBLE_CSV)
        report_path = tmp_path / "report.json"
        main(["solve", str(path), "-o", str(report_path)])
        capsys.readouterr()
        assert main(["verify", str(report_path)]) == 1
        assert capsys.readouterr().err == (
            "error: report carries no model vectors (infeasible run?)\n"
        )

    @pytest.mark.parametrize("key", ["vector_a", "vector_b"])
    def test_verify_report_without_one_vector_exits_1(
        self, dataset_path, tmp_path, capsys, key
    ):
        report_path = tmp_path / "report.json"
        main(["solve", str(dataset_path), "-o", str(report_path)])
        report = json.loads(report_path.read_text())
        report[key] = None
        report_path.write_text(json.dumps(report))
        assert main(["verify", str(report_path)]) == 1
        assert capsys.readouterr().err == (
            "error: report carries no model vectors (infeasible run?)\n"
        )


class TestClassifyCommand:
    def test_sections_and_extremes(self, dataset_path, capsys):
        status = main(["classify", str(dataset_path)])
        assert status == 0
        out = capsys.readouterr().out
        weakening_at = out.index("Weakening (14")
        strengthening_at = out.index("Strengthening (10")
        assert weakening_at < strengthening_at
        weakening_block = out[weakening_at:strengthening_at]
        strengthening_block = out[strengthening_at:]
        # extremes head their sections
        assert weakening_block.splitlines()[1].split()[0] == "Elderberry"
        assert strengthening_block.splitlines()[1].split()[0] == "Mushroom"
        assert "Watercress" in strengthening_block
        assert "Classical" not in out

    def test_watercress_note_emitted(self, dataset_path, capsys):
        main(["classify", str(dataset_path)])
        out = capsys.readouterr().out
        assert "note:" in out
        assert "Watercress" in out.split("note:")[1]

    def test_infeasible_table_exits_2(self, tmp_path, capsys):
        path = tmp_path / "infeasible.csv"
        path.write_text(INFEASIBLE_CSV)
        assert main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "infeasible: interference magnitude is undefined (negative radicand) "
            "for exemplar(s) 1 (bad): the deviation exceeds the geometric mean "
            "of the marginals\n"
        )
        assert captured.out == ""

    def test_all_classical_table(self, tmp_path, capsys):
        path = tmp_path / "classical.csv"
        path.write_text(CLASSICAL_CSV)
        status = main(["classify", str(path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "Classical (2 exemplar(s))" in out
        assert "Weakening (0" in out


class TestRenderCommand:
    def test_render_writes_all_outputs(self, dataset_path, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        status = main(
            ["render", str(dataset_path), "-o", str(out_dir), "--resolution", "64"]
        )
        assert status == 0
        assert capsys.readouterr().out == f"wrote 9 files to {out_dir}\n"
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "a_only.csv", "a_only.pgm", "b_only.csv", "b_only.pgm",
            "classical.csv", "classical.pgm", "interference.csv",
            "interference.pgm", "placements.csv",
        ]
        placements = (out_dir / "placements.csv").read_text().splitlines()
        assert placements[0] == "exemplar,x,y,residual"
        apple = next(line for line in placements if line.startswith("Apple"))
        assert apple == "Apple,0.0,0.0,0.0"
        broccoli = next(line for line in placements if line.startswith("Broccoli"))
        assert broccoli == "Broccoli,10.0,4.0,0.0"

    def test_render_writes_into_landscapes_by_default(
        self, dataset_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["render", str(dataset_path), "--resolution", "4"]) == 0
        assert capsys.readouterr().out == "wrote 9 files to landscapes\n"
        assert len(list((tmp_path / "landscapes").iterdir())) == 9

    def test_phase_constant_90_matches_classical_byte_for_byte(
        self, dataset_path, tmp_path
    ):
        out_dir = tmp_path / "figs90"
        status = main(
            [
                "render", str(dataset_path), "-o", str(out_dir),
                "--resolution", "96", "--phase-constant", "90",
            ]
        )
        assert status == 0
        assert (out_dir / "interference.pgm").read_bytes() == (
            out_dir / "classical.pgm"
        ).read_bytes()
        assert (out_dir / "interference.csv").read_bytes() == (
            out_dir / "classical.csv"
        ).read_bytes()

    def test_resolution_below_2_exits_1(self, dataset_path, tmp_path, capsys):
        status = main(
            ["render", str(dataset_path), "-o", str(tmp_path / "x"),
             "--resolution", "1"]
        )
        assert status == 1
        assert capsys.readouterr().err == (
            "error: resolution must be at least 2x2, got (1, 1)\n"
        )
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--window=-inf,1,0,1"], "is not finite"),
            (["--window=-1e308,1e308,0,1"], "is not finite"),  # width overflows
            (["--phase-constant", "nan"], "error: phase nan of node 1 is not finite"),
            (["--phase-constant", "inf"], "error: phase inf of node 1 is not finite"),
        ],
        ids=["infinite-bound", "overflowing-width", "nan-phase", "inf-phase"],
    )
    def test_non_finite_input_exits_1(
        self, dataset_path, tmp_path, capsys, flags, message
    ):
        out_dir = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(["render", str(dataset_path), "-o", str(out_dir), *flags])
        assert status == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_custom_window_and_centers(self, dataset_path, tmp_path):
        out_dir = tmp_path / "custom"
        status = main(
            [
                "render", str(dataset_path), "-o", str(out_dir),
                "--resolution", "32",
                "--centers", "0,0,8,0",
                "--window=-10,18,-12,12",  # '=' form: the value starts with '-'
            ]
        )
        assert status == 0
        header = (out_dir / "a_only.csv").read_text().splitlines()[0]
        assert header == "-10.0,18.0,-12.0,12.0,32,32"

    def test_default_centers_are_the_library_centers(self, dataset_path, tmp_path):
        # the default of --centers is parsed like any given value
        base = ["render", str(dataset_path), "--resolution", "16", "-o"]
        assert main([*base, str(tmp_path / "default")]) == 0
        assert main([*base, str(tmp_path / "given"), "--centers=0,0,10,4"]) == 0
        files = sorted(p.name for p in (tmp_path / "default").iterdir())
        assert len(files) == 9
        for name in files:
            assert (tmp_path / "default" / name).read_bytes() == (
                tmp_path / "given" / name
            ).read_bytes()

    def test_help_states_the_default_centers(self):
        sub = next(
            action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        help_text = " ".join(sub.choices["render"].format_help().split())
        assert "field centers (default 0.0,0.0,10.0,4.0)" in help_text

    def test_marginal_without_level_curve_exits_1(self, tmp_path, capsys):
        # 1 / (1e-320 / 0.7) overflows, so exemplar C has no place to render
        path = tmp_path / "tiny.csv"
        path.write_text(
            "exemplar,mu_a,mu_b,mu_ab\n"
            "A,0.7,0.1,0.45\nB,0.3,0.6,0.4\nC,1e-320,0.3,0.15\n"
        )
        out_dir = tmp_path / "x"
        assert main(["render", str(path), "-o", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            "error: exemplar 3 (C): mu_a = 1e-320 has no level curve\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag",
        [
            "--window=-1e-155,1e-155,-1e-155,1e-155",  # around the node at (0, 0)
            "--window=1e200,2e200,1e200,2e200",  # far from every node
            "--centers=0,0,1e-160,0",  # two nodes 1e-160 apart
        ],
        ids=["tiny-window", "far-window", "close-centers"],
    )
    def test_edge_of_the_plane_renders_no_nan(self, dataset_path, tmp_path, flag):
        out_dir = tmp_path / "edge"
        assert main(["render", str(dataset_path), "-o", str(out_dir),
                     "--resolution", "4", flag]) == 0
        for path in out_dir.glob("*.csv"):
            assert "nan" not in path.read_text().lower(), path.name
        if "1e200" in flag:
            assert (out_dir / "interference.csv").read_bytes() == (
                out_dir / "classical.csv"
            ).read_bytes()

    def test_overflowing_center_distance_exits_1(self, dataset_path, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "concept_interference", "render",
             str(dataset_path), "-o", str(tmp_path / "x"), "--centers=0,0,1e160,0"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr == (
            "error: center distance 1e+160 squared leaves the float range\n"
        )
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--centers=0,0,1e154,0", "--window=0,1e154,-1e154,1e154"],
            ["--centers=0,0,1e154,0"],
        ],
        ids=["own-window", "default-window"],
    )
    def test_far_centers_exit_1_naming_the_exemplar(
        self, dataset_path, tmp_path, capsys, flags
    ):
        out_dir = tmp_path / "far"
        status = main(["render", str(dataset_path), "-o", str(out_dir),
                       "--resolution", "4", *flags])
        assert status == 1
        assert capsys.readouterr().err == (
            "error: exemplar 15 (Watercress): r_a^2 - r_b^2 + d^2 of its level "
            "circles leaves the float range\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("A,0.6,0.6,0.5\nB,0.4,0.4,0.5\n",
             "exemplar 1 (A) tops both columns; the two fields need distinct "
             "top exemplars"),
            ("A,0.3,0.1,0.2\nB,0.2,0.2,0.2\nC,0.2,0.2,0.2\nD,0.3,0.5,0.4\n",
             "cannot fit field A: exemplar 4 (D) at center B has mu_a = 0.3, "
             "which ties the peak of mu_a, so the field would not fall below "
             "its peak there"),
        ],
        ids=["shared-top", "far-center-ties-the-peak"],
    )
    def test_field_fit_failures_exit_1_naming_the_exemplar(
        self, tmp_path, capsys, rows, message
    ):
        path = tmp_path / "table.csv"
        path.write_text("exemplar,mu_a,mu_b,mu_ab\n" + rows)
        out_dir = tmp_path / "x"
        assert main(["render", str(path), "-o", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "rows, shared",
        [
            # B and D meet on level circles, both at even indices
            ("A,0.4,0.05,0.2\nB,0.2,0.2,0.25\nC,0.1,0.1,0.1\n"
             "D,0.2,0.2,0.15\nE,0.05,0.4,0.25\nF,0.05,0.05,0.05\n",
             [("B", "D")]),
            # B and C fall back to the center line; D ties the top of mu_a
            # and sits on A at center A
            ("A,0.3,0.2,0.27\nB,0.1,0.05,0.075\nC,0.1,0.05,0.075\n"
             "D,0.3,0.2,0.23\nE,0.1,0.2,0.15\nF,0.1,0.3,0.2\n",
             [("B", "C"), ("A", "D")]),
        ],
        ids=["meeting-circles", "center-line-and-center"],
    )
    def test_exemplars_sharing_a_placement_render(self, tmp_path, rows, shared):
        path = tmp_path / "table.csv"
        path.write_text("exemplar,mu_a,mu_b,mu_ab\n" + rows)
        out_dir = tmp_path / "shared"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["render", str(path), "-o", str(out_dir), "--resolution", "8"]) == 0
        assert len(list(out_dir.iterdir())) == 9
        for csv_path in out_dir.glob("*.csv"):
            assert "nan" not in csv_path.read_text().lower(), csv_path.name
        lines = (out_dir / "placements.csv").read_text().splitlines()[1:]
        places = {line.split(",")[0]: line.split(",")[1:3] for line in lines}
        for first, second in shared:
            assert places[first] == places[second]
        assert len({tuple(place) for place in places.values()}) == 6 - len(shared)

    def test_centers_past_the_padding_spacing_need_a_window(
        self, dataset_path, tmp_path, capsys
    ):
        far = ["render", str(dataset_path), "--resolution", "4",
               "--centers=1e300,0,1e300,10"]
        assert main([*far, "-o", str(tmp_path / "x")]) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: the placements span x [1e+300, 1e+300]")
        assert "padding them by 9.7" in error and "pass --window" in error
        assert not (tmp_path / "x").exists()
        assert main([*far, "-o", str(tmp_path / "y"), "--window=-1,1,-1,1"]) == 0

    def test_bad_centers_exit_1(self, dataset_path, tmp_path, capsys):
        status = main(
            ["render", str(dataset_path), "-o", str(tmp_path / "x"),
             "--centers", "1,2,3"]
        )
        assert status == 1
        assert "--centers" in capsys.readouterr().err

    def test_non_numeric_centers_exit_1(self, dataset_path, tmp_path, capsys):
        out_dir = tmp_path / "x"
        status = main(["render", str(dataset_path), "-o", str(out_dir), "--centers=a,0,10,4"])
        assert status == 1
        assert capsys.readouterr().err == (
            "error: non-numeric value in --centers: 'a,0,10,4'\n"
        )
        assert not out_dir.exists()

    def test_infeasible_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "infeasible.csv"
        path.write_text(INFEASIBLE_CSV)
        status = main(["render", str(path), "-o", str(tmp_path / "x")])
        assert status == 2
        capsys.readouterr()

    def test_exit_codes_through_a_real_process(self, dataset_path, tmp_path):
        run = lambda *args: subprocess.run(
            [sys.executable, "-m", "concept_interference", *args],
            capture_output=True,
            text=True,
        )
        ok = run("solve", str(dataset_path), "-o", str(tmp_path / "r.json"))
        assert ok.returncode == 0
        missing = run("solve", str(tmp_path / "missing.csv"))
        assert missing.returncode == 1
        infeasible_path = tmp_path / "infeasible.csv"
        infeasible_path.write_text(INFEASIBLE_CSV)
        infeasible = run("solve", str(infeasible_path), "-o", str(tmp_path / "i.json"))
        assert infeasible.returncode == 2

    @pytest.mark.parametrize(
        "message, printed",
        [("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) "
          "and data type float64", None), ("", "out of memory")],
        ids=["numpy", "bare"],
    )
    def test_render_out_of_memory_exits_1(
        self, dataset_path, tmp_path, capsys, monkeypatch, message, printed
    ):
        def no_room(field, x, y):
            raise MemoryError(message)

        monkeypatch.setattr(wavefield.GaussianField, "intensity", no_room)
        out_dir = tmp_path / "out"
        assert main(["render", str(dataset_path), "-o", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: {printed or message}\n"
        assert not out_dir.exists()

    def test_render_out_of_memory_in_another_band_exits_1(
        self, dataset_path, tmp_path, capsys, monkeypatch
    ):
        # 24 exemplars on 300 x 300 pixels are 2.16e6 node-pixel pairs: two
        # threads when two CPUs are usable, the second folding every other
        # band of 13 rows in a worker thread
        monkeypatch.setattr(wavefield, "_usable_cpus", lambda: 2)
        fold = PhaseField._fold

        def no_room_in_a_worker(field, x, y, tile_values):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("no room in a worker band")
            return fold(field, x, y, tile_values)

        monkeypatch.setattr(PhaseField, "_fold", no_room_in_a_worker)
        out_dir = tmp_path / "out"
        argv = ["render", str(dataset_path), "-o", str(out_dir), "--resolution", "300"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: no room in a worker band\n"
        assert not out_dir.exists()

    def test_render_determinism(self, dataset_path, tmp_path):
        for name in ("one", "two"):
            main(
                ["render", str(dataset_path), "-o", str(tmp_path / name),
                 "--resolution", "48"]
            )
        for filename in ("interference.pgm", "interference.csv", "placements.csv"):
            assert (tmp_path / "one" / filename).read_bytes() == (
                tmp_path / "two" / filename
            ).read_bytes()
