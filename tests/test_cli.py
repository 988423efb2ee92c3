import argparse
import json
import math
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concept_interference import (
    InfeasibilityError,
    cli,
    parse_table,
    solve,
    validate_and_normalize,
)
from concept_interference.cli import (
    _encode_report,
    build_infeasible_report,
    build_solve_report,
    main,
)
from concept_interference.dataset import fruits_vegetables_csv

from conftest import feasible_tables, solve_feasible

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


def _infeasible_report():
    raw = parse_table(INFEASIBLE_CSV)
    table = validate_and_normalize(raw)
    with pytest.raises(InfeasibilityError) as info:
        solve(table)
    return build_infeasible_report(raw, table, info.value)


@st.composite
def reports(draw):
    """Solve and infeasible reports, with names from st.text() and some row
    values replaced by drawn floats and other scalars."""
    if draw(st.booleans()):
        report = _infeasible_report()
    else:
        table = draw(feasible_tables())
        report = build_solve_report(table, table, solve_feasible(table))
    rows = [
        *report["exemplars"],
        *report["feasibility"]["infeasible_exemplars"],
        *(report["vector_a"] or ()),
        *(report["vector_b"] or ()),
    ]
    for row in rows:
        if "name" in row:
            row["name"] = draw(st.text())
        keys = [key for key in _ROW_FLOAT_KEYS if key in row]
        row.update(draw(st.dictionaries(st.sampled_from(keys), _VALUES)))
    if draw(st.booleans()):
        report["c_m"] = draw(_VALUES)
    return report


@settings(max_examples=80, deadline=None)
@given(reports())
def test_encoder_writes_json_dumps_bytes(report):
    assert _encode_report(report) == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        [],
        [{}],
        [{"a": [1, 2]}],
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
    ],
    ids=repr,
)
def test_encoder_falls_back_on_other_values(value):
    report = {"value": value, "after": None}
    assert _encode_report(report) == json.dumps(report, indent=2) + "\n"


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

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("exemplar,mu_a,mu_b,mu_ab\nA,0.5,zzz,0.5\n")
        status = main(["solve", str(path)])
        assert status == 1
        assert "line 2" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "corrupt",
        [
            _edited(lambda report: report["residuals"].pop("norm_a_error")),
            _edited(lambda report: report["vector_a"].pop()),
            _edited(lambda report: (report["vector_a"].pop(), report["vector_b"].pop())),
            _edited(lambda report: report["exemplars"].pop()),
            lambda report: [],
            lambda report: "text",
        ],
        ids=[
            "missing-residual",
            "short-vector-a",
            "short-vectors",
            "missing-row",
            "top-level-list",
            "top-level-string",
        ],
    )
    def test_verify_malformed_report_exits_1(
        self, dataset_path, tmp_path, capsys, corrupt
    ):
        report_path = tmp_path / "report.json"
        main(["solve", str(dataset_path), "-o", str(report_path)])
        report = json.loads(report_path.read_text())
        report_path.write_text(json.dumps(corrupt(report)))
        assert main(["verify", str(report_path)]) == 1
        assert "malformed report" in capsys.readouterr().err

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
        ],
        ids=["float-m", "string-m", "bool-index", "float-index", "string-mu-a"],
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
        assert main(["verify", str(report_path)]) == 1
        capsys.readouterr()


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

    def test_all_classical_table(self, tmp_path, capsys):
        path = tmp_path / "classical.csv"
        path.write_text(CLASSICAL_CSV)
        status = main(["classify", str(path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "Classical (2 exemplar(s))" in out
        assert "Weakening (0" in out


class TestRenderCommand:
    def test_render_writes_all_outputs(self, dataset_path, tmp_path):
        out_dir = tmp_path / "figs"
        status = main(
            ["render", str(dataset_path), "-o", str(out_dir), "--resolution", "64"]
        )
        assert status == 0
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
        assert "resolution" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--window=-inf,1,0,1"], "is not finite"),
            (["--window=-1e308,1e308,0,1"], "is not finite"),  # width overflows
            (["--phase-constant", "nan"], "phase constant nan is not finite"),
            (["--phase-constant", "inf"], "phase constant inf is not finite"),
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

    def test_bad_centers_exit_1(self, dataset_path, tmp_path, capsys):
        status = main(
            ["render", str(dataset_path), "-o", str(tmp_path / "x"),
             "--centers", "1,2,3"]
        )
        assert status == 1
        assert "--centers" in capsys.readouterr().err

    def test_infeasible_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "infeasible.csv"
        path.write_text(INFEASIBLE_CSV)
        status = main(["render", str(path), "-o", str(tmp_path / "x")])
        assert status == 2
        capsys.readouterr()

    def test_exit_codes_through_a_real_process(self, dataset_path, tmp_path):
        run = lambda *args: subprocess.run(
            [sys.executable, "-m", "concept_interference.cli", *args],
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
