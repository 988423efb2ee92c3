"""Command-line pipeline: validate -> solve -> verify -> classify/render.

Exit codes: 0 success, 1 usage/I-O/validation error, 2 model infeasibility
(the report is still written in that case).  Same input and flags produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    DEFAULT_SUM_TOLERANCE,
    TypicalityTable,
    parse_table,
    validate_and_normalize,
)
from .errors import (
    ConceptInterferenceError,
    DegeneracyError,
    InfeasibilityError,
)
from .solver import (
    InterferenceSolution,
    ProjectorLayout,
    VerificationReport,
    classify_exemplars,
    compute_deviations,
    measure_residuals,
    solve,
)
from .wavefield import (
    ConstantPhaseField,
    DEFAULT_CENTER_A,
    DEFAULT_CENTER_B,
    DEFAULT_RESOLUTION,
    default_window,
    fit_gaussian_fields,
    grid_to_csv,
    grid_to_pgm,
    interpolate_phase,
    place_exemplars,
    placements_to_csv,
    render_grids,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

# The paper's tolerance on every residual that solve and verify check.
RESIDUAL_THRESHOLD = 1e-9

_RESIDUAL_THRESHOLD_KEYS = tuple(field.name for field in fields(VerificationReport))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2
    # for model infeasibility, so route usage problems through exit 1.
    def error(self, message):
        raise _UsageError(message)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise _UsageError(f"{what} needs {count} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"non-numeric value in {what}: {text!r}") from None


def complex_pairs(vector: np.ndarray) -> list[dict[str, float]]:
    return [
        {"re": re, "im": im}
        for re, im in zip(vector.real.tolist(), vector.imag.tolist())
    ]


def _exemplar_rows(
    table: TypicalityTable, deviations: np.ndarray, model: dict
) -> list[dict]:
    """One report row per exemplar: index, name, the table's columns, the
    classical average, the deviation, then any model columns, in order."""
    columns = {
        "mu_a": table.mu_a,
        "mu_b": table.mu_b,
        "mu_ab": table.mu_ab,
        "average": 0.5 * (table.mu_a + table.mu_b),
        "deviation": deviations,
        **model,
    }
    keys = ("index", "name", *columns)
    values = (np.asarray(column).tolist() for column in columns.values())
    rows = zip(range(1, table.n + 1), table.names, *values)
    return [dict(zip(keys, row)) for row in rows]


def _report(
    raw: TypicalityTable, exemplars: list[dict], model: dict, feasibility: dict
) -> dict:
    return {
        "tool": {"name": "concept-interference", "version": __version__},
        "dataset": {
            "label_a": raw.label_a,
            "label_b": raw.label_b,
            "combination_label": raw.combination_label,
            "n": raw.n,
            "column_sums_raw": raw.column_sums(),
            "notes": list(raw.notes),
        },
        "exemplars": exemplars,
        **model,
        "feasibility": feasibility,
    }


def build_solve_report(
    raw: TypicalityTable,
    table: TypicalityTable,
    solution: InterferenceSolution,
) -> dict:
    """Full JSON-serializable report for a feasible model.

    All values are stored at full precision, so the report round-trips
    losslessly through its JSON encoding.
    """
    labels = [label.value for _, label in classify_exemplars(solution)]
    exemplars = _exemplar_rows(
        table,
        solution.deviations,
        {
            "lambda": solution.lambdas,
            "phi_deg": solution.phi_deg,
            "beta_deg": solution.beta_deg,
            "c": solution.c,
            "classification": labels,
        },
    )
    model = {
        "m": solution.m,
        "c_m": solution.c_m,
        "vector_a": complex_pairs(solution.vector_a),
        "vector_b": complex_pairs(solution.vector_b),
        "residuals": asdict(solution.residuals),
    }
    feasibility = {
        "infeasible_exemplars": [],
        "cm_violation": None,
        "diagnostic": None,
    }
    return _report(raw, exemplars, model, feasibility)


def build_infeasible_report(
    raw: TypicalityTable,
    table: TypicalityTable,
    error: ConceptInterferenceError,
) -> dict:
    """Report for data the model cannot represent; no partial model inside."""
    report = getattr(error, "report", None)
    rows = report.infeasible_exemplars if report is not None else ()
    infeasible = [
        {"index": index, "name": table.names[index - 1], "radicand": radicand}
        for index, radicand in rows
    ]
    cm_violation = report.cm_violation if report is not None else None
    exemplars = _exemplar_rows(table, compute_deviations(table), {})
    model = dict.fromkeys(("m", "c_m", "vector_a", "vector_b", "residuals"))
    feasibility = {
        "infeasible_exemplars": infeasible,
        "cm_violation": cm_violation,
        "diagnostic": str(error),
    }
    return _report(raw, exemplars, model, feasibility)


# json's spelling of the non-finite floats that float.__repr__ writes
_NONFINITE_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _column_text(column: tuple):
    """The JSON text of each value in a column of scalars, or None when the
    column holds a container (which ``indent`` would spread over lines)."""
    kinds = set(map(type, column))
    if kinds == {float}:
        if math.isfinite(sum(column)):
            return map(float.__repr__, column)
        reprs = list(map(float.__repr__, column))
        return map(_NONFINITE_TEXT.get, reprs, reprs)
    if kinds == {int}:
        return map(int.__repr__, column)
    if kinds == {str}:
        return map(encode_basestring_ascii, column)
    if any(issubclass(kind, (dict, list, tuple)) for kind in kinds):
        return None
    return map(json.dumps, column)


def _rows_text(rows) -> str | None:
    """``json.dumps(rows, indent=2)`` one level deep, for a non-empty list of
    flat dicts sharing one key order, written a column at a time; None for
    any other value."""
    if type(rows) is not list or not rows or type(rows[0]) is not dict:
        return None
    keys = tuple(rows[0])
    if not keys or any(type(key) is not str for key in keys):
        return None
    if any(type(row) is not dict or tuple(row) != keys for row in rows):
        return None
    texts = [_column_text(column) for column in zip(*map(dict.values, rows))]
    if any(text is None for text in texts):
        return None
    entries = ",\n".join(
        "      " + encode_basestring_ascii(key).replace("%", "%%") + ": %s"
        for key in keys
    )
    template = "    {\n" + entries + "\n    }"
    return "[\n" + ",\n".join(map(template.__mod__, zip(*texts))) + "\n  ]"


def _encode_report(report: dict) -> str:
    """``json.dumps(report, indent=2) + "\\n"``, byte for byte.

    The indented standard-library encoder runs in pure Python; the per-
    exemplar rows and the vector pairs are written column-wise instead, and
    every other top-level value goes through ``json.dumps`` re-indented.
    The report is a non-empty dict with text keys, as the builders return.
    """
    members = []
    for key, value in report.items():
        text = _rows_text(value)
        if text is None:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        members.append(f"  {encode_basestring_ascii(key)}: {text}")
    return "{\n" + ",\n".join(members) + "\n}\n"


def _write_json(report: dict, output: str | None) -> None:
    text = _encode_report(report)
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _load_and_solve(args):
    """(raw, normalized table, solution, None) for ``args.input``, or
    (raw, table, None, error) when the model cannot be built."""
    raw = parse_table(Path(args.input).read_text(encoding="utf-8"))
    table = validate_and_normalize(raw, args.tolerance)
    try:
        return raw, table, solve(table), None
    except (InfeasibilityError, DegeneracyError) as exc:
        return raw, table, None, exc


def _infeasible(error: ConceptInterferenceError) -> int:
    print(f"infeasible: {error}", file=sys.stderr)
    return EXIT_INFEASIBLE


def _over_threshold(residuals) -> list[str]:
    """Names of the residuals above RESIDUAL_THRESHOLD."""
    return [
        key
        for key in _RESIDUAL_THRESHOLD_KEYS
        # written so that a NaN residual counts as over the threshold
        if not getattr(residuals, key) <= RESIDUAL_THRESHOLD
    ]


def _run_solve(args) -> int:
    raw, table, solution, error = _load_and_solve(args)
    if error is not None:
        _write_json(build_infeasible_report(raw, table, error), args.output)
        return _infeasible(error)
    _write_json(build_solve_report(raw, table, solution), args.output)
    residuals = solution.residuals
    over = [
        f"{key} = {getattr(residuals, key):.3e} > {RESIDUAL_THRESHOLD:.0e}"
        for key in _over_threshold(residuals)
    ]
    if over:
        print("model residuals over thresholds: " + "; ".join(over), file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _run_render(args) -> int:
    if args.resolution < 2:
        return _fail(f"resolution must be at least 2, got {args.resolution}")
    _, table, solution, error = _load_and_solve(args)
    if error is not None:
        return _infeasible(error)
    centers = (*DEFAULT_CENTER_A, *DEFAULT_CENTER_B)
    if args.centers is not None:
        centers = _parse_floats(args.centers, 4, "--centers")
    field_a, field_b = fit_gaussian_fields(table, centers[:2], centers[2:])
    placements = place_exemplars(table, field_a, field_b)
    if args.phase_constant is not None:
        phase = ConstantPhaseField(args.phase_constant)
    else:
        phase = interpolate_phase(placements, solution.phi_deg)
    if args.window is not None:
        window = _parse_floats(args.window, 4, "--window")
    else:
        window = default_window(placements, field_a, field_b)
    grids = render_grids(
        field_a, field_b, phase, window, (args.resolution, args.resolution)
    )
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, grid in grids.items():
        (out_dir / f"{name}.csv").write_text(grid_to_csv(grid), encoding="utf-8")
        (out_dir / f"{name}.pgm").write_bytes(grid_to_pgm(grid))
    (out_dir / "placements.csv").write_text(
        placements_to_csv(placements), encoding="utf-8"
    )
    print(f"wrote {len(grids) * 2 + 1} files to {out_dir}")
    return EXIT_OK


def _run_classify(args) -> int:
    _, table, solution, error = _load_and_solve(args)
    if error is not None:
        return _infeasible(error)
    labels = np.array([label.value for _, label in classify_exemplars(solution)])
    cos_phi = np.cos(np.radians(solution.phi_deg))
    # Strongest interference effect first: most negative cosine heads the
    # weakening list, most positive heads the strengthening list; ties and
    # the classical list go by index.
    for title, key in (
        ("Weakening", cos_phi),
        ("Strengthening", -cos_phi),
        ("Classical", None),
    ):
        rows = np.flatnonzero(labels == title)
        if title == "Classical" and not rows.size:
            continue
        if key is not None:
            rows = rows[np.argsort(key[rows], kind="stable")]
        print(f"{title} ({rows.size} exemplar(s)):")
        for i in rows.tolist():
            print(
                f"  {table.names[i]:<16} phi = {solution.phi_deg[i]:>10.4f} deg"
                f"   deviation = {solution.deviations[i]:+.4f}"
            )
    for note in table.notes:
        print(f"note: {note}")
    return EXIT_OK


def _table_from_report(data: dict) -> TypicalityTable:
    dataset = data["dataset"]
    row = operator.itemgetter("index", "name", "mu_a", "mu_b", "mu_ab")
    rows = list(map(row, data["exemplars"]))
    # a JSON number loads as an int or a float; a bool or a string is not one
    for k, (index, _, *mu) in enumerate(rows, start=1):
        if type(index) is not int or not {*map(type, mu)} <= {int, float}:
            raise TypeError(f"exemplar row {k} holds a value of the wrong JSON type")
    labels = {key: dataset[key] for key in ("label_a", "label_b", "combination_label")}
    notes = dataset.get("notes", ())
    return TypicalityTable(rows, notes=notes, **labels)


def _run_verify(args) -> int:
    try:
        data = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return _fail(str(exc))
    try:
        if not isinstance(data, dict):
            raise TypeError(f"top level is a JSON {type(data).__name__}, not an object")
        if data.get("vector_a") is None or data.get("vector_b") is None:
            return _fail("report carries no model vectors (infeasible run?)")
        table = _table_from_report(data)
        vector_a, vector_b = (
            np.array([complex(p["re"], p["im"]) for p in data[key]])
            for key in ("vector_a", "vector_b")
        )
        stored = {
            key: float(data["residuals"][key]) for key in _RESIDUAL_THRESHOLD_KEYS
        }
        if type(m := data["m"]) is not int:
            raise TypeError(f"m = {m!r} is not a JSON integer")
        layout = ProjectorLayout(table.n, m)
        recomputed = measure_residuals(vector_a, vector_b, table, layout)
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"malformed report: {exc!r}")

    over = _over_threshold(recomputed)
    failures = []
    for key in _RESIDUAL_THRESHOLD_KEYS:
        value = getattr(recomputed, key)
        print(f"{key} = {value:.6e}")
        # equal infinities agree; NaN differs from everything
        if not (value == stored[key] or abs(value - stored[key]) <= 1e-12):
            failures.append(f"{key} differs from the stored value {stored[key]!r}")
        if key in over:
            failures.append(
                f"{key} = {value:.3e} over threshold {RESIDUAL_THRESHOLD:.0e}"
            )
    if failures:
        for failure in failures:
            print(f"verification failed: {failure}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print("model verified: residuals reproduced and under thresholds")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="concept-interference",
        description=(
            "Fit a two-concept interference model to typicality data and "
            "render its interference landscapes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table_args = argparse.ArgumentParser(add_help=False)
    table_args.add_argument("input", help="typicality table CSV")
    table_args.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_SUM_TOLERANCE,
        help="column-sum tolerance for normalization (default %(default)s)",
    )

    solve_p = sub.add_parser(
        "solve",
        parents=[table_args],
        help="fit the model and write a JSON solve report",
    )
    solve_p.add_argument(
        "-o", "--output", default=None, help="report path (default: stdout)"
    )
    solve_p.set_defaults(func=_run_solve)

    render_p = sub.add_parser(
        "render",
        parents=[table_args],
        help="render the interference landscapes as CSV + PGM grids",
    )
    render_p.add_argument(
        "-o", "--output", default="landscapes", help="output directory"
    )
    render_p.add_argument(
        "--centers",
        default=None,
        metavar="X1,Y1,X2,Y2",
        help=f"field centers (default "
        f"{DEFAULT_CENTER_A[0]},{DEFAULT_CENTER_A[1]},"
        f"{DEFAULT_CENTER_B[0]},{DEFAULT_CENTER_B[1]})",
    )
    render_p.add_argument(
        "--resolution",
        type=int,
        default=DEFAULT_RESOLUTION,
        metavar="N",
        help="pixels per side (default %(default)s)",
    )
    render_p.add_argument(
        "--window",
        default=None,
        metavar="XMIN,XMAX,YMIN,YMAX",
        help="world window (default: placements padded by 2 sigma)",
    )
    render_p.add_argument(
        "--phase-constant",
        dest="phase_constant",
        type=float,
        default=None,
        metavar="DEG",
        help="replace the interpolated phase field with a constant",
    )
    render_p.set_defaults(func=_run_render)

    classify_p = sub.add_parser(
        "classify", parents=[table_args], help="list weakening/strengthening exemplars"
    )
    classify_p.set_defaults(func=_run_classify)

    verify_p = sub.add_parser(
        "verify", help="re-check the residuals of a solve report"
    )
    verify_p.add_argument("report", help="JSON report produced by solve")
    verify_p.set_defaults(func=_run_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    # usage, I/O and data errors from any command: exit 1 with the message;
    # the commands themselves turn infeasibility into exit 2
    except (_UsageError, OSError, ConceptInterferenceError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
