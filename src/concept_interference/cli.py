"""Command-line pipeline: validate -> solve -> verify -> classify/render.

Exit codes: 0 success, 1 usage/I-O/validation error, 2 model infeasibility
(the report is still written in that case).  Same input and flags produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from dataclasses import asdict, fields
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    DEFAULT_SUM_TOLERANCE,
    LABEL_KEYS,
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
    Classification,
    FeasibilityReport,
    InterferenceSolution,
    ProjectorLayout,
    VerificationReport,
    classify_exemplars,
    compute_deviations,
    measure_residuals,
    solve,
)
from .wavefield import (
    DEFAULT_CENTER_A,
    DEFAULT_CENTER_B,
    DEFAULT_RESOLUTION,
    PhaseField,
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


def _label_texts(solution: InterferenceSolution) -> list[str]:
    """Each exemplar's classification, as text, in index order."""
    # keyed by identity, as the members are singletons and Enum hashes in Python
    texts = {id(label): label.value for label in Classification}
    labels = map(operator.itemgetter(1), classify_exemplars(solution))
    return [*map(texts.__getitem__, map(id, labels))]


# Encodes JSON scalars as "[v1\nv2\n...]" in C; no value's text holds a raw newline.
_VALUE_ENCODER = json.JSONEncoder(separators=("\n", ": "))


class _Columns(dict):
    """A report member held as columns: text keys, each naming a non-empty
    list of JSON scalars, all of one length.  In JSON it is the list of its
    rows, each the dict of one value per key."""

    def rows(self) -> list[dict]:
        return [dict(zip(self, row)) for row in zip(*self.values())]

    def text(self) -> str:
        """``json.dumps(self.rows(), indent=2)`` one level deep, with one C
        encode per distinct list."""
        texts = {}
        for column in self.values():
            if id(column) not in texts:
                texts[id(column)] = _VALUE_ENCODER.encode(column)[1:-1].split("\n")
        entries = ",\n".join(
            "      " + encode_basestring_ascii(key).replace("%", "%%") + ": %s"
            for key in self
        )
        rows = zip(*(texts[id(column)] for column in self.values()))
        return "[\n" + ",\n".join(map(f"    {{\n{entries}\n    }}".__mod__, rows)) + "\n  ]"


def _column_report(raw, table, solution, error) -> dict:
    """The report of ``solution``, or of ``error`` when ``table``, normalized
    from ``raw``, has no model: the raw table's labels, size, sums and
    notes; per exemplar its index, name, columns, classical average and
    deviation, then the model's columns; the model's entries, or None each;
    and the feasibility.  The exemplars and the vectors are ``_Columns``."""
    deviations = compute_deviations(table) if solution is None else solution.deviations
    exemplars = _Columns(
        index=list(range(1, table.n + 1)),
        name=table.names,
        **{key: getattr(table, key).tolist() for key in ("mu_a", "mu_b", "mu_ab")},
        average=(0.5 * (table.mu_a + table.mu_b)).tolist(),
        deviation=deviations.tolist(),
    )
    model = dict.fromkeys(("m", "c_m", "vector_a", "vector_b", "residuals"))
    # a DegeneracyError, or an InfeasibilityError built bare, carries none
    feasibility = getattr(error, "report", None) or FeasibilityReport()
    if solution is not None:
        # one list for both angles, so that its text is encoded once
        phi_deg = solution.phi_deg.tolist()
        exemplars |= {
            "lambda": solution.lambdas.tolist(),
            "phi_deg": phi_deg,
            "beta_deg": phi_deg,
            "c": np.where(np.arange(table.n) == solution.m - 1, solution.c_m, 1.0).tolist(),
            "classification": _label_texts(solution),
        }
        model = {
            "m": solution.m,
            "c_m": solution.c_m,
            **{
                key: _Columns(re=v.real.tolist(), im=v.imag.tolist())
                for key, v in (("vector_a", solution.vector_a), ("vector_b", solution.vector_b))
            },
            "residuals": asdict(solution.residuals),
        }
    infeasible = [
        {"index": index, "name": table.names[index - 1], "radicand": radicand}
        for index, radicand in feasibility.infeasible_exemplars
    ]
    return {
        "tool": {"name": "concept-interference", "version": __version__},
        "dataset": {
            **{key: getattr(raw, key) for key in LABEL_KEYS},
            "n": raw.n,
            "column_sums_raw": raw.column_sums(),
            "notes": list(raw.notes),
        },
        "exemplars": exemplars,
        **model,
        "feasibility": {
            "infeasible_exemplars": infeasible,
            "cm_violation": feasibility.cm_violation,
            "diagnostic": None if error is None else str(error),
        },
    }


def _expanded(report: dict) -> dict:
    """``report`` with each column member as its list of row dicts."""
    return {k: v.rows() if type(v) is _Columns else v for k, v in report.items()}


def build_solve_report(
    raw: TypicalityTable,
    table: TypicalityTable,
    solution: InterferenceSolution,
) -> dict:
    """Full JSON-serializable report for a feasible model.

    All values are stored at full precision, so the report round-trips
    losslessly through its JSON encoding.
    """
    return _expanded(_column_report(raw, table, solution, None))


def build_infeasible_report(
    raw: TypicalityTable,
    table: TypicalityTable,
    error: ConceptInterferenceError,
) -> dict:
    """Report for data the model cannot represent; no partial model inside."""
    return _expanded(_column_report(raw, table, None, error))


def _encode_report(report: dict) -> str:
    """``json.dumps(_expanded(report), indent=2) + "\\n"``, byte for byte.

    The indented standard-library encoder runs in pure Python; the column
    members go through the C encoder instead, and every other top-level
    value goes through ``json.dumps`` re-indented.  The report is a
    non-empty dict with text keys, as the builders return.
    """
    members = []
    for key, value in report.items():
        if type(value) is _Columns:
            text = value.text()
        else:
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
    _write_json(_column_report(raw, table, solution, error), args.output)
    if error is not None:
        return _infeasible(error)
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
    centers = _parse_floats(args.centers, 4, "--centers")
    field_a, field_b = fit_gaussian_fields(table, centers[:2], centers[2:])
    placements = place_exemplars(table, field_a, field_b)
    if args.phase_constant is not None:
        phase = PhaseField(np.zeros((1, 2)), [args.phase_constant])
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
    labels = np.array(_label_texts(solution))
    cos_phi = np.cos(np.radians(solution.phi_deg))
    columns = (table.names, solution.phi_deg.tolist(), solution.deviations.tolist())
    lines = []
    # Strongest interference effect first: most negative cosine heads the
    # weakening list, most positive heads the strengthening list; ties and
    # the classical list go by index.
    for label, key in (
        (Classification.WEAKENING, cos_phi),
        (Classification.STRENGTHENING, -cos_phi),
        (Classification.CLASSICAL, None),
    ):
        rows = np.flatnonzero(labels == label.value)
        if label is Classification.CLASSICAL and not rows.size:
            continue
        if key is not None:
            rows = rows[np.argsort(key[rows], kind="stable")]
        lines.append(f"{label.value} ({rows.size} exemplar(s)):")
        order = rows.tolist()
        lines += map(
            "  %-16s phi = %10.4f deg   deviation = %+.4f".__mod__,
            zip(*(map(column.__getitem__, order) for column in columns)),
        )
    lines += (f"note: {note}" for note in table.notes)
    print("\n".join(lines))
    return EXIT_OK


def _json_numbers(values: list, what: str) -> list:
    """values, each checked to be a JSON number: an int or a float, not a bool."""
    if not {*map(type, values)} <= {int, float}:
        raise TypeError(f"{what} holds a value that is not a JSON number")
    return values


def _table_from_report(data: dict) -> TypicalityTable:
    dataset = data["dataset"]
    row = operator.itemgetter("index", "name", "mu_a", "mu_b", "mu_ab")
    rows = list(map(row, data["exemplars"]))
    for k, (index, _, *mu) in enumerate(rows, start=1):
        if type(index) is not int:
            raise TypeError(f"exemplar row {k}: index {index!r} is not a JSON integer")
        _json_numbers(mu, f"exemplar row {k}")
    labels = (dataset[key] for key in LABEL_KEYS)
    return TypicalityTable(rows, *labels, dataset.get("notes", ()))


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
        re_im = operator.itemgetter("re", "im")  # re, im interleaved, viewed as complex
        vector_a, vector_b = (
            np.array(_json_numbers([*chain(*map(re_im, data[key]))], key), float)
            .view(complex)
            for key in ("vector_a", "vector_b")
        )
        values = operator.itemgetter(*_RESIDUAL_THRESHOLD_KEYS)(data["residuals"])
        _json_numbers(values, "residuals")
        stored = dict(zip(_RESIDUAL_THRESHOLD_KEYS, map(float, values)))
        layout = ProjectorLayout(table.n, data["m"])
        recomputed = measure_residuals(vector_a, vector_b, table, layout)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    solve_p.add_argument("-o", "--output", help="report path (default: stdout)")
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
        default=",".join(map(str, DEFAULT_CENTER_A + DEFAULT_CENTER_B)),
        metavar="X1,Y1,X2,Y2",
        help="field centers (default %(default)s)",
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
        metavar="XMIN,XMAX,YMIN,YMAX",
        help="world window (default: placements padded by 2 sigma)",
    )
    render_p.add_argument(
        "--phase-constant",
        type=float,
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
    # usage, I/O, decoding and data errors from any command: exit 1 with the
    # message; the commands themselves turn infeasibility into exit 2
    except (_UsageError, OSError, UnicodeDecodeError, ConceptInterferenceError) as exc:
        return _fail(str(exc))
    # numpy names the allocation it could not make (render at a resolution
    # whose planes do not fit); a bare MemoryError has no message
    except MemoryError as exc:
        return _fail(str(exc) or "out of memory")
