"""The benchmark's workloads, untraced and traced.

Every workload sends each of its tables through the package's four commands
in turn (solve, verify, classify, render), one caller in a closed loop, so
every end-to-end metric exists on every workload.  The workloads differ in
what dominates:

* table-scale: one seeded feasible table with n = 2000 exemplars through
  the CLI, render at 64 pixels a side.  Parsing, the solver stages and the
  report encoding carry solve; the CLI's classify listing is quadratic in n;
  the phase field, whose memory grows as n times the pixel count (8.2e6
  node-pixel pairs here), carries render.
* many-small: 1000 seeded tables with n uniform in 2..60, one in ten with a
  planted infeasible row, through the library path in this process with
  render at 64 pixels a side.  Fixed per-call costs dominate.

table-scale first runs each command once in a fresh child process (checked,
and the source of ``peak_rss_mb``), then times ``cli.main`` in this process
in a closed loop.  Timing in-process gives a 25 s run some 30 samples of
each command instead of the 8 that child processes leave room for; on a shared
2-vCPU VM the speed wanders by 15-30% within seconds, and fewer samples do
not give a steady median.  Interpreter start and import are measured apart,
as ``setup_s``.  (At n = 5000 a run holds too few tables for the same
reason.  A third workload, the bundled n = 24 table rendered at 400 or 1000
pixels a side, held only 4 to 25 tables a run and spread past its bounds.)

The traced run replays each command in-process through the package's public
functions, one span per call, next to the untraced in-process ``cli.main``
of the same command, and probes the solver stages, the property reads and
the phase field one call at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from inputs import GeneratedTable
from spans import NullTracer, Tracer

NULL = NullTracer()

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "concept_interference"
COMMANDS = ("solve", "verify", "classify", "render")
SETUP_LAUNCHES = 15
CLI_PROBE_TABLES = 3


def import_package():
    """Import the package from this checkout's ``src``."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {PACKAGE.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    global ci, cli
    import concept_interference as ci
    from concept_interference import cli


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("CONCEPT_INTERFERENCE_CONFIG", None)
    return env


def run_child(args: list[str], workdir: Path, env: dict) -> Child:
    """Run one Python child to exit; wall time and max RSS via wait4."""
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, cwd=workdir, env=env
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall,
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        usage.ru_maxrss,
    )


# A CLI child that also records how long ``cli.main`` took, so that a
# command's own time is measured apart from interpreter start and import
# (which setup_s measures).  argv[1] names the file the time goes to.
_CLI_CHILD = """\
import sys, time
from concept_interference import cli
start = time.perf_counter()
code = cli.main(sys.argv[2:])
elapsed = time.perf_counter() - start
with open(sys.argv[1], "w") as out:
    out.write(repr(elapsed))
sys.exit(code)
"""


def run_cli_child(argv: list[str], workdir: Path, env: dict) -> tuple[Child, float | None]:
    """One CLI command in a fresh process; the child and its cli.main time."""
    timing = workdir / "child.main_s"
    timing.unlink(missing_ok=True)
    child = run_child(["-c", _CLI_CHILD, str(timing), *argv], workdir, env)
    try:
        return child, float(timing.read_text())
    except (OSError, ValueError):
        return child, None


def measure_setup(workdir: Path, env: dict) -> tuple[float, int]:
    """Wall time of a fresh interpreter that imports the package, and its max RSS."""
    child = run_child(["-c", "import concept_interference"], workdir, env)
    if child.returncode != 0:
        raise SystemExit(f"error: importing the package failed:\n{child.stderr}")
    return child.wall_s, child.maxrss_kb


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    tables: list[GeneratedTable]
    csv_texts: list[str]
    resolution: int
    through_cli: bool


def make_workload(name: str, seed: int) -> Workload:
    if name == "table-scale":
        table = inputs.table_scale_input(seed)
        return Workload(name, [table], [table.to_csv()], 64, True)
    if name == "many-small":
        tables = inputs.many_small_inputs(seed)
        return Workload(name, tables, [t.to_csv() for t in tables], 64, False)
    raise ValueError(f"unknown workload {name!r}")


def write_inputs(workload: Workload, workdir: Path) -> list[Path]:
    paths = []
    for i, text in enumerate(workload.csv_texts):
        path = workdir / f"table{i:04d}.csv"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


# --------------------------------------------------------------------------
# Results of one run
# --------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Per command: time of the command's own work in this process, and for
    # the CLI the wall time of a fresh child from start to exit.
    command_s: dict[str, list[float]] = field(default_factory=lambda: {c: [] for c in COMMANDS})
    wall_s: dict[str, list[float]] = field(default_factory=lambda: {c: [] for c in COMMANDS})
    table_s: list[float] = field(default_factory=list)
    maxrss_kb: int = 0
    digests: list[dict] = field(default_factory=list)
    report_bytes: list[int] = field(default_factory=list)
    infeasible: int = 0
    planted: int = 0

    def operation(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def _sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------
# Library path: one function per command, each call wrapped by the tracer
# --------------------------------------------------------------------------


def encode_report(report: dict) -> str:
    """The CLI's JSON encoding of a report."""
    return json.dumps(report, indent=2) + "\n"


def lib_load(tr, text: str):
    """parse -> normalize, as every command but ``verify`` starts."""
    raw = tr.call("dataset.parse_table", ci.parse_table, text)
    return raw, tr.call("dataset.validate_and_normalize", ci.validate_and_normalize, raw)


def lib_solve(tr, text: str):
    """load -> solve -> report -> JSON, as ``solve`` does."""
    raw, table = lib_load(tr, text)
    try:
        solution = tr.call("solver.solve", ci.solve, table)
    except ci.InfeasibilityError as exc:
        report = tr.call("cli.build_infeasible_report", cli.build_infeasible_report, raw, table, exc)
        return table, None, report, tr.call("cli.report_encode", encode_report, report)
    report = tr.call("cli.build_solve_report", cli.build_solve_report, raw, table, solution)
    return table, solution, report, tr.call("cli.report_encode", encode_report, report)


def lib_render(tr, table, solution, resolution: int):
    field_a, field_b = tr.call("wavefield.fit_gaussian_fields", ci.fit_gaussian_fields, table)
    placements = tr.call("wavefield.place_exemplars", ci.place_exemplars, table, field_a, field_b)
    phase = tr.call("wavefield.interpolate_phase", ci.interpolate_phase, placements, solution.phi_deg)
    window = tr.call("wavefield.default_window", ci.default_window, placements, field_a, field_b)
    grids = tr.call(
        "wavefield.render_grids",
        ci.render_grids,
        field_a,
        field_b,
        phase,
        window,
        (resolution, resolution),
    )
    pgms = {name: tr.call("wavefield.grid_to_pgm", ci.grid_to_pgm, g) for name, g in grids.items()}
    placements_csv = tr.call("wavefield.placements_to_csv", ci.placements_to_csv, placements)
    return placements, phase, window, grids, pgms, placements_csv


def library_table(tr, tally: Tally, text: str, expected: GeneratedTable, resolution: int):
    """One many-small table: the four commands in-process, timed and checked.

    Returns each completed command's time and, for a fully rendered table,
    the objects the layer probes need.
    """
    times, artifacts = {}, {}
    start = time.perf_counter()
    try:
        with tr.span("lib.solve"):
            table, solution, report, encoded = lib_solve(tr, text)
    except ci.ConceptInterferenceError as exc:
        tally.operation("solve", [f"unexpected {type(exc).__name__}: {exc}"])
        return times, artifacts
    times["solve"] = time.perf_counter() - start
    tally.report_bytes.append(len(encoded.encode("utf-8")))
    tally.planted += expected.planted_row is not None
    if solution is None:
        tally.infeasible += 1
        problems = [] if expected.planted_row else ["feasible table reported infeasible"]
        tally.operation("solve", problems or checks.guarded(checks.check_infeasible_report, report, expected))
        tally.table_s.append(times["solve"])
        tally.digests.append({"report": _sha256(encoded)})
        return times, artifacts
    if expected.planted_row is not None:
        tally.operation("solve", [f"planted row {expected.planted_row} was not rejected"])
        return times, artifacts
    tally.operation("solve", checks.guarded(checks.check_solve_report, report, expected))

    mark = time.perf_counter()
    with tr.span("lib.verify"):
        residuals = tr.call("solver.verify_solution", ci.verify_solution, solution, table)
    times["verify"] = time.perf_counter() - mark
    mu_ab = np.array(expected.mu_ab)
    tally.operation(
        "verify",
        checks.guarded(
            checks.check_residuals, residuals, solution.vector_a, solution.vector_b, mu_ab, solution.m
        ),
    )

    mark = time.perf_counter()
    with tr.span("lib.classify"):
        labels = tr.call("solver.classify_exemplars", ci.classify_exemplars, solution)
    times["classify"] = time.perf_counter() - mark
    tally.operation("classify", checks.guarded(checks.check_classification, labels, expected))

    mark = time.perf_counter()
    try:
        with tr.span("lib.render"):
            placements, phase, window, grids, pgms, placements_csv = lib_render(
                tr, table, solution, resolution
            )
    except ci.ConceptInterferenceError as exc:
        tally.operation("render", [f"unexpected {type(exc).__name__}: {exc}"])
        return times, artifacts
    times["render"] = time.perf_counter() - mark
    tally.operation(
        "render", checks.guarded(checks.check_rendered, placements, grids, pgms, expected, resolution)
    )
    tally.table_s.append(sum(times.values()))
    tally.digests.append(
        {
            "report": _sha256(encoded),
            **{name: _sha256(data) for name, data in pgms.items()},
            "placements": _sha256(placements_csv),
        }
    )
    artifacts.update(table=table, solution=solution, phase=phase, window=window)
    return times, artifacts


# --------------------------------------------------------------------------
# CLI path: one child process per command
# --------------------------------------------------------------------------


def cli_argv(command: str, csv_path: Path, resolution: int) -> list[str]:
    """Arguments of one command; its outputs go next to the input table."""
    report, render = csv_path.with_name("report.json"), csv_path.with_name("render")
    return {
        "solve": ["solve", str(csv_path), "-o", str(report)],
        "verify": ["verify", str(report)],
        "classify": ["classify", str(csv_path)],
        "render": ["render", str(csv_path), "--resolution", str(resolution), "-o", str(render)],
    }[command]


def _check_command(command: str, child_rc: int, stdout: str, workdir: Path, expected, resolution) -> list[str]:
    if command == "verify":
        return checks.check_verify_output(child_rc, stdout)
    if child_rc != 0:
        return [f"exited {child_rc}"]
    if command == "solve":
        report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
        return checks.check_solve_report(report, expected)
    if command == "classify":
        return checks.check_classify_listing(stdout, expected)
    return checks.check_render_dir(workdir / "render", expected, resolution)


def _output_digests(command: str, stdout: str, workdir: Path) -> dict:
    if command == "solve":
        return {"report.json": _sha256((workdir / "report.json").read_bytes())}
    if command == "render":
        return {f"render/{p.name}": _sha256(p.read_bytes()) for p in sorted((workdir / "render").iterdir())}
    return {f"{command}.stdout": _sha256(stdout)}


def cli_table(tally: Tally, csv_path: Path, expected, resolution: int, workdir: Path, env: dict) -> dict:
    """One table through the four CLI commands, each in a fresh child process.

    Returns, per command, the child's wall time and its cli.main time.  Only
    the wall time goes to the tally; command times are timed in-process.
    """
    times, digests = {}, {}
    shutil.rmtree(workdir / "render", ignore_errors=True)
    for command in COMMANDS:
        child, main_s = run_cli_child(cli_argv(command, csv_path, resolution), workdir, env)
        tally.maxrss_kb = max(tally.maxrss_kb, child.maxrss_kb)
        problems = checks.guarded(
            _check_command, command, child.returncode, child.stdout, workdir, expected, resolution
        )
        if main_s is None:
            problems.append("the child recorded no cli.main time")
        if problems and child.stderr.strip():
            problems.append(f"stderr: {child.stderr.strip().splitlines()[-1]}")
        tally.operation(command, problems)
        if problems:
            continue
        times[command] = (child.wall_s, main_s)
        tally.wall_s[command].append(child.wall_s)
        digests.update(_output_digests(command, child.stdout, workdir))
        if command == "solve":
            tally.report_bytes.append((workdir / "report.json").stat().st_size)
    tally.digests.append(digests)
    return times


def cli_main_in_process(argv: list[str]) -> tuple[float, int, str]:
    """Wall time, exit code and standard output of ``cli.main(argv)`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def cli_table_in_process(tally: Tally, csv_path: Path, expected, resolution: int, workdir: Path) -> dict:
    """One table through the four CLI commands as ``cli.main`` in this process.

    Returns each checked command's time.
    """
    times, digests = {}, {}
    shutil.rmtree(workdir / "render", ignore_errors=True)
    for command in COMMANDS:
        elapsed, code, stdout = cli_main_in_process(cli_argv(command, csv_path, resolution))
        problems = checks.guarded(_check_command, command, code, stdout, workdir, expected, resolution)
        tally.operation(command, problems)
        if problems:
            continue
        times[command] = elapsed
        digests.update(_output_digests(command, stdout, workdir))
    if len(times) == len(COMMANDS):
        tally.table_s.append(sum(times.values()))
    tally.digests.append(digests)
    return times


# --------------------------------------------------------------------------
# Untraced run
# --------------------------------------------------------------------------


def run_untraced(workload: Workload, seconds: float, workdir: Path) -> tuple[Tally, list[float]]:
    """Tables in a closed loop until ``seconds`` of command time is spent.

    A CLI workload first sends each table once through child processes and
    once, untimed, through the in-process loop, so caches are warm before
    timing.  Set-up launches are spread over the run, one each time another
    1/SETUP_LAUNCHES of the time is spent, so their median does not hang on
    the machine's speed during one short moment.
    """
    env = child_env()
    paths = write_inputs(workload, workdir)
    texts = [p.read_text(encoding="utf-8") for p in paths]
    tally = Tally()
    if workload.through_cli:
        for path, expected in zip(paths, workload.tables):
            cli_table(tally, path, expected, workload.resolution, workdir, env)
            cli_table_in_process(Tally(), path, expected, workload.resolution, workdir)
    setup_s = []
    spent, i = 0.0, 0
    while spent < seconds or i == 0 or len(setup_s) < SETUP_LAUNCHES:
        if len(setup_s) < SETUP_LAUNCHES and spent >= len(setup_s) * seconds / SETUP_LAUNCHES:
            wall, rss = measure_setup(workdir, env)
            setup_s.append(wall)
            tally.maxrss_kb = max(tally.maxrss_kb, rss)
            continue
        k = i % len(paths)
        start = time.perf_counter()
        if workload.through_cli:
            times = cli_table_in_process(tally, paths[k], workload.tables[k], workload.resolution, workdir)
        else:
            times, _ = library_table(NULL, tally, texts[k], workload.tables[k], workload.resolution)
        for command, value in times.items():
            tally.command_s[command].append(value)
        # A table whose every command failed still uses up run time.
        spent += sum(times.values()) or time.perf_counter() - start
        i += 1
    if not workload.through_cli:
        tally.maxrss_kb = max(tally.maxrss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return tally, setup_s


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------


def classify_listing(tr, table, solution, labels) -> str:
    """The CLI's classify listing, reading ``table.names`` per row as it does."""
    out = io.StringIO()
    cos_phi = np.cos(np.radians(solution.phi_deg))
    sections = {"Weakening": [], "Strengthening": [], "Classical": []}
    for (index, label), cosine in zip(labels, cos_phi):
        sections[label.value].append((index, float(cosine)))
    sections["Weakening"].sort(key=lambda item: (item[1], item[0]))
    sections["Strengthening"].sort(key=lambda item: (-item[1], item[0]))
    sections["Classical"].sort()
    for title in ("Weakening", "Strengthening", "Classical"):
        rows = sections[title]
        if title == "Classical" and not rows:
            continue
        out.write(f"{title} ({len(rows)} exemplar(s)):\n")
        for index, _ in rows:
            i = index - 1
            name = tr.call("dataset.names_read", getattr, table, "names")[i]
            out.write(
                f"  {name:<16} phi = {solution.phi_deg[i]:>10.4f} deg"
                f"   deviation = {solution.deviations[i]:+.4f}\n"
            )
    for note in table.notes:
        out.write(f"note: {note}\n")
    return out.getvalue()


def table_from_report(data: dict):
    dataset = data["dataset"]
    records = tuple(
        ci.ExemplarRecord(r["index"], r["name"], r["mu_a"], r["mu_b"], r["mu_ab"])
        for r in data["exemplars"]
    )
    return ci.TypicalityTable(
        records=records,
        label_a=dataset["label_a"],
        label_b=dataset["label_b"],
        combination_label=dataset["combination_label"],
        notes=tuple(dataset.get("notes", ())),
    )


def _replay_solve(tr, csv_path: Path, resolution: int) -> dict:
    _, _, _, encoded = lib_solve(tr, csv_path.read_text(encoding="utf-8"))
    csv_path.with_name("report.json").write_text(encoded, encoding="utf-8")
    return {}


def _replay_verify(tr, csv_path: Path, resolution: int) -> dict:
    text = csv_path.with_name("report.json").read_text(encoding="utf-8")
    data = tr.call("cli.report_decode", json.loads, text)
    table = tr.call("dataset.TypicalityTable", table_from_report, data)
    vector_a = np.array([complex(p["re"], p["im"]) for p in data["vector_a"]])
    vector_b = np.array([complex(p["re"], p["im"]) for p in data["vector_b"]])
    layout = ci.ProjectorLayout(table.n, int(data["m"]))
    tr.call("solver.measure_residuals", ci.measure_residuals, vector_a, vector_b, table, layout)
    return {}


def _load_and_solve(tr, csv_path: Path):
    _, table = lib_load(tr, csv_path.read_text(encoding="utf-8"))
    return table, tr.call("solver.solve", ci.solve, table)


def _replay_classify(tr, csv_path: Path, resolution: int) -> dict:
    table, solution = _load_and_solve(tr, csv_path)
    labels = tr.call("solver.classify_exemplars", ci.classify_exemplars, solution)
    classify_listing(tr, table, solution, labels)
    return {}


def _replay_render(tr, csv_path: Path, resolution: int) -> dict:
    table, solution = _load_and_solve(tr, csv_path)
    placements, phase, window, grids, pgms, placements_csv = lib_render(tr, table, solution, resolution)
    out_dir = csv_path.with_name("render")
    out_dir.mkdir(exist_ok=True)
    csv_bytes = 0
    for name, grid in grids.items():
        text = tr.call("wavefield.grid_to_csv", ci.grid_to_csv, grid)
        csv_bytes += len(text)
        (out_dir / f"{name}.csv").write_text(text, encoding="utf-8")
        (out_dir / f"{name}.pgm").write_bytes(pgms[name])
    (out_dir / "placements.csv").write_text(placements_csv, encoding="utf-8")
    return {"table": table, "solution": solution, "phase": phase, "window": window, "csv_bytes": csv_bytes}


_REPLAYS = {
    "solve": _replay_solve,
    "verify": _replay_verify,
    "classify": _replay_classify,
    "render": _replay_render,
}


def replay(tr, command: str, csv_path: Path, resolution: int) -> dict:
    """One CLI command in-process through the public functions, under a root span."""
    with tr.span(f"cli.{command}"):
        return _REPLAYS[command](tr, csv_path, resolution)


def pixel_centres(window, resolution: int):
    """The pixel-centre grid ``render_grids`` evaluates the phase field on."""
    x_min, x_max, y_min, y_max = window
    xs = x_min + (np.arange(resolution) + 0.5) * ((x_max - x_min) / resolution)
    ys = y_max - (np.arange(resolution) + 0.5) * ((y_max - y_min) / resolution)
    return np.meshgrid(xs, ys)


def probe_layers(tr, table, solution, phase, window, resolution: int) -> None:
    """Each solver stage, the property reads and the phase field, one span each."""
    with tr.span("dataset.column_read"):
        table.mu_a, table.mu_b, table.mu_ab
    tr.call("dataset.names_read", getattr, table, "names")
    tr.call("solver.compute_deviations", ci.compute_deviations, table)
    magnitudes, _ = tr.call("solver.compute_lambda_magnitudes", ci.compute_lambda_magnitudes, table)
    signs, m = tr.call("solver.assign_signs", ci.assign_signs, magnitudes)
    lambdas = signs * magnitudes
    c_m = tr.call("solver.compute_cm", ci.compute_cm, table, lambdas, m)
    _, beta = tr.call("solver.compute_phases", ci.compute_phases, table, lambdas, m, c_m)
    vector_a, vector_b = tr.call("solver.build_state_vectors", ci.build_state_vectors, table, m, c_m, beta)
    layout = ci.ProjectorLayout(table.n, m)
    tr.call("solver.measure_residuals", ci.measure_residuals, vector_a, vector_b, table, layout)
    tr.call("solver.verify_solution", ci.verify_solution, solution, table)
    grid_x, grid_y = pixel_centres(window, resolution)
    tr.call("wavefield.phase_evaluate", phase.evaluate, grid_x, grid_y)


def peak_mb(fn, *args) -> float:
    """tracemalloc peak of one call, in MB (untimed)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def peak_probes(table, solution, phase, window, resolution: int) -> dict:
    field_a, field_b = ci.fit_gaussian_fields(table)
    grid_x, grid_y = pixel_centres(window, resolution)
    return {
        "solver.solve.peak_mb": peak_mb(ci.solve, table),
        "wavefield.phase_evaluate.peak_mb": peak_mb(phase.evaluate, grid_x, grid_y),
        "wavefield.render_grids.peak_mb": peak_mb(
            ci.render_grids, field_a, field_b, phase, window, (resolution, resolution)
        ),
    }


@dataclass
class TraceResult:
    tally: Tally
    tracer: Tracer
    # One dict per table sent through the CLI probe: command -> (child wall,
    # child cli.main), command -> in-process cli.main, command -> traced replay.
    children: list[dict] = field(default_factory=list)
    main_s: list[dict] = field(default_factory=list)
    replay_s: list[dict] = field(default_factory=list)
    overhead_s: list[float] = field(default_factory=list)
    counts: dict[str, list[float]] = field(default_factory=dict)
    peaks: dict[str, float] = field(default_factory=dict)

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)


def traced_cli_table(result: TraceResult, csv_path: Path, expected, resolution, workdir, env) -> None:
    """Child processes, then in alternating order the in-process cli.main and
    the traced replay of each command, then the layer probes."""
    tr = result.tracer
    first = len(tr.spans)
    children = cli_table(result.tally, csv_path, expected, resolution, workdir, env)
    if len(children) != len(COMMANDS):
        return
    mains, info = {}, {}

    def untraced():
        for command in COMMANDS:
            shutil.rmtree(workdir / "render", ignore_errors=True)
            mains[command], code, _ = cli_main_in_process(cli_argv(command, csv_path, resolution))
            if code != 0:
                result.tally.operation(f"in-process {command}", [f"cli.main returned {code}"])

    def traced():
        shutil.rmtree(workdir / "render", ignore_errors=True)
        for command in COMMANDS:
            info.update(replay(tr, command, csv_path, resolution))

    # Alternate which side runs first, so warm caches favour neither.
    try:
        for step in (untraced, traced) if tr.op % 2 == 0 else (traced, untraced):
            step()
    except ci.ConceptInterferenceError as exc:
        result.tally.operation("traced replay", [f"unexpected {type(exc).__name__}: {exc}"])
        return
    roots = tr.root_durations(first)
    replays = {c: roots[f"cli.{c}"] for c in COMMANDS}
    result.children.append(children)
    result.main_s.append(mains)
    result.replay_s.append(replays)
    result.overhead_s.append(sum(replays[c] - mains[c] for c in COMMANDS))
    table, solution = info["table"], info["solution"]
    probe_layers(tr, table, solution, info["phase"], info["window"], resolution)
    result.count("wavefield.grid_to_csv.bytes", info["csv_bytes"])
    result.count("wavefield.node_pixel_pairs", table.n * resolution * resolution)
    if not result.peaks:
        result.peaks = peak_probes(table, solution, info["phase"], info["window"], resolution)


def traced_library_table(result: TraceResult, text: str, expected, resolution: int) -> None:
    """A many-small table untraced and traced in alternating order, then
    through the layer probes."""
    tr = result.tracer
    first = len(tr.spans)
    if tr.op % 2 == 0:
        untraced, _ = library_table(NULL, Tally(), text, expected, resolution)
        _, artifacts = library_table(tr, result.tally, text, expected, resolution)
    else:
        _, artifacts = library_table(tr, result.tally, text, expected, resolution)
        untraced, _ = library_table(NULL, Tally(), text, expected, resolution)
    roots = tr.root_durations(first)
    if roots.keys() == {f"lib.{c}" for c in untraced}:
        result.overhead_s.append(sum(roots[f"lib.{c}"] - untraced[c] for c in untraced))
    if artifacts:
        table = artifacts["table"]
        probe_layers(tr, resolution=resolution, **artifacts)
        result.count("wavefield.node_pixel_pairs", table.n * resolution * resolution)
        if not result.peaks:
            result.peaks = peak_probes(resolution=resolution, **artifacts)


def run_traced(workload: Workload, seconds: float, workdir: Path) -> TraceResult:
    env = child_env()
    paths = write_inputs(workload, workdir)
    texts = [p.read_text(encoding="utf-8") for p in paths]
    result = TraceResult(Tally(), Tracer())
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i == 0:
        k = i % len(paths)
        result.tracer.op = i
        if workload.through_cli:
            traced_cli_table(result, paths[k], workload.tables[k], workload.resolution, workdir, env)
        else:
            traced_library_table(result, texts[k], workload.tables[k], workload.resolution)
            if i < CLI_PROBE_TABLES and workload.tables[k].planted_row is None:
                result.tracer.op = -1 - i
                traced_cli_table(result, paths[k], workload.tables[k], workload.resolution, workdir, env)
        i += 1
    return result
