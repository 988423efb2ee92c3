"""Output checks that gate the benchmark's error rate.

Every check works from tolerances and identities of the model, recomputed
here from the expected input columns, never from byte digests: a correct
change at the ulp level still passes.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from inputs import GeneratedTable

# The paper's residual tolerance, and the default Thresholds of the package.
RESIDUAL_LIMIT = 1e-9
# Phase identity c_k sqrt(mu_a mu_b) cos(phi_k) = d_k, relative to sqrt(mu_a mu_b).
PHASE_TOLERANCE = 1e-9
# Input columns are echoed at full precision; normalization may move an ulp.
COLUMN_TOLERANCE = 1e-12
# Default render centers of the package's CLI.
CENTER_A = (0.0, 0.0)
CENTER_B = (10.0, 4.0)
WINDOW_PADDING = 2.0
GRID_NAMES = ("a_only", "b_only", "classical", "interference")


def guarded(check, *args) -> list[str]:
    """Run a check; an output so malformed that the check raises fails it."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed output: {exc!r}"]


def _columns(expected: GeneratedTable):
    a = np.array(expected.mu_a)
    b = np.array(expected.mu_b)
    ab = np.array(expected.mu_ab)
    return a, b, ab, ab - 0.5 * (a + b)


def _close(x, y, tolerance) -> bool:
    return bool(np.all(np.abs(np.asarray(x) - np.asarray(y)) <= tolerance))


def _complex(pairs) -> np.ndarray:
    return np.array([complex(p["re"], p["im"]) for p in pairs])


def check_solve_report(report: dict, expected: GeneratedTable) -> list[str]:
    """Solve report: n rows echoing the input, and the model's identities."""
    problems = []
    rows = report.get("exemplars") or []
    if len(rows) != expected.n:
        return [f"report has {len(rows)} exemplar rows, expected {expected.n}"]
    if [r["name"] for r in rows] != list(expected.names):
        problems.append("report exemplar names differ from the input")
    if [r["index"] for r in rows] != list(range(1, expected.n + 1)):
        problems.append("report exemplar indices are not 1..n")
    a, b, ab, d = _columns(expected)
    for key, column in (("mu_a", a), ("mu_b", b), ("mu_ab", ab)):
        if not _close([r[key] for r in rows], column, COLUMN_TOLERANCE):
            problems.append(f"report {key} column differs from the input")
    if not _close([r["deviation"] for r in rows], d, COLUMN_TOLERANCE):
        problems.append("report deviations differ from mu_ab - average")
    m, c_m = report.get("m"), report.get("c_m")
    if not (isinstance(m, int) and 1 <= m <= expected.n and 0.0 < c_m <= 1.0):
        return problems + [f"report m={m!r}, c_m={c_m!r} out of range"]
    phi = np.radians([r["phi_deg"] for r in rows])
    beta = np.radians([r["beta_deg"] for r in rows])
    lam = np.array([r["lambda"] for r in rows])
    c = np.ones(expected.n)
    c[m - 1] = c_m
    if not _close([r["c"] for r in rows], c, 0.0):
        problems.append("report c column is not 1 off m and c_m at m")
    geometric = np.sqrt(a * b)
    gap = np.abs(c * geometric * np.cos(phi) - d)
    worst = int(np.argmax(gap / geometric))
    if gap[worst] > PHASE_TOLERANCE * geometric[worst] + 1e-15:
        problems.append(
            f"phase identity fails at exemplar {worst + 1}: "
            f"c sqrt(mu_a mu_b) cos(phi) - d = {gap[worst]:.3e}"
        )
    if np.any((phi < 0.0) != (lam < 0.0)):
        problems.append("phase signs differ from lambda signs")
    expected_beta = phi.copy()
    expected_beta[m - 1] = abs(phi[m - 1])
    if not _close(beta, expected_beta, 0.0):
        problems.append("beta differs from phi (|phi_m| at m)")
    if not _close(np.abs(lam), np.sqrt(np.maximum(a * b - d * d, 0.0)), 1e-12):
        problems.append("|lambda| differs from sqrt(mu_a mu_b - d^2)")
    off_sum = math.fsum(np.delete(lam, m - 1))
    closing = math.sqrt((off_sum**2 + d[m - 1] ** 2) / (a[m - 1] * b[m - 1]))
    if abs(closing - c_m) > 1e-9:
        problems.append(f"c_m = {c_m!r} does not close the imaginary sum ({closing!r})")
    vector_a = _complex(report["vector_a"])
    vector_b = _complex(report["vector_b"])
    if vector_a.shape != (expected.n + 1,) or vector_b.shape != (expected.n + 1,):
        return problems + ["report vectors do not have n+1 coordinates"]
    want_b = c * np.sqrt(b) * np.exp(1j * beta)
    if not _close(vector_a[:-1], np.sqrt(a), 1e-12) or vector_a[-1] != 0:
        problems.append("vector_a differs from sqrt(mu_a)")
    if not _close(vector_b[:-1], want_b, 1e-12):
        problems.append("vector_b differs from c sqrt(mu_b) e^(i beta)")
    problems += _residual_problems(vector_a, vector_b, ab, m, report.get("residuals"))
    return problems


def _residual_problems(vector_a, vector_b, mu_ab, m, stored) -> list[str]:
    n = mu_ab.size
    superposed = vector_a + vector_b
    probability = 0.5 * np.abs(superposed[:n]) ** 2
    probability[m - 1] += 0.5 * abs(superposed[n]) ** 2
    residuals = {
        "orthogonality_modulus": abs(np.vdot(vector_a, vector_b)),
        "norm_a_error": abs(np.linalg.norm(vector_a) - 1.0),
        "norm_b_error": abs(np.linalg.norm(vector_b) - 1.0),
        "max_reconstruction_error": float(np.max(np.abs(probability - mu_ab))),
    }
    problems = []
    for key, value in residuals.items():
        if value > RESIDUAL_LIMIT:
            problems.append(f"{key} = {value:.3e} over {RESIDUAL_LIMIT:.0e}")
        if stored is not None and not stored.get(key, math.inf) <= RESIDUAL_LIMIT:
            problems.append(f"stored {key} = {stored.get(key)!r} over {RESIDUAL_LIMIT:.0e}")
    return problems


def check_residuals(report, vector_a, vector_b, mu_ab, m) -> list[str]:
    """Residuals of an in-process solution (report: VerificationReport)."""
    stored = {
        key: getattr(report, key)
        for key in (
            "orthogonality_modulus",
            "norm_a_error",
            "norm_b_error",
            "max_reconstruction_error",
        )
    }
    return _residual_problems(vector_a, vector_b, mu_ab, m, stored)


def check_infeasible_report(report: dict, expected: GeneratedTable) -> list[str]:
    """An infeasible report names exactly the planted row and holds no model."""
    planted = expected.planted_row
    name = expected.names[planted - 1]
    rows = report["feasibility"]["infeasible_exemplars"]
    problems = []
    if [(r["index"], r["name"]) for r in rows] != [(planted, name)]:
        problems.append(f"infeasible rows {rows!r}, expected only {planted} ({name})")
    if any(report[key] is not None for key in ("m", "c_m", "vector_a", "vector_b")):
        problems.append("infeasible report carries a partial model")
    if name not in (report["feasibility"]["diagnostic"] or ""):
        problems.append("diagnostic does not name the planted row")
    return problems


def check_verify_output(returncode: int, stdout: str) -> list[str]:
    problems = [] if returncode == 0 else [f"verify exited {returncode}"]
    values = dict(
        line.split(" = ", 1) for line in stdout.splitlines() if " = " in line
    )
    for key in ("orthogonality_modulus", "norm_a_error", "norm_b_error", "max_reconstruction_error"):
        try:
            value = float(values[key])
        except (KeyError, ValueError):
            problems.append(f"verify printed no {key}")
            continue
        if not value <= RESIDUAL_LIMIT:
            problems.append(f"verify {key} = {value!r} over {RESIDUAL_LIMIT:.0e}")
    if not stdout.rstrip().endswith("residuals reproduced and under thresholds"):
        problems.append("verify did not confirm the model")
    return problems


_SECTION = re.compile(r"^(Weakening|Strengthening|Classical) \((\d+) exemplar\(s\)\):$")
_ROW = re.compile(r"^  (.*\S) +phi = +(\S+) deg   deviation = ([+-])\S+$")


def check_classify_listing(text: str, expected: GeneratedTable) -> list[str]:
    """Every exemplar listed once, in the section matching its deviation's sign."""
    *_, d = _columns(expected)
    deviation = dict(zip(expected.names, d))
    counts: dict[str, int] = {}
    listed: dict[str, str] = {}
    section = None
    problems = []
    for line in text.splitlines():
        if line.startswith("note: "):
            continue
        header = _SECTION.match(line)
        if header:
            section = header.group(1)
            counts[section] = int(header.group(2))
            continue
        row = _ROW.match(line)
        if row is None or section is None:
            return [f"unexpected classify line {line!r}"]
        name, sign = row.group(1), row.group(3)
        if name in listed or name not in deviation:
            return [f"exemplar {name!r} listed twice or unknown"]
        listed[name] = section
        value = deviation[name]
        if abs(value) > 1e-9:
            want = "Weakening" if value < 0.0 else "Strengthening"
            if section != want or sign != ("-" if value < 0.0 else "+"):
                problems.append(f"{name} (deviation {value:+.3e}) listed as {section}")
    if len(listed) != expected.n:
        problems.append(f"classify listed {len(listed)} of {expected.n} exemplars")
    for title, count in counts.items():
        if count != sum(1 for s in listed.values() if s == title):
            problems.append(f"{title} header count {count} does not match its rows")
    return problems


def parse_grid_csv(text: str) -> tuple[tuple, np.ndarray]:
    """(header, values) of a grid CSV; raises ValueError when malformed."""
    if not text.endswith("\n"):
        raise ValueError("grid CSV does not end with a newline")
    lines = text[:-1].split("\n")
    head = lines[0].split(",")
    if len(head) != 6:
        raise ValueError(f"grid header has {len(head)} fields")
    header = (*(float(v) for v in head[:4]), int(head[4]), int(head[5]))
    width, height = header[4], header[5]
    rows = lines[1:]
    if len(rows) != height or any(row.count(",") != width - 1 for row in rows):
        raise ValueError(f"grid body is not {height} rows of {width} values")
    values = np.array(",".join(rows).split(","), dtype=float).reshape(height, width)
    return header, values


def _quantized(values: np.ndarray) -> np.ndarray:
    low, high = float(values.min()), float(values.max())
    if not high > low:
        return np.zeros(values.shape)
    return np.clip(np.rint((values - low) * (255.0 / (high - low))), 0.0, 255.0)


def check_grids(headers: dict, values: dict, pgms: dict, resolution: int) -> list[str]:
    """Headers, sizes, PGM quantization and the landscape identities."""
    problems = []
    if set(headers) != set(GRID_NAMES) or set(pgms) != set(GRID_NAMES):
        return [f"expected grids {GRID_NAMES}, got {sorted(headers)} / {sorted(pgms)}"]
    if len({headers[name] for name in GRID_NAMES}) != 1:
        problems.append("grid headers disagree on the window or size")
    for name in GRID_NAMES:
        width, height = headers[name][4:]
        if (width, height) != (resolution, resolution):
            problems.append(f"{name} is {width}x{height}, expected {resolution}^2")
            continue
        prefix = f"P5\n{width} {height}\n255\n".encode("ascii")
        body = pgms[name][len(prefix):]
        if not pgms[name].startswith(prefix) or len(body) != width * height:
            problems.append(f"{name}.pgm header or length is wrong")
            continue
        pixels = np.frombuffer(body, dtype=np.uint8).reshape(height, width)
        off = np.abs(pixels.astype(float) - _quantized(values[name]))
        if off.max() > 1.0:
            problems.append(f"{name}.pgm differs from its grid by {off.max():.0f} levels")
    if problems:
        return problems
    a, b = values["a_only"], values["b_only"]
    classical, interference = values["classical"], values["interference"]
    scale = float(np.max(a + b))
    if not _close(a + b, 2.0 * classical, 1e-12 * scale):
        problems.append("a_only + b_only != 2 classical")
    if float(interference.min()) < -1e-12 * scale:
        problems.append(f"interference is negative ({interference.min()!r})")
    if np.any(np.abs(interference - classical) > np.sqrt(a * b) * (1 + 1e-12) + 1e-15 * scale):
        problems.append("interference departs from classical by more than sqrt(A B)")
    return problems


def expected_window(expected: GeneratedTable, xy: np.ndarray) -> tuple[float, ...]:
    """Default render window: placements padded by 2 sigma of the wider field."""
    a, b = np.array(expected.mu_a), np.array(expected.mu_b)
    top_a, top_b = int(np.argmax(a)), int(np.argmax(b))
    distance = math.hypot(CENTER_B[0] - CENTER_A[0], CENTER_B[1] - CENTER_A[1])
    sigma_a = distance / math.sqrt(2.0 * math.log(a.max() / a[top_b]))
    sigma_b = distance / math.sqrt(2.0 * math.log(b.max() / b[top_a]))
    pad = WINDOW_PADDING * max(sigma_a, sigma_b)
    return (
        xy[:, 0].min() - pad,
        xy[:, 0].max() + pad,
        xy[:, 1].min() - pad,
        xy[:, 1].max() + pad,
    )


def check_placements(rows: list[tuple], expected: GeneratedTable) -> list[str]:
    """rows: (name, x, y, residual), one per exemplar in table order."""
    if [r[0] for r in rows] != list(expected.names):
        return [f"placements list {len(rows)} exemplars, expected the {expected.n} inputs"]
    xy = np.array([r[1:3] for r in rows], dtype=float)
    residual = np.array([r[3] for r in rows], dtype=float)
    problems = []
    if not (np.all(np.isfinite(xy)) and np.all(residual >= 0.0)):
        problems.append("placements hold a non-finite location or negative residual")
    top_a, top_b = int(np.argmax(expected.mu_a)), int(np.argmax(expected.mu_b))
    if tuple(xy[top_a]) != CENTER_A or tuple(xy[top_b]) != CENTER_B:
        problems.append("top exemplars are not placed at the field centers")
    return problems


def check_window(header: tuple, rows: list[tuple], expected: GeneratedTable) -> list[str]:
    xy = np.array([r[1:3] for r in rows], dtype=float)
    want = expected_window(expected, xy)
    extent = max(want[1] - want[0], want[3] - want[2])
    if not _close(header[:4], want, 1e-9 * extent):
        return [f"grid window {header[:4]} differs from the default window {want}"]
    return []


def check_render_dir(out_dir: Path, expected: GeneratedTable, resolution: int) -> list[str]:
    """The 9 files of CLI render: 4 CSV + 4 PGM grids and placements.csv."""
    files = sorted(p.name for p in out_dir.iterdir())
    want = sorted([f"{g}.{ext}" for g in GRID_NAMES for ext in ("csv", "pgm")] + ["placements.csv"])
    if files != want:
        return [f"render wrote {files}, expected {want}"]
    headers, values, pgms = {}, {}, {}
    try:
        for name in GRID_NAMES:
            headers[name], values[name] = parse_grid_csv((out_dir / f"{name}.csv").read_text())
            pgms[name] = (out_dir / f"{name}.pgm").read_bytes()
    except ValueError as exc:
        return [f"{name}.csv: {exc}"]
    lines = (out_dir / "placements.csv").read_text().splitlines()
    if lines[:1] != ["exemplar,x,y,residual"]:
        return ["placements.csv has no header"]
    try:
        rows = [_placement_row(line) for line in lines[1:]]
    except ValueError as exc:
        return [f"placements.csv: {exc}"]
    return _check_landscape(rows, headers, values, pgms, expected, resolution)


def check_rendered(placements, grids, pgms, expected, resolution) -> list[str]:
    """In-process render: a PlacementMap, RasterGrids by name, PGM bytes by name."""
    rows = [(p.name, p.x, p.y, p.residual) for p in placements.placements]
    headers = {n: (g.x_min, g.x_max, g.y_min, g.y_max, g.width, g.height) for n, g in grids.items()}
    values = {n: g.values for n, g in grids.items()}
    return _check_landscape(rows, headers, values, pgms, expected, resolution)


def _check_landscape(rows, headers, values, pgms, expected, resolution) -> list[str]:
    problems = check_placements(rows, expected)
    problems += check_grids(headers, values, pgms, resolution)
    if not problems:
        problems += check_window(headers["a_only"], rows, expected)
    return problems


def check_classification(labels, expected: GeneratedTable) -> list[str]:
    """In-process classify: (index, Classification) pairs match the deviation signs."""
    *_, d = _columns(expected)
    if [k for k, _ in labels] != list(range(1, expected.n + 1)):
        return ["classification does not cover exemplars 1..n"]
    for (k, label), value in zip(labels, d):
        want = "Weakening" if value < 0.0 else "Strengthening"
        if abs(value) > 1e-9 and label.value != want:
            return [f"exemplar {k} (deviation {value:+.3e}) classified {label.value}"]
    return []


def _placement_row(line: str) -> tuple:
    name, x, y, residual = line.rsplit(",", 3)
    if name.startswith('"'):
        name = name[1:-1].replace('""', '"')
    return name, float(x), float(y), float(residual)
