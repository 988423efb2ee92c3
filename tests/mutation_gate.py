"""Mutation gate, deletion mode: replace each statement of the package with
``pass`` in turn and check that the test suite notices.

Usage, from the root of a checkout:

    python tests/mutation_gate.py

It first runs the suite once in this process under a line tracer, as
``tests/statement_coverage.py`` does, and records the package lines each
test ran.  It then copies ``src/``, ``tests/``, ``demos/``,
``pyproject.toml`` and the Hypothesis database into one scratch directory
per usable CPU, checks that the unchanged suite passes in each, and
deletes the statements of ``src/concept_interference`` one at a time
there; the checkout itself is never written.  A statement is every one the
statement gate counts (docstrings and other bare strings, ``global``,
``nonlocal`` and ``pass`` are not), nested ones included, each deleted on
its own.  A mutant runs ``pytest -x`` in a child process over the tests
that ran the statement's lines, then, if those tests all pass, over the
whole suite; a statement that runs at import (module and class bodies) or
that no traced test ran goes straight to the whole suite.  The first stage
only saves time: no mutant survives without a whole-suite run.  A mutant
is killed when pytest fails, errors or outlives a timeout of three times
the unchanged suite's run plus a minute.

Children run with Hypothesis seed 0 and no deadline, without bytecode
files, and with their address space capped at ``_ADDRESS_SPACE`` bytes, so
that a mutant that drops a size guard fails instead of filling memory.
Exits with pytest's status when the traced suite fails, 1 when the
unchanged suite fails in a scratch copy, when a statement survives that
``ALLOWED`` does not explain or when an ``ALLOWED`` entry no longer
survives, and 0 otherwise.  This file is not collected by pytest.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from statement_coverage import (
    PACKAGE,
    ROOT,
    _children,
    _first_line,
    _NoDeadline,
    _not_a_statement,
)

# Statements whose deletion no test notices, keyed "module:scope: first
# line" (with " [2]", " [3]" ... on the later statements of a scope that
# share a first line), each with the reason no test should.
_LAZY = "each annotation of the module evaluates on Python 3.10, the oldest supported"
_TYPE_ONLY = "the name is read by annotations only, which are never evaluated"
_PEP8_RETURN = "falling off the end returns None too; PEP 8 asks for it spelled out"
ALLOWED: dict[str, str] = {
    "cli.py:<module>: from __future__ import annotations": _LAZY,
    "dataset.py:<module>: from __future__ import annotations": _LAZY,
    "errors.py:<module>: from __future__ import annotations": _LAZY,
    "solver.py:<module>: from __future__ import annotations": _LAZY,
    "wavefield.py:<module>: from __future__ import annotations": _LAZY,
    "solver.py:<module>: from .dataset import TypicalityTable": _TYPE_ONLY,
    "wavefield.py:<module>: from .dataset import TypicalityTable": _TYPE_ONLY,
    "dataset.py:_text_problem: return None": _PEP8_RETURN,
    "dataset.py:_row_problem: return None": _PEP8_RETURN,
}

_COPIED = ("src", "tests", "demos", "pyproject.toml", ".hypothesis")
_ADDRESS_SPACE = 4 * 2**30
_PYTEST_ARGS = ["-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]


class _LineMap:
    """pytest plugin: (filename, line) -> the ids of the tests that ran that
    package line, in run order.  A fixture's setup counts for the test that
    set it up, so a session fixture's lines go to the first test using it."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.lines: set[tuple[str, int]] = set()
        self.tests: dict[tuple[str, int], list[str]] = {}

    def trace(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.prefix) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.lines = set()
        try:
            return (yield)
        finally:
            for line in self.lines:
                self.tests.setdefault(line, []).append(item.nodeid)


class _Select:
    """pytest plugin: keep only the tests whose ids are listed."""

    def __init__(self, ids: set[str]):
        self.ids = ids

    def pytest_collection_modifyitems(self, config, items):
        items[:] = [item for item in items if item.nodeid in self.ids]


class _Mutant:
    """One statement of a module, deleted."""

    def __init__(
        self, path: Path, source: bytes, node: ast.stmt, key: str, at_import: bool
    ):
        self.path = path
        self.key = key
        self.at_import = at_import
        lines = source.splitlines(keepends=True)
        starts = [0]
        for line in lines:
            starts.append(starts[-1] + len(line))
        first = _first_line(node)
        # a decorated statement starts at its first decorator's '@', at the
        # indentation of that line; columns are byte offsets
        column = node.col_offset if first == node.lineno else (
            len(lines[first - 1]) - len(lines[first - 1].lstrip())
        )
        start = starts[first - 1] + column
        end = starts[node.end_lineno - 1] + node.end_col_offset
        self.text = source[:start] + b"pass" + source[end:]
        self.lines = range(first, node.end_lineno + 1)
        self.where = f"{path.relative_to(ROOT)}:{node.lineno}: {key.partition(':')[2]}"


def _mutants(path: Path) -> list[_Mutant]:
    source = path.read_bytes()
    lines = source.splitlines()
    found = []
    seen: dict[str, int] = {}

    def visit(nodes, scope: str, at_import: bool):
        for node in nodes:
            if not (_not_a_statement(node) or isinstance(node, ast.Pass)):
                key = f"{path.name}:{scope}: {lines[node.lineno - 1].decode('utf-8').strip()}"
                seen[key] = seen.get(key, 0) + 1
                if seen[key] > 1:
                    key += f" [{seen[key]}]"
                found.append(_Mutant(path, source, node, key, at_import))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
                function = not isinstance(node, ast.ClassDef)
                visit(_children(node), inner, at_import and not function)
            else:
                visit(_children(node), scope, at_import)

    visit(ast.parse(source, str(path)).body, "<module>", True)
    return found


def _copy_checkout(copy: Path) -> Path:
    copy.mkdir(parents=True)
    for name in _COPIED:
        if (ROOT / name).is_dir():
            ignore = shutil.ignore_patterns("__pycache__")
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        elif (ROOT / name).exists():
            shutil.copy2(ROOT / name, copy / name)
    return copy


def _run_suite(copy: Path, ids: list[str] | None, timeout: float | None) -> bool:
    """Whether pytest passes in ``copy``, over the tests ``ids`` (None: all)."""
    command = [sys.executable, str(copy / "tests" / Path(__file__).name), "--child"]
    if ids is not None:
        selection = copy / "selected.txt"
        selection.write_text("\n".join(ids), encoding="utf-8")
        command.append(str(selection))
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            command, cwd=copy, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def _child(selection: str | None) -> int:
    # the test processes this one starts inherit the cap
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))
    plugins = [_NoDeadline()]
    args = [*_PYTEST_ARGS, "tests"]
    if selection is not None:
        ids = Path(selection).read_text(encoding="utf-8").splitlines()
        plugins.append(_Select(set(ids)))
        args = [*_PYTEST_ARGS, *dict.fromkeys(i.partition("::")[0] for i in ids)]
    return int(pytest.main(args, plugins=plugins))


def _trace_suite() -> tuple[int, dict[tuple[str, int], list[str]]]:
    """pytest's status over the suite, traced, and the tests that ran each
    package line."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )
    line_map = _LineMap(str(PACKAGE) + "/")
    threading.settrace(line_map.trace)
    sys.settrace(line_map.trace)
    try:
        status = pytest.main(
            [*_PYTEST_ARGS[1:], "--continue-on-collection-errors", str(ROOT / "tests")],
            plugins=[_NoDeadline(), line_map],
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), line_map.tests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--child", nargs="?", const="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        return _child(args.child or None)

    began = time.monotonic()
    status, covering = _trace_suite()
    if status != 0:
        return status
    from concept_interference.wavefield import _usable_cpus

    jobs = _usable_cpus()
    mutants = [m for path in sorted(PACKAGE.glob("*.py")) for m in _mutants(path)]
    scratch = tempfile.TemporaryDirectory(prefix="mutation-gate-")
    copies: queue.Queue[Path] = queue.Queue()
    for job in range(jobs):
        copies.put(_copy_checkout(Path(scratch.name) / str(job)))

    def baseline(copy: Path) -> tuple[bool, float]:
        start = time.monotonic()
        return _run_suite(copy, None, None), time.monotonic() - start

    def verdict(mutant: _Mutant, timeout: float) -> bool:
        """Whether ``mutant`` survives."""
        copy = copies.get()
        target = copy / mutant.path.relative_to(ROOT)
        original = target.read_bytes()
        try:
            target.write_bytes(mutant.text)
            tests = [] if mutant.at_import else [
                *dict.fromkeys(
                    test
                    for line in mutant.lines
                    for test in covering.get((str(mutant.path), line), ())
                )
            ]
            if tests and not _run_suite(copy, tests, timeout):
                return False
            return _run_suite(copy, None, timeout)
        finally:
            target.write_bytes(original)
            copies.put(copy)

    with scratch, ThreadPoolExecutor(jobs) as pool:
        runs = list(pool.map(baseline, list(copies.queue)))
        if not all(ok for ok, _ in runs):
            print("mutation gate: the unchanged suite fails in a scratch copy")
            return 1
        timeout = 3 * max(seconds for _, seconds in runs) + 60
        survived = []
        for mutant, alive in zip(mutants, pool.map(lambda m: verdict(m, timeout), mutants)):
            if alive:
                reason = ALLOWED.get(mutant.key)
                print(f"{mutant.where}  [{'allowed: ' + reason if reason else 'SURVIVES'}]",
                      flush=True)
                survived.append(mutant)

    unexplained = [m for m in survived if m.key not in ALLOWED]
    stale = ALLOWED.keys() - {m.key for m in survived}
    for key in sorted(stale):
        print(f"allowlist entry no longer survives: {key}")
    print(
        f"mutation gate: {len(mutants)} statements deleted with {jobs} jobs, "
        f"{len(mutants) - len(survived)} killed, {len(survived)} survived "
        f"({len(survived) - len(unexplained)} allowed) in {time.monotonic() - began:.0f} s"
    )
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
