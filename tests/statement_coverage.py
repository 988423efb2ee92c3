"""Statement gate: run the test suite in-process under a line tracer and list
every statement of the package that never ran.

Usage, from the root of a checkout:

    python tests/statement_coverage.py

It imports the package from ``src/`` (and puts ``src/`` on the
``PYTHONPATH`` of the child processes the tests start), runs the suite as
``pytest -q --continue-on-collection-errors tests`` in this process and
traces only frames whose code lives under ``src/concept_interference``, in
this thread (``sys.settrace``) and in every thread started after it
(``threading.settrace``), such as the render threads.  A statement counts
as run when a line of its own (its decorators and header, not the lines of
the statements nested in it) produced a line event, or when a statement
nested in it ran.  Docstrings and other bare strings are not statements
here, and neither are ``global`` and ``nonlocal``, which compile to no
code.  ``__main__.py`` is left out, because only a child process runs it.

Hypothesis' default profile is replaced for this run only by one with no
deadline, as traced examples run several times slower; a test's own
settings still apply.  Exits with pytest's status when the suite fails,
1 when a statement never ran (each is listed as ``path:line: source``),
and 0 otherwise.  This file is not collected by pytest.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "concept_interference"
_SKIPPED_FILES = ("__main__.py",)
_BODIES = ("body", "orelse", "finalbody", "handlers", "cases")


class _Tracers(dict):
    """filename -> the local tracer that records its line events, or None
    for a file outside the package."""

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix
        self.lines: dict[str, set[int]] = {}

    def __missing__(self, filename: str):
        tracer = None
        if filename.startswith(self.prefix):
            add = self.lines.setdefault(filename, set()).add

            def tracer(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return tracer

        self[filename] = tracer
        return tracer


def _first_line(node: ast.stmt) -> int:
    return min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])


def _children(node: ast.stmt):
    """The statements directly nested in ``node``, handler and case bodies
    included."""
    for field in _BODIES:
        for child in getattr(node, field, ()):
            if isinstance(child, ast.stmt):
                yield child
            else:  # an except handler or a match case
                yield from child.body


def _not_a_statement(node: ast.stmt) -> bool:
    """A bare string (a docstring among them), ``global`` or ``nonlocal``."""
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return True
    value = node.value if isinstance(node, ast.Expr) else None
    return isinstance(value, ast.Constant) and isinstance(value.value, str)


def _unrun(node: ast.stmt, hit: set[int]) -> tuple[bool, list[ast.stmt]]:
    """Whether ``node`` ran, and the statements in and under it that did not."""
    children = list(_children(node))
    missed: list[ast.stmt] = []
    child_ran = False
    nested: set[int] = set()
    for child in children:
        ran, below = _unrun(child, hit)
        child_ran |= ran
        missed += below
        nested.update(range(_first_line(child), child.end_lineno + 1))
    own = set(range(_first_line(node), node.end_lineno + 1)) - nested
    ran = child_ran or bool(own & hit)
    if not ran and not _not_a_statement(node):
        missed.insert(0, node)
    return ran, missed


def unrun_statements(path: Path, hit: set[int]) -> list[ast.stmt]:
    """The statements of the module at ``path`` whose lines ``hit`` misses."""
    module = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [s for node in module.body for s in _unrun(node, hit)[1]]


class _NoDeadline:
    """pytest plugin: hypothesis without deadlines, for this run only."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("statement-coverage", deadline=None)
        settings.load_profile("statement-coverage")


def main() -> int:
    # the package from src/, here and in the child processes the tests start
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )
    import pytest

    tracers = _Tracers(str(PACKAGE) + "/")

    def trace(frame, event, arg):
        return tracers[frame.f_code.co_filename]

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(
            ["-q", "--continue-on-collection-errors", str(ROOT / "tests")],
            plugins=[_NoDeadline()],
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return int(status)

    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name not in _SKIPPED_FILES)
    if not tracers.lines:
        print(f"no line of {PACKAGE} ran: is the package imported from elsewhere?")
        return 1
    missed = []
    for path in sources:
        text = path.read_text(encoding="utf-8").splitlines()
        for node in unrun_statements(path, tracers.lines.get(str(path), set())):
            relative = path.relative_to(ROOT)
            missed.append(f"{relative}:{node.lineno}: {text[node.lineno - 1].strip()}")
    for line in missed:
        print(line)
    print(
        f"statement gate: {len(missed)} unexecuted statement(s) in "
        f"{len(sources)} files of {PACKAGE.relative_to(ROOT)}"
    )
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
