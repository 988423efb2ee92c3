"""Typicality tables: CSV parsing, validation, normalization, reference data.

A typicality table holds, for each exemplar, the probabilities of it being
chosen as a good example of concept A, of concept B, and of the combined
concept (e.g. "A or B").  Each of the three columns is a probability
distribution over the exemplars, so the model downstream requires every
column to sum to exactly 1; published tables are usually rounded, which is
why :func:`validate_and_normalize` rescales columns whose sums are merely
close to 1.

CSV format
----------
Header line ``exemplar,mu_a,mu_b,mu_ab``, one row per exemplar, UTF-8,
LF or CRLF line endings.  Lines starting with ``#`` are comments; comments
of the form ``# label_a: Fruits``, ``# label_b: ...``,
``# combination_label: ...`` and ``# note: ...`` attach metadata to the
table.  Exemplar names may contain commas (standard CSV quoting) but not
line breaks, and may not start with ``#`` or carry leading/trailing
whitespace.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError, ParseError, ValidationError

CSV_HEADER = ("exemplar", "mu_a", "mu_b", "mu_ab")
DEFAULT_SUM_TOLERANCE = 0.02

# Columns whose sum is already this close to 1 are left untouched, which
# makes normalization exactly idempotent.
_EXACT_SUM_SLACK = 1e-14

_COLUMN_FIELDS = ("mu_a", "mu_b", "mu_ab")
LABEL_KEYS = ("label_a", "label_b", "combination_label")


def _text_problem(kind: str, value, allow_empty: bool = False) -> str | None:
    """Why ``value`` cannot be a name, label or note, or None if it can."""
    if not isinstance(value, str):
        return f"{kind} must be text, got {type(value).__name__}"
    if not allow_empty and not value:
        return f"{kind} must not be empty"
    if value != value.strip():
        return f"{kind} {value!r} has leading or trailing whitespace"
    if "\n" in value or "\r" in value:
        return f"{kind} {value!r} contains a line break"
    if value.startswith("#"):
        return f"{kind} {value!r} starts with the comment marker '#'"
    return None


class ExemplarRecord(NamedTuple):
    """One table row: 1-based index, name and the three choice probabilities."""

    index: int
    name: str
    mu_a: float
    mu_b: float
    mu_ab: float


@dataclass(frozen=True, eq=False, init=False)
class TypicalityTable:
    """Exemplar names and three probability columns, with concept labels
    and free-form notes.

    Built from ``records``, any iterable of ``(index, name, mu_a, mu_b,
    mu_ab)`` rows such as ``ExemplarRecord``, and keeps only ``names`` and
    the read-only float64 columns ``mu_a``, ``mu_b`` and ``mu_ab``.  Each
    row is checked here, once: indices run 1, 2, ..., names are unique text
    and values are probabilities in [0, 1].  A table equals only itself.
    """

    label_a: str
    label_b: str
    combination_label: str
    notes: tuple[str, ...]
    names: tuple[str, ...]
    mu_a: np.ndarray = dataclasses.field(repr=False)
    mu_b: np.ndarray = dataclasses.field(repr=False)
    mu_ab: np.ndarray = dataclasses.field(repr=False)

    def __init__(
        self, records, label_a="A", label_b="B", combination_label="A or B", notes=()
    ):
        rows = tuple(records)
        n = len(rows)
        indices, names, *values = zip(*rows, strict=True) if rows else ((),) * 5
        columns = np.array([[*map(float, column)] for column in values]).reshape(3, n)
        columns.flags.writeable = False

        # Report the first row with a problem, checking its index, name and
        # values in that order; then contiguity and duplicates, by row.
        outside = ~((columns >= 0.0) & (columns <= 1.0))  # NaN is outside too
        out_of_range = outside.any(axis=0).tolist()
        for k, index, name, out in zip(range(n), indices, names, out_of_range):
            if index < 1:
                raise ValidationError(f"exemplar index must be >= 1, got {index}", k + 1)
            if problem := _text_problem("exemplar name", name):
                raise ValidationError(problem, k + 1)
            if out:
                f = int(np.argmax(outside[:, k]))
                raise ValidationError(
                    f"exemplar {index} ({name}): {_COLUMN_FIELDS[f]}="
                    f"{columns[f, k].item()!r} is not a probability in [0, 1]", k + 1
                )
        if indices != tuple(range(1, n + 1)) or len(set(names)) != n:
            seen: set[str] = set()
            for k, name in enumerate(names):
                if indices[k] != k + 1:
                    raise ValidationError(
                        f"exemplar indices must be contiguous from 1: position "
                        f"{k + 1} holds index {indices[k]}"
                    )
                if name in seen:
                    raise ValidationError(f"duplicate exemplar name {name!r}")
                seen.add(name)

        if isinstance(notes, str):
            raise ValidationError(f"notes must be a list of texts, got {notes!r}")
        labels, notes = (label_a, label_b, combination_label), tuple(notes)
        texts = [(key, text, True) for key, text in zip(LABEL_KEYS, labels)]
        for kind, text, allow_empty in texts + [("note", t, False) for t in notes]:
            if problem := _text_problem(kind, text, allow_empty):
                raise ValidationError(problem)
        values = (*labels, notes, names, *columns)
        for field, value in zip(dataclasses.fields(self), values, strict=True):
            object.__setattr__(self, field.name, value)

    @property
    def n(self) -> int:
        return len(self.names)

    def column_sums(self) -> dict[str, float]:
        """Compensated sums of the three probability columns."""
        return {name: math.fsum(getattr(self, name).tolist()) for name in _COLUMN_FIELDS}


def _reader_fields(line: str) -> list[str] | csv.Error:
    """The fields ``csv.reader`` reads from one line, or the error it raises."""
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        return exc


def _row_problem(fields: list[str] | csv.Error) -> str | None:
    """Why one line's fields are not a name and three numbers, or None."""
    if isinstance(fields, csv.Error):
        return f"unparseable CSV row: {fields}"
    if len(fields) != 4:
        return f"expected 4 fields, got {len(fields)}"
    for field, cell in zip(_COLUMN_FIELDS, fields[1:]):
        try:
            float(cell)
        except ValueError:
            return f"non-numeric {field} value {cell.strip()!r}"
    return None


def _table_at_lines(rows, line_numbers, **metadata) -> TypicalityTable:
    """The table of the CSV data rows, a row problem reported at its line."""
    try:
        return TypicalityTable(((i, *row) for i, row in enumerate(rows, 1)), **metadata)
    except ValidationError as exc:
        if exc.position is None:
            raise
        raise ParseError(str(exc), line_numbers[exc.position - 1]) from exc


def parse_table(text: str) -> TypicalityTable:
    """Parse CSV text into a TypicalityTable.

    Raises ParseError with the 1-based line number of the first malformed
    row, and ValidationError for table-level problems (duplicate names, no
    data rows).
    """
    lines = text.removeprefix("\ufeff").splitlines()

    labels: dict[str, str] = {}
    notes: list[str] = []
    data: list[str] = []  # the header, then one line per row
    numbers: list[int] = []
    for line_number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            key, sep, value = (part.strip() for part in stripped[1:].partition(":"))
            if sep and key in LABEL_KEYS:
                labels[key] = value
            elif sep and key == "note":
                notes.append(value)
            continue
        data.append(raw)
        numbers.append(line_number)

    header = ",".join(CSV_HEADER)
    if not data:
        raise ParseError(f"missing header line {header!r}")
    # each line on its own: one with no quote or NUL that fits the field size
    # limit is its split at the commas, which is what csv.reader gives for it
    limit = csv.field_size_limit()
    fields, *rows = [
        line.split(",")
        if '"' not in line and "\0" not in line and len(line) <= limit
        else _reader_fields(line)
        for line in data
    ]
    if isinstance(fields, csv.Error):
        raise ParseError(_row_problem(fields), numbers[0])
    if tuple(cell.strip() for cell in fields) != CSV_HEADER:
        raise ParseError(
            f"expected header {header!r}, got {data[0].strip()!r}", numbers[0]
        )
    del numbers[0]
    if not rows:
        raise ValidationError("table has no exemplar rows")
    try:
        # the constructor converts the cells: a row that is not a name and
        # three numbers (a csv.Error among them) raises TypeError or ValueError
        return _table_at_lines(rows, numbers, notes=notes, **labels)
    except (ParseError, ValidationError):  # ValueErrors raised once the cells convert
        raise
    except (TypeError, ValueError):
        # the first line that is not a name and three numbers, after any
        # problem in a row above it; duplicate names count once all are read
        problems = map(_row_problem, rows)
        k, problem = next((k, p) for k, p in enumerate(problems) if p)
        with contextlib.suppress(ValidationError):
            _table_at_lines(rows[:k], numbers)
        raise ParseError(problem, numbers[k]) from None


def validate_and_normalize(
    table: TypicalityTable, tolerance: float = DEFAULT_SUM_TOLERANCE
) -> TypicalityTable:
    """Check table-level invariants and rescale each column to unit sum.

    A column whose compensated sum s satisfies |s - 1| <= tolerance is
    divided by s; a column already summing to 1 within ~1e-14 is left
    untouched, so the operation is exactly idempotent.  Rejects tables with
    fewer than 2 exemplars, column sums outside tolerance, and any exemplar
    whose marginal product mu_a * mu_b is 0 after rescaling (a zero marginal
    or a product that underflows): its phase would be undefined.
    """
    if not (isinstance(tolerance, (int, float)) and tolerance > 0):
        raise ValidationError(f"tolerance must be positive, got {tolerance!r}")
    if table.n < 2:
        raise ValidationError(f"need at least 2 exemplars, got {table.n}")

    sums = table.column_sums()
    for field, total in sums.items():
        if total <= 0.0 or abs(total - 1.0) > tolerance:
            raise ValidationError(
                f"column {field} sums to {total!r}, outside tolerance "
                f"{tolerance} of 1"
            )
    # dividing by 1.0 leaves a column's values as they are, bit for bit
    scales = [1.0 if abs(s - 1.0) <= _EXACT_SUM_SLACK else s for s in sums.values()]
    if scales != [1.0] * 3:
        columns = [(getattr(table, f) / s).tolist() for f, s in zip(sums, scales)]
        rows = zip(range(1, table.n + 1), table.names, *columns)
        labels = (getattr(table, key) for key in LABEL_KEYS)
        table = TypicalityTable(rows, *labels, table.notes)

    zero = np.flatnonzero(table.mu_a * table.mu_b == 0.0)
    if zero.size:
        k = int(zero[0])
        raise DegeneracyError(
            f"exemplar {k + 1} ({table.names[k]}) has a zero marginal "
            "probability or marginal product mu_a * mu_b; its interference "
            "phase would be undefined"
        )
    return table


def fruits_vegetables_csv() -> str:
    """Raw CSV text of the bundled Fruits/Vegetables reference dataset."""
    return (
        resources.files(__package__)
        .joinpath("data/fruits_vegetables.csv")
        .read_text(encoding="utf-8")
    )


def fruits_vegetables() -> TypicalityTable:
    """The bundled Fruits/Vegetables reference dataset (unnormalized)."""
    return parse_table(fruits_vegetables_csv())
