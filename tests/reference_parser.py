"""The line-by-line CSV parser kept as the reference for ``dataset.parse_table``.

Each line, the header included, goes through its own ``csv.reader`` and its
cells are converted one at a time.  ``parse_table`` splits the lines that
need no reader at their commas and converts each column in one pass; every
text, well formed or not, must give an equal table, or the same exception
type, message and line number, from both.
"""

from __future__ import annotations

import contextlib
import csv

from concept_interference import ParseError, TypicalityTable, ValidationError
from concept_interference.dataset import CSV_HEADER

_COLUMN_FIELDS = ("mu_a", "mu_b", "mu_ab")


def _read_line(line: str, line_number: int) -> list[str]:
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise ParseError(f"unparseable CSV row: {exc}", line_number) from exc


def _read_row(line: str, line_number: int) -> tuple[str, float, float, float]:
    row = _read_line(line, line_number)
    if len(row) != 4:
        raise ParseError(f"expected 4 fields, got {len(row)}", line_number)
    values = []
    for field, cell in zip(_COLUMN_FIELDS, row[1:]):
        try:
            values.append(float(cell))
        except ValueError as exc:
            raise ParseError(
                f"non-numeric {field} value {cell.strip()!r}", line_number
            ) from exc
    return (row[0], *values)


def _table_at_lines(rows, line_numbers, **metadata) -> TypicalityTable:
    records = ((k, *row) for k, row in enumerate(rows, start=1))
    try:
        return TypicalityTable(records, **metadata)
    except ValidationError as exc:
        if exc.position is None:
            raise
        raise ParseError(str(exc), line_numbers[exc.position - 1]) from exc


def reference_parse_table(text: str) -> TypicalityTable:
    lines = text.removeprefix("﻿").splitlines()

    labels = {"label_a": "A", "label_b": "B", "combination_label": "A or B"}
    notes: list[str] = []
    data: list[str] = []
    numbers: list[int] = []
    for line_number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            key, sep, value = (part.strip() for part in stripped[1:].partition(":"))
            if sep and key in labels:
                labels[key] = value
            elif sep and key == "note":
                notes.append(value)
            continue
        data.append(raw)
        numbers.append(line_number)

    header = ",".join(CSV_HEADER)
    if not data:
        raise ParseError(f"missing header line {header!r}")
    if tuple(cell.strip() for cell in _read_line(data[0], numbers[0])) != CSV_HEADER:
        raise ParseError(
            f"expected header {header!r}, got {data[0].strip()!r}", numbers[0]
        )
    del data[0], numbers[0]
    if not data:
        raise ValidationError("table has no exemplar rows")
    rows = []
    for line, line_number in zip(data, numbers):
        try:
            rows.append(_read_row(line, line_number))
        except ParseError:
            with contextlib.suppress(ValidationError):
                _table_at_lines(rows, numbers)
            raise
    return _table_at_lines(rows, numbers, notes=notes, **labels)
