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

import csv
import dataclasses
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import TextIO

import numpy as np

from .errors import DegeneracyError, ParseError, ValidationError

CSV_HEADER = ("exemplar", "mu_a", "mu_b", "mu_ab")
DEFAULT_SUM_TOLERANCE = 0.02

# Columns whose sum is already this close to 1 are left untouched, which
# makes normalization exactly idempotent.
_EXACT_SUM_SLACK = 1e-14

_COLUMN_FIELDS = ("mu_a", "mu_b", "mu_ab")
_LABEL_KEYS = ("label_a", "label_b", "combination_label")


def _check_text(kind: str, value: str, allow_empty: bool = False) -> None:
    if not isinstance(value, str):
        raise ValidationError(f"{kind} must be text, got {type(value).__name__}")
    if not allow_empty and not value:
        raise ValidationError(f"{kind} must not be empty")
    if value != value.strip():
        raise ValidationError(f"{kind} {value!r} has leading or trailing whitespace")
    if "\n" in value or "\r" in value:
        raise ValidationError(f"{kind} {value!r} contains a line break")
    if value.startswith("#"):
        raise ValidationError(f"{kind} {value!r} starts with the comment marker '#'")


@dataclass(frozen=True)
class ExemplarRecord:
    """One exemplar with its three choice probabilities."""

    index: int
    name: str
    mu_a: float
    mu_b: float
    mu_ab: float

    def __post_init__(self):
        if self.index < 1:
            raise ValidationError(f"exemplar index must be >= 1, got {self.index}")
        _check_text("exemplar name", self.name)
        for field in _COLUMN_FIELDS:
            value = getattr(self, field)
            if not isinstance(value, float):
                object.__setattr__(self, field, float(value))
                value = getattr(self, field)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValidationError(
                    f"exemplar {self.index} ({self.name}): {field}={value!r} "
                    "is not a probability in [0, 1]"
                )


@dataclass(frozen=True)
class TypicalityTable:
    """Ordered exemplar records plus concept labels and free-form notes.

    ``names`` and the three probability columns ``mu_a``, ``mu_b`` and
    ``mu_ab`` are built once from the records, the columns as read-only
    float64 arrays; equality and hashing stay on records, labels and notes.
    """

    records: tuple[ExemplarRecord, ...]
    label_a: str = "A"
    label_b: str = "B"
    combination_label: str = "A or B"
    notes: tuple[str, ...] = ()
    names: tuple[str, ...] = dataclasses.field(init=False, repr=False, compare=False)
    mu_a: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    mu_b: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    mu_ab: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "notes", tuple(self.notes))
        seen: set[str] = set()
        for position, record in enumerate(self.records, start=1):
            if record.index != position:
                raise ValidationError(
                    f"exemplar indices must be contiguous from 1: position "
                    f"{position} holds index {record.index}"
                )
            if record.name in seen:
                raise ValidationError(f"duplicate exemplar name {record.name!r}")
            seen.add(record.name)
        for key in _LABEL_KEYS:
            _check_text(key, getattr(self, key), allow_empty=True)
        for note in self.notes:
            _check_text("note", note)
        object.__setattr__(self, "names", tuple(r.name for r in self.records))
        for name in _COLUMN_FIELDS:
            column = np.array([getattr(r, name) for r in self.records], dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def n(self) -> int:
        return len(self.records)

    def column_sums(self) -> dict[str, float]:
        """Compensated sums of the three probability columns."""
        return {name: math.fsum(getattr(self, name).tolist()) for name in _COLUMN_FIELDS}


def parse_table(source: str | TextIO) -> TypicalityTable:
    """Parse CSV text (or a readable text stream) into a TypicalityTable.

    Raises ParseError with the offending 1-based line number for malformed
    rows and ValidationError for table-level problems (duplicate names, no
    data rows).
    """
    text = source if isinstance(source, str) else source.read()
    lines = text.splitlines()
    if lines and lines[0].startswith("\ufeff"):
        lines[0] = lines[0][1:]

    labels: dict[str, str] = {}
    notes: list[str] = []
    records: list[ExemplarRecord] = []
    header_seen = False

    for line_number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            key, sep, value = stripped[1:].partition(":")
            if sep:
                key = key.strip()
                if key in _LABEL_KEYS:
                    labels[key] = value.strip()
                elif key == "note":
                    notes.append(value.strip())
            continue
        try:
            row = next(csv.reader([raw]))
        except csv.Error as exc:
            raise ParseError(f"unparseable CSV row: {exc}", line_number) from exc
        if not header_seen:
            if tuple(cell.strip() for cell in row) != CSV_HEADER:
                raise ParseError(
                    f"expected header {','.join(CSV_HEADER)!r}, got {stripped!r}",
                    line_number,
                )
            header_seen = True
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line_number)
        name = row[0]
        values = []
        for field, cell in zip(_COLUMN_FIELDS, row[1:]):
            try:
                value = float(cell)
            except ValueError as exc:
                raise ParseError(
                    f"non-numeric {field} value {cell.strip()!r}", line_number
                ) from exc
            values.append(value)
        # the record range-checks each value and names the exemplar
        try:
            records.append(ExemplarRecord(len(records) + 1, name, *values))
        except ValidationError as exc:
            raise ParseError(str(exc), line_number) from exc

    if not header_seen:
        raise ParseError(f"missing header line {','.join(CSV_HEADER)!r}")
    if not records:
        raise ValidationError("table has no exemplar rows")
    return TypicalityTable(
        records=tuple(records),
        label_a=labels.get("label_a", "A"),
        label_b=labels.get("label_b", "B"),
        combination_label=labels.get("combination_label", "A or B"),
        notes=tuple(notes),
    )


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

    scales: dict[str, float | None] = {}
    for field, total in table.column_sums().items():
        if total <= 0.0 or abs(total - 1.0) > tolerance:
            raise ValidationError(
                f"column {field} sums to {total!r}, outside tolerance "
                f"{tolerance} of 1"
            )
        scales[field] = None if abs(total - 1.0) <= _EXACT_SUM_SLACK else total

    if any(scale is not None for scale in scales.values()):

        def rescaled(record: ExemplarRecord) -> ExemplarRecord:
            updates = {
                field: getattr(record, field) / scale
                for field, scale in scales.items()
                if scale is not None
            }
            return replace(record, **updates)

        table = replace(table, records=tuple(rescaled(r) for r in table.records))

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
