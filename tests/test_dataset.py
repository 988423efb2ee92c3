import csv
import dataclasses
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concept_interference import (
    DegeneracyError,
    ExemplarRecord,
    ParseError,
    TypicalityTable,
    ValidationError,
    parse_table,
    validate_and_normalize,
)

from conftest import make_table, table_key
from reference_parser import reference_parse_table
from reference_values import RAW_COLUMN_SUMS, RAW_ROWS


def _render_csv(table):
    """CSV text of a table at full float precision, labels and notes as
    comments; ``parse_table`` reads it back to a table of the same
    ``table_key``."""
    buffer = io.StringIO()
    for key in ("label_a", "label_b", "combination_label"):
        buffer.write(f"# {key}: {getattr(table, key)}\n")
    for note in table.notes:
        buffer.write(f"# note: {note}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("exemplar", "mu_a", "mu_b", "mu_ab"))
    columns = (table.mu_a.tolist(), table.mu_b.tolist(), table.mu_ab.tolist())
    for name, *values in zip(table.names, *columns):
        writer.writerow([name, *map(repr, values)])
    return buffer.getvalue()


class TestParse:
    def test_bundled_dataset(self, raw_table):
        assert raw_table.n == 24
        assert raw_table.names[0] == "Almond"
        first = (raw_table.mu_a[0], raw_table.mu_b[0], raw_table.mu_ab[0])
        assert first == (0.0359, 0.0133, 0.0269)
        assert raw_table.label_a == "Fruits"
        assert raw_table.label_b == "Vegetables"
        assert raw_table.combination_label == "Fruits or Vegetables"
        assert any("Watercress" in note for note in raw_table.notes)

    def test_bundled_dataset_matches_reference_rows(self, raw_table):
        columns = (raw_table.mu_a, raw_table.mu_b, raw_table.mu_ab)
        rows = zip(range(1, raw_table.n + 1), raw_table.names, *columns)
        assert [tuple(row) for row in rows] == list(RAW_ROWS)

    def test_single_record_parses_then_fails_validation(self):
        table = parse_table("exemplar,mu_a,mu_b,mu_ab\nX,1.0,1.0,1.0\n")
        assert table.n == 1
        with pytest.raises(ValidationError, match="at least 2"):
            validate_and_normalize(table)

    def test_non_numeric_field_names_line(self):
        text = "exemplar,mu_a,mu_b,mu_ab\nAlmond,0.0359,abc,0.0269\n"
        with pytest.raises(ParseError, match="line 2") as excinfo:
            parse_table(text)
        assert excinfo.value.line_number == 2
        assert "abc" in str(excinfo.value)

    def test_wrong_arity_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_table("exemplar,mu_a,mu_b,mu_ab\nA,0.1,0.2,0.3\nB,0.1,0.2\n")

    def test_out_of_range_value(self):
        message = r"^line 2: exemplar 1 \(A\): mu_a=1\.5 is not a probability in \[0, 1\]$"
        with pytest.raises(ParseError, match=message):
            parse_table("exemplar,mu_a,mu_b,mu_ab\nA,1.5,0.2,0.3\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_table("exemplar,mu_a,mu_b,mu_ab\nA,-0.1,0.2,0.3\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_table("exemplar,mu_a,mu_b,mu_ab\nA,nan,0.2,0.3\n")

    @pytest.mark.parametrize("position", [2, 3])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("Kiwi,0.25,1.5,0.25", "exemplar {k} (Kiwi): mu_b=1.5 is not a probability in [0, 1]"),
            ("Kiwi,0.25,abc,0.25", "non-numeric mu_b value 'abc'"),
            (" Kiwi,0.25,0.5,0.25", "exemplar name ' Kiwi' has leading or trailing whitespace"),
            ("Kiwi,0.25,0.5", "expected 4 fields, got 3"),
        ],
        ids=["out-of-range", "non-numeric", "bad-name", "field-count"],
    )
    @pytest.mark.parametrize(
        "later_row",
        ["Fig,2.0,0.5,0.25", "Fig,0.5,x,0.25", "x" * 140_000 + ",0.5,0.5,0.25"],
        ids=["later-out-of-range", "later-non-numeric", "later-unreadable"],
    )
    def test_row_errors_name_their_line(self, row, message, position, later_row):
        # comment and blank lines between the rows; a later bad row too,
        # which must not be the one reported (the last one is a field over
        # the csv module's 131,072-character limit)
        rows = ["Apple,0.5,0.25,0.25", "Pear,0.25,0.5,0.25"]
        rows.insert(position - 1, row)
        text = (
            "# label_a: Fruits\nexemplar,mu_a,mu_b,mu_ab\n\n"
            f"{rows[0]}\n# between rows\n\n{rows[1]}\n# note: x\n{rows[2]}\n"
            f"{later_row}\n"
        )
        line = {1: 4, 2: 7, 3: 9}[position]
        with pytest.raises(ParseError) as excinfo:
            parse_table(text)
        assert str(excinfo.value) == f"line {line}: " + message.format(k=position)
        assert excinfo.value.line_number == line

    def test_open_quote_in_the_last_cell_reads_to_its_line_end(self):
        text = 'exemplar,mu_a,mu_b,mu_ab\nApple,0.1,0.2,"0.3\nPear,0.4,0.5,0.6\n'
        table = parse_table(text)
        assert table.names == ("Apple", "Pear")
        assert table.mu_ab.tolist() == [0.3, 0.6]
        assert table_key(table) == table_key(reference_parse_table(text))

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            (['"Apple,0.1,0.2,0.3', "Pear,0.4,0.5,0.6"], 2, "expected 4 fields, got 1"),
            # read as one row the two lines would be Apple with mu_ab = 0.25
            (['Apple,0.1,0.2,"0.2', "5"], 3, "expected 4 fields, got 1"),
        ],
        ids=["open-quote-name", "open-quote-value"],
    )
    def test_open_quote_never_joins_the_next_line(self, rows, line, message):
        text = "exemplar,mu_a,mu_b,mu_ab\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError) as excinfo:
            parse_table(text)
        assert str(excinfo.value) == f"line {line}: {message}"
        assert excinfo.value.line_number == line

    @pytest.mark.parametrize(
        "line, name",
        [
            ('"Tomato, ""cherry""",0.5,0.25,0.25', 'Tomato, "cherry"'),
            ("To\0mato,0.5,0.25,0.25", "To\0mato"),
            # the line is over csv's field size limit, but each of its fields fits
            ("x" * 131_072 + ",0.5,0.25,0.25", "x" * 131_072),
        ],
        ids=["quoted-comma-and-doubled-quote", "nul-in-name", "line-over-the-limit"],
    )
    def test_boundary_lines_read_as_the_reference_reads_them(self, line, name):
        assert csv.field_size_limit() == 131_072
        text = f"exemplar,mu_a,mu_b,mu_ab\n{line}\nPear,0.5,0.75,0.75\n"
        outcome = _parse_outcome(parse_table, text)
        assert outcome == _parse_outcome(reference_parse_table, text)
        if "\0" not in line or sys.version_info >= (3, 11):  # csv reads NUL from 3.11
            assert outcome[0] == (name, "Pear")

    def test_name_over_the_field_limit_fails_at_its_line(self):
        text = "exemplar,mu_a,mu_b,mu_ab\nPear,0.5,0.75,0.75\n" + "x" * 131_073
        text += ",0.5,0.25,0.25\nFig,0.5,2.0,0.25\n"
        with pytest.raises(ParseError) as excinfo:
            parse_table(text)
        assert str(excinfo.value) == (
            "line 3: unparseable CSV row: field larger than field limit (131072)"
        )
        assert _parse_outcome(reference_parse_table, text) == (
            ParseError, str(excinfo.value), 3
        )

    def test_header_over_the_field_limit_fails_at_line_1(self):
        text = "exemplar,mu_a,mu_b,mu_ab" + "x" * csv.field_size_limit()
        text += "\nPear,0.5,0.75,0.75\n"
        with pytest.raises(ParseError) as excinfo:
            parse_table(text)
        assert str(excinfo.value) == (
            "line 1: unparseable CSV row: field larger than field limit (131072)"
        )
        assert excinfo.value.line_number == 1
        assert _parse_outcome(reference_parse_table, text) == (
            ParseError, str(excinfo.value), 1
        )

    def test_duplicate_name_after_comments_keeps_its_text(self):
        text = "exemplar,mu_a,mu_b,mu_ab\nA,0.5,0.5,0.5\n# c\n\nB,0.5,0.5,0.5\nA,0.5,0.5,0.5\n"
        with pytest.raises(ValidationError) as excinfo:
            parse_table(text)
        assert type(excinfo.value) is ValidationError
        assert str(excinfo.value) == "duplicate exemplar name 'A'"

    def test_malformed_line_wins_over_an_earlier_duplicate_name(self):
        text = "exemplar,mu_a,mu_b,mu_ab\nA,0.5,0.5,0.5\nA,0.5,0.5,0.5\nB,0.5,0.5\n"
        with pytest.raises(ParseError) as excinfo:
            parse_table(text)
        assert str(excinfo.value) == "line 4: expected 4 fields, got 3"

    def test_duplicate_name_rejected(self):
        text = "exemplar,mu_a,mu_b,mu_ab\nA,0.5,0.5,0.5\nA,0.5,0.5,0.5\n"
        with pytest.raises(ValidationError, match="duplicate"):
            parse_table(text)

    def test_header_without_rows_rejected(self):
        text = "exemplar,mu_a,mu_b,mu_ab\n# no rows\n\n"
        with pytest.raises(ValidationError) as excinfo:
            parse_table(text)
        assert type(excinfo.value) is ValidationError
        assert str(excinfo.value) == "table has no exemplar rows"
        assert _parse_outcome(reference_parse_table, text) == (
            ValidationError, str(excinfo.value), None
        )

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_table("Almond,0.0359,0.0133,0.0269\n")
        with pytest.raises(ParseError, match="header"):
            parse_table("")

    def test_crlf_and_comments_and_defaults(self):
        # a note or label key with no colon after it is a plain comment too
        text = (
            "# free comment\r\n# note\r\n# label_a\r\n"
            "exemplar,mu_a,mu_b,mu_ab\r\nA,0.5,0.5,0.5\r\nB,0.5,0.5,0.5\r\n"
        )
        table = parse_table(text)
        assert table.n == 2
        assert (table.label_a, table.label_b) == ("A", "B")
        assert table.combination_label == "A or B"
        assert table.notes == ()

    def test_name_with_comma_quoted(self):
        table = make_table([0.5, 0.5], [0.5, 0.5], [0.5, 0.5], names=["a, b", "c"])
        assert table_key(parse_table(_render_csv(table))) == table_key(table)


class TestValidateNormalize:
    def test_reference_column_sums(self, raw_table):
        sums = raw_table.column_sums()
        for field, expected in RAW_COLUMN_SUMS.items():
            assert sums[field] == pytest.approx(expected, abs=1e-12)
            assert abs(sums[field] - 1.0) < 0.005

    def test_normalizes_to_unit_sums(self, raw_table, reference_table):
        for field, total in reference_table.column_sums().items():
            assert abs(total - 1.0) < 1e-12
        # the rescaled table is a new one, with the same labels and notes
        assert reference_table is not raw_table and raw_table.notes
        assert table_key(reference_table)[4:] == table_key(raw_table)[4:]

    def test_exact_sums_returned_unchanged(self):
        table = make_table([0.5, 0.5], [0.25, 0.75], [0.1, 0.9])
        assert validate_and_normalize(table) is table

    def test_idempotent_exactly(self, raw_table):
        once = validate_and_normalize(raw_table)
        twice = validate_and_normalize(once)
        assert twice is once

    def test_out_of_tolerance_sum_reports_value(self):
        table = make_table([0.25, 0.25], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValidationError, match="0.5"):
            validate_and_normalize(table, tolerance=0.02)
        # a zero sum lies within a tolerance of 1, but no scale reaches 1
        table = make_table([0.0, 0.0], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValidationError) as excinfo:
            validate_and_normalize(table, tolerance=1.0)
        assert str(excinfo.value) == "column mu_a sums to 0.0, outside tolerance 1.0 of 1"

    def test_zero_marginal_rejected(self):
        table = make_table([0.0, 1.0], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(DegeneracyError, match="zero marginal"):
            validate_and_normalize(table)
        # a zero in the combined column is fine
        table = make_table([0.5, 0.5], [0.5, 0.5], [0.0, 1.0])
        validate_and_normalize(table)

    def test_marginal_product_checked_after_rescaling(self):
        # 5e-324 / 2.5 rounds to 0: the rescaled column the solver would see
        # holds a zero marginal although the raw one does not
        table = make_table(
            [5e-324, 1.0, 1.0, 0.5], [1.0, 1e-300, 1e-300, 1e-300], [0.25] * 4
        )
        with pytest.raises(DegeneracyError, match=r"exemplar 1 \(E1\)"):
            validate_and_normalize(table, tolerance=2.0)

    def test_bad_tolerance(self):
        table = make_table([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValidationError, match="tolerance"):
            validate_and_normalize(table, tolerance=0.0)
        with pytest.raises(ValidationError) as excinfo:
            validate_and_normalize(table, tolerance="0.02")
        assert str(excinfo.value) == "tolerance must be positive, got '0.02'"


class TestTableInvariants:
    def test_indices_must_be_contiguous(self):
        records = (
            ExemplarRecord(1, "A", 0.5, 0.5, 0.5),
            ExemplarRecord(3, "B", 0.5, 0.5, 0.5),
        )
        with pytest.raises(ValidationError, match="contiguous"):
            TypicalityTable(records=records)

    @pytest.mark.parametrize("bad", ["", "#lead", " pad ", "nl\nin"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValidationError):
            make_table([0.5, 0.5], [0.5, 0.5], [0.5, 0.5], names=[bad, "ok"])

    @pytest.mark.parametrize(
        "row, message",
        [
            ((1, 7, 0.5, 0.5, 0.5), "exemplar name must be text, got int"),
            ((0, "A", 0.5, 0.5, 0.5), "exemplar index must be >= 1, got 0"),
        ],
        ids=["int-name", "index-0"],
    )
    def test_first_row_problem_names_position_1(self, row, message):
        with pytest.raises(ValidationError) as excinfo:
            TypicalityTable([row, (2, "B", 0.5, 0.5, 0.5)])
        assert str(excinfo.value) == message
        assert excinfo.value.position == 1

    @pytest.mark.parametrize(
        "rows, message, position",
        [
            (
                [(1, "A", 0.5, 0.5, 0.5), (0, " B", 0.5, 0.5, 0.5)],
                "exemplar index must be >= 1, got 0",
                2,
            ),
            (
                [(1, "A", 0.5, 0.5, 0.5), (2, "#B", 2.0, 0.5, 0.5)],
                "exemplar name '#B' starts with the comment marker '#'",
                2,
            ),
            (
                [
                    (1, "A", 0.5, 0.5, 0.5),
                    (2, "A", 0.5, 0.5, 0.5),
                    (3, "C", 0.5, 0.5, 0.5),
                    (4, "D", 0.5, 0.5, -0.1),
                ],
                "exemplar 4 (D): mu_ab=-0.1 is not a probability in [0, 1]",
                4,
            ),
        ],
        ids=["index-before-name", "name-before-value", "value-before-duplicate"],
    )
    def test_row_checks_run_in_order(self, rows, message, position):
        # within a row: index, name, values; any row problem before the
        # table-wide contiguity and duplicate checks
        with pytest.raises(ValidationError) as excinfo:
            TypicalityTable(rows)
        assert str(excinfo.value) == message
        assert excinfo.value.position == position

    def test_equal_tables_hash_equal(self, raw_table):
        # a table equals only itself, as a PlacementMap does; a parsed copy
        # holds the same data but is another table
        copy = parse_table(_render_csv(raw_table))
        assert copy != raw_table and raw_table == raw_table
        assert len({copy, raw_table}) == 2
        assert table_key(copy) == table_key(raw_table)

    def test_bare_text_notes_rejected(self):
        # a str is iterable, but its characters are not its notes
        with pytest.raises(ValidationError, match="notes must be a list of texts"):
            TypicalityTable(RAW_ROWS, notes="abc")
        assert TypicalityTable(RAW_ROWS, notes=["abc"]).notes == ("abc",)

    def test_columns_and_names_match_records(self):
        records = [ExemplarRecord(*row) for row in RAW_ROWS]
        table = TypicalityTable(records=iter(records))
        assert table.names == tuple(r.name for r in records)
        for field in ("mu_a", "mu_b", "mu_ab"):
            column = getattr(table, field)
            assert column.dtype == np.float64
            assert column.tolist() == [getattr(r, field) for r in records]
        # plain tuples build the same table, and the rows are not kept
        assert table_key(TypicalityTable(records=RAW_ROWS)) == table_key(table)
        assert not hasattr(table, "records")

    def test_every_field_is_an_attribute(self, raw_table):
        # tools that walk a dataclass's fields, as hypothesis' printer walks
        # __dataclass_fields__, find a value behind every one
        names = [field.name for field in dataclasses.fields(raw_table)]
        assert names == [
            "label_a", "label_b", "combination_label", "notes",
            "names", "mu_a", "mu_b", "mu_ab",
        ]
        assert [*TypicalityTable.__dataclass_fields__] == names
        assert all(hasattr(raw_table, name) for name in names)

    def test_positional_and_keyword_arguments_build_one_table(self):
        rows = [(1, "a", 0.5, 0.25, 0.5), (2, "b", 0.5, 0.75, 0.5)]
        table = TypicalityTable(rows, "X", "Y", "X or Y", ["n1"])
        assert repr(table) == (
            "TypicalityTable(label_a='X', label_b='Y', combination_label='X or Y', "
            "notes=('n1',), names=('a', 'b'))"
        )
        keywords = TypicalityTable(
            records=rows, label_a="X", label_b="Y", combination_label="X or Y",
            notes=("n1",),
        )
        assert table_key(keywords) == table_key(table)

    def test_replace_is_refused(self, raw_table):
        # the rows are not kept, so there is nothing to rebuild the table from
        with pytest.raises(TypeError):
            dataclasses.replace(raw_table, label_a="X")

    def test_columns_are_read_only(self, raw_table):
        with pytest.raises(ValueError):
            raw_table.mu_a[0] = 0.5
        assert raw_table.mu_a[0] == RAW_ROWS[0][2]


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_name = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_categories=("Cs", "Cc"), exclude_characters="#"
    ),
    min_size=1,
    max_size=12,
).filter(lambda s: s == s.strip() and not s.startswith("#"))

_prob = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def small_tables(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = draw(
        st.lists(_name, min_size=n, max_size=n, unique=True)
    )
    cols = [draw(st.lists(_prob, min_size=n, max_size=n)) for _ in range(3)]
    return make_table(*cols, names=names)


@given(small_tables())
@settings(max_examples=120)
def test_csv_round_trip(table):
    assert table_key(parse_table(_render_csv(table))) == table_key(table)


# quotes, separators, the comment and label markers, numbers, letters,
# spaces, line breaks and NUL: the characters a CSV table can go wrong with
_CSV_ALPHABET = '",#:0123456789.e-abnxAB \r\n\0'
_GOOD_CELLS = ["0.25", "0.5", "0", "1", "1e-3", " 0.5 ", '"0.5"']
_BAD_CELLS = ['"0.5', "2", "nan", "-0.5"]


@st.composite
def csv_texts(draw):
    """A header, rows and now and then a stray line.  One draw in ten of a
    name or a cell, and of the header, is a bad one, so many texts are
    tables and the rest go wrong in every way the alphabet allows."""
    text = st.text(_CSV_ALPHABET, max_size=30)

    def pick(good, bad):
        return draw(good if draw(st.integers(0, 9)) else bad)

    names = st.text("abxAB", min_size=1, max_size=3)
    bad_names = st.text('abxAB#" ,', min_size=1, max_size=3)
    cells = st.sampled_from(_GOOD_CELLS)
    bad_cells = st.one_of(st.sampled_from(_BAD_CELLS), text)
    lines = [
        ",".join([pick(names, bad_names), *(pick(cells, bad_cells) for _ in range(3))])
        for _ in range(draw(st.integers(0, 5)))
    ]
    for _ in range(draw(st.integers(0, 4)) // 3):
        lines.insert(draw(st.integers(0, len(lines))), draw(text))
    header = st.sampled_from(["exemplar,mu_a,mu_b,mu_ab", " exemplar ,mu_a,mu_b,mu_ab"])
    bad_header = st.one_of(st.sampled_from(['"exemplar",mu_a,mu_ab', ""]), text)
    lines.insert(0, pick(header, bad_header))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def _parse_outcome(parse, text):
    """The ``table_key`` of the table ``parse`` reads from ``text``, or its
    exception's type, message and line number."""
    try:
        return table_key(parse(text))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


@given(csv_texts())
@settings(max_examples=400)
def test_parse_matches_the_line_by_line_reference(text):
    assert _parse_outcome(parse_table, text) == _parse_outcome(reference_parse_table, text)


@st.composite
def normalizable_tables(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pos = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
    cols = []
    for _ in range(3):
        values = draw(st.lists(pos, min_size=n, max_size=n))
        total = math.fsum(values)
        cols.append([v / total for v in values])
    return make_table(*cols)


@given(normalizable_tables())
# hypothesis prints the arguments of an explicit example, a table among them
@example(make_table([0.25, 0.75], [0.5, 0.5], [0.75, 0.25], notes=["n1"]))
@settings(max_examples=80)
def test_normalization_idempotent(table):
    once = validate_and_normalize(table)
    twice = validate_and_normalize(once)
    assert twice is once
    for total in once.column_sums().values():
        assert abs(total - 1.0) <= 1e-12


@given(
    normalizable_tables(),
    st.floats(min_value=0.8, max_value=1.0, allow_nan=False),
)
@settings(max_examples=80)
def test_scale_invariance(table, factor):
    scaled = make_table(
        [v * factor for v in table.mu_a.tolist()],
        [v * factor for v in table.mu_b.tolist()],
        [v * factor for v in table.mu_ab.tolist()],
    )
    reference = validate_and_normalize(table, tolerance=0.25)
    rescaled = validate_and_normalize(scaled, tolerance=0.25)
    for field in ("mu_a", "mu_b", "mu_ab"):
        # bit-exact agreement is not achievable for arbitrary scale factors
        # in binary floating point; a few ulp is.
        np.testing.assert_allclose(
            getattr(reference, field), getattr(rescaled, field), rtol=1e-14, atol=0
        )


def test_scale_invariance_power_of_two_exact():
    # with exactly-unit-sum columns and a power-of-two factor, the halving
    # and the renormalization are both exact float operations
    mu_a, mu_b, mu_ab = [0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.375, 0.375, 0.25]
    reference = validate_and_normalize(make_table(mu_a, mu_b, mu_ab))
    halved = make_table(
        [v * 0.5 for v in mu_a], [v * 0.5 for v in mu_b], [v * 0.5 for v in mu_ab]
    )
    rescaled = validate_and_normalize(halved, tolerance=0.6)
    assert table_key(rescaled) == table_key(reference)
