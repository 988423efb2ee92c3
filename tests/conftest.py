import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from concept_interference import (
    DegeneracyError,
    ExemplarRecord,
    TypicalityTable,
    assign_signs,
    fruits_vegetables,
    solve,
    validate_and_normalize,
)

from reference_values import ORACLE_MU_A, ORACLE_MU_AB, ORACLE_MU_B


def greedy_trace(magnitudes):
    """The greedy pass in visit order: 1-based indices, signs, running sums."""
    mags = np.asarray(magnitudes, dtype=float)
    signs, _ = assign_signs(mags)
    order = np.argsort(-mags, kind="stable")
    return order + 1, signs[order], np.cumsum((signs * mags)[order])


def solve_feasible(table):
    """Solve, skipping the measure-zero classically-additive draws."""
    try:
        return solve(table)
    except DegeneracyError:
        assume(False)


def reference_probability(layout, k, u):
    """Outcome probability <u|P_k|u> for projector k of the layout, one
    coordinate at a time: |u_k|^2, plus the plane coordinate |u_(n+1)|^2
    when k == m.  The reference that measure_residuals is checked against."""
    z = u[k - 1]
    probability = z.real * z.real + z.imag * z.imag
    if k == layout.m:
        z = u[layout.n]
        probability += z.real * z.real + z.imag * z.imag
    return float(probability)


def reference_phase(table, k, lambda_k, c_k):
    """The paper's phase of row k in degrees, sign(lambda_k) arccos(cos
    phi_k) with cos phi_k = d_k / (c_k sqrt(mu_a_k mu_b_k)), and that
    cosine.  arccos is ill-conditioned near 0 and 180 degrees, so
    compute_phases is checked against it away from there only."""
    a, b, ab = (float(col[k - 1]) for col in (table.mu_a, table.mu_b, table.mu_ab))
    average = 0.5 * (a + b)
    deviation = ab - average
    # a deviation within 4 eps * average of 0 is rounding of the classical
    # average and reads 0, as the README states
    if abs(deviation) <= 4 * sys.float_info.epsilon * average:
        deviation = 0.0
    cosine = deviation / (c_k * math.sqrt(a * b))
    angle = math.degrees(math.acos(max(-1.0, min(1.0, cosine))))
    return (-angle if lambda_k < 0.0 else angle), cosine


def table_key(table: TypicalityTable) -> tuple:
    """Names, column values, labels and notes: the data two tables hold.
    The tables themselves compare by identity."""
    columns = (tuple(column.tolist()) for column in (table.mu_a, table.mu_b, table.mu_ab))
    labels = (table.label_a, table.label_b, table.combination_label)
    return (table.names, *columns, *labels, table.notes)


class DiscardingSink:
    """A text file that keeps only the count of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> None:
        self.size += len(text)


def make_table(mu_a, mu_b, mu_ab, names=None, **kwargs) -> TypicalityTable:
    names = names or [f"E{i + 1}" for i in range(len(mu_a))]
    records = tuple(
        ExemplarRecord(i + 1, names[i], float(a), float(b), float(ab))
        for i, (a, b, ab) in enumerate(zip(mu_a, mu_b, mu_ab))
    )
    return TypicalityTable(records=records, **kwargs)


@pytest.fixture(scope="session")
def raw_table():
    return fruits_vegetables()


@pytest.fixture(scope="session")
def reference_table(raw_table):
    return validate_and_normalize(raw_table)


@pytest.fixture(scope="session")
def reference_solution(reference_table):
    return solve(reference_table)


@pytest.fixture(scope="session")
def oracle_table():
    return validate_and_normalize(
        make_table(ORACLE_MU_A, ORACLE_MU_B, ORACLE_MU_AB)
    )


# ---------------------------------------------------------------------------
# hypothesis strategy: random tables whose interference model is feasible.
# mu_ab is built as average + bounded deviation, which keeps every radicand
# strictly positive and every entry a probability, except that one row may
# sit on the boundary, at a phase of exactly 0 or 180 degrees.  Some draws
# also carry near-tied magnitudes or a marginal near 1e-12.
# ---------------------------------------------------------------------------

_WEIGHTS = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


def _normalized(values):
    total = math.fsum(values)
    return [v / total for v in values]


@st.composite
def feasible_columns(draw, min_n=2, max_n=9, top_weight=None):
    """The columns mu_a, mu_b and mu_ab of a feasible table, as lists.  With
    ``top_weight`` (above every drawn weight), two distinct rows take it as
    the tops of mu_a and mu_b, and no edge case below is drawn."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    weights_a = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    weights_b = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    angles = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    # About 1 draw in 3 each: two rows at the same angle whose geometric
    # means differ by about 1e-15 relative (near-tied magnitudes), or one
    # marginal scaled to between 1e-13 and 1e-11.
    edges = (None, "near-tie", "tiny-marginal")
    edge = None if top_weight else draw(st.sampled_from(edges))
    row, other = draw(st.permutations(range(n)))[:2]
    if top_weight:
        weights_a[row] = weights_b[other] = top_weight
    elif edge == "near-tie":
        weights_a[other] = weights_a[row] * (1.0 + 2e-15)
        weights_b[other] = weights_b[row]
        angles[other] = angles[row]
    elif edge == "tiny-marginal":
        weights = draw(st.sampled_from((weights_a, weights_b)))
        size = draw(st.floats(min_value=1e-13, max_value=1e-11))
        weights[row] = size * (math.fsum(weights) - weights[row])
    mu_a, mu_b = _normalized(weights_a), _normalized(weights_b)
    shrink = draw(st.floats(min_value=0.0, max_value=0.9))
    # cos(phi) of the boundary row, if any, and its index
    boundary = draw(st.sampled_from((None, 1.0, -1.0)))
    boundary_row = draw(st.integers(min_value=0, max_value=n - 1))

    geometric = [math.sqrt(a * b) for a, b in zip(mu_a, mu_b)]
    raw_dev = [g * math.cos(t) for g, t in zip(geometric, angles)]
    # Center the deviations (weighted by the geometric means) so the third
    # column still sums to 1, then shrink until every row stays strictly
    # feasible and every probability stays in [0, 1].
    weight_total = math.fsum(geometric)
    drift = math.fsum(raw_dev)
    centered = [
        d - (g / weight_total) * drift for d, g in zip(raw_dev, geometric)
    ]
    cap = 1.0
    for a, b, g, c in zip(mu_a, mu_b, geometric, centered):
        if c == 0.0:
            continue
        cap = min(cap, 0.9 * g / abs(c))
        headroom = 1.0 - 0.5 * (a + b)
        if c > 0.0:
            cap = min(cap, 0.9 * headroom / c)
    deviations = [shrink * cap * c for c in centered]
    if boundary is not None:
        deviations = place_on_boundary(
            mu_a, mu_b, geometric, deviations, boundary_row, boundary
        ) or deviations
    mu_ab = [0.5 * (a + b) + d for a, b, d in zip(mu_a, mu_b, deviations)]
    return mu_a, mu_b, mu_ab


def feasible_tables(min_n=2, max_n=9):
    """Normalized tables of ``feasible_columns``.  Hypothesis prints a table
    by its fields, which the constructor does not take, so a test whose
    failing draw should paste back into an ``@example`` draws the columns."""
    columns = feasible_columns(min_n, max_n)
    return columns.map(lambda c: validate_and_normalize(make_table(*c)))


def place_on_boundary(mu_a, mu_b, geometric, deviations, row, cos_phi):
    """Deviations with ``row`` at cos_phi * sqrt(mu_a * mu_b), the shift
    spread over the other rows in proportion to their geometric means so the
    third column keeps its sum; None when that leaves no room (another row
    past 0.9 of its own bound, or an entry outside [0, 1])."""
    shift = cos_phi * geometric[row] - deviations[row]
    others = math.fsum(g for k, g in enumerate(geometric) if k != row)
    moved = [d - shift * g / others for d, g in zip(deviations, geometric)]
    moved[row] = cos_phi * geometric[row]
    for k, (a, b, g, d) in enumerate(zip(mu_a, mu_b, geometric, moved)):
        if k != row and abs(d) > 0.9 * g:
            return None
        if not 0.0 <= 0.5 * (a + b) + d <= 1.0:
            return None
    return moved
