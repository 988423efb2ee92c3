import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concept_interference import (
    ConstantPhaseField,
    FitError,
    GaussianField,
    PhaseField,
    ValidationError,
    default_window,
    fit_gaussian_fields,
    grid_to_csv,
    grid_to_pgm,
    interpolate_phase,
    place_exemplars,
    placements_to_csv,
    render_grids,
    solve,
)
from concept_interference import parse_table
from concept_interference.wavefield import cos_deg

from conftest import feasible_tables, make_table
from reference_values import SIGMA_A, SIGMA_B


@pytest.fixture(scope="module")
def reference_fields(reference_table):
    return fit_gaussian_fields(reference_table)


@pytest.fixture(scope="module")
def reference_placements(reference_table, reference_fields):
    return place_exemplars(reference_table, *reference_fields)


@pytest.fixture(scope="module")
def reference_render(reference_table, reference_fields, reference_placements):
    solution = solve(reference_table)
    phase = interpolate_phase(reference_placements, solution.phi_deg)
    window = default_window(reference_placements, *reference_fields)
    return render_grids(*reference_fields, phase, window, (160, 160))


# a small synthetic table whose level circles are easy to reason about:
# exemplars 2 and 3 both sit at ratio 1/2 from both peaks
SYNTH_MU_A = [0.4, 0.2, 0.2, 0.2]
SYNTH_MU_B = [0.2, 0.2, 0.2, 0.4]
SYNTH_MU_AB = [0.3, 0.2, 0.2, 0.3]
SYNTH_SIGMA = 3.0 / math.sqrt(2.0 * math.log(2.0))


@pytest.fixture()
def synthetic_setup():
    table = make_table(SYNTH_MU_A, SYNTH_MU_B, SYNTH_MU_AB)
    field_a = GaussianField((0.0, 0.0), SYNTH_SIGMA, 0.4)
    field_b = GaussianField((4.0, 0.0), SYNTH_SIGMA, 0.4)
    return table, field_a, field_b


class TestFit:
    def test_reference_widths(self, reference_fields):
        field_a, field_b = reference_fields
        assert field_a.center == (0.0, 0.0)
        assert field_b.center == (10.0, 4.0)
        assert field_a.sigma == pytest.approx(SIGMA_A, abs=1e-9)
        assert field_b.sigma == pytest.approx(SIGMA_B, abs=1e-9)
        assert field_a.sigma == pytest.approx(5.24, abs=5e-3)
        assert field_b.sigma == pytest.approx(5.24, abs=5e-3)

    def test_peaks_scale_with_top_exemplars(self, reference_table, reference_fields):
        field_a, field_b = reference_fields
        assert field_a.peak == reference_table.mu_a.max()
        assert field_b.peak == reference_table.mu_b.max()

    def test_cross_center_constraint(self, reference_table, reference_fields):
        # the defining closed-form constraint: each field, evaluated at the
        # other center, equals the other top exemplar's own-column value
        field_a, field_b = reference_fields
        top_b = int(np.argmax(reference_table.mu_b))
        value = field_a.intensity(*field_b.center)
        assert value == pytest.approx(reference_table.mu_a[top_b], rel=1e-12)

    def test_mirror_columns_give_equal_widths(self):
        # column B is column A with the two top slots transposed, so the
        # two closed-form width expressions see identical ratios
        mu_a = [0.5, 0.2, 0.3]
        mu_b = [0.2, 0.5, 0.3]
        mu_ab = [0.35, 0.35, 0.3]
        table = make_table(mu_a, mu_b, mu_ab)
        field_a, field_b = fit_gaussian_fields(table, (0.0, 0.0), (4.0, 2.0))
        assert field_a.sigma == field_b.sigma

    def test_coincident_centers_rejected(self, reference_table):
        with pytest.raises(FitError, match="distinct"):
            fit_gaussian_fields(reference_table, (1.0, 1.0), (1.0, 1.0))

    def test_shared_top_exemplar_rejected(self):
        table = make_table([0.6, 0.4], [0.6, 0.4], [0.5, 0.5])
        with pytest.raises(FitError, match="top"):
            fit_gaussian_fields(table)


def _circle_intersections(center_a, radius_a, center_b, radius_b):
    """Both intersection points of two circles, or None when they miss.

    The first point lies to the left of the directed line from center_a to
    center_b, the second to the right (they coincide at tangency).
    """
    ax, ay = center_a
    bx, by = center_b
    d = math.hypot(bx - ax, by - ay)
    if d == 0.0:
        return None
    if d > radius_a + radius_b or d < abs(radius_a - radius_b):
        return None
    along = (radius_a**2 - radius_b**2 + d * d) / (2.0 * d)
    offset = math.sqrt(max(radius_a**2 - along * along, 0.0))
    ux, uy = (bx - ax) / d, (by - ay) / d
    base_x, base_y = ax + along * ux, ay + along * uy
    left = (base_x - offset * uy, base_y + offset * ux)
    right = (base_x + offset * uy, base_y - offset * ux)
    return left, right


def _nearest_on_center_line(center_a, radius_a, center_b, radius_b):
    """Fallback for circles that miss: the point on the line through the
    centers with the least sum of squared level-curve violations, and that
    sum.  Ties go to the smallest t."""
    ax, ay = center_a
    bx, by = center_b
    d = math.hypot(bx - ax, by - ay)
    ux, uy = (bx - ax) / d, (by - ay) / d

    def violation(t):
        return (abs(t) - radius_a) ** 2 + (abs(d - t) - radius_b) ** 2

    candidates = [
        min(max((radius_a + d - radius_b) / 2.0, 0.0), d),  # between the centers
        (radius_a + d + radius_b) / 2.0,                    # beyond center_b
        min((d - radius_a - radius_b) / 2.0, 0.0),          # behind center_a
        0.0,
        d,
    ]
    best_t = min(candidates, key=lambda t: (violation(t), t))
    return (ax + best_t * ux, ay + best_t * uy), violation(best_t)


def _reference_placements(table, field_a, field_b):
    """(x, y, residual) per exemplar by the per-exemplar loop of scalar
    geometry that the array-wise ``place_exemplars`` replaced, kept here as
    its bit-exact reference."""
    mu_a, mu_b = table.mu_a, table.mu_b
    top_a, top_b = int(np.argmax(mu_a)), int(np.argmax(mu_b))
    max_a, max_b = float(mu_a.max()), float(mu_b.max())
    rows = []
    for k in range(table.n):
        if k == top_a:
            location, residual = field_a.center, 0.0
        elif k == top_b:
            location, residual = field_b.center, 0.0
        else:
            radius_a, radius_b = (
                field.sigma * math.sqrt(2.0 * math.log(1.0 / fraction))
                for field, fraction in (
                    (field_a, float(mu_a[k]) / max_a),
                    (field_b, float(mu_b[k]) / max_b),
                )
            )
            circles = (field_a.center, radius_a, field_b.center, radius_b)
            pair = _circle_intersections(*circles)
            if pair is not None:
                location, residual = pair[(k + 1) % 2], 0.0
            else:
                location, residual = _nearest_on_center_line(*circles)
        rows.append((float(location[0]), float(location[1]), residual))
    return rows


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _assert_matches_reference(table, field_a, field_b):
    placements = place_exemplars(table, field_a, field_b)
    columns = (placements.x, placements.y, placements.residual)
    reference = _reference_placements(table, field_a, field_b)
    assert _bits(np.column_stack(columns)) == _bits(reference)
    return placements


class TestCircleIntersections:
    def test_analytic_case(self):
        pair = _circle_intersections((0.0, 0.0), 3.0, (4.0, 0.0), 3.0)
        assert pair is not None
        left, right = pair
        assert left == pytest.approx((2.0, math.sqrt(5.0)), abs=1e-12)
        assert right == pytest.approx((2.0, -math.sqrt(5.0)), abs=1e-12)

    def test_disjoint_circles(self):
        assert _circle_intersections((0.0, 0.0), 1.0, (5.0, 0.0), 1.0) is None

    def test_nested_circles(self):
        assert _circle_intersections((0.0, 0.0), 5.0, (1.0, 0.0), 1.0) is None


# exemplar 3 sits at half of both peaks, so both its level radii are
# sigma * sqrt(2 ln 2): a field of sigma r / sqrt(2 ln 2) gives it radius ~r
HALF_PEAK_TABLE = ([0.4, 0.1, 0.2], [0.1, 0.4, 0.2], [0.25, 0.25, 0.5])
HALF_PEAK_SIGMA = 1.0 / math.sqrt(2.0 * math.log(2.0))


def _half_peak_setup(radius_a, radius_b, d):
    """The half-peak table, its field A at the origin and field B at (d, 0),
    with exemplar 3's level radii near radius_a and radius_b."""
    field_a = GaussianField((0.0, 0.0), radius_a * HALF_PEAK_SIGMA, 0.4)
    field_b = GaussianField((d, 0.0), radius_b * HALF_PEAK_SIGMA, 0.4)
    return make_table(*HALF_PEAK_TABLE), field_a, field_b


class TestPlacement:
    def test_top_exemplars_pinned_to_centers(self, reference_placements):
        by_name = {p.name: p for p in reference_placements.placements}
        apple = by_name["Apple"]
        broccoli = by_name["Broccoli"]
        assert (apple.x, apple.y, apple.residual) == (0.0, 0.0, 0.0)
        assert (broccoli.x, broccoli.y, broccoli.residual) == (10.0, 4.0, 0.0)

    def test_parity_picks_sides(self, synthetic_setup):
        table, field_a, field_b = synthetic_setup
        placements = place_exemplars(table, field_a, field_b)
        even = placements.placements[1]  # index 2, even -> left of the A->B line
        odd = placements.placements[2]   # index 3, odd -> right
        assert (even.x, even.y) == pytest.approx((2.0, math.sqrt(5.0)), abs=1e-9)
        assert (odd.x, odd.y) == pytest.approx((2.0, -math.sqrt(5.0)), abs=1e-9)
        assert even.residual == 0.0
        assert odd.residual == 0.0

    def test_level_constraints_hold_at_zero_residual(
        self, reference_table, reference_fields, reference_placements
    ):
        field_a, field_b = reference_fields
        max_a = reference_table.mu_a.max()
        max_b = reference_table.mu_b.max()
        for i, placement in enumerate(reference_placements.placements):
            if placement.residual != 0.0:
                continue
            ratio_a = field_a.intensity(placement.x, placement.y) / field_a.peak
            ratio_b = field_b.intensity(placement.x, placement.y) / field_b.peak
            assert ratio_a == pytest.approx(
                reference_table.mu_a[i] / max_a, abs=1e-9
            )
            assert ratio_b == pytest.approx(
                reference_table.mu_b[i] / max_b, abs=1e-9
            )

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.5, max_value=25.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_fallback_minimizes_along_center_line(self, radius_a, radius_b, d):
        # brute-force scan oracle: no point on the center line may beat the
        # fallback placement by more than float noise
        table, field_a, field_b = _half_peak_setup(radius_a, radius_b, d)
        radius_a = float(field_a.level_radius(0.5))
        radius_b = float(field_b.level_radius(0.5))
        assume(
            d > radius_a + radius_b or d < abs(radius_a - radius_b)
        )  # otherwise the circles intersect and the fallback is unused
        placements = place_exemplars(table, field_a, field_b)
        _, _, x, y, residual = placements.placements[2]
        assert y == 0.0
        assert residual > 0.0

        def violation(t):
            return (abs(t) - radius_a) ** 2 + (abs(d - t) - radius_b) ** 2

        assert residual == pytest.approx(violation(x), rel=1e-12)
        scan = np.linspace(-2.0 * (radius_a + radius_b + d),
                           2.0 * (radius_a + radius_b + d), 4001)
        assert residual <= min(violation(t) for t in scan) + 1e-9

    def test_fallback_residual_recorded(self):
        # third exemplar's circles cannot meet: both probabilities equal the
        # peaks' halves but the centers are too far apart for its tiny radii
        mu_a = [0.5, 0.3, 0.2]
        mu_b = [0.3, 0.5, 0.2]
        mu_ab = [0.4, 0.4, 0.2]
        table = make_table(mu_a, mu_b, mu_ab)
        field_a = GaussianField((0.0, 0.0), 1.0, 0.5)
        field_b = GaussianField((100.0, 0.0), 1.0, 0.5)
        placements = place_exemplars(table, field_a, field_b)
        third = placements.placements[2]
        assert third.residual > 0.0
        assert third.y == 0.0  # fallback point lies on the center line
        assert 0.0 <= third.x <= 100.0

    @pytest.mark.parametrize(
        "radius_a, radius_b, d",
        [(1.0, 1.0, 5.0), (5.0, 1.0, 1.0), (1.0, 5.0, 1.0)],
        ids=["disjoint", "nested-b-in-a", "nested-a-in-b"],
    )
    def test_missing_circles_match_reference(self, radius_a, radius_b, d):
        placements = _assert_matches_reference(*_half_peak_setup(radius_a, radius_b, d))
        assert placements.residual[2] > 0.0
        assert placements.y[2] == 0.0

    @pytest.mark.parametrize("inner", [False, True], ids=["outer", "inner"])
    def test_tangent_circles_match_reference(self, inner):
        # the center distance is set from the level radii themselves, so
        # the circles touch to the last bit
        table, field_a, field_b = _half_peak_setup(2.0, 0.5, 1.0)
        radius_a = float(field_a.level_radius(0.5))
        radius_b = float(field_b.level_radius(0.5))
        d = radius_a - radius_b if inner else radius_a + radius_b
        field_b = GaussianField((d, 0.0), field_b.sigma, field_b.peak)
        placements = _assert_matches_reference(table, field_a, field_b)
        assert placements.residual[2] == 0.0
        assert placements.x[2] == pytest.approx(radius_a, rel=1e-12)

    def test_fallback_tie_matches_reference(self):
        # exemplar 3 ties both column maxima, so both its level radii are 0:
        # the between-centers and beyond-B candidates tie at the midpoint
        table = make_table([0.4, 0.2, 0.4], [0.2, 0.4, 0.4], [0.3, 0.3, 0.4])
        field_a = GaussianField((0.0, 0.0), 1.0, 0.4)
        field_b = GaussianField((6.0, 8.0), 1.0, 0.4)
        placements = _assert_matches_reference(table, field_a, field_b)
        assert (placements.x[2], placements.y[2]) == (3.0, 4.0)
        assert placements.residual[2] == 50.0

    def test_overflowing_radius_rejected(self):
        # 1 / (1e-320 / 0.5) overflows to inf, as 1 / 0 does: no finite
        # radius holds exemplar 3's level curve of field A, so it has no
        # place; a fraction of 2e-300 still has one
        field_a = GaussianField((0.0, 0.0), 2.0, 0.5)
        field_b = GaussianField((5.0, 0.0), 2.0, 0.6)
        mu_b, mu_ab = [0.1, 0.6, 0.3, 1e-320], [0.3, 0.4, 0.1, 0.1]
        table = make_table([0.5, 0.2, 1e-320, 1e-320], mu_b, mu_ab)
        message = r"^exemplar 3 \(E3\): mu_a = 1e-320 has no level curve$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                place_exemplars(table, field_a, field_b)
            table = make_table([0.5, 0.2, 1e-300, 0.3], [0.1, 0.6, 0.1, 0.2], mu_ab)
            placements = _assert_matches_reference(table, field_a, field_b)
        assert np.isfinite(placements.locations()).all()

    def test_coincident_centers_rejected(self):
        table = make_table([0.5, 0.2, 0.3], [0.2, 0.5, 0.3], [0.35, 0.35, 0.3])
        field_a = GaussianField((0, 0), 1.0, 0.5)
        field_b = GaussianField((0, 0), 2.0, 0.4)
        with pytest.raises(FitError, match="centers must be distinct"):
            place_exemplars(table, field_a, field_b)

    def test_zero_marginal_named(self):
        table = parse_table(
            "exemplar,mu_a,mu_b,mu_ab\n"
            "Apple,0.5,0.1,0.3\nBean,0.2,0.6,0.4\nOlive,0.3,0.0,0.1\n"
        )
        field_a, field_b = fit_gaussian_fields(table)
        message = r"^exemplar 3 \(Olive\): mu_b = 0.0 has no level curve$"
        with pytest.raises(ValidationError, match=message):
            place_exemplars(table, field_a, field_b)


@given(feasible_tables(min_n=3, max_n=12), st.sampled_from([(6.0, 3.0), (-2.5, 0.75)]))
@settings(max_examples=60, deadline=None)
def test_placement_matches_scalar_reference_bitwise(table, center_b):
    try:
        fields = fit_gaussian_fields(table, (0.0, 0.0), center_b)
    except FitError:
        assume(False)  # shared top exemplar; the fit contract excludes it
    _assert_matches_reference(table, *fields)


@given(feasible_tables(min_n=3, max_n=8))
@settings(max_examples=40, deadline=None)
def test_placements_satisfy_level_curves_or_record_residuals(table):
    try:
        field_a, field_b = fit_gaussian_fields(table, (0.0, 0.0), (6.0, 3.0))
    except FitError:
        assume(False)  # shared top exemplar; the fit contract excludes it
    placements = place_exemplars(table, field_a, field_b)
    max_a, max_b = table.mu_a.max(), table.mu_b.max()
    for i, placement in enumerate(placements.placements):
        ratio_a = float(field_a.intensity(placement.x, placement.y)) / field_a.peak
        ratio_b = float(field_b.intensity(placement.x, placement.y)) / field_b.peak
        if placement.residual == 0.0:
            assert ratio_a == pytest.approx(table.mu_a[i] / max_a, abs=1e-9)
            assert ratio_b == pytest.approx(table.mu_b[i] / max_b, abs=1e-9)
        else:
            # the recorded residual is the sum of squared radial violations
            radius_a = float(field_a.level_radius(table.mu_a[i] / max_a))
            radius_b = float(field_b.level_radius(table.mu_b[i] / max_b))
            gap_a = math.hypot(placement.x, placement.y) - radius_a
            gap_b = math.hypot(placement.x - 6.0, placement.y - 3.0) - radius_b
            assert placement.residual == pytest.approx(
                gap_a**2 + gap_b**2, rel=1e-9, abs=1e-12
            )


def _reference_phase(field, x, y):
    """The phase field as one broadcast expression over every node at once.

    This is the n x H x W formula the streaming ``PhaseField.evaluate``
    replaced, kept here as its bit-exact reference.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x[None, ...] - field.nodes_xy[:, 0].reshape((-1,) + (1,) * x.ndim)
    dy = y[None, ...] - field.nodes_xy[:, 1].reshape((-1,) + (1,) * y.ndim)
    d2 = dx * dx + dy * dy
    hit = d2 == 0.0
    weights = np.where(hit, 0.0, 1.0 / np.where(hit, 1.0, d2))
    shape = (-1,) + (1,) * x.ndim
    with np.errstate(invalid="ignore", divide="ignore"):
        blended = (weights * field.values_deg.reshape(shape)).sum(axis=0)
        blended /= weights.sum(axis=0)
    exact = field.values_deg[hit.argmax(axis=0)]
    out = np.where(hit.any(axis=0), exact, blended)
    return np.clip(out, field.values_deg.min(), field.values_deg.max())


def _reference_pixelwise(field, x, y):
    """``_reference_phase`` as it acts on one pixel of a grid.

    On a single point the broadcast sums run along the contiguous node axis,
    where numpy adds pairwise rather than in node order; from about 8 nodes
    on that can differ in the last bits from the same point inside a grid,
    whose sums run node after node.  The grid value is the one the rasters
    carry, so a single point is evaluated as the first of two equal points.
    """
    shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
    if math.prod(shape) != 1:
        return _reference_phase(field, x, y)
    twice = np.ones(2)
    pair = _reference_phase(field, twice * np.ravel(x), twice * np.ravel(y))
    return pair[:1].reshape(shape)


_COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5]),
    st.floats(min_value=-10.0, max_value=10.0, allow_subnormal=False),
)
_PHASES = st.one_of(
    st.sampled_from([0.0, -0.0, 90.0, -180.0, 180.0]),
    st.floats(min_value=-180.0, max_value=180.0, allow_subnormal=False),
)


class TestPhaseField:
    def test_exact_at_nodes(self, reference_placements, reference_table):
        solution = solve(reference_table)
        phase = interpolate_phase(reference_placements, solution.phi_deg)
        for placement, expected in zip(
            reference_placements.placements, solution.phi_deg
        ):
            assert phase.evaluate(placement.x, placement.y) == expected

    def test_two_node_midpoint_balances(self):
        from concept_interference import PhaseField

        field = PhaseField(
            np.array([[0.0, 0.0], [2.0, 0.0], [1000.0, 1000.0]]),
            np.array([90.0, -90.0, 0.0]),
        )
        assert float(field.evaluate(1.0, 0.0)) == pytest.approx(0.0, abs=0.01)

    def test_constant_values_reproduced_everywhere(self):
        from concept_interference import PhaseField

        field = PhaseField(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([45.0, 45.0, 45.0]),
        )
        xs = np.linspace(-3.0, 3.0, 7)
        values = field.evaluate(*np.meshgrid(xs, xs))
        assert np.all(values == 45.0)

    def test_bounded_by_node_extremes(self):
        from concept_interference import PhaseField

        rng = np.random.default_rng(7)
        nodes = rng.uniform(-5, 5, size=(6, 2))
        values = rng.uniform(-120, 80, size=6)
        field = PhaseField(nodes, values)
        xs = np.linspace(-8, 8, 33)
        sampled = field.evaluate(*np.meshgrid(xs, xs))
        assert sampled.min() >= values.min()
        assert sampled.max() <= values.max()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_streaming_pass_matches_broadcast_formula_bitwise(self, data):
        nodes = data.draw(
            st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=1, max_size=24, unique=True)
        )
        values = data.draw(st.lists(_PHASES, min_size=len(nodes), max_size=len(nodes)))
        others = data.draw(st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=1, max_size=5))
        field = PhaseField(np.array(nodes), np.array(values))
        # the nodes come first, so every input below holds exact hits
        xs, ys = np.array(nodes + others).T
        inputs = [
            (xs[0], ys[0]),
            (xs[-1], ys[-1]),
            (xs, ys),
            np.meshgrid(xs, ys),
            (xs[None, :], ys[:, None]),
        ]
        # a subnormal squared distance overflows its weight in both forms
        with np.errstate(over="ignore"):
            for x, y in inputs:
                got = np.asarray(field.evaluate(x, y))
                want = np.asarray(_reference_pixelwise(field, x, y))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_memory_does_not_grow_with_nodes(self):
        xs = np.linspace(-1.0, 1.0, 64)
        grid_x, grid_y = np.meshgrid(xs, xs)
        rng = np.random.default_rng(3)
        sixteen_planes = 16 * grid_x.nbytes
        for n in (2000, 20):
            field = PhaseField(rng.uniform(-1, 1, size=(n, 2)), rng.uniform(-90, 90, size=n))
            tracemalloc.start()
            try:
                field.evaluate(grid_x, grid_y)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < sixteen_planes, (n, peak)

    def test_duplicate_nodes_rejected(self):
        from concept_interference import PhaseField

        with pytest.raises(ValidationError, match="duplicate"):
            PhaseField(
                np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([1.0, 2.0])
            )

    def test_one_phase_per_placement(self, reference_placements):
        message = r"one phase per node: \(23,\) vs nodes \(24, 2\)$"
        with pytest.raises(ValidationError, match=message):
            interpolate_phase(reference_placements, np.zeros(23))


class TestCosDeg:
    def test_exact_boundary_zeros(self):
        assert cos_deg(90.0) == 0.0
        assert cos_deg(-90.0) == 0.0
        assert cos_deg(270.0) == 0.0
        assert float(cos_deg(0.0)) == 1.0

    def test_matches_cosine_elsewhere(self):
        angles = np.linspace(-180.0, 180.0, 73)
        expected = np.cos(np.radians(angles))
        got = cos_deg(angles)
        mask = np.mod(angles, 180.0) != 90.0
        assert np.allclose(got[mask], expected[mask], atol=0)


class TestRenderGrids:
    def test_constant_right_angle_equals_classical_bitwise(
        self, reference_fields, reference_placements
    ):
        window = default_window(reference_placements, *reference_fields)
        grids = render_grids(
            *reference_fields, ConstantPhaseField(90.0), window, (64, 64)
        )
        assert np.array_equal(
            grids["interference"].values, grids["classical"].values
        )

    def test_constant_zero_phase_fully_constructive(
        self, reference_fields, reference_placements
    ):
        window = default_window(reference_placements, *reference_fields)
        grids = render_grids(
            *reference_fields, ConstantPhaseField(0.0), window, (64, 64)
        )
        amplitude_sum = 0.5 * (
            np.sqrt(grids["a_only"].values) + np.sqrt(grids["b_only"].values)
        ) ** 2
        assert np.allclose(
            grids["interference"].values, amplitude_sum, atol=1e-12
        )

    def test_single_fields_sum_to_twice_classical(self, reference_render):
        total = reference_render["a_only"].values + reference_render["b_only"].values
        assert np.array_equal(total, 2.0 * reference_render["classical"].values)

    def test_interference_nonnegative(self, reference_render):
        assert reference_render["interference"].values.min() >= -1e-12

    def test_interference_bounded_by_modulation(self, reference_render):
        classical = reference_render["classical"].values
        modulation = np.sqrt(
            reference_render["a_only"].values * reference_render["b_only"].values
        )
        gap = reference_render["interference"].values - classical
        assert np.all(gap <= modulation + 1e-15)
        assert np.all(gap >= -modulation - 1e-15)

    def test_exemplar_locations_reconstruct_combination_exactly(
        self, reference_table, reference_fields, reference_placements
    ):
        # evaluated at the placement itself (no pixel quantization), the
        # interference formula with c = 1 returns the measured combined
        # probability, up to the shared display scale
        solution = solve(reference_table)
        field_a, field_b = reference_fields
        phase = interpolate_phase(reference_placements, solution.phi_deg)
        scale = field_a.peak / reference_table.mu_a.max()
        for i, placement in enumerate(reference_placements.placements):
            if placement.residual != 0.0 or (i + 1) == solution.m:
                continue
            value_a = float(field_a.intensity(placement.x, placement.y))
            value_b = float(field_b.intensity(placement.x, placement.y))
            phi = float(phase.evaluate(placement.x, placement.y))
            intensity = 0.5 * (value_a + value_b) + math.sqrt(
                value_a * value_b
            ) * math.cos(math.radians(phi))
            assert intensity == pytest.approx(
                scale * reference_table.mu_ab[i], rel=1e-9
            )

    def test_exemplar_pixels_reconstruct_combination(
        self, reference_table, reference_fields, reference_placements
    ):
        solution = solve(reference_table)
        phase = interpolate_phase(reference_placements, solution.phi_deg)
        window = default_window(reference_placements, *reference_fields)
        grids = render_grids(*reference_fields, phase, window, (400, 400))
        x_min, x_max, y_min, y_max = window
        grid = grids["interference"]
        classical = grids["classical"]
        locations = reference_placements.locations()
        pixel = max((x_max - x_min) / grid.width, (y_max - y_min) / grid.height)
        checked = 0
        for i, placement in enumerate(reference_placements.placements):
            if placement.residual != 0.0 or (i + 1) == solution.m:
                continue
            # the 2% quantization bound presumes the pixel only sees this
            # node; skip nodes with a sub-pixel-scale discordant neighbor
            # (Mustard and Parsley land ~2 pixels apart with a 45-degree
            # phase gap, where the interpolant has real sub-pixel structure)
            others = np.delete(locations, i, axis=0)
            nearest = np.min(
                np.hypot(others[:, 0] - placement.x, others[:, 1] - placement.y)
            )
            if nearest < 4.0 * pixel:
                continue
            column = int((placement.x - x_min) / (x_max - x_min) * grid.width)
            row = int((y_max - placement.y) / (y_max - y_min) * grid.height)
            column = min(column, grid.width - 1)
            row = min(row, grid.height - 1)
            ratio = grid.values[row, column] / classical.values[row, column]
            expected = reference_table.mu_ab[i] / (
                0.5 * (reference_table.mu_a[i] + reference_table.mu_b[i])
            )
            assert ratio == pytest.approx(expected, rel=0.02)
            checked += 1
        assert checked >= 15

    def test_swapping_concepts_swaps_grids(self, reference_table):
        solution = solve(reference_table)
        swapped = make_table(
            reference_table.mu_b,
            reference_table.mu_a,
            reference_table.mu_ab,
            names=list(reference_table.names),
        )
        fields = fit_gaussian_fields(reference_table, (0.0, 0.0), (10.0, 4.0))
        fields_swapped = fit_gaussian_fields(swapped, (10.0, 4.0), (0.0, 0.0))
        window = (-5.0, 15.0, -5.0, 9.0)
        phase = ConstantPhaseField(45.0)
        grids = render_grids(*fields, phase, window, (32, 32))
        grids_swapped = render_grids(*fields_swapped, phase, window, (32, 32))
        assert np.array_equal(
            grids["a_only"].values, grids_swapped["b_only"].values
        )
        assert np.array_equal(
            grids["b_only"].values, grids_swapped["a_only"].values
        )
        assert np.array_equal(
            grids["classical"].values, grids_swapped["classical"].values
        )

    def test_degenerate_window_rejected(self, reference_fields):
        with pytest.raises(ValidationError, match="window"):
            render_grids(
                *reference_fields, ConstantPhaseField(0.0), (1.0, 1.0, 0.0, 2.0)
            )

    def test_tiny_resolution_rejected(self, reference_fields):
        with pytest.raises(ValidationError, match="resolution"):
            render_grids(
                *reference_fields,
                ConstantPhaseField(0.0),
                (0.0, 1.0, 0.0, 1.0),
                (1, 1),
            )


class TestExports:
    def test_grid_csv_round_trip(self, reference_render):
        grid = reference_render["interference"]
        text = grid_to_csv(grid)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert [float(v) for v in header[:4]] == [
            grid.x_min, grid.x_max, grid.y_min, grid.y_max,
        ]
        assert [int(header[4]), int(header[5])] == [grid.width, grid.height]
        assert len(lines) == 1 + grid.height
        parsed = np.array(
            [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        )
        assert np.array_equal(parsed, grid.values)

    def test_pgm_structure_and_normalization(self, reference_render):
        grid = reference_render["interference"]
        blob = grid_to_pgm(grid)
        header = f"P5\n{grid.width} {grid.height}\n255\n".encode()
        assert blob.startswith(header)
        body = np.frombuffer(blob[len(header):], dtype=np.uint8)
        assert body.size == grid.width * grid.height
        assert body.min() == 0
        assert body.max() == 255

    def test_pgm_constant_grid_all_zero(self):
        from concept_interference import RasterGrid

        grid = RasterGrid(3, 2, 0.0, 1.0, 0.0, 1.0, np.full((2, 3), 7.0))
        blob = grid_to_pgm(grid)
        assert blob.endswith(b"\x00" * 6)

    def test_placements_csv(self, reference_placements):
        text = placements_to_csv(reference_placements)
        lines = text.strip().split("\n")
        assert lines[0] == "exemplar,x,y,residual"
        assert len(lines) == 25
        apple = next(line for line in lines if line.startswith("Apple"))
        assert apple == "Apple,0.0,0.0,0.0"
