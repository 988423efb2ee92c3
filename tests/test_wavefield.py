import collections
import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from concept_interference import (
    FitError,
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
from concept_interference import parse_table, validate_and_normalize, wavefield
from concept_interference.wavefield import GaussianField, PlacementMap, cos_deg

from conftest import feasible_columns, feasible_tables, make_table, solve_feasible
from reference_values import SIGMA_A, SIGMA_B


def _one_node(value):
    """A one-node phase field: ``value`` at every point."""
    return PhaseField(np.zeros((1, 2)), [value])


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

    @pytest.mark.parametrize(
        "center_a, center_b, distance",
        [
            ((0.0, 0.0), (math.inf, 0.0), "inf"),
            ((math.nan, 0.0), (1.0, 0.0), "nan"),
            ((1e308, 0.0), (-1e308, 0.0), "inf"),  # the distance overflows
        ],
        ids=["infinite-center", "nan-center", "overflowing-distance"],
    )
    def test_non_finite_centers_named(self, reference_table, center_a, center_b, distance):
        with pytest.raises(FitError) as excinfo:
            fit_gaussian_fields(reference_table, center_a, center_b)
        assert str(excinfo.value) == (
            f"centers {center_a!r} and {center_b!r} must be finite and a finite "
            f"distance apart (distance {distance})"
        )

    def test_shared_top_exemplar_rejected(self):
        table = make_table([0.6, 0.4], [0.6, 0.4], [0.5, 0.5])
        with pytest.raises(FitError, match="top"):
            fit_gaussian_fields(table)

    def test_far_center_tying_the_peak_rejected(self):
        # the top of mu_b, exemplar 4, ties the top of mu_a, which the first
        # exemplar takes, so field A would not fall from center A to center B
        table = make_table(
            [0.3, 0.2, 0.2, 0.3], [0.1, 0.2, 0.2, 0.5], [0.2, 0.2, 0.2, 0.4]
        )
        with pytest.raises(FitError) as excinfo:
            fit_gaussian_fields(table)
        assert str(excinfo.value) == (
            "cannot fit field A: exemplar 4 (E4) at center B has mu_a = 0.3, "
            "which ties the peak of mu_a, so the field would not fall below its "
            "peak there"
        )

    @pytest.mark.parametrize(
        "sigma, peak, message",
        [(0.0, 1.0, "sigma must be positive, got 0.0"),
         (math.inf, 1.0, "sigma must be positive, got inf"),
         (1.0, 0.0, "peak must be positive, got 0.0"),
         (1.0, math.nan, "peak must be positive, got nan"),
         (1.0, math.inf, "peak must be positive, got inf")],
        ids=["zero-sigma", "inf-sigma", "zero-peak", "nan-peak", "inf-peak"],
    )
    def test_non_positive_width_or_peak_rejected(self, sigma, peak, message):
        with pytest.raises(FitError) as excinfo:
            GaussianField((0.0, 0.0), sigma, peak)
        assert str(excinfo.value) == message

    def test_intensity_past_the_float_range_is_zero(self):
        # the squared offset overflows to inf, and exp(-inf) is exactly 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert GaussianField((0.0, 0.0), 1.0, 1.0).intensity(1e200, 0.0) == 0.0

    @pytest.mark.parametrize(
        "center", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)], ids=repr
    )
    def test_non_finite_center_rejected(self, center):
        # a NaN center would make every intensity NaN, an infinite one every
        # intensity 0
        with pytest.raises(FitError, match=r"^center must be finite, got \("):
            GaussianField(center, 1.0, 1.0)


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


def _level_radius(field, fraction):
    """The radius where ``field`` falls to ``fraction`` of its peak."""
    return field.sigma * math.sqrt(2.0 * math.log(1.0 / fraction))


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
            radius_a = _level_radius(field_a, float(mu_a[k]) / max_a)
            radius_b = _level_radius(field_b, float(mu_b[k]) / max_b)
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

    def test_columns_are_read_only_floats(self):
        placements = PlacementMap(("a", "b"), [0, 1], [2, 3], [0, 0])
        for column in (placements.x, placements.y, placements.residual):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 0.5
        assert placements.y.tolist() == [2.0, 3.0]

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
        radius_a = _level_radius(field_a, 0.5)
        radius_b = _level_radius(field_b, 0.5)
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
        radius_a = _level_radius(field_a, 0.5)
        radius_b = _level_radius(field_b, 0.5)
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
        assert np.isfinite(placements.x).all() and np.isfinite(placements.y).all()

    @pytest.mark.parametrize("fraction", [1e-320, 5e-309, 0.0], ids=repr)
    def test_fraction_without_a_finite_reciprocal_has_no_level_curve(self, fraction):
        # mu_a peaks at 1, so exemplar 3's fraction of it is its mu_a; 1 / 1e-320
        # and 1 / 5e-309 overflow to inf, as 1 / 0 does
        table = make_table([1.0, 0.2, fraction], [0.1, 0.6, 0.3], [0.3, 0.4, 0.3])
        field_a = GaussianField((0.0, 0.0), 2.0, 1.0)
        field_b = GaussianField((5.0, 0.0), 2.0, 0.6)
        message = rf"^exemplar 3 \(E3\): mu_a = {re.escape(repr(fraction))} has no level curve$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                place_exemplars(table, field_a, field_b)

    @pytest.mark.parametrize("fraction", [1e-300, 6e-309], ids=repr)
    def test_smallest_fractions_take_their_level_radius_bitwise(self, fraction):
        # exemplar 3 ties the top of mu_b, so its radius of field B is 0, and
        # center B lies closer to center A than an ulp of its radius r of field
        # A: of the fallback's tied points r/2 and -r/2 it takes -r/2
        table = make_table([1.0, 0.2, fraction], [0.1, 0.6, 0.6], [0.3, 0.4, 0.3])
        field_a = GaussianField((0.0, 0.0), 2.0, 1.0)
        field_b = GaussianField((1e-20, 0.0), 2.0, 0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            placements = _assert_matches_reference(table, field_a, field_b)
        radius = 2.0 * math.sqrt(2.0 * math.log(1.0 / fraction))
        assert (placements.x[2], placements.y[2]) == (-radius / 2.0, 0.0)
        assert placements.residual[2] == 0.5 * radius**2

    def test_coincident_centers_rejected(self):
        table = make_table([0.5, 0.2, 0.3], [0.2, 0.5, 0.3], [0.35, 0.35, 0.3])
        field_a = GaussianField((0, 0), 1.0, 0.5)
        field_b = GaussianField((0, 0), 2.0, 0.4)
        with pytest.raises(FitError, match="centers must be distinct"):
            place_exemplars(table, field_a, field_b)

    @pytest.mark.parametrize(
        "center_b, sigma, message",
        [
            ((1e160, 0.0), 1.0, r"^center distance 1e\+160 squared leaves the float range$"),
            ((1.0, 0.0), 1e160, r"^[0-9.e+]+ squared leaves the float range$"),
        ],
        ids=["center-distance", "level-radius"],
    )
    def test_squares_past_the_float_range_raise_fit_error(self, center_b, sigma, message):
        table = make_table([0.5, 0.2, 0.3], [0.2, 0.5, 0.3], [0.35, 0.35, 0.3])
        field_a = GaussianField((0.0, 0.0), sigma, 0.5)
        field_b = GaussianField(center_b, sigma, 0.5)
        with pytest.raises(FitError, match=message):
            place_exemplars(table, field_a, field_b)

    def test_level_radius_past_the_float_range_names_the_exemplar(self, reference_table):
        # sigma * sqrt(2 log(1 / fraction)) is inf once the root passes about
        # 1.06 at sigma 1.7e308: C's fraction 0.5 of both peaks gives 1.18,
        # where a NaN placement with residual 0 came out before
        table = make_table([0.6, 0.1, 0.3], [0.1, 0.6, 0.3], [0.35, 0.35, 0.3],
                           names=["A", "B", "C"])
        fields = GaussianField((0, 0), 1.7e308, 0.6), GaussianField((10, 4), 1.7e308, 0.6)
        message = r"^exemplar 3 \(C\): level radius of field A is not finite$"
        with pytest.raises(FitError, match=message):
            place_exemplars(table, *fields)
        # on the bundled table at sigma 1e308, Almond's radius of field A is
        # finite and its radius of field B is not
        fields = [GaussianField(f.center, 1e308, f.peak)
                  for f in fit_gaussian_fields(reference_table)]
        message = r"^exemplar 1 \(Almond\): level radius of field B is not finite$"
        with pytest.raises(FitError, match=message):
            place_exemplars(reference_table, *fields)

    def test_overflowing_level_circle_sum_names_the_exemplar(self, reference_table):
        # both squared radii and d^2 are finite, but r_a^2 - r_b^2 + d^2 is not;
        # Watercress's circles meet, so its place along the center line would be inf
        fields = fit_gaussian_fields(reference_table, (0.0, 0.0), (1e154, 0.0))
        message = (
            r"^exemplar 15 \(Watercress\): r_a\^2 - r_b\^2 \+ d\^2 of its level "
            r"circles leaves the float range$"
        )
        with pytest.raises(FitError, match=message):
            place_exemplars(reference_table, *fields)

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
            radius_a = _level_radius(field_a, float(table.mu_a[i] / max_a))
            radius_b = _level_radius(field_b, float(table.mu_b[i] / max_b))
            gap_a = math.hypot(placement.x, placement.y) - radius_a
            gap_b = math.hypot(placement.x - 6.0, placement.y - 3.0) - radius_b
            assert placement.residual == pytest.approx(
                gap_a**2 + gap_b**2, rel=1e-9, abs=1e-12
            )


# A 50-row draw that beat a fixed bound of 16 ulps: row 46 is classical, at
# 0.04375 of both peaks, and the landscape misses its mu_ab by 17 ulps.
_A, _H = 0.02183182670987549, 0.010915913354937745
_P, _Q = 0.0824211204121056, 0.004507405022537025
_R, _S, _T = 0.052126473560990545, 0.013169615866206259, 0.007711659188737385
_ILL_CONDITIONED_NODE = (
    [_A, 0.027289783387344363, _A, _H, *[_A] * 35, *[_H] * 6, 0.0011939280231963159,
     *[_A] * 4],
    [_P, 0.0206052801030264, _P, 0.103026400515132, *[_P] * 6, 0.0412105602060528,
     *[_Q] * 39],
    [_R, 0.02394753174518538, _R, 0.05697115693503487, *[_R] * 6, 0.03152119345796414,
     *[_S] * 28, *[_T] * 6, 0.0028506665228666705, *[_S] * 4],
)


@given(feasible_columns(min_n=3, max_n=60, top_weight=1.25))
@example(_ILL_CONDITIONED_NODE)
@settings(max_examples=100, deadline=None)
def test_landscape_is_mu_ab_at_every_exact_node(columns):
    """The interference landscape at an exemplar's node is its mu_ab.

    Taken at the node's coordinates, not on the raster, for every exactly
    placed exemplar k != m that shares no placement, with the expression
    ``render_grids`` evaluates.  The miss is counted in ulps of the larger
    of mu_ab_k and the classical average (mu_a_k + mu_b_k) / 2: a row at
    180 degrees has mu_ab_k = (sqrt(mu_a_k) - sqrt(mu_b_k))^2 / 2 by
    cancellation, so its rounding is that of the average.

    The bound scales with the node's conditioning.  A field's intensity
    peak * exp(-r^2 / 2 sigma^2) at the node's fraction f = mu / max mu
    turns a relative error delta in r^2 into about ln(1/f) delta, so the
    bound is 8 (1 + ln(1/f_a) + ln(1/f_b)) ulps.  The tops of these draws
    lead their columns by 1.25, so f >= 0.04 and the bound is at most 60
    ulps.  Over 16,000 draws (292,581 nodes) the worst miss was 19 ulps,
    and 5.49 ulps per unit of conditioning: a margin of 1.46.  The 76,713
    nodes of 3,000 seeded 3-60-row benchmark tables reached 19 ulps and
    3.74 per unit.  A shift of every node's phase by 1e-9 degrees moves
    each node of 500 such tables by at least 4,450 ulps per unit.  Tops
    that lead by less widen the fields past the center distance, and with
    them the rounding of the circles' intersections.

    Row m carries c_m besides, so an exactly placed m misses mu_ab_m by
    (1 - c_m) sqrt(mu_a_m mu_b_m) cos phi_m, within the same bound: the
    field keeps |phi_m| at m, so that no byte changes.
    """
    table = validate_and_normalize(make_table(*columns))
    solution = solve_feasible(table)
    fields = fit_gaussian_fields(table)
    placements = place_exemplars(table, *fields)
    phase = interpolate_phase(placements, solution.phi_deg)
    x, y = placements.x, placements.y
    intensity_a, intensity_b = (f.intensity(x, y) for f in fields)
    modulation = np.sqrt(intensity_a * intensity_b)
    landscape = 0.5 * (intensity_a + intensity_b) + modulation * cos_deg(phase.evaluate(x, y))
    average = 0.5 * (table.mu_a + table.mu_b)
    fraction_a, fraction_b = (mu / mu.max() for mu in (table.mu_a, table.mu_b))
    shared = collections.Counter(zip(x.tolist(), y.tolist()))
    for k in np.flatnonzero(placements.residual == 0.0).tolist():
        if shared[x[k], y[k]] > 1:
            continue
        miss = landscape[k] - table.mu_ab[k]
        if k == solution.m - 1:
            geometric = math.sqrt(table.mu_a[k] * table.mu_b[k])
            miss -= (1.0 - solution.c_m) * geometric * cos_deg(solution.phi_deg[k])
        ulp = math.ulp(max(table.mu_ab[k], average[k]))
        conditioning = 1.0 - math.log(fraction_a[k]) - math.log(fraction_b[k])
        bound = 8 * conditioning * ulp
        assert abs(miss) <= bound, (k + 1, abs(miss) / ulp, conditioning)


def _reference_phase(field, x, y):
    """The phase field as one broadcast expression over every node at once.

    This is the n x H x W formula the streaming ``PhaseField.evaluate``
    replaced, kept here as its bit-exact reference.  The weighted sum starts
    from -0.0, as the streaming one does, so all -0.0 terms sum to -0.0.
    Where the weights fail (their sum is 0 or inf, or the weighted sum is
    not finite) a point with no NaN coordinate takes its nearest node's
    value by ``np.hypot``, the first node on ties.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x[None, ...] - field.nodes_xy[:, 0].reshape((-1,) + (1,) * x.ndim)
    dy = y[None, ...] - field.nodes_xy[:, 1].reshape((-1,) + (1,) * y.ndim)
    shape = (-1,) + (1,) * max(x.ndim, y.ndim)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weights = 1.0 / (dx * dx + dy * dy)
        num = (weights * field.values_deg.reshape(shape)).sum(axis=0, initial=-0.0)
        den = weights.sum(axis=0)
        blended = num / den
    fail = ((den == 0.0) | np.isinf(den) | ~np.isfinite(num)) & ~np.isnan(den)
    nearest = field.values_deg[np.hypot(dx, dy).argmin(axis=0)]
    out = np.where(fail, nearest, blended)
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


def _tile_input(rng, kind, small):
    """Points ``x, y`` of one kind and the nodes per block that
    ``PhaseField.evaluate`` takes on them: 2**15 // (size + x.size +
    y.size), for ``size`` output pixels in one call.  The large grids (72
    rows of 64) and point sets (4097) hold more than 4096 pixels, which
    ``render_grids`` would cut into bands and ``evaluate`` folds whole."""
    rows, columns, points = (20, 24, 500) if small else (72, 64, 4097)
    xs, ys = rng.uniform(-1.2, 1.2, columns), rng.uniform(-1.2, 1.2, rows)
    px, py = rng.uniform(-1.2, 1.2, (2, points))
    return {
        "sparse axes": (*np.meshgrid(xs, ys, sparse=True),
                        2**15 // (rows * columns + columns + rows)),
        "full grid": (*np.meshgrid(xs, ys), 2**15 // (3 * rows * columns)),
        "1-D points": (px, py, 2**15 // (3 * points)),
        # evaluated as the first of two equal points
        "lone point": (px[0], py[0], 2**15 // (3 * 2)),
    }[kind]


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
            assert phase.evaluate(placement.x, placement.y) == abs(expected)

    def test_field_between_two_weakening_exemplars_stays_weakening(
        self, reference_table, reference_solution, reference_placements
    ):
        # Tomato (98.51 degrees) and Pumpkin (-103.49) both weaken mu_ab;
        # the signed phases would sweep through 0 (-2.32 at the midpoint)
        phi = reference_solution.phi_deg
        phase = interpolate_phase(reference_placements, phi)
        k, j = (reference_table.names.index(name) for name in ("Tomato", "Pumpkin"))
        assert phi[k] > 90.0 and phi[j] < -90.0
        x, y = reference_placements.x, reference_placements.y
        midpoint = float(phase.evaluate((x[k] + x[j]) / 2, (y[k] + y[j]) / 2))
        assert 98.51 < midpoint < 103.49
        assert midpoint == pytest.approx(100.84, abs=0.01)

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
            st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=1, max_size=24)
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
        for x, y in inputs:
            got = np.asarray(field.evaluate(x, y))
            want = np.asarray(_reference_pixelwise(field, x, y))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_nearest_node_where_the_weights_fail(self):
        field = PhaseField(np.array([[0.0, 2.8e-158], [0.0, 1e-154], [1.0, 0.0]]),
                           np.array([-30.0, 45.0, 60.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the weight 1 / 7.8e-316 overflows
            assert field.evaluate(0.0, 0.0) == -30.0
            # the weights 1e308 and 2.5e307 are finite, but 45 and -30 times
            # them overflow to inf and -inf
            assert field.evaluate(0.0, 2e-154) == 45.0
            # every weight underflows to 0; each node is 1e200 away in
            # floats, so the first one wins the tie
            assert field.evaluate(1e200, 0.0) == -30.0
            assert np.isnan(field.evaluate(math.nan, 0.0))
            assert np.isnan(field.evaluate(np.array([[0.0, math.nan]]), 1.0)[0, 1])

    def test_memory_does_not_grow_with_nodes(self):
        xs = np.linspace(-1.0, 1.0, 64)
        plane = 64 * 64 * 8
        rng = np.random.default_rng(3)
        for sparse in (False, True):
            grid_x, grid_y = np.meshgrid(xs, xs, sparse=sparse)
            # the first evaluation in a process makes numpy's one-off allocations
            _one_node(0.0).evaluate(grid_x, grid_y)
            peaks = {}
            for n in (2000, 20):
                field = PhaseField(rng.uniform(-1, 1, size=(n, 2)), rng.uniform(-90, 90, size=n))
                tracemalloc.start()
                try:
                    field.evaluate(grid_x, grid_y)
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peaks[n] < 16 * plane, (sparse, n, peaks[n])
            assert abs(peaks[2000] - peaks[20]) <= 0.01 * plane, (sparse, peaks)

    @pytest.mark.parametrize("nodes", ["3 blocks + 1", 2000])
    @pytest.mark.parametrize("kind", ["sparse axes", "full grid", "1-D points", "lone point"])
    def test_tiles_match_broadcast_formula_bitwise(self, kind, nodes):
        rng = np.random.default_rng(11)
        x, y, block = _tile_input(rng, kind, small=nodes == 2000)
        n = 3 * block + 1 if nodes != 2000 else nodes
        field = PhaseField(rng.uniform(-1, 1, (n, 2)), rng.uniform(-180, 180, n))
        got = field.evaluate(x, y)
        want = np.asarray(_reference_pixelwise(field, x, y))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["sparse axes", "full grid", "1-D points", "lone point"])
    def test_zero_phases_keep_their_sign_bitwise(self, kind):
        rng = np.random.default_rng(12)
        x, y, block = _tile_input(rng, kind, small=False)
        n = 3 * block + 1
        for values in (np.full(n, -0.0), rng.choice([0.0, -0.0], n)):
            field = PhaseField(rng.uniform(-1, 1, (n, 2)), values)
            got = field.evaluate(x, y)
            want = np.asarray(_reference_pixelwise(field, x, y))
            assert got.tobytes() == want.tobytes()
        assert np.signbit(_one_node(-0.0).evaluate(x, y)).all()

    def test_empty_input_gives_an_empty_field(self):
        field = PhaseField(np.array([[0.0, 0.0], [1.0, 1.0]]), [10.0, 20.0])
        for x, y in ((np.empty(0), np.empty(0)), (np.empty((0, 1)), np.ones((1, 5)))):
            assert field.evaluate(x, y).shape == np.broadcast_shapes(x.shape, y.shape)

    def test_row_slices_stack_to_one_call(self):
        rng = np.random.default_rng(13)
        grid_x, grid_y, _ = _tile_input(rng, "sparse axes", small=False)
        field = PhaseField(rng.uniform(-1, 1, (500, 2)), rng.uniform(-180, 180, 500))
        bounds = (0, 1, 30, 37, len(grid_y))
        parts = [field.evaluate(grid_x, grid_y[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert np.vstack(parts).tobytes() == field.evaluate(grid_x, grid_y).tobytes()

    @pytest.mark.parametrize("value", [-0.0, 90.0, 180.0, -180.0, 37.123456789])
    @pytest.mark.parametrize(
        "low, high", [(-1.0, 1.0), (-1e-155, 1e-155), (1e200, 2e200)],
        ids=["holds the node", "within 1e-155 of it", "1e200 away"],
    )
    def test_one_node_field_is_its_value_bitwise(self, value, low, high):
        # on the node, beside it (every weight overflows) and far from it
        # (every weight underflows), and between for the first window
        axis = np.linspace(low, high, 9)
        got = _one_node(value).evaluate(*np.meshgrid(axis, axis, sparse=True))
        assert got.tobytes() == np.full((9, 9), value).tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, value):
        message = rf"^phase {value!r} of node 2 is not finite$"
        with pytest.raises(ValidationError, match=message):
            PhaseField(np.array([[0.0, 0.0], [1.0, 0.0]]), [45.0, value])

    @pytest.mark.parametrize(
        "node", [(math.nan, 0.0), (2.0, math.inf), (-math.inf, 0.0)], ids=repr
    )
    def test_non_finite_node_rejected(self, node):
        # a NaN node would make every value NaN, an infinite one read as absent
        message = rf"^location {re.escape(repr(node))} of node 2 is not finite$"
        with pytest.raises(ValidationError, match=message):
            PhaseField(np.array([[0.0, 0.0], node]), [45.0, 90.0])

    def test_nodes_must_be_pairs(self):
        for shape in [(2,), (2, 3), (0, 2)]:
            with pytest.raises(ValidationError) as excinfo:
                PhaseField(np.zeros(shape), np.zeros(shape[0]))
            assert str(excinfo.value) == f"nodes must be (n, 2), got {shape}"

    def test_nodes_and_phases_are_stored_as_floats(self):
        field = PhaseField([[0, 0], [1, 0]], [10, 20])
        assert field.nodes_xy.dtype == field.values_deg.dtype == np.float64
        assert field.values_deg.tolist() == [10.0, 20.0]

    def test_coincident_nodes_read_the_first_node(self):
        # nodes 1 and 3 share (0, 0), nodes 2 and 4 share (1, 0)
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.5, 2.0]])
        field = PhaseField(nodes, np.array([-30.0, 60.0, 45.0, -90.0, 10.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert field.evaluate(0.0, 0.0) == -30.0
            assert field.evaluate(1.0, 0.0) == 60.0
            axis = np.linspace(-1.0, 2.0, 13)  # holds 0 and 1
            got = field.evaluate(*np.meshgrid(axis, axis, sparse=True))
        want = _reference_phase(field, *np.meshgrid(axis, axis, sparse=True))
        assert got.tobytes() == want.tobytes()
        assert got[4, 4] == -30.0 and got[4, 8] == 60.0

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

    def test_computes_in_double_precision(self):
        # float32 angles are cosines of their float64 values, not float32 ones
        angles = np.array([60.0, 30.0, 90.0], dtype=np.float32)
        got = cos_deg(angles)
        assert got.dtype == np.float64
        assert got.tobytes() == cos_deg(angles.astype(float)).tobytes()


class TestRenderGrids:
    def test_default_window_below_the_float_spacing_raises(self, reference_table):
        # every placement sits at x = 1e300, where the spacing of floats is
        # far above the 2 sigma padding, so the padded window has no width
        fields = fit_gaussian_fields(reference_table, (1e300, 0.0), (1e300, 10.0))
        placements = place_exemplars(reference_table, *fields)
        with pytest.raises(FitError) as excinfo:
            default_window(placements, *fields)
        pad = 2 * max(field.sigma for field in fields)
        assert str(excinfo.value) == (
            f"the placements span x [1e+300, 1e+300] and y [0.0, 10.0]; padding "
            f"them by {pad!r} leaves an empty window at float precision, so "
            "pass --window"
        )

    @settings(max_examples=10, deadline=None)
    @given(flips=st.lists(st.booleans(), min_size=24, max_size=24))
    @example(flips=[True] + [False] * 23)
    def test_phase_signs_leave_every_byte_unchanged(
        self, reference_solution, reference_fields, reference_placements, flips
    ):
        # mu_ab_k depends on cos phi_k only, so the signs the greedy pass
        # chose do not show in the landscape
        phi = reference_solution.phi_deg
        window = default_window(reference_placements, *reference_fields)
        grids = [
            render_grids(
                *reference_fields,
                interpolate_phase(reference_placements, phases),
                window,
                (48, 40),
            )
            for phases in (phi, np.where(flips, -phi, phi))
        ]
        for name, grid in grids[0].items():
            assert grid.values.tobytes() == grids[1][name].values.tobytes()

    def test_constant_right_angle_equals_classical_bitwise(
        self, reference_fields, reference_placements
    ):
        window = default_window(reference_placements, *reference_fields)
        grids = render_grids(
            *reference_fields, _one_node(90.0), window, (64, 64)
        )
        assert np.array_equal(
            grids["interference"].values, grids["classical"].values
        )

    def test_constant_zero_phase_fully_constructive(
        self, reference_fields, reference_placements
    ):
        window = default_window(reference_placements, *reference_fields)
        grids = render_grids(
            *reference_fields, _one_node(0.0), window, (64, 64)
        )
        amplitude_sum = 0.5 * (
            np.sqrt(grids["a_only"].values) + np.sqrt(grids["b_only"].values)
        ) ** 2
        assert np.allclose(
            grids["interference"].values, amplitude_sum, atol=1e-12
        )

    def test_bands_in_threads_equal_one_call(
        self, reference_table, reference_fields, reference_placements, monkeypatch
    ):
        # 24 nodes on 400 x 400 pixels are 3.84e6 node-pixel pairs: three
        # threads when three CPUs are usable, folding 40 bands of 4096 // 400
        # = 10 rows.  The caller folds bands 0, 3, 6, ... and a pool of two
        # threads the other 26, shares 1 and 2 in either thread or both
        monkeypatch.setattr(wavefield, "_usable_cpus", lambda: 3)
        folds = []
        fold = PhaseField._fold

        def fold_in_thread(field, x, y, tile_values):
            folds.append((threading.get_ident(), float(y[0, 0]), len(y)))
            return fold(field, x, y, tile_values)

        monkeypatch.setattr(PhaseField, "_fold", fold_in_thread)
        phase = interpolate_phase(reference_placements, solve(reference_table).phi_deg)
        window = default_window(reference_placements, *reference_fields)
        grids = render_grids(*reference_fields, phase, window, (400, 400))
        x_min, x_max, y_min, y_max = window
        xs = x_min + (np.arange(400) + 0.5) * ((x_max - x_min) / 400)
        ys = y_max - (np.arange(400) + 0.5) * ((y_max - y_min) / 400)
        assert [rows for *_, rows in folds] == [10] * 40
        # each band by its first row's y
        firsts = ys[::10].tolist()
        caller = threading.get_ident()
        assert sorted(y for thread, y, _ in folds if thread == caller) == sorted(
            firsts[0::3]
        )
        assert sorted(y for thread, y, _ in folds if thread != caller) == sorted(
            firsts[1::3] + firsts[2::3]
        )
        grid_x, grid_y = np.meshgrid(xs, ys, sparse=True)
        intensity_a, intensity_b = (f.intensity(grid_x, grid_y) for f in reference_fields)
        classical = 0.5 * (intensity_a + intensity_b)
        modulation = np.sqrt(intensity_a * intensity_b)
        want = classical + modulation * cos_deg(phase.evaluate(grid_x, grid_y))
        assert grids["interference"].values.tobytes() == want.tobytes()

    @given(feasible_tables(min_n=60, max_n=60))
    @settings(max_examples=3, deadline=None)
    def test_bytes_do_not_depend_on_the_threads(self, table):
        # 60 nodes on 300 x 300 pixels are 5.4e6 node-pixel pairs, in bands
        # of 4096 // 300 = 13 rows: 23 of them and one of 1 row, for any
        # count of threads up to 5
        try:
            fields = fit_gaussian_fields(table)
        except FitError:
            assume(False)  # shared top exemplar; the fit contract excludes it
        placements = place_exemplars(table, *fields)
        phase = interpolate_phase(placements, solve_feasible(table).phi_deg)
        window = default_window(placements, *fields)
        fold, renders = PhaseField._fold, {}
        for cpus in (1, 2, 3, 4):
            bands = []

            def fold_band(field, x, y, tile_values):
                bands.append(len(y))
                return fold(field, x, y, tile_values)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(wavefield, "_usable_cpus", lambda: cpus)
                patch.setattr(PhaseField, "_fold", fold_band)
                grids = render_grids(*fields, phase, window, (300, 300))
            assert sorted(bands) == [1] + [13] * 23
            renders[cpus] = {name: grid.values.tobytes() for name, grid in grids.items()}
        assert renders[1] == renders[2] == renders[3] == renders[4]

    def test_peak_memory_below_ten_planes(
        self, reference_table, reference_fields, reference_placements
    ):
        phase = interpolate_phase(reference_placements, solve(reference_table).phi_deg)
        window = default_window(reference_placements, *reference_fields)
        tracemalloc.start()
        try:
            render_grids(*reference_fields, phase, window, (400, 400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 400 * 400 * 8

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
        locations = np.column_stack((reference_placements.x, reference_placements.y))
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
        phase = _one_node(45.0)
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

    def test_grid_values_must_match_its_size(self):
        with pytest.raises(ValidationError) as excinfo:
            wavefield.RasterGrid(3, 2, 0.0, 1.0, 0.0, 1.0, np.zeros((3, 2)))
        assert str(excinfo.value) == "values shape (3, 2) does not match 2x3"

    @pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
    def test_cpu_count_without_cpu_affinity(self, monkeypatch, count, usable):
        monkeypatch.delattr(wavefield.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(wavefield.os, "cpu_count", lambda: count)
        assert wavefield._usable_cpus() == usable

    def test_degenerate_window_rejected(self, reference_fields):
        for window in [(1.0, 1.0, 0.0, 2.0), (0.0, 2.0, 1.0, 1.0)]:
            with pytest.raises(ValidationError) as excinfo:
                render_grids(*reference_fields, _one_node(0.0), window)
            assert str(excinfo.value) == f"degenerate window {window!r}"

    def test_tiny_resolution_rejected(self, reference_fields):
        for resolution in [(1, 1), (1, 5), (5, 1)]:
            with pytest.raises(ValidationError) as excinfo:
                render_grids(
                    *reference_fields,
                    _one_node(0.0),
                    (0.0, 1.0, 0.0, 1.0),
                    resolution,
                )
            assert str(excinfo.value) == (
                f"resolution must be at least 2x2, got {resolution!r}"
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
        from concept_interference.wavefield import RasterGrid

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
