"""Two-Gaussian interference landscapes rendered onto raster grids.

Each concept becomes an isotropic 2D Gaussian intensity field; exemplars
are placed where the two fields simultaneously equal their two measured
probabilities (level-curve intersections); the per-exemplar phases are
spread over the plane by inverse-distance-squared interpolation; and four
rasters are rendered per request: the two single-concept fields, their
classical average, and the interference pattern

    I(x, y) = (G_A + G_B)/2 + sqrt(G_A * G_B) * cos(phi(x, y))

which is nonnegative everywhere because it equals half the squared modulus
of the summed real-amplitude waves.  Rendering is pixel-parallel pure
evaluation; rasters are row-major with the top row at y_max.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import TypicalityTable
from .errors import FitError, ValidationError

DEFAULT_CENTER_A = (0.0, 0.0)
DEFAULT_CENTER_B = (10.0, 4.0)
DEFAULT_RESOLUTION = 400
DEFAULT_WINDOW_PADDING = 2.0  # multiples of the larger sigma


@dataclass(frozen=True)
class GaussianField:
    """Isotropic 2D Gaussian intensity field peak*exp(-r^2 / (2 sigma^2))."""

    center: tuple[float, float]
    sigma: float
    peak: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise FitError(f"sigma must be positive, got {self.sigma!r}")
        if not (self.peak > 0.0 and math.isfinite(self.peak)):
            raise FitError(f"peak must be positive, got {self.peak!r}")

    def intensity(self, x, y):
        dx = np.asarray(x, dtype=float) - self.center[0]
        dy = np.asarray(y, dtype=float) - self.center[1]
        return self.peak * np.exp(-(dx * dx + dy * dy) / (2.0 * self.sigma**2))

    def level_radius(self, fractions) -> np.ndarray:
        """Radii where intensity falls to each of ``fractions`` of the peak."""
        fractions = np.asarray(fractions, dtype=float)
        if not ((fractions > 0.0) & (fractions <= 1.0)).all():
            raise ValidationError(f"fractions must be in (0, 1], got {fractions!r}")
        # scalar libm log: np.log differs from it in the last ulp on some inputs
        logs = [*map(math.log, (1.0 / fractions).ravel().tolist())]
        return self.sigma * np.sqrt(2.0 * np.reshape(logs, fractions.shape))


def _squares(values: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each value, which is libm ``pow``: ``v * v`` differs
    from it in the last ulp on some inputs."""
    return np.array([v**2 for v in values.ravel().tolist()]).reshape(values.shape)


class Placement(NamedTuple):
    """One row of ``PlacementMap.placements``."""

    index: int
    name: str
    x: float
    y: float
    residual: float


@dataclass(frozen=True, eq=False)
class PlacementMap:
    """Exemplar names beside read-only float64 columns x, y and residual."""

    names: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        for field in ("x", "y", "residual"):
            column = np.array(getattr(self, field), dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, field, column)

    @property
    def placements(self) -> tuple[Placement, ...]:
        """The columns zipped into ``(index, name, x, y, residual)`` rows."""
        columns = (self.x.tolist(), self.y.tolist(), self.residual.tolist())
        rows = zip(range(1, len(self.names) + 1), self.names, *columns)
        return tuple(map(Placement._make, rows))

    def locations(self) -> np.ndarray:
        return np.column_stack((self.x, self.y))


@dataclass(frozen=True, eq=False)
class PhaseField:
    """Inverse-distance-squared interpolant over exemplar phase nodes.

    Exact at every node and clamped to the node extremes, so values never
    leave [min phi_k, max phi_k].  Evaluation is Shepard's interpolation in
    its streaming form: one pass over the nodes adds each node's weight and
    weighted phase into running planes, so memory is O(H*W) for any n.
    """

    nodes_xy: np.ndarray
    values_deg: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes_xy, dtype=float)
        values = np.asarray(self.values_deg, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 2 or nodes.shape[0] < 1:
            raise ValidationError(f"nodes must be (n, 2), got {nodes.shape}")
        if values.shape != (nodes.shape[0],):
            raise ValidationError(
                f"need one phase per node: {values.shape} vs nodes {nodes.shape}"
            )
        if len(np.unique(nodes, axis=0)) != nodes.shape[0]:
            raise ValidationError("duplicate node locations")
        object.__setattr__(self, "nodes_xy", nodes)
        object.__setattr__(self, "values_deg", values)

    def evaluate(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(x, y).shape
        d2 = np.empty(shape)
        dy = np.empty(shape)
        hit = np.empty(shape, dtype=bool)
        hit_any = np.zeros(shape, dtype=bool)
        exact = np.zeros(shape)
        # both sums start from +0.0 and add node after node, as a numpy sum
        # over a leading node axis does (so all -0.0 terms sum to +0.0)
        num = np.zeros(shape)
        den = np.zeros(shape)
        nodes = zip(self.nodes_xy.tolist(), self.values_deg.tolist())
        # exact hits zero every weight at a single-node field; the blended
        # value is discarded there, so silence the 0/0
        with np.errstate(invalid="ignore", divide="ignore"):
            for (node_x, node_y), value in nodes:
                np.subtract(x, node_x, out=d2)
                np.multiply(d2, d2, out=d2)
                np.subtract(y, node_y, out=dy)
                np.multiply(dy, dy, out=dy)
                np.add(d2, dy, out=d2)
                np.equal(d2, 0.0, out=hit)
                if hit.any():
                    # the first node hit keeps the pixel; a hit weighs 0
                    exact[hit & ~hit_any] = value
                    hit_any |= hit
                    d2[hit] = np.inf
                weight = np.divide(1.0, d2, out=d2)
                den += weight
                weight *= value
                num += weight
            num /= den
        out = np.where(hit_any, exact, num)
        return np.clip(out, self.values_deg.min(), self.values_deg.max())


@dataclass(frozen=True)
class ConstantPhaseField:
    """Uniform phase everywhere (e.g. 90 degrees for the classical limit)."""

    value_deg: float

    def __post_init__(self):
        if not math.isfinite(self.value_deg):
            raise ValidationError(f"phase constant {self.value_deg!r} is not finite")

    def evaluate(self, x, y) -> np.ndarray:
        return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, self.value_deg)


@dataclass(frozen=True, eq=False)
class RasterGrid:
    """Row-major real intensities over an axis-aligned world window.

    Row 0 holds the pixel centers nearest y_max (image convention); pixel
    (row i, column j) is centered at
    (x_min + (j+0.5)*dx, y_max - (i+0.5)*dy).
    """

    width: int
    height: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.height, self.width):
            raise ValidationError(
                f"values shape {self.values.shape} does not match "
                f"{self.height}x{self.width}"
            )


def cos_deg(degrees):
    """Cosine of angles in degrees, exactly zero on the 90-degree boundary.

    The exact zero makes the no-interference identity (phase 90 everywhere
    implies interference == classical) hold bit-for-bit.
    """
    degrees = np.asarray(degrees, dtype=float)
    out = np.cos(np.radians(degrees))
    return np.where(np.mod(degrees, 180.0) == 90.0, 0.0, out)


def fit_gaussian_fields(
    table: TypicalityTable,
    center_a: tuple[float, float] = DEFAULT_CENTER_A,
    center_b: tuple[float, float] = DEFAULT_CENTER_B,
) -> tuple[GaussianField, GaussianField]:
    """Fit one isotropic Gaussian per concept to the table's marginals.

    Field A peaks at center_a with height max(mu_a) so its top exemplar
    sits exactly at the center, and its width is fixed by the closed-form
    requirement that the field at center_b equals mu_a of B's top exemplar;
    field B symmetrically.  Requires distinct centers and distinct top
    exemplars.
    """
    ax, ay = float(center_a[0]), float(center_a[1])
    bx, by = float(center_b[0]), float(center_b[1])
    distance = math.hypot(bx - ax, by - ay)
    if distance == 0.0:
        raise FitError("centers must be distinct")
    mu_a, mu_b = table.mu_a, table.mu_b
    top_a = int(np.argmax(mu_a))
    top_b = int(np.argmax(mu_b))
    if top_a == top_b:
        raise FitError(
            f"exemplar {top_a + 1} ({table.names[top_a]}) tops both columns; "
            "the two fields need distinct top exemplars"
        )

    def width(column: np.ndarray, far_index: int, label: str) -> float:
        ratio = column.max() / column[far_index]
        if not ratio > 1.0:
            raise FitError(
                f"cannot fit {label}: intensity at the far center would not "
                f"fall below the peak (ratio {ratio!r})"
            )
        return distance / math.sqrt(2.0 * math.log(ratio))

    field_a = GaussianField((ax, ay), width(mu_a, top_b, "field A"), float(mu_a.max()))
    field_b = GaussianField((bx, by), width(mu_b, top_a, "field B"), float(mu_b.max()))
    return field_a, field_b


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def place_exemplars(
    table: TypicalityTable,
    field_a: GaussianField,
    field_b: GaussianField,
) -> PlacementMap:
    """Locate every exemplar on consistent level curves of both fields.

    The top exemplar of each column sits exactly at its field's center
    (residual 0, both constraints hold there by the fit construction).
    Every other exemplar lies on an intersection of its two level-curve
    circles: even indices take the intersection left of the directed
    center-A-to-center-B line, odd indices the right one.  When the circles
    do not intersect, the point on the center line minimizing the sum of
    squared radial violations is used and the residual records that sum.
    A non-top exemplar whose fraction of a peak has no finite level radius
    (0, or so small that its reciprocal overflows) raises ValidationError.
    """
    (ax, ay), (bx, by) = (map(float, field.center) for field in (field_a, field_b))
    d = math.hypot(bx - ax, by - ay)
    if d == 0.0:
        raise FitError("centers must be distinct")
    ux, uy = (bx - ax) / d, (by - ay) / d
    mu_a, mu_b, n = table.mu_a, table.mu_b, table.n
    top_a, top_b = int(mu_a.argmax()), int(mu_b.argmax())
    free = np.ones(n, dtype=bool)
    free[top_a] = free[top_b] = False
    # a pinned top exemplar takes fraction 1 here and its center below
    fraction_a, fraction_b = (np.where(free, mu / mu.max(), 1.0) for mu in (mu_a, mu_b))
    no_curve_a, no_curve_b = (~np.isfinite(1.0 / f) for f in (fraction_a, fraction_b))
    if (no_curve := no_curve_a | no_curve_b).any():
        k = int(no_curve.argmax())
        label, mu = ("mu_a", mu_a) if no_curve_a[k] else ("mu_b", mu_b)
        raise ValidationError(
            f"exemplar {k + 1} ({table.names[k]}): {label} = {float(mu[k])!r} "
            "has no level curve"
        )
    radius_a = field_a.level_radius(fraction_a)
    radius_b = field_b.level_radius(fraction_b)

    # circles that meet: the chord's foot lies ``along`` the center line,
    # the chosen point ``lateral`` to its left (even index) or right (odd);
    # rows whose circles miss are overwritten below.  No value clamped here
    # or below is -0.0, the one input where np.maximum and np.minimum part
    # from Python's max and min.
    square_a = _squares(radius_a)
    along = (square_a - _squares(radius_b) + d * d) / (2.0 * d)
    lateral = np.sqrt(np.maximum(square_a - along * along, 0.0))
    lateral[1::2] *= -1.0
    x = ax + along * ux + lateral * uy
    y = ay + along * uy - lateral * ux
    residual = np.zeros(n)

    # circles that miss: the least violation among five points t on the
    # center line
    miss = free & ((d > radius_a + radius_b) | (d < np.abs(radius_a - radius_b)))
    ra, rb = radius_a[miss], radius_b[miss]
    t = np.array([
        np.minimum(np.maximum((ra + d - rb) / 2.0, 0.0), d),  # between the centers
        (ra + d + rb) / 2.0,  # beyond center B
        np.minimum((d - ra - rb) / 2.0, 0.0),  # behind center A
        np.zeros(ra.size),
        np.full(ra.size, d),
    ])
    violation = _squares(np.abs(t) - ra) + _squares(np.abs(d - t) - rb)
    # as Python's min(key=(violation, t)): ties go to the smallest t, and a
    # NaN violation never wins, nor loses when it comes first
    best_v = np.fmin.reduce(violation)
    best_t = np.where(violation == best_v, t, np.inf).min(axis=0)
    first = np.isnan(violation[0])
    best_t[first], best_v[first] = t[0, first], violation[0, first]
    x[miss], y[miss], residual[miss] = ax + best_t * ux, ay + best_t * uy, best_v

    x[top_b], y[top_b] = bx, by
    x[top_a], y[top_a] = ax, ay
    return PlacementMap(table.names, x, y, residual)


def interpolate_phase(placements: PlacementMap, phi_deg) -> PhaseField:
    """Phase field through the exemplar locations with their phi values."""
    return PhaseField(placements.locations(), phi_deg)


def default_window(
    placements: PlacementMap,
    field_a: GaussianField,
    field_b: GaussianField,
) -> tuple[float, float, float, float]:
    """Bounding box of the placements padded by DEFAULT_WINDOW_PADDING *
    max(sigma)."""
    x, y = placements.x, placements.y
    pad = DEFAULT_WINDOW_PADDING * max(field_a.sigma, field_b.sigma)
    return (float(x.min() - pad), float(x.max() + pad),
            float(y.min() - pad), float(y.max() + pad))


def render_grids(
    field_a: GaussianField,
    field_b: GaussianField,
    phase: PhaseField | ConstantPhaseField,
    window: tuple[float, float, float, float],
    resolution: tuple[int, int] = (DEFAULT_RESOLUTION, DEFAULT_RESOLUTION),
) -> dict[str, RasterGrid]:
    """Render the four landscape grids over the window at pixel centers.

    Returns a_only (field A), b_only (field B), classical ((A+B)/2) and
    interference (classical + sqrt(A*B) cos phase).  a_only + b_only equals
    2*classical exactly, pixelwise; with a constant 90-degree phase the
    interference grid equals the classical grid bit-for-bit.  The window's
    bounds and its width and height must be finite.
    """
    x_min, x_max, y_min, y_max = (float(v) for v in window)
    if not (x_min < x_max and y_min < y_max):
        raise ValidationError(f"degenerate window {window!r}")
    if not all(map(math.isfinite, (x_min, y_min, x_max - x_min, y_max - y_min))):
        raise ValidationError(f"window {window!r} is not finite")
    width, height = int(resolution[0]), int(resolution[1])
    if width < 2 or height < 2:
        raise ValidationError(f"resolution must be at least 2x2, got {resolution!r}")

    xs = x_min + (np.arange(width) + 0.5) * ((x_max - x_min) / width)
    ys = y_max - (np.arange(height) + 0.5) * ((y_max - y_min) / height)
    grid_x, grid_y = np.meshgrid(xs, ys)

    intensity_a = field_a.intensity(grid_x, grid_y)
    intensity_b = field_b.intensity(grid_x, grid_y)
    classical = 0.5 * (intensity_a + intensity_b)
    modulation = np.sqrt(intensity_a * intensity_b)
    interference = classical + modulation * cos_deg(phase.evaluate(grid_x, grid_y))

    def grid(values: np.ndarray) -> RasterGrid:
        return RasterGrid(width, height, x_min, x_max, y_min, y_max, values)

    return {
        "a_only": grid(intensity_a),
        "b_only": grid(intensity_b),
        "classical": grid(classical),
        "interference": grid(interference),
    }


def grid_to_csv(grid: RasterGrid) -> str:
    """CSV form: a window/size header line, then one row of reals per pixel row."""
    lines = [
        f"{grid.x_min!r},{grid.x_max!r},{grid.y_min!r},{grid.y_max!r},"
        f"{grid.width},{grid.height}"
    ]
    for row in grid.values.tolist():
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def grid_to_pgm(grid: RasterGrid) -> bytes:
    """Binary PGM (P5, maxval 255) with per-grid linear min-max normalization."""
    values = grid.values
    low = float(values.min())
    high = float(values.max())
    if high > low:
        scaled = np.rint((values - low) * (255.0 / (high - low)))
    else:
        scaled = np.zeros_like(values)
    body = np.clip(scaled, 0.0, 255.0).astype(np.uint8).tobytes()
    return f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii") + body


def placements_to_csv(placements: PlacementMap) -> str:
    """CSV export of the placement map: exemplar,x,y,residual."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["exemplar", "x", "y", "residual"])
    columns = (placements.x, placements.y, placements.residual)
    writer.writerows(zip(placements.names, *(map(repr, c.tolist()) for c in columns)))
    return buffer.getvalue()
