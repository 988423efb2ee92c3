"""Two-Gaussian interference landscapes rendered onto raster grids.

Each concept becomes an isotropic 2D Gaussian intensity field; exemplars
are placed where the two fields simultaneously equal their two measured
probabilities (level-curve intersections); the per-exemplar phase
magnitudes |phi_k| are spread over the plane by inverse-distance-squared
interpolation (the nearest node's phase where those weights fail); and four
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
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import TypicalityTable
from .errors import FitError, ValidationError

DEFAULT_CENTER_A = (0.0, 0.0)
DEFAULT_CENTER_B = (10.0, 4.0)
DEFAULT_RESOLUTION = 400
DEFAULT_WINDOW_PADDING = 2.0  # multiples of the larger sigma

# PhaseField.evaluate folds its nodes in tiles of about _TILE_VALUES values
# (a call at 64 px peaks near 11 planes); render_grids, the one place that
# splits the field's rows, cuts them into bands of at most _BAND_PIXELS
# pixels and takes larger tiles, whose numpy calls (about 0.1 ms) outlast
# passing the interpreter lock between its threads (about 20 us)
_BAND_PIXELS = 2**12
_TILE_VALUES = 2**15
_RENDER_TILE_VALUES = 2**17


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
        if not all(map(math.isfinite, self.center)):
            raise FitError(f"center must be finite, got {self.center!r}")

    @np.errstate(over="ignore")  # a squared offset past the float range gives 0
    def intensity(self, x, y):
        dx = np.asarray(x, dtype=float) - self.center[0]
        dy = np.asarray(y, dtype=float) - self.center[1]
        return self.peak * np.exp(-(dx * dx + dy * dy) / (2.0 * self.sigma**2))


def _squares(values: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each value, which is libm ``pow``: ``v * v`` differs
    from it in the last ulp on some inputs.  A square past the float range
    raises FitError."""
    try:
        return np.array([v**2 for v in values.ravel().tolist()]).reshape(values.shape)
    except OverflowError:
        largest = float(np.abs(values).max())
        raise FitError(f"{largest!r} squared leaves the float range") from None


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


@dataclass(frozen=True, eq=False)
class PhaseField:
    """Inverse-distance-squared interpolant over exemplar phase nodes.

    Nodes and phases must be finite, and nodes may coincide: a location
    shared by several nodes takes the first one's phase (the nearest-node
    rule below), and near it they blend with equal weights.  Exact at every
    other node and clamped to the node extremes, so values never leave
    [min phi_k, max phi_k], and a one-node field is its phase everywhere.
    Evaluation is Shepard's interpolation folded in node tiles: the nodes
    go in blocks of ``2**15 // (size + x.size + y.size)`` over all ``size``
    output pixels at once (``render_grids`` hands it row bands), and each
    block's weights and weighted phases are added into running weight and
    phase planes by an outer-axis ``np.add.reduce``, which adds them node
    after node at every pixel.  So memory is O(H*W) for any n, x and y may
    be a grid's sparse axes, and a pixel's value depends neither on the
    block it falls in nor on the pixels beside it in the call (a lone point
    is evaluated as the first of two equal points, as a reduction over one
    pixel would add pairwise).  Where the
    weights fail (their sum is 0 or inf, or the weighted sum is not finite:
    on a node, within about 1e-153 of one, or about 1e154 from all) a point
    takes its nearest node's value by ``np.hypot``, the first node on ties;
    NaN stays NaN.
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
        if not (finite := np.isfinite(nodes).all(axis=1)).all():
            k = int(finite.argmin())
            raise ValidationError(
                f"location {(*nodes[k].tolist(),)!r} of node {k + 1} is not finite"
            )
        if not (finite := np.isfinite(values)).all():
            k = int(finite.argmin())
            raise ValidationError(
                f"phase {float(values[k])!r} of node {k + 1} is not finite"
            )
        object.__setattr__(self, "nodes_xy", nodes)
        object.__setattr__(self, "values_deg", values)

    def evaluate(self, x, y) -> np.ndarray:
        return self._fold(x, y, _TILE_VALUES)

    def _fold(self, x, y, tile_values: int) -> np.ndarray:
        """``evaluate`` in blocks of ``tile_values // (size + x.size +
        y.size)`` nodes; the values do not depend on ``tile_values``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        size = math.prod(shape)
        if size == 1:
            # a reduction over one pixel adds pairwise; the first of two
            # equal points adds node after node, as a pixel of a grid does
            pair = self._fold(np.full(2, x.item()), np.full(2, y.item()), tile_values)
            return pair[:1].reshape(shape)
        nodes_x, nodes_y, phases = (
            c.reshape(-1, *(1,) * len(shape)) for c in (*self.nodes_xy.T, self.values_deg)
        )
        # the sums add node after node from -0.0, the identity of IEEE
        # addition, so all -0.0 terms sum to -0.0
        den, num = np.full(shape, -0.0), np.full(shape, -0.0)
        block = max(1, tile_values // max(size + x.size + y.size, 1))
        # row 0 holds a running sum, the rows after it one block's terms: an
        # outer-axis reduction adds its rows in order
        rows = np.empty((min(block, len(phases)) + 1, *shape))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, len(phases), block):
                k = slice(start, start + block)
                dx = x - nodes_x[k]
                dx *= dx
                dy = y - nodes_y[k]
                dy *= dy
                tile = rows[: len(dx) + 1]
                terms = tile[1:]
                # dy + dx, which is dx + dy: numpy adds a contiguous operand
                # faster than a broadcast one
                np.copyto(terms, dy)
                terms += dx
                np.divide(1.0, terms, out=terms)
                tile[0] = den
                np.add.reduce(tile, axis=0, out=den, initial=-0.0)
                terms *= phases[k]
                tile[0] = num
                np.add.reduce(tile, axis=0, out=num, initial=-0.0)
            fail = ((den == 0.0) | np.isinf(den) | ~np.isfinite(num)) & ~np.isnan(den)
            num /= den
        if fail.any():
            nodes, values = self.nodes_xy.tolist(), self.values_deg.tolist()
            px, py = (c[fail] for c in np.broadcast_arrays(x, y))
            best, nearest = np.full(px.shape, np.inf), np.full(px.shape, values[0])
            for (node_x, node_y), value in zip(nodes, values):
                distance = np.hypot(px - node_x, py - node_y)
                nearest[distance < best] = value
                np.minimum(best, distance, out=best)
            num[fail] = nearest
        return np.clip(num, self.values_deg.min(), self.values_deg.max())


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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


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
    field B symmetrically.  Requires finite, distinct centers a finite
    distance apart, and distinct top exemplars.
    """
    ax, ay = float(center_a[0]), float(center_a[1])
    bx, by = float(center_b[0]), float(center_b[1])
    distance = math.hypot(bx - ax, by - ay)
    if not all(map(math.isfinite, (ax, ay, bx, by, distance))):
        raise FitError(
            f"centers ({ax!r}, {ay!r}) and ({bx!r}, {by!r}) must be finite "
            f"and a finite distance apart (distance {distance!r})"
        )
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

    def width(column: np.ndarray, far_index: int, field: str, far: str) -> float:
        ratio = column.max() / column[far_index]
        if not ratio > 1.0:
            label = f"mu_{field.lower()}"
            raise FitError(
                f"cannot fit field {field}: exemplar {far_index + 1} "
                f"({table.names[far_index]}) at center {far} has {label} = "
                f"{float(column[far_index])!r}, which ties the peak of {label}, "
                "so the field would not fall below its peak there"
            )
        return distance / math.sqrt(2.0 * math.log(ratio))

    field_a = GaussianField((ax, ay), width(mu_a, top_b, "A", "B"), float(mu_a.max()))
    field_b = GaussianField((bx, by), width(mu_b, top_a, "B", "A"), float(mu_b.max()))
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
    (0, or so small that its reciprocal overflows) raises ValidationError;
    a level radius past the float range (a huge sigma), a square (of d, a
    level radius) past it, or the sum r_a^2 - r_b^2 + d^2 that places an
    exemplar on meeting circles, raises FitError.
    """
    (ax, ay), (bx, by) = (map(float, field.center) for field in (field_a, field_b))
    d = math.hypot(bx - ax, by - ay)
    if d == 0.0:
        raise FitError("centers must be distinct")
    if not math.isfinite(d * d):
        raise FitError(f"center distance {d!r} squared leaves the float range")
    ux, uy = (bx - ax) / d, (by - ay) / d
    mu_a, mu_b, n = table.mu_a, table.mu_b, table.n
    top_a, top_b = int(mu_a.argmax()), int(mu_b.argmax())
    free = np.ones(n, dtype=bool)
    free[top_a] = free[top_b] = False
    # a pinned top exemplar takes fraction 1 here and its center below
    inverses = [1.0 / np.where(free, mu / mu.max(), 1.0) for mu in (mu_a, mu_b)]
    if (no_curve := ~np.isfinite(inverses).all(axis=0)).any():
        k = int(no_curve.argmax())
        label, mu = ("mu_a", mu_a) if not np.isfinite(inverses[0][k]) else ("mu_b", mu_b)
        raise ValidationError(
            f"exemplar {k + 1} ({table.names[k]}): {label} = {float(mu[k])!r} "
            "has no level curve"
        )
    # level radii sigma sqrt(2 log(1 / fraction)), by scalar libm log: np.log
    # differs from it in the last ulp on some inputs
    radius_a, radius_b = (
        field.sigma * np.sqrt(2.0 * np.array([*map(math.log, inverse.tolist())]))
        for field, inverse in zip((field_a, field_b), inverses)
    )
    if not (finite := np.isfinite([radius_a, radius_b])).all():
        k = int(finite.all(axis=0).argmin())
        field = "B" if finite[0, k] else "A"
        raise FitError(f"exemplar {k + 1} ({table.names[k]}): level radius of field "
                       f"{field} is not finite")

    # circles that meet: the chord's foot lies ``along`` the center line,
    # the chosen point ``lateral`` to its left (even index) or right (odd);
    # rows whose circles miss are overwritten below.  No value clamped here
    # or below is -0.0, the one input where np.maximum and np.minimum part
    # from Python's max and min.
    square_a = _squares(radius_a)
    along_2d = square_a - _squares(radius_b) + d * d  # r_a^2 - r_b^2 + d^2
    along = along_2d / (2.0 * d)
    lateral = np.sqrt(np.maximum(square_a - along * along, 0.0))
    lateral[1::2] *= -1.0
    x = ax + along * ux + lateral * uy
    y = ay + along * uy - lateral * ux
    residual = np.zeros(n)

    # circles that miss: the least violation among five points t on the
    # center line
    miss = free & ((d > radius_a + radius_b) | (d < np.abs(radius_a - radius_b)))
    # the squares are finite, so only their sum can leave the float range
    if (overflow := free & ~miss & np.isinf(along_2d)).any():
        k = int(overflow.argmax())
        raise FitError(
            f"exemplar {k + 1} ({table.names[k]}): r_a^2 - r_b^2 + d^2 of its "
            "level circles leaves the float range"
        )
    ra, rb = radius_a[miss], radius_b[miss]
    t = np.array([
        np.minimum(np.maximum((ra + d - rb) / 2.0, 0.0), d),  # between the centers
        (ra + d + rb) / 2.0,  # beyond center B
        np.minimum((d - ra - rb) / 2.0, 0.0),  # behind center A
        np.zeros(ra.size),
        np.full(ra.size, d),
    ])
    violation = _squares(np.abs(t) - ra) + _squares(np.abs(d - t) - rb)
    # as Python's min(key=(violation, t)): ties go to the smallest t
    best_v = violation.min(axis=0)
    best_t = np.where(violation == best_v, t, np.inf).min(axis=0)
    x[miss], y[miss], residual[miss] = ax + best_t * ux, ay + best_t * uy, best_v

    x[top_b], y[top_b] = bx, by
    x[top_a], y[top_a] = ax, ay
    return PlacementMap(table.names, x, y, residual)


def interpolate_phase(placements: PlacementMap, phi_deg) -> PhaseField:
    """Phase field through the exemplar locations with their |phi| values.

    mu_ab_k depends on cos phi_k only, and the sign of phi_k is the greedy
    sign pass's choice, so the field spreads |phi_k| in [0, 180] degrees,
    where the cosine is monotone: the landscape's cosine stays within
    [min cos phi_k, max cos phi_k] and no byte depends on the signs.  At
    row m, mu_ab_m also carries c_m, so an exactly placed m misses mu_ab_m
    by (1 - c_m) * sqrt(mu_a_m * mu_b_m) * |cos phi_m|.
    """
    return PhaseField(np.column_stack((placements.x, placements.y)), np.abs(phi_deg))


def default_window(
    placements: PlacementMap,
    field_a: GaussianField,
    field_b: GaussianField,
) -> tuple[float, float, float, float]:
    """Bounding box of the placements padded by DEFAULT_WINDOW_PADDING *
    max(sigma).  Raises FitError when the padding is below the float spacing
    of the placements, so that the padded window is empty."""
    x, y = placements.x, placements.y
    pad = DEFAULT_WINDOW_PADDING * max(field_a.sigma, field_b.sigma)
    x_min, x_max, y_min, y_max = map(float, (x.min(), x.max(), y.min(), y.max()))
    window = (x_min - pad, x_max + pad, y_min - pad, y_max + pad)
    if not (window[0] < window[1] and window[2] < window[3]):
        raise FitError(
            f"the placements span x [{x_min!r}, {x_max!r}] and y [{y_min!r}, "
            f"{y_max!r}]; padding them by {pad!r} leaves an empty window at "
            "float precision, so pass --window"
        )
    return window


def render_grids(
    field_a: GaussianField,
    field_b: GaussianField,
    phase: PhaseField,
    window: tuple[float, float, float, float],
    resolution: tuple[int, int] = (DEFAULT_RESOLUTION, DEFAULT_RESOLUTION),
) -> dict[str, RasterGrid]:
    """Render the four landscape grids over the window at pixel centers.

    Returns a_only (field A), b_only (field B), classical ((A+B)/2) and
    interference (classical + sqrt(A*B) cos phase).  a_only + b_only equals
    2*classical exactly, pixelwise; with a one-node phase field of 90
    degrees the interference grid equals the classical grid bit-for-bit.
    The window's bounds and its width and height must be finite.

    The phase field's rows are split here and nowhere else: into bands of
    max(1, min(4096 // W, H // threads)) rows, threads = max(1, min(usable
    CPUs, n*H*W // 2**20, H)), share s being bands s, s + threads, ... in
    tiles of 2**17 values: the caller folds share 0, a pool of threads - 1
    threads the rest.  No output byte depends on the split.
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
    grid_x, grid_y = np.meshgrid(xs, ys, sparse=True)

    # numpy lets go of the interpreter lock inside a band's larger calls, so
    # threads run at once; a share of fewer than 2**20 node-pixel pairs loses
    # more to handing the lock back and forth than it gains
    pairs = phase.values_deg.size * width * height
    threads = max(1, min(_usable_cpus(), pairs // 2**20, height))
    band_rows = max(1, min(_BAND_PIXELS // width, height // threads))
    bands = [slice(row, row + band_rows) for row in range(0, height, band_rows)]
    phi = np.empty((height, width))

    def fold(share):
        for band in bands[share::threads]:
            phi[band] = phase._fold(grid_x, grid_y[band], _RENDER_TILE_VALUES)

    if threads == 1:
        fold(0)
    else:
        # imported here: its 5 ms import would slow every command's start
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads - 1) as pool:
            done = pool.map(fold, range(1, threads))
            fold(0)
            list(done)  # raises the first exception of another thread
    # the phase first, so that its bands' tiles and the four planes below
    # are not held at once
    intensity_a, intensity_b = (f.intensity(grid_x, grid_y) for f in (field_a, field_b))
    classical = 0.5 * (intensity_a + intensity_b)
    modulation = np.sqrt(intensity_a * intensity_b)
    interference = classical + modulation * cos_deg(phi)
    planes = {"a_only": intensity_a, "b_only": intensity_b,
              "classical": classical, "interference": interference}
    return {name: RasterGrid(width, height, x_min, x_max, y_min, y_max, values)
            for name, values in planes.items()}


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
