"""Render the two-Gaussian interference landscape of the bundled dataset.

Writes the four raster grids (single concepts, classical average,
interference pattern) as CSV + PGM into ./landscape_out, and a PNG overview
when matplotlib is available.
"""

from pathlib import Path

from concept_interference import (
    default_window,
    fit_gaussian_fields,
    fruits_vegetables,
    grid_to_csv,
    grid_to_pgm,
    interpolate_phase,
    place_exemplars,
    placements_to_csv,
    render_grids,
    solve,
    validate_and_normalize,
)

out_dir = Path("landscape_out")
out_dir.mkdir(exist_ok=True)

table = validate_and_normalize(fruits_vegetables())
solution = solve(table)

# concept A peaks where its top exemplar (Apple) sits, concept B at
# Broccoli's spot; every other exemplar lands where both level curves match
# its two probabilities
field_a, field_b = fit_gaussian_fields(table, center_a=(0, 0), center_b=(10, 4))
print(f"field A: center {field_a.center}, sigma {field_a.sigma:.3f}")
print(f"field B: center {field_b.center}, sigma {field_b.sigma:.3f}")

placements = place_exemplars(table, field_a, field_b)
fallbacks = int((placements.residual > 0).sum())
print(f"placements: {len(placements.names)} exemplars, "
      f"{fallbacks} off their exact level curves")

phase = interpolate_phase(placements, solution.phi_deg)
window = default_window(placements, field_a, field_b)
grids = render_grids(field_a, field_b, phase, window, (400, 400))

for name, grid in grids.items():
    (out_dir / f"{name}.csv").write_text(grid_to_csv(grid))
    (out_dir / f"{name}.pgm").write_bytes(grid_to_pgm(grid))
(out_dir / "placements.csv").write_text(placements_to_csv(placements))
print(f"wrote rasters and placements to {out_dir}/")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the PNG overview")
else:
    extent = (window[0], window[1], window[2], window[3])
    fig, axes = plt.subplots(2, 2, figsize=(11, 9))
    titles = ["a_only", "b_only", "classical", "interference"]
    for ax, name in zip(axes.flat, titles):
        ax.imshow(grids[name].values, extent=extent, cmap="inferno")
        ax.set_title(name)
        ax.scatter(placements.x, placements.y, s=6, c="cyan")
    fig.tight_layout()
    fig.savefig(out_dir / "overview.png", dpi=110)
    print(f"wrote {out_dir / 'overview.png'}")
