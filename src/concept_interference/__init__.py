"""Two-concept interference models: data handling, fitting, rendering.

The package fits a complex amplitude model to typicality tables (three
probability columns per exemplar: concept A, concept B, combined concept),
producing per-exemplar interference phases, signed magnitudes, a closing
coefficient, explicit state vectors and verification residuals, and renders
the corresponding two-Gaussian interference landscapes as raster grids.
"""

from .dataset import (
    ExemplarRecord,
    TypicalityTable,
    fruits_vegetables,
    parse_table,
    validate_and_normalize,
)
from .errors import (
    ConceptInterferenceError,
    DegeneracyError,
    FitError,
    InfeasibilityError,
    ParseError,
    ValidationError,
)
from .solver import (
    Classification,
    ProjectorLayout,
    assign_signs,
    build_state_vectors,
    classify_exemplars,
    compute_cm,
    compute_deviations,
    compute_lambda_magnitudes,
    compute_phases,
    measure_residuals,
    solve,
    verify_solution,
)
from .wavefield import (
    PhaseField,
    default_window,
    fit_gaussian_fields,
    grid_to_csv,
    grid_to_pgm,
    interpolate_phase,
    place_exemplars,
    placements_to_csv,
    render_grids,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "ConceptInterferenceError",
    "DegeneracyError",
    "ExemplarRecord",
    "FitError",
    "InfeasibilityError",
    "ParseError",
    "PhaseField",
    "ProjectorLayout",
    "TypicalityTable",
    "ValidationError",
    "assign_signs",
    "build_state_vectors",
    "classify_exemplars",
    "compute_cm",
    "compute_deviations",
    "compute_lambda_magnitudes",
    "compute_phases",
    "default_window",
    "fit_gaussian_fields",
    "fruits_vegetables",
    "grid_to_csv",
    "grid_to_pgm",
    "interpolate_phase",
    "measure_residuals",
    "parse_table",
    "place_exemplars",
    "placements_to_csv",
    "render_grids",
    "solve",
    "validate_and_normalize",
    "verify_solution",
]
