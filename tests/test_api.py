"""The package's public names.  A change to this list changes the public
API: say so in the change log and the README's "Library use" section."""

import concept_interference

PUBLIC_NAMES = [
    "Classification",
    "ConceptInterferenceError",
    "DEFAULT_SUM_TOLERANCE",
    "DegeneracyError",
    "ExemplarRecord",
    "FeasibilityReport",
    "FitError",
    "GaussianField",
    "InfeasibilityError",
    "InterferenceSolution",
    "ParseError",
    "PhaseField",
    "Placement",
    "PlacementMap",
    "ProjectorLayout",
    "RasterGrid",
    "TypicalityTable",
    "ValidationError",
    "VerificationReport",
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


def test_public_names_are_pinned():
    assert sorted(concept_interference.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(concept_interference, name) is not None
