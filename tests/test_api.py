"""The package's public names.  A change to this list changes the public
API: say so in the change log and the README's "Library use" section."""

import importlib

import pytest

import concept_interference

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert sorted(concept_interference.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(concept_interference, name) is not None


# Names taken off the top level, and the module each is still imported from
# (the README's "where it went" column).
MOVED_NAMES = {
    "DEFAULT_SUM_TOLERANCE": "dataset",
    "FeasibilityReport": "solver",
    "InterferenceSolution": "solver",
    "VerificationReport": "solver",
    "GaussianField": "wavefield",
    "Placement": "wavefield",
    "PlacementMap": "wavefield",
    "RasterGrid": "wavefield",
}


@pytest.mark.parametrize("name, module", MOVED_NAMES.items())
def test_moved_name_resolves_from_its_module(name, module):
    assert not hasattr(concept_interference, name)
    module = importlib.import_module(f"concept_interference.{module}")
    assert getattr(module, name) is not None
