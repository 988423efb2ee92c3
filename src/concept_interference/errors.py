"""Semantic exception types shared across the package."""

from __future__ import annotations


class ConceptInterferenceError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ConceptInterferenceError, ValueError):
    """Malformed CSV input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ValidationError(ConceptInterferenceError, ValueError):
    """Input violates a data contract (sums, ranges, duplicates, shapes).
    ``position`` is the 1-based table row of a one-row problem, else None."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class DegeneracyError(ValidationError):
    """Data is degenerate for the model (zero marginal, classical additivity)."""


class InfeasibilityError(ConceptInterferenceError):
    """The interference model is not constructible for this data.

    ``report`` holds the structured feasibility diagnosis when available.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class FitError(ConceptInterferenceError, ValueError):
    """Gaussian field fitting preconditions are violated."""
