"""Construction of the interference model from a typicality table.

Given a validated table (three unit-sum columns mu_a, mu_b, mu_ab), the
model represents the two concepts as orthogonal unit vectors |A>, |B> in
C^(n+1) such that measuring the normalized superposition (|A>+|B>)/sqrt(2)
reproduces the mu_ab column exactly.  The construction runs in stages:

1. deviations       d_k = mu_ab_k - (mu_a_k + mu_b_k)/2, the part of the
                    combined probability that the classical average misses;
2. magnitudes       |lambda_k| = sqrt(mu_a_k * mu_b_k - d_k^2), the size of
                    exemplar k's imaginary contribution to <A|B>.  A
                    radicand below the rounding slack means the data cannot
                    be modeled and is reported, not raised per-row;
3. sign assignment  a greedy pass over the magnitudes in decreasing order
                    (ties by index): the largest gets "+" and defines the
                    distinguished index m; each later entry gets "-"
                    whenever the running sum stays >= 0 after subtraction,
                    else "+".  The final running sum is in [0, |lambda_m|];
4. closing          c_m = sqrt((sum of off-m lambdas)^2 + d_m^2) /
                    sqrt(mu_a_m * mu_b_m), the single sub-unit coefficient
                    on exemplar m that cancels the leftover imaginary sum
                    and makes <A|B> = 0 exactly;
5. phases           phi_k = atan2(lambda_k, d_k), the argument of
                    exemplar k's interference term (d_k, lambda_k) =
                    c_k sqrt(mu_a_k mu_b_k) (cos phi_k, sin phi_k), and
                    phi_m = atan2(|sum of the off-m lambdas|, d_m);
6. vectors          |A> real with coordinates sqrt(mu_a_k) and 0 in the
                    extra plane coordinate; |B> with coordinates
                    e^(i phi_k) sqrt(mu_b_k), scaled by c_m at m, and
                    sqrt(mu_b_m (1 - c_m^2)) in the plane coordinate; the
                    report's beta_deg column is phi (beta_m = |phi_m| = phi_m);
7. residuals        |<A|B>|, both norm errors, and the worst gap between
                    mu_ab and the superposed state (:class:`ProjectorLayout`).

Angles cross this module's boundary in degrees; trigonometry is done in
radians internally.  The whole pipeline is a pure function of the table:
two runs produce bit-identical results.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dataset import TypicalityTable
from .errors import (
    DegeneracyError,
    InfeasibilityError,
    ValidationError,
)

# A row whose phase cosine cos phi_k is within this of zero is classical.
CLASSICAL_TOLERANCE = 1e-12

# A deviation within k * eps * a of 0, a = (mu_a + mu_b) / 2, is rounding of
# the classical average and reads as 0, a phase of exactly 90 degrees: a row
# entered as exactly classical lands within 1.5 eps * a of 0 whatever its
# marginals, which can put its cos phi far past CLASSICAL_TOLERANCE.  k = 4.
_DEVIATION_SLACK = 4 * float(np.finfo(np.float64).eps)

# A magnitude radicand within k * eps * s of 0, either side, reads as 0: the
# row sits at a phase of exactly 0 or 180 degrees.  The deviation carries the
# rounding of the classical average, so s = sqrt(mu_a * mu_b) * (mu_a + mu_b)
# / 2, which is mu_a * mu_b when the marginals are equal; rows built at
# d = +-sqrt(mu_a * mu_b) land within 3 eps * s of 0.  k = 8.
_RADICAND_SLACK = 8 * float(np.finfo(np.float64).eps)

# Rounding slack: c_m above 1 by more than this is an error, within it a clamp.
_CM_OVERSHOOT_SLACK = 1e-9


class Classification(enum.Enum):
    WEAKENING = "Weakening"
    STRENGTHENING = "Strengthening"
    CLASSICAL = "Classical"


# Indexed by the sign of cos phi: 0, +1, and -1 (the last entry).
_LABEL_BY_SIGN = np.array(
    [Classification.CLASSICAL, Classification.STRENGTHENING, Classification.WEAKENING],
    dtype=object,
)


@dataclass(frozen=True)
class FeasibilityReport:
    """Why (or that) the model is constructible for a table.

    ``infeasible_exemplars`` lists (index, radicand) pairs where the
    magnitude radicand mu_a*mu_b - deviation^2 fell below the rounding
    slack; ``cm_violation`` carries a closing coefficient that exceeded 1.
    """

    infeasible_exemplars: tuple[tuple[int, float], ...] = ()
    cm_violation: float | None = None


@dataclass(frozen=True)
class ProjectorLayout:
    """Structural layout of the measurement projectors on C^(n+1).

    Projector k is the ray along canonical coordinate k for k != m and the
    plane spanned by coordinates {m, n+1} for k == m; together they resolve
    the identity.
    """

    n: int
    m: int

    def __post_init__(self):
        m, n = self.m, self.n
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        integer = isinstance(m, (int, np.integer)) and not isinstance(m, bool)
        if not (integer and 1 <= m <= n):
            raise ValidationError(f"m must be an integer in 1..{n}, got {m!r}")


@dataclass(frozen=True)
class VerificationReport:
    """Numerical residuals of a constructed model."""

    orthogonality_modulus: float
    norm_a_error: float
    norm_b_error: float
    max_reconstruction_error: float


@dataclass(frozen=True, eq=False)
class InterferenceSolution:
    """Complete fitted model for one table."""

    deviations: np.ndarray
    lambdas: np.ndarray
    phi_deg: np.ndarray
    m: int
    c_m: float
    vector_a: np.ndarray
    vector_b: np.ndarray
    residuals: VerificationReport


def compute_deviations(table: TypicalityTable) -> np.ndarray:
    """Per-exemplar gap between mu_ab and the classical average, 0 within
    rounding of that average."""
    average = 0.5 * (table.mu_a + table.mu_b)
    deviations = table.mu_ab - average
    deviations[np.abs(deviations) <= _DEVIATION_SLACK * average] = 0.0
    return deviations


def compute_lambda_magnitudes(
    table: TypicalityTable,
) -> tuple[np.ndarray, FeasibilityReport]:
    """Unsigned interference magnitudes plus a feasibility diagnosis.

    A radicand within the rounding slack of 0 gives magnitude 0.  Infeasible
    rows (a radicand below that) get NaN in the magnitude array and an
    (index, radicand) entry in the report; nothing is raised.
    """
    deviations = compute_deviations(table)
    products = table.mu_a * table.mu_b
    radicands = products - deviations * deviations
    slack = _RADICAND_SLACK * np.sqrt(products) * (0.5 * (table.mu_a + table.mu_b))
    feasible = radicands >= -slack
    magnitudes = np.where(radicands > slack, np.sqrt(np.fmax(radicands, 0.0)), 0.0)
    magnitudes[~feasible] = np.nan
    infeasible = tuple(
        (int(k) + 1, float(radicands[k])) for k in np.flatnonzero(~feasible)
    )
    return magnitudes, FeasibilityReport(infeasible_exemplars=infeasible)


def assign_signs(magnitudes) -> tuple[np.ndarray, int]:
    """Signs (+1/-1 per entry, table order) and the distinguished index m of
    the greedy pass (stage 3).  It visits the entries in decreasing order,
    ties by ascending index: ``order = np.argsort(-magnitudes, kind="stable")``;
    its running sums are ``np.cumsum((signs * magnitudes)[order])``."""
    mags = np.asarray(magnitudes, dtype=float)
    if mags.ndim != 1 or mags.size < 2:
        raise ValidationError(
            f"need a 1-D list of at least 2 magnitudes, got shape {mags.shape}"
        )
    if not np.all(np.isfinite(mags)) or np.any(mags < 0.0):
        raise ValidationError("magnitudes must be finite and nonnegative")
    order = np.argsort(-mags, kind="stable").tolist()
    values = mags.tolist()
    signs = np.ones(mags.size, dtype=int)
    running = values[order[0]]
    for i in order[1:]:
        if running - values[i] >= 0.0:
            signs[i] = -1
            running -= values[i]
        else:
            running += values[i]
    return signs, order[0] + 1


def _off_m_sum(lambdas: np.ndarray, m: int) -> float:
    """The imaginary sum the closing coefficient on m cancels."""
    return math.fsum(np.delete(lambdas, m - 1).tolist())


def _checked_stage_inputs(table: TypicalityTable, values, name: str, m: int, c_m=1.0):
    """values as floats: one finite value per exemplar, m in 1..n, c_m in (0, 1]."""
    values = np.asarray(values, dtype=float)
    if values.shape != (table.n,) or not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} must be finite, one per exemplar")
    ProjectorLayout(table.n, m)  # the one check of m
    if not 0.0 < c_m <= 1.0:
        raise ValidationError(f"c_m must be in (0, 1], got {c_m!r}")
    return values


def compute_cm(table: TypicalityTable, lambdas, m: int) -> float:
    """Closing coefficient on exemplar m that zeroes the imaginary sum.

    Raises InfeasibilityError when the coefficient exceeds 1 beyond
    rounding slack (the model cannot close) and DegeneracyError when it is
    exactly 0 (classically additive data: every deviation vanishes and the
    off-m lambdas cancel, so no interference model is needed).
    """
    lambdas = _checked_stage_inputs(table, lambdas, "lambdas", m)
    off_sum = _off_m_sum(lambdas, m)
    deviation_m = float(compute_deviations(table)[m - 1])
    product_m = float(table.mu_a[m - 1] * table.mu_b[m - 1])
    if product_m <= 0.0:
        raise DegeneracyError(
            f"exemplar {m} ({table.names[m - 1]}) has zero marginal "
            "probability product"
        )
    c_m = math.sqrt((off_sum * off_sum + deviation_m * deviation_m) / product_m)
    if c_m > 1.0 + _CM_OVERSHOOT_SLACK:
        raise InfeasibilityError(
            f"closing coefficient c_m = {c_m!r} exceeds 1: the signed "
            "magnitudes cannot be cancelled on exemplar "
            f"{m} ({table.names[m - 1]})",
            FeasibilityReport(cm_violation=c_m),
        )
    if c_m > 1.0:
        c_m = 1.0
    if c_m == 0.0:
        raise DegeneracyError(
            "classically additive data: all deviations are zero and the "
            "off-m magnitudes cancel exactly, so the closing coefficient "
            "vanishes and no interference model applies"
        )
    return c_m


def compute_phases(
    table: TypicalityTable, lambdas, m: int, c_m: float
) -> tuple[np.ndarray, np.ndarray]:
    """Interference phases phi_k in degrees, returned twice as one array.

    Each phase is the argument of its row's interference term (d_k,
    lambda_k) = c_k sqrt(mu_a_k mu_b_k) (cos phi_k, sin phi_k): phi_k =
    atan2(lambda_k, d_k) for k != m, and phi_m = atan2(|s|, d_m), where s
    is the off-m lambda sum that exemplar m's term cancels (its scale c_m
    sqrt(mu_a_m mu_b_m) drops out).  A zero lambda, or a zero s for m, puts
    its row on the boundary: a phase of exactly 0 or 180 degrees.  Both
    items are the same array, kept as a pair for callers that unpack two.
    """
    lambdas = _checked_stage_inputs(table, lambdas, "lambdas", m, c_m)
    # + 0.0 turns a -0.0 lambda into +0.0, so a boundary row at d < 0 reads
    # +180 degrees, not -180
    sines = lambdas + 0.0
    sines[m - 1] = abs(_off_m_sum(lambdas, m))
    # scalar libm atan2: np.arctan2 differs from it in the last ulp on some inputs
    phi = np.array([
        math.degrees(math.atan2(y, x))
        for y, x in zip(sines.tolist(), compute_deviations(table).tolist())
    ])
    return phi, phi


def build_state_vectors(
    table: TypicalityTable, m: int, c_m: float, phi_deg
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit concept vectors in C^(n+1).

    vector_a is real: sqrt(mu_a_k) per exemplar, 0 in the plane coordinate.
    vector_b carries e^(i phi_k) sqrt(mu_b_k) per exemplar, scaled by c_m
    at m, and the real remainder sqrt(mu_b_m (1 - c_m^2)) in the plane
    coordinate.  Both are unit vectors by construction.
    """
    phi = _checked_stage_inputs(table, phi_deg, "phi_deg", m, c_m)
    n = table.n
    vector_a = np.zeros(n + 1, dtype=np.complex128)
    vector_a[:n] = np.sqrt(table.mu_a)
    vector_b = np.zeros(n + 1, dtype=np.complex128)
    vector_b[:n] = np.sqrt(table.mu_b) * np.exp(1j * np.radians(phi))
    vector_b[m - 1] *= c_m
    vector_b[n] = math.sqrt(max(0.0, float(table.mu_b[m - 1]) * (1.0 - c_m * c_m)))
    return vector_a, vector_b


@np.errstate(over="ignore", invalid="ignore")
def measure_residuals(
    vector_a: np.ndarray,
    vector_b: np.ndarray,
    table: TypicalityTable,
    layout: ProjectorLayout,
) -> VerificationReport:
    """Residuals of a candidate vector pair against a table.

    Computes the orthogonality modulus |<A|B>|, both unit-norm errors, and
    the worst gap between mu_ab and the superposed-state projection; used
    both when a model is built and to re-check serialized models.  Raises
    ValidationError unless the layout is for the table's n exemplars and
    both vectors hold n + 1 coordinates.  A norm outside the normal float
    range reads an error near 1, inf or NaN.
    """
    if (n := table.n) != layout.n:
        raise ValidationError(f"layout is for {layout.n} exemplars, table has {n}")
    vector_a = np.asarray(vector_a, dtype=np.complex128)
    vector_b = np.asarray(vector_b, dtype=np.complex128)
    for vector in (vector_a, vector_b):
        if vector.shape != (n + 1,):
            raise ValidationError(
                f"state vector has shape {vector.shape}, layout needs "
                f"{n + 1} coordinates"
            )
    superposed = vector_a + vector_b
    re, im = superposed.real, superposed.imag
    probabilities = re * re + im * im
    probabilities[layout.m - 1] += probabilities[n]  # projector m spans {m, n+1}
    max_reconstruction = np.max(np.abs(0.5 * probabilities[:n] - table.mu_ab))
    return VerificationReport(
        orthogonality_modulus=abs(complex(np.vdot(vector_a, vector_b))),
        norm_a_error=float(abs(np.linalg.norm(vector_a) - 1.0)),
        norm_b_error=float(abs(np.linalg.norm(vector_b) - 1.0)),
        max_reconstruction_error=float(max_reconstruction),
    )


def verify_solution(
    solution: InterferenceSolution, table: TypicalityTable
) -> VerificationReport:
    """Recompute the model residuals from the vectors alone.

    On an exactly-normalized table every residual is < 1e-9; the report is
    sensitive to corruption (a 10-degree phase perturbation shows up as an
    orthogonality modulus above 1e-4).
    """
    layout = ProjectorLayout(table.n, solution.m)
    return measure_residuals(solution.vector_a, solution.vector_b, table, layout)


def classify_exemplars(
    solution: InterferenceSolution,
) -> list[tuple[int, Classification]]:
    """Per-exemplar interference effect, keyed by 1-based index.

    Classical when |cos phi_k| <= 1e-12, i.e. |d_k| <= 1e-12 c_k sqrt(mu_a_k
    mu_b_k), at any scale of the marginals and at k = m too; otherwise
    Weakening for cos phi_k < 0 (deviation < 0), else Strengthening.  A
    deviation within rounding of the classical average is 0 (see
    compute_deviations), so such a row is Classical.
    """
    cos_phi, tolerance = np.cos(np.radians(solution.phi_deg)), CLASSICAL_TOLERANCE
    sign = (cos_phi > tolerance).astype(np.intp) - (cos_phi < -tolerance)
    return list(enumerate(_LABEL_BY_SIGN[sign].tolist(), start=1))


def solve(table: TypicalityTable) -> InterferenceSolution:
    """Run the full pipeline on a validated, normalized table.

    Raises InfeasibilityError (carrying the FeasibilityReport) when any
    magnitude radicand is negative or the closing coefficient exceeds 1,
    and DegeneracyError for classically additive data.  Never returns a
    partial model.
    """
    deviations = compute_deviations(table)
    magnitudes, feasibility = compute_lambda_magnitudes(table)
    if feasibility.infeasible_exemplars:
        rows = ", ".join(
            f"{index} ({table.names[index - 1]})"
            for index, _ in feasibility.infeasible_exemplars
        )
        raise InfeasibilityError(
            "interference magnitude is undefined (negative radicand) for "
            f"exemplar(s) {rows}: the deviation exceeds the geometric mean "
            "of the marginals",
            feasibility,
        )
    signs, m = assign_signs(magnitudes)
    lambdas = signs * magnitudes
    c_m = compute_cm(table, lambdas, m)
    phi_deg, _ = compute_phases(table, lambdas, m, c_m)
    vector_a, vector_b = build_state_vectors(table, m, c_m, phi_deg)
    residuals = measure_residuals(
        vector_a, vector_b, table, ProjectorLayout(table.n, m)
    )
    return InterferenceSolution(
        deviations=deviations,
        lambdas=lambdas,
        phi_deg=phi_deg,
        m=m,
        c_m=c_m,
        vector_a=vector_a,
        vector_b=vector_b,
        residuals=residuals,
    )
