"""The Hilbert-space kernel of the solver: the projector layout and the
orthogonality and projections of solved vectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concept_interference import (
    DimensionError,
    ProjectorLayout,
    ValidationError,
    measure_residuals,
)

from conftest import make_table, reference_probability

_ONE_ROW = make_table([1.0], [1.0], [1.0])
_THREE_ROWS = make_table([0.5, 0.25, 0.25], [0.5, 0.25, 0.25], [0.5, 0.25, 0.25])


class TestInnerProduct:
    # measure_residuals reports the modulus of <A|B> as orthogonality_modulus
    def test_orthogonal_canonical_vectors(self):
        report = measure_residuals([1, 0], [0, 1], _ONE_ROW, ProjectorLayout(n=1, m=1))
        assert report.orthogonality_modulus == 0.0

    def test_unit_self_inner_product(self):
        u = np.array([0.5, 0.5j, 0.5, -0.5j])
        report = measure_residuals(u, u, _THREE_ROWS, ProjectorLayout(n=3, m=1))
        assert report.orthogonality_modulus == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            measure_residuals([1, 0], [1, 0, 0], _ONE_ROW, ProjectorLayout(n=1, m=1))

    def test_reference_vectors_orthogonal(self, reference_solution):
        value = np.vdot(reference_solution.vector_a, reference_solution.vector_b)
        assert abs(value) < 1e-9


class TestProjectProbability:
    def test_reference_first_coordinate(self, reference_solution):
        layout = ProjectorLayout(n=24, m=reference_solution.m)
        probability = reference_probability(
            layout, 1, reference_solution.vector_a
        )
        assert probability == pytest.approx(0.0359, abs=1e-4)
        assert abs(reference_solution.vector_a[0]) == pytest.approx(0.1895, abs=1e-3)

    def test_plane_projector_recovers_marginal(self, reference_solution):
        # at k = m the ray and the plane coordinate together restore mu_b_m
        layout = ProjectorLayout(n=24, m=reference_solution.m)
        probability = reference_probability(
            layout, reference_solution.m, reference_solution.vector_b
        )
        assert probability == pytest.approx(0.0679, abs=1e-4)

    def test_canonical_basis_vector(self):
        # |A> = e_1, |B> = 0: the superposition is measured as outcome 1 only
        u = np.zeros(4, dtype=complex)
        u[0] = 1.0
        table = make_table([0.5, 0.25, 0.25], [0.5, 0.25, 0.25], [0.5, 0.0, 0.0])
        report = measure_residuals(u, np.zeros(4), table, ProjectorLayout(n=3, m=2))
        assert report.max_reconstruction_error == 0.0

    def test_plane_coordinate_counts_toward_m(self):
        u = np.zeros(4, dtype=complex)
        u[3] = 1.0
        table = make_table([0.5, 0.25, 0.25], [0.5, 0.25, 0.25], [0.0, 0.5, 0.0])
        for m, error in ((2, 0.0), (1, 0.5)):
            report = measure_residuals(u, np.zeros(4), table, ProjectorLayout(n=3, m=m))
            assert report.max_reconstruction_error == error

    def test_dimension_mismatch(self):
        good = np.zeros(4, dtype=complex)
        layout = ProjectorLayout(n=3, m=1)
        for shape in [(3,), (5,), (4, 1), ()]:
            with pytest.raises(DimensionError):
                measure_residuals(np.zeros(shape), good, _THREE_ROWS, layout)
            with pytest.raises(DimensionError):
                measure_residuals(good, np.zeros(shape), _THREE_ROWS, layout)

    def test_bad_layout(self):
        with pytest.raises(ValidationError):
            ProjectorLayout(n=3, m=4)
        with pytest.raises(ValidationError):
            ProjectorLayout(n=0, m=1)


class TestSuperpose:
    def test_reference_superposition_reproduces_combination(
        self, reference_table, reference_solution
    ):
        layout = ProjectorLayout(n=24, m=reference_solution.m)
        superposed = (
            reference_solution.vector_a + reference_solution.vector_b
        ) / math.sqrt(2.0)
        for k in range(1, 25):
            probability = reference_probability(layout, k, superposed)
            assert probability == pytest.approx(
                reference_table.mu_ab[k - 1], abs=1e-9
            )


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_component = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def complex_vectors(draw, length):
    reals = draw(st.lists(_component, min_size=length, max_size=length))
    imags = draw(st.lists(_component, min_size=length, max_size=length))
    return np.array([complex(r, i) for r, i in zip(reals, imags)])


@st.composite
def vector_pairs(draw):
    length = draw(st.integers(min_value=1, max_value=8))
    return (
        draw(complex_vectors(length)),
        draw(complex_vectors(length)),
    )


@given(vector_pairs())
@settings(max_examples=100)
def test_hermitian_symmetry(pair):
    # |<u|v>| = |<v|u>|: the orthogonality check does not depend on the order
    u, v = (np.append(w, 0.0) for w in pair)
    n = len(u) - 1
    table = make_table([1.0 / n] * n, [1.0 / n] * n, [1.0 / n] * n)
    layout = ProjectorLayout(n=n, m=1)
    forward = measure_residuals(u, v, table, layout).orthogonality_modulus
    backward = measure_residuals(v, u, table, layout).orthogonality_modulus
    assert forward == pytest.approx(backward, abs=1e-9)


@given(vector_pairs(), st.integers(min_value=1, max_value=8))
@settings(max_examples=100)
def test_projector_completeness(pair, m_seed):
    u = pair[0]
    n = len(u)
    extended = np.append(u, complex(0.5, -0.25))
    layout = ProjectorLayout(n=n, m=1 + m_seed % n)
    total = sum(
        reference_probability(layout, k, extended) for k in range(1, n + 1)
    )
    assert total == pytest.approx(np.linalg.norm(extended) ** 2, abs=1e-9)
