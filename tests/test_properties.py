"""Property tests: identities of the form calculus and the parser round trip.

Examples are derandomized and bounded, so the suite stays deterministic.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from brieskorn.engine import wedge_tuples  # noqa: E402
from brieskorn.forms import DifferentialForm, df_wedge  # noqa: E402
from brieskorn.poly import Polynomial, parse_polynomial  # noqa: E402

NVARS = 3
VARIABLES = ["x", "y", "z"]

bounded = settings(derandomize=True, deadline=None, max_examples=60, database=None)

coefficients = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5)
)
exponents = st.tuples(*[st.integers(0, 3)] * NVARS)
polynomials = st.dictionaries(exponents, coefficients, max_size=4).map(
    lambda terms: Polynomial(NVARS, terms)
)


@st.composite
def forms(draw, degree=None):
    if degree is None:
        degree = draw(st.integers(0, NVARS))
    wedges = wedge_tuples(NVARS, degree)
    chosen = draw(st.lists(st.sampled_from(wedges), max_size=3, unique=True))
    return DifferentialForm(NVARS, degree, {w: draw(polynomials) for w in chosen})


@bounded
@given(forms())
def test_d_squared_is_zero(omega):
    assert omega.exterior_derivative().exterior_derivative().is_zero


@bounded
@given(polynomials, forms())
def test_df_wedge_twice_is_zero(f, omega):
    assert df_wedge(f, df_wedge(f, omega)).is_zero


@bounded
@given(forms(), forms())
def test_wedge_is_graded_commutative(alpha, beta):
    sign = (-1) ** (alpha.degree * beta.degree)
    assert alpha.wedge(beta) == beta.wedge(alpha) * sign


@bounded
@given(polynomials, st.permutations(["a", "b2", "c_"]))
def test_serialize_then_parse_is_the_identity(p, names):
    for variables in (VARIABLES, names):
        assert parse_polynomial(p.serialize(variables), variables) == p
