"""Property tests: identities of the form calculus and the parser round trip.

Examples are derandomized and bounded, so the suite stays deterministic.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from brieskorn.engine import (  # noqa: E402
    problem_from_strings,
    sample_top_classes,
    tdt_action,
    wedge_tuples,
)
from brieskorn.forms import DifferentialForm, VectorField, df_wedge, differential  # noqa: E402
from brieskorn.poly import Polynomial, parse_polynomial  # noqa: E402

NVARS = 3
VARIABLES = ["x", "y", "z"]

bounded = settings(derandomize=True, deadline=None, max_examples=60, database=None)

coefficients = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5)
)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
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


@pytest.mark.parametrize("degree", range(NVARS + 1))
@bounded
@given(polynomials, st.data())
def test_df_wedge_equals_the_wedge_with_df(degree, f, data):
    # df_wedge works on exponents; the wedge product sorts the wedge tuples
    omega = data.draw(forms(degree))
    got = df_wedge(f, omega)
    assert got == differential(f).wedge(omega)
    assert got.degree == omega.degree + 1


@bounded
@given(polynomials, forms(NVARS))
def test_df_wedge_of_a_top_form_is_zero(f, omega):
    got = df_wedge(f, omega)
    assert got.is_zero and got.degree == NVARS + 1


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


@bounded
@given(
    st.lists(rationals, min_size=NVARS, max_size=NVARS),
    exponents,
    st.sampled_from([w for i in range(NVARS + 1) for w in wedge_tuples(NVARS, i)]),
    coefficients,
)
def test_euler_lie_derivative_multiplies_by_the_weighted_degree(weights, exp, wedge, coeff):
    # L_E omega = deg_w(omega) * omega for E = sum w_i x_i d_i and a
    # w-homogeneous omega = x^a dx_I, whose weight is counted here directly
    omega = DifferentialForm.monomial_form(NVARS, wedge, Polynomial.monomial(NVARS, exp, coeff))
    euler = VectorField([Polynomial.variable(NVARS, i) * w for i, w in enumerate(weights)])
    degree = sum(a * w for a, w in zip(exp, weights)) + sum(weights[k] for k in wedge)
    assert omega.lie_derivative(euler) == omega * degree


GERMS = [
    (["x", "y"], ["3", "2"], "x^2 + y^3"),
    (["x", "y"], ["3", "2"], "x^3 + x*y^3"),
    (["x", "y"], ["1", "1"], "x^2*y^2"),
    (["x", "y", "z"], ["1", "1", "-1"], "x^5/5 + y^5/5 + x^3*y^3*z/3"),
]


@bounded
@given(st.sampled_from(GERMS), st.integers(0, 10**6))
def test_tdt_acts_on_top_classes_by_the_residue_exponent(germ, seed):
    problem = problem_from_strings(*germ)
    for cls in sample_top_classes(problem, 2, seed):
        expected = cls.representative * (cls.weight / problem.degree - 1)
        assert tdt_action(cls).representative == expected
