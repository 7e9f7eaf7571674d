"""Property tests: identities of the form calculus, the parser round trip and
the Gauss-Manin data of an exponent multiset.

Examples are derandomized and bounded, so the suite stays deterministic.
"""

from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from brieskorn.engine import (  # noqa: E402
    GermProblem,
    _monomial_images,
    problem_from_strings,
    sample_top_classes,
    tdt_action,
    wedge_tuples,
)
from brieskorn.forms import DifferentialForm, VectorField, df_wedge, differential  # noqa: E402
from brieskorn.gm_model import can_surjective, psi_phi, serialize  # noqa: E402
from brieskorn.poly import (  # noqa: E402
    Polynomial,
    format_rational,
    iter_monomials_of_weight,
    monomial_weight,
    parse_polynomial,
)

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


@st.composite
def quasi_homogeneous_germs(draw):
    """f with one to four monomials of one nonzero weight, in 1..3 variables
    with weights of either sign."""
    nvars = draw(st.integers(1, NVARS))
    weights = draw(st.lists(st.integers(-2, 4), min_size=nvars, max_size=nvars))
    first = draw(st.tuples(*[st.integers(0, 4)] * nvars))
    degree = monomial_weight(first, weights)
    assume(degree != 0)
    others = list(iter_monomials_of_weight(nvars, weights, degree, 6))
    chosen = {first, *draw(st.lists(st.sampled_from(others), max_size=3))} if others else {first}
    f = Polynomial(nvars, {e: draw(coefficients) for e in sorted(chosen)})
    return GermProblem(VARIABLES[:nvars], weights, f)


@bounded
@given(quasi_homogeneous_germs(), st.data())
def test_d_keeps_the_key_and_df_wedge_adds_the_key_of_f(problem, data):
    # key of x^e dx_W: the class of e + 1_W; [m] is the same for every
    # monomial m of f, and d(beta), df wedge beta are built by _monomial_images
    nvars = problem.nvars
    monomials = list(problem.f.terms)
    assert len({problem.key((), m) for m in monomials}) == 1
    m = monomials[0]
    degree = data.draw(st.integers(0, nvars))
    items = data.draw(
        st.lists(st.tuples(st.sampled_from(wedge_tuples(nvars, degree)), st.tuples(*[st.integers(0, 4)] * nvars)), max_size=4)
    )
    d_images, df_images = _monomial_images(problem.f, items)
    for (wedge, exp), d_entries, df_entries in zip(items, d_images, df_images):
        key = problem.key(wedge, exp)
        assert all(problem.key(*target) == key for target, _c in d_entries)
        shifted = problem.key(wedge, [a + b for a, b in zip(exp, m)])
        assert all(problem.key(*target) == shifted for target, _c in df_entries)


@bounded
@given(quasi_homogeneous_germs(), st.data())
def test_the_key_is_constant_on_cosets_of_the_exponent_difference_lattice(problem, data):
    nvars = problem.nvars
    monomials = list(problem.f.terms)
    v = data.draw(st.lists(st.integers(-6, 6), min_size=nvars, max_size=nvars))
    multiples = data.draw(st.lists(st.integers(-3, 3), min_size=len(monomials), max_size=len(monomials)))
    lattice_vector = [
        sum(x * (e[k] - monomials[0][k]) for x, e in zip(multiples, monomials)) for k in range(nvars)
    ]
    moved = [a + b for a, b in zip(v, lattice_vector)]
    assert problem.key((), moved) == problem.key((), v)


@bounded
@given(st.lists(st.one_of(st.just(Fraction(-1)), st.integers(-3, 3).map(Fraction), rationals), max_size=12))
def test_gm_data_are_functions_of_the_exponent_multiset(alphas):
    # the pieces as gm_model.from_brieskorn builds them from its exponents
    pieces = sorted(Counter(alphas).items())
    psi, phi = psi_phi(pieces)
    for window, inside in [(psi, lambda a: -1 < a <= 0), (phi, lambda a: -1 <= a < 0)]:
        window_alphas = [a for a, _d in window]
        assert window_alphas == sorted(set(window_alphas))
        assert sum(d for _a, d in window) == len(alphas)
        assert all(inside(a) and d > 0 for a, d in window)
        # each window exponent is some exponent of the multiset reduced mod 1
        assert all(any((a - b).denominator == 1 for b in alphas) for a in window_alphas)
    for piece, (a, d) in zip(serialize(pieces), pieces, strict=True):
        assert (piece["alpha"], piece["dim"]) == (format_rational(a), d)
        assert len(piece["nilpotent"]) == d and all(row == ["0"] * d for row in piece["nilpotent"])
    assert can_surjective(pieces) == (Fraction(-1) not in alphas)
