"""Property tests: identities of the form calculus (d against its
partial-derivative reference, the keyed entries round trip), the parser
round trip, the Gauss-Manin data of an exponent multiset, the C{t}-basis
of Brieskorn-Pham germs against the scan of every slice and the closed-form
spectrum, the integer echelon accumulator against its Fraction reference
and the keyed columns of linalg.nullspace and solve_columns against their
RREF references.

Examples are derandomized and bounded, so the suite stays deterministic.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from fraction_echelon import FractionEchelon  # noqa: E402
from oracles import (  # noqa: E402
    ct_basis_over_every_slice,
    d_reference,
    exponent_key,
    function_form,
    lattice_congruences,
    lie_derivative,
    monomial_weight,
    monomials_of_weight,
    problem_from_strings,
    tdt_action,
    weighted_degree,
    weightless,
)
from test_linalg import combine, keyed, nullspace_by_probing, rows_of, solve_by_rref  # noqa: E402
from test_poly import check_keys  # noqa: E402

from brieskorn import engine, linalg  # noqa: E402
from brieskorn.engine import (  # noqa: E402
    CohomologyClass,
    GermProblem,
    check_p_prime,
    ct_basis,
    h_slice,
    sample_top_classes,
    torsion_order_s,
    torsion_order_t,
    wedge_tuples,
)
from brieskorn.forms import DifferentialForm, df_wedge, differential, monomial_images, partial_terms  # noqa: E402
from brieskorn.gm_model import can_surjective, psi_phi, serialize  # noqa: E402
from brieskorn.poly import (  # noqa: E402
    Cosets,
    Grading,
    Polynomial,
    format_rational,
    iter_monomials_of_weight,
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
@given(forms(), polynomials)
def test_d_matches_the_partial_derivative_reference(omega, f):
    # exterior_derivative and differential sum monomial_images; the reference
    # takes partial derivatives and sorts each wedge with its sign
    assert omega.exterior_derivative() == d_reference(omega)
    assert differential(f) == d_reference(function_form(f))


@bounded
@given(forms(), st.data())
def test_from_entries_inverts_entries_and_sums_equal_keys(omega, data):
    entries = omega.entries()
    assert DifferentialForm.from_entries(NVARS, omega.degree, entries) == omega
    # split every entry in two and add a cancelling pair: equal keys are summed, zeros dropped
    split = [(key, part) for key, c in entries for part in (c / 3, c - c / 3)]
    if entries:
        key = data.draw(st.sampled_from([key for key, _c in entries]))
        split += [(key, Fraction(5)), (key, Fraction(-5))]
    shuffled = data.draw(st.permutations(split))
    assert DifferentialForm.from_entries(NVARS, omega.degree, shuffled) == omega


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
    euler = tuple(Polynomial.variable(NVARS, i) * w for i, w in enumerate(weights))
    degree = sum(a * w for a, w in zip(exp, weights)) + sum(weights[k] for k in wedge)
    assert lie_derivative(omega, euler) == omega * degree


@bounded
@given(
    st.lists(rationals, min_size=NVARS, max_size=NVARS),
    forms(),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
    st.integers(0, 5),
)
def test_grading_agrees_with_the_fraction_reference(weights, omega, c, cap):
    # weights of each sign (and zero); W = L*w, so every weight is an
    # integer in units of 1/L, and Fractions appear only in the reference
    grading = Grading(weights)
    scale = grading.scale
    assert [Fraction(w, scale) for w in grading.weights] == weights
    box = [e for e in itertools.product(range(cap + 1), repeat=NVARS) if sum(e) <= cap]
    for exp in box:
        assert Fraction(grading.monomial(exp), scale) == monomial_weight(exp, weights)
    # a form's weight, None when it is not homogeneous; the terms of the
    # first term's weight make a homogeneous form
    assume(not omega.is_zero)
    got = grading.form(omega)
    assert (None if got is None else Fraction(got, scale)) == weighted_degree(omega, weights)

    def term_weight(wedge, exp):
        return monomial_weight(exp, weights) + sum(weights[k] for k in wedge)

    wedge0, poly0 = omega.items()[0]
    first = term_weight(wedge0, next(iter(poly0.terms)))
    part = {
        wedge: Polynomial(NVARS, {e: a for e, a in poly.terms.items() if term_weight(wedge, e) == first})
        for wedge, poly in omega.coeffs.items()
    }
    assert grading.form(DifferentialForm(NVARS, omega.degree, part)) == first * scale
    # scaled: L*c, or None off the lattice (1/L)Z; the enumeration at the
    # scaled target is the brute-force filter in its (lexicographic) order,
    # which is empty off the lattice
    for target in (c, monomial_weight((1,) * NVARS, weights)):
        brute = [e for e in box if monomial_weight(e, weights) == target]
        scaled = grading.scaled(target)
        if scaled is None:
            assert (target * scale).denominator > 1 and brute == []
        else:
            assert scaled == target * scale
            assert list(iter_monomials_of_weight(grading, scaled, cap)) == brute


@bounded
@given(st.data())
def test_the_coset_walk_is_the_key_filter(data):
    # one to three variables with weights of either sign or zero; the
    # vectors of weight 0 (M) of a drawn lattice or of the differences of a
    # drawn exponent set (free factors, m = 0, included); points of the box
    # and points whose cosets miss it; caps from -1: the walk of each
    # weight's cosets is the filter of the box by the congruences of M, in
    # lexicographic order, and the keys of M are its canonical points.  Each
    # walk runs twice on one Cosets, the second time from its kept walks,
    # and once on a fresh one
    nvars = data.draw(st.integers(1, NVARS))
    weights = data.draw(st.lists(rationals, min_size=nvars, max_size=nvars))
    vectors = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=nvars, max_size=nvars), max_size=nvars + 1))
    if data.draw(st.booleans()):
        vectors = [[a - b for a, b in zip(v, vectors[0])] for v in vectors[1:]]
    gens = weightless(weights, vectors)
    congruences = lattice_congruences(gens, nvars)
    cap = data.draw(st.integers(-1, 5))
    box = [e for e in itertools.product(range(max(cap, 0) + 1), repeat=nvars) if sum(e) <= cap]
    drawn_point = st.tuples(*[st.integers(-6, 6)] * nvars)
    points = data.draw(st.lists(st.sampled_from(box) if box else drawn_point))
    points += data.draw(st.lists(drawn_point, max_size=2))
    multiples = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)), max_size=3))
    moves = [[sum(x * g[k] for x, g in zip(xs, gens)) for k in range(nvars)] for xs in multiples]
    cosets = Cosets(Grading(weights).weights, gens)
    check_keys(cosets, congruences, points, moves)
    keys = {exponent_key(congruences, p) for p in points}
    for target in {monomial_weight(e, weights) for e in box} | {Fraction(1, 7)}:
        expected = [e for e in box if monomial_weight(e, weights) == target and exponent_key(congruences, e) in keys]
        walks = [monomials_of_weight(weights, target, cap, (gens, points), c) for c in (cosets, cosets, None)]
        assert walks == [expected] * 3


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
    grading = Grading(weights)
    degree = grading.monomial(first)
    assume(degree != 0)
    others = list(iter_monomials_of_weight(grading, degree, 6))
    chosen = {first, *draw(st.lists(st.sampled_from(others), max_size=3))} if others else {first}
    f = Polynomial(nvars, {e: draw(coefficients) for e in sorted(chosen)})
    return GermProblem(VARIABLES[:nvars], weights, f)


@bounded
@given(st.data())
def test_an_off_lattice_slice_is_empty(data):
    # a germ of integer weights divided by q, so L divides q, and a slice
    # weight c with L*c not an integer: no form has weight c
    problem = data.draw(quasi_homogeneous_germs())
    q = data.draw(st.integers(1, 4))
    problem = GermProblem(problem.variables, [w / q for w in problem.weights], problem.f)
    scale = problem.grading.scale
    m = data.draw(st.integers(2, 5))
    c = Fraction(data.draw(st.integers(-6, 6)) * m + 1, m * scale)
    assert problem.grading.scaled(c) is None
    i = data.draw(st.integers(0, problem.nvars))
    sl = h_slice(problem, i, c, cap=4)
    assert sl.classes == []


@bounded
@given(quasi_homogeneous_germs(), st.data())
def test_d_keeps_the_key_and_df_wedge_adds_the_key_of_f(problem, data):
    # key of x^e dx_W: the class of e + 1_W; [m] is the same for every
    # monomial m of f, and d(beta), df wedge beta are built by monomial_images
    nvars = problem.nvars
    monomials = list(problem.f.terms)
    assert len({problem.key((), m) for m in monomials}) == 1
    m = monomials[0]
    degree = data.draw(st.integers(0, nvars))
    items = data.draw(
        st.lists(st.tuples(st.sampled_from(wedge_tuples(nvars, degree)), st.tuples(*[st.integers(0, 4)] * nvars)), max_size=4)
    )
    d_images, df_images = monomial_images(nvars, items, partial_terms(problem.f))
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


@settings(
    derandomize=True, deadline=None, max_examples=25, database=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(quasi_homogeneous_germs().filter(lambda p: p.nvars > 1), st.data())
def test_theorem_exits_agree_with_the_slice_route(problem, data):
    # on an isolated germ with positive weights, check_p_prime and both
    # torsion searches return what their slice route (engine.h_free False)
    # returns, for sampled top classes and a zero class df^d(x^e dx_W)
    assume(engine.h_free(problem))
    n = problem.nvars
    classes = sample_top_classes(problem, 2, data.draw(st.integers(0, 10**6)), degree_bound=3)
    wedge = data.draw(st.sampled_from(wedge_tuples(n, n - 2)))
    exp = data.draw(st.tuples(*[st.integers(0, 2)] * n))
    zero = df_wedge(problem.f, DifferentialForm.monomial_form(n, wedge, Polynomial.monomial(n, exp)).exterior_derivative())
    if zero:
        classes.append(CohomologyClass(problem, n, zero))
    runs = [(torsion_order_t, cls, 3) for cls in classes] + [(torsion_order_s, cls, 2) for cls in classes]
    runs += [(check_p_prime, problem, i, 3) for i in range(2, n + 1)]
    theorem = [run(*args) for run, *args in runs]
    engine_h_free, engine.h_free = engine.h_free, lambda problem: False
    try:
        assert theorem == [run(*args) for run, *args in runs]
    finally:
        engine.h_free = engine_h_free


@st.composite
def brieskorn_pham_germs(draw):
    """x^a + y^b + z^c in one to three variables, exponents 1..5, integer
    weights lcm/a_i; an exponent 1 makes the germ smooth."""
    exps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=NVARS))
    n, lcm = len(exps), math.lcm(*exps)
    f = Polynomial(n, {tuple(a if j == i else 0 for j in range(n)): Fraction(1) for i, a in enumerate(exps)})
    return GermProblem(VARIABLES[:n], [lcm // a for a in exps], f), exps


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(brieskorn_pham_germs())
def test_brieskorn_pham_ct_basis_matches_the_scan_and_the_closed_form(germ):
    problem, exps = germ
    basis = ct_basis(problem)
    assert [cls.serialize() for cls in basis] == [cls.serialize() for cls in ct_basis_over_every_slice(problem)]
    # Steenbrink: the exponents are sum k_i/a_i - 1 over 1 <= k_i < a_i
    ks = itertools.product(*(range(1, a) for a in exps))
    closed = sorted(sum(Fraction(k, a) for k, a in zip(k_row, exps)) - 1 for k_row in ks)
    assert sorted(cls.tdt_eigenvalue() for cls in basis) == closed


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


# non-unit denominators and both signs, so leads are negative as often as not
nonzero_rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
sparse_vectors = st.dictionaries(st.integers(0, 7), nonzero_rationals, max_size=5)
# keyed like h_slice's vectors: monomial forms (W, e), a wedge and an exponent vector
form_vectors = st.dictionaries(
    st.tuples(st.sampled_from([(0,), (1,)]), st.tuples(st.integers(0, 1), st.integers(0, 2))),
    nonzero_rationals,
    max_size=5,
)


@st.composite
def vector_sequences(draw, vectors_of=sparse_vectors):
    """Sparse rational vectors, about half of them combinations of earlier ones."""
    vectors = []
    for _ in range(draw(st.integers(1, 10))):
        if vectors and draw(st.booleans()):
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            x, y = draw(rationals), draw(rationals)
            combo = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in a.keys() | b.keys()}
            vectors.append({c: v for c, v in combo.items() if v})
        else:
            vectors.append(draw(vectors_of))
    return vectors


@st.composite
def echelon_cases(draw):
    """A vector sequence and probes, all keyed by integers or all by forms."""
    vectors_of = draw(st.sampled_from([sparse_vectors, form_vectors]))
    return draw(vector_sequences(vectors_of)), draw(st.lists(vectors_of, max_size=4))


@bounded
@given(echelon_cases())
def test_echelon_agrees_with_the_fraction_reference(case):
    vectors, probes = case
    ech, ref = linalg.Echelon(), FractionEchelon()
    for v in vectors:
        assert ech.add(v) == ref.add(v)
        assert sorted(ech._rows) == ref.pivots  # one row per pivot, so the ranks agree too
        for lead, row in ech._rows.items():
            cols = [c for c, _n in row]
            assert cols[0] == lead and cols == sorted(set(cols))
            assert row[0][1] > 0 and math.gcd(*(n for _c, n in row)) == 1
        for probe in probes + vectors:
            residual = ref.reduce(probe)
            lead = residual[min(residual)] if residual else 1
            assert ech.reduce(probe) == {c: val / lead for c, val in residual.items()}


@st.composite
def keyed_systems(draw):
    """Columns {row: coeff} of nonzero coefficients and a target, a
    combination of the columns about half the time."""
    columns = draw(st.lists(sparse_vectors, max_size=8))
    if columns and draw(st.booleans()):
        target = combine(draw(st.lists(rationals, min_size=len(columns), max_size=len(columns))), columns)
    else:
        target = draw(sparse_vectors)
    return columns, target


@bounded
@given(keyed_systems(), st.lists(st.integers(-50, 50), min_size=8, max_size=8, unique=True), st.data())
def test_keyed_solves_ignore_key_names_and_entry_order(system, names, data):
    columns, target = system

    def relabelled(col):  # row k becomes the key (names[k], "eq"), entries shuffled
        return data.draw(st.permutations([((names[k], "eq"), c) for k, c in col.items()]))

    basis = linalg.nullspace(keyed(columns))
    assert [list(v.items()) for v in linalg.nullspace([relabelled(c) for c in columns])] == [
        list(v.items()) for v in basis
    ]
    solution = linalg.solve_columns(keyed(columns), target.items())
    assert linalg.solve_columns([relabelled(c) for c in columns], relabelled(target)) == solution


@bounded
@given(keyed_systems(), coefficients, st.booleans())
def test_a_target_key_that_no_column_holds_is_inconsistent(system, c, first):
    columns, target = system
    entries = list(target.items())
    entries.insert(0 if first else len(entries), ("absent", c))
    assert linalg.solve_columns(keyed(columns), entries) is None


@bounded
@given(keyed_systems())
def test_keyed_solves_agree_with_the_rref_references(system):
    columns, target = system
    assert linalg.nullspace(keyed(columns)) == nullspace_by_probing(rows_of(columns), len(columns))
    assert linalg.solve_columns(keyed(columns), target.items()) == solve_by_rref(columns, target)
