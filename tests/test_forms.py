"""Differential forms: d, wedge, df-wedge; the oracles' contraction and Lie derivative."""

import random
from fractions import Fraction

from oracles import apply, contract, function_form, lie_derivative, weighted_degree

from brieskorn.forms import (
    DifferentialForm,
    df_wedge,
    differential,
    form_from_payload,
    volume_form,
)
from brieskorn.poly import Grading, Polynomial, parse_polynomial, weight_vector

XYZ = ["x", "y", "z"]


def P(text):
    return parse_polynomial(text, XYZ)


def BARLET():
    return P("x^5/5 + y^5/5 + x^3*y^3*z/3")


def G1():
    return DifferentialForm(3, 2, {(1, 2): P("x*y^3"), (0, 1): P("-3*(x^2+y^3*z)")})


def random_form(rng, degree, nterms=3, maxdeg=3):
    import itertools

    wedges = list(itertools.combinations(range(3), degree))
    coeffs = {}
    for w in wedges:
        terms = {}
        for _ in range(rng.randint(0, nterms)):
            exp = tuple(rng.randint(0, maxdeg) for _ in range(3))
            terms[exp] = Fraction(rng.randint(-4, 4))
        p = Polynomial(3, terms)
        if p:
            coeffs[w] = p
    return DifferentialForm(3, degree, coeffs)


def random_field(rng, maxdeg=2):
    comps = []
    for _ in range(3):
        terms = {}
        for _ in range(rng.randint(0, 2)):
            exp = tuple(rng.randint(0, maxdeg) for _ in range(3))
            terms[exp] = Fraction(rng.randint(-3, 3))
        comps.append(Polynomial(3, terms))
    return tuple(comps)


class TestExteriorDerivative:
    def test_x_dy(self):
        form = DifferentialForm(3, 1, {(1,): P("x")})
        assert form.exterior_derivative() == DifferentialForm(3, 2, {(0, 1): P("1")})

    def test_d_of_df_vanishes(self):
        assert differential(BARLET()).exterior_derivative().is_zero

    def test_first_kernel_generator(self):
        # hand computation: d(g1) = -2 y^3 dx^dy^dz, coefficient in (x, y)... in (y)
        dg1 = G1().exterior_derivative()
        assert dg1 == volume_form(3, P("-2*y^3"))

    def test_dd_zero_random(self):
        rng = random.Random(21)
        for _ in range(500):
            omega = random_form(rng, rng.randint(0, 2))
            assert omega.exterior_derivative().exterior_derivative().is_zero

    def test_leibniz_wedge(self):
        rng = random.Random(22)
        for _ in range(500):
            a = random_form(rng, rng.randint(0, 2), nterms=2)
            b = random_form(rng, rng.randint(0, 1), nterms=2)
            lhs = a.wedge(b).exterior_derivative()
            sign = -1 if a.degree % 2 else 1
            rhs = a.exterior_derivative().wedge(b) + (a.wedge(b.exterior_derivative()) * sign)
            assert lhs == rhs


class TestDfWedge:
    def test_kernel_generator_killed(self):
        assert df_wedge(BARLET(), G1()).is_zero

    def test_df_wedge_one(self):
        one = function_form(Polynomial.constant(3, 1))
        assert df_wedge(BARLET(), one) == differential(BARLET())

    def test_df_wedge_df(self):
        f = BARLET()
        assert df_wedge(f, differential(f)).is_zero


class TestInteriorProduct:
    def test_basic_contraction(self):
        v = (P("x"), P("0"), P("0"))
        dxdy = DifferentialForm(3, 2, {(0, 1): P("1")})
        assert contract(dxdy, v) == DifferentialForm(3, 1, {(1,): P("x")})

    def test_contraction_of_df_is_application(self):
        f = BARLET()
        rng = random.Random(23)
        for _ in range(50):
            v = random_field(rng)
            got = contract(differential(f), v)
            assert got == function_form(apply(v, f))

    def test_degree_zero_contracts_to_zero(self):
        v = (P("1"), P("0"), P("0"))
        zero_form = function_form(P("x"))
        assert contract(zero_form, v).is_zero

    def test_contraction_identity_on_kernel(self):
        # df ^ i_xi(omega) = f * omega for omega killed by df^, xi f = f
        f = BARLET()
        xi = (P("x/5"), P("y/5"), P("-z/5"))
        assert apply(xi, f) == f
        omega = G1()
        assert df_wedge(f, contract(omega, xi)) == omega * f


class TestLieDerivative:
    def test_euler_on_function(self):
        f = BARLET()
        xi = (P("x/5"), P("y/5"), P("-z/5"))
        form = function_form(f)
        assert lie_derivative(form, xi) == function_form(f)

    def test_scaling_field_on_dx(self):
        v = (P("x"), P("0"), P("0"))
        dx = DifferentialForm(3, 1, {(0,): P("1")})
        assert lie_derivative(dx, v) == dx

    def test_volume_weight(self):
        xi = (P("x/5"), P("y/5"), P("-z/5"))
        vol = volume_form(3)
        assert lie_derivative(vol, xi) == vol * Fraction(1, 5)

    def test_cartan_against_coordinate_formula(self):
        # L_v(a dx_I) = v(a) dx_I + sum_pos a dx_.. ^ d(v^{I_pos}) ^ ..
        rng = random.Random(24)
        for _ in range(200):
            omega = random_form(rng, rng.randint(0, 3), nterms=2)
            v = random_field(rng)
            direct = DifferentialForm.zero(3, omega.degree)
            for wedge, a in omega.coeffs.items():
                direct = direct + DifferentialForm(3, len(wedge), {wedge: apply(v, a)})
                for pos, idx in enumerate(wedge):
                    dv = differential(v[idx])
                    left = DifferentialForm(3, pos, {wedge[:pos]: a}) if pos else function_form(a)
                    rest = DifferentialForm(3, len(wedge) - pos - 1, {wedge[pos + 1:]: Polynomial.constant(3, 1)}) if pos + 1 < len(wedge) else function_form(Polynomial.constant(3, 1))
                    direct = direct + left.wedge(dv).wedge(rest)
            assert lie_derivative(omega, v) == direct

    def test_euler_identity_for_forms(self):
        # L_E omega = wdeg(omega) * omega for w-homogeneous omega
        w = weight_vector(["1", "1", "-1"])
        E = (P("x"), P("y"), P("-z"))
        rng = random.Random(25)
        for _ in range(100):
            exp = tuple(rng.randint(0, 3) for _ in range(3))
            wedge = tuple(sorted(rng.sample(range(3), rng.randint(0, 3))))
            omega = DifferentialForm(3, len(wedge), {wedge: Polynomial.monomial(3, exp)})
            c = Grading(w).form(omega)
            assert c == weighted_degree(omega, w)
            assert lie_derivative(omega, E) == omega * c


class TestSerialization:
    def test_payload_roundtrip(self):
        rng = random.Random(26)
        for _ in range(100):
            omega = random_form(rng, rng.randint(0, 3))
            payload = omega.payload(XYZ)
            back = form_from_payload(payload, XYZ, omega.degree)
            assert back == omega

    def test_weighted_degree_counts_wedges(self):
        w = weight_vector(["1", "1", "-1"])
        assert Grading(w).form(volume_form(3)) == 1
        assert Grading(w).form(G1()) == 4
