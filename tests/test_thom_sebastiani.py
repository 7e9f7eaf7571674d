"""External products and the rank/exponent comparison for sums of germs."""

from fractions import Fraction as F

import pytest
from oracles import external_product, problem_from_strings

from brieskorn.engine import ct_basis, milnor_number
from brieskorn.germ import CohomologyClass, combined_problem, exact_chain, lift_form
from brieskorn.forms import DifferentialForm
from brieskorn.poly import Polynomial
from brieskorn.thom_sebastiani import ts_compare, vanish_g_k_dg


def germ(text, vs, ws=None):
    return problem_from_strings(vs, ws or ["1"] * len(vs), text)


def unit_class(problem):
    return ct_basis(problem)[0]


def compare(pf, pg):
    return ts_compare(ct_basis(pf), pg, combined_problem(pf, pg))


X2 = germ("x^2", ["x"])
Y2 = germ("y^2", ["y"])
Y3 = germ("y^3", ["y"])
Z2 = germ("z^2", ["z"])
X3Y3 = germ("x^3+y^3", ["x", "y"])


class TestCombinedProblem:
    def test_weights_normalized(self):
        h = combined_problem(X2, Y3)
        assert h.degree == 1
        assert h.weights == (F(1, 2), F(1, 3))

    def test_variable_collision(self):
        with pytest.raises(ValueError):
            combined_problem(X2, germ("x^3", ["x"]))


class TestExternalProduct:
    def test_dx_times_dy(self):
        prod = external_product(unit_class(X2), unit_class(Y3))
        assert prod.representative == DifferentialForm(
            2, 2, {(0, 1): Polynomial.constant(2, 1)}
        )
        assert prod.tdt_eigenvalue() == F(-1, 6)

    def test_eigenvalue_zero_case(self):
        prod = external_product(unit_class(X2), unit_class(Y2))
        assert prod.tdt_eigenvalue() == 0

    def test_additivity_on_engine_classes(self):
        # alpha_h = alpha_f + alpha_g + 1 on the external product
        for pf, pg in [(X2, Y2), (X2, Y3), (X3Y3, Z2)]:
            for bf in ct_basis(pf):
                for bg in ct_basis(pg):
                    prod = external_product(bf, bg)
                    assert prod.tdt_eigenvalue() == bf.tdt_eigenvalue() + bg.tdt_eigenvalue() + 1

    def test_t_compatibility(self):
        # h * (w_f wedge w_g) = (f w_f) wedge w_g + w_f wedge (g w_g) exactly
        for pf, pg in [(X2, Y3), (X3Y3, Z2)]:
            h = combined_problem(pf, pg)
            nv = h.nvars
            f_lift = pf.f.remap_variables(nv, list(range(pf.nvars)))
            g_lift = pg.f.remap_variables(nv, list(range(pf.nvars, nv)))
            for bf in ct_basis(pf):
                for bg in ct_basis(pg):
                    wf = lift_form(bf.representative, 0, nv)
                    wg = lift_form(bg.representative, pf.nvars, nv)
                    assert wf.wedge(wg) * h.f == (wf * f_lift).wedge(wg) + wf.wedge(wg * g_lift)


class TestComparison:
    def test_a1_a1(self):
        left, right = compare(X2, Y2)
        assert left == right
        assert left == [F(0)] and right == [F(0)]

    def test_a1_cusp(self):
        left, right = compare(X2, Y3)
        assert left == right
        assert left == [F(-1, 6), F(1, 6)]

    def test_x3y3_z2(self):
        left, right = compare(X3Y3, Z2)
        assert left == right
        assert right == [F(1, 6), F(1, 2), F(1, 2), F(5, 6)]

    def test_mu_multiplicative(self):
        for pf, pg in [(X2, Y3), (X3Y3, Z2), (germ("x^4", ["x"]), Y3)]:
            left, right = compare(pf, pg)
            assert left == right
            assert len(right) == milnor_number(pf) * milnor_number(pg)


def vanishing_witness(cls_f, pg, k):
    """vanish_g_k_dg's eta, checked to be found and to pass the chain check
    of length 1 against its target on the sum germ, built here
    independently."""
    h = combined_problem(cls_f.problem, pg)
    target, eta = vanish_g_k_dg(cls_f, pg, h, k)
    assert eta is not None
    assert exact_chain(h.f, target, [eta])
    return target, eta


class TestVanishing:
    def test_hand_example(self):
        # dx wedge 2y dy = d(2x(x dx + y dy)), and the witness is df-killed
        from brieskorn.poly import parse_polynomial

        P = lambda s: parse_polynomial(s, ["x", "y"])
        target, eta = vanishing_witness(unit_class(X2), Y2, 0)
        assert target == DifferentialForm(2, 2, {(0, 1): P("2*y")})
        assert eta == DifferentialForm(2, 1, {(0,): P("2*x^2"), (1,): P("2*x*y")})

    def test_k_up_to_three(self):
        for k in range(4):
            vanishing_witness(unit_class(X2), Y2, k)

    def test_smooth_g(self):
        sm = germ("y", ["y"])
        vanishing_witness(unit_class(X2), sm, 0)

    def test_other_operands(self):
        z3 = germ("z^3", ["z"])
        vanishing_witness(unit_class(X3Y3), z3, 1)

    def test_zero_class_is_refused(self):
        zero = CohomologyClass(X2, 1, DifferentialForm.zero(1, 1), weight=1)
        with pytest.raises(ValueError, match="zero form has no weighted degree"):
            vanish_g_k_dg(zero, Y2, combined_problem(X2, Y2), 0)
