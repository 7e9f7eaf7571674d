"""Normal-crossing germs: log bases, residue eigenvalues, kernel identity."""

import itertools
import math
from fractions import Fraction as F

import pytest
from oracles import problem_from_strings

from brieskorn import linalg
from brieskorn.engine import DynamicIndex, _bounded_exponents, _form_entries, ct_basis
from brieskorn.forms import df_wedge
from brieskorn.nc_log import (
    LogForm,
    MonomialGerm,
    log_relative_basis,
    residue_eigenvalues,
    verify_a_equals_g_atilde,
)
from brieskorn.poly import Polynomial


class TestMonomialGerm:
    def test_structure(self):
        g = MonomialGerm((2, 2))
        assert g.e == 2 and g.mu == (1, 1)
        assert MonomialGerm((2, 3)).e == 1
        assert MonomialGerm((6, 4)).mu == (3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            MonomialGerm((2, 0))


class TestLogBasis:
    def test_22_bases(self):
        g = MonomialGerm((2, 2))
        one = Polynomial.constant(2, 1)
        xy = Polynomial.monomial(2, (1, 1))
        assert log_relative_basis(g, 0) == [
            LogForm(2, 0, {(): one}),
            LogForm(2, 0, {(): xy}),
        ]
        assert log_relative_basis(g, 1) == [
            LogForm(2, 1, {(1,): one}),
            LogForm(2, 1, {(1,): xy}),
        ]

    def test_11_rank_one(self):
        g = MonomialGerm((1, 1))
        for p in range(2):
            assert len(log_relative_basis(g, p)) == 1

    def test_23_gcd_one(self):
        assert len(log_relative_basis(MonomialGerm((2, 3)), 0)) == 1

    def test_rank_formula_exhaustive(self):
        # every monomial germ with n <= 4, exponents <= 6
        for n in range(1, 5):
            for m in itertools.product(range(1, 7), repeat=n):
                germ = MonomialGerm(m)
                for p in range(n):
                    assert len(log_relative_basis(germ, p)) == germ.e * math.comb(n - 1, p)


class TestResidues:
    def test_22_degree_zero(self):
        assert residue_eigenvalues(MonomialGerm((2, 2)), 0) == [F(0), F(1, 2)]

    def test_11(self):
        assert residue_eigenvalues(MonomialGerm((1, 1)), 0) == [F(0)]

    def test_degree_zero_multiplicity_one(self):
        for n in range(1, 5):
            for m in itertools.product(range(1, 7), repeat=n):
                eigs = residue_eigenvalues(MonomialGerm(m), 0)
                assert len(set(eigs)) == len(eigs)

    def test_reduced_degree_zero_avoids_integers(self):
        # dropping k = 0 leaves eigenvalues k/e that are never integral
        for m in [(2, 2), (4, 6), (3, 3, 3), (2, 4)]:
            eigs = residue_eigenvalues(MonomialGerm(m), 0)[1:]
            assert all(a.denominator > 1 for a in eigs)


class TestKernelIdentity:
    def test_22_degree_one(self):
        assert verify_a_equals_g_atilde(MonomialGerm((2, 2)), 1, 8).holds

    def test_one_variable(self):
        assert verify_a_equals_g_atilde(MonomialGerm((3,)), 1, 8).holds

    def test_smooth_both_zero(self):
        assert verify_a_equals_g_atilde(MonomialGerm((1,)), 0, 6).holds

    def test_more_cases(self):
        for m, i in [((2, 3), 1), ((2, 2, 2), 2), ((1, 2), 1), ((3, 3), 2)]:
            assert verify_a_equals_g_atilde(MonomialGerm(m), i, 6).holds

    def test_every_small_monomial_germ(self):
        # n <= 3, exponents <= 3, every form degree: 141 cases
        cases = 0
        for n in range(1, 4):
            for m in itertools.product(range(1, 4), repeat=n):
                for i in range(n + 1):
                    res = verify_a_equals_g_atilde(MonomialGerm(m), i, 4)
                    assert res.holds and res.witness is None, (m, i)
                    cases += 1
        assert cases == 141

    def test_failing_branch_reports_an_a_form_outside_g_atilde(self, monkeypatch):
        # multiplying g * A~ by x breaks the identity; the witness must be a
        # df-killed form that no (broken) g * A~ form up to the bound spans
        original = LogForm.to_polynomial_form
        x = Polynomial.variable(2, 0)
        monkeypatch.setattr(LogForm, "to_polynomial_form", lambda lf, germ: original(lf, germ) * x)
        germ = MonomialGerm((2, 2))
        res = verify_a_equals_g_atilde(germ, 1, 4)
        assert not res.holds
        witness = res.witness
        assert witness and not df_wedge(germ.polynomial(), witness)
        # Ker(df/f-wedge) in degree 1 is spanned by eta_x + eta_y, since m = (2, 2)
        index = DynamicIndex()
        g_span = linalg.Echelon()
        for b in _bounded_exponents(2, 4):
            mono = Polynomial.monomial(2, b)
            g_form = LogForm(2, 1, {(0,): mono, (1,): mono}).to_polynomial_form(germ)
            g_span.add(index.vec(_form_entries(g_form)))
        assert g_span.reduce(index.vec(_form_entries(witness)))


class TestCrossEngine:
    def test_one_variable_rank_and_eigenvalues(self):
        # engine H^1 rank equals e = q; t*dt eigenvalues (k+1)/q - 1 in (-1, 0]
        for q in (2, 3, 5):
            p = problem_from_strings(["x"], ["1"], f"x^{q}")
            basis = ct_basis(p, reduced=False)
            assert len(basis) == q
            got = sorted(item.exponent for item in basis)
            assert got == [F(k + 1, q) - 1 for k in range(q)]
            assert all(F(-1) < a <= 0 for a in got)

    def test_nc22_as_engine_problem(self):
        # x^2 y^2 is non-isolated; its A^1 kernel identity is the nc route
        p = problem_from_strings(["x", "y"], ["1", "1"], "x^2*y^2")
        assert p.milnor_number() is None
        assert verify_a_equals_g_atilde(MonomialGerm((2, 2)), 1, 8).holds
