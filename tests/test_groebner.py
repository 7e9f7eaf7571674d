"""Groebner engine (grevlex): bases, normal forms, quotients, syzygies."""

import itertools
import os
import random
from fractions import Fraction

import pytest
from oracles import is_in_radical, module_member, modules_equal, normal_form

from brieskorn import _backend, groebner
from brieskorn.groebner import groebner_basis, module_kernel, standard_monomials
from brieskorn.poly import Polynomial, parse_polynomial
from brieskorn.engine import milnor_number
from brieskorn.problemfile import load_problem_file

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def P2(text):
    return parse_polynomial(text, XY)


def P3(text):
    return parse_polynomial(text, XYZ)


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty Groebner cache for the test; calling the fixture empties it again."""

    def reset():
        monkeypatch.setattr(groebner, "_cache", {})

    reset()
    return reset


def random_poly(rng, nvars, nterms=3, maxdeg=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exp = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[exp] = Fraction(rng.randint(-5, 5) or 1)
    return Polynomial(nvars, terms)


class TestGrevlexKey:
    def test_grevlex_definition(self):
        # a > b iff higher total degree, or equal and last nonzero of a-b < 0
        rng = random.Random(11)
        for _ in range(500):
            a = tuple(rng.randint(0, 5) for _ in range(3))
            b = tuple(rng.randint(0, 5) for _ in range(3))
            if a == b:
                continue
            if sum(a) != sum(b):
                expect = sum(a) > sum(b)
            else:
                diff = [x - y for x, y in zip(a, b)]
                last = max(i for i, v in enumerate(diff) if v)
                expect = diff[last] < 0
            assert (groebner._key(a) > groebner._key(b)) == expect

    def test_keys_additive(self):
        rng = random.Random(12)
        for nvars in range(5):
            for _ in range(100):
                a = tuple(rng.randint(0, 4) for _ in range(nvars))
                b = tuple(rng.randint(0, 4) for _ in range(nvars))
                ka, kb = groebner._key(a), groebner._key(b)
                kc = groebner._key(tuple(x + y for x, y in zip(a, b)))
                assert tuple(x + y for x, y in zip(ka, kb)) == kc

    def test_key_layout(self):
        assert groebner._key((2, 3, 5)) == (10, -5, -3)
        assert groebner._key((7,)) == (7,)
        assert groebner._key(()) == (0,)


class TestGroebnerBasis:
    def test_monomial_ideal_already_reduced(self):
        gb = groebner_basis([P2("x^2"), P2("y^2")])
        assert gb == [P2("y^2"), P2("x^2")] or gb == [P2("x^2"), P2("y^2")]

    def test_linear(self):
        gb = groebner_basis([P2("x"), P2("y")])
        assert set(gb) == {P2("x"), P2("y")}

    def test_hand_example(self):
        # spoly(xy-1, y^2-1) = y*(xy-1) - x*(y^2-1) = x - y, which is reduced
        gb = groebner_basis([P2("x*y - 1"), P2("y^2 - 1")])
        assert set(gb) == {P2("x - y"), P2("y^2 - 1")}

    def test_zero_ideal(self):
        assert groebner_basis([Polynomial.zero(2)]) == []

    def test_buchberger_criterion_exhaustive(self):
        # every S-polynomial of a returned basis reduces to zero
        cases = [
            [P2("x*y - 1"), P2("y^2 - 1")],
            [P3("x^2 + y*z"), P3("y^2 - x*z"), P3("z^2 + x*y")],
            [P2("x^3 - 2*x*y"), P2("x^2*y - 2*y^2 + x")],
        ]
        for gens in cases:
            gb = groebner_basis(gens)
            flats = [groebner._vector_to_flat((g,)) for g in gb]
            for i in range(len(flats)):
                for j in range(i + 1, len(flats)):
                    lcm = groebner._lcm_exp(flats[i][0][1], flats[j][0][1])
                    s = groebner._spoly(flats[i], flats[j], lcm)
                    assert not _backend.normal_form(s, flats)

    def test_determinism(self, cold_cache):
        gens = [P3("x^2 + y*z"), P3("y^3 - z"), P3("x*z - y")]
        a = groebner_basis(gens)
        cold_cache()  # otherwise the reversed generators hit the cached basis
        b = groebner_basis(list(reversed(gens)))
        assert a == b

    def test_against_sympy(self, cold_cache):
        sympy = pytest.importorskip("sympy")
        syms = sympy.symbols("x y z")
        rng = random.Random(13)
        for trial in range(15):
            gens = [random_poly(rng, 3, nterms=3, maxdeg=2) for _ in range(2)]
            gb = groebner_basis(gens)
            expr = [sympy.sympify(g.serialize(XYZ)) for g in gens if g]
            ref = sympy.groebner(expr, *syms, order="grevlex")
            ours = sorted(g.serialize(XYZ) for g in gb)
            theirs = sorted(str(sympy.Poly(e, *syms).as_expr()) for e in ref.exprs)
            assert len(ours) == len(theirs), (trial, ours, theirs)
            ref_polys = [parse_polynomial(str(e).replace("**", "^"), XYZ) for e in ref.exprs]
            for g in gb:
                assert normal_form(g, ref_polys).is_zero or g in ref_polys
            for r in ref_polys:
                assert normal_form(r, gb).is_zero


PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "problems")
ISOLATED = ["a1", "cusp", "smooth", "ts_y2", "ts_y3", "ts_z2", "x3y3"]


class TestEngineIdealsAgainstSympy:
    """The ideals the engine works with, against sympy's exact grevlex bases."""

    @staticmethod
    def sympy_basis(gens, variables):
        sympy = pytest.importorskip("sympy")
        syms = sympy.symbols(variables)
        exprs = [sympy.sympify(g.serialize(variables).replace("^", "**")) for g in gens]
        ref = sympy.groebner(exprs, *syms, order="grevlex", domain="QQ")
        basis = {parse_polynomial(str(e).replace("**", "^"), variables) for e in ref.exprs}
        leads = [sympy.Poly(e, *syms).monoms(order="grevlex")[0] for e in ref.exprs]
        return basis, leads

    def test_corpus_isolation(self):
        isolated = sorted(
            name[:-5]
            for name in os.listdir(PROBLEMS)
            if milnor_number(load_problem_file(os.path.join(PROBLEMS, name)).problem) is not None
        )
        assert isolated == ISOLATED

    @pytest.mark.parametrize("name", [*ISOLATED, "barlet35"])
    def test_jacobian_basis(self, name, cold_cache):
        problem = load_problem_file(os.path.join(PROBLEMS, name + ".json")).problem
        ref, leads = self.sympy_basis(problem.jacobian, list(problem.variables))
        gb = groebner_basis(problem.jacobian)
        assert len(gb) == len(ref) and set(gb) == ref
        assert sorted(max(g.terms, key=groebner._key) for g in gb) == sorted(leads)

    @pytest.mark.parametrize("name", [*ISOLATED, "barlet35", "nc22"])
    def test_radical_membership_basis(self, name, cold_cache):
        # is_in_radical(p, [f]) runs Buchberger on (f, 1 - u*p) with one more variable u
        problem = load_problem_file(os.path.join(PROBLEMS, name + ".json")).problem
        big = problem.nvars + 1
        lift = list(range(problem.nvars))
        for i in range(problem.nvars):
            p = Polynomial.variable(problem.nvars, i) + Polynomial.constant(problem.nvars, 1)
            u = Polynomial.variable(big, problem.nvars)
            work = [problem.f.remap_variables(big, lift)]
            work.append(Polynomial.constant(big, 1) - u * p.remap_variables(big, lift))
            ref, _leads = self.sympy_basis(work, [*problem.variables, "u"])
            assert set(groebner_basis(work)) == ref
            assert is_in_radical(p, [problem.f]) == (ref == {Polynomial.constant(big, 1)})

    @pytest.mark.parametrize("name", ISOLATED)
    def test_standard_monomials(self, name, cold_cache):
        problem = load_problem_file(os.path.join(PROBLEMS, name + ".json")).problem
        _ref, leads = self.sympy_basis(problem.jacobian, list(problem.variables))
        box = max((max(e) for e in leads), default=0)
        expect = sorted(
            e
            for e in itertools.product(range(box), repeat=problem.nvars)
            if not any(all(a <= b for a, b in zip(lead, e)) for lead in leads)
        )
        assert standard_monomials(problem.jacobian) == expect
        assert milnor_number(problem) == len(expect)

    def test_barlet_syzygies(self, cold_cache):
        # the module the engine builds from the partials: relations, Koszul ones included
        problem = load_problem_file(os.path.join(PROBLEMS, "barlet35.json")).problem
        partials = list(problem.partials)
        syz = module_kernel([partials])
        assert syz
        for vec in syz:
            assert sum((v * p for v, p in zip(vec, partials)), Polynomial.zero(3)).is_zero
        zero = Polynomial.zero(3)
        for i, j in itertools.combinations(range(3), 2):
            kos = [zero] * 3
            kos[i], kos[j] = partials[j], -partials[i]
            assert module_member(tuple(kos), syz)


class TestNormalForm:
    def test_examples(self):
        assert normal_form(P2("x^2*y"), [P2("x^2"), P2("y^2")]).is_zero
        assert normal_form(P2("x + y"), [P2("x")]) == P2("y")
        assert normal_form(P2("x^2 + y"), [P2("x^2 - y")]) == P2("2*y")

    def test_membership_random_triples(self, cold_cache):
        rng = random.Random(14)
        for _ in range(200):
            gens = [random_poly(rng, 2) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if g]
            if not gens:
                continue
            gb = groebner_basis(gens)
            # member by construction
            member = sum(
                (random_poly(rng, 2, nterms=2) * g for g in gens),
                Polynomial.zero(2),
            )
            assert normal_form(member, gb).is_zero
            # non-member by construction: a standard monomial plus a member
            std = standard_monomials(gens)
            if not std:  # infinite (None) or the unit ideal
                continue
            probe = member + Polynomial.monomial(2, std[-1])
            assert not normal_form(probe, gb).is_zero


class TestStandardMonomials:
    def test_examples(self):
        assert standard_monomials([P2("x"), P2("y")]) == [(0, 0)]
        assert standard_monomials([P2("x^2"), P2("y^2")]) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_barlet_jacobian_infinite(self):
        f = P3("x^5/5 + y^5/5 + x^3*y^3*z/3")
        jac = [f.partial_derivative(i) for i in range(3)]
        assert standard_monomials(jac) is None

    def test_unit_ideal(self):
        assert standard_monomials([P2("x"), P2("x - 1")]) == []

    def test_zero_ideal_infinite(self):
        assert standard_monomials([Polynomial.zero(2)]) is None


class TestModuleKernel:
    def test_hand_syzygy(self):
        ker = module_kernel([[P2("y"), P2("x")]])
        expect = [(P2("x"), P2("-y"))]
        assert modules_equal(ker, expect)

    def test_injective(self):
        ker = module_kernel([[Polynomial.constant(2, 1)]])
        assert ker == []

    def test_koszul_pair(self):
        ker = module_kernel([[P2("x^2"), P2("y^2")]])
        expect = [(P2("y^2"), P2("-x^2"))]
        assert modules_equal(ker, expect)

    def test_kernel_exactness_and_koszul_containment(self):
        rng = random.Random(16)
        for _ in range(10):
            row = [random_poly(rng, 2) for _ in range(3)]
            ker = module_kernel([row])
            for vec in ker:
                image = sum((v * m for v, m in zip(vec, row)), Polynomial.zero(2))
                assert image.is_zero
            zero = Polynomial.zero(2)
            for i in range(3):
                for j in range(i + 1, 3):
                    kos = [zero] * 3
                    kos[i] = row[j]
                    kos[j] = -row[i]
                    assert module_member(tuple(kos), ker)

    def test_matrix_kernel(self):
        # kernel of the 2x3 matrix [[x, y, 0], [0, x, y]]
        zero = Polynomial.zero(2)
        ker = module_kernel([[P2("x"), P2("y"), zero], [zero, P2("x"), P2("y")]])
        for vec in ker:
            assert (vec[0] * P2("x") + vec[1] * P2("y")).is_zero
            assert (vec[1] * P2("x") + vec[2] * P2("y")).is_zero
        assert modules_equal(ker, [(P2("y^2"), P2("-x*y"), P2("x^2"))])


class TestRadical:
    def test_examples(self):
        assert is_in_radical(P2("x"), [P2("x^2")])
        assert not is_in_radical(P2("y"), [P2("x^2")])
        assert is_in_radical(P2("x*y"), [P2("x^2"), P2("y^3")])


class TestSyzygiesOfPartials:
    def test_xy(self):
        syz = module_kernel([[P2("y"), P2("x")]])
        assert modules_equal(syz, [(P2("x"), P2("-y"))])


class TestCacheConcurrency:
    def test_concurrent_basis_requests(self, cold_cache):
        import threading

        gens = [P3("x^2 + y*z"), P3("y^3 - z"), P3("x*z - y")]
        expected = groebner_basis(gens)
        cold_cache()  # the threads compute and store the basis themselves
        results = [None] * 8
        errors = []

        def worker(k):
            try:
                results[k] = groebner_basis(gens)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r == expected for r in results)
