"""Engine: germ problems, weight slices, module actions, torsion, (P')."""

import hashlib
import itertools
import json
import os
import random
from collections import Counter, defaultdict
from fractions import Fraction as F

import oracles
import pytest
from fraction_echelon import FractionEchelon

from oracles import (
    apply,
    class_is_boundary,
    coefficient_vectors,
    contract,
    ct_basis_over_every_slice,
    d_reference,
    delta_at_origin,
    euler_field,
    extend_with_inert_variable,
    form_entries,
    modules_equal,
    monomial_weight,
    monomial_weights,
    position_form,
    position_vec,
    problem_from_strings,
    random_kernel_elements,
    s_action,
    t_action,
    tdt_action,
    theta_f,
    xi,
)

from brieskorn import engine, germ, groebner, linalg, thom_sebastiani
from brieskorn.cli import main as cli_main
from brieskorn.engine import (
    CohomologyClass,
    InvariantViolation,
    NotFoundWithin,
    TorsionCertificate,
    check_p_prime,
    ct_basis,
    h_slice,
    kernel_forms,
    milnor_number,
    sample_top_classes,
    spectrum,
    torsion_order_s,
    torsion_order_t,
)
from brieskorn.forms import DifferentialForm, df_wedge, differential, monomial_images, partial_terms, volume_form
from brieskorn.germ import CapExceeded
from brieskorn.poly import Grading, LimitExceeded, Polynomial, parse_polynomial
from brieskorn.problemfile import load_problem_file

PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "problems")


def barlet():
    return problem_from_strings(
        ["x", "y", "z"], ["1", "1", "-1"], "x^5/5 + y^5/5 + x^3*y^3*z/3", name="barlet35"
    )


def a1():
    return problem_from_strings(["x"], ["1"], "x^2", name="a1")


BP = barlet()
A1 = a1()


class TestGermProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            problem_from_strings(["x", "y"], ["1", "1"], "x + y^2")
        with pytest.raises(ValueError):
            problem_from_strings(["x"], ["1"], "3")  # degree zero

    def test_euler_field(self):
        assert apply(xi(BP), BP.f) == BP.f
        assert apply(euler_field(BP), BP.f) == BP.f * BP.degree

    def test_milnor(self):
        assert milnor_number(A1) == 1
        assert milnor_number(problem_from_strings(["x", "y"], ["1", "1"], "x^2+y^2")) == 1
        assert milnor_number(problem_from_strings(["x", "y"], ["1", "1"], "x^3+y^3")) == 4
        assert milnor_number(BP) is None


class TestKernelForms:
    def test_barlet_kernel_matches_displayed_generators(self):
        vs = BP.variables
        P = lambda s: parse_polynomial(s, vs)
        displayed = [
            (P("-3*(x^2+y^3*z)"), P("0"), P("x*y^3")),
            (P("3*(y^2+x^3*z)"), P("x^3*y"), P("0")),
            (P("3*(y - x*y^2*z^2)"), P("x^3"), P("x^2*y^2*z")),
            (P("-3*(x - x^2*y*z^2)"), P("x^2*y^2*z"), P("y^3")),
        ]
        assert modules_equal(coefficient_vectors(BP, 2, kernel_forms(BP, 2)), displayed)

    def test_xy_kernel_is_df(self):
        p = problem_from_strings(["x", "y"], ["1", "1"], "x*y")
        gens = kernel_forms(p, 1)
        assert modules_equal(coefficient_vectors(p, 1, gens), coefficient_vectors(p, 1, [differential(p.f)]))
        assert all(df_wedge(p.f, g).is_zero for g in gens)

    def test_one_variable_top(self):
        p = problem_from_strings(["x"], ["1"], "x")
        gens = kernel_forms(p, 1)
        assert len(gens) == 1 and gens[0] == DifferentialForm(1, 1, {(0,): Polynomial.constant(1, 1)})


class TestSlices:
    def test_a1_slices(self):
        sl = h_slice(A1, 1, F(1))
        assert len(sl.classes) == 1
        assert sl.classes[0].representative == DifferentialForm(1, 1, {(0,): Polynomial.constant(1, 1)})
        assert len(h_slice(A1, 1, F(2)).classes) == 1  # x dx
        assert len(h_slice(A1, 1, F(3)).classes) == 1  # x^2 dx (nonzero, but t-divisible)

    def test_smooth_rank_one(self):
        # H^1 = Omega^1 in one variable: dx is a nonzero class, and it is df,
        # so the reduced module has rank 0
        p = problem_from_strings(["x"], ["1"], "x")
        assert len(h_slice(p, 1, F(1)).classes) == 1
        assert len(ct_basis(p)) == 0

    def test_barlet_z_classes_nonzero_any_cap(self):
        for k in range(10):
            rep = volume_form(3, Polynomial.monomial(3, (0, 0, k)))
            cls = CohomologyClass(BP, 3, rep)
            assert not class_is_boundary(cls, cap=12)

    def test_mixed_weights_need_cap(self):
        with pytest.raises(CapExceeded):
            h_slice(BP, 3, F(1))

    def test_cap_relative_flag(self):
        assert h_slice(BP, 3, F(1), cap=10).cap_relative
        assert not h_slice(A1, 1, F(1)).cap_relative


def h_slice_reference(problem, i, c, cap):
    """(classes, reducer, closed + boundaries) of the weight-c slice of H^i
    with d taken by partial derivatives (d_reference) on the form of every
    kernel vector, every vector a position in the slice space, and the
    boundaries reduced by the Fraction reference echelon."""
    space = engine.FormSpace(problem, i, c, cap)
    kernel = engine._df_kernel_vectors(problem, space)
    closed = kernel
    if i < problem.nvars:
        columns = [form_entries(d_reference(position_form(space, v))) for v in kernel]
        combos = linalg.nullspace(columns)
        closed = [v for v in (linalg.combine(kernel, combo) for combo in combos) if v]
    boundaries = []
    if i >= 1:
        prev = engine.FormSpace(problem, i - 1, c, cap + 1)
        for v in engine._df_kernel_vectors(problem, prev):
            d_img = d_reference(position_form(prev, v))
            if d_img:
                boundaries.append(position_vec(space, d_img))
    reducer, ech = FractionEchelon(), FractionEchelon()
    for b in boundaries:
        reducer.add(b)
        ech.add(b)
    classes = []
    for v in closed:
        residue = ech.reduce(v)
        if residue:
            inv = 1 / residue[min(residue)]
            rep = position_form(space, {k: val * inv for k, val in residue.items()})
            classes.append(CohomologyClass(problem, i, rep))
            ech.add(v)
    return classes, reducer, closed + boundaries


class TestSliceLayer:
    """h_slice on exponent-arithmetic d images against the form operators,
    and the candidate weights of ct_basis against brute force."""

    @pytest.mark.parametrize(
        "variables, weights, polynomial, cap, slice_weights",
        [
            (["x", "y"], ["3", "2"], "x^2 + y^3", None, [0, 2, 5, 6, 12, 14]),
            (["x", "y"], ["1", "1"], "x^3 + y^3", None, [0, 1, 3, 5, 6]),
            (["x", "y"], ["3", "2"], "x^3 + x*y^3", None, [0, 3, 5, 9, 11, 18]),
            (["x", "y"], ["1", "1"], "x^2*y^2", None, [0, 1, 3, 4, 6]),
            (["x", "y", "z"], ["1", "1", "-1"], "x^5/5 + y^5/5 + x^3*y^3*z/3", 6, [-1, 0, 1, 3, 5]),
            (["x", "y", "z"], ["1", "0", "1"], "x^2*y + y^2*z^2", 5, [0, 1, 2, 3]),
        ],
        ids=["cusp", "x3y3", "e7", "nc22", "barlet35", "x2y+y2z2"],
    )
    def test_h_slice_matches_the_form_operator_reference(self, variables, weights, polynomial, cap, slice_weights):
        problem = problem_from_strings(variables, weights, polynomial)
        classes_seen = boundaries_seen = 0
        exact = Counter()
        for i in range(problem.nvars + 1):
            for c in slice_weights:
                sl = h_slice(problem, i, F(c), cap)
                classes, reducer, closed = h_slice_reference(problem, i, F(c), sl.cap)
                assert len(sl.classes) == len(classes)
                assert [cls.serialize() for cls in sl.classes] == [cls.serialize() for cls in classes]
                space = engine.FormSpace(problem, i, F(c), sl.cap)
                # exactness by a solve agrees with the reference reducer on
                # the closed basis and the boundaries of the slice
                for v in closed:
                    is_boundary = class_is_boundary(CohomologyClass(problem, i, position_form(space, v)), cap)
                    assert is_boundary == (not reducer.reduce(v))
                    exact[is_boundary] += 1
                if i < problem.nvars:
                    classes_seen += len(sl.classes)
                boundaries_seen += reducer.rank
        # both new paths ran: d restricted to a nonzero kernel below the top
        # degree, and d(A^(i-1)) from a nonzero kernel
        assert classes_seen and boundaries_seen
        assert exact[True] and exact[False]


class TestActions:
    def test_t_on_dx(self):
        cls = h_slice(A1, 1, F(1)).classes[0]
        assert t_action(cls).representative == DifferentialForm(1, 1, {(0,): parse_polynomial("x^2", ["x"])})

    def test_s_on_dx_is_twice_t(self):
        cls = h_slice(A1, 1, F(1)).classes[0]
        s = s_action(cls)
        t = t_action(cls)
        assert s.representative == t.representative * 2

    def test_tdt_on_dx(self):
        cls = h_slice(A1, 1, F(1)).classes[0]
        assert tdt_action(cls).representative == cls.representative * F(-1, 2)
        assert cls.tdt_eigenvalue() == F(-1, 2)

    def test_s_degenerate_weight(self):
        rep = volume_form(3, Polynomial.monomial(3, (0, 0, 1)))
        cls = CohomologyClass(BP, 3, rep)
        assert cls.weight == 0
        with pytest.raises(ValueError, match="no homogeneous antiderivative at weight 0"):
            s_action(cls)

    def test_s_degree_one_normalization(self):
        # class [df]: the antiderivative is f itself, which vanishes on X0
        cls = CohomologyClass(BP, 1, differential(BP.f))
        out = s_action(cls)
        assert out.representative == differential(BP.f) * BP.f

    def test_class_validation(self):
        with pytest.raises(InvariantViolation):
            CohomologyClass(BP, 2, DifferentialForm(3, 2, {(0, 1): Polynomial.constant(3, 1)}))


class TestEigenvalueLaws:
    CORPUS = [
        ("x^2", ["x"], ["1"]),
        ("x^2+y^2", ["x", "y"], ["1", "1"]),
        ("x^2+y^3", ["x", "y"], ["3", "2"]),
        ("x^3+y^3", ["x", "y"], ["1", "1"]),
        ("x^4+y^3", ["x", "y"], ["3", "4"]),
        ("x^2+y^2+z^2", ["x", "y", "z"], ["1", "1", "1"]),
    ]

    def test_s_equals_scaled_t_and_tdt_eigenvalue(self):
        for text, vs, ws in self.CORPUS:
            p = problem_from_strings(vs, ws, text)
            for cls in ct_basis(p):
                c, d = cls.weight, p.degree
                assert s_action(cls).representative == t_action(cls).representative * (d / c)
                assert tdt_action(cls).representative == cls.representative * (c / d - 1)
                assert F(-1) < c / d - 1 < p.nvars

    def test_laws_on_degree_one_slice_classes(self):
        # H^1 slices of an isolated 2-variable germ carry the f^k df orbit;
        # the laws and the degree-one antiderivative normalization apply there
        p = problem_from_strings(["x", "y"], ["3", "2"], "x^2+y^3")
        for k in (0, 1):
            c = F(6) * (k + 1)
            sl = h_slice(p, 1, c)
            assert len(sl.classes) == 1
            cls = sl.classes[0]
            assert s_action(cls).representative == t_action(cls).representative * (
                p.degree / c
            )
            assert tdt_action(cls).representative == cls.representative * (c / p.degree - 1)

    def test_contraction_identity_random_kernel_elements(self):
        for text, vs, ws in [
            ("x^2+y^3", ["x", "y"], ["3", "2"]),
            ("x^3+y^3", ["x", "y"], ["1", "1"]),
        ]:
            p = problem_from_strings(vs, ws, text)
            for omega in random_kernel_elements(p, 1, 100, seed=9):
                assert df_wedge(p.f, contract(omega, xi(p))) == omega * p.f
        for omega in random_kernel_elements(BP, 2, 100, seed=10):
            assert df_wedge(BP.f, contract(omega, xi(BP))) == omega * BP.f

    def test_commutation_on_classes(self):
        # t(s(w)) - s(t(w)) = s(s(w)) exactly on representatives
        count = 0
        for text, vs, ws in self.CORPUS:
            p = problem_from_strings(vs, ws, text)
            for cls in ct_basis(p):
                lhs = s_action(t_action(cls)).representative * (-1) + t_action(s_action(cls)).representative
                rhs = s_action(s_action(cls)).representative
                assert lhs == rhs
                count += 1
        classes = sample_top_classes(BP, 100 - count, seed=3)
        for cls in classes:
            if cls.weight == 0 or cls.weight == -BP.degree:
                continue
            lhs = s_action(t_action(cls)).representative * (-1) + t_action(s_action(cls)).representative
            rhs = s_action(s_action(cls)).representative
            assert lhs == rhs

    def test_s_well_definedness_correction(self):
        # two antiderivatives differ by d(beta); the induced change of
        # df^eta is the exact form -d(df^beta) with df^beta in the kernel
        rng = random.Random(11)
        for _ in range(25):
            exp = tuple(rng.randint(0, 2) for _ in range(3))
            beta = DifferentialForm(3, 1, {(rng.randrange(3),): Polynomial.monomial(3, exp)})
            change = df_wedge(BP.f, beta.exterior_derivative())
            correction = df_wedge(BP.f, beta)
            assert change == correction.exterior_derivative() * (-1)
            assert df_wedge(BP.f, correction).is_zero


class TestTorsion:
    def test_torsion_free_two_variables(self):
        p = problem_from_strings(["x", "y"], ["1", "1"], "x^2+y^2")
        cls = ct_basis(p)[0]
        assert isinstance(torsion_order_t(cls, 6), NotFoundWithin)
        assert isinstance(torsion_order_s(cls, 6), NotFoundWithin)

    def test_smooth_free(self):
        p = problem_from_strings(["x"], ["1"], "x")
        cls = CohomologyClass(p, 1, volume_form(1))  # dx
        assert isinstance(torsion_order_t(cls, 4), NotFoundWithin)
        assert isinstance(torsion_order_s(cls, 4), NotFoundWithin)

    def test_barlet_volume_class_torsion(self):
        cls = CohomologyClass(BP, 3, volume_form(3))
        cert_t = torsion_order_t(cls, 10, cap=12)
        cert_s = torsion_order_s(cls, 10, cap=12)
        assert isinstance(cert_t, TorsionCertificate) and cert_t.order == 1
        assert isinstance(cert_s, TorsionCertificate) and cert_s.order == 2
        assert cert_t.verify(cls) and cert_s.verify(cls)

    def test_certificates_reject_tampering(self):
        cls = CohomologyClass(BP, 3, volume_form(3))
        cert = torsion_order_t(cls, 4, cap=12)
        bad = TorsionCertificate("t", cert.order + 1, cert.witness)
        assert not bad.verify(cls)

    def test_zero_class_certificate_needs_no_power_of_f(self):
        zero = CohomologyClass(BP, 3, DifferentialForm.zero(3, 3), weight=F(1))
        cert = torsion_order_t(zero, 4)
        assert (cert.kind, cert.order) == ("t", 1) and cert.verify(zero)
        # the zero target has no degree to bound the witness by, and is never expanded
        assert TorsionCertificate("t", 10**6, cert.witness).verify(zero)

    def test_zero_class_weight_must_lie_on_the_lattice(self):
        # barlet35 has L = 1: the class weight is kept as the integer c
        assert CohomologyClass(BP, 3, DifferentialForm.zero(3, 3), weight=F(-2)).c == -2
        with pytest.raises(ValueError, match="off the lattice"):
            CohomologyClass(BP, 3, DifferentialForm.zero(3, 3), weight=F(1, 2))

    def test_degree_one_always_free(self):
        for p in (BP, problem_from_strings(["x", "y"], ["3", "2"], "x^2+y^3")):
            cls = CohomologyClass(p, 1, differential(p.f))
            cap = 10 if not p.positive_weights else None
            assert isinstance(torsion_order_t(cls, 5, cap=cap), NotFoundWithin)
            assert isinstance(torsion_order_s(cls, 5, cap=cap), NotFoundWithin)

    def test_equivalence_on_seeded_sample(self):
        classes = sample_top_classes(BP, 8, seed=0)
        for cls in classes:
            rt = torsion_order_t(cls, 6, cap=14)
            rs = torsion_order_s(cls, 6, cap=14)
            assert isinstance(rt, TorsionCertificate) == isinstance(rs, TorsionCertificate)

    def test_weight_zero_orbit_is_cap_limited(self):
        # [z vol] has an exact t-certificate, but its s-chain passes through
        # the weight-0 slice where polynomial witnesses run out: the search
        # must say so honestly rather than fake a certificate.
        cls = CohomologyClass(BP, 3, volume_form(3, Polynomial.monomial(3, (0, 0, 1))))
        rt = torsion_order_t(cls, 6, cap=14)
        assert isinstance(rt, TorsionCertificate) and rt.order == 1
        rs = torsion_order_s(cls, 6, cap=14)
        assert isinstance(rs, NotFoundWithin) and rs.cap_limited


@pytest.fixture
def spaces(monkeypatch):
    """Arguments of every FormSpace built while the test runs."""
    built = []
    original = engine.FormSpace.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(engine.FormSpace, "__init__", counting)
    return built


@pytest.fixture
def slice_route(monkeypatch):
    """engine.h_free reads False: check_p_prime and the torsion searches take
    their slice and search route on every germ, as before the theorem exits."""
    monkeypatch.setattr(engine, "h_free", lambda problem: False)


def top_class(problem, monomial):
    poly = parse_polynomial(monomial, problem.variables)
    return CohomologyClass(problem, problem.nvars, volume_form(problem.nvars, poly))


class TestStaircase:
    """The forward sweep of torsion_order_s, over the key classes of its
    target, against the full block systems over whole slices."""

    R_MAX = 4

    def check(self, cls, cap):
        result = torsion_order_s(cls, self.R_MAX, cap=cap)
        expected = s_reference(cls, self.R_MAX, cap)
        if expected is None:
            assert isinstance(result, NotFoundWithin)
            assert (result.bound, result.cap_limited) == (self.R_MAX, not cls.problem.positive_weights)
        else:
            assert isinstance(result, TorsionCertificate)
            assert (result.order, result.witness) == expected

    @pytest.mark.parametrize("monomial", ["1", "z", "z^2", "x*y", "x^2*y^3*z^2", "x + y", "x*y + y^2"])
    def test_barlet_classes(self, monomial):
        self.check(top_class(BP, monomial), 14)

    @pytest.mark.parametrize(
        "variables, weights, polynomial",
        [(["x", "y"], ["3", "2"], "x^2 + y^3"), (["x", "y"], ["1", "1"], "x^3 + y^3")],
    )
    def test_sampled_isolated_classes(self, variables, weights, polynomial):
        problem = problem_from_strings(variables, weights, polynomial)
        for cls in sample_top_classes(problem, 3, seed=5):
            self.check(cls, None)

    @pytest.mark.parametrize("form, cap", [("3/2*z", 14), ("x*y - 5/3*x^2*y*z", 14), ("x - 1/2*y", 9)])
    def test_rational_and_two_term_representatives(self, form, cap):
        # rational coefficients and two monomials of one weight put state
        # rows with mu not in {0, 1} into the sweep; x - y/2 at caps >= 6 is
        # solvable at depth 2 only through the state rows with mu = 0
        self.check(top_class(BP, form), cap)

    @pytest.mark.parametrize(
        "variables, weights, polynomial",
        [(["x", "y"], ["1", "-1"], "x^3*y + x^2"), (["x", "y"], ["1", "0"], "x^2*y + x^2")],
    )
    @pytest.mark.parametrize("cap", [2, 5, 9])
    def test_sampled_classes_with_a_non_positive_weight(self, variables, weights, polynomial, cap):
        problem = problem_from_strings(variables, weights, polynomial)
        for cls in sample_top_classes(problem, 3, seed=11):
            self.check(cls, cap)

    def test_inconsistent_step_stops_the_sweep(self, spaces):
        # A class the constructor accepts never reaches this branch: its
        # representative and every df wedge eta_j are closed, so the
        # polynomial Poincare lemma gives primitives of one degree more,
        # within the block caps.  The non-closed z dx^dy drives it here.
        cls = object.__new__(CohomologyClass)
        cls.problem, cls.i, cls.c = BP, 2, 1
        cls.representative = DifferentialForm.monomial_form(3, (0, 1), Polynomial.monomial(3, (0, 0, 1)))
        result = torsion_order_s(cls, self.R_MAX, cap=14)
        assert isinstance(result, NotFoundWithin) and result.cap_limited
        assert len(spaces) == 1  # the sweep stops after the first block
        assert s_reference(cls, self.R_MAX, 14) is None

    def test_exhausted_search_builds_one_space_per_depth(self, spaces, monkeypatch):
        calls = {"rref": 0, "nullspace": 0, "combine": 0}

        def count(module, name):
            original = getattr(module, name)

            def counting(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counting)

        count(linalg, "rref")
        count(linalg, "nullspace")
        count(linalg, "combine")
        cls = top_class(BP, "z")
        for depth in (1, 3, 5):
            spaces.clear()
            calls.update(rref=0, nullspace=0, combine=0)
            assert isinstance(torsion_order_s(cls, depth, cap=14), NotFoundWithin)
            assert len(spaces) == depth  # one block per depth, each built once
            assert [a[2] for a in spaces] == [cls.c + j * BP.scaled_degree for j in range(depth)]
            assert calls == {"rref": depth, "nullspace": 0, "combine": 0}  # one elimination per step


def kernel_solve_reference(problem, space, target):
    """d(eta) = target on the canonical Ker(df wedge) basis, combined back."""
    kernel = engine._df_kernel_vectors(problem, space)
    columns = [form_entries(d_reference(position_form(space, v))) for v in kernel]
    solution = linalg.solve_columns(columns, form_entries(target))
    if solution is None:
        return None
    return position_form(space, linalg.combine(kernel, {j: x for j, x in enumerate(solution) if x}))


def t_reference(cls, p_max, cap):
    """(order, eta) of the first level p whose slice solves f^p rep = d(eta)."""
    problem = cls.problem
    for p in range(1, p_max + 1):
        target = cls.representative * problem.f ** p
        weight = cls.c + p * problem.scaled_degree
        eta_cap = engine._slice_cap(problem, weight, cap, target.total_degree_cap() + 1)
        space = engine.FormSpace(problem, cls.i - 1, weight, eta_cap)
        eta = kernel_solve_reference(problem, space, target)
        if eta is not None:
            return p, eta
    return None


def s_reference(cls, r_max, cap):
    """(order, chain) of the first depth whose full block system over whole
    slices, not restricted to the target's key classes, is consistent."""
    problem = cls.problem
    base, step = engine._block_degrees(cls)
    blocks = []
    for r in range(r_max):
        weight = cls.c + r * problem.scaled_degree
        blocks.append(engine._block(problem, cls.i - 1, weight, cap, None, base + r * step))
        chain = engine._s_chain(blocks, cls.representative)
        if chain is not None:
            return r + 1, chain
    return None


NC22 = problem_from_strings(["x", "y"], ["1", "1"], "x^2*y^2", name="nc22")
CUSP = problem_from_strings(["x", "y"], ["3", "2"], "x^2 + y^3", name="cusp")


class TestKeyClasses:
    """Blocks restricted to the key classes of their target against whole slices."""

    @pytest.mark.parametrize(
        "problem, cap, slice_weights, most_keys",
        [(BP, 8, [-2, 0, 1, 3, 5, 8], 5), (NC22, None, [2, 3, 5, 6], 7), (CUSP, None, [5, 7, 12, 13, 19], 1)],
        ids=["barlet35", "nc22", "cusp"],
    )
    def test_keyed_spaces_partition_each_slice(self, problem, cap, slice_weights, most_keys):
        most = 0
        for i in range(problem.nvars + 1):
            for c in slice_weights:
                space_cap = cap if cap is not None else problem.auto_cap(c)
                whole = engine.FormSpace(problem, i, c, space_cap)
                keys = sorted({problem.key(*item) for item in whole.items})
                parts = [engine.FormSpace(problem, i, c, space_cap, {key}) for key in keys]
                assert sum(part.dim for part in parts) == whole.dim
                assert sorted(item for part in parts for item in part.items) == whole.items
                for key, part in zip(keys, parts):
                    assert part.dim and all(problem.key(*item) == key for item in part.items)
                    if problem is NC22:  # L0 = 0: one vector e + 1_W per class
                        assert len({tuple(e + (k in w) for k, e in enumerate(exp)) for w, exp in part.items}) == 1
                if len(keys) > 1:  # a multi-key space is the union of its classes
                    union = engine.FormSpace(problem, i, c, space_cap, set(keys[:2]))
                    assert union.items == sorted(parts[0].items + parts[1].items)
                most = max(most, len(keys))
        assert most == most_keys  # cusp: Z^2 / L0 = Z, one class per weight

    @pytest.mark.parametrize("problem, cap", [(BP, 8), (NC22, 6), (CUSP, 8)], ids=["barlet35", "nc22", "cusp"])
    def test_items_strictly_ascend(self, problem, cap):
        # column order fixes the canonical kernel bases, and FormSpace makes
        # no sort: the wedges ascend, and so do the exponents of each
        # wedge; slice weights of each sign, with and without keys
        checked = 0
        for i in range(problem.nvars + 1):
            for c in range(-4, 13):
                whole = engine.FormSpace(problem, i, c, cap)
                keys = sorted({problem.key(*item) for item in whole.items})
                keyed = [engine.FormSpace(problem, i, c, cap, {key}) for key in keys]
                keyed += [engine.FormSpace(problem, i, c, cap, set(keys[::2]))] if len(keys) > 2 else []
                for space in [whole, *keyed]:
                    assert all(a < b for a, b in zip(space.items, space.items[1:])), (i, c)
                    checked += space.dim > 1
        assert checked > 10

    @pytest.mark.parametrize("form, found", [("x + y", True), ("x*y + y^2", False)])
    def test_two_key_barlet_targets(self, form, found):
        # the blocks keep the union of both classes; TestStaircase and
        # TestSolveInKernel compare these searches with whole slices
        cls = top_class(BP, form)
        assert len(BP.form_keys(cls.representative)) == 2
        assert isinstance(torsion_order_t(cls, 10, cap=14), TorsionCertificate) is found
        assert isinstance(torsion_order_s(cls, 10, cap=14), TorsionCertificate) is found

    def test_sampled_nc22_s_searches_match_whole_slices(self):
        # nc22 t-searches: TestSolveInKernel.test_sampled_t_searches_match_the_kernel_basis_solve
        for cls in sample_top_classes(NC22, 5, seed=3, degree_bound=4):
            TestStaircase().check(cls, None)

    def test_key_classes_of_barlet35_have_order_five(self):
        # Z^3 / L0 = Z + Z/5: the weight fixes the Z part, so each weight
        # splits the 3-forms x^e dx^dy^dz into five key classes, each keyed
        # by its canonical point of that weight; loading the problem does
        # not build the cosets
        problem = load_problem_file(os.path.join(PROBLEMS, "barlet35.json")).problem
        assert "cosets" not in vars(problem)
        keys = defaultdict(set)
        for exp in itertools.product(range(6), repeat=3):
            key = problem.key((0, 1, 2), exp)
            keys[problem.grading.monomial(key)].add(key)
        assert "cosets" in vars(problem)
        assert {len(keys[c]) for c in range(-1, 7)} == {5}
        assert max(map(len, keys.values())) == 5

    def test_a_problem_loaded_again_starts_with_empty_walk_memos(self):
        # the walks of a germ are kept on its Cosets, which belong to the
        # loaded problem: loading the same file again walks afresh
        path = os.path.join(PROBLEMS, "barlet35.json")
        first = load_problem_file(path).problem
        key = first.key((0, 1, 2), (1, 1, 1))
        for keys in (None, {key}):
            assert engine.FormSpace(first, 3, first.grading.monomial(key), 6, keys).items
        assert first.grading.cosets.walks and first.cosets.walks
        again = load_problem_file(path).problem
        assert again.grading.cosets.walks == {} and again.cosets.walks == {}

    @pytest.mark.parametrize(
        "germ, weights",
        [(("bp3456", ["x", "y", "z", "w"], ["20", "15", "12", "10"], "x^3 + y^4 + z^5 + w^6"), range(57, 200, 11)),
         ("barlet35w.json", range(-3, 9)),
         ("nc22.json", range(0, 9)),
         (("x2y2+z4", ["x", "y", "z"], ["1", "1", "1"], "x^2*y^2 + z^4"), range(0, 9))],
        ids=["bp3456", "barlet35w", "nc22", "x2y2+z4"],
    )
    def test_a_keyed_form_space_is_the_whole_space_filtered(self, germ, weights):
        # each key's FormSpace, walked on its cosets, holds the items of the
        # unkeyed space of that key, in their order; a key of that weight
        # and of no item (some canonical point near 0), none.  L0 is 0 for
        # nc22 (one term), and Z^3 / L0 is Z^2 + Z/2 for x^2 y^2 + z^4
        if isinstance(germ, str):
            problem = load_problem_file(os.path.join(PROBLEMS, germ)).problem
        else:
            problem = problem_from_strings(*germ[1:])
        n, spaces, misses = problem.nvars, 0, 0
        near = {problem.cosets.key(u) for u in itertools.product(range(-2, 4), repeat=n)}
        for i, c in itertools.product((n, n - 1), weights):
            cap = engine._slice_cap(problem, c, 8)
            whole = engine.FormSpace(problem, i, c, cap).items
            keys = {problem.key(*item) for item in whole}
            spaces += len(keys) > 1
            for key in keys:
                assert engine.FormSpace(problem, i, c, cap, {key}).items == [e for e in whole if problem.key(*e) == key]
            assert engine.FormSpace(problem, i, c, cap, keys).items == whole
            absent = {k for k in near if problem.grading.monomial(k) == c} - keys
            assert engine.FormSpace(problem, i, c, cap, absent).items == []
            misses += bool(absent)
        assert spaces > 5 and misses > 5


class TestSolveInKernel:
    """Exponent-arithmetic images and the stacked solve against the
    DifferentialForm-built images and the kernel-basis solve."""

    @pytest.mark.parametrize(
        "variables, weights, polynomial, cap, slice_weights",
        [
            (["x", "y", "z"], ["1", "1", "-1"], "x^5/5 + y^5/5 + x^3*y^3*z/3", 6, [-2, 0, 1, 3, 5]),
            (["x", "y"], ["3", "2"], "x^2 + y^3", None, [0, 3, 5, 7, 12, 13]),
            (["x", "y"], ["1", "1"], "x^2*y^2", None, [1, 3, 4, 6]),
            (["x", "y", "z", "w"], ["6", "4", "4", "3"], "x^2 + y^3 + z^3 + w^4", None, [6, 11, 17, 24]),
            (["x"], ["1"], "x^2", None, [0, 1, 2, 3, 5, 8]),
        ],
        ids=["barlet35", "cusp", "nc22", "bp4", "a1"],
    )
    def test_monomial_images_match_the_form_operators(self, variables, weights, polynomial, cap, slice_weights):
        problem = problem_from_strings(variables, weights, polynomial)
        checked = 0
        for i in range(problem.nvars + 1):
            for c in slice_weights:
                space_cap = cap if cap is not None else problem.auto_cap(c)
                space = engine.FormSpace(problem, i, c, space_cap)
                d_images, df_images = monomial_images(problem.nvars, space.items, partial_terms(problem.f))
                assert len(d_images) == len(df_images) == space.dim
                for (wedge, exp), d_entries, df_entries in zip(space.items, d_images, df_images):
                    beta = DifferentialForm.monomial_form(problem.nvars, wedge, Polynomial.monomial(problem.nvars, exp))
                    assert d_entries == form_entries(d_reference(beta))
                    assert df_entries == form_entries(df_wedge(problem.f, beta))
                    assert all(type(c) is F for _key, c in d_entries + df_entries)
                    checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("monomial", ["1", "z", "z^2", "x*y", "x^2*y^3*z^2", "x + y", "x*y + y^2"])
    def test_barlet_t_search_matches_the_kernel_basis_solve(self, monomial):
        self.check_t(top_class(BP, monomial), 10, 14)

    @pytest.mark.parametrize(
        "variables, weights, polynomial",
        [
            (["x", "y"], ["3", "2"], "x^2 + y^3"),
            (["x", "y"], ["1", "1"], "x^3 + y^3"),
            (["x", "y"], ["1", "1"], "x^2*y^2"),
        ],
        ids=["cusp", "x3y3", "nc22"],
    )
    def test_sampled_t_searches_match_the_kernel_basis_solve(self, variables, weights, polynomial):
        problem = problem_from_strings(variables, weights, polynomial)
        for cls in sample_top_classes(problem, 4, seed=7, degree_bound=4):
            self.check_t(cls, 4, None)

    @staticmethod
    def check_t(cls, p_max, cap):
        result = torsion_order_t(cls, p_max, cap=cap)
        expected = t_reference(cls, p_max, cap)
        if expected is None:
            assert isinstance(result, NotFoundWithin)
        else:
            assert isinstance(result, TorsionCertificate)
            assert (result.order, result.witness) == (expected[0], [expected[1]])

    @pytest.mark.parametrize(
        "f_problem, g_problem",
        [("a1.json", "ts_y3.json"), ("a1.json", "ts_y2.json"), ("cusp.json", "ts_z2.json"), ("x3y3.json", "ts_z2.json")],
    )
    def test_vanishing_certificates_match_the_kernel_basis_solve(self, f_problem, g_problem):
        pf = load_problem_file(os.path.join(PROBLEMS, f_problem)).problem
        pg = load_problem_file(os.path.join(PROBLEMS, g_problem)).problem
        combined = germ.combined_problem(pf, pg)
        nv = combined.nvars
        g_lift = pg.f.remap_variables(nv, list(range(pf.nvars, nv)))
        found = 0
        for cls in ct_basis(pf):
            wf = germ.lift_form(cls.representative, 0, nv)
            for k in range(4):
                result_target, eta = thom_sebastiani.vanish_g_k_dg(cls, pg, combined, k)
                target = wf.wedge(differential(g_lift) * (g_lift ** k))
                assert result_target == target
                weight = combined.grading.form(target)
                space = engine.FormSpace(combined, target.degree - 1, weight, combined.auto_cap(weight))
                expected = kernel_solve_reference(combined, space, target)
                assert eta == expected
                found += expected is not None
        assert found > 0


def t_levels(cls, top, cap):
    """Linear-search reference: the canonical solution (or None) of every level 1..top."""
    levels = []
    for p in range(1, top + 1):
        block = engine._s_block(cls, p, cap)
        target = cls.representative * cls.problem.f**p
        chain = engine._s_chain([block], target)
        levels.append(None if chain is None else chain[0])
    return levels


@pytest.fixture
def t_blocks(monkeypatch):
    """Levels of every _s_block built while the test runs."""
    built = []
    original = engine._s_block

    def counting(cls, j, cap):
        built.append(j)
        return original(cls, j, cap)

    monkeypatch.setattr(engine, "_s_block", counting)
    return built


class TestMonotoneSchedule:
    """torsion_order_t (levels in turn, with a probe at p_max past p0) against solving every level."""

    @staticmethod
    def check(cls, cap, p_maxes):
        levels = t_levels(cls, max(p_maxes), cap)
        for p_max in p_maxes:
            result = torsion_order_t(cls, p_max, cap=cap)
            first = next((p for p in range(1, p_max + 1) if levels[p - 1] is not None), None)
            if first is None:
                assert isinstance(result, NotFoundWithin)
                assert (result.bound, result.cap_limited) == (p_max, not cls.problem.positive_weights)
            else:
                assert isinstance(result, TorsionCertificate)
                assert (result.order, result.witness) == (first, [levels[first - 1]])
        return levels

    @pytest.mark.parametrize("monomial", ["1", "z", "z^2", "x*y", "x^2*y^3*z^2"])
    def test_barlet_classes(self, monomial):
        self.check(top_class(BP, monomial), 14, range(1, 11))

    @pytest.mark.parametrize(
        "variables, weights, polynomial, monomial, order",
        [
            (["x", "y"], ["1", "-1"], "x^3*y + x^2", "y^2", 2),
            (["x", "y"], ["1", "-1"], "x^3*y + x^2", "x*y^3", 2),
            (["x", "y"], ["2", "-1"], "x^2*y^3 + x*y", "y^3", 3),
        ],
    )
    @pytest.mark.parametrize("cap", [0, 3, 6, 9, 14])
    def test_classes_found_late_with_a_negative_weight(self, variables, weights, polynomial, monomial, order, cap):
        cls = top_class(problem_from_strings(variables, weights, polynomial), monomial)
        p0 = engine._monotone_level(cls, cap)
        levels = self.check(cls, cap, sorted({1, p0, p0 + 1, order, order + 1, 7}))
        assert [eta is not None for eta in levels[:order]] == [False] * (order - 1) + [True]

    @pytest.mark.parametrize(
        "variables, weights, polynomial",
        [(["x", "y"], ["1", "1"], "x^2*y^2"), (["x", "y", "z"], ["1", "1", "1"], "x*y*z")],
    )
    def test_sampled_classes_with_positive_weights(self, variables, weights, polynomial):
        # no positive-weight class found above level 1 is known; these cover
        # the probe on classes found at 1 or never
        problem = problem_from_strings(variables, weights, polynomial)
        for cls in sample_top_classes(problem, 4, seed=3, degree_bound=4):
            assert engine._monotone_level(cls, None) == 1
            self.check(cls, None, [1, 2, 3, 5])

    @pytest.mark.parametrize("cap", [0, 3, 6, 9, 14])
    @pytest.mark.parametrize(
        "variables, weights, polynomial, monomial",
        [
            (["x", "y", "z"], ["1", "0", "1"], "x^2*y + y^2*z^2", "x*y"),
            (["x", "y"], ["1", "0"], "x^2*y^2 + x^2*y", "x^2*y"),
            (["x", "y", "z"], ["1", "1", "-1"], "x^5/5 + y^5/5 + x^3*y^3*z/3", "1"),
        ],
    )
    def test_caps_binding_below_p0(self, variables, weights, polynomial, monomial, cap):
        # at caps 9 and 14 the first two germs are solvable at level 1 but not
        # at p0: below p0 solvability is not monotone, so those levels are solved in turn
        cls = top_class(problem_from_strings(variables, weights, polynomial), monomial)
        p0 = engine._monotone_level(cls, cap)
        self.check(cls, cap, sorted({1, p0, p0 + 1, 5}))

    def test_non_monotone_levels_below_p0(self):
        cls = top_class(problem_from_strings(["x", "y", "z"], ["1", "0", "1"], "x^2*y + y^2*z^2"), "x*y")
        assert engine._monotone_level(cls, 9) == 2
        levels = self.check(cls, 9, [1, 2, 3, 5])
        assert [eta is not None for eta in levels] == [True, False, False, False, False]

    @pytest.mark.parametrize(
        "variables, weights, polynomial, monomial, cap",
        [
            (["x", "y"], ["1", "-1"], "x^3*y + x^2", "y^2", 9),
            (["x", "y"], ["2", "-1"], "x^2*y^3 + x*y", "y^3", 12),
            (["x", "y", "z"], ["1", "1", "-1"], "x^5/5 + y^5/5 + x^3*y^3*z/3", "1", 14),
        ],
    )
    def test_f_times_a_primitive_solves_the_next_level_from_p0_on(self, variables, weights, polynomial, monomial, cap):
        cls = top_class(problem_from_strings(variables, weights, polynomial), monomial)
        p0 = engine._monotone_level(cls, cap)
        levels = t_levels(cls, p0 + 3, cap)
        solved = [p for p in range(p0, p0 + 3) if levels[p - 1] is not None]
        assert solved
        for p in solved:
            lifted = levels[p - 1] * cls.problem.f
            assert TorsionCertificate("t", p + 1, [lifted]).verify(cls)
            items = set(engine._s_block(cls, p + 1, cap).space.items)
            assert all(key in items for key, _c in lifted.entries())  # lifted lies in block p + 1

    def test_work_bound(self, t_blocks):
        assert isinstance(torsion_order_t(top_class(BP, "x^2*y^3*z^2"), 10, cap=14), NotFoundWithin)
        assert t_blocks == [1, 10]  # the prefix up to p0 = 1 and the probe at p_max
        t_blocks.clear()
        assert isinstance(torsion_order_t(top_class(BP, "x^2*y^3*z^2"), 2, cap=14), NotFoundWithin)
        assert t_blocks == [1, 2]  # no probe when p_max is the next level anyway
        t_blocks.clear()
        assert torsion_order_t(top_class(BP, "1"), 10, cap=14).order == 1
        assert t_blocks == [1]
        t_blocks.clear()
        cls = top_class(problem_from_strings(["x", "y"], ["1", "-1"], "x^3*y + x^2"), "y^2")
        assert torsion_order_t(cls, 10, cap=6).order == 2
        assert t_blocks == [1, 10, 2]  # the probe at p_max, then the scan goes on
        t_blocks.clear()
        # at cap 14 the same class has p0 = 3: the prefix finds level 2 before any probe
        assert torsion_order_t(cls, 10, cap=14).order == 2
        assert t_blocks == [1, 2]
        t_blocks.clear()
        cls = top_class(problem_from_strings(["x", "y"], ["2", "-1"], "x^2*y^3 + x*y"), "y^3")
        assert engine._monotone_level(cls, 14) == 2
        assert torsion_order_t(cls, 10, cap=14).order == 3
        assert t_blocks == [1, 2, 10, 3]  # every level up to p0 before the probe


class TestSliceOracle:
    def test_slice_dims_against_milnor_algebra(self):
        # independent oracle: for isolated quasi-homogeneous f the top module
        # is free over C{t} on the standard-monomial volume classes, so the
        # weight-c slice dimension equals the count of pairs (a, k >= 0) with
        # wdeg(a) + sum(w) + k*d = c, a running over Jacobian standard
        # monomials.  This checks the whole slice pipeline (kernel, closed
        # forms, boundaries) against pure combinatorics.
        from brieskorn.groebner import standard_monomials

        for text, vs, ws in [
            ("x^2", ["x"], ["1"]),
            ("x^2+y^3", ["x", "y"], ["3", "2"]),
            ("x^3+y^3", ["x", "y"], ["1", "1"]),
            ("x^4+y^3", ["x", "y"], ["3", "4"]),
            ("x^2+y^2+z^2", ["x", "y", "z"], ["1", "1", "1"]),
        ]:
            p = problem_from_strings(vs, ws, text)
            std = standard_monomials(p.jacobian)
            sum_w = sum(p.weights)
            base_weights = [monomial_weight(a, p.weights) + sum_w for a in std]
            top = max(base_weights) + 2 * p.degree
            # enumerate every candidate slice weight up to `top`
            candidates = set()
            for b in base_weights:
                k = 0
                while b + k * p.degree <= top:
                    candidates.add(b + k * p.degree)
                    k += 1
            for c in sorted(candidates):
                expected = sum(
                    1
                    for b in base_weights
                    for k in range(int((top - b) / p.degree) + 2)
                    if b + k * p.degree == c
                )
                assert len(h_slice(p, p.nvars, c).classes) == expected, (text, c)

    @pytest.mark.parametrize("seed", range(6))
    def test_monomial_weights_match_brute_force(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(1, 4)
        weights = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(nvars)]
        # the candidates are integer weights W = L*w, below the integer bound floor(L*bound)
        grading = Grading(weights)
        scale = grading.scale
        for bound in (F(rng.randint(0, 30), rng.randint(1, 3)), F(0), min(weights) / 2, F(-1, 3)):
            ranges = [range(int(bound / w) + 1 if bound >= 0 else 0) for w in weights]
            expected = set()
            for exp in itertools.product(*ranges):
                weight = sum((a * w for a, w in zip(exp, weights)), F(0))
                if weight <= bound:
                    expected.add(weight)
            got = monomial_weights(grading.weights, bound * scale // 1)
            assert {F(s, scale) for s in got} == expected
        assert monomial_weights(grading.weights, F(-1, 3) * scale // 1) == set()


class TestRankAndSpectrum:
    def test_ranks_equal_milnor(self):
        for text, vs, ws, mu in [
            ("x^2+y^2", ["x", "y"], ["1", "1"], 1),
            ("x^2+y^3", ["x", "y"], ["3", "2"], 2),
            ("x^3+y^3", ["x", "y"], ["1", "1"], 4),
            ("x^4+y^3", ["x", "y"], ["3", "4"], 6),
            ("x^2+y^2+z^2", ["x", "y", "z"], ["1", "1", "1"], 1),
        ]:
            p = problem_from_strings(vs, ws, text)
            assert milnor_number(p) == mu
            assert len(ct_basis(p)) == mu

    def test_cusp_spectrum(self):
        p = problem_from_strings(["x", "y"], ["3", "2"], "x^2+y^3")
        assert spectrum(p) == [F(-1, 6), F(1, 6)]

    def test_one_variable_rank(self):
        assert len(ct_basis(A1)) == 1
        p = problem_from_strings(["x"], ["1"], "x^5")
        assert len(ct_basis(p)) == 4
        assert spectrum(p) == [F(k, 5) - 1 for k in range(1, 5)]


CT_GERMS = [
    ("a1", ["x"], ["1"], "x^2"),
    ("cusp", ["x", "y"], ["3", "2"], "x^2 + y^3"),
    ("x3y3", ["x", "y"], ["1", "1"], "x^3 + y^3"),
    ("smooth", ["x"], ["1"], "x"),
    ("e7", ["x", "y"], ["3", "2"], "x^3 + x*y^3"),
    ("d5", ["x", "y"], ["3", "2"], "x^2*y + y^4"),
    ("chain", ["x", "y", "z"], ["3", "2", "2"], "x^2*y + y^3*z + z^4"),
    ("loop", ["x", "y"], ["2", "1"], "x^2*y + x*y^3"),
    ("x3+y3+z3+xyz", ["x", "y", "z"], ["1", "1", "1"], "x^3 + y^3 + z^3 + x*y*z"),
    ("bp3456", ["x", "y", "z", "w"], ["20", "15", "12", "10"], "x^3 + y^4 + z^5 + w^6"),
]


BP33333 = ("bp33333", ["x", "y", "z", "w", "v"], ["1"] * 5, "x^3 + y^3 + z^3 + w^3 + v^3")
# [m] is not 0 among its keys, and some of its generator weights lie D apart,
# yet no generator seeds another: their keys, moved by [m], differ
D4_Z7_W7 = ("d4+z7+w7", ["x", "y", "z", "w"], ["7", "7", "3", "3"], "x^3 + x*y^2 + z^7 + w^7")
# its slices at 8 and 12 hold the seeds f*vol and f^2*vol besides new classes
QUARTIC = ("x4+y4+z4+w4+xyzw", ["x", "y", "z", "w"], ["1"] * 4, "x^4 + y^4 + z^4 + w^4 + x*y*z*w")
KEYED_GERMS = [*CT_GERMS, BP33333, D4_Z7_W7, QUARTIC]
SEEDED_GERMS = [CT_GERMS[8], QUARTIC]


class TestCtBasisSlices:
    """ct_basis visits only the slices that carry a new C{t}-generator and
    seeds each from the generators found below it; the scan of every slice
    weight, which seeds each slice from the whole slice c - D, is its
    reference."""

    @pytest.mark.parametrize(
        "variables, weights, polynomial", [g[1:] for g in KEYED_GERMS], ids=[g[0] for g in KEYED_GERMS]
    )
    def test_the_classes_of_the_scan_of_every_slice(self, variables, weights, polynomial):
        p = problem_from_strings(variables, weights, polynomial)
        got = [cls.serialize() for cls in ct_basis(p)]
        assert got == [cls.serialize() for cls in ct_basis_over_every_slice(p)]
        assert len(got) == milnor_number(p)

    @pytest.mark.parametrize("name, visited, scanned", [("bp3456", 68, 100), ("cusp", 2, 2)])
    def test_h_slice_calls(self, name, visited, scanned, monkeypatch):
        germ = next(g for g in CT_GERMS if g[0] == name)
        p = problem_from_strings(*germ[1:])
        calls = []

        def spy(module):
            original = module.h_slice
            monkeypatch.setattr(module, "h_slice", lambda *a, **k: calls.append(a[2]) or original(*a, **k))

        spy(engine)
        ct_basis(p)
        assert len(calls) == visited
        if name == "cusp":
            assert calls == [5, 7]  # each weight of a standard monomial plus sum W, no predecessor
        calls.clear()
        spy(oracles)
        ct_basis_over_every_slice(p)
        assert len(calls) == scanned


class TestCtBasisKeys:
    """ct_basis visits each weight of its standard monomials x^a * vol once,
    on their key classes only, and seeds it with f^k times the generators of
    weight c - kD whose keys, moved by k[m], are among those."""

    @pytest.mark.parametrize(
        "variables, weights, polynomial", [g[1:] for g in KEYED_GERMS], ids=[g[0] for g in KEYED_GERMS]
    )
    def test_classes_per_weight_and_key_are_the_standard_monomials(self, variables, weights, polynomial):
        p = problem_from_strings(variables, weights, polynomial)
        vol, sum_w = tuple(range(p.nvars)), sum(p.grading.weights)
        expected = Counter(
            (p.grading.monomial(e) + sum_w, p.key(vol, e)) for e in groebner.standard_monomials(p.jacobian)
        )
        got = Counter((cls.c, key) for cls in ct_basis(p) for key in p.form_keys(cls.representative))
        assert got == expected

    @pytest.mark.parametrize(
        "variables, weights, polynomial", [g[1:] for g in KEYED_GERMS], ids=[g[0] for g in KEYED_GERMS]
    )
    def test_h_slice_visits_are_the_weights_and_keys_of_the_standard_monomials(
        self, variables, weights, polynomial, monkeypatch
    ):
        p = problem_from_strings(variables, weights, polynomial)
        visits, slice_ = [], engine.h_slice

        def spy(problem, i, c, cap=None, keys=None, seeds=()):
            visits.append((c, keys))
            return slice_(problem, i, c, cap, keys, seeds)

        monkeypatch.setattr(engine, "h_slice", spy)
        ct_basis(p)
        vol, sum_w = tuple(range(p.nvars)), sum(p.grading.weights)
        expected = defaultdict(set)
        for e in groebner.standard_monomials(p.jacobian):
            expected[F(p.grading.monomial(e) + sum_w, p.grading.scale)].add(p.key(vol, e))
        assert visits == sorted(expected.items())

    @pytest.mark.parametrize("germ, seeds", [(SEEDED_GERMS[0], 1), (QUARTIC, 21)], ids=[g[0] for g in SEEDED_GERMS])
    def test_the_seeds_are_a_basis_of_t_times_the_slice_below(self, germ, seeds, monkeypatch):
        # #seeds + #new = dim: the seeds are independent modulo boundaries,
        # and as the new classes number the standard monomials, they span
        # t(slice c - D) on the visited keys
        p = problem_from_strings(*germ[1:])
        visits, slice_ = {}, engine.h_slice

        def spy(problem, i, c, cap=None, keys=None, seeds=()):
            seeds = list(seeds)
            sl = slice_(problem, i, c, cap, keys, seeds)
            visits[sl.c] = seeds
            assert len(seeds) + len(sl.classes) == len(slice_(problem, i, c, cap, keys).classes)
            return sl

        monkeypatch.setattr(engine, "h_slice", spy)
        ct_basis(p)
        assert sum(map(len, visits.values())) == seeds
        vol = volume_form(p.nvars)
        assert vol * p.f in visits[2 * p.scaled_degree]
        if germ is QUARTIC:
            assert vol * p.f**2 in visits[3 * p.scaled_degree]

    def test_seeds_are_reduced_with_the_boundaries(self):
        # the slice 2D of x^3 + y^3 + z^3 + xyz: no seed changes nothing, and
        # its one seed f * vol takes away one class
        p = problem_from_strings(*SEEDED_GERMS[0][1:])
        c = 2 * p.degree
        unseeded = [cls.serialize() for cls in h_slice(p, p.nvars, c).classes]
        assert [cls.serialize() for cls in h_slice(p, p.nvars, c, seeds=[]).classes] == unseeded
        assert len(h_slice(p, p.nvars, c, seeds=[volume_form(p.nvars) * p.f]).classes) == len(unseeded) - 1

    def test_a_dropped_seed_is_an_invariant_violation(self, tmp_path, monkeypatch, capsys):
        # without its one seed f * vol, the slice 2D of x^3 + y^3 + z^3 + xyz
        # shows a new class more than its standard monomials of that key
        name, variables, weights, polynomial = SEEDED_GERMS[0]
        slice_ = engine.h_slice
        monkeypatch.setattr(engine, "h_slice", lambda *a, seeds=(), **k: slice_(*a, seeds=list(seeds)[1:], **k))
        with pytest.raises(InvariantViolation, match="new C.t.-generators of key"):
            ct_basis(problem_from_strings(variables, weights, polynomial))
        problem = tmp_path / "cubic.json"
        germ = {"name": name, "variables": variables, "weights": weights, "polynomial": polynomial}
        problem.write_text(json.dumps(germ))
        report = tmp_path / "report.json"
        assert cli_main(["spectrum", str(problem), "--out", str(report)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert "invariant violation: " in captured.err and "Traceback" not in captured.err
        assert not report.exists()

    @pytest.mark.parametrize(
        "germ, dim_sum, h_slice_calls",
        [
            (CT_GERMS[1], 6, 2),
            (CT_GERMS[2], 12, 3),
            (CT_GERMS[6], 103, 9),
            (CT_GERMS[-1], 600, 68),
            (BP33333, 192, 6),
            (D4_Z7_W7, 1044, 33),
        ],
        ids=["cusp", "x3y3", "chain", "bp3456", "bp33333", "d4+z7+w7"],
    )
    def test_slice_space_dims_are_pinned(self, germ, dim_sum, h_slice_calls, monkeypatch):
        # over whole slices the dims were 6, 24, 2132 and 2557 for cusp, x3y3,
        # bp3456 and bp33333, and with their t-predecessors' keys chain's were
        # 107 and d4+z7+w7's 1054: the cusp has one key class per weight
        # (Z^2 / L0 is the weight alone), so its slices stay whole
        p = problem_from_strings(*germ[1:])
        dims, calls = [], []
        init, slice_ = engine.FormSpace.__init__, engine.h_slice

        def spy_init(space, *args, **kwargs):
            init(space, *args, **kwargs)
            dims.append(space.dim)

        monkeypatch.setattr(engine.FormSpace, "__init__", spy_init)
        monkeypatch.setattr(engine, "h_slice", lambda *a, **k: calls.append(a[2]) or slice_(*a, **k))
        ct_basis(p)
        assert (sum(dims), len(calls)) == (dim_sum, h_slice_calls)
        keys = defaultdict(set)
        for e in itertools.product(range(4), repeat=p.nvars):
            keys[p.grading.monomial(e)].add(p.key((), e))
        assert (max(map(len, keys.values())) == 1) == (germ[0] == "cusp")

    @pytest.mark.parametrize(
        "problem, i, c, cap",
        [(problem_from_strings(*BP33333[1:]), 5, 8, None), (BP, 3, 0, 6), (BP, 3, 2, 6), (BP, 1, 5, 6)],
        ids=["bp33333-H5", "barlet35-H3-c0", "barlet35-H3-c2", "barlet35-H1"],
    )
    def test_a_keyed_slice_is_the_whole_slice_restricted(self, problem, i, c, cap):
        whole = h_slice(problem, i, F(c), cap)
        keys = {problem.key(*item) for item in engine.FormSpace(problem, i, c, whole.cap).items}
        assert len(keys) > 1
        for key in sorted(keys):
            keyed = h_slice(problem, i, F(c), cap, keys={key})
            kept = [cls for cls in whole.classes if problem.form_keys(cls.representative) == {key}]
            assert [cls.serialize() for cls in keyed.classes] == [cls.serialize() for cls in kept]


class TestThetaAndDelta:
    def test_xy(self):
        p = problem_from_strings(["x", "y"], ["1", "1"], "x*y")
        fields = theta_f(p, 3)
        assert any(
            v[0] == parse_polynomial("x", ["x", "y"]) and v[1] == parse_polynomial("-y", ["x", "y"]) for v in fields
        ) or any(
            v[0] == parse_polynomial("-x", ["x", "y"]) and v[1] == parse_polynomial("y", ["x", "y"]) for v in fields
        )
        assert delta_at_origin(p) == 0

    def test_cylinder(self):
        p = problem_from_strings(["x", "y", "z"], ["1", "1", "1"], "x^2+y^2")
        assert delta_at_origin(p) == 1

    def test_smooth_many_variables(self):
        p = problem_from_strings(["x", "y", "z", "w"], ["1", "1", "1", "1"], "x")
        assert delta_at_origin(p) == 3
        assert theta_f(p, 1)  # contains the coordinate fields

    def test_theta_annihilates_f(self):
        for v in theta_f(BP, 6):
            assert apply(v, BP.f).is_zero


class TestPPrime:
    def test_two_variable_cases_hold(self):
        p1 = problem_from_strings(["x", "y"], ["1", "1"], "x^2*y^2")
        assert check_p_prime(p1, 2, 8) is None
        p2 = problem_from_strings(["x", "y"], ["1", "1"], "x^3+y^3")
        assert check_p_prime(p2, 2, 8) is None

    def test_barlet_fails_with_witness(self):
        witness = check_p_prime(BP, 3, 7)
        assert witness is not None
        assert witness.serialize(BP.variables) == "-y^5*z^2 dx^dy^dz"

    def test_requires_degree_two(self):
        with pytest.raises(ValueError):
            check_p_prime(BP, 1, 4)

    @pytest.mark.parametrize("problem, i", [(problem_from_strings(["x", "y"], ["1", "1"], "x^3+y^3"), 2), (BP, 2)])
    def test_three_spaces_per_weight(self, problem, i, spaces, slice_route):
        # the spans are keyed by monomial form: no degree-i space is built,
        # only A^(i-1) at c and Omega^(i-1), Omega^(i-2) one f-degree below
        # (on the slice route: x^3 + y^3 holds by theorem without a space)
        assert check_p_prime(problem, i, 4) is None
        below = problem.scaled_degree
        expected = [
            (degree, weight)
            for c in sorted(engine._realized_form_weights(problem, i, 4))
            for degree, weight in ((i - 1, c), (i - 1, c - below), (i - 2, c - below))
        ]
        assert [(args[1], args[2]) for args in spaces] == expected

    def test_positive_weights_give_whole_slices(self, spaces, slice_route):
        # with the degree bound as the cap, cusp's degree-1 spaces at c = 18..23
        # held 5, 4, 4, 3, 2, 2 forms of the whole slices' 6, 6, 7, 7, 7, 8
        assert check_p_prime(CUSP, 2, 6) is None
        built = list(spaces)
        assert len(built) == 3 * len(engine._realized_form_weights(CUSP, 2, 6))
        for problem, i, c, cap in built:
            # every weight is >= 1, so a form of weight c has coefficient degree <= c
            assert engine.FormSpace(problem, i, c, cap).dim == engine.FormSpace(problem, i, c, max(c, 0)).dim


X3Y3 = problem_from_strings(["x", "y"], ["1", "1"], "x^3 + y^3", name="x3y3")
Q4 = problem_from_strings(["x", "y", "z", "w"], ["1", "1", "1", "1"], "x^2 + y^2 + z^2 + w^2", name="q4")
BP345567 = problem_from_strings(
    ["x", "y", "z", "w", "v", "u"], ["140", "105", "84", "84", "70", "60"], "x^3 + y^4 + z^5 + w^5 + v^6 + u^7",
    name="bp345567",
)
# check-p report digests of write_problem(BP345567) by --max-degree, recorded
# on the slice route at 6 and 10; at 14 that route did not finish in 60 s
BP345567_CHECK_P = {
    6: "667865450aa151f57b01abaca071a627430b71367a06283a57a9f3c915e92fc3",
    10: "92b006b6526920d11d20512e4e63a15f41e52b73f39795edf9d364bfde7609a9",
    14: None,
}


def zero_top_class(problem, wedge, monomial):
    """The class of df wedge d(m dx_W), which is zero in H''."""
    eta = DifferentialForm.monomial_form(problem.nvars, wedge, parse_polynomial(monomial, problem.variables))
    return CohomologyClass(problem, problem.nvars, df_wedge(problem.f, eta.exterior_derivative()))


def both_routes(monkeypatch, run, *args):
    """run(*args) as it stands, then on the slice route (engine.h_free False)."""
    theorem = run(*args)
    with monkeypatch.context() as m:
        m.setattr(engine, "h_free", lambda problem: False)
        return theorem, run(*args)


def run_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_problem(tmp_path, problem):
    path = tmp_path / f"{problem.name}.json"
    data = {k: problem.serialize()[k] for k in ("name", "variables", "weights", "polynomial")}
    path.write_text(json.dumps(data) + "\n")
    return str(path)


class TestTheoremExits:
    """On an isolated germ with positive weights (engine.h_free) check_p_prime
    and the torsion searches stop where the theorem answers; the slice route
    they skip stays the reference, field for field."""

    def test_h_free(self):
        smooth = problem_from_strings(["x", "y"], ["2", "1"], "x + y^2")  # J(f) is the unit ideal
        for problem in (A1, CUSP, X3Y3, Q4, smooth):
            assert engine.h_free(problem)
        # a non-positive weight is decided before any Groebner basis; x^2*y^2 is not isolated
        for problem in (BP, NC22, problem_from_strings(["x", "y"], ["1", "0"], "x^2")):
            assert not engine.h_free(problem)

    def test_isolation_is_read_from_the_leads_alone(self):
        # J(f) = (x^19999, y): standard_monomials refuses its box of 19,999
        # exponents, but its pure-power leads decide isolation
        problem = problem_from_strings(["x", "y"], ["1", "10000"], "x^20000 + y^2")
        with pytest.raises(LimitExceeded):
            milnor_number(problem)
        assert engine.h_free(problem)

    @pytest.mark.parametrize(
        "problem, monomials, zero_wedges",
        [
            (CUSP, ["1", "y", "x", "x*y", "y^4"], [((), "y"), ((), "x*y")]),
            (X3Y3, ["1", "x", "x*y", "x^2", "x^2*y"], [((), "x")]),
            (Q4, ["1", "x", "x^2", "x*y*z*w"], [((0, 1), "z"), ((1, 3), "x^2")]),
        ],
        ids=["cusp", "x3y3", "q4"],
    )
    def test_agrees_with_the_slice_route(self, problem, monomials, zero_wedges, monkeypatch):
        assert engine.h_free(problem)
        classes = [top_class(problem, m) for m in monomials]
        classes += [zero_top_class(problem, wedge, m) for wedge, m in zero_wedges]
        outcomes = Counter()
        for cls in classes:
            for p_max in (1, 2, 4):
                theorem, reference = both_routes(monkeypatch, torsion_order_t, cls, p_max)
                assert theorem == reference
            for r_max in (1, 3):
                theorem, reference = both_routes(monkeypatch, torsion_order_s, cls, r_max)
                assert theorem == reference
                outcomes[type(theorem).__name__] += 1
        for i in range(2, problem.nvars + 1):
            theorem, reference = both_routes(monkeypatch, check_p_prime, problem, i, 4)
            assert theorem is reference is None
        assert outcomes["TorsionCertificate"] and outcomes["NotFoundWithin"]

    def test_a_zero_class_is_found_at_order_one(self):
        # x vol = 1/2 df^dy on the cusp: zero in H'', so both searches find it at once
        cls = top_class(CUSP, "x")
        assert cls.representative == zero_top_class(CUSP, (), "y").representative * F(1, 2)
        for search in (torsion_order_t, torsion_order_s):
            cert = search(cls, 4)
            assert isinstance(cert, TorsionCertificate) and cert.order == 1 and cert.verify(cls)

    def test_check_p_builds_no_space(self, tmp_path, spaces, capsys):
        for problem in (CUSP, X3Y3, Q4):
            assert check_p_prime(problem, problem.nvars, 6) is None
        # mu = 2,880; the slice route took 0.8 s at degree 6, 10 s at 10 and over 60 s at 14
        path = write_problem(tmp_path, BP345567)
        for bound, digest in BP345567_CHECK_P.items():
            report = tmp_path / f"check-p-{bound}.json"
            assert cli_main(["check-p", path, "--max-degree", str(bound), "--out", str(report)]) == 0
            assert json.loads(report.read_text())["result"]["holds"]
            if digest is not None:
                assert run_sha256(report) == digest
        assert spaces == []
        capsys.readouterr()

    def test_torsion_on_a_nonzero_class_builds_blocks_zero_and_one(self, tmp_path, spaces, capsys):
        cls = top_class(Q4, "x^10")
        assert torsion_order_t(cls, 10) == NotFoundWithin(10, False)
        assert [(a[1], a[2]) for a in spaces] == [(3, cls.c + Q4.scaled_degree)]  # level 1, no probe at 10
        spaces.clear()
        assert torsion_order_s(cls, 10) == NotFoundWithin(10, False)
        assert [(a[1], a[2]) for a in spaces] == [(3, cls.c)]  # step 0 only
        spaces.clear()
        argv = ["torsion", write_problem(tmp_path, Q4), "--monomial", "x^10", "--max-t-power", "3", "--max-s-power", "3"]
        assert cli_main(argv) == 2
        assert [a[2] for a in spaces] == [cls.c + Q4.scaled_degree, cls.c]
        capsys.readouterr()


class TestZeroWeight:
    def test_zero_weight_variable(self):
        # weights may be zero; slices then need explicit caps
        p = problem_from_strings(["x", "y"], ["1", "0"], "x^2")
        assert not p.positive_weights
        with pytest.raises(CapExceeded):
            h_slice(p, 1, F(1))
        sl = h_slice(p, 1, F(1), cap=6)
        assert sl.cap_relative
        # the kernel is spanned by y^j dx, but only dx is closed
        assert len(sl.classes) == 1


class TestPullbackInvariance:
    def test_inert_variable_preserves_slices(self):
        base = problem_from_strings(["x", "y"], ["1/2", "1/3"], "x^2+y^3")
        lifted = extend_with_inert_variable(base, "z", 1)
        weights = [F(5, 6), F(7, 6), F(3, 2), F(11, 6), F(13, 6)]
        for c in weights:
            assert len(h_slice(base, 2, c).classes) == len(h_slice(lifted, 2, c).classes)

    def test_inert_variable_preserves_h1(self):
        base = problem_from_strings(["x", "y"], ["1", "1"], "x*y")
        lifted = extend_with_inert_variable(base, "z", 1)
        for c in [F(2), F(3), F(4)]:
            assert len(h_slice(base, 1, c).classes) == len(h_slice(lifted, 1, c).classes)
