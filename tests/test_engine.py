"""Engine: germ problems, weight slices, module actions, torsion, (P')."""

import itertools
import os
import random
from fractions import Fraction as F

import pytest

from brieskorn import engine, linalg, thom_sebastiani
from brieskorn.engine import (
    CapExceeded,
    CohomologyClass,
    DegenerateWeight,
    InvariantViolation,
    NotFoundWithin,
    TorsionCertificate,
    check_p_prime,
    class_is_boundary,
    ct_basis,
    delta_at_origin,
    extend_with_inert_variable,
    h_slice,
    kernel_forms,
    kernel_generator_forms,
    milnor_number,
    problem_from_strings,
    random_kernel_elements,
    s_action,
    sample_top_classes,
    spectrum,
    t_action,
    tdt_action,
    theta_f,
    torsion_order_s,
    torsion_order_t,
)
from brieskorn.forms import DifferentialForm, df_wedge, differential, volume_form
from brieskorn.groebner import SubmoduleOfFree, modules_equal
from brieskorn.poly import Polynomial, parse_polynomial
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
        assert BP.xi.apply(BP.f) == BP.f
        assert BP.euler_field.apply(BP.f) == BP.f * BP.degree

    def test_milnor(self):
        assert milnor_number(A1) == 1
        assert milnor_number(problem_from_strings(["x", "y"], ["1", "1"], "x^2+y^2")) == 1
        assert milnor_number(problem_from_strings(["x", "y"], ["1", "1"], "x^3+y^3")) == 4
        assert milnor_number(BP) is None


class TestKernelForms:
    def test_barlet_kernel_matches_displayed_generators(self):
        vs = BP.variables
        P = lambda s: parse_polynomial(s, vs)
        displayed = SubmoduleOfFree(
            3,
            [
                (P("-3*(x^2+y^3*z)"), P("0"), P("x*y^3")),
                (P("3*(y^2+x^3*z)"), P("x^3*y"), P("0")),
                (P("3*(y - x*y^2*z^2)"), P("x^3"), P("x^2*y^2*z")),
                (P("-3*(x - x^2*y*z^2)"), P("x^2*y^2*z"), P("y^3")),
            ],
        )
        assert modules_equal(kernel_forms(BP, 2), displayed)

    def test_xy_kernel_is_df(self):
        p = problem_from_strings(["x", "y"], ["1", "1"], "x*y")
        gens = kernel_generator_forms(p, 1)
        df = differential(p.f)
        module = kernel_forms(p, 1)
        expected = SubmoduleOfFree(2, [(df.coeffs[(0,)], df.coeffs[(1,)])])
        assert modules_equal(module, expected)
        assert all(df_wedge(p.f, g).is_zero for g in gens)

    def test_one_variable_top(self):
        p = problem_from_strings(["x"], ["1"], "x")
        gens = kernel_generator_forms(p, 1)
        assert len(gens) == 1 and gens[0] == DifferentialForm(1, 1, {(0,): Polynomial.constant(1, 1)})


class TestSlices:
    def test_a1_slices(self):
        sl = h_slice(A1, 1, F(1))
        assert sl.dim == 1
        assert sl.classes[0].representative == DifferentialForm(1, 1, {(0,): Polynomial.constant(1, 1)})
        assert h_slice(A1, 1, F(2)).dim == 1  # x dx
        assert h_slice(A1, 1, F(3)).dim == 1  # x^2 dx (nonzero, but t-divisible)

    def test_smooth_rank_one(self):
        p = problem_from_strings(["x"], ["1"], "x")
        assert len(ct_basis(p, reduced=False)) == 1
        assert len(ct_basis(p, reduced=True)) == 0

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
    """(classes, reducer) of the weight-c slice of H^i with d taken through
    the DifferentialForm operators: FormSpace.form, exterior_derivative and
    FormSpace.vec of every kernel vector."""
    space = engine.FormSpace(problem, i, c, cap)
    kernel = engine._df_kernel_vectors(problem, space)
    closed = kernel
    if i < problem.n:
        img = engine.DynamicIndex()
        columns = [img.vec(engine._form_entries(space.form(v).exterior_derivative())) for v in kernel]
        combos = linalg.nullspace(linalg.transpose(columns), len(kernel))
        closed = [v for v in (engine._combine(kernel, combo) for combo in combos) if v]
    reducer = linalg.Echelon()
    if i >= 1:
        prev = engine.FormSpace(problem, i - 1, c, cap + 1)
        for v in engine._df_kernel_vectors(problem, prev):
            d_img = prev.form(v).exterior_derivative()
            if d_img:
                reducer.add(space.vec(d_img))
    classes = []
    ech = linalg.Echelon()
    ech.rows, ech.pivots = [dict(r) for r in reducer.rows], list(reducer.pivots)
    for v in closed:
        residue = ech.reduce(v)
        if residue:
            inv = 1 / residue[min(residue)]
            rep = space.form({k: val * inv for k, val in residue.items()})
            classes.append(CohomologyClass(problem, i, rep))
            ech.add(v)
    return classes, reducer


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
        for i in range(problem.n + 1):
            for c in slice_weights:
                sl = h_slice(problem, i, F(c), cap)
                classes, reducer = h_slice_reference(problem, i, F(c), sl.cap)
                assert sl.dim == len(classes)
                assert [cls.serialize() for cls in sl.classes] == [cls.serialize() for cls in classes]
                for k in range(sl.space.dim):
                    basis_form = sl.space.form({k: F(1)})
                    assert sl.reduce(basis_form) == reducer.reduce({k: F(1)})
                if i < problem.n:
                    classes_seen += sl.dim
                boundaries_seen += reducer.rank
        # both new paths ran: d restricted to a nonzero kernel below the top
        # degree, and d(A^(i-1)) from a nonzero kernel
        assert classes_seen and boundaries_seen

    @pytest.mark.parametrize("seed", range(6))
    def test_ct_basis_weights_match_brute_force(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(1, 4)
        weights = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(nvars)]
        for bound in (F(rng.randint(0, 30), rng.randint(1, 3)), F(0), min(weights) / 2, F(-1, 3)):
            ranges = [range(int(bound / w) + 1 if bound >= 0 else 0) for w in weights]
            expected = set()
            for exp in itertools.product(*ranges):
                weight = sum((a * w for a, w in zip(exp, weights)), F(0))
                if weight <= bound:
                    expected.add(weight)
            assert engine._monomial_weights(weights, bound) == expected
        assert engine._monomial_weights(weights, F(-1, 3)) == set()


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
        with pytest.raises(DegenerateWeight):
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
            for item in ct_basis(p, reduced=True):
                cls = item.cls
                c, d = cls.weight, p.degree
                assert s_action(cls).representative == t_action(cls).representative * (d / c)
                assert tdt_action(cls).representative == cls.representative * (c / d - 1)
                assert F(-1) < c / d - 1 < p.n

    def test_laws_on_degree_one_slice_classes(self):
        # H^1 slices of an isolated 2-variable germ carry the f^k df orbit;
        # the laws and the degree-one antiderivative normalization apply there
        p = problem_from_strings(["x", "y"], ["3", "2"], "x^2+y^3")
        for k in (0, 1):
            c = F(6) * (k + 1)
            sl = h_slice(p, 1, c)
            assert sl.dim == 1
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
                assert df_wedge(p.f, omega.interior_product(p.xi)) == omega * p.f
        for omega in random_kernel_elements(BP, 2, 100, seed=10):
            assert df_wedge(BP.f, omega.interior_product(BP.xi)) == omega * BP.f

    def test_commutation_on_classes(self):
        # t(s(w)) - s(t(w)) = s(s(w)) exactly on representatives
        count = 0
        for text, vs, ws in self.CORPUS:
            p = problem_from_strings(vs, ws, text)
            for item in ct_basis(p, reduced=True):
                cls = item.cls
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
        cls = ct_basis(p, reduced=True)[0].cls
        assert isinstance(torsion_order_t(cls, 6), NotFoundWithin)
        assert isinstance(torsion_order_s(cls, 6), NotFoundWithin)

    def test_smooth_free(self):
        p = problem_from_strings(["x"], ["1"], "x")
        cls = ct_basis(p, reduced=False)[0].cls
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


def top_class(problem, monomial):
    poly = parse_polynomial(monomial, problem.variables)
    return CohomologyClass(problem, problem.n, volume_form(problem.nvars, poly))


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
        cls.problem, cls.i, cls.weight = BP, 2, F(1)
        cls.representative = DifferentialForm.monomial_form(3, (0, 1), Polynomial.monomial(3, (0, 0, 1)))
        result = torsion_order_s(cls, self.R_MAX, cap=14)
        assert isinstance(result, NotFoundWithin) and result.cap_limited
        assert len(spaces) == 1  # the sweep stops after the first block
        assert s_reference(cls, self.R_MAX, 14) is None

    def test_exhausted_search_builds_one_space_per_depth(self, spaces, monkeypatch):
        calls = {"rref": 0, "nullspace": 0, "_combine": 0}

        def count(module, name):
            original = getattr(module, name)

            def counting(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counting)

        count(linalg, "rref")
        count(linalg, "nullspace")
        count(engine, "_combine")
        cls = top_class(BP, "z")
        for depth in (1, 3, 5):
            spaces.clear()
            calls.update(rref=0, nullspace=0, _combine=0)
            assert isinstance(torsion_order_s(cls, depth, cap=14), NotFoundWithin)
            assert len(spaces) == depth  # one block per depth, each built once
            assert [a[2] for a in spaces] == [cls.weight + j * BP.degree for j in range(depth)]
            assert calls == {"rref": depth, "nullspace": 0, "_combine": 0}  # one elimination per step


def kernel_solve_reference(problem, space, target):
    """d(eta) = target on the canonical Ker(df wedge) basis, combined back."""
    kernel = engine._df_kernel_vectors(problem, space)
    img = engine.DynamicIndex()
    columns = [img.vec(engine._form_entries(space.form(v).exterior_derivative())) for v in kernel]
    solution = linalg.solve_columns(columns, img.vec(engine._form_entries(target)))
    if solution is None:
        return None
    return space.form(engine._combine(kernel, {j: x for j, x in enumerate(solution) if x}))


def t_reference(cls, p_max, cap):
    """(order, eta) of the first level p whose slice solves f^p rep = d(eta)."""
    problem = cls.problem
    for p in range(1, p_max + 1):
        target = cls.representative * problem.f ** p
        weight = cls.weight + p * problem.degree
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
        weight = cls.weight + r * problem.degree
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
        for i in range(problem.n + 1):
            for c in map(F, slice_weights):
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
        # Z^3 / L0 = Z + Z/5: past the weight, one congruence mod 5 splits
        # the 3-forms x^e dx^dy^dz into five classes; loading the problem
        # does not compute it
        problem = load_problem_file(os.path.join(PROBLEMS, "barlet35.json")).problem
        assert problem._congruences is None
        assert [m for _c, m in problem.congruences] == [5]
        keys = {problem.key((0, 1, 2), exp) for exp in itertools.product(range(5), repeat=3)}
        assert len(keys) == 5


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
        for i in range(problem.n + 1):
            for c in slice_weights:
                space_cap = cap if cap is not None else problem.auto_cap(F(c))
                space = engine.FormSpace(problem, i, F(c), space_cap)
                d_images, df_images = engine._monomial_images(problem.f, space.items)
                assert len(d_images) == len(df_images) == space.dim
                for (wedge, exp), d_entries, df_entries in zip(space.items, d_images, df_images):
                    beta = DifferentialForm.monomial_form(problem.nvars, wedge, Polynomial.monomial(problem.nvars, exp))
                    assert d_entries == list(engine._form_entries(beta.exterior_derivative()))
                    assert df_entries == list(engine._form_entries(df_wedge(problem.f, beta)))
                    assert all(type(c) is F for _key, c in d_entries + df_entries)
                    checked += 1
        assert checked >= 10

    def test_dynamic_index_sums_collisions_and_drops_zeros(self):
        index = engine.DynamicIndex()
        keyed = [("a", F(1, 2)), ("b", F(3)), ("a", F(1, 3)), ("c", F(2)), ("c", F(-2)), ("d", F(0))]
        assert index.vec(keyed) == {0: F(5, 6), 1: F(3)}
        assert index.index == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert index.vec([("d", F(-1)), ("e", F(7, 2))]) == {3: F(-1), 4: F(7, 2)}

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
        combined = thom_sebastiani.combined_problem(pf, pg)
        nv = combined.nvars
        g_lift = pg.f.remap_variables(nv, list(range(pf.nvars, nv)))
        found = 0
        for item in ct_basis(pf):
            wf = thom_sebastiani.lift_form(item.cls.representative, 0, nv)
            for k in range(4):
                h, result_target, result = thom_sebastiani.vanish_g_k_dg(item.cls, pg, k)
                target = wf.wedge(differential(g_lift) * (g_lift ** k))
                assert (h.variables, h.f, result_target) == (combined.variables, combined.f, target)
                weight = target.weighted_degree(combined.weights)
                space = engine.FormSpace(combined, target.degree - 1, weight, combined.auto_cap(weight))
                expected = kernel_solve_reference(combined, space, target)
                if expected is None:
                    assert isinstance(result, NotFoundWithin)
                else:
                    found += 1
                    assert (result.kind, result.order, result.witness) == ("t", 0, [expected])
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
            engine._s_block(cls, p + 1, cap).space.vec(lifted)  # raises outside the block

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
        from brieskorn.poly import monomial_weight

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
                assert h_slice(p, p.n, c).dim == expected, (text, c)


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
            assert len(ct_basis(p, reduced=True)) == mu

    def test_cusp_spectrum(self):
        p = problem_from_strings(["x", "y"], ["3", "2"], "x^2+y^3")
        assert spectrum(p) == [F(-1, 6), F(1, 6)]

    def test_one_variable_unreduced_rank(self):
        assert len(ct_basis(A1, reduced=False)) == 2
        p = problem_from_strings(["x"], ["1"], "x^5")
        assert len(ct_basis(p, reduced=False)) == 5
        assert spectrum(p, reduced=True) == [F(k, 5) - 1 for k in range(1, 5)]


class TestThetaAndDelta:
    def test_xy(self):
        p = problem_from_strings(["x", "y"], ["1", "1"], "x*y")
        fields = theta_f(p, 3)
        assert any(
            v.components[0] == parse_polynomial("x", ["x", "y"])
            and v.components[1] == parse_polynomial("-y", ["x", "y"])
            for v in fields
        ) or any(
            v.components[0] == parse_polynomial("-x", ["x", "y"])
            and v.components[1] == parse_polynomial("y", ["x", "y"])
            for v in fields
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
            assert v.apply(BP.f).is_zero


class TestPPrime:
    def test_two_variable_cases_hold(self):
        p1 = problem_from_strings(["x", "y"], ["1", "1"], "x^2*y^2")
        assert check_p_prime(p1, 2, 8).holds
        p2 = problem_from_strings(["x", "y"], ["1", "1"], "x^3+y^3")
        assert check_p_prime(p2, 2, 8).holds

    def test_barlet_fails_with_witness(self):
        res = check_p_prime(BP, 3, 7)
        assert not res.holds
        assert res.witness.serialize(BP.variables) == "-y^5*z^2 dx^dy^dz"

    def test_requires_degree_two(self):
        with pytest.raises(ValueError):
            check_p_prime(BP, 1, 4)


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
        assert sl.dim == 1


class TestPullbackInvariance:
    def test_inert_variable_preserves_slices(self):
        base = problem_from_strings(["x", "y"], ["1/2", "1/3"], "x^2+y^3")
        lifted = extend_with_inert_variable(base, "z", 1)
        weights = [F(5, 6), F(7, 6), F(3, 2), F(11, 6), F(13, 6)]
        for c in weights:
            assert h_slice(base, 2, c).dim == h_slice(lifted, 2, c).dim

    def test_inert_variable_preserves_h1(self):
        base = problem_from_strings(["x", "y"], ["1", "1"], "x*y")
        lifted = extend_with_inert_variable(base, "z", 1)
        for c in [F(2), F(3), F(4)]:
            assert h_slice(base, 1, c).dim == h_slice(lifted, 1, c).dim
