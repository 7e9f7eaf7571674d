"""Engine: germ problems, weight slices, module actions, torsion, (P')."""

import random
from fractions import Fraction as F

import pytest

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
        assert res.witness is not None and not res.witness.is_zero

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
