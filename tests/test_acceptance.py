"""Acceptance criteria, one test per criterion, exact (zero tolerance).

Each test prints a single PASS line when its criterion holds; run with
`pytest -s tests/test_acceptance.py` to see them.
"""

import itertools
import math
from fractions import Fraction as F

import pytest
from oracles import (
    class_is_boundary,
    coefficient_vectors,
    contract,
    extend_with_inert_variable,
    ideal_member,
    log_basis_rank,
    modules_equal,
    nc_report_ranks,
    problem_from_strings,
    random_kernel_elements,
    s_action,
    t_action,
    tdt_action,
    xi,
)

from brieskorn import microdiff
from brieskorn.cli import main as cli_main
from brieskorn.engine import (
    CohomologyClass,
    NotFoundWithin,
    TorsionCertificate,
    ct_basis,
    h_slice,
    kernel_forms,
    milnor_number,
    sample_top_classes,
    torsion_order_s,
    torsion_order_t,
)
from brieskorn.forms import df_wedge, volume_form
from brieskorn.germ import combined_problem, exact_chain
from brieskorn.nc_log import residue_eigenvalues
from brieskorn.poly import Polynomial, parse_polynomial
from brieskorn.thom_sebastiani import ts_compare, vanish_g_k_dg

BARLET_CAP = 14
ISOLATED_CORPUS = [
    ("x^2+y^2", ["x", "y"], ["1", "1"], 1),
    ("x^2+y^3", ["x", "y"], ["3", "2"], 2),
    ("x^3+y^3", ["x", "y"], ["1", "1"], 4),
    ("x^4+y^3", ["x", "y"], ["3", "4"], 6),
    ("x^2+y^2+z^2", ["x", "y", "z"], ["1", "1", "1"], 1),
]


@pytest.fixture(scope="module")
def barlet():
    return problem_from_strings(
        ["x", "y", "z"], ["1", "1", "-1"], "x^5/5 + y^5/5 + x^3*y^3*z/3", name="barlet35"
    )


def test_acceptance_01_kernel_generators(barlet):
    """A^2 equals the span of the four displayed generators, exactly."""
    vs = barlet.variables
    P = lambda s: parse_polynomial(s, vs)
    displayed = [
        (P("-3*(x^2+y^3*z)"), P("0"), P("x*y^3")),
        (P("3*(y^2+x^3*z)"), P("x^3*y"), P("0")),
        (P("3*(y - x*y^2*z^2)"), P("x^3"), P("x^2*y^2*z")),
        (P("-3*(x - x^2*y*z^2)"), P("x^2*y^2*z"), P("y^3")),
    ]
    computed = kernel_forms(barlet, 2)
    assert modules_equal(coefficient_vectors(barlet, 2, computed), displayed)
    print("ACCEPTANCE 1 PASS: A^2 kernel equals the four displayed generators "
          f"(mutual membership, {len(computed)} computed generators)")


def test_acceptance_02_torsion_witnesses(barlet):
    """d(A^2) lands in (x,y)*Omega^3; ten independent z-power classes; and
    t-torsion certificates for k = 0, 1, 2 with p <= 10."""
    vs = barlet.variables
    x = parse_polynomial("x", vs)
    y = parse_polynomial("y", vs)
    gens = kernel_forms(barlet, 2)
    for g in gens:
        dg = g.exterior_derivative()
        for _wedge, poly in dg.coeffs.items():
            assert ideal_member(poly, [x, y])
        # the stronger cap-independent fact: every generator coefficient is
        # in (x, y), so by Leibniz all of d(A^2) is, under any cap
        for _wedge, poly in g.coeffs.items():
            assert ideal_member(poly, [x, y])

    weights = set()
    for k in range(10):
        rep = volume_form(3, Polynomial.monomial(3, (0, 0, k)))
        cls = CohomologyClass(barlet, 3, rep)
        weights.add(cls.weight)
        assert not class_is_boundary(cls, cap=12)
    assert len(weights) == 10  # distinct slices: pairwise independence

    orders = []
    for k in range(3):
        cls = CohomologyClass(barlet, 3, volume_form(3, Polynomial.monomial(3, (0, 0, k))))
        cert = torsion_order_t(cls, 10, cap=BARLET_CAP)
        assert isinstance(cert, TorsionCertificate), f"k={k}: expected a certificate"
        assert cert.order <= 10 and cert.verify(cls)
        orders.append(cert.order)
    print("ACCEPTANCE 2 PASS: d(A^2) in (x,y)*Omega^3, ten independent z-power "
          f"classes, t-certificates for k=0,1,2 with orders {orders}")


def test_acceptance_03_normal_crossing_ranks(tmp_path):
    """Basis cardinality e*binom(n-1, p), counted as residue eigenvalues, and
    multiplicity-one degree-0 eigenvalues, exhaustively for n <= 4, m_i <= 6;
    the nc report's ranks for n <= 3."""
    checked = 0
    for n in range(1, 5):
        for m in itertools.product(range(1, 7), repeat=n):
            ranks = {p: log_basis_rank(m, p) for p in range(n)}
            assert ranks == {p: math.gcd(*m) * math.comb(n - 1, p) for p in range(n)}
            assert {p: len(residue_eigenvalues(m, p)) for p in range(n)} == ranks
            if n <= 3:
                assert nc_report_ranks(tmp_path, m) == ranks
            eigs = residue_eigenvalues(m, 0)
            assert len(set(eigs)) == len(eigs)
            checked += 1
    print(f"ACCEPTANCE 3 PASS: rank formula and multiplicity-one eigenvalues "
          f"on {checked} monomial germs")


def test_acceptance_04_isolated_ranks():
    """C{t}-rank of the top module equals the Milnor number; no torsion."""
    summary = []
    for text, vs, ws, mu in ISOLATED_CORPUS:
        p = problem_from_strings(vs, ws, text)
        assert milnor_number(p) == mu
        basis = ct_basis(p)
        assert len(basis) == mu
        for cls in basis:
            assert isinstance(torsion_order_t(cls, 5), NotFoundWithin)
            assert isinstance(torsion_order_s(cls, 5), NotFoundWithin)
        summary.append(f"{text}:{mu}")
    print("ACCEPTANCE 4 PASS: rank = Milnor number and torsion-free on "
          + ", ".join(summary))


def test_acceptance_05_torsion_equivalence(barlet):
    """t-search finds a certificate iff s-search does, on 20 sampled classes
    of the barlet35 germ and 20 of the isolated corpus."""
    agree = 0
    for cls in sample_top_classes(barlet, 20, seed=0):
        rt = torsion_order_t(cls, 6, cap=BARLET_CAP)
        rs = torsion_order_s(cls, 6, cap=BARLET_CAP)
        assert isinstance(rt, TorsionCertificate) == isinstance(rs, TorsionCertificate), (
            f"disagreement on {cls!r}"
        )
        agree += 1
    for text, vs, ws, _mu in ISOLATED_CORPUS[:4]:
        p = problem_from_strings(vs, ws, text)
        for cls in sample_top_classes(p, 5, seed=0):
            rt = torsion_order_t(cls, 4)
            rs = torsion_order_s(cls, 4)
            assert isinstance(rt, TorsionCertificate) == isinstance(rs, TorsionCertificate)
            agree += 1
    print(f"ACCEPTANCE 5 PASS: torsion existence agrees on {agree} sampled classes")


def test_acceptance_06_operator_identities():
    """[t, s^j] = j s^(j+1) for j <= 20; factorial coefficients p+q <= 8;
    linear-combination solutions p <= 5; iterated integration k <= 50."""
    for j in range(1, 21):
        lhs = microdiff.normal_order([("t", 1), ("s", j)]) - microdiff.normal_order(
            [("s", j), ("t", 1)]
        )
        assert lhs == microdiff.SkewElement({(j + 1, 0): F(j)})
    for total in range(2, 9):
        for p in range(1, total):
            coefficient, tail_ok = microdiff.lemma_a_certificate(p, total - p)
            assert tail_ok and coefficient == math.factorial(total - 1)
    for p in range(1, 6):
        lam = microdiff.remark26_solve(p)
        assert len(lam) == p + 1
    u = (1,) + (0,) * 60  # 1, known up to t^60
    for k in range(1, 51):
        u = microdiff.integrate_series(u)
        assert u[k] == F(1, math.factorial(k))
    print("ACCEPTANCE 6 PASS: commutators j<=20, factorials p+q<=8, "
          "combinations p<=5, iterated integration k<=50")


def test_acceptance_07_eigenvalue_laws(barlet):
    """s = (d/c) t and t*dt eigenvalue c/d - 1 in (-1, n-1) on every
    engine eigenclass; contraction identity on 100 kernel elements per germ."""
    classes = 0
    for text, vs, ws, _mu in ISOLATED_CORPUS + [("x^2", ["x"], ["1"], 1)]:
        p = problem_from_strings(vs, ws, text)
        for cls in ct_basis(p):
            c, d = cls.weight, p.degree
            assert s_action(cls).representative == t_action(cls).representative * (d / c)
            assert tdt_action(cls).representative == cls.representative * (c / d - 1)
            assert F(-1) < c / d - 1 < p.nvars
            classes += 1
    germs = 0
    for (text, vs, ws, _mu), i in zip(ISOLATED_CORPUS, (1, 1, 1, 1, 2)):
        p = problem_from_strings(vs, ws, text)
        for omega in random_kernel_elements(p, i, 100, seed=77):
            assert df_wedge(p.f, contract(omega, xi(p))) == omega * p.f
        germs += 1
    for omega in random_kernel_elements(barlet, 2, 100, seed=78):
        assert df_wedge(barlet.f, contract(omega, xi(barlet))) == omega * barlet.f
    germs += 1
    print(f"ACCEPTANCE 7 PASS: eigenvalue laws on {classes} eigenclasses, "
          f"contraction identity on 100 kernel elements x {germs} germs")


def test_acceptance_08_thom_sebastiani():
    """Rank and exponent multisets agree for the three pairs; vanishing
    certificates k <= 3 for (x^2, y^2)."""
    x2 = problem_from_strings(["x"], ["1"], "x^2")
    y2 = problem_from_strings(["y"], ["1"], "y^2")
    y3 = problem_from_strings(["y"], ["1"], "y^3")
    z2 = problem_from_strings(["z"], ["1"], "z^2")
    x3y3 = problem_from_strings(["x", "y"], ["1", "1"], "x^3+y^3")
    verdicts = []
    for pf, pg in [(x2, y2), (x2, y3), (x3y3, z2)]:
        left, right = ts_compare(ct_basis(pf), pg, combined_problem(pf, pg))
        assert left == right
        verdicts.append(f"{pf.f.serialize(pf.variables)}+{pg.f.serialize(pg.variables)}")
    cls = ct_basis(x2)[0]
    combined = combined_problem(x2, y2)
    for k in range(4):
        target, eta = vanish_g_k_dg(cls, y2, combined, k)
        assert eta is not None
        assert exact_chain(combined.f, target, [eta])
    print("ACCEPTANCE 8 PASS: rank/exponent equality for " + ", ".join(verdicts)
          + "; vanishing certificates k<=3")


def test_acceptance_09_pullback_invariance():
    """Adjoining an inert variable leaves all top slice dimensions unchanged."""
    base = problem_from_strings(["x", "y"], ["1/2", "1/3"], "x^2+y^3")
    lifted = extend_with_inert_variable(base, "z", 1)
    # every weight where either side could be nonzero, up to the bound
    weights = sorted(
        {
            F(a, 2) + F(b, 3) + F(5, 6)
            for a in range(0, 7)
            for b in range(0, 7)
            if F(a, 2) + F(b, 3) <= 3
        }
    )
    checked = 0
    for c in weights:
        assert len(h_slice(base, 2, c).classes) == len(h_slice(lifted, 2, c).classes)
        checked += 1
    print(f"ACCEPTANCE 9 PASS: top slice dimensions match at {checked} weights "
          "after adjoining an inert variable")


def test_acceptance_10_determinism(tmp_path):
    """Repeated analyze runs are byte-identical."""
    import os

    problems = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "problems")
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli_main([
            "analyze", os.path.join(problems, "barlet35.json"),
            "--max-degree", "12", "--max-t-power", "4", "--max-s-power", "4",
            "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    print("ACCEPTANCE 10 PASS: repeated analyze runs are byte-identical "
          f"({len(outputs[0])} bytes)")
