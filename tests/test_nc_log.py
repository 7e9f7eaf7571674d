"""Normal-crossing germs: log basis ranks, residue eigenvalues, kernel identity."""

import itertools
from fractions import Fraction as F

from oracles import g_times_log_form, log_basis_rank, nc_report, nc_report_ranks, problem_from_strings

from brieskorn import linalg, nc_log
from brieskorn.engine import milnor_number, spectrum
from brieskorn.forms import DifferentialForm, df_wedge
from brieskorn.nc_log import residue_eigenvalues, verify_a_equals_g_atilde
from brieskorn.poly import Polynomial


class TestNcReport:
    def test_e_and_mu_vector(self, tmp_path):
        # e = gcd(m_i) and mu = m / e; a germ that leaves a variable out, like
        # x^2 over x, y, is refused by the nc command (tests/test_cli.py)
        report = nc_report(tmp_path, (2, 2))
        assert report["e"] == 2 and report["mu_vector"] == [1, 1]
        assert nc_report(tmp_path, (2, 3))["e"] == 1
        assert nc_report(tmp_path, (6, 4))["mu_vector"] == [3, 2]


class TestLogBasis:
    def test_rank_formula_exhaustive(self, tmp_path):
        # one residue eigenvalue per basis element x^(k mu) eta_I: every
        # monomial germ with n <= 4, exponents <= 6; the nc report's ranks
        # on those with n <= 3, exponents <= 3
        for n in range(1, 5):
            for m in itertools.product(range(1, 7), repeat=n):
                ranks = {p: log_basis_rank(m, p) for p in range(n)}
                assert {p: len(residue_eigenvalues(m, p)) for p in range(n)} == ranks
                if n <= 3 and max(m) <= 3:
                    assert nc_report_ranks(tmp_path, m) == ranks


class TestResidues:
    def test_22_degree_zero(self):
        assert residue_eigenvalues((2, 2), 0) == [F(0), F(1, 2)]

    def test_11(self):
        assert residue_eigenvalues((1, 1), 0) == [F(0)]

    def test_degree_zero_multiplicity_one(self):
        for n in range(1, 5):
            for m in itertools.product(range(1, 7), repeat=n):
                eigs = residue_eigenvalues(m, 0)
                assert len(set(eigs)) == len(eigs)

    def test_reduced_degree_zero_avoids_integers(self):
        # dropping k = 0 leaves eigenvalues k/e that are never integral
        for m in [(2, 2), (4, 6), (3, 3, 3), (2, 4)]:
            eigs = residue_eigenvalues(m, 0)[1:]
            assert all(a.denominator > 1 for a in eigs)


class TestKernelIdentity:
    def test_22_degree_one(self):
        assert verify_a_equals_g_atilde((2, 2), 1, 8) is None

    def test_one_variable(self):
        assert verify_a_equals_g_atilde((3,), 1, 8) is None

    def test_smooth_both_zero(self):
        assert verify_a_equals_g_atilde((1,), 0, 6) is None

    def test_more_cases(self):
        for m, i in [((2, 3), 1), ((2, 2, 2), 2), ((1, 2), 1), ((3, 3), 2)]:
            assert verify_a_equals_g_atilde(m, i, 6) is None

    def test_every_small_monomial_germ(self):
        # n <= 3, exponents <= 3, every form degree: 141 cases
        cases = 0
        for n in range(1, 4):
            for m in itertools.product(range(1, 4), repeat=n):
                for i in range(n + 1):
                    assert verify_a_equals_g_atilde(m, i, 4) is None, (m, i)
                    cases += 1
        assert cases == 141

    def test_empty_log_kernel_reports_an_a_form_outside_g_atilde(self, monkeypatch):
        witness = _check_22_with_log_kernel(monkeypatch, lambda kernel: [])
        assert witness is not None
        # the first nonzero A-form: y dx + x dy = g * (eta_x + eta_y), at nu = (1, 1)
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert witness == DifferentialForm(2, 1, {(0,): y, (1,): x})
        assert not df_wedge(Polynomial.monomial(2, (2, 2)), witness)

    def test_extra_log_vector_reports_a_g_atilde_form_outside_a(self, monkeypatch):
        # eta_x alone is outside Ker(df/f-wedge): g * eta_x = y dx, not killed by df-wedge
        witness = _check_22_with_log_kernel(monkeypatch, lambda kernel: kernel + [{0: F(1)}])
        assert witness is not None
        assert witness == g_times_log_form(2, 1, (0, 0), {(0,): 1})
        assert witness == DifferentialForm(2, 1, {(0,): Polynomial.variable(2, 1)})
        assert df_wedge(Polynomial.monomial(2, (2, 2)), witness)

    def test_g_atilde_is_the_log_kernel_on_the_items(self, monkeypatch):
        # at every nu with all nu_j >= 1 the check reads each log-kernel vector
        # c as a vector over its items (W, nu - 1_W): the form it stands for,
        # sum_W c_W x^(nu - 1_W) dx_W, must be g * (x^(nu-1) sum_W c_W eta_W)
        item_lists, kernels = [], []
        images, nullspace = nc_log.monomial_images, linalg.nullspace

        def record_items(nvars, items, partials=None):
            item_lists.append(list(items))
            return images(nvars, items, partials)

        def record_kernel(columns):
            kernels.append(nullspace(columns))
            return kernels[-1]

        monkeypatch.setattr(nc_log, "monomial_images", record_items)
        monkeypatch.setattr(linalg, "nullspace", record_kernel)
        checked = 0
        for n in range(1, 4):
            for m in itertools.product(range(1, 4), repeat=n):
                for i in range(n + 1):
                    item_lists.clear()
                    kernels.clear()
                    assert verify_a_equals_g_atilde(m, i, 4) is None
                    # the first call is the log-side Koszul kernel on the constant items
                    wedges = [w for w, _exp in item_lists[0]]
                    log_kernel = kernels[0]
                    for items in item_lists[1:]:
                        wedge, exp = items[0]
                        nu = tuple(v + (j in wedge) for j, v in enumerate(exp))
                        if not all(nu):
                            continue
                        assert [w for w, _exp in items] == wedges
                        b = tuple(v - 1 for v in nu)
                        for c in log_kernel:
                            g_form = g_times_log_form(n, i, b, {wedges[j]: a for j, a in c.items()})
                            terms = {items[j][0]: Polynomial.monomial(n, items[j][1], a) for j, a in c.items()}
                            assert g_form == DifferentialForm(n, i, terms)
                            # g * x^b eta-combination lies in A = Ker(df-wedge)
                            assert not df_wedge(Polynomial.monomial(n, m), g_form)
                            checked += 1
        assert checked > 0

def _check_22_with_log_kernel(monkeypatch, change):
    """The witness of the degree-1 check on x^2 y^2 up to degree 4, with the
    log-side Koszul kernel (the first linalg.nullspace call, on the linear
    germ 2x + 2y) replaced by change(kernel)."""
    nullspace = linalg.nullspace
    calls = []

    def faulty(columns):
        calls.append(columns)
        kernel = nullspace(columns)
        return change(kernel) if len(calls) == 1 else kernel

    monkeypatch.setattr(linalg, "nullspace", faulty)
    return verify_a_equals_g_atilde((2, 2), 1, 4)


class TestCrossEngine:
    def test_one_variable_rank_and_eigenvalues(self):
        # the reduced spectrum of x^q is {a - 1 : a a residue eigenvalue, a != 0}
        for q in (2, 3, 5):
            p = problem_from_strings(["x"], ["1"], f"x^{q}")
            eigs = residue_eigenvalues((q,), 0)
            assert spectrum(p) == [a - 1 for a in eigs if a]
        assert [str(a) for a in spectrum(problem_from_strings(["x"], ["1"], "x^3"))] == ["-2/3", "-1/3"]

    def test_nc22_as_engine_problem(self):
        # x^2 y^2 is non-isolated; its A^1 kernel identity is the nc route
        p = problem_from_strings(["x", "y"], ["1", "1"], "x^2*y^2")
        assert milnor_number(p) is None
        assert verify_a_equals_g_atilde((2, 2), 1, 8) is None


def test_bounded_exponents_are_the_filtered_box_in_order():
    # the composition walk lists the box's vectors of total degree <= bound
    # in the box's (lexicographic) order, on which nc's first witness depends
    for n in range(5):
        for bound in range(9):
            box = [e for e in itertools.product(range(bound + 1), repeat=n) if sum(e) <= bound]
            assert list(nc_log._bounded_exponents(n, bound)) == box, (n, bound)
