"""Closed-form data for monomial (normal-crossing) germs f = prod x_i^(m_i).

The relative logarithmic cohomology has the explicit free basis
x^(k*mu) eta_I (0 <= k < e, I subset of {2..n}), with e = gcd(m_i) and
mu_i = m_i/e; the residue eigenvalues are k/e.  Log forms are stored
against the eta_i = dx_i/x_i basis with polynomial coefficients, so no
poles are ever materialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from brieskorn import linalg
from brieskorn.engine import CapExceeded, DynamicIndex, _bounded_exponents, _form_entries
from brieskorn.forms import DifferentialForm, df_wedge
from brieskorn.poly import Polynomial


@dataclass(frozen=True)
class MonomialGerm:
    """f = prod x_i^(m_i) with every variable occurring."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if not self.exponents or any(m < 1 for m in self.exponents):
            raise ValueError("monomial germ needs every exponent >= 1")

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    @property
    def e(self) -> int:
        return math.gcd(*self.exponents) if len(self.exponents) > 1 else self.exponents[0]

    @property
    def mu(self) -> tuple[int, ...]:
        e = self.e
        return tuple(m // e for m in self.exponents)

    def polynomial(self) -> Polynomial:
        return Polynomial.monomial(self.nvars, self.exponents)


class LogForm:
    """Combination of wedges of eta_i = dx_i/x_i with polynomial coefficients."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs=None):
        self.nvars = nvars
        self.degree = degree
        clean = {}
        if coeffs:
            for idx, poly in coeffs.items():
                idx = tuple(idx)
                if len(idx) != degree or any(
                    idx[k] >= idx[k + 1] for k in range(len(idx) - 1)
                ):
                    raise ValueError(f"bad eta index tuple {idx}")
                if poly:
                    clean[idx] = poly
        self.coeffs = clean

    def __eq__(self, other):
        return (
            isinstance(other, LogForm)
            and (self.nvars, self.degree) == (other.nvars, other.degree)
            and self.coeffs == other.coeffs
        )

    def serialize(self, variables) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for idx, poly in sorted(self.coeffs.items()):
            eta = "^".join(f"dlog({variables[i]})" for i in idx)
            body = poly.serialize(variables)
            if len(poly) > 1:
                body = f"({body})"
            chunks.append(f"{body} {eta}".strip() if eta else body)
        return " + ".join(chunks)

    def to_polynomial_form(self, germ: MonomialGerm) -> DifferentialForm:
        """Multiply by g = prod x_i: g * x^b eta_I = x^b prod_{j not in I} x_j dx_I."""
        out: dict[tuple[int, ...], Polynomial] = {}
        for idx, poly in self.coeffs.items():
            shift = [1] * self.nvars
            for i in idx:
                shift[i] = 0
            mono = Polynomial.monomial(self.nvars, tuple(shift))
            q = poly * mono
            if q:
                out[idx] = out.get(idx, Polynomial.zero(self.nvars)) + q
        return DifferentialForm(self.nvars, self.degree, out)


def log_relative_basis(germ: MonomialGerm, p: int) -> list[LogForm]:
    """The free basis x^(k*mu) eta_I, 0 <= k < e, I in {2..n}, |I| = p."""
    if not 0 <= p <= germ.nvars - 1:
        raise ValueError("relative degree p must satisfy 0 <= p <= n-1")
    mu = germ.mu
    out = []
    for k in range(germ.e):
        exp = tuple(k * m for m in mu)
        coeff = Polynomial.monomial(germ.nvars, exp)
        for idx in itertools.combinations(range(1, germ.nvars), p):
            out.append(LogForm(germ.nvars, p, {idx: coeff}))
    return out


def residue_eigenvalues(germ: MonomialGerm, p: int) -> list[Fraction]:
    """Eigenvalue multiset {k/e} of the Euler Lie derivative on the basis.

    Each value k/e appears with multiplicity binomial(n-1, p); the monodromy
    exponent is k/e mod 1 (here always already in [0,1)).
    """
    if not 0 <= p <= germ.nvars - 1:
        raise ValueError("relative degree p must satisfy 0 <= p <= n-1")
    mult = math.comb(germ.nvars - 1, p)
    out = []
    for k in range(germ.e):
        out.extend([Fraction(k, germ.e)] * mult)
    return sorted(out)


@dataclass
class AEqualsGAtilde:
    holds: bool
    witness: DifferentialForm | None
    checked_degree: int


def verify_a_equals_g_atilde(germ: MonomialGerm, i: int, degree_bound: int) -> AEqualsGAtilde:
    """Degreewise check that Ker(df-wedge) = g * Ker(df/f-wedge on log forms).

    Both sides are multigraded (each monomial slice is finite-dimensional),
    so the comparison runs exponent vector by exponent vector up to the
    total-degree bound.
    """
    if not 0 <= i <= germ.nvars:
        raise ValueError("form degree out of range")
    if degree_bound < 1:
        raise CapExceeded("degree bound must be >= 1")
    n = germ.nvars
    f = germ.polynomial()
    m = germ.exponents

    wedges_i = list(itertools.combinations(range(n), i))
    wedges_up = list(itertools.combinations(range(n), i + 1))

    for nu in _bounded_exponents(n, degree_bound):
        # polynomial side: forms of multidegree nu (dx_j counts one unit of x_j)
        poly_cols = []
        poly_keys = []
        for wedge in wedges_i:
            exp = list(nu)
            ok = True
            for j in wedge:
                exp[j] -= 1
                if exp[j] < 0:
                    ok = False
                    break
            if not ok:
                continue
            poly_keys.append((wedge, tuple(exp)))
        if not poly_keys:
            continue
        img = DynamicIndex()
        for wedge, exp in poly_keys:
            form = DifferentialForm.monomial_form(n, wedge, Polynomial.monomial(n, exp))
            poly_cols.append(img.vec(_form_entries(df_wedge(f, form))))
        kernel = linalg.nullspace(linalg.transpose(poly_cols), len(poly_cols))

        # log side at log-multidegree b = nu - (1,...,1), Koszul with constants m_j
        b = tuple(v - 1 for v in nu)
        log_kernel_forms: list[DifferentialForm] = []
        if all(v >= 0 for v in b):
            log_cols = []
            upidx = {w: k for k, w in enumerate(wedges_up)}
            for wedge in wedges_i:
                col: linalg.Vec = {}
                for j in range(n):
                    if j in wedge:
                        continue
                    merged = tuple(sorted(wedge + (j,)))
                    sign = (-1) ** sum(1 for t in wedge if t < j)
                    col[upidx[merged]] = col.get(upidx[merged], Fraction(0)) + sign * m[j]
                log_cols.append(col)
            for combo in linalg.nullspace(linalg.transpose(log_cols), len(wedges_i)):
                lf = LogForm(
                    n,
                    i,
                    {
                        wedges_i[j]: Polynomial.monomial(n, b, coeff)
                        for j, coeff in combo.items()
                    },
                )
                log_kernel_forms.append(lf.to_polynomial_form(germ))

        # compare spans inside the nu-slice
        space = DynamicIndex()
        a_side = linalg.Echelon()
        for combo in kernel:
            entries = []
            for j, coeff in combo.items():
                wedge, exp = poly_keys[j]
                entries.append(((wedge, exp), coeff))
            a_side.add(space.vec(entries))
        g_side = linalg.Echelon()
        g_vecs = []
        for form in log_kernel_forms:
            v = space.vec(_form_entries(form))
            g_vecs.append((form, v))
            g_side.add(v)
        if a_side.rank != g_side.rank:
            witness = None
            for combo in kernel:
                entries = []
                for j, coeff in combo.items():
                    wedge, exp = poly_keys[j]
                    entries.append(((wedge, exp), coeff))
                v = space.vec(entries)
                if g_side.reduce(v):
                    polys: dict[tuple[int, ...], dict] = {}
                    for j, coeff in combo.items():
                        wedge, exp = poly_keys[j]
                        polys.setdefault(wedge, {})[exp] = coeff
                    witness = DifferentialForm(
                        n, i, {w: Polynomial(n, t) for w, t in polys.items()}
                    )
                    break
            if witness is None:
                for form, v in g_vecs:
                    if a_side.reduce(v):
                        witness = form
                        break
            return AEqualsGAtilde(False, witness, degree_bound)
        for form, v in g_vecs:
            if a_side.reduce(v):
                return AEqualsGAtilde(False, form, degree_bound)
        for combo in kernel:
            entries = []
            for j, coeff in combo.items():
                wedge, exp = poly_keys[j]
                entries.append(((wedge, exp), coeff))
            v = space.vec(entries)
            if g_side.reduce(v):
                polys = {}
                for j, coeff in combo.items():
                    wedge, exp = poly_keys[j]
                    polys.setdefault(wedge, {})[exp] = coeff
                witness = DifferentialForm(n, i, {w: Polynomial(n, t) for w, t in polys.items()})
                return AEqualsGAtilde(False, witness, degree_bound)
    return AEqualsGAtilde(True, None, degree_bound)
