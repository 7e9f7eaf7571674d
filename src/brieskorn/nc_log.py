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
from brieskorn.engine import (
    CapExceeded,
    DynamicIndex,
    _bounded_exponents,
    _form_entries,
    _image_kernel,
    _monomial_images,
)
from brieskorn.forms import DifferentialForm
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


def verify_a_equals_g_atilde(germ: MonomialGerm, i: int, degree_bound: int) -> AEqualsGAtilde:
    """Degreewise check that Ker(df-wedge) = g * Ker(df/f-wedge on log forms).

    Both sides are multigraded (each monomial slice is finite-dimensional),
    so the comparison runs exponent vector by exponent vector up to the
    total-degree bound.  On log forms df/f-wedge is the constant Koszul map
    sum_j m_j eta_j-wedge, so its kernel is one set of coefficient vectors,
    placed at each log-multidegree.  A failure's witness is the first A-form
    outside span(g * A~), else the first g * A~-form outside span(A).
    """
    if not 0 <= i <= germ.nvars:
        raise ValueError("form degree out of range")
    if degree_bound < 1:
        raise CapExceeded("degree bound must be >= 1")
    n = germ.nvars
    f = germ.polynomial()
    wedges_i = list(itertools.combinations(range(n), i))
    upidx = {w: k for k, w in enumerate(itertools.combinations(range(n), i + 1))}
    koszul_cols = []
    for wedge in wedges_i:
        col: linalg.Vec = {}
        for j in range(n):
            if j not in wedge:
                row = upidx[tuple(sorted(wedge + (j,)))]
                sign = (-1) ** sum(1 for t in wedge if t < j)
                col[row] = col.get(row, Fraction(0)) + sign * germ.exponents[j]
        koszul_cols.append(col)
    log_kernel = linalg.nullspace(linalg.transpose(koszul_cols), len(wedges_i))

    for nu in _bounded_exponents(n, degree_bound):
        # polynomial side: forms of multidegree nu (dx_j counts one unit of x_j)
        items = [
            (wedge, tuple(v - (j in wedge) for j, v in enumerate(nu)))
            for wedge in wedges_i
            if all(nu[j] for j in wedge)
        ]
        if not items:
            continue
        space = DynamicIndex()
        a_side = []
        for combo in _image_kernel(_monomial_images(f, items)[1]):
            # one item per wedge, so each coordinate is one coefficient polynomial
            terms = {items[j][0]: Polynomial.monomial(n, items[j][1], c) for j, c in combo.items()}
            form = DifferentialForm(n, i, terms)
            a_side.append((form, space.vec(_form_entries(form))))

        # log side at log-multidegree b = nu - (1,...,1)
        b = tuple(v - 1 for v in nu)
        g_side = []
        if all(v >= 0 for v in b):
            for combo in log_kernel:
                lf = LogForm(n, i, {wedges_i[j]: Polynomial.monomial(n, b, c) for j, c in combo.items()})
                form = lf.to_polynomial_form(germ)
                g_side.append((form, space.vec(_form_entries(form))))

        witness = _first_outside(a_side, g_side) or _first_outside(g_side, a_side)
        if witness is not None:
            return AEqualsGAtilde(False, witness)
    return AEqualsGAtilde(True, None)


def _first_outside(candidates, spanning):
    """The first form of (form, vector) candidates outside the span of spanning."""
    ech = linalg.Echelon()
    for _form, v in spanning:
        ech.add(v)
    return next((form for form, v in candidates if ech.reduce(v)), None)
