"""Closed-form data for monomial (normal-crossing) germs f = prod x_i^(m_i).

The relative logarithmic cohomology has the explicit free basis
x^(k*mu) eta_I (0 <= k < e, I subset of {2..n}), with e = gcd(m_i) and
mu_i = m_i/e, eta_i = dx_i/x_i; the residue eigenvalues are k/e.  The
kernel identity is checked on polynomial forms only: g * x^b eta_W is the
monomial form x^(b + 1 - 1_W) dx_W, so no log form or pole is materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from brieskorn import linalg
from brieskorn.engine import _bounded_exponents, wedge_tuples
from brieskorn.forms import DifferentialForm, monomial_images, partial_terms
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
    n = germ.nvars
    f = germ.polynomial()
    wedges_i = wedge_tuples(n, i)
    # on constant forms the Koszul map is df'-wedge for the linear f' = sum_j m_j x_j
    linear = sum((Polynomial.variable(n, j) * m for j, m in enumerate(germ.exponents)), Polynomial.zero(n))
    log_kernel = linalg.nullspace(monomial_images(n, [(w, (0,) * n) for w in wedges_i], partial_terms(linear))[1])

    for nu in _bounded_exponents(n, degree_bound):
        # forms of multidegree nu (dx_j counts one unit of x_j): item W is x^(nu - 1_W) dx_W
        items = [
            (wedge, tuple(v - (j in wedge) for j, v in enumerate(nu)))
            for wedge in wedges_i
            if all(nu[j] for j in wedge)
        ]
        if not items:
            continue
        a_side = linalg.nullspace(monomial_images(n, items, partial_terms(f))[1])
        # g * x^(nu - 1) eta_W is item W, and every wedge is an item when all
        # nu_j >= 1, so g * A~ at nu is log_kernel read in item coordinates;
        # when some nu_j = 0 no log form x^(nu - 1) exists
        g_side = log_kernel if all(nu) else []
        vec = _first_outside(a_side, g_side) or _first_outside(g_side, a_side)
        if vec is not None:
            return AEqualsGAtilde(False, DifferentialForm.from_entries(n, i, ((items[j], c) for j, c in vec.items())))
    return AEqualsGAtilde(True, None)


def _first_outside(candidates, spanning):
    """The first of the candidate vectors outside the span of spanning."""
    ech = linalg.Echelon()
    for v in spanning:
        ech.add(v)
    return next((v for v in candidates if ech.reduce(v)), None)
