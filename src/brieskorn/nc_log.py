"""Closed-form data for monomial (normal-crossing) germs f = prod x_i^(m_i).

The relative logarithmic cohomology has the explicit free basis
x^(k*mu) eta_I (0 <= k < e, I subset of {2..n}), with e = gcd(m_i) and
mu_i = m_i/e, eta_i = dx_i/x_i; the residue eigenvalues are k/e.  The
kernel identity is checked on polynomial forms only: g * x^b eta_W is the
monomial form x^(b + 1 - 1_W) dx_W, so no log form or pole is materialized.
The functions take the exponent tuple m, every m_i >= 1, which the nc
command checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from brieskorn import linalg
from brieskorn.engine import wedge_tuples
from brieskorn.forms import DifferentialForm, monomial_images, partial_terms
from brieskorn.poly import Polynomial


def residue_eigenvalues(exponents: tuple[int, ...], p: int) -> list[Fraction]:
    """Eigenvalue multiset {k/e} of the Euler Lie derivative on the basis of
    f = prod x_i^(m_i), m = exponents.

    Each value k/e appears with multiplicity binomial(n-1, p); the monodromy
    exponent is k/e mod 1 (here always already in [0,1)).
    """
    n, e = len(exponents), math.gcd(*exponents)
    if not 0 <= p <= n - 1:
        raise ValueError("relative degree p must satisfy 0 <= p <= n-1")
    return [Fraction(k, e) for k in range(e) for _ in range(math.comb(n - 1, p))]


def verify_a_equals_g_atilde(exponents: tuple[int, ...], i: int, degree_bound: int) -> DifferentialForm | None:
    """Degreewise check that Ker(df-wedge) = g * Ker(df/f-wedge on log forms)
    for f = prod x_i^(m_i), m = exponents; None when it holds.

    Both sides are multigraded (each monomial slice is finite-dimensional),
    so the comparison runs exponent vector by exponent vector up to the
    total-degree bound.  On log forms df/f-wedge is the constant Koszul map
    sum_j m_j eta_j-wedge, so its kernel is one set of coefficient vectors,
    placed at each log-multidegree.  A failure's witness is the first A-form
    outside span(g * A~), else the first g * A~-form outside span(A).
    """
    n = len(exponents)
    if not 0 <= i <= n:
        raise ValueError("form degree out of range")
    f = Polynomial.monomial(n, exponents)
    wedges_i = wedge_tuples(n, i)
    # on constant forms the Koszul map is df'-wedge for the linear f' = sum_j m_j x_j
    linear = sum((Polynomial.variable(n, j) * m for j, m in enumerate(exponents)), Polynomial.zero(n))
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
            return DifferentialForm.from_entries(n, i, ((items[j], c) for j, c in vec.items()))
    return None


def _bounded_exponents(nvars: int, bound: int):
    """The exponent vectors of total degree <= bound, in lexicographic order:
    each first entry k in turn, followed by those of the rest within bound - k."""
    if nvars == 0:
        if bound >= 0:
            yield ()
        return
    for k in range(bound + 1):
        for rest in _bounded_exponents(nvars - 1, bound - k):
            yield (k, *rest)


def _first_outside(candidates, spanning):
    """The first of the candidate vectors outside the span of spanning."""
    ech = linalg.Echelon()
    for v in spanning:
        ech.add(v)
    return next((v for v in candidates if ech.reduce(v)), None)
