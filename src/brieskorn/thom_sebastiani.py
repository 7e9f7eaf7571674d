"""Sums f + g of germs in disjoint variables (Thom-Sebastiani).

For isolated operands the rank and exponent multiset of the sum germ are
compared against mu(f) copies of the reduced spectrum of g shifted by each
f-exponent + 1.  The form rep_f wedge g^k dg on the sum germ is shown exact
in its kernel complex by a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from brieskorn.engine import (
    CohomologyClass,
    GermProblem,
    InvariantViolation,
    NonIsolatedError,
    NotFoundWithin,
    TorsionCertificate,
    _block,
    _s_chain,
    exact_chain,
    spectrum,
)
from brieskorn.forms import DifferentialForm, differential
from brieskorn.poly import format_rational


def combined_problem(pf: GermProblem, pg: GermProblem) -> GermProblem:
    """The germ f + g on the disjoint union of the two variable sets.

    Both weight vectors are rescaled so each summand has degree 1, making
    the sum quasi-homogeneous of degree 1.
    """
    clash = set(pf.variables) & set(pg.variables)
    if clash:
        raise ValueError(f"variable sets must be disjoint (shared: {sorted(clash)})")
    variables = tuple(pf.variables) + tuple(pg.variables)
    weights = tuple(w / pf.degree for w in pf.weights) + tuple(
        w / pg.degree for w in pg.weights
    )
    nv = len(variables)
    f_lift = pf.f.remap_variables(nv, list(range(pf.nvars)))
    g_lift = pg.f.remap_variables(nv, list(range(pf.nvars, nv)))
    return GermProblem(variables, weights, f_lift + g_lift)


def lift_form(form: DifferentialForm, offset: int, nv: int) -> DifferentialForm:
    coeffs = {}
    for wedge, poly in form.coeffs.items():
        new_wedge = tuple(k + offset for k in wedge)
        coeffs[new_wedge] = poly.remap_variables(
            nv, list(range(offset, offset + poly.nvars))
        )
    return DifferentialForm(nv, form.degree, coeffs)


def vanishing_target(cls_f: CohomologyClass, pg: GermProblem, k: int):
    """The sum germ f + g and the form rep_f wedge g^k dg on it."""
    if k < 0:
        raise ValueError("k must be non-negative")
    pf = cls_f.problem
    combined = combined_problem(pf, pg)
    nv = combined.nvars
    wf = lift_form(cls_f.representative, 0, nv)
    g_lift = pg.f.remap_variables(nv, list(range(pf.nvars, nv)))
    return combined, wf.wedge(differential(g_lift) * (g_lift ** k))


def vanish_g_k_dg(
    cls_f: CohomologyClass,
    pg: GermProblem,
    k: int,
    search_cap: int | None = None,
):
    """(h, target, result) for the sum germ h = f + g and target = rep_f wedge
    g^k dg on it.  result is a t-certificate of order 0 that the target is
    exact in h's kernel complex, an eta with dh-wedge eta = 0 and d(eta) =
    target, or NotFoundWithin.  A zero class has no weighted degree and is
    refused (ValueError)."""
    combined, target = vanishing_target(cls_f, pg, k)
    weight = target.weighted_degree(combined.weights)
    if weight is None:
        raise ValueError("product form is not homogeneous")
    block = _block(combined, target.degree - 1, weight, search_cap, combined.form_keys(target))
    chain = _s_chain([block], target)
    if chain is None:
        return combined, target, NotFoundWithin(block.space.cap, not combined.positive_weights)
    if not exact_chain(combined.f, target, chain):
        raise InvariantViolation("vanishing certificate failed re-verification")
    return combined, target, TorsionCertificate("t", 0, chain)


@dataclass
class TSReport:
    """Rank and exponent comparison for the sum of two isolated germs."""

    left_rank: int
    right_rank: int
    left_exponents: list[Fraction]
    right_exponents: list[Fraction]
    ranks_equal: bool
    exponents_equal: bool

    @property
    def passed(self) -> bool:
        return self.ranks_equal and self.exponents_equal

    def serialize(self) -> dict:
        return {
            "left_rank": self.left_rank,
            "right_rank": self.right_rank,
            "left_exponents": [format_rational(a) for a in self.left_exponents],
            "right_exponents": [format_rational(a) for a in self.right_exponents],
            "ranks_equal": self.ranks_equal,
            "exponents_equal": self.exponents_equal,
        }


def ts_compare(pf: GermProblem, pg: GermProblem) -> TSReport:
    """Left: spectrum of g shifted by each f-exponent + 1 (mu(f) copies).
    Right: the spectrum of f + g computed directly on the sum germ."""
    if pf.milnor_number() is None:
        raise NonIsolatedError("the first operand must be isolated")
    if pg.milnor_number() is None:
        raise NonIsolatedError(
            "rank/exponent comparison implemented for isolated second operands"
        )
    spec_f = spectrum(pf, reduced=True)
    spec_g = spectrum(pg, reduced=True)
    left = sorted(af + ag + 1 for af in spec_f for ag in spec_g)
    combined = combined_problem(pf, pg)
    right = spectrum(combined, reduced=True)
    return TSReport(
        left_rank=len(left),
        right_rank=len(right),
        left_exponents=left,
        right_exponents=right,
        ranks_equal=len(left) == len(right),
        exponents_equal=left == right,
    )

