"""Sums f + g of germs in disjoint variables (Thom-Sebastiani).

For isolated operands the exponent multiset of the sum germ h = f + g is
compared against mu(f) copies of the reduced spectrum of g shifted by each
f-exponent + 1.  The form rep_f wedge g^k dg on h is shown exact in its
kernel complex by a witness eta.  germ.combined_problem builds h once; the
functions that work on h take it as an argument.
"""

from __future__ import annotations

from brieskorn.engine import _block, _s_chain, spectrum
from brieskorn.germ import CohomologyClass, GermProblem, InvariantViolation, exact_chain, vanishing_target


def vanish_g_k_dg(cls_f: CohomologyClass, pg: GermProblem, h: GermProblem, k: int):
    """(target, eta) for target = rep_f wedge g^k dg on the sum germ h =
    combined_problem(f, g).  eta has dh-wedge eta = 0 and d(eta) = target,
    so the target is exact in h's kernel complex; it is None when the
    target's slice holds no such eta.  h's slices need no cap: they are
    finite, since isolated operands have positive weights (with some weight
    <= 0, _slice_cap raises CapExceeded).  A zero class has no weighted
    degree and is refused (ValueError)."""
    target = vanishing_target(cls_f, pg, h, k)
    weight = h.grading.form(target)
    if weight is None:
        raise ValueError("product form is not homogeneous")
    block = _block(h, target.degree - 1, weight, None, h.form_keys(target))
    chain = _s_chain([block], target)
    if chain is None:
        return target, None
    if not exact_chain(h.f, target, chain):
        raise InvariantViolation("vanishing certificate failed re-verification")
    return target, chain[0]


def ts_compare(basis_f: list[CohomologyClass], pg: GermProblem, h: GermProblem) -> tuple[list, list]:
    """(left, right) exponent multisets, sorted; they agree, ranks included,
    when Thom-Sebastiani holds.  Left: spectrum of g shifted by each
    exponent of f's reduced C{t}-basis + 1 (mu(f) copies).  Right: the
    spectrum of the sum germ h computed directly."""
    spec_g = spectrum(pg)
    left = sorted(cls.tdt_eigenvalue() + ag + 1 for cls in basis_f for ag in spec_g)
    return left, spectrum(h)
