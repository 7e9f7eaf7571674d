"""External products of classes for sums f + g in disjoint variables.

The product of classes is wedge of representatives; on eigenclasses the
residue exponents add as alpha_f + alpha_g + 1.  For isolated operands the
rank and exponent multiset of the sum germ are compared against mu(f)
copies of the reduced spectrum of g shifted by each f-exponent + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from brieskorn import linalg
from brieskorn.engine import (
    CohomologyClass,
    DynamicIndex,
    FormSpace,
    GermProblem,
    NonIsolatedError,
    NotFoundWithin,
    TorsionCertificate,
    _df_kernel_vectors,
    _form_entries,
    spectrum,
)
from brieskorn.forms import DifferentialForm, df_wedge, differential
from brieskorn.poly import format_rational


def combined_problem(pf: GermProblem, pg: GermProblem, name: str | None = None) -> GermProblem:
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
    return GermProblem(variables, weights, f_lift + g_lift, name=name)


def lift_form(form: DifferentialForm, offset: int, nv: int) -> DifferentialForm:
    coeffs = {}
    for wedge, poly in form.coeffs.items():
        new_wedge = tuple(k + offset for k in wedge)
        coeffs[new_wedge] = poly.remap_variables(
            nv, list(range(offset, offset + poly.nvars))
        )
    return DifferentialForm(nv, form.degree, coeffs)


def external_product(
    cls_f: CohomologyClass, cls_g: CohomologyClass, combined: GermProblem | None = None
) -> CohomologyClass:
    """Class of (rep_f wedge rep_g) on the sum germ.

    The first operand must be closed and df-killed with positive degree
    (its class invariants guarantee that); the product's residue exponent
    is alpha_f + alpha_g + 1.
    """
    pf, pg = cls_f.problem, cls_g.problem
    if cls_f.i == 0:
        raise ValueError("first operand must have positive degree")
    if combined is None:
        combined = combined_problem(pf, pg)
    nv = combined.nvars
    wf = lift_form(cls_f.representative, 0, nv)
    wg = lift_form(cls_g.representative, pf.nvars, nv)
    return CohomologyClass(combined, cls_f.i + cls_g.i, wf.wedge(wg))


def vanish_g_k_dg(
    cls_f: CohomologyClass,
    pg: GermProblem,
    k: int,
    search_cap: int | None = None,
):
    """Certificate that rep_f wedge g^k dg is exact in the sum germ's kernel
    complex: an eta with dh-wedge eta = 0 and d(eta) = rep_f wedge g^k dg."""
    if k < 0:
        raise ValueError("k must be non-negative")
    pf = cls_f.problem
    combined = combined_problem(pf, pg)
    nv = combined.nvars
    wf = lift_form(cls_f.representative, 0, nv)
    g_lift = pg.f.remap_variables(nv, list(range(pf.nvars, nv)))
    target = wf.wedge(differential(g_lift) * (g_lift ** k))
    if target.is_zero:
        return TorsionCertificate("t", 0, [DifferentialForm.zero(nv, cls_f.i)])
    weight = target.weighted_degree(combined.weights)
    if weight is None:
        raise ValueError("product form is not homogeneous")
    cap = combined.auto_cap(weight) if combined.positive_weights else search_cap
    if cap is None:
        raise ValueError("a search cap is needed with non-positive weights")
    space = FormSpace(combined, target.degree - 1, weight, cap)
    kernel = _df_kernel_vectors(combined, space)
    img = DynamicIndex()
    columns = [img.vec(_form_entries(space.form(v).exterior_derivative())) for v in kernel]
    target_vec = img.vec(_form_entries(target))
    solution = linalg.solve_columns(columns, target_vec)
    if solution is None:
        return NotFoundWithin(cap, not combined.positive_weights)
    eta_vec: linalg.Vec = {}
    for j, coeff in enumerate(solution):
        if not coeff:
            continue
        for idx, val in kernel[j].items():
            s = eta_vec.get(idx, Fraction(0)) + coeff * val
            if s:
                eta_vec[idx] = s
            else:
                eta_vec.pop(idx, None)
    eta = space.form(eta_vec)
    if df_wedge(combined.f, eta) or eta.exterior_derivative() != target:
        raise AssertionError("vanishing certificate failed re-verification")
    return VanishingCertificate(k, eta, target)


@dataclass
class VanishingCertificate:
    k: int
    eta: DifferentialForm
    target: DifferentialForm

    def verify(self, combined: GermProblem) -> bool:
        return (
            not df_wedge(combined.f, self.eta)
            and self.eta.exterior_derivative() == self.target
        )


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


def eigenvalue_additivity_check(cls_f: CohomologyClass, cls_g: CohomologyClass) -> bool:
    """alpha_h = alpha_f + alpha_g + 1 on the external product."""
    prod = external_product(cls_f, cls_g)
    return prod.tdt_eigenvalue() == cls_f.tdt_eigenvalue() + cls_g.tdt_eigenvalue() + 1


def t_compatibility_check(cls_f: CohomologyClass, cls_g: CohomologyClass) -> bool:
    """h * (w_f wedge w_g) = (f w_f) wedge w_g + w_f wedge (g w_g) exactly."""
    pf, pg = cls_f.problem, cls_g.problem
    combined = combined_problem(pf, pg)
    nv = combined.nvars
    wf = lift_form(cls_f.representative, 0, nv)
    wg = lift_form(cls_g.representative, pf.nvars, nv)
    f_lift = pf.f.remap_variables(nv, list(range(pf.nvars)))
    g_lift = pg.f.remap_variables(nv, list(range(pf.nvars, nv)))
    lhs = wf.wedge(wg) * combined.f
    rhs = (wf * f_lift).wedge(wg) + wf.wedge(wg * g_lift)
    return lhs == rhs
