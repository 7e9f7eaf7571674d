"""Germs, their classes and the identity every certificate rests on.

This is the solver-free core: a quasi-homogeneous germ with its weight data
and key classes, top and lower-degree classes given by representative
forms, the exactness identity exact_chain, torsion certificates, and the
sum germ f + g with the target of its vanishing certificates.  It imports
only poly and forms, so replay, which re-checks a report against these and
nothing else, never loads the Groebner, elimination or search code of
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from brieskorn.forms import DifferentialForm, df_wedge, differential, volume_form
from brieskorn.poly import Cosets, Grading, Polynomial, format_rational, parse_polynomial, weight_vector


class EngineError(Exception):
    pass


class CapExceeded(EngineError):
    """A computation needs a total-degree cap it was not given."""


class NonIsolatedError(EngineError):
    pass


class InvariantViolation(EngineError):
    """An internally guaranteed identity failed; indicates a bug."""


# -- problems -----------------------------------------------------------------


class GermProblem:
    """A quasi-homogeneous polynomial germ with its weight data.

    Construction validates quasi-homogeneity: the weight slices, and every
    computation built on them, need f to be weighted homogeneous.  The
    grading W = L*w is built once, with scaled_degree D = L*deg(f).
    """

    def __init__(self, variables: Sequence[str], weights, f: Polynomial, name: str | None = None):
        self.variables = tuple(variables)
        self.weights = weight_vector(weights)
        if len(self.weights) != len(self.variables):
            raise ValueError("weights length must equal variable count")
        if f.nvars != len(self.variables):
            raise ValueError("polynomial ring does not match variable list")
        if f.is_zero:
            raise ValueError("the zero polynomial is not a germ")
        self.grading = Grading(self.weights)
        degrees = {self.grading.monomial(exp) for exp in f.terms}
        if len(degrees) > 1:
            raise ValueError("f is not quasi-homogeneous for the given weights")
        (self.scaled_degree,) = degrees
        if self.scaled_degree == 0:
            raise ValueError("quasi-homogeneity degree must be nonzero")
        self.f = f
        self.degree = Fraction(self.scaled_degree, self.grading.scale)
        self.name = name
        self.nvars = len(self.variables)

    # -- derived data ----------------------------------------------------

    @property
    def positive_weights(self) -> bool:
        return all(w > 0 for w in self.grading.weights)

    @property
    def partials(self) -> tuple[Polynomial, ...]:
        return tuple(self.f.partial_derivative(i) for i in range(self.nvars))

    @property
    def jacobian(self) -> list[Polynomial]:
        return [p for p in self.partials if p]

    # -- key classes: the characters of f's diagonal symmetry group ----------

    @cached_property
    def cosets(self) -> Cosets:
        """The cosets of L0, spanned by the differences of f's exponents,
        which FormSpace walks; built on first use."""
        exps = list(self.f.terms)
        return Cosets(self.grading.weights, [[a - b for a, b in zip(e, exps[0])] for e in exps[1:]])

    def key(self, wedge: Sequence[int], exp: Sequence[int]) -> tuple[int, ...]:
        """Key of the monomial form x^exp dx_wedge: the canonical point of the
        class of exp + 1_wedge in Z^n / L0 (Cosets.key), of its weight."""
        v = list(exp)
        for k in wedge:
            v[k] += 1
        return self.cosets.key(v)

    def form_keys(self, form: DifferentialForm, shift: int = 0) -> frozenset:
        """Keys of the terms of a form, each moved by shift * [m] for a monomial m of f.

        d keeps keys and both df wedge and multiplication by f add [m], so
        the unknown eta_j of an s-chain (and of t-level j) for this form
        has keys form_keys(form, j).
        """
        m = next(iter(self.f.terms))
        return frozenset(
            self.key(wedge, [a + shift * b for a, b in zip(exp, m)]) for (wedge, exp), _c in form.entries()
        )

    def auto_cap(self, c: int) -> int:
        """Total-degree bound of monomials of integer weight <= c (positive weights only)."""
        if not self.positive_weights:
            raise CapExceeded(
                "slice spaces can be infinite-dimensional with non-positive weights; "
                "pass an explicit total-degree cap"
            )
        if c < 0:
            return 0
        return c // min(self.grading.weights) + 1

    def serialize(self) -> dict:
        return {
            "name": self.name,
            "variables": list(self.variables),
            "weights": [format_rational(w) for w in self.weights],
            "polynomial": self.f.serialize(self.variables),
            "degree": format_rational(self.degree),
        }

    def __repr__(self):
        return f"GermProblem({self.f.serialize(self.variables)}, weights={self.weights})"


# -- cohomology classes -------------------------------------------------------


class CohomologyClass:
    """A class of H^i given by an explicit representative form.

    Invariants checked at construction: the representative is killed by
    df-wedge, is w-homogeneous, and is closed when i < n (top degree forms
    are closed automatically).  c is the integer slice weight (in units of
    1/L); weight is the rational one.
    """

    __slots__ = ("problem", "i", "representative", "c")

    def __init__(self, problem: GermProblem, i: int, representative: DifferentialForm, weight=None):
        if representative.degree != i:
            raise ValueError("representative degree mismatch")
        if representative.is_zero:
            # the zero class; its slice weight must be told explicitly
            if weight is None:
                raise ValueError("zero representative needs an explicit weight")
            c = problem.grading.scaled(weight)
            if c is None:
                raise ValueError(f"weight {weight} is off the lattice of slice weights")
        else:
            if df_wedge(problem.f, representative):
                raise InvariantViolation("representative not in Ker(df-wedge)")
            if i < problem.nvars and representative.exterior_derivative():
                raise InvariantViolation("representative of degree < n must be closed")
            c = problem.grading.form(representative)
            if c is None:
                raise ValueError("representative must be w-homogeneous")
        self.problem = problem
        self.i = i
        self.representative = representative
        self.c = c

    @property
    def weight(self) -> Fraction:
        return Fraction(self.c, self.problem.grading.scale)

    def tdt_eigenvalue(self) -> Fraction:
        """c/deg(f) - 1, which is c/D - 1 in integer units."""
        d = self.problem.scaled_degree
        return Fraction(self.c - d, d)

    def serialize(self) -> dict:
        return {
            "degree": self.i,
            "weight": format_rational(self.weight),
            "exponent": format_rational(self.tdt_eigenvalue()),
            "form": self.representative.payload(self.problem.variables),
        }

    def __repr__(self):
        return (
            f"CohomologyClass(i={self.i}, c={self.weight}, "
            f"{self.representative.serialize(self.problem.variables)})"
        )


def class_from_monomial(problem: GermProblem, text: str) -> CohomologyClass:
    """The top class [m * vol] of the monomial text; the zero class is refused."""
    poly = parse_polynomial(text, problem.variables)
    if poly.is_zero:
        raise ValueError(f"--monomial {text!r} is the zero class")
    return CohomologyClass(problem, problem.nvars, volume_form(problem.nvars, poly))


# -- certificates ----------------------------------------------------------------


def exact_chain(f: Polynomial, target: DifferentialForm, chain: Sequence[DifferentialForm]) -> bool:
    """The exactness identity every certificate rests on: a nonempty chain
    with d(chain[0]) = target, d(chain[j]) = df wedge chain[j-1] and
    df wedge chain[-1] = 0."""
    if not chain:
        return False
    for eta in chain:
        if eta.exterior_derivative() != target:
            return False
        target = df_wedge(f, eta)
    return not target


@dataclass
class TorsionCertificate:
    """Exact, independently re-checkable witness of torsion annihilation.

    kind "t": order p; the witness is an exact_chain of length 1 for f^p * rep.
    kind "s": order rho >= 1; the witness is an exact_chain of length rho for rep.

    The two kinds certify statements about different modules.  A chain
    eta with d(eta) = f^p * rep and df wedge eta = 0 puts t^p [rep] = 0 in
    H^n(A) = Omega^n / d(Ker df wedge), which is s t^p [rep] = 0 in
    H'' = Omega^n / df wedge d Omega^(n-2); an s-chain of length rho gives
    s^rho [rep] = 0 in H'' itself.  H^n(A) = H'' / ker s, so the two agree
    on isolated germs, where ker s = 0.
    """

    kind: str
    order: int
    witness: list[DifferentialForm]

    def verify(self, cls: CohomologyClass, max_order: int | None = None) -> bool:
        """The certificate's identity on cls.  A t-certificate whose witness
        passes the degree check but whose order is above max_order is refused
        with a ValueError, before f^order is expanded."""
        f, rep = cls.problem.f, cls.representative
        if self.kind == "t":
            # d lowers coefficient degree by at least one and f^p * rep has degree
            # p * deg f + deg rep exactly, so a witness no higher than that cannot
            # reach a nonzero target: refuse it before f^p is expanded
            top = max((w.total_degree_cap() for w in self.witness), default=-1)
            if not rep.is_zero and top <= rep.total_degree_cap() + self.order * f.total_degree():
                return False
            if max_order is not None and self.order > max_order:
                raise ValueError(f"t-order {self.order} is above the search bound {max_order}")
            target, length = (rep if rep.is_zero else rep * f**self.order), 1
        elif self.kind == "s":
            target, length = rep, self.order
        else:
            return False
        return len(self.witness) == length and exact_chain(f, target, self.witness)


# -- sums of germs in disjoint variables ------------------------------------------


def combined_problem(pf: GermProblem, pg: GermProblem) -> GermProblem:
    """The germ f + g on the disjoint union of the two variable sets.

    Both weight vectors are rescaled so each summand has degree 1, making
    the sum quasi-homogeneous of degree 1.
    """
    clash = set(pf.variables) & set(pg.variables)
    if clash:
        raise ValueError(f"variable sets must be disjoint (shared: {sorted(clash)})")
    variables = tuple(pf.variables) + tuple(pg.variables)
    weights = tuple(w / pf.degree for w in pf.weights) + tuple(w / pg.degree for w in pg.weights)
    nv = len(variables)
    f_lift = pf.f.remap_variables(nv, list(range(pf.nvars)))
    g_lift = pg.f.remap_variables(nv, list(range(pf.nvars, nv)))
    return GermProblem(variables, weights, f_lift + g_lift)


def lift_form(form: DifferentialForm, offset: int, nv: int) -> DifferentialForm:
    coeffs = {}
    for wedge, poly in form.coeffs.items():
        new_wedge = tuple(k + offset for k in wedge)
        coeffs[new_wedge] = poly.remap_variables(nv, list(range(offset, offset + poly.nvars)))
    return DifferentialForm(nv, form.degree, coeffs)


def vanishing_target(cls_f: CohomologyClass, pg: GermProblem, h: GermProblem, k: int) -> DifferentialForm:
    """The form rep_f wedge g^k dg on the sum germ h = combined_problem(f, g)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    nv = h.nvars
    wf = lift_form(cls_f.representative, 0, nv)
    g_lift = pg.f.remap_variables(nv, list(range(cls_f.problem.nvars, nv)))
    return wf.wedge(differential(g_lift) * (g_lift ** k))
