"""Core engine: kernel-of-df complexes for quasi-homogeneous germs.

For a quasi-homogeneous polynomial f this module computes the subcomplex
A^i = Ker(df-wedge) of polynomial forms, finite weight slices of its
d-cohomology H^i, the actions of t (multiplication by f), s = dt^{-1}
(via the Euler antiderivative) and t*dt on classes, bounded torsion
searches with re-verifiable certificates, Milnor numbers, f-annihilating
vector fields and the degreewise torsion-freeness criterion
d(Ker df) cap Im(df) = Im(df d).

Grading conventions: a form's weight counts dx_i with weight w_i; t raises
weight by deg(f), d preserves it, and on a weight-c class the residue-type
operator t*dt acts by c/deg(f) - 1 (the -1 accounting for the df-wedge
identification of A-classes with relative forms).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from brieskorn import groebner, linalg
from brieskorn.forms import DifferentialForm, VectorField, df_wedge, differential, volume_form
from brieskorn.poly import (
    Polynomial,
    format_rational,
    iter_monomials_of_weight,
    monomial_weight,
    parse_polynomial,
    weight_vector,
)


class EngineError(Exception):
    pass


class CapExceeded(EngineError):
    """A computation needs a total-degree cap it was not given."""


class DegenerateWeight(EngineError):
    """s-action on a weight-0 class: no homogeneous antiderivative."""


class NonIsolatedError(EngineError):
    pass


class InvariantViolation(EngineError):
    """An internally guaranteed identity failed; indicates a bug."""


# -- problems -----------------------------------------------------------------


class GermProblem:
    """A quasi-homogeneous polynomial germ with its weight data.

    Construction validates quasi-homogeneity (the normalized Euler field is
    the engine's antiderivative mechanism, so nothing else is accepted).
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
        degree = f.weighted_degree(self.weights)
        if degree is None:
            raise ValueError(
                "f is not quasi-homogeneous for the given weights; "
                "the engine's connection actions need the Euler antiderivative"
            )
        if degree == 0:
            raise ValueError("quasi-homogeneity degree must be nonzero")
        self.f = f
        self.degree = Fraction(degree)
        self.name = name
        self.nvars = len(self.variables)
        self._milnor: object = _UNSET
        self._kernel_cache: dict[int, groebner.SubmoduleOfFree] = {}

    # -- derived data ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.nvars

    @property
    def positive_weights(self) -> bool:
        return all(w > 0 for w in self.weights)

    @property
    def partials(self) -> tuple[Polynomial, ...]:
        return tuple(self.f.partial_derivative(i) for i in range(self.nvars))

    @property
    def jacobian(self) -> list[Polynomial]:
        return [p for p in self.partials if p]

    @property
    def df(self) -> DifferentialForm:
        return differential(self.f)

    @property
    def euler_field(self) -> VectorField:
        """E = sum w_i x_i d_i, so E(f) = deg(f) * f."""
        comps = [
            Polynomial.variable(self.nvars, i) * self.weights[i] for i in range(self.nvars)
        ]
        return VectorField(comps)

    @property
    def xi(self) -> VectorField:
        """Normalized Euler field, xi(f) = f."""
        comps = [
            Polynomial.variable(self.nvars, i) * (self.weights[i] / self.degree)
            for i in range(self.nvars)
        ]
        return VectorField(comps)

    def milnor_number(self):
        """Dimension of the Jacobian quotient, or None when non-isolated."""
        if self._milnor is _UNSET:
            dim = groebner.quotient_dimension(self.jacobian)
            self._milnor = None if dim is groebner.INFINITE else dim
        return self._milnor

    @property
    def isolated(self) -> bool:
        return self.milnor_number() is not None

    def auto_cap(self, c: Fraction) -> int:
        """Total-degree bound of monomials of weight <= c (positive weights only)."""
        if not self.positive_weights:
            raise CapExceeded(
                "slice spaces can be infinite-dimensional with non-positive weights; "
                "pass an explicit total-degree cap"
            )
        if c < 0:
            return 0
        return int(c / min(self.weights)) + 1

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


_UNSET = object()


def problem_from_strings(variables, weight_strings, polynomial_text, name=None) -> GermProblem:
    f = parse_polynomial(polynomial_text, variables)
    return GermProblem(variables, weight_strings, f, name=name)


def extend_with_inert_variable(problem: GermProblem, var: str, weight) -> GermProblem:
    """The same f viewed in one more variable (pullback along a projection)."""
    if var in problem.variables:
        raise ValueError(f"variable {var!r} already present")
    nv = problem.nvars + 1
    f = problem.f.remap_variables(nv, list(range(problem.nvars)))
    return GermProblem(
        tuple(problem.variables) + (var,),
        tuple(problem.weights) + (Fraction(weight),),
        f,
        name=problem.name,
    )


# -- cohomology classes -------------------------------------------------------


class CohomologyClass:
    """A class of H^i given by an explicit representative form.

    Invariants checked at construction: the representative is killed by
    df-wedge, is w-homogeneous, and is closed when i < n (top degree forms
    are closed automatically).
    """

    __slots__ = ("problem", "i", "representative", "weight")

    def __init__(
        self,
        problem: GermProblem,
        i: int,
        representative: DifferentialForm,
        weight=None,
    ):
        if representative.degree != i:
            raise ValueError("representative degree mismatch")
        if representative.is_zero:
            # the zero class; its slice weight must be told explicitly
            if weight is None:
                raise ValueError("zero representative needs an explicit weight")
            c = Fraction(weight)
        else:
            if df_wedge(problem.f, representative):
                raise InvariantViolation("representative not in Ker(df-wedge)")
            if i < problem.n and representative.exterior_derivative():
                raise InvariantViolation("representative of degree < n must be closed")
            c = representative.weighted_degree(problem.weights)
            if c is None:
                raise ValueError("representative must be w-homogeneous")
        self.problem = problem
        self.i = i
        self.representative = representative
        self.weight = Fraction(c)

    def tdt_eigenvalue(self) -> Fraction:
        return self.weight / self.problem.degree - 1

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


def t_action(cls: CohomologyClass) -> CohomologyClass:
    """Multiplication by f (weight goes up by deg f)."""
    return CohomologyClass(
        cls.problem,
        cls.i,
        cls.representative * cls.problem.f,
        weight=cls.weight + cls.problem.degree,
    )


def s_action(cls: CohomologyClass) -> CohomologyClass:
    """dt^{-1} via the Euler antiderivative: df wedge (i_E rep)/c.

    For degree-1 classes the antiderivative is additionally checked to
    vanish on f^{-1}(0) (radical membership), the canonical choice.
    """
    c = cls.weight
    if c == 0:
        raise DegenerateWeight("no homogeneous antiderivative at weight 0")
    problem = cls.problem
    eta = cls.representative.interior_product(problem.euler_field) * (1 / c)
    if eta.exterior_derivative() != cls.representative:
        raise InvariantViolation("Euler antiderivative failed (representative not closed?)")
    if cls.i == 1:
        poly = eta.coeffs.get((), Polynomial.zero(problem.nvars))
        poly = poly - poly.constant_term()
        if not groebner.is_in_radical(poly, [problem.f]):
            raise InvariantViolation("degree-1 antiderivative does not vanish on the zero fiber")
        eta = DifferentialForm.from_polynomial(poly)
    return CohomologyClass(
        problem, cls.i, df_wedge(problem.f, eta), weight=c + problem.degree
    )


def tdt_action(cls: CohomologyClass) -> CohomologyClass:
    """Lie derivative along the normalized Euler field, minus the identity."""
    rep = cls.representative.lie_derivative(cls.problem.xi) - cls.representative
    return CohomologyClass(cls.problem, cls.i, rep, weight=cls.weight)


# -- ambient slice spaces ------------------------------------------------------


def wedge_tuples(nvars: int, i: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(nvars), i))


class FormSpace:
    """Enumerated basis of weight-c forms of degree i with coefficient
    total degree <= cap."""

    def __init__(self, problem: GermProblem, i: int, c: Fraction, cap: int):
        self.problem = problem
        self.i = i
        self.c = Fraction(c)
        self.cap = cap
        items: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for wedge in wedge_tuples(problem.nvars, i):
            shift = sum(problem.weights[k] for k in wedge)
            for exp in iter_monomials_of_weight(
                problem.nvars, problem.weights, self.c - shift, cap
            ):
                items.append((wedge, exp))
        items.sort()
        self.items = items
        self.index = {key: k for k, key in enumerate(items)}

    @property
    def dim(self) -> int:
        return len(self.items)

    def vec(self, form: DifferentialForm) -> linalg.Vec:
        out: linalg.Vec = {}
        for wedge, poly in form.coeffs.items():
            for exp, coeff in poly.terms.items():
                k = self.index.get((wedge, exp))
                if k is None:
                    raise ValueError("form does not live in this slice space")
                out[k] = coeff
        return out

    def form(self, vec: linalg.Vec) -> DifferentialForm:
        polys: dict[tuple[int, ...], dict] = {}
        for k, coeff in vec.items():
            wedge, exp = self.items[k]
            polys.setdefault(wedge, {})[exp] = coeff
        return DifferentialForm(
            self.problem.nvars,
            self.i,
            {w: Polynomial(self.problem.nvars, t) for w, t in polys.items()},
        )


class DynamicIndex:
    """Grow-on-demand index for image coordinates."""

    def __init__(self):
        self.index: dict = {}

    def vec(self, keyed: Iterable[tuple[object, Fraction]]) -> linalg.Vec:
        out: linalg.Vec = {}
        for key, coeff in keyed:
            k = self.index.get(key)
            if k is None:
                k = len(self.index)
                self.index[key] = k
            out[k] = out.get(k, Fraction(0)) + coeff
        return {k: v for k, v in out.items() if v}


def _form_entries(form: DifferentialForm, group=None):
    for wedge, poly in sorted(form.coeffs.items()):
        for exp, coeff in sorted(poly.terms.items()):
            key = (wedge, exp) if group is None else (group, wedge, exp)
            yield key, coeff


def _df_kernel_vectors(problem: GermProblem, space: FormSpace) -> list[linalg.Vec]:
    """Basis of Ker(df-wedge) restricted to the enumerated slice space."""
    img = DynamicIndex()
    columns = []
    for wedge, exp in space.items:
        form = DifferentialForm.monomial_form(
            problem.nvars, wedge, Polynomial.monomial(problem.nvars, exp)
        )
        columns.append(img.vec(_form_entries(df_wedge(problem.f, form))))
    return linalg.nullspace(linalg.transpose(columns), space.dim)


# -- weight slices of H^i -----------------------------------------------------


@dataclass
class HSlice:
    """Basis of one weight slice of H^i with its exactness reducer."""

    problem: GermProblem
    i: int
    c: Fraction
    cap: int
    cap_relative: bool
    classes: list[CohomologyClass]
    space: FormSpace
    _reducer: linalg.Echelon
    boundary_rank: int

    @property
    def dim(self) -> int:
        return len(self.classes)

    def reduce(self, form: DifferentialForm) -> linalg.Vec:
        """Canonical coordinates of a form modulo the boundary space."""
        return self._reducer.reduce(self.space.vec(form))

    def contains_boundary(self, form: DifferentialForm) -> bool:
        return not self.reduce(form)

    def quotient_complement(self, seed_forms: Iterable[DifferentialForm]):
        """Classes of this slice independent modulo boundaries + seed forms."""
        ech = _copy_echelon(self._reducer)
        for f in seed_forms:
            ech.add(self.space.vec(f))
        out = []
        for cls in self.classes:
            if ech.add(self.space.vec(cls.representative)):
                out.append(cls)
        return out


def _copy_echelon(e: linalg.Echelon) -> linalg.Echelon:
    c = linalg.Echelon()
    c.rows = [dict(r) for r in e.rows]
    c.pivots = list(e.pivots)
    return c


def _resolve_cap(problem: GermProblem, c: Fraction, cap: int | None) -> tuple[int, bool]:
    # positive weights: the slice is finite, the derived cap covers it exactly
    if problem.positive_weights:
        return problem.auto_cap(c), False
    if cap is None:
        raise CapExceeded(
            "slice spaces can be infinite-dimensional with non-positive weights; "
            "pass an explicit total-degree cap"
        )
    return cap, True


def h_slice(problem: GermProblem, i: int, c, cap: int | None = None) -> HSlice:
    """Exact basis of the weight-c slice of H^i = H(Ker df-wedge, d).

    With positive weights the slice is finite and the cap is derived; with
    some weight <= 0 an explicit cap is required and completeness (not
    kernel membership) is cap-relative.
    """
    if not 0 <= i <= problem.n:
        raise ValueError("form degree out of range")
    c = Fraction(c)
    cap, cap_relative = _resolve_cap(problem, c, cap)
    space = FormSpace(problem, i, c, cap)

    kernel = _df_kernel_vectors(problem, space)

    # closed kernel vectors: restrict d to the kernel span
    if i < problem.n:
        img = DynamicIndex()
        columns = [
            img.vec(_form_entries(space.form(v).exterior_derivative())) for v in kernel
        ]
        combos = linalg.nullspace(linalg.transpose(columns), len(kernel))
        closed = []
        for combo in combos:
            v: linalg.Vec = {}
            for j, coeff in combo.items():
                for k, val in kernel[j].items():
                    s = v.get(k, Fraction(0)) + coeff * val
                    if s:
                        v[k] = s
                    else:
                        v.pop(k, None)
            if v:
                closed.append(v)
    else:
        closed = kernel

    # boundary space d(A^{i-1}) at the same weight
    reducer = linalg.Echelon()
    if i >= 1:
        prev = FormSpace(problem, i - 1, c, cap + 1)
        for v in _df_kernel_vectors(problem, prev):
            d_img = prev.form(v).exterior_derivative()
            if d_img:
                reducer.add(space.vec(d_img))
    boundary_rank = reducer.rank

    classes = []
    ech = _copy_echelon(reducer)
    for v in closed:
        residue = ech.reduce(v)
        if residue:
            pivot = min(residue)
            inv = 1 / residue[pivot]
            rep = space.form({k: val * inv for k, val in residue.items()})
            classes.append(CohomologyClass(problem, i, rep))
            ech.add(v)
    return HSlice(problem, i, c, cap, cap_relative, classes, space, reducer, boundary_rank)


# -- kernel modules (A^i as a module over the polynomial ring) -----------------


def kernel_forms(problem: GermProblem, i: int) -> groebner.SubmoduleOfFree:
    """Module generators of A^i = Ker(df-wedge: degree i -> i+1), by syzygies."""
    if not 0 <= i <= problem.n:
        raise ValueError("form degree out of range")
    if i in problem._kernel_cache:
        return problem._kernel_cache[i]
    cols = wedge_tuples(problem.nvars, i)
    rows = wedge_tuples(problem.nvars, i + 1)
    row_index = {w: k for k, w in enumerate(rows)}
    zero = Polynomial.zero(problem.nvars)
    if not rows:
        # top degree: the target is zero, the kernel is everything
        gens = []
        for j in range(len(cols)):
            unit = [zero] * len(cols)
            unit[j] = Polynomial.constant(problem.nvars, 1)
            gens.append(tuple(unit))
        module = groebner.SubmoduleOfFree(len(cols), gens)
    else:
        matrix = [[zero] * len(cols) for _ in rows]
        for j, wedge in enumerate(cols):
            img = df_wedge(
                problem.f,
                DifferentialForm.monomial_form(
                    problem.nvars, wedge, Polynomial.constant(problem.nvars, 1)
                ),
            )
            for w, poly in img.coeffs.items():
                matrix[row_index[w]][j] = poly
        module = groebner.module_kernel(matrix)
    problem._kernel_cache[i] = module
    return module


def kernel_generator_forms(problem: GermProblem, i: int) -> list[DifferentialForm]:
    cols = wedge_tuples(problem.nvars, i)
    out = []
    for vec in kernel_forms(problem, i).generators:
        out.append(
            DifferentialForm(
                problem.nvars, i, {w: p for w, p in zip(cols, vec) if p}
            )
        )
    return out


# -- torsion searches ----------------------------------------------------------


@dataclass
class TorsionCertificate:
    """Exact, independently re-checkable witness of torsion annihilation.

    kind "t": order p with f^p * rep = d(witness[0]) and witness[0] in A.
    kind "s": order rho = len(chain) with d(chain[0]) = rep,
              d(chain[j]) = df wedge chain[j-1], df wedge chain[-1] = 0.
    """

    kind: str
    order: int
    witness: list[DifferentialForm]

    def verify(self, cls: CohomologyClass) -> bool:
        f = cls.problem.f
        rep = cls.representative
        if self.kind == "t":
            if len(self.witness) != 1:
                return False
            eta = self.witness[0]
            if df_wedge(f, eta):
                return False
            return eta.exterior_derivative() == rep * (f ** self.order)
        if self.kind == "s":
            chain = self.witness
            if len(chain) != self.order:
                return False
            if chain[0].exterior_derivative() != rep:
                return False
            for j in range(1, len(chain)):
                if chain[j].exterior_derivative() != df_wedge(f, chain[j - 1]):
                    return False
            return not df_wedge(f, chain[-1])
        return False

    def serialize(self, variables) -> dict:
        return {
            "kind": self.kind,
            "order": self.order,
            "witness": [w.payload(variables) for w in self.witness],
        }


@dataclass
class NotFoundWithin:
    """A bounded search exhausted its ceiling without an answer."""

    bound: int
    cap_limited: bool


def _eta_cap(problem: GermProblem, weight: Fraction, cap: int | None, min_degree: int) -> int:
    if problem.positive_weights:
        return problem.auto_cap(weight)  # the full slice; search is exact
    if cap is None:
        raise CapExceeded("torsion searches need a total-degree cap with non-positive weights")
    return max(cap, min_degree)


def torsion_order_t(cls: CohomologyClass, p_max: int, cap: int | None = None):
    """Smallest p <= p_max with f^p * rep exact in the kernel complex."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    problem = cls.problem
    f = problem.f
    fp = Polynomial.constant(problem.nvars, 1)
    for p in range(1, p_max + 1):
        fp = fp * f
        target = cls.representative * fp
        if target.is_zero:
            zero_eta = DifferentialForm.zero(problem.nvars, cls.i - 1)
            return TorsionCertificate("t", p, [zero_eta])
        weight = cls.weight + p * problem.degree
        eta_cap = _eta_cap(problem, weight, cap, target.total_degree_cap() + 1)
        space = FormSpace(problem, cls.i - 1, weight, eta_cap)
        kernel = _df_kernel_vectors(problem, space)
        img = DynamicIndex()
        columns = [img.vec(_form_entries(space.form(v).exterior_derivative())) for v in kernel]
        target_vec = img.vec(_form_entries(target))
        solution = linalg.solve_columns(columns, target_vec)
        if solution is not None:
            eta_vec: linalg.Vec = {}
            for j, coeff in enumerate(solution):
                if not coeff:
                    continue
                for k, val in kernel[j].items():
                    s = eta_vec.get(k, Fraction(0)) + coeff * val
                    if s:
                        eta_vec[k] = s
                    else:
                        eta_vec.pop(k, None)
            cert = TorsionCertificate("t", p, [space.form(eta_vec)])
            if not cert.verify(cls):
                raise InvariantViolation("t-torsion certificate failed re-verification")
            return cert
    return NotFoundWithin(p_max, not problem.positive_weights)


def torsion_order_s(cls: CohomologyClass, r_max: int, cap: int | None = None):
    """Smallest chain depth solving d(sum eta_j dt^-j) = rep, as a certificate.

    The returned order rho means s^rho kills the class; the witness chain has
    length rho.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    problem = cls.problem
    f = problem.f
    deg_f = max(f.total_degree(), 1)
    base_degree = cls.representative.total_degree_cap() + 1
    for r in range(0, r_max):
        spaces = []
        for j in range(r + 1):
            weight = cls.weight + j * problem.degree
            eta_cap = _eta_cap(problem, weight, cap, base_degree + j * deg_f)
            spaces.append(FormSpace(problem, cls.i - 1, weight, eta_cap))
        img = DynamicIndex()
        columns = []
        offsets = []
        total = 0
        for j, space in enumerate(spaces):
            offsets.append(total)
            total += space.dim
            for wedge, exp in space.items:
                beta = DifferentialForm.monomial_form(
                    problem.nvars, wedge, Polynomial.monomial(problem.nvars, exp)
                )
                entries = list(_form_entries(beta.exterior_derivative(), group=j))
                nxt = df_wedge(f, beta)
                target_group = j + 1
                entries += [
                    (key, -coeff)
                    for key, coeff in _form_entries(nxt, group=target_group)
                ]
                columns.append(img.vec(entries))
        target_vec = img.vec(_form_entries(cls.representative, group=0))
        solution = linalg.solve_columns(columns, target_vec)
        if solution is None:
            continue
        chain = []
        for j, space in enumerate(spaces):
            vec = {
                k: solution[offsets[j] + k]
                for k in range(space.dim)
                if solution[offsets[j] + k]
            }
            chain.append(space.form(vec))
        cert = TorsionCertificate("s", r + 1, chain)
        if not cert.verify(cls):
            raise InvariantViolation("s-torsion certificate failed re-verification")
        return cert
    return NotFoundWithin(r_max, not problem.positive_weights)


def class_is_boundary(cls: CohomologyClass, cap: int | None = None) -> bool:
    """Exactness test for the representative in its own weight slice."""
    sl = h_slice(cls.problem, cls.i, cls.weight, cap)
    return sl.contains_boundary(cls.representative)


# -- Milnor data and the C{t} basis --------------------------------------------


def milnor_number(problem: GermProblem):
    return problem.milnor_number()


@dataclass
class CtBasisClass:
    cls: CohomologyClass
    exponent: Fraction


def ct_basis(problem: GermProblem, reduced: bool = True) -> list[CtBasisClass]:
    """Free C{t}-basis classes of H^n (reduced: modulo the C{t}-span of df).

    Requires an isolated singularity.  Classes are collected weight slice by
    weight slice; at weight c the new generators are the slice classes
    independent modulo t(previous slice).  The scan stops at the maximal
    Jacobian standard monomial weight plus the weight of the volume form,
    beyond which multiplication by f is onto.
    """
    mu = problem.milnor_number()
    if mu is None:
        raise NonIsolatedError("C{t}-basis needs an isolated singularity")
    if not problem.positive_weights:
        raise CapExceeded("isolated quasi-homogeneous germs have positive weights")
    n = problem.n
    d = problem.degree
    sum_w = sum(problem.weights, Fraction(0))
    std = groebner.standard_monomials(problem.jacobian)
    weights_std = sorted({monomial_weight(e, problem.weights) for e in std})
    max_c = (weights_std[-1] if weights_std else Fraction(0)) + sum_w
    # in one variable the omega_0 orbit contributes a generator at weight d
    if n == 1 and not reduced:
        max_c = max(max_c, d)

    # candidate slice weights: volume-form weights of monomials up to the bound
    candidates = sorted(
        {
            monomial_weight(exp, problem.weights) + sum_w
            for exp in iter_monomials_of_weight_range(problem, max_c - sum_w)
        }
    )
    slices: dict[Fraction, HSlice] = {}
    out: list[CtBasisClass] = []
    for c in candidates:
        sl = h_slice(problem, n, c)
        slices[c] = sl
        if not sl.classes:
            continue
        seeds: list[DifferentialForm] = []
        prev = slices.get(c - d)
        if prev is not None:
            seeds.extend(cls.representative * problem.f for cls in prev.classes)
        if reduced and n == 1:
            k = c / d - 1
            if k.denominator == 1 and k >= 0:
                seeds.append(differential(problem.f) * (problem.f ** int(k)))
        for cls in sl.quotient_complement(seeds):
            out.append(CtBasisClass(cls, cls.tdt_eigenvalue()))
    return out


def iter_monomials_of_weight_range(problem: GermProblem, max_weight: Fraction):
    """All monomials with weight <= max_weight (positive weights only)."""
    if not problem.positive_weights:
        raise CapExceeded("weight-range enumeration needs positive weights")
    if max_weight < 0:
        return []
    nvars = problem.nvars
    seen: list[tuple[int, ...]] = []
    exp = [0] * nvars

    def rec(i: int, used: Fraction):
        if i == nvars:
            seen.append(tuple(exp))
            return
        w = problem.weights[i]
        k = 0
        while used + w * k <= max_weight:
            exp[i] = k
            rec(i + 1, used + w * k)
            k += 1
        exp[i] = 0

    rec(0, Fraction(0))
    return seen


def spectrum(problem: GermProblem, reduced: bool = True) -> list[Fraction]:
    """Sorted multiset of t*dt eigenvalues on the C{t}-basis classes."""
    return sorted(item.exponent for item in ct_basis(problem, reduced=reduced))


# -- vector fields annihilating f ------------------------------------------------


def theta_f(problem: GermProblem, degree_bound: int) -> list[VectorField]:
    """Generators of {xi : xi(f) = 0} with components of degree <= bound.

    The full syzygy generating set of the partials is computed; the bound
    only filters the reported generators.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    syz = groebner.syzygies(list(problem.partials))
    fields = []
    for vec in syz.generators:
        if max((p.total_degree() for p in vec), default=-1) <= degree_bound:
            fields.append(VectorField(vec))
    return fields


def delta_at_origin(problem: GermProblem) -> int:
    """Rank of the constant parts of Theta_f at the origin."""
    syz = groebner.syzygies(list(problem.partials))
    ech = linalg.Echelon()
    for vec in syz.generators:
        v = {i: p.constant_term() for i, p in enumerate(vec) if p.constant_term()}
        if v:
            ech.add(v)
    return ech.rank


# -- condition (P'): degreewise torsion-freeness criterion -----------------------


@dataclass
class PPrimeResult:
    holds: bool
    witness: DifferentialForm | None
    checked_weights: list[Fraction]
    cap_relative: bool


def check_p_prime(problem: GermProblem, i: int, degree_bound: int) -> PPrimeResult:
    """Degreewise check of d(Ker df) cap Im(df) = Im(df d) in degree i."""
    if i < 2:
        raise ValueError("the criterion concerns form degree >= 2")
    weights = sorted(_realized_form_weights(problem, i, degree_bound))
    cap_relative = not problem.positive_weights
    ambient_cap = degree_bound + max(problem.f.total_degree(), 1) + 1
    for c in weights:
        probe = FormSpace(problem, i, c, degree_bound)
        if not probe.items:
            continue
        space = FormSpace(problem, i, c, ambient_cap)
        prev_here = FormSpace(problem, i - 1, c, degree_bound + 1)
        prev_below = FormSpace(problem, i - 1, c - problem.degree, degree_bound + 1)
        below_2 = FormSpace(problem, i - 2, c - problem.degree, degree_bound + 2)

        d_kernel = []  # d(Ker df-wedge)
        for v in _df_kernel_vectors(problem, prev_here):
            form = prev_here.form(v).exterior_derivative()
            if form:
                d_kernel.append(space.vec(form))
        im_df = []  # df wedge Omega^(i-1)
        for wedge, exp in prev_below.items:
            beta = DifferentialForm.monomial_form(
                problem.nvars, wedge, Polynomial.monomial(problem.nvars, exp)
            )
            w1 = df_wedge(problem.f, beta)
            if w1:
                im_df.append(space.vec(w1))
        im_dfd = linalg.Echelon()  # df wedge d(Omega^(i-2))
        for wedge, exp in below_2.items:
            gamma = DifferentialForm.monomial_form(
                problem.nvars, wedge, Polynomial.monomial(problem.nvars, exp)
            )
            w2 = df_wedge(problem.f, gamma.exterior_derivative())
            if w2:
                im_dfd.add(space.vec(w2))

        # intersection of span(d_kernel) and span(im_df)
        columns = d_kernel + [_neg_vec(v) for v in im_df]
        for combo in linalg.nullspace(linalg.transpose(columns), len(columns)):
            u: linalg.Vec = {}
            for j, coeff in combo.items():
                if j >= len(d_kernel):
                    continue
                for k, val in d_kernel[j].items():
                    s = u.get(k, Fraction(0)) + coeff * val
                    if s:
                        u[k] = s
                    else:
                        u.pop(k, None)
            if u and im_dfd.reduce(u):
                return PPrimeResult(False, space.form(u), weights, cap_relative)
    return PPrimeResult(True, None, weights, cap_relative)


def _neg_vec(v: linalg.Vec) -> linalg.Vec:
    return {k: -val for k, val in v.items()}


def _realized_form_weights(problem: GermProblem, i: int, degree_bound: int):
    out = set()
    for wedge in wedge_tuples(problem.nvars, i):
        shift = sum(problem.weights[k] for k in wedge)
        for exp in _bounded_exponents(problem.nvars, degree_bound):
            out.add(monomial_weight(exp, problem.weights) + shift)
    return out


def _bounded_exponents(nvars: int, bound: int):
    rng = range(bound + 1)
    for exp in itertools.product(rng, repeat=nvars):
        if sum(exp) <= bound:
            yield exp


# -- deterministic sampling -----------------------------------------------------


def sample_top_classes(
    problem: GermProblem, count: int, seed: int, degree_bound: int = 6
) -> list[CohomologyClass]:
    """Deterministic pseudo-random top-degree classes [m * volume form]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        exp = tuple(rng.randint(0, degree_bound // problem.nvars + 1) for _ in range(problem.nvars))
        rep = volume_form(problem.nvars, Polynomial.monomial(problem.nvars, exp))
        out.append(CohomologyClass(problem, problem.n, rep))
    return out


def random_kernel_elements(
    problem: GermProblem, i: int, count: int, seed: int, degree_bound: int = 4
) -> list[DifferentialForm]:
    """Random polynomial combinations of the A^i module generators."""
    gens = kernel_generator_forms(problem, i)
    rng = random.Random(seed)
    out = []
    while len(out) < count and gens:
        form = DifferentialForm.zero(problem.nvars, i)
        for g in gens:
            if rng.random() < 0.5:
                continue
            exp = tuple(rng.randint(0, degree_bound) for _ in range(problem.nvars))
            coeff = Fraction(rng.randint(-3, 3))
            if coeff:
                form = form + g * Polynomial.monomial(problem.nvars, exp, coeff)
        if form:
            out.append(form)
    return out
