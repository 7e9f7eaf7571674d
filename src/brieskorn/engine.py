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
from operator import add
from typing import Iterable, Sequence

from brieskorn import groebner, linalg
from brieskorn.forms import (
    DifferentialForm,
    VectorField,
    df_wedge,
    differential,
    partial_terms,
    volume_form,
)
from brieskorn.poly import (
    ONE,
    Polynomial,
    exponent_key,
    format_rational,
    iter_monomials_of_weight,
    lattice_congruences,
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
        self._congruences: list | None = None

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

    # -- key classes: the characters of f's diagonal symmetry group ----------

    @property
    def congruences(self) -> list[tuple[tuple[int, ...], int]]:
        """Congruences that tell the key classes of one weight apart.

        The key of x^e dx_W is the class of e + 1_W in Z^n / L0, where L0 is
        spanned by the differences of f's exponent vectors; its congruences
        come from poly.lattice_congruences.  The weight vanishes on L0, so
        when Z^n / L0 has a single free factor, that factor is the weight,
        which a slice fixes, and its congruence is left out.  Computed on
        first use.
        """
        if self._congruences is None:
            exps = list(self.f.terms)
            pairs = lattice_congruences(([a - b for a, b in zip(e, exps[0])] for e in exps[1:]), self.nvars)
            free = sum(1 for _c, m in pairs if not m)
            self._congruences = [(c, m) for c, m in pairs if m or free > 1]
        return self._congruences

    def key(self, wedge: Sequence[int], exp: Sequence[int]) -> tuple[int, ...]:
        """Key of the monomial form x^exp dx_wedge: the class of exp + 1_wedge."""
        v = list(exp)
        for k in wedge:
            v[k] += 1
        return exponent_key(self.congruences, v)

    def form_keys(self, form: DifferentialForm, shift: int = 0) -> frozenset:
        """Keys of the terms of a form, each moved by shift * [m] for a monomial m of f.

        d keeps keys and both df wedge and multiplication by f add [m], so
        the unknown eta_j of an s-chain (and of t-level j) for this form
        has keys form_keys(form, j).
        """
        m = next(iter(self.f.terms))
        return frozenset(
            self.key(wedge, [a + shift * b for a, b in zip(exp, m)])
            for wedge, poly in form.coeffs.items()
            for exp in poly.terms
        )

    def exponent_classes(self, keys: Iterable[tuple], wedge: Sequence[int]):
        """The classes argument of iter_monomials_of_weight that keeps the
        exponents e of the forms x^e dx_wedge with a key in keys."""
        unit = self.key(wedge, (0,) * self.nvars)
        moduli = [m for _c, m in self.congruences]
        return self.congruences, {
            tuple((a - b) % m if m else a - b for a, b, m in zip(key, unit, moduli)) for key in keys
        }

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
    total degree <= cap; with keys, only the forms whose key is in keys."""

    def __init__(self, problem: GermProblem, i: int, c: Fraction, cap: int, keys=None):
        self.problem = problem
        self.i = i
        self.c = Fraction(c)
        self.cap = cap
        items: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for wedge in wedge_tuples(problem.nvars, i):
            shift = sum(problem.weights[k] for k in wedge)
            classes = None if keys is None else problem.exponent_classes(keys, wedge)
            for exp in iter_monomials_of_weight(
                problem.nvars, problem.weights, self.c - shift, cap, classes
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
            if k in out:
                out[k] += coeff
            else:
                out[k] = coeff
        return {k: v for k, v in out.items() if v}


def _form_entries(form: DifferentialForm, group=None):
    for wedge, poly in sorted(form.coeffs.items()):
        for exp, coeff in sorted(poly.terms.items()):
            key = (wedge, exp) if group is None else (group, wedge, exp)
            yield key, coeff


def _df_kernel_vectors(problem: GermProblem, space: FormSpace) -> list[linalg.Vec]:
    """Basis of Ker(df-wedge) restricted to the enumerated slice space."""
    nv, f = problem.nvars, problem.f
    images = []
    for wedge, exp in space.items:
        # x^exp dx_wedge, unvalidated: the space's items are valid by construction
        coeff = Polynomial.__new__(Polynomial)
        coeff.nvars, coeff.terms, coeff._hash = nv, {exp: ONE}, None
        form = DifferentialForm.__new__(DifferentialForm)
        form.nvars, form.degree, form.coeffs = nv, space.i, {wedge: coeff}
        images.append(_form_entries(df_wedge(f, form)))
    return _image_kernel(images)


def _combine(vectors: Sequence[linalg.Vec], coeffs: linalg.Vec) -> linalg.Vec:
    """sum coeffs[j] * vectors[j], zero entries dropped."""
    out: linalg.Vec = {}
    for j, coeff in coeffs.items():
        for k, val in vectors[j].items():
            s = out.get(k)
            s = coeff * val if s is None else s + coeff * val
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _monomial_images(f: Polynomial, items: Sequence[tuple]) -> tuple[list[list], list[list]]:
    """Keyed entries of d(beta) and of df wedge beta for every basis form beta.

    beta = x^e dx_w runs over items, a list of (w, e) pairs.  Both images
    come from exponent arithmetic, with the partials of f taken once per f
    (forms.partial_terms, shared with df_wedge) and one Fraction per
    distinct d entry: d(beta) has the entry sign * e_j at (w + j, e - 1_j),
    and df wedge beta holds the terms of sign * (df/dx_j) x^e at w + j, for
    each j not in w, where sign is (-1)^(number of indices of w below j).
    Entries and their order equal _form_entries of
    beta.exterior_derivative() and df_wedge(f, beta): the wedges w + j
    ascend with j, and shifting the (sorted) terms of a partial by e keeps
    their order.  Keys within one image are distinct.
    """
    nvars = f.nvars
    partials = partial_terms(f)
    scalars: dict[int, Fraction] = {}
    d_images, df_images = [], []
    for wedge, exp in items:
        d_entries, df_entries = [], []
        below = 0  # indices of the wedge below j
        for j in range(nvars):
            if below < len(wedge) and wedge[below] == j:
                below += 1
                continue
            new_wedge = (*wedge[:below], j, *wedge[below:])
            odd = below % 2
            if exp[j]:
                lowered = (*exp[:j], exp[j] - 1, *exp[j + 1 :])
                k = -exp[j] if odd else exp[j]
                scalar = scalars.get(k)
                if scalar is None:
                    scalar = scalars[k] = Fraction(k)
                d_entries.append(((new_wedge, lowered), scalar))
            for e2, c in partials[j][odd]:
                df_entries.append(((new_wedge, tuple(map(add, e2, exp))), c))
        d_images.append(d_entries)
        df_images.append(df_entries)
    return d_images, df_images


def _image_kernel(images: Sequence[Iterable[tuple]]) -> list[linalg.Vec]:
    """Canonical basis of the combinations of basis forms whose keyed images sum to 0."""
    img = DynamicIndex()
    return linalg.nullspace(linalg.transpose([img.vec(entries) for entries in images]), len(images))


def _indexed(index: dict, images: Sequence[list]) -> list[linalg.Vec]:
    """Each keyed image of _monomial_images as a vector over a basis index."""
    return [{index[key]: coeff for key, coeff in entries} for entries in images]


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


def _slice_cap(problem: GermProblem, c: Fraction, cap: int | None, least: int = 0) -> int:
    """Total-degree cap of a weight-c slice space.

    With positive weights the slice is finite and the derived cap covers it
    exactly; otherwise the given cap, raised to least, and without one
    CapExceeded (from auto_cap).
    """
    if problem.positive_weights or cap is None:
        return problem.auto_cap(c)
    return max(cap, least)


def h_slice(problem: GermProblem, i: int, c, cap: int | None = None) -> HSlice:
    """Exact basis of the weight-c slice of H^i = H(Ker df-wedge, d).

    With positive weights the slice is finite and the cap is derived; with
    some weight <= 0 an explicit cap is required and completeness (not
    kernel membership) is cap-relative.  The d images come from exponent
    arithmetic (_monomial_images), built only over a nonzero kernel.
    """
    if not 0 <= i <= problem.n:
        raise ValueError("form degree out of range")
    c = Fraction(c)
    space = FormSpace(problem, i, c, _slice_cap(problem, c, cap))

    kernel = _df_kernel_vectors(problem, space)

    # closed kernel vectors: restrict d to the kernel span
    if i < problem.n and kernel:
        d_images = [dict(entries) for entries in _monomial_images(problem.f, space.items)[0]]
        combos = _image_kernel([_combine(d_images, v).items() for v in kernel])
        closed = [v for v in (_combine(kernel, combo) for combo in combos) if v]
    else:
        closed = kernel

    # boundary space d(A^{i-1}) at the same weight
    reducer = linalg.Echelon()
    if i >= 1:
        prev = FormSpace(problem, i - 1, c, space.cap + 1)
        prev_kernel = _df_kernel_vectors(problem, prev)
        if prev_kernel:
            d_prev = _indexed(space.index, _monomial_images(problem.f, prev.items)[0])
            for v in prev_kernel:
                d_img = _combine(d_prev, v)
                if d_img:
                    reducer.add(d_img)

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
    return HSlice(problem, i, c, space.cap, not problem.positive_weights, classes, space, reducer)


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
    module = kernel_forms(problem, i)  # checks the form degree
    cols = wedge_tuples(problem.nvars, i)
    out = []
    for vec in module.generators:
        out.append(
            DifferentialForm(
                problem.nvars, i, {w: p for w, p in zip(cols, vec) if p}
            )
        )
    return out


# -- torsion searches ----------------------------------------------------------


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
    """

    kind: str
    order: int
    witness: list[DifferentialForm]

    def verify(self, cls: CohomologyClass) -> bool:
        f, rep = cls.problem.f, cls.representative
        if self.kind == "t":
            # d lowers coefficient degree by at least one and f^p * rep has degree
            # p * deg f + deg rep exactly, so a witness no higher than that cannot
            # reach a nonzero target: refuse it before f^p is expanded
            top = max((w.total_degree_cap() for w in self.witness), default=-1)
            if not rep.is_zero and top <= rep.total_degree_cap() + self.order * f.total_degree():
                return False
            target, length = (rep if rep.is_zero else rep * f**self.order), 1
        elif self.kind == "s":
            target, length = rep, self.order
        else:
            return False
        return len(self.witness) == length and exact_chain(f, target, self.witness)


@dataclass
class NotFoundWithin:
    """A bounded search exhausted its ceiling without an answer."""

    bound: int
    cap_limited: bool


def torsion_order_t(cls: CohomologyClass, p_max: int, cap: int | None = None):
    """Smallest p <= p_max with f^p * rep exact in the kernel complex.

    Level p solves d(eta) = f^p * rep with df wedge eta = 0 over the slice
    space of block p of the s-chain (_s_block).  If eta solves level p,
    f*eta solves level p + 1: df wedge (f eta) = f (df wedge eta) = 0 and
    d(f eta) = df wedge eta + f d(eta) = f^(p+1) * rep.  From the first level
    p0 whose block cap is not raised by the user's cap (_monotone_level),
    f*eta also lies in the next block, so solvability is monotone in p from
    p0 on.  So levels are solved in turn, but past p0 level p_max is solved
    first: if it is unsolvable, so is every level in (p0, p_max], and the
    search stops.  The witness is the canonical solution at the smallest
    solvable level, as a scan of every level gives.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    problem = cls.problem
    if cls.representative.is_zero:
        return TorsionCertificate("t", 1, [DifferentialForm.zero(problem.nvars, cls.i - 1)])

    def solve(p: int) -> DifferentialForm | None:
        chain = _s_chain([_s_block(cls, p, cap)], cls.representative * problem.f**p)
        return None if chain is None else chain[0]

    p0 = _monotone_level(cls, cap)
    for p in range(1, p_max + 1):
        if p == p0 + 1 < p_max and solve(p_max) is None:
            break  # monotone from p0 on: no level in (p0, p_max] is solvable
        eta = solve(p)
        if eta is not None:
            cert = TorsionCertificate("t", p, [eta])
            if not cert.verify(cls):
                raise InvariantViolation("t-torsion certificate failed re-verification")
            return cert
    return NotFoundWithin(p_max, not problem.positive_weights)


@dataclass
class _SBlock:
    """A block of a slice system: a slice space and, for each basis form
    beta of it, the keyed entries of d(beta) and df wedge beta."""

    space: FormSpace
    d_images: list[list]
    df_images: list[list]


def _block(problem: GermProblem, i: int, weight: Fraction, cap: int | None, keys, least: int = 0):
    """The degree-i, weight slice block of the given keys, capped by _slice_cap
    (a cap for the whole slice)."""
    space = FormSpace(problem, i, weight, _slice_cap(problem, weight, cap, least), keys)
    return _SBlock(space, *_monomial_images(problem.f, space.items))


def _block_degrees(cls: CohomologyClass) -> tuple[int, int]:
    """(base, step): block j needs total degree base + j * step, the total
    degree of f^j * rep plus one."""
    return cls.representative.total_degree_cap() + 1, max(cls.problem.f.total_degree(), 1)


def _s_block(cls: CohomologyClass, j: int, cap: int | None) -> _SBlock:
    """Block j of the s-chain system: the slice of eta_j, restricted to the
    keys eta_j can have (GermProblem.form_keys)."""
    base, step = _block_degrees(cls)
    problem = cls.problem
    weight = cls.weight + j * problem.degree
    return _block(problem, cls.i - 1, weight, cap, problem.form_keys(cls.representative, j), base + j * step)


def _monotone_level(cls: CohomologyClass, cap: int | None) -> int:
    """First level p >= 1 from which f maps block p into block p + 1.

    Positive weights give full slices, so every level qualifies.  Otherwise
    block p has the cap max(cap, base + p * step), and f raises total degree
    by at most step, so f * (block p) lies in block p + 1 whenever
    cap <= base + p * step.
    """
    if cls.problem.positive_weights or cap is None:
        return 1  # without a cap, _slice_cap refuses the first block anyway
    base, step = _block_degrees(cls)
    return max(1, -((base - cap) // step))  # ceil((cap - base) / step)


def _s_chain(blocks: Sequence[_SBlock], target: DifferentialForm) -> list[DifferentialForm] | None:
    """Canonical solution of the full block system of the given blocks.

    Unknowns are the coordinates of eta_0..eta_r, block-major in space
    order; equation group 0 is d(eta_0) = target, group j is d(eta_j) =
    df wedge eta_(j-1) and group r+1 is df wedge eta_r = 0.  Free
    coordinates are zero.  None when the system is inconsistent.

    With one block this is the eta with df wedge eta = 0 and d(eta) =
    target: the solution of d restricted to the canonical Ker(df wedge)
    basis (linalg.nullspace) with free coordinates zero, combined back.  A
    basis column is a pivot of the stacked matrix exactly when it is a
    pivot column of df wedge, or it is a free column whose kernel vector is
    a pivot of d restricted to that basis.  Negating the df wedge group is a
    row scaling, which changes neither the pivots nor the solution.
    """
    img = DynamicIndex()
    columns = []
    for j, block in enumerate(blocks):
        for d_entries, df_entries in zip(block.d_images, block.df_images):
            entries = [((j, *key), coeff) for key, coeff in d_entries]
            entries += [((j + 1, *key), -coeff) for key, coeff in df_entries]
            columns.append(img.vec(entries))
    target_vec = img.vec(_form_entries(target, group=0))
    solution = linalg.solve_columns(columns, target_vec)
    if solution is None:
        return None
    chain = []
    offset = 0
    for block in blocks:
        dim = block.space.dim
        chain.append(
            block.space.form({k: solution[offset + k] for k in range(dim) if solution[offset + k]})
        )
        offset += dim
    return chain


def torsion_order_s(cls: CohomologyClass, r_max: int, cap: int | None = None):
    """Smallest chain depth solving d(sum eta_j dt^-j) = rep, as a certificate.

    The returned order rho means s^rho kills the class; the witness chain has
    length rho.

    The chain system is block-bidiagonal, so it is swept forward one block
    (one weight slice) at a time.  The carried state is homogenised: a
    subspace W_j of pairs (v, mu), where the values d(eta_j) may take are
    the v with (v, 1) in W_j.  W_0 = span{(rep, 1)}, and W_(j+1) holds the
    pairs (df wedge eta_j, mu) with (d(eta_j), mu) in W_j.

    Step j is one RREF of the vectors [d(beta) | df wedge beta | 0], for
    each basis form beta of block j, and [-v | 0 | mu], for each state row,
    with columns ordered [group j | group j+1 | lambda].  The RREF rows
    pivoting past the group-j columns are a basis of the row-space vectors
    that vanish on group j, which is W_(j+1) in reduced form.  Depth j+1 is solvable iff
    (0, 1) lies in W_(j+1), that is iff lambda is a pivot.  When no row of
    W_(j+1) has mu != 0, step j is inconsistent, and so is every deeper
    system (it contains groups 0..j): the search stops at once.  The witness
    of the first solvable depth comes from one solve of the full block
    system (_s_chain), so it is the canonical solution of that system.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    problem = cls.problem
    index = DynamicIndex()  # coordinates of equation group j
    state = [(index.vec(_form_entries(cls.representative)), Fraction(1))]
    blocks: list[_SBlock] = []
    for j in range(r_max):
        block = _s_block(cls, j, cap)
        blocks.append(block)
        d_parts = [index.vec(entries) for entries in block.d_images]
        n = len(index.index)
        index = DynamicIndex()
        df_parts = [index.vec(entries) for entries in block.df_images]
        lam = n + len(index.index)
        vectors = [{**d, **{n + k: c for k, c in df.items()}} for d, df in zip(d_parts, df_parts)]
        for v, mu in state:
            vectors.append({k: -c for k, c in v.items()})
            if mu:
                vectors[-1][lam] = mu
        rows, pivots = linalg.rref(vectors)
        if pivots and pivots[-1] == lam:
            chain = _s_chain(blocks, cls.representative)
            if chain is None:
                raise InvariantViolation("s-chain block system disagrees with its forward sweep")
            cert = TorsionCertificate("s", j + 1, chain)
            if not cert.verify(cls):
                raise InvariantViolation("s-torsion certificate failed re-verification")
            return cert
        state = [
            ({k - n: c for k, c in row.items() if k != lam}, row.get(lam))
            for p, row in zip(pivots, rows)
            if p >= n
        ]
        if not any(mu for _v, mu in state):
            break
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
    candidates = sorted(s + sum_w for s in _monomial_weights(problem.weights, max_c - sum_w))
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


def _monomial_weights(weights: Sequence[Fraction], bound: Fraction) -> set[Fraction]:
    """Weights <= bound of all monomials, for positive weights: the sums
    s + k * w_i <= bound, built one variable at a time."""
    sums = {Fraction(0)} if bound >= 0 else set()
    for w in weights:
        sums = {s + k * w for s in sums for k in range(int((bound - s) / w) + 1)}
    return sums


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
    cap_relative: bool


def check_p_prime(problem: GermProblem, i: int, degree_bound: int) -> PPrimeResult:
    """Degreewise check of d(Ker df) cap Im(df) = Im(df d) in degree i."""
    if i < 2:
        raise ValueError("the criterion concerns form degree >= 2")
    if i > problem.n:
        raise ValueError("form degree out of range")
    weights = sorted(_realized_form_weights(problem, i, degree_bound))
    cap_relative = not problem.positive_weights
    ambient_cap = degree_bound + max(problem.f.total_degree(), 1) + 1
    for c in weights:
        space = FormSpace(problem, i, c, ambient_cap)
        prev_here = FormSpace(problem, i - 1, c, degree_bound + 1)
        prev_below = FormSpace(problem, i - 1, c - problem.degree, degree_bound + 1)
        below_2 = FormSpace(problem, i - 2, c - problem.degree, degree_bound + 2)

        d_here, df_here = _monomial_images(problem.f, prev_here.items)
        d_cols = _indexed(space.index, d_here)
        kernel = _image_kernel(df_here)
        d_kernel = [u for u in (_combine(d_cols, v) for v in kernel) if u]  # d(Ker df-wedge)
        df_below = _indexed(space.index, _monomial_images(problem.f, prev_below.items)[1])
        im_df = [v for v in df_below if v]  # df wedge Omega^(i-1)
        im_dfd = linalg.Echelon()  # df wedge d(Omega^(i-2))
        for d_gamma in _indexed(prev_below.index, _monomial_images(problem.f, below_2.items)[0]):
            w2 = _combine(df_below, d_gamma)
            if w2:
                im_dfd.add(w2)

        # intersection of span(d_kernel) and span(im_df)
        columns = d_kernel + [{k: -val for k, val in v.items()} for v in im_df]
        for combo in linalg.nullspace(linalg.transpose(columns), len(columns)):
            u = _combine(d_kernel, {j: c for j, c in combo.items() if j < len(d_kernel)})
            if u and im_dfd.reduce(u):
                return PPrimeResult(False, space.form(u), cap_relative)
    return PPrimeResult(True, None, cap_relative)


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
