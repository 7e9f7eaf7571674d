"""Test oracles: the actions of t, s and t*dt on classes, the Euler fields,
contraction and the Lie derivative, d by partial derivatives, Theta_f and
delta, Groebner normal forms and membership, the rational weights the
integer grading is checked against, the C{t}-basis by the scan of every
monomial weight, slice-space coordinates by position, the congruences of a
lattice that the keys of poly.Cosets are checked against, and g times a
logarithmic form and the log basis rank of a normal-crossing germ.  One
helper runs a command: nc_report_ranks reads the ranks of an `nc` report,
for comparison with log_basis_rank.

No command calls these: the CLI reports consequences of the module
structure (torsion certificates, the spectrum), not the actions themselves.
The tests use them to check what the commands compute, for example that
each reported exponent is the t*dt eigenvalue of its class.  They are plain
functions over brieskorn objects; a vector field is a tuple of component
polynomials, one per variable.
"""

import functools
import itertools
import json
import math
import operator
import os
import random
from fractions import Fraction

from brieskorn import _backend, engine, groebner, linalg
from brieskorn.cli import main as cli_main
from brieskorn.engine import (
    CohomologyClass,
    GermProblem,
    InvariantViolation,
    h_slice,
    kernel_forms,
)
from brieskorn.forms import DifferentialForm, _sort_wedge, df_wedge, differential
from brieskorn.poly import Cosets, Grading, Polynomial, iter_monomials_of_weight, parse_polynomial, weight_vector
from brieskorn.germ import combined_problem, lift_form

# -- germs ----------------------------------------------------------------------


def problem_from_strings(variables, weights, polynomial, name=None) -> GermProblem:
    return GermProblem(variables, weights, parse_polynomial(polynomial, variables), name=name)


def extend_with_inert_variable(p: GermProblem, var: str, weight) -> GermProblem:
    """The same f viewed in one more variable (pullback along a projection)."""
    if var in p.variables:
        raise ValueError(f"variable {var!r} already present")
    f = p.f.remap_variables(p.nvars + 1, list(range(p.nvars)))
    return GermProblem((*p.variables, var), (*p.weights, Fraction(weight)), f, name=p.name)


# -- rational weights -------------------------------------------------------------


def monomial_weight(exp, weights) -> Fraction:
    """The weight sum(w_k * e_k) of x^exp, in Fractions."""
    return Fraction(sum(w * e for w, e in zip(weights, exp)))


def weighted_degree(form, weights):
    """Common weight of the terms of a nonzero DifferentialForm (dx_i counts
    with weight w_i) or Polynomial, or None when they differ, in Fractions."""
    coeffs = form.coeffs if isinstance(form, DifferentialForm) else {(): form}
    if not any(coeffs.values()):
        raise ValueError("zero has no weighted degree")
    degree = None
    for wedge, poly in coeffs.items():
        shift = sum(weights[i] for i in wedge)
        for exp in poly.terms:
            d = monomial_weight(exp, weights) + shift
            if degree is None:
                degree = d
            elif d != degree:
                return None
    return Fraction(degree)


def form_entries(form: DifferentialForm) -> list[tuple]:
    """The terms of a form as keyed entries ((wedge, exp), coeff), sorted by
    key: a column of keyed entries for linalg.nullspace and solve_columns."""
    return sorted(form.entries())


def position_form(space, vec) -> DifferentialForm:
    """The form with coordinates vec {position: coeff} over the items of a FormSpace."""
    return DifferentialForm.from_entries(space.problem.nvars, space.i, ((space.items[k], c) for k, c in vec.items()))


def position_vec(space, form: DifferentialForm) -> dict:
    """The coordinates {position: coeff} of a form over the items of a
    FormSpace; a KeyError for a term outside the space."""
    index = {key: k for k, key in enumerate(space.items)}
    return {index[key]: c for key, c in form.entries()}


def monomials_of_weight(weights, target, cap, classes=None, cosets=None) -> list:
    """The exponents iter_monomials_of_weight gives at a rational target:
    those of the scaled target of Grading(weights), none off its lattice.
    classes, a pair (generators, points), keeps those of the cosets p + M
    of its points p of that weight, M the lattice of generators, which
    must have weight 0 (weightless); like FormSpace, the walk is given the
    key of each coset once.  The keyed walk runs on cosets, the Cosets of
    M, which keeps its walks, or else on a fresh one."""
    grading = Grading(weight_vector(weights))
    c = grading.scaled(target)
    if c is None:
        return []
    if classes is not None:
        if cosets is None:
            cosets = Cosets(grading.weights, classes[0])
        classes = cosets, {cosets.key(p) for p in classes[1] if grading.monomial(p) == c}
    return list(iter_monomials_of_weight(grading, c, cap, classes))


# -- lattices: the reference for key classes ------------------------------------


def exponent_key(congruences, exp) -> tuple:
    """One entry per congruence (c, m): sum(c_k * e_k) mod m, unreduced for m = 0."""
    return tuple(sum(map(operator.mul, c, exp)) % m if m else sum(map(operator.mul, c, exp)) for c, m in congruences)


def lattice_congruences(generators, nvars: int) -> list:
    """Congruences that tell the cosets of the lattice L spanned by generators apart.

    Pairs (c, m): u lies in L iff sum(c_k u_k) is divisible by m for every
    pair (equal to 0 for m = 0), so exponent_key(pairs, v) names the coset
    v + L.  Integer row and column operations bring the generator rows A to
    a diagonal D = U A V (U, V unimodular; only V is kept).  u = x A for an
    integer x iff u V lies in the row lattice of D, so the columns of V are
    the c and the diagonal of D the m, with m = 0 past the rank.  Pairs with
    m = 1 hold everywhere and are left out; the c of a pair with m > 1 are
    reduced mod m.  A Smith-style reduction, independent of the echelon of
    poly.Cosets, whose keys it checks.
    """
    rows = [list(g) for g in generators if any(g)]
    cols = [[int(r == c) for r in range(nvars)] for c in range(nvars)]  # V, by column
    t = 0
    while t < min(len(rows), nvars):
        # move the smallest nonzero entry of the block past (t, t) to (t, t)
        entries = [(abs(v), i, j) for i in range(t, len(rows)) for j in range(t, nvars) if (v := rows[i][j])]
        if not entries:
            break
        _, i, j = min(entries)
        rows[t], rows[i] = rows[i], rows[t]
        for row in rows:
            row[t], row[j] = row[j], row[t]
        cols[t], cols[j] = cols[j], cols[t]
        pivot, done = rows[t][t], True
        for row in rows[t + 1 :]:  # clear column t by row operations
            q = row[t] // pivot
            if q:
                row[:] = [a - q * b for a, b in zip(row, rows[t])]
            done = done and not row[t]
        for j in range(t + 1, nvars):  # clear row t by column operations
            q = rows[t][j] // pivot
            if q:
                for row in rows:
                    row[j] -= q * row[t]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[t])]
            done = done and not rows[t][j]
        if done:  # else a remainder smaller than the pivot is left
            t += 1
    moduli = [abs(rows[k][k]) for k in range(t)] + [0] * (nvars - t)
    return [(tuple(a % m for a in c) if m else tuple(c), m) for c, m in zip(cols, moduli) if m != 1]


def weightless(weights, generators) -> list:
    """Generators of the vectors of weight 0 in the lattice of generators,
    by Euclid on their weights: the lattice walked at one weight."""
    integer = Grading(weight_vector(weights)).weights

    def weight(g):
        return sum(map(operator.mul, integer, g))

    rows, out = [list(g) for g in generators], []
    while True:
        out += [g for g in rows if not weight(g)]
        rows = sorted((g for g in rows if weight(g)), key=lambda g: abs(weight(g)))
        if len(rows) < 2:
            return out
        a = rows[0]
        rows = [a] + [[x - weight(g) // weight(a) * y for x, y in zip(g, a)] for g in rows[1:]]


# -- normal-crossing germs --------------------------------------------------------


def g_times_log_form(nvars: int, degree: int, b, coeffs) -> DifferentialForm:
    """g * (x^b sum_W c_W eta_W) for g = prod x_j and eta_W = dx_W / x_W,
    coeffs mapping each wedge W to c_W: the W term is c_W x^b dx_W times
    prod_{j not in W} x_j."""
    terms = {}
    for wedge, c in coeffs.items():
        outside = Polynomial.monomial(nvars, tuple(int(j not in wedge) for j in range(nvars)))
        terms[wedge] = Polynomial.monomial(nvars, tuple(b), c) * outside
    return DifferentialForm(nvars, degree, terms)


def log_basis_rank(exponents, p: int) -> int:
    """The pairs (k, I) indexing the free log basis x^(k mu) eta_I of
    prod x_i^(m_i) in relative degree p, counted: 0 <= k < gcd(m_i) and I a
    p-subset of {2..n}."""
    e = functools.reduce(math.gcd, exponents)
    return sum(1 for _pair in itertools.product(range(e), itertools.combinations(range(1, len(exponents)), p)))


def nc_report(directory, exponents) -> dict:
    """The result of an `nc` report (degree bound 1) on prod x_i^(m_i), run
    through the CLI in directory."""
    names = "xyzw"[: len(exponents)]
    problem, out = os.path.join(directory, "nc.json"), os.path.join(directory, "nc-report.json")
    with open(problem, "w", encoding="utf-8") as fh:
        json.dump({
            "name": "nc", "variables": list(names), "weights": ["1"] * len(names),
            "polynomial": "*".join(f"{v}^{m}" for v, m in zip(names, exponents)),
        }, fh)
    assert cli_main(["nc", problem, "--max-degree", "1", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)["result"]


def nc_report_ranks(directory, exponents) -> dict[int, int]:
    """The ranks {p: rank} that an `nc` report (degree bound 1) gives for
    prod x_i^(m_i), run through the CLI in directory."""
    return {int(p): rank for p, rank in nc_report(directory, exponents)["ranks"].items()}


# -- vector fields and the exterior calculus ------------------------------------


def euler_field(p: GermProblem) -> tuple:
    """E = sum w_i x_i d_i, so E(f) = deg(f) * f."""
    return tuple(Polynomial.variable(p.nvars, i) * w for i, w in enumerate(p.weights))


def xi(p: GermProblem) -> tuple:
    """The normalized Euler field, xi(f) = f."""
    return tuple(c * (1 / p.degree) for c in euler_field(p))


def apply(field, poly: Polynomial) -> Polynomial:
    """Directional derivative of a polynomial."""
    return sum((c * poly.partial_derivative(i) for i, c in enumerate(field) if c), Polynomial.zero(poly.nvars))


def function_form(poly: Polynomial) -> DifferentialForm:
    """A polynomial as a 0-form."""
    return DifferentialForm(poly.nvars, 0, {(): poly})


def contract(form: DifferentialForm, field) -> DifferentialForm:
    """Interior product i_field(form); the zero form on degree-0 input."""
    out = DifferentialForm.zero(form.nvars, max(form.degree - 1, 0))
    for wedge, p in form.coeffs.items():
        for pos, idx in enumerate(wedge):
            if field[idx]:
                q = p * field[idx] * (-1 if pos % 2 else 1)
                out = out + DifferentialForm(form.nvars, form.degree - 1, {wedge[:pos] + wedge[pos + 1 :]: q})
    return out


def lie_derivative(form: DifferentialForm, field) -> DifferentialForm:
    """Cartan's formula: L_v = d(i_v .) + i_v(d .)."""
    b = contract(form.exterior_derivative(), field)
    if form.degree == 0:
        return b
    return contract(form, field).exterior_derivative() + b


def d_reference(form: DifferentialForm) -> DifferentialForm:
    """d by partial derivatives: d(p dx_W) = sum_j (dp/dx_j) dx_j ^ dx_W,
    each wedge put in order by forms._sort_wedge with its permutation sign."""
    out = DifferentialForm.zero(form.nvars, form.degree + 1)
    for wedge, p in form.coeffs.items():
        for j in range(form.nvars):
            dp, sorted_ = p.partial_derivative(j), _sort_wedge((j, *wedge))
            if dp and sorted_ is not None:
                sign, new_wedge = sorted_
                out = out + DifferentialForm(form.nvars, form.degree + 1, {new_wedge: dp * sign})
    return out


def theta_f(p: GermProblem, degree_bound: int) -> list[tuple]:
    """Generators of {v : v(f) = 0} with components of degree <= bound.

    The full syzygy generating set of the partials is computed; the bound
    only filters the reported generators.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    syz = groebner.module_kernel([list(p.partials)])
    return [vec for vec in syz if max((c.total_degree() for c in vec), default=-1) <= degree_bound]


def delta_at_origin(p: GermProblem) -> int:
    """Rank of the constant parts of Theta_f at the origin."""
    ech = linalg.Echelon()
    rank = 0
    for vec in groebner.module_kernel([list(p.partials)]):
        v = {i: c.constant_term() for i, c in enumerate(vec) if c.constant_term()}
        if v and ech.add(v):
            rank += 1
    return rank


# -- the actions on classes -------------------------------------------------------


def t_action(cls: CohomologyClass) -> CohomologyClass:
    """Multiplication by f (the weight goes up by deg f)."""
    p = cls.problem
    return CohomologyClass(p, cls.i, cls.representative * p.f, weight=cls.weight + p.degree)


def s_action(cls: CohomologyClass) -> CohomologyClass:
    """dt^-1 via the Euler antiderivative: df wedge (i_E rep) / c.

    A weight-0 class has no homogeneous antiderivative (ValueError).  For
    degree-1 classes the antiderivative is also checked to vanish on
    f^-1(0) (radical membership), the canonical choice.
    """
    c = cls.weight
    if c == 0:
        raise ValueError("no homogeneous antiderivative at weight 0")
    p = cls.problem
    eta = contract(cls.representative, euler_field(p)) * (1 / c)
    if eta.exterior_derivative() != cls.representative:
        raise InvariantViolation("Euler antiderivative failed (representative not closed?)")
    if cls.i == 1:
        poly = eta.coeffs.get((), Polynomial.zero(p.nvars))
        poly = poly - poly.constant_term()
        if not is_in_radical(poly, [p.f]):
            raise InvariantViolation("degree-1 antiderivative does not vanish on the zero fiber")
        eta = function_form(poly)
    return CohomologyClass(p, cls.i, df_wedge(p.f, eta), weight=c + p.degree)


def tdt_action(cls: CohomologyClass) -> CohomologyClass:
    """Lie derivative along the normalized Euler field, minus the identity."""
    rep = lie_derivative(cls.representative, xi(cls.problem)) - cls.representative
    return CohomologyClass(cls.problem, cls.i, rep, weight=cls.weight)


def class_is_boundary(cls: CohomologyClass, cap=None) -> bool:
    """Exactness of the representative in its own weight slice: a solve of
    d(eta) = rep with df wedge eta = 0, eta in the slice of degree i - 1
    one total degree above the slice's cap."""
    p = cls.problem
    block = engine._block(p, cls.i - 1, cls.c, cap, None, engine._slice_cap(p, cls.c, cap) + 1)
    return engine._s_chain([block], cls.representative) is not None


def monomial_weights(weights, bound: int) -> set[int]:
    """Integer weights <= bound of all monomials, for positive integer
    weights: the sums s + k * w_i <= bound, built one variable at a time."""
    sums = {0} if bound >= 0 else set()
    for w in weights:
        sums = {s + k * w for s in sums for k in range((bound - s) // w + 1)}
    return sums


def ct_basis_over_every_slice(p: GermProblem) -> list[CohomologyClass]:
    """The C{t}-basis by the scan of every slice weight up to the top
    standard monomial weight plus sum W: at each weight the new generators
    are the slice classes independent modulo t(slice c - D) and, in one
    variable, modulo f^(k-1) df at c = kD.  The slice c - D is spanned by
    its seeds and its new generators, so f times these seed slice c."""
    grading, d = p.grading, p.scaled_degree
    sum_w = sum(grading.weights)
    std = groebner.standard_monomials(p.jacobian)
    top = max((grading.monomial(e) for e in std), default=0)
    spans, out = {}, []  # weight c -> seeds and new representatives of slice c
    for c in sorted(s + sum_w for s in monomial_weights(grading.weights, top)):
        seeds = [form * p.f for form in spans.get(c - d, ())]
        k, r = divmod(c, d)
        if p.nvars == 1 and not r and k >= 1:
            seeds.append(differential(p.f) * (p.f ** (k - 1)))
        new = h_slice(p, p.nvars, Fraction(c, grading.scale), seeds=seeds).classes
        spans[c] = seeds + [cls.representative for cls in new]
        out.extend(new)
    return out


def external_product(cls_f: CohomologyClass, cls_g: CohomologyClass) -> CohomologyClass:
    """Class of rep_f wedge rep_g on the sum germ f + g; its residue exponent
    is alpha_f + alpha_g + 1."""
    pf = cls_f.problem
    combined = combined_problem(pf, cls_g.problem)
    nv = combined.nvars
    wf = lift_form(cls_f.representative, 0, nv)
    wg = lift_form(cls_g.representative, pf.nvars, nv)
    return CohomologyClass(combined, cls_f.i + cls_g.i, wf.wedge(wg))


def random_kernel_elements(p: GermProblem, i: int, count: int, seed: int, degree_bound: int = 4):
    """Random polynomial combinations of the A^i module generators."""
    gens = kernel_forms(p, i)
    rng = random.Random(seed)
    out = []
    while len(out) < count and gens:
        form = DifferentialForm.zero(p.nvars, i)
        for g in gens:
            if rng.random() < 0.5:
                continue
            exp = tuple(rng.randint(0, degree_bound) for _ in range(p.nvars))
            coeff = Fraction(rng.randint(-3, 3))
            if coeff:
                form = form + g * Polynomial.monomial(p.nvars, exp, coeff)
        if form:
            out.append(form)
    return out


# -- Groebner membership ---------------------------------------------------------


def normal_form(p: Polynomial, basis) -> Polynomial:
    """Remainder of p modulo `basis`; unique when basis is a Groebner basis."""
    flats = [groebner._vector_to_flat((g,)) for g in basis if g]
    return groebner._flat_to_vector(_backend.normal_form(groebner._vector_to_flat((p,)), flats), p.nvars, 1)[0]


def ideal_member(poly: Polynomial, gens) -> bool:
    return poly.is_zero or normal_form(poly, groebner.groebner_basis(gens)).is_zero


def is_in_radical(poly: Polynomial, gens) -> bool:
    """Rabinowitsch trick: p in rad(gens) iff 1 in (gens, 1 - u*p)."""
    if poly.is_zero:
        return True
    nvars = poly.nvars
    big, lift = nvars + 1, list(range(nvars))
    u = Polynomial.variable(big, nvars)
    work = [g.remap_variables(big, lift) for g in gens if g]
    work.append(Polynomial.constant(big, 1) - u * poly.remap_variables(big, lift))
    return groebner.groebner_basis(work) == [Polynomial.constant(big, 1)]


def coefficient_vectors(p: GermProblem, i: int, forms) -> list[tuple[Polynomial, ...]]:
    """Degree-i forms as coefficient vectors over the ascending wedges."""
    zero = Polynomial.zero(p.nvars)
    return [tuple(g.coeffs.get(w, zero) for w in engine.wedge_tuples(p.nvars, i)) for g in forms]


def module_member(vec, generators) -> bool:
    """Whether vec lies in the submodule the generator vectors span."""
    if all(p.is_zero for p in vec):
        return True
    gb = groebner.module_groebner_flat(generators)
    return not _backend.normal_form(groebner._vector_to_flat(vec), gb)


def modules_equal(a, b) -> bool:
    """Mutual membership of two lists of generator vectors (span equality)."""
    return all(module_member(v, b) for v in a) and all(module_member(v, a) for v in b)
