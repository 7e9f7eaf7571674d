"""Core engine: kernel-of-df complexes for quasi-homogeneous germs.

For a quasi-homogeneous polynomial f (a germ.GermProblem) this module
computes the subcomplex A^i = Ker(df-wedge) of polynomial forms and its
module generators, finite weight slices of its d-cohomology H^i, the
C{t}-basis and spectrum of an isolated germ, bounded t- and s-torsion
searches whose certificates germ.TorsionCertificate re-checks, Milnor
numbers, and condition (P') degree by degree, d(Ker df) cap Im(df) =
Im(df d), which at the top degree says ker s cap sH'' = 0: the torsion of
H'' is killed by s.

Grading conventions: a form's weight counts dx_i with weight w_i; t
(multiplication by f) raises weight by deg(f), d preserves it, and on a
weight-c class the residue-type operator t*dt acts by c/deg(f) - 1 (the -1
accounting for the df-wedge identification of A-classes with relative
forms).  The actions of t, s and t*dt themselves are not computed here;
the test suite's oracles check the reported exponents against them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from brieskorn import groebner, linalg
from brieskorn.forms import DifferentialForm, df_wedge, monomial_images, partial_terms, volume_form
from brieskorn.germ import CohomologyClass, GermProblem, InvariantViolation, NonIsolatedError, TorsionCertificate
from brieskorn.poly import ONE, Polynomial, format_rational, iter_monomials_of_weight


# -- ambient slice spaces ------------------------------------------------------


def wedge_tuples(nvars: int, i: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(nvars), i))


class FormSpace:
    """Enumerated basis of forms of integer weight c and degree i with
    coefficient total degree <= cap; with keys, only the forms whose key is
    in keys.  Items ascend: the wedges do, and so do the exponents of each."""

    def __init__(self, problem: GermProblem, i: int, c: int, cap: int, keys=None):
        self.problem = problem
        self.i = i
        self.c = c
        self.cap = cap
        grading, classes = problem.grading, None
        if keys is not None:  # x^e dx_W has key k when e + 1_W lies in the coset of k, of weight c
            points = [k for k in keys if grading.monomial(k) == c]
        items: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for wedge in wedge_tuples(problem.nvars, i):
            shift = sum(grading.weights[k] for k in wedge)
            if keys is not None:
                classes = problem.cosets, [tuple(e - (k in wedge) for k, e in enumerate(p)) for p in points]
            for exp in iter_monomials_of_weight(grading, c - shift, cap, classes):
                items.append((wedge, exp))
        self.items = items

    @property
    def dim(self) -> int:
        return len(self.items)


def _df_kernel_vectors(problem: GermProblem, space: FormSpace) -> list[linalg.Vec]:
    """Basis of Ker(df-wedge) restricted to the enumerated slice space."""
    nv, f = problem.nvars, problem.f
    images = []
    for wedge, exp in space.items:
        # x^exp dx_wedge, unvalidated: the space's items are valid by construction
        form = DifferentialForm._of(nv, space.i, {wedge: Polynomial._of(nv, {exp: ONE})})
        images.append(df_wedge(f, form).entries())
    return linalg.nullspace(images)


def _numbered(index: dict, entries) -> linalg.Vec:
    """Keyed entries as a vector over index, which numbers each new key in turn."""
    return {index.setdefault(key, len(index)): coeff for key, coeff in entries}


# -- weight slices of H^i -----------------------------------------------------


@dataclass
class HSlice:
    """Basis of one weight slice of H^i."""

    problem: GermProblem
    i: int
    c: int
    cap: int
    cap_relative: bool
    classes: list[CohomologyClass]


def _slice_cap(problem: GermProblem, c: int, cap: int | None, least: int = 0) -> int:
    """Total-degree cap of a slice space of integer weight c.

    With positive weights the slice is finite and the derived cap covers it
    exactly; otherwise the given cap, raised to least, and without one
    CapExceeded (from auto_cap).
    """
    if problem.positive_weights or cap is None:
        return problem.auto_cap(c)
    return max(cap, least)


def h_slice(problem: GermProblem, i: int, c, cap: int | None = None, keys=None, seeds=()) -> HSlice:
    """Exact basis of the slice of H^i = H(Ker df-wedge, d) of rational weight c,
    modulo the span of the seed forms.

    With positive weights the slice is finite and the cap is derived; with
    some weight <= 0 an explicit cap is required and completeness (not
    kernel membership) is cap-relative.  The d images come from exponent
    arithmetic (forms.monomial_images), built only over a nonzero kernel.
    Kernel vectors are positions in the slice space until they are closed;
    after that every vector is keyed by monomial form (W, e), whose order
    is the position order.  Off the lattice (1/L)Z no form has weight c.

    With keys, both slice spaces hold only the forms of those key classes.
    d keeps keys and df wedge adds [m], so the kernel, the boundaries and
    the residues split by key: the classes are the whole slice's classes
    whose key is in keys, with the same representatives, in the same order.

    One Echelon keyed by (W, e) takes the boundaries, the seeds, then each
    closed vector that enlarges it; a representative is its residual modulo
    those and the earlier classes, scaled to lead 1.
    """
    if not 0 <= i <= problem.nvars:
        raise ValueError("form degree out of range")
    c = problem.grading.scaled(c)
    if c is None:
        return HSlice(problem, i, c, cap, not problem.positive_weights, [])
    space = FormSpace(problem, i, c, _slice_cap(problem, c, cap), keys)

    kernel = _df_kernel_vectors(problem, space)

    # closed kernel vectors: restrict d to the kernel span, then key them by (W, e)
    if i < problem.nvars and kernel:
        d_images = [dict(entries) for entries in monomial_images(problem.nvars, space.items)[0]]
        combos = linalg.nullspace([linalg.combine(d_images, v).items() for v in kernel])
        kernel = [v for v in (linalg.combine(kernel, combo) for combo in combos) if v]
    closed = [{space.items[k]: val for k, val in v.items()} for v in kernel]

    # boundary space d(A^{i-1}) at the same weight, then the seeds
    reducer = linalg.Echelon()
    if i >= 1:
        prev = FormSpace(problem, i - 1, c, space.cap + 1, keys)
        prev_kernel = _df_kernel_vectors(problem, prev)
        if prev_kernel:
            d_prev = [dict(entries) for entries in monomial_images(problem.nvars, prev.items)[0]]
            for v in prev_kernel:
                d_img = linalg.combine(d_prev, v)
                if d_img:
                    reducer.add(d_img)
    for form in seeds:
        reducer.add(dict(form.entries()))

    classes = []
    for v in closed:
        residue = reducer.reduce(v)
        if residue:
            rep = DifferentialForm.from_entries(problem.nvars, i, residue.items())
            classes.append(CohomologyClass(problem, i, rep))
            reducer.add(residue)
    return HSlice(problem, i, c, space.cap, not problem.positive_weights, classes)


# -- kernel modules (A^i as a module over the polynomial ring) -----------------


def kernel_forms(problem: GermProblem, i: int) -> list[DifferentialForm]:
    """Module generators of A^i = Ker(df-wedge: degree i -> i+1), by syzygies."""
    if not 0 <= i <= problem.nvars:
        raise ValueError("form degree out of range")
    cols = wedge_tuples(problem.nvars, i)
    rows = wedge_tuples(problem.nvars, i + 1)
    row_index = {w: k for k, w in enumerate(rows)}
    zero, one = Polynomial.zero(problem.nvars), Polynomial.constant(problem.nvars, 1)
    if not rows:
        # top degree: the target is zero, the kernel is everything
        return [DifferentialForm.monomial_form(problem.nvars, w, one) for w in cols]
    matrix = [[zero] * len(cols) for _ in rows]
    for j, wedge in enumerate(cols):
        img = df_wedge(problem.f, DifferentialForm.monomial_form(problem.nvars, wedge, one))
        for w, poly in img.coeffs.items():
            matrix[row_index[w]][j] = poly
    gens = groebner.module_kernel(matrix)
    return [DifferentialForm(problem.nvars, i, {w: p for w, p in zip(cols, vec) if p}) for vec in gens]


# -- torsion searches ----------------------------------------------------------


def h_free(problem: GermProblem) -> bool:
    """Positive weights and a zero-dimensional J(f): H'' is free and df wedge
    is Koszul-exact below degree n (README, "Caps and honesty")."""
    return problem.positive_weights and groebner.quotient_is_finite(problem.jacobian)


@dataclass
class NotFoundWithin:
    """A bounded search exhausted its ceiling without an answer."""

    bound: int
    cap_limited: bool


def torsion_order_t(cls: CohomologyClass, p_max: int, cap: int | None = None):
    """Smallest p <= p_max with f^p * rep exact in the kernel complex.

    Order p means t^p kills the class in H^n(A) = Omega^n / d(Ker df wedge),
    that is s t^p kills it in H'' (TorsionCertificate).

    Level p solves d(eta) = f^p * rep with df wedge eta = 0 over the slice
    space of block p of the s-chain (_s_block).  If eta solves level p,
    f*eta solves level p + 1: df wedge (f eta) = f (df wedge eta) = 0 and
    d(f eta) = df wedge eta + f d(eta) = f^(p+1) * rep.  From the first level
    p0 whose block cap is not raised by the user's cap (_monotone_level),
    f*eta also lies in the next block, so solvability is monotone in p from
    p0 on.  So levels are solved in turn, but past p0 level p_max is solved
    first: if it is unsolvable, so is every level in (p0, p_max], and the
    search stops.  The witness is the canonical solution at the smallest
    solvable level, as a scan of every level gives.  On a top class with
    h_free the search stops after level 1 (README, "How the t-search runs").
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
        if p == 1 and cls.i == problem.nvars and h_free(problem):
            break  # [rep] != 0 in the free H'', so no t^p kills it
    return NotFoundWithin(p_max, not problem.positive_weights)


@dataclass
class _SBlock:
    """A block of a slice system: a slice space and, for each basis form
    beta of it, the keyed entries of d(beta) and df wedge beta."""

    space: FormSpace
    d_images: list[list]
    df_images: list[list]


def _block(problem: GermProblem, i: int, weight: int, cap: int | None, keys, least: int = 0):
    """The degree-i slice block of integer weight and the given keys, capped
    by _slice_cap (a cap for the whole slice)."""
    space = FormSpace(problem, i, weight, _slice_cap(problem, weight, cap, least), keys)
    return _SBlock(space, *monomial_images(problem.nvars, space.items, partial_terms(problem.f)))


def _block_degrees(cls: CohomologyClass) -> tuple[int, int]:
    """(base, step): block j needs total degree base + j * step, the total
    degree of f^j * rep plus one."""
    return cls.representative.total_degree_cap() + 1, max(cls.problem.f.total_degree(), 1)


def _s_block(cls: CohomologyClass, j: int, cap: int | None) -> _SBlock:
    """Block j of the s-chain system: the slice of eta_j, restricted to the
    keys eta_j can have (GermProblem.form_keys)."""
    base, step = _block_degrees(cls)
    problem = cls.problem
    weight = cls.c + j * problem.scaled_degree
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
    order, each a column for linalg.solve_columns whose entries are keyed
    (group, wedge, exp); equation group 0 is d(eta_0) = target, group j is
    d(eta_j) = df wedge eta_(j-1) and group r+1 is df wedge eta_r = 0.  Free
    coordinates are zero.  None when the system is inconsistent.

    With one block this is the eta with df wedge eta = 0 and d(eta) =
    target: the solution of d restricted to the canonical Ker(df wedge)
    basis (linalg.nullspace) with free coordinates zero, combined back.  A
    basis column is a pivot of the stacked matrix exactly when it is a
    pivot column of df wedge, or it is a free column whose kernel vector is
    a pivot of d restricted to that basis.  Negating the df wedge group is a
    row scaling, which changes neither the pivots nor the solution.
    """
    columns = []
    for j, block in enumerate(blocks):
        for d_entries, df_entries in zip(block.d_images, block.df_images):
            entries = [((j, *key), coeff) for key, coeff in d_entries]
            entries += [((j + 1, *key), -coeff) for key, coeff in df_entries]
            columns.append(entries)
    solution = linalg.solve_columns(columns, [((0, *key), c) for key, c in target.entries()])
    if solution is None:
        return None
    coords = iter(solution)  # block-major: each block's forms take the next coordinates
    return [DifferentialForm.from_entries(target.nvars, b.space.i, zip(b.space.items, coords)) for b in blocks]


def torsion_order_s(cls: CohomologyClass, r_max: int, cap: int | None = None):
    """Smallest chain depth solving d(sum eta_j dt^-j) = rep, as a certificate.

    The returned order rho means s^rho kills the class in H'' itself; the
    witness chain has length rho.

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
    system (_s_chain), so it is the canonical solution of that system.  With
    h_free the search stops after depth 1 (README, "How the s-search runs").
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    problem = cls.problem
    index: dict = {}  # coordinates of equation group j
    state = [(_numbered(index, sorted(cls.representative.entries())), Fraction(1))]
    blocks: list[_SBlock] = []
    for j in range(r_max):
        block = _s_block(cls, j, cap)
        blocks.append(block)
        d_parts = [_numbered(index, entries) for entries in block.d_images]
        n = len(index)
        index = {}
        df_parts = [_numbered(index, entries) for entries in block.df_images]
        lam = n + len(index)
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
        if j == 0 and h_free(problem):
            break  # Koszul exactness shortens any chain to depth 1
        state = [
            ({k - n: c for k, c in row.items() if k != lam}, row.get(lam))
            for p, row in zip(pivots, rows)
            if p >= n
        ]
        if not any(mu for _v, mu in state):
            break
    return NotFoundWithin(r_max, not problem.positive_weights)


# -- Milnor data and the C{t} basis --------------------------------------------


# weak keys: an entry lives as long as its problem, so no value outlives a command
_milnor: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def milnor_number(problem: GermProblem):
    """Dimension of the Jacobian quotient, or None when non-isolated;
    computed once per problem object."""
    if problem not in _milnor:
        std = groebner.standard_monomials(problem.jacobian)
        _milnor[problem] = None if std is None else len(std)
    return _milnor[problem]


def ct_basis(problem: GermProblem) -> list[CohomologyClass]:
    """Free C{t}-basis classes of the reduced H^n (in one variable, H^1 modulo
    the C{t}-span of df), in ascending weight.

    Requires an isolated singularity and positive weights; deg f < 0 is
    refused with a ValueError asking for the weights negated.  Euler's
    relation gives f*Omega^n in df^Omega^(n-1), and on the slice of weight c
    the operator dt*t acts as c/D, which is never 0; so tH'' = sH'' and
    (H''/tH'')_c = (Omega_f)_(c - sum W) (K. Saito, Invent. Math. 14, 1971;
    Steenbrink, Compositio Math. 34, 1977).  By Nakayama the new generators
    at c are the slice classes independent modulo t(slice c - D).  J(f) is
    graded by key class as well as by weight, so they number the standard
    monomials x^a of J(f) of weight c - sum W key by key, x^a standing for
    x^a * vol.  Only those weights c are therefore visited, in ascending
    order, and only on the keys K_c of their standard monomials.  A key
    class that is skipped holds no new generator and never meets a kept one,
    so the classes, representatives and order are those of whole slices.  In
    one variable every visited slice lies below D, out of reach of df.

    H'' is free over C{t} on these generators (Sebastiani, Manuscripta Math.
    2, 1970), so t(slice c - D) is spanned by f^k * g for the generators g of
    weight c - kD, k >= 1: those whose key moved by k[m] lies in K_c are the
    seeds at c, which h_slice reduces modulo together with the boundaries.
    Seeds always lie in t(slice c - D); were their span short, the slice
    would show more new classes of some key than standard monomials.  A
    slice whose new classes of some key do not number its standard monomials
    of that key, or a total other than mu = prod (D - W_i)/W_i (Milnor-Orlik,
    Topology 9, 1970; counted from the weights, not from the Groebner basis),
    raises InvariantViolation.
    """
    if milnor_number(problem) is None:
        raise NonIsolatedError("C{t}-basis needs an isolated singularity")
    if problem.degree < 0:
        raise ValueError(f"deg f = {format_rational(problem.degree)} < 0; negate the weights")
    if not problem.positive_weights:
        raise ValueError("C{t}-basis needs positive weights")
    grading, d = problem.grading, problem.scaled_degree
    sum_w = sum(grading.weights)
    vol = tuple(range(problem.nvars))
    new_at: dict[int, Counter] = defaultdict(Counter)  # weight c -> keys of its standard monomials
    for e in groebner.standard_monomials(problem.jacobian):
        new_at[grading.monomial(e) + sum_w][problem.key(vol, e)] += 1

    power = functools.cache(problem.f.__pow__)  # f**k, each computed once
    reps: dict[int, list[DifferentialForm]] = {}  # weight c -> representatives of its generators
    out: list[CohomologyClass] = []
    for c in sorted(new_at):
        keys = set(new_at[c])
        seeds = [
            rep * power(k)
            for k in range(1, (c - sum_w) // d + 1)
            for rep in reps.get(c - k * d, ())
            if problem.form_keys(rep, k) <= keys
        ]
        new = h_slice(problem, problem.nvars, Fraction(c, grading.scale), keys=keys, seeds=seeds).classes
        found = Counter(key for cls in new for key in problem.form_keys(cls.representative))
        if found != new_at[c]:
            key = min(k for k in found.keys() | new_at[c].keys() if found[k] != new_at[c][k])
            raise InvariantViolation(
                f"slice {format_rational(Fraction(c, grading.scale))} holds {found[key]} new C{{t}}-generators "
                f"of key {key}, not its {new_at[c][key]} standard monomials"
            )
        reps[c] = [cls.representative for cls in new]
        out.extend(new)
    mu = math.prod(Fraction(d - w, w) for w in grading.weights)
    if len(out) != mu:
        raise InvariantViolation(f"{len(out)} C{{t}}-basis classes, but mu = {format_rational(mu)} by Milnor-Orlik")
    return out


def spectrum(problem: GermProblem) -> list[Fraction]:
    """Sorted multiset of t*dt eigenvalues on the C{t}-basis classes."""
    return sorted(cls.tdt_eigenvalue() for cls in ct_basis(problem))


# -- condition (P'): at the top degree, whether s kills the torsion --------------


def check_p_prime(problem: GermProblem, i: int, degree_bound: int) -> DifferentialForm | None:
    """Degreewise check of d(Ker df) cap Im(df) = Im(df d) in degree i, on
    spans keyed by monomial form (W, e): no degree-i space is enumerated.
    Returns the first degree-i form of d(Ker df) cap Im(df) outside
    Im(df d), or None when the identity holds.

    The weights checked are those of the degree-i monomial forms of
    coefficient degree <= degree_bound.  With positive weights each slice
    space is whole (_slice_cap); otherwise it is capped at degree_bound + 1,
    or + 2 for degree i - 2, and the answer is cap-relative.  With h_free it
    holds by theorem (README, "How exact solves run")."""
    if i < 2:
        raise ValueError("the criterion concerns form degree >= 2")
    if i > problem.nvars:
        raise ValueError("form degree out of range")
    if h_free(problem):
        return None
    nvars, partials = problem.nvars, partial_terms(problem.f)
    for c in sorted(_realized_form_weights(problem, i, degree_bound)):
        below = c - problem.scaled_degree
        prev_here = FormSpace(problem, i - 1, c, _slice_cap(problem, c, degree_bound + 1))
        prev_below = FormSpace(problem, i - 1, below, _slice_cap(problem, below, degree_bound + 1))
        below_2 = FormSpace(problem, i - 2, below, _slice_cap(problem, below, degree_bound + 2))

        d_here, df_here = monomial_images(nvars, prev_here.items, partials)
        d_cols = [dict(entries) for entries in d_here]
        kernel = linalg.nullspace(df_here)
        d_kernel = [u for u in (linalg.combine(d_cols, v) for v in kernel) if u]  # d(Ker df-wedge)
        df_below = dict(zip(prev_below.items, map(dict, monomial_images(nvars, prev_below.items, partials)[1])))
        im_df = [v for v in df_below.values() if v]  # df wedge Omega^(i-1)
        im_dfd = linalg.Echelon()  # df wedge d(Omega^(i-2))
        for d_gamma in monomial_images(nvars, below_2.items)[0]:
            w2 = linalg.combine(df_below, dict(d_gamma))
            if w2:
                im_dfd.add(w2)

        # intersection of span(d_kernel) and span(im_df)
        columns = [u.items() for u in d_kernel] + [[(k, -val) for k, val in v.items()] for v in im_df]
        for combo in linalg.nullspace(columns):
            u = linalg.combine(d_kernel, {j: c for j, c in combo.items() if j < len(d_kernel)})
            if u and im_dfd.reduce(u):
                return DifferentialForm.from_entries(nvars, i, u.items())
    return None


def _realized_form_weights(problem: GermProblem, i: int, degree_bound: int) -> set[int]:
    """Integer weights of the degree-i monomial forms of coefficient degree
    <= degree_bound: the weights of the monomials of total degree <= k are
    those of degree <= k - 1 and their sums with each variable's weight."""
    weights = problem.grading.weights
    monomials = {0}
    for _ in range(degree_bound):
        monomials |= {m + w for m in monomials for w in weights}
    shifts = {sum(weights[k] for k in wedge) for wedge in wedge_tuples(problem.nvars, i)}
    return {shift + m for shift in shifts for m in monomials}


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
        out.append(CohomologyClass(problem, problem.nvars, rep))
    return out

