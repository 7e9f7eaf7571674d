"""Groebner bases over Q for ideals and submodules of free modules.

Buchberger's algorithm with the coprime-lcm and chain pair criteria (the
coprime criterion only for ideals; it is not sound for module S-vectors).
Everything is deterministic for fixed input: pairs are popped from a heap
keyed by lcm order key, bases are interreduced, made monic and sorted.

Module terms live in a free module R^r with position-over-term order,
component 0 highest.  Kernels of matrices (syzygies) are computed by the
graph-module elimination trick: the generators (column_j, e_j) of the graph
submodule of R^(m+n) are run through Buchberger under POT; basis elements
whose first m components vanish generate the kernel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Sequence

from brieskorn import _backend
from brieskorn.orders import MonomialOrder, elimination, grevlex
from brieskorn.poly import Polynomial

INFINITE = object()  # quotient_dimension sentinel


# -- flat conversion ----------------------------------------------------------


def _to_flat(p: Polynomial, order: MonomialOrder, comp: int = 0):
    terms = [
        ((-comp,) + order.key(exp), exp, c.numerator, c.denominator)
        for exp, c in p.terms.items()
    ]
    terms.sort(key=lambda t: t[0], reverse=True)
    return terms


def _vector_to_flat(vec: Sequence[Polynomial], order: MonomialOrder):
    terms = []
    for comp, p in enumerate(vec):
        for exp, c in p.terms.items():
            terms.append(((-comp,) + order.key(exp), exp, c.numerator, c.denominator))
    terms.sort(key=lambda t: t[0], reverse=True)
    return terms


def _from_flat(terms, nvars: int) -> Polynomial:
    return Polynomial(nvars, {exp: Fraction(num, den) for _key, exp, num, den in terms})


def _flat_to_vector(terms, nvars: int, rank: int) -> tuple[Polynomial, ...]:
    comps: list[dict] = [{} for _ in range(rank)]
    for key, exp, num, den in terms:
        comps[-key[0]][exp] = Fraction(num, den)
    return tuple(Polynomial(nvars, t) for t in comps)


def _monic(flat):
    key, exp, num, den = flat[0]
    if num == den:
        return flat
    return _backend.scale_monomial_mul(flat, (0,) * len(key), (0,) * len(exp), den, num)


# -- Buchberger ---------------------------------------------------------------


def _lcm_exp(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _buchberger(flats, order: MonomialOrder, use_product_criterion: bool):
    basis = [_monic(f) for f in flats if f]
    basis.sort(key=lambda f: f[0][0])
    heap = []

    def push_pairs(t: int):
        kt, et = basis[t][0][0], basis[t][0][1]
        for i in range(t):
            ki, ei = basis[i][0][0], basis[i][0][1]
            if ki[0] != kt[0]:
                continue  # S-vectors only for leads in the same component
            lcm = _lcm_exp(ei, et)
            heappush(heap, ((kt[0],) + order.key(lcm), i, t, lcm))

    for t in range(len(basis)):
        push_pairs(t)

    treated: set[tuple[int, int]] = set()
    while heap:
        _lk, i, j, lcm = heappop(heap)
        fi, fj = basis[i], basis[j]
        (ki, ei, *_rest) = fi[0]
        kj, ej = fj[0][0], fj[0][1]
        treated.add((i, j))
        if use_product_criterion and all(a + b == c for a, b, c in zip(ei, ej, lcm)):
            continue
        if _chain_criterion(basis, i, j, lcm, ki[0], treated):
            continue
        s = _spoly(fi, fj, lcm, order)
        r = _backend.normal_form(s, basis)
        if r:
            basis.append(_monic(r))
            push_pairs(len(basis) - 1)
    return basis


def _chain_criterion(basis, i, j, lcm, comp, treated) -> bool:
    for k, g in enumerate(basis):
        if k == i or k == j:
            continue
        gk = g[0]
        if gk[0] != comp or not _divides(gk[1], lcm):
            continue
        a = (min(i, k), max(i, k))
        b = (min(j, k), max(j, k))
        if a in treated and b in treated:
            return True
    return False


def _spoly(f, g, lcm, order: MonomialOrder):
    klcm = order.key(lcm)
    kf, ef = f[0][0], f[0][1]
    kg, eg = g[0][0], g[0][1]
    sf = (0,) + tuple(a - b for a, b in zip(klcm, kf[1:]))
    sg = (0,) + tuple(a - b for a, b in zip(klcm, kg[1:]))
    mf = _backend.scale_monomial_mul(f, sf, tuple(a - b for a, b in zip(lcm, ef)), 1, 1)
    mg = _backend.scale_monomial_mul(g, sg, tuple(a - b for a, b in zip(lcm, eg)), -1, 1)
    return _backend.add_terms(mf, mg)


def _interreduce(basis):
    basis = sorted((f for f in basis if f), key=lambda f: f[0][0])
    minimal = []
    for f in basis:
        k, e = f[0][0], f[0][1]
        if not any(g[0][0][0] == k[0] and _divides(g[0][1], e) for g in minimal):
            minimal.append(f)
    reduced = []
    for i, f in enumerate(minimal):
        rest = minimal[:i] + minimal[i + 1 :]
        r = _backend.normal_form(f, rest) if rest else f
        reduced.append(_monic(r))
    reduced.sort(key=lambda f: f[0][0])
    return reduced


# -- public ideal interface ---------------------------------------------------


class _GBCache:
    def __init__(self):
        self._lock = threading.Lock()
        self._data: dict = {}

    def get(self, key):
        with self._lock:
            return self._data.get(key)

    def put(self, key, value):
        with self._lock:
            self._data[key] = value


_cache = _GBCache()


def _ideal_key(gens: Sequence[Polynomial], order: MonomialOrder):
    canon = tuple(sorted(tuple(sorted(p.terms.items())) for p in gens))
    return (order.signature(), order.rows, canon)


def groebner_basis(
    gens: Sequence[Polynomial],
    order: MonomialOrder | None = None,
    use_cache: bool = True,
) -> list[Polynomial]:
    """Reduced Groebner basis (monic, interreduced, sorted by leading term)."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    nvars = gens[0].nvars
    if order is None:
        order = grevlex(nvars)
    key = _ideal_key(gens, order) if use_cache else None
    if key is not None:
        hit = _cache.get(key)
        if hit is not None:
            return list(hit)
    flats = [_to_flat(g, order) for g in gens]
    gb = _interreduce(_buchberger(flats, order, use_product_criterion=True))
    result = [_from_flat(f, nvars) for f in gb]
    if key is not None:
        _cache.put(key, list(result))
    return result


def normal_form(
    p: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder | None = None
) -> Polynomial:
    """Remainder of p modulo `basis`; unique when basis is a Groebner basis."""
    if order is None:
        order = grevlex(p.nvars)
    flats = [_to_flat(g, order) for g in basis if g]
    return _from_flat(_backend.normal_form(_to_flat(p, order), flats), p.nvars)


def ideal_member(
    p: Polynomial, gens: Sequence[Polynomial], order: MonomialOrder | None = None
) -> bool:
    if p.is_zero:
        return True
    if order is None:
        order = grevlex(p.nvars)
    return normal_form(p, groebner_basis(gens, order), order).is_zero


def ideal_intersect(
    gens_i: Sequence[Polynomial], gens_j: Sequence[Polynomial]
) -> list[Polynomial]:
    """Generators of I cap J via one auxiliary elimination variable.

    I cap J = (t*I + (1-t)*J) cap Q[x], with t the new first variable.
    """
    gens_i = [g for g in gens_i if g]
    gens_j = [g for g in gens_j if g]
    if not gens_i or not gens_j:
        return []
    nvars = gens_i[0].nvars
    big = nvars + 1
    lift = list(range(1, big))
    t = Polynomial.variable(big, 0)
    one_minus_t = Polynomial.constant(big, 1) - t
    work = [t * g.remap_variables(big, lift) for g in gens_i]
    work += [one_minus_t * h.remap_variables(big, lift) for h in gens_j]
    gb = groebner_basis(work, elimination(1, big))
    kept = []
    for p in gb:
        if all(exp[0] == 0 for exp in p.terms):
            kept.append(Polynomial(nvars, {exp[1:]: c for exp, c in p.terms.items()}))
    return groebner_basis(kept) if kept else []


def quotient_dimension(gens: Sequence[Polynomial], order: MonomialOrder | None = None):
    """Q-dimension of the polynomial ring modulo (gens): an int or INFINITE."""
    std = standard_monomials(gens, order)
    return INFINITE if std is INFINITE else len(std)


def standard_monomials(gens: Sequence[Polynomial], order: MonomialOrder | None = None):
    """Monomial basis of the (finite-dimensional) quotient ring, or INFINITE."""
    gens = [g for g in gens if g]
    if not gens:
        return INFINITE
    nvars = gens[0].nvars
    order = order or grevlex(nvars)
    gb = groebner_basis(gens, order)
    leads = [max(p.terms, key=order.key) for p in gb]
    if any(sum(e) == 0 for e in leads):
        return []
    bounds = [None] * nvars
    for e in leads:
        support = [i for i, k in enumerate(e) if k]
        if len(support) == 1 and (bounds[support[0]] is None or e[support[0]] < bounds[support[0]]):
            bounds[support[0]] = e[support[0]]
    if any(b is None for b in bounds):
        return INFINITE
    out = []
    exp = [0] * nvars

    def rec(i: int):
        if i == nvars:
            t = tuple(exp)
            if not any(_divides(le, t) for le in leads):
                out.append(t)
            return
        for k in range(bounds[i]):
            exp[i] = k
            rec(i + 1)
        exp[i] = 0

    rec(0)
    out.sort()
    return out


def is_in_radical(p: Polynomial, gens: Sequence[Polynomial]) -> bool:
    """Rabinowitsch trick: p in rad(gens) iff 1 in (gens, 1 - u*p)."""
    if p.is_zero:
        return True
    nvars = p.nvars
    big = nvars + 1
    lift = list(range(nvars))
    u = Polynomial.variable(big, nvars)
    work = [g.remap_variables(big, lift) for g in gens if g]
    work.append(Polynomial.constant(big, 1) - u * p.remap_variables(big, lift))
    gb = groebner_basis(work, grevlex(big))
    return len(gb) == 1 and gb[0] == 1


# -- submodules of free modules -----------------------------------------------


@dataclass
class SubmoduleOfFree:
    """A submodule of R^rank given by generating vectors."""

    ambient_rank: int
    generators: list[tuple[Polynomial, ...]]

    def __post_init__(self):
        for v in self.generators:
            if len(v) != self.ambient_rank:
                raise ValueError("generator length does not match ambient rank")

    @property
    def nvars(self) -> int:
        if not self.generators:
            raise ValueError("empty module has no ring context")
        return self.generators[0][0].nvars


def module_groebner_flat(
    vectors: Sequence[Sequence[Polynomial]], order: MonomialOrder
):
    flats = [f for f in (_vector_to_flat(v, order) for v in vectors) if f]
    return _interreduce(_buchberger(flats, order, use_product_criterion=False))


def module_normal_form_flat(vec, gb_flat, order: MonomialOrder):
    return _backend.normal_form(_vector_to_flat(vec, order), gb_flat)


def module_member(
    vec: Sequence[Polynomial],
    module: SubmoduleOfFree,
    order: MonomialOrder | None = None,
) -> bool:
    if all(p.is_zero for p in vec):
        return True
    if order is None:
        order = grevlex(vec[0].nvars)
    gb = module_groebner_flat(module.generators, order)
    return not module_normal_form_flat(vec, gb, order)


def modules_equal(a: SubmoduleOfFree, b: SubmoduleOfFree) -> bool:
    """Mutual membership of generators (span equality)."""
    if a.ambient_rank != b.ambient_rank:
        return False
    return all(module_member(v, b) for v in a.generators) and all(
        module_member(v, a) for v in b.generators
    )


def module_kernel(matrix: Sequence[Sequence[Polynomial]]) -> SubmoduleOfFree:
    """Generators of Ker(R^n -> R^m) for the m x n matrix (syzygies for m=1)."""
    m = len(matrix)
    if m == 0:
        raise ValueError("matrix needs at least one row")
    n = len(matrix[0])
    nvars = None
    for row in matrix:
        if len(row) != n:
            raise ValueError("ragged matrix")
        for p in row:
            nvars = p.nvars
    order = grevlex(nvars)
    zero = Polynomial.zero(nvars)
    columns = []
    for j in range(n):
        col = [matrix[i][j] for i in range(m)]
        unit = [zero] * n
        unit[j] = Polynomial.constant(nvars, 1)
        columns.append(tuple(col + unit))
    gb = module_groebner_flat(columns, order)
    gens = []
    for f in gb:
        vec = _flat_to_vector(f, nvars, m + n)
        if all(p.is_zero for p in vec[:m]):
            gens.append(vec[m:])
    gens.sort(key=lambda v: tuple(sorted(p.terms) for p in v))
    return SubmoduleOfFree(n, gens)


def syzygies(polys: Sequence[Polynomial]) -> SubmoduleOfFree:
    """Relations sum_j v_j * polys_j = 0."""
    return module_kernel([list(polys)])
