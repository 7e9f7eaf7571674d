"""Groebner bases over Q for ideals and submodules of free modules.

One monomial order throughout: graded reverse lexicographic (grevlex),
compared through the additive integer key (sum(e), -e[n-1], ..., -e[1]).
Keys add under multiplication, so the kernels compute one key per input
monomial and then only ever add/subtract/compare small integer tuples.

Buchberger's algorithm with the coprime-lcm and chain pair criteria (the
coprime criterion only for ideals, input whose terms all lie in component 0;
it is not sound for module S-vectors).
Everything is deterministic for fixed input: pairs are popped from a heap
keyed by lcm order key, bases are interreduced, made monic and sorted.

Module terms live in a free module R^r with position-over-term order,
component 0 highest: the full term key is (-component,) + key.  Kernels of
matrices (syzygies) are computed by the graph-module elimination trick: the
generators (column_j, e_j) of the graph submodule of R^(m+n) are run through
Buchberger under POT; basis elements whose first m components vanish
generate the kernel.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from heapq import heappop, heappush
from typing import Sequence

from brieskorn import _backend
from brieskorn.poly import LimitExceeded, Polynomial

MAX_QUOTIENT_BOX = 10_000  # exponents in the box of a finite quotient's pure-power leads


# -- flat conversion ----------------------------------------------------------


def _key(exp: Sequence[int]) -> tuple[int, ...]:
    """The grevlex key of an exponent vector: a > b iff _key(a) > _key(b)."""
    return (sum(exp),) + tuple(-e for e in reversed(exp[1:]))


def _vector_to_flat(vec: Sequence[Polynomial]):
    terms = []
    for comp, p in enumerate(vec):
        for exp, c in p.terms.items():
            terms.append(((-comp,) + _key(exp), exp, c.numerator, c.denominator))
    terms.sort(key=lambda t: t[0], reverse=True)
    return terms


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


def _buchberger(flats):
    basis = [_monic(f) for f in flats if f]
    ideal = all(t[0][0] == 0 for f in basis for t in f)  # all in component 0: coprime criterion is sound
    basis.sort(key=lambda f: f[0][0])
    heap = []

    def push_pairs(t: int):
        kt, et = basis[t][0][0], basis[t][0][1]
        for i in range(t):
            ki, ei = basis[i][0][0], basis[i][0][1]
            if ki[0] != kt[0]:
                continue  # S-vectors only for leads in the same component
            lcm = _lcm_exp(ei, et)
            heappush(heap, ((kt[0],) + _key(lcm), i, t, lcm))

    for t in range(len(basis)):
        push_pairs(t)

    treated: set[tuple[int, int]] = set()
    while heap:
        _lk, i, j, lcm = heappop(heap)
        fi, fj = basis[i], basis[j]
        (ki, ei, *_rest) = fi[0]
        kj, ej = fj[0][0], fj[0][1]
        treated.add((i, j))
        if ideal and all(a + b == c for a, b, c in zip(ei, ej, lcm)):
            continue
        if _chain_criterion(basis, i, j, lcm, ki[0], treated):
            continue
        s = _spoly(fi, fj, lcm)
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


def _spoly(f, g, lcm):
    klcm = _key(lcm)
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


_cache: dict = {}


def _ideal_key(gens: Sequence[Polynomial]):
    return tuple(sorted(tuple(sorted(p.terms.items())) for p in gens))


def groebner_basis(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """Reduced Groebner basis (monic, interreduced, sorted by leading term)."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    key = _ideal_key(gens)
    hit = _cache.get(key)
    if hit is not None:
        return list(hit)
    gb = _interreduce(_buchberger([_vector_to_flat((g,)) for g in gens]))
    result = [_flat_to_vector(f, gens[0].nvars, 1)[0] for f in gb]
    _cache[key] = list(result)
    return result


def standard_monomials(gens: Sequence[Polynomial]) -> list[tuple[int, ...]] | None:
    """Monomial basis of the quotient ring, ascending; None when it is infinite.
    A box of its pure-power leads past MAX_QUOTIENT_BOX raises LimitExceeded."""
    gens = [g for g in gens if g]
    if not gens:
        return None
    nvars = gens[0].nvars
    gb = groebner_basis(gens)
    leads = [max(p.terms, key=_key) for p in gb]
    if any(sum(e) == 0 for e in leads):
        return []
    bounds = [None] * nvars
    for e in leads:
        support = [i for i, k in enumerate(e) if k]
        if len(support) == 1 and (bounds[support[0]] is None or e[support[0]] < bounds[support[0]]):
            bounds[support[0]] = e[support[0]]
    if any(b is None for b in bounds):
        return None
    if (box := math.prod(bounds)) > MAX_QUOTIENT_BOX:
        raise LimitExceeded(f"the Jacobian quotient lies in a box of {box} exponents, over {MAX_QUOTIENT_BOX}")
    # product yields the exponents of the box in ascending order
    return [e for e in itertools.product(*map(range, bounds)) if not any(_divides(le, e) for le in leads)]


# -- submodules of free modules -----------------------------------------------


def module_groebner_flat(vectors: Sequence[Sequence[Polynomial]]):
    flats = [f for f in (_vector_to_flat(v) for v in vectors) if f]
    return _interreduce(_buchberger(flats))


def module_kernel(matrix: Sequence[Sequence[Polynomial]]) -> list[tuple[Polynomial, ...]]:
    """Sorted generators of Ker(R^n -> R^m) for the m x n matrix (syzygies for m=1)."""
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
    zero = Polynomial.zero(nvars)
    columns = []
    for j in range(n):
        col = [matrix[i][j] for i in range(m)]
        unit = [zero] * n
        unit[j] = Polynomial.constant(nvars, 1)
        columns.append(tuple(col + unit))
    gb = module_groebner_flat(columns)
    gens = []
    for f in gb:
        vec = _flat_to_vector(f, nvars, m + n)
        if all(p.is_zero for p in vec[:m]):
            gens.append(vec[m:])
    gens.sort(key=lambda v: tuple(sorted(p.terms) for p in v))
    return gens

