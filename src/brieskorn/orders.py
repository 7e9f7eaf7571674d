"""Monomial orders as integer weight matrices.

Every order here compares monomials by the lexicographic order of an integer
key vector W.a (W a fixed matrix, a the exponent vector).  Keys are additive,
key(a+b) = key(a) + key(b), so the Groebner kernels compute one key per input
monomial and then only ever add/subtract/compare small integer tuples.

Module terms use position-over-term: the full term key is (-component,) + key,
and a ring monomial acting on a module term contributes (0,) + key.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class MonomialOrder:
    """A total, multiplication-compatible well-order on monomials."""

    __slots__ = ("kind", "nvars", "rows", "_tag")

    def __init__(self, kind: str, nvars: int, rows: tuple[tuple[int, ...], ...], tag=None):
        self.kind = kind
        self.nvars = nvars
        self.rows = rows
        self._tag = tag

    def key(self, exp: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(r[i] * exp[i] for i in range(self.nvars)) for r in self.rows)

    def signature(self) -> tuple:
        return (self.kind, self.nvars, self._tag)

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind}, nvars={self.nvars})"


def _grevlex_rows(indices: Sequence[int], nvars: int) -> list[tuple[int, ...]]:
    rows = []
    total = [0] * nvars
    for i in indices:
        total[i] = 1
    rows.append(tuple(total))
    for i in reversed(indices[1:]):
        row = [0] * nvars
        row[i] = -1
        rows.append(tuple(row))
    return rows


def grevlex(nvars: int) -> MonomialOrder:
    """Graded reverse lexicographic order, the default everywhere."""
    return MonomialOrder("grevlex", nvars, tuple(_grevlex_rows(list(range(nvars)), nvars)))


def lex(nvars: int) -> MonomialOrder:
    rows = []
    for i in range(nvars):
        row = [0] * nvars
        row[i] = 1
        rows.append(tuple(row))
    return MonomialOrder("lex", nvars, tuple(rows))


def weighted(weights: Sequence, nvars: int) -> MonomialOrder:
    """Weight-first order (positive weights), ties broken by grevlex."""
    ws = [Fraction(w) for w in weights]
    if len(ws) != nvars:
        raise ValueError("weight vector length does not match ring")
    if any(w <= 0 for w in ws):
        raise ValueError("weighted orders need strictly positive weights")
    scale = 1
    for w in ws:
        scale = scale * w.denominator // _gcd(scale, w.denominator)
    head = tuple(int(w * scale) for w in ws)
    rows = [head] + _grevlex_rows(list(range(nvars)), nvars)
    return MonomialOrder("weighted", nvars, tuple(rows), tag=head)


def elimination(block: int, nvars: int) -> MonomialOrder:
    """Block order eliminating the first `block` variables (grevlex in each block)."""
    if not 0 < block < nvars:
        raise ValueError("elimination block must be a proper nonempty prefix")
    rows = _grevlex_rows(list(range(block)), nvars)
    rows += _grevlex_rows(list(range(block, nvars)), nvars)
    return MonomialOrder("elimination", nvars, tuple(rows), tag=block)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
