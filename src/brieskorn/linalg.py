"""Exact rational linear algebra on sparse vectors.

Vectors are {column index: Fraction} dicts over some enumerated basis; the
batch row reduction runs in the kernel (see _backend) on primitive integer
rows, each vector converted once on the way in and each entry once on the
way out, while the incremental echelon accumulator used for span/quotient
bookkeeping lives here.  Everything is deterministic: pivot choice,
iteration order, output order.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from brieskorn import _backend

Vec = dict[int, Fraction]


def _int_row(vec: Vec):
    """vec as a primitive integer row [(col, int)]: a positive multiple with
    integer entries whose gcd is 1, zeros dropped, columns ascending."""
    row = [(c, v.numerator, v.denominator) for c, v in vec.items()]
    row.sort()
    scale = 1
    for _c, _n, d in row:
        scale = scale * d // gcd(scale, d)
    ints = [(c, n * (scale // d)) for c, n, d in row if n]
    g = 0
    for _c, n in ints:
        g = gcd(g, n)
        if g == 1:
            return ints
    return [(c, n // g) for c, n in ints] if g > 1 else ints


def rref(vectors: Iterable[Vec]):
    """Reduced row echelon form; returns (rows as Vec list, pivot columns)."""
    rows, pivots = _backend.rref([_int_row(v) for v in vectors])
    return [{c: Fraction(n, row[0][1]) for c, n in row} for row in rows], pivots


def transpose(columns: Sequence[Vec]) -> list[Vec]:
    """Rows of the matrix with the given columns, in ascending row index.

    Zero entries are dropped, so every returned row is nonzero.
    """
    rows: dict[int, Vec] = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            if c:
                rows.setdefault(i, {})[j] = c
    return [rows[i] for i in sorted(rows)]


def nullspace(equations: Sequence[Vec], ncols: int) -> list[Vec]:
    """Basis of {x in Q^ncols : each equation row dotted with x is 0}.

    Basis vectors are indexed by free columns in ascending order, each with
    a 1 in its free column; this makes the output canonical.
    """
    rows, pivots = rref(equations)
    pivot_set = set(pivots)
    basis = {free: {free: Fraction(1)} for free in range(ncols) if free not in pivot_set}
    # scatter each pivot row into the vectors of the free columns it holds
    for p, row in zip(pivots, rows):
        for c, val in row.items():
            v = basis.get(c)
            if v is not None:
                v[p] = -val
    return list(basis.values())


def solve_columns(columns: Sequence[Vec], target: Vec) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = target; None when inconsistent.

    Free coordinates are set to zero, making the solution canonical.

    Only forward elimination runs (_backend.echelon on [columns | target]);
    the system is inconsistent exactly when the target column m is a pivot,
    necessarily the last one.  Otherwise the target column alone is solved
    back, from the last pivot row up: x_p = (row[m] - sum of row[c] * x_c
    over the pivot columns c > p) / lead, which is the target column of the
    RREF.
    """
    m = len(columns)
    rows, pivots = _backend.echelon([_int_row(r) for r in transpose([*columns, target])])
    if pivots and pivots[-1] == m:
        return None
    x = [Fraction(0)] * m
    for k in range(len(rows) - 1, -1, -1):
        (p, lead), *rest = rows[k]
        s = Fraction(0)
        for c, a in rest:
            if c == m:
                s += a
            elif x[c]:  # of the columns c > p, pivots are solved and free ones are 0
                s -= a * x[c]
        x[p] = s / lead
    return x


class Echelon:
    """Incremental reduced echelon accumulator over Q.

    add() returns True when the vector enlarges the span; reduce() returns
    the canonical residual of a vector modulo the current span.
    """

    def __init__(self):
        self.rows: list[Vec] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        out = {c: v for c, v in vec.items() if v}
        for p, row in zip(self.pivots, self.rows):
            c = out.get(p)
            if not c:
                continue
            for col, val in row.items():
                s = out.get(col)
                s = -(c * val) if s is None else s - c * val
                if s:
                    out[col] = s
                else:
                    out.pop(col, None)
        return out

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def add(self, vec: Vec) -> bool:
        r = self.reduce(vec)
        if not r:
            return False
        pivot = min(r)
        inv = 1 / r[pivot]
        row = {c: v * inv for c, v in r.items()}
        # Jordan step: clear the new pivot column from existing rows
        for i, existing in enumerate(self.rows):
            c = existing.get(pivot)
            if not c:
                continue
            updated = dict(existing)
            for col, val in row.items():
                s = updated.get(col)
                s = -(c * val) if s is None else s - c * val
                if s:
                    updated[col] = s
                else:
                    updated.pop(col, None)
            self.rows[i] = updated
        at = bisect_left(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self.rows.insert(at, row)
        return True
