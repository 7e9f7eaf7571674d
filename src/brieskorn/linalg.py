"""Exact rational linear algebra on sparse vectors.

Vectors are {column index: Fraction} dicts over some enumerated basis; the
batch row reduction runs in the kernel (see _backend), while the
incremental echelon accumulator used for span/quotient bookkeeping lives
here.  Everything is deterministic: pivot choice, iteration order, output
order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from brieskorn import _backend

Vec = dict[int, Fraction]


def to_row(vec: Vec):
    return [(c, v.numerator, v.denominator) for c, v in sorted(vec.items()) if v]


def from_row(row) -> Vec:
    return {c: Fraction(n, d) for c, n, d in row}


def rref(vectors: Iterable[Vec]):
    """Reduced row echelon form; returns (rows as Vec list, pivot columns)."""
    rows, pivots = _backend.rref([to_row(v) for v in vectors])
    return [from_row(r) for r in rows], list(pivots)


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
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v: Vec = {free: Fraction(1)}
        for p, row in zip(pivots, rows):
            c = row.get(free)
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def solve_columns(columns: Sequence[Vec], target: Vec) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = target; None when inconsistent.

    Free coordinates are set to zero, making the solution canonical.
    """
    m = len(columns)
    rows, pivots = rref(transpose([*columns, target]))
    if m in pivots:
        return None
    x = [Fraction(0)] * m
    for p, row in zip(pivots, rows):
        x[p] = row.get(m, Fraction(0))
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
                s = out.get(col, Fraction(0)) - c * val
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
                s = updated.get(col, Fraction(0)) - c * val
                if s:
                    updated[col] = s
                else:
                    updated.pop(col, None)
            self.rows[i] = updated
        at = 0
        while at < len(self.pivots) and self.pivots[at] < pivot:
            at += 1
        self.pivots.insert(at, pivot)
        self.rows.insert(at, row)
        return True
