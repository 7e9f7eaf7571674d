"""Exact rational linear algebra on sparse vectors.

Vectors are {column: Fraction} dicts: integer columns for rref, any
ordered keys, such as a slice's monomial forms (W, e), for Echelon and
combine, the one sparse combination.  A slice system is columns of keyed
entries: one column per unknown, each an iterable of (key, Fraction) pairs
with distinct keys and nonzero coefficients, where a key names an
equation.  nullspace and solve_columns build the equation rows
themselves, one row per key in order of first appearance; row order
changes neither the null space nor the canonical solution.

All elimination is fraction-free, on integer rows: each vector is converted
once on the way in and each entry once on the way out.  It all runs in the
kernel (see _backend), on primitive rows [(col, int)]: rref and
solve_columns through its batch reductions, and the incremental
accumulator Echelon, used for span and quotient bookkeeping, through its
one elimination step _int_eliminate.  Everything is deterministic: pivot
choice, iteration order, output order.
"""

from __future__ import annotations

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


Column = Iterable[tuple[object, Fraction]]


def _equations(columns: Sequence[Column]) -> list[Vec]:
    """One equation row {column index: coeff} per key, in order of first appearance."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, coeff in col:
            row = rows.get(key)
            if row is None:
                rows[key] = {j: coeff}
            else:
                row[j] = coeff
    return list(rows.values())


def nullspace(columns: Sequence[Column]) -> list[Vec]:
    """Basis of {x : sum_j x_j * columns[j] = 0}.

    Basis vectors are indexed by free columns in ascending order, each with
    a 1 in its free column; this makes the output canonical.
    """
    rows, pivots = rref(_equations(columns))
    pivot_set = set(pivots)
    one = Fraction(1)  # immutable, so one object serves every free column
    basis = {free: {free: one} for free in range(len(columns)) if free not in pivot_set}
    # scatter each pivot row into the vectors of the free columns it holds
    for p, row in zip(pivots, rows):
        for c, val in row.items():
            v = basis.get(c)
            if v is not None:
                v[p] = -val
    return list(basis.values())


def solve_columns(columns: Sequence[Column], target: Column) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = target; None when inconsistent.

    Free coordinates are set to zero, making the solution canonical.  A
    target key that no column holds makes the system inconsistent.

    Only forward elimination runs (_backend.echelon on [columns | target]);
    the system is inconsistent exactly when the target column m is a pivot,
    necessarily the last one.  Otherwise the target column alone is solved
    back, from the last pivot row up: x_p = (row[m] - sum of row[c] * x_c
    over the pivot columns c > p) / lead, which is the target column of the
    RREF.
    """
    m = len(columns)
    rows, pivots = _backend.echelon([_int_row(r) for r in _equations([*columns, target])])
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


def combine(vectors, coeffs: dict) -> dict:
    """sum coeffs[j] * vectors[j], zero entries dropped; vectors is a
    sequence or a mapping, and coeffs is keyed like it."""
    out: dict = {}
    for j, coeff in coeffs.items():
        for k, val in vectors[j].items():
            s = out.get(k)
            s = coeff * val if s is None else s + coeff * val
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


class Echelon:
    """Incremental echelon accumulator over Q, on the kernel's integer rows.

    Each row is a primitive integer row [(col, int)] (see _backend) with a
    positive lead, stored by its lead column; the rows are in echelon form,
    not reduced form.  add() returns True when the vector enlarges the span;
    reduce() returns the canonical residual of a vector modulo the current
    span, the one congruent vector with no entry in a pivot column, scaled
    to lead 1.
    """

    def __init__(self):
        self._rows: dict = {}

    def _residual(self, vec: Vec):
        """A positive multiple of vec's canonical residual, as a primitive row.

        Columns are walked in ascending order: clearing a pivot brings in
        only columns past it, so one pass clears every pivot column.
        """
        row = _int_row(vec)
        rows = self._rows
        k = 0
        while k < len(row):
            c = row[k][0]
            if c in rows:
                row = _backend._int_eliminate(row, rows[c], c)
            else:
                k += 1
        return row

    def reduce(self, vec: Vec) -> Vec:
        row = self._residual(vec)
        lead = row[0][1] if row else 1
        return {c: Fraction(n, lead) for c, n in row}

    def add(self, vec: Vec) -> bool:
        row = self._residual(vec)
        if not row:
            return False
        if row[0][1] < 0:
            row = [(c, -n) for c, n in row]
        self._rows[row[0][0]] = row
        return True
