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
once on the way in and each entry once on the way out.  The batch row
reduction runs in the kernel (see _backend) on primitive rows [(col, int)];
the incremental accumulator Echelon, used for span and quotient
bookkeeping, keeps a scaled RREF of {col: int} rows here.  Everything is
deterministic: pivot choice, iteration order, output order.
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
    """Incremental reduced echelon accumulator over Q, on integer rows.

    The rows are a scaled RREF, kept by pivot column: each is a primitive
    integer row {col: int} with a positive entry at its own pivot and no
    entry in any other pivot column.  Rows are replaced, never changed in
    place, so copy() shares them.  add() returns True when the vector
    enlarges the span; reduce() returns the canonical residual of a vector
    modulo the current span, the one congruent vector with no entry in a
    pivot column.
    """

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}

    def copy(self) -> "Echelon":
        c = Echelon()
        c._rows = dict(self._rows)
        return c

    def _residual(self, vec: Vec) -> tuple[int, dict[int, int]]:
        """(scale, ints) with ints / scale the residual of vec.

        Clearing a pivot brings in no other pivot column, so only the pivots
        in vec's support are looked up, in any order.
        """
        scale = 1
        for v in vec.values():
            d = v.denominator
            if d != 1:
                scale = scale * d // gcd(scale, d)
        out = {c: v.numerator * (scale // v.denominator) for c, v in vec.items() if v}
        rows = self._rows
        for p in [c for c in out if c in rows]:
            m, out = _clear(out, rows[p], p)
            scale *= m
        return scale, out

    def reduce(self, vec: Vec) -> Vec:
        scale, out = self._residual(vec)
        return {c: Fraction(n, scale) for c, n in out.items()}

    def add(self, vec: Vec) -> bool:
        _scale, r = self._residual(vec)
        if not r:
            return False
        pivot = min(r)
        row = _primitive(r, r[pivot])
        # Jordan step: clear the new pivot column from existing rows
        for p, existing in list(self._rows.items()):
            if pivot in existing:
                self._rows[p] = _primitive(_clear(dict(existing), row, pivot)[1], 1)
        self._rows[pivot] = row
        return True


def _clear(ints: dict[int, int], row: dict[int, int], p: int) -> tuple[int, dict[int, int]]:
    """(m, m * ints - q * row) for the least m > 0 that clears column p of
    ints (row[p] > 0); ints itself is changed when m is 1."""
    g = gcd(ints[p], row[p])
    m, q = row[p] // g, ints[p] // g
    if m != 1:
        ints = {c: n * m for c, n in ints.items()}
    for c, n in row.items():
        s = ints.get(c, 0) - q * n
        if s:
            ints[c] = s
        else:
            del ints[c]
    return m, ints


def _primitive(ints: dict[int, int], sign: int) -> dict[int, int]:
    """ints divided by their content, negated when sign is negative."""
    g = 0
    for n in ints.values():
        g = gcd(g, n)
        if g == 1:
            break
    if sign < 0:
        g = -g
    return ints if g == 1 else {c: n // g for c, n in ints.items()}
