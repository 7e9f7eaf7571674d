"""Exact linear algebra: the row-reduction kernel and the Vec layer on top."""

import random
from fractions import Fraction

import pytest

from brieskorn import _backend, linalg


def rand_rows(rng, nrows, ncols, fill=0.35):
    return [
        [(c, rng.randint(-9, 9) or 1, rng.randint(1, 9)) for c in range(ncols) if rng.random() < fill]
        for _ in range(nrows)
    ]


def rand_vecs(rng, nrows, ncols, fill=0.35):
    return [
        {c: Fraction(n, d) for c, n, d in row} for row in rand_rows(rng, nrows, ncols, fill)
    ]


def test_rref_properties():
    rng = random.Random(35)
    for _ in range(100):
        rows = rand_rows(rng, rng.randint(1, 8), rng.randint(1, 10))
        reduced, pivots = _backend.rref(rows)
        assert pivots == sorted(pivots)
        for row, p in zip(reduced, pivots):
            assert row[0][0] == p and Fraction(row[0][1], row[0][2]) == 1
            # pivot columns are cleared everywhere else
            for other in reduced:
                if other is not row:
                    assert all(c != p for c, _n, _d in other)


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(36)
    for _ in range(80):
        ncols = rng.randint(1, 10)
        vecs = rand_vecs(rng, rng.randint(1, 8), ncols)
        rows, pivots = linalg.rref(vecs)
        matrix = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in (v.get(c, 0) for c in range(ncols))]
             for v in vecs]
        )
        ref, ref_pivots = matrix.rref()
        assert pivots == list(ref_pivots)
        assert rows == [
            {c: Fraction(int(x.p), int(x.q)) for c, x in enumerate(ref.row(i)) if x}
            for i in range(len(ref_pivots))
        ]


def test_transpose_orders_rows_and_drops_zeros():
    columns = [{3: Fraction(1), 0: Fraction(2)}, {}, {0: Fraction(0), 3: Fraction(-1, 2)}]
    assert linalg.transpose(columns) == [{0: Fraction(2)}, {0: Fraction(1), 2: Fraction(-1, 2)}]


def combine(coeffs, columns):
    out = {}
    for x, col in zip(coeffs, columns):
        for i, c in col.items():
            out[i] = out.get(i, 0) + x * c
    return {i: c for i, c in out.items() if c}


def test_solve_columns_reproduces_target():
    rng = random.Random(37)
    found = 0
    for k in range(60):
        columns = rand_vecs(rng, rng.randint(1, 6), 8)
        if k % 2:
            target = rand_vecs(rng, 1, 8)[0]
        else:
            target = combine([Fraction(rng.randint(-3, 3)) for _ in columns], columns)
        x = linalg.solve_columns(columns, target)
        span = linalg.Echelon()
        for col in columns:
            span.add(col)
        assert (x is not None) == span.contains(target)
        if x is not None:
            found += 1
            assert combine(x, columns) == target
    assert found >= 30
