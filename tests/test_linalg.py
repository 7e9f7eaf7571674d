"""Exact linear algebra: the row-reduction kernel, the Vec layer on top and
the keyed columns of nullspace and solve_columns."""

import math
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
        vecs = rand_vecs(rng, rng.randint(1, 8), rng.randint(1, 10))
        reduced, pivots = _backend.rref([linalg._int_row(v) for v in vecs])
        assert pivots == sorted(pivots)
        for row, p in zip(reduced, pivots):
            assert row[0][0] == p and row[0][1] > 0
            # pivot columns are cleared everywhere else
            for other in reduced:
                if other is not row:
                    assert all(c != p for c, _n in other)
        # the Vec layer divides each row by its leading entry
        rows, vec_pivots = linalg.rref(vecs)
        assert vec_pivots == pivots
        assert all(row[p] == 1 for row, p in zip(rows, pivots))


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


def rows_of(columns):
    """Rows of the matrix with the given {row: coeff} columns, in ascending
    row index, zeros dropped."""
    rows = {}
    for j, col in enumerate(columns):
        for i, c in col.items():
            if c:
                rows.setdefault(i, {})[j] = c
    return [rows[i] for i in sorted(rows)]


def columns_of(equations, ncols):
    """The ncols columns of the matrix with the given equation rows."""
    return [{i: row[j] for i, row in enumerate(equations) if row.get(j)} for j in range(ncols)]


def keyed(columns):
    """{row: coeff} columns as columns of keyed entries, the row index the key."""
    return [col.items() for col in columns]


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
        x = linalg.solve_columns(keyed(columns), target.items())
        span = linalg.Echelon()
        for col in columns:
            span.add(col)
        assert (x is not None) == (not span.reduce(target))
        if x is not None:
            found += 1
            assert combine(x, columns) == target
    assert found >= 30


def test_combine_matches_the_dense_sum_over_sequences_and_mappings():
    rng = random.Random(39)
    for _ in range(40):
        vectors = rand_vecs(rng, rng.randint(1, 6), 8)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in vectors]
        if len(vectors) > 1:  # a combination that cancels: zero entries are dropped
            vectors.append(combine([-1, 1], vectors[:2]))
            coeffs.append(Fraction(1))
            coeffs[:2] = [Fraction(1), Fraction(-1)]
        expected = combine(coeffs, vectors)
        by_position = {j: x for j, x in enumerate(coeffs) if x}
        assert linalg.combine(vectors, by_position) == expected
        # keyed vectors: coeffs is keyed like the mapping
        keys = [("form", j) for j in range(len(vectors))]
        got = linalg.combine(dict(zip(keys, vectors)), {keys[j]: x for j, x in by_position.items()})
        assert got == expected and all(got.values())


def test_rref_of_a_permuted_identity_eliminates_nothing(monkeypatch):
    calls = [0]
    eliminate = _backend._int_eliminate

    def counted(row, piv, col):
        calls[0] += 1
        return eliminate(row, piv, col)

    monkeypatch.setattr(_backend, "_int_eliminate", counted)
    n = 1000
    order = list(range(n))
    random.Random(38).shuffle(order)
    reduced, pivots = _backend.rref([[(c, 1)] for c in order])
    assert pivots == list(range(n))
    assert reduced == [[(c, 1)] for c in range(n)]
    # each pivot column is held by exactly one row, so no row is touched
    assert calls[0] == 0


def test_echelon_of_shuffled_unit_rows_eliminates_once_per_pivot_met(monkeypatch):
    calls = [0]
    eliminate = _backend._int_eliminate

    def counted(row, piv, col):
        calls[0] += 1
        return eliminate(row, piv, col)

    monkeypatch.setattr(_backend, "_int_eliminate", counted)
    rng = random.Random(40)
    n = 500
    pivots = rng.sample(range(2 * n), n)
    span = linalg.Echelon()
    assert all(span.add({c: Fraction(rng.choice([-3, -1, 2, 5]), 7)}) for c in pivots)
    # each unit row meets no earlier pivot, and is stored primitive, lead positive
    assert calls[0] == 0
    assert span._rows == {c: [(c, 1)] for c in pivots}
    vec = {c: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for c in range(2 * n)}
    residual = span.reduce(vec)
    # a unit row brings in no other column, so each pivot is cleared once
    assert calls[0] == n
    free = sorted(set(range(2 * n)) - set(pivots))
    assert residual == {c: vec[c] / vec[free[0]] for c in free}


def adversarial_vecs(rng, nrows, ncols):
    """Rows crowding a few leading columns, with duplicates, scaled copies
    and combinations that cancel to zero."""
    rows = []
    for _ in range(nrows):
        lead = rng.choice((0, 0, 1, ncols // 2))
        row = {lead: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))}
        for c in range(lead + 1, ncols):
            if rng.random() < 0.3:
                row[c] = Fraction(rng.randint(-30, 30) or 7, rng.randint(1, 12))
        rows.append(row)
    for _ in range(nrows // 2):
        a, b = rng.choice(rows), rng.choice(rows)
        x, y = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)), Fraction(rng.randint(-5, 5))
        combo = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in set(a) | set(b)}
        rows.append({c: v for c, v in combo.items() if v})
        rows.append(dict(a))
        rows.append({c: -x * v for c, v in a.items()})
    rng.shuffle(rows)
    return rows


def test_rref_matches_sympy_on_adversarial_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(39)
    for _ in range(60):
        ncols = rng.randint(2, 12)
        vecs = adversarial_vecs(rng, rng.randint(2, 10), ncols)
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


def nullspace_by_probing(equations, ncols):
    """Reference: one probe of every pivot row per free column."""
    rows, pivots = linalg.rref(equations)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = {free: Fraction(1)}
        for p, row in zip(pivots, rows):
            c = row.get(free)
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def test_nullspace_matches_the_probing_construction():
    rng = random.Random(40)
    for k in range(80):
        ncols = rng.randint(1, 12)
        vecs = adversarial_vecs(rng, rng.randint(1, 8), ncols) if k % 2 else rand_vecs(rng, rng.randint(1, 8), ncols)
        basis = linalg.nullspace(keyed(columns_of(vecs, ncols)))
        expected = nullspace_by_probing(vecs, ncols)
        assert basis == expected
        assert [list(v) for v in basis] == [list(v) for v in expected]  # same key order
        for v in basis:
            assert all(sum(c * v.get(j, 0) for j, c in eq.items()) == 0 for eq in vecs)


def test_echelon_pivots_and_row_space_match_rref():
    rng = random.Random(41)
    for k in range(80):
        ncols = rng.randint(1, 12)
        vecs = adversarial_vecs(rng, rng.randint(1, 8), ncols) if k % 2 else rand_vecs(rng, rng.randint(1, 8), ncols)
        rows = [linalg._int_row(v) for v in vecs]
        ech, pivots = _backend.echelon(rows)
        reduced, rref_pivots = _backend.rref(rows)
        assert pivots == rref_pivots
        assert len(ech) == len(pivots)
        for row, p in zip(ech, pivots):
            cols = [c for c, _n in row]
            assert cols == sorted(set(cols)) and cols[0] == p
            assert row[0][1] > 0 and all(n for _c, n in row)
            g = 0
            for _c, n in row:
                g = math.gcd(g, n)
            assert g == 1
        # same row space: the echelon rows reduce to the same RREF
        assert _backend.rref(ech) == (reduced, pivots)


def solve_by_rref(columns, target):
    """Reference: the full RREF of [columns | target], target column read off."""
    m = len(columns)
    rows, pivots = linalg.rref(rows_of([*columns, target]))
    if m in pivots:
        return None
    x = [Fraction(0)] * m
    for p, row in zip(pivots, rows):
        x[p] = row.get(m, Fraction(0))
    return x


def solve_cases(rng):
    """Seeded sparse systems (columns, target) of every kind solve_columns meets."""
    for k in range(240):
        nrows = rng.randint(1, 10)
        kind = k % 6
        if kind == 5:  # crowded leading columns, duplicates, cancellations
            columns = adversarial_vecs(rng, rng.randint(2, 9), nrows)
        else:
            columns = rand_vecs(rng, rng.randint(1, 9), nrows, fill=rng.choice((0.2, 0.4, 0.7)))
        if kind == 2:  # rank-deficient: repeated and combined columns
            a, b = rng.choice(columns), rng.choice(columns)
            columns.append({i: 2 * v for i, v in a.items()})
            columns.insert(0, combine([Fraction(1, 3), Fraction(-2)], [a, b]))
        if kind == 4:  # columns with no entries
            for _ in range(rng.randint(1, 3)):
                columns.insert(rng.randint(0, len(columns)), {})
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in columns]
        if kind == 0:
            target = combine(coeffs, columns)  # consistent
        elif kind == 1:
            target = rand_vecs(rng, 1, nrows, fill=0.6)[0]  # usually inconsistent
        elif kind == 3:
            target = {}  # zero target
        elif kind == 4 and k % 12 == 4:
            target = {nrows: Fraction(rng.randint(1, 5))}  # a row no column holds
        else:
            target = combine(coeffs, columns) if rng.random() < 0.5 else rand_vecs(rng, 1, nrows)[0]
        yield columns, target


def test_solve_columns_matches_the_rref_reference():
    rng = random.Random(42)
    outcomes = set()
    for columns, target in solve_cases(rng):
        x = linalg.solve_columns(keyed(columns), target.items())
        expected = solve_by_rref(columns, target)
        assert x == expected
        if x is not None:
            assert all(type(v) is Fraction for v in x)
            assert combine(x, columns) == target
        outcomes.add((x is None, not target))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_solve_columns_on_an_upper_triangular_system_eliminates_nothing(monkeypatch):
    calls = [0]
    eliminate = _backend._int_eliminate

    def counted(row, piv, col):
        calls[0] += 1
        return eliminate(row, piv, col)

    monkeypatch.setattr(_backend, "_int_eliminate", counted)
    n = 60
    rng = random.Random(43)
    columns = [
        {i: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for i in range(j + 1) if i == j or rng.random() < 0.5}
        for j in range(n)
    ]
    target = {i: Fraction(rng.randint(-9, 9) or 1) for i in range(n)}
    x = linalg.solve_columns(keyed(columns), target.items())
    # each row leads in its own column, so forward elimination has nothing
    # to do, and the one-column back-solve eliminates no row
    assert calls[0] == 0
    assert combine(x, columns) == target
    # the full RREF of the same system would eliminate
    assert solve_by_rref(columns, target) == x and calls[0] > 0


def test_int_row_is_the_primitive_positive_multiple():
    rng = random.Random(44)
    for _ in range(100):
        vec = rand_vecs(rng, 1, 12, fill=0.5)[0]
        vec[rng.randint(0, 14)] = Fraction(0)  # a stored zero is dropped
        row = linalg._int_row(vec)
        cols = [c for c, _n in row]
        assert cols == sorted(c for c, v in vec.items() if v)
        assert all(type(n) is int and n for _c, n in row)
        assert math.gcd(*(n for _c, n in row)) == (1 if row else 0)
        if row:  # a positive multiple of vec
            c0, n0 = row[0]
            scale = Fraction(n0) / vec[c0]
            assert scale > 0 and all(n == scale * vec[c] for c, n in row)
    assert linalg._int_row({}) == []
