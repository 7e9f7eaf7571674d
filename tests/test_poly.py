"""Polynomial arithmetic, grading, parser."""

import random
from fractions import Fraction

import pytest
from oracles import function_form, monomial_weight, monomials_of_weight

from brieskorn.poly import (
    Grading,
    ParseError,
    Polynomial,
    exponent_key,
    format_rational,
    is_variable_name,
    lattice_congruences,
    parse_polynomial,
    parse_rational,
    weight_vector,
)

XYZ = ["x", "y", "z"]


def P(text, variables=XYZ):
    return parse_polynomial(text, variables)


def random_polynomial(rng, nvars=3, nterms=4, maxdeg=4):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exp = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[exp] = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    return Polynomial(nvars, terms)


class TestParser:
    def test_barlet_polynomial(self):
        f = P("x^5/5 + y^5/5 + x^3*y^3*z/3")
        assert f.terms == {
            (5, 0, 0): Fraction(1, 5),
            (0, 5, 0): Fraction(1, 5),
            (3, 3, 1): Fraction(1, 3),
        }

    def test_zero(self):
        assert P("0").is_zero

    def test_ring_identity(self):
        assert P("(x+y)^2 - x^2 - 2*x*y") == P("y^2")

    @pytest.mark.parametrize(
        "text, exp, coeff",
        [
            # '/' and '^' bind and associate as in Python: no literal p/q binds tighter
            ("x/2/3", (1, 0, 0), Fraction(1, 6)),
            ("2/3^2", (0, 0, 0), Fraction(2, 9)),
            ("-2/3^2", (0, 0, 0), Fraction(-2, 9)),
            ("6/4/3", (0, 0, 0), Fraction(1, 2)),
            ("x^5/5", (5, 0, 0), Fraction(1, 5)),
            ("7/2*x", (1, 0, 0), Fraction(7, 2)),
            ("3/4", (0, 0, 0), Fraction(3, 4)),
        ],
    )
    def test_division_and_powers(self, text, exp, coeff):
        assert P(text) == Polynomial.monomial(3, exp, coeff)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("x^²", "unexpected character '²'", 2),
            ("y^٢", "unexpected character '٢'", 2),
            ("x^y", "expected 'int', found 'y'", 2),
            ("x^", "expected 'int', found ''", 2),
            ("x^2^3", "trailing input '^'", 3),
            ("(x", "expected ')', found ''", 2),
            ("x y", "trailing input 'y'", 2),
            ("x)", "trailing input ')'", 1),
            ("x + ", "expected a value, found ''", 4),
            ("x + + ²", "expected a value, found '+'", 4),
            ("x + w", "unknown variable 'w'", 4),
            ("x/y", "division only by a nonzero constant", 1),
            ("1/2/x", "division only by a nonzero constant", 3),
            # a zero divisor is refused at its '/', whatever its form
            ("1/0", "division by zero", 1),
            ("x + 3/00", "division by zero", 5),
            ("x/0", "division by zero", 1),
            ("x/(1-1)", "division by zero", 1),
        ],
    )
    def test_refusals(self, text, message, position):
        with pytest.raises(ParseError) as err:
            P(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_agrees_with_sympy_on_generated_text(self):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols(XYZ)
        rng = random.Random(33)
        space = lambda: rng.choice(["", "", " ", "  ", "\t"])

        def expr(depth):
            text = ("-" + space() if rng.random() < 0.3 else "") + term(depth)
            for _ in range(rng.randint(0, 2)):
                text += f"{space()}{rng.choice('+-')}{space()}{term(depth)}"
            return text

        def term(depth):
            text = factor(base(depth))
            for _ in range(rng.randint(0, 2)):
                if rng.random() < 0.5:
                    text += f"{space()}*{space()}{factor(base(depth))}"
                else:  # by a uint or a parenthesized nonzero constant only
                    text += f"{space()}/{space()}{factor(divisor())}"
            return text

        def divisor():
            a, op, b = rng.randint(1, 9), rng.choice("+-*/"), rng.randint(1, 9)
            if rng.random() < 0.7:
                return str(a)
            b += op in "+-" and a == b  # so neither a - b nor -a + b is 0
            return f"({space()}{rng.choice(['', '-'])}{a}{space()}{op}{space()}{b}{space()})"

        def factor(text):
            return f"{text}{space()}^{space()}{rng.randint(0, 4)}" if rng.random() < 0.3 else text

        def base(depth):
            roll = rng.random()
            if roll < 0.45:
                return rng.choice(XYZ)
            if depth and roll > 0.8:
                return f"({space()}{expr(depth - 1)}{space()})"
            return str(rng.randint(0, 12))

        for _ in range(1000):
            text = space() + expr(2) + space()
            # sympy reads the text with Python's grammar; Poly expands it
            expected = sympy.Poly(sympy.sympify(text.replace("^", "**")), *symbols)
            terms = {exp: Fraction(int(c.p), int(c.q)) for exp, c in expected.terms()}
            assert P(text) == Polynomial(3, terms), text

    def test_unary_minus(self):
        assert P("-x + x").is_zero

    def test_is_variable_name(self):
        assert all(map(is_variable_name, ["x", "_a", "x1", "a²"]))
        assert not any(map(is_variable_name, [" x", "x ", "1", "", "x y", "²"]))

    def test_roundtrip(self):
        rng = random.Random(1)
        for _ in range(300):
            p = random_polynomial(rng)
            assert parse_polynomial(p.serialize(XYZ), XYZ) == p

    def test_serialize_examples(self):
        assert P("0").serialize(XYZ) == "0"
        assert P("y^2 - x").serialize(XYZ) == "y^2 - x"
        assert P("x*y/2").serialize(XYZ) == "1/2*x*y"


class TestRingAxioms:
    def test_axioms_hold_exactly(self):
        rng = random.Random(2)
        for _ in range(1000):
            a = random_polynomial(rng, nterms=3)
            b = random_polynomial(rng, nterms=3)
            c = random_polynomial(rng, nterms=3)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a + b == b + a

    def test_power(self):
        assert P("x+y") ** 3 == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
        assert P("x") ** 0 == 1


class TestDerivative:
    def test_barlet_partials(self):
        f = P("x^5/5 + y^5/5 + x^3*y^3*z/3")
        assert f.partial_derivative(0) == P("x^4 + x^2*y^3*z")
        assert f.partial_derivative(0) == P("x^2*(x^2+y^3*z)")
        assert f.partial_derivative(2) == P("x^3*y^3/3")

    def test_independent_variable(self):
        assert P("y^2").partial_derivative(0).is_zero

    def test_leibniz(self):
        rng = random.Random(3)
        for _ in range(1000):
            a = random_polynomial(rng, nterms=3)
            b = random_polynomial(rng, nterms=3)
            i = rng.randrange(3)
            lhs = (a * b).partial_derivative(i)
            rhs = a.partial_derivative(i) * b + a * b.partial_derivative(i)
            assert lhs == rhs

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x, y, z = sympy.symbols("x y z")
        rng = random.Random(4)
        for _ in range(25):
            p = random_polynomial(rng)
            expr = sympy.sympify(p.serialize(XYZ) or "0")
            for i, sym in enumerate((x, y, z)):
                ours = p.partial_derivative(i).serialize(XYZ)
                assert sympy.simplify(sympy.sympify(ours) - sympy.diff(expr, sym)) == 0


def weighted_degree(p, w):
    """The Grading's weight of a nonzero polynomial, as a rational, or None."""
    grading = Grading(w)
    c = grading.form(function_form(p))
    return None if c is None else Fraction(c, grading.scale)


class TestWeightedDegree:
    def test_barlet_weights(self):
        w = weight_vector(["1", "1", "-1"])
        assert weighted_degree(P("x^3*y^3*z"), w) == 5
        f = P("x^5/5 + y^5/5 + x^3*y^3*z/3")
        assert weighted_degree(f, w) == 5

    def test_constant_degree_zero(self):
        assert weighted_degree(P("7"), weight_vector([2, 3, 5])) == 0

    def test_non_homogeneous(self):
        w = weight_vector([1, 1])
        assert weighted_degree(parse_polynomial("x + y^2", ["x", "y"]), w) is None

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            weighted_degree(P("0"), weight_vector([1, 1, 1]))

    def test_multiplicativity(self):
        rng = random.Random(5)
        w = weight_vector([Fraction(1, 2), Fraction(1, 3), Fraction(-1, 5)])
        for _ in range(200):
            exp1 = tuple(rng.randint(0, 4) for _ in range(3))
            exp2 = tuple(rng.randint(0, 4) for _ in range(3))
            p = Polynomial.monomial(3, exp1, Fraction(2)) * rng.randint(1, 3)
            q = Polynomial.monomial(3, exp2, Fraction(1, 3))
            assert weighted_degree(p * q, w) == weighted_degree(p, w) + weighted_degree(q, w)


class TestWeightEnumeration:
    def test_positive_weights_complete(self):
        w = weight_vector([1, 2])
        got = set(monomials_of_weight(w, Fraction(4), 10))
        assert got == {(4, 0), (2, 1), (0, 2)}

    def test_mixed_weights_capped(self):
        w = weight_vector([1, 1, -1])
        got = list(monomials_of_weight(w, Fraction(0), 4))
        assert all(monomial_weight(e, w) == 0 and sum(e) <= 4 for e in got)
        assert (0, 0, 0) in got and (1, 1, 2) in got

    def test_enumeration_matches_brute_force(self):
        import itertools

        cases = [
            (weight_vector([1, 1, -1]), Fraction(1), 6),
            (weight_vector([Fraction(1, 2), Fraction(1, 3), Fraction(2)]), Fraction(5, 3), 7),
            (weight_vector([1, 0, -2]), Fraction(-1), 5),
        ]
        for w, target, cap in cases:
            got = set(monomials_of_weight(w, target, cap))
            brute = {
                e
                for e in itertools.product(range(cap + 1), repeat=3)
                if sum(e) <= cap and monomial_weight(e, w) == target
            }
            assert got == brute

    def test_seeded_enumeration_matches_brute_force_in_order(self):
        # fractional and mixed-sign weights, targets hit and missed; the
        # brute force runs in lexicographic order, which the enumeration keeps
        import itertools

        rng = random.Random(452)
        for _ in range(200):
            nvars = rng.randint(1, 4)
            w = weight_vector([Fraction(rng.randint(-4, 5), rng.randint(1, 4)) for _ in range(nvars)])
            cap = rng.randint(0, 6)
            exp = [rng.randint(0, 3) for _ in range(nvars)]
            target = monomial_weight(exp, w) + rng.choice([0, 0, Fraction(1, rng.randint(1, 6))])
            got = list(monomials_of_weight(w, target, cap))
            brute = [
                e
                for e in itertools.product(range(cap + 1), repeat=nvars)
                if sum(e) <= cap and monomial_weight(e, w) == target
            ]
            assert got == brute, (w, target, cap)

    @pytest.mark.parametrize(
        "weights",
        [
            ["1"],
            ["0"],
            ["-2/3"],
            ["1/2", "1/3"],
            ["0", "0"],
            ["-1", "-1/2"],
            ["3", "-2"],
            ["1/3", "1/4", "1/5"],
            ["1", "0", "2"],
            ["-1/2", "-1", "-3/2"],
            ["2", "-1", "0"],
            ["1/3", "1/4", "1/5", "1/6"],
            ["0", "1", "0", "1"],
            ["-1", "-2", "-1", "-3"],
            ["3/2", "-1", "2/3", "-1/2"],
        ],
    )
    def test_bounded_enumeration_equals_brute_force_in_order(self, weights):
        # positive, zero, negative and mixed weights for n = 1..4; integral
        # and rational targets, each cap 0..6
        import itertools

        w = weight_vector(weights)
        nvars = len(w)
        for cap in range(7):
            box = [
                (e, monomial_weight(e, w))
                for e in itertools.product(range(cap + 1), repeat=nvars)
                if sum(e) <= cap
            ]
            for target in sorted({c for _, c in box} | {Fraction(1, 7), Fraction(-5, 2)}):
                got = list(monomials_of_weight(w, target, cap))
                assert got == [e for e, c in box if c == target], (weights, target, cap)

    def test_negative_cap_and_unreachable_target_give_nothing(self):
        w = weight_vector(["1/2", "1/3", "-1"])
        assert list(monomials_of_weight(w, Fraction(0), -1)) == []
        assert list(monomials_of_weight(w, Fraction(1, 7), 6)) == []  # off the lattice
        assert list(monomials_of_weight(w, Fraction(4), 6)) == []  # beyond 6 * 1/2
        assert list(monomials_of_weight(weight_vector([2, 4]), Fraction(3), 6)) == []  # odd

    def test_all_variable_counts_and_negative_caps_match_brute_force(self):
        # nvars 0..5, caps -2..4: a negative cap yields nothing, also for
        # the empty exponent of zero variables
        import itertools

        rng = random.Random(11)
        for nvars in range(6):
            for cap in range(-2, 5):
                w = weight_vector([Fraction(rng.randint(-3, 4), rng.randint(1, 3)) for _ in range(nvars)])
                box = [
                    (e, monomial_weight(e, w))
                    for e in itertools.product(range(max(cap, 0) + 1), repeat=nvars)
                    if sum(e) <= cap
                ]
                for target in sorted({c for _, c in box} | {Fraction(0), Fraction(1, 7)}):
                    got = list(monomials_of_weight(w, target, cap))
                    assert got == [e for e, c in box if c == target], (nvars, w, target, cap)
        assert list(monomials_of_weight([], Fraction(0), -1)) == []
        assert list(monomials_of_weight([], Fraction(0), 0)) == [()]


def random_lattice(rng, nvars):
    return [[rng.randint(-5, 5) for _ in range(nvars)] for _ in range(rng.randint(0, nvars + 1))]


class TestKeyClasses:
    def test_congruences_vanish_exactly_on_the_lattice(self):
        # the generators have key 0, so the key is constant on cosets; for a
        # full-rank lattice the keys of a box of side |det| are |det| many,
        # so distinct cosets have distinct keys
        import itertools

        rng = random.Random(7)
        full_rank = 0
        for _ in range(300):
            nvars = rng.randint(1, 3)
            gens = random_lattice(rng, nvars)
            congruences = lattice_congruences(gens, nvars)
            zero = tuple(0 for _ in congruences)
            assert all(exponent_key(congruences, g) == zero for g in gens)
            assert all(m != 1 and len(c) == nvars for c, m in congruences)
            if len(gens) == nvars:
                det = round(_det(gens))
                if det and abs(det) <= 40:
                    full_rank += 1
                    assert all(m for _c, m in congruences)
                    box = itertools.product(range(abs(det)), repeat=nvars)
                    assert len({exponent_key(congruences, v) for v in box}) == abs(det)
        assert full_rank > 20

    def test_barlet35_lattice_has_one_factor_of_order_five(self):
        # L0 of x^5 + y^5 + x^3 y^3 z: Z^3 / L0 = Z + Z/5, with x + 2z mod 5
        # one character of the Z/5 part
        congruences = lattice_congruences([(-5, 5, 0), (-2, 3, 1)], 3)
        assert sorted(m for _c, m in congruences) == [0, 5]
        assert all(sum(a * b for a, b in zip((1, 0, 2), g)) % 5 == 0 for g in ((-5, 5, 0), (-2, 3, 1)))

    def test_classes_filter_matches_brute_force(self):
        # keys drawn from the box, several at a time, with moduli and free
        # (m = 0) congruences; the filtered enumeration keeps its order
        import itertools

        rng = random.Random(19)
        for _ in range(300):
            nvars = rng.randint(0, 4)
            w = weight_vector([Fraction(rng.randint(-3, 4), rng.randint(1, 3)) for _ in range(nvars)])
            congruences = lattice_congruences(random_lattice(rng, nvars), nvars)
            cap = rng.randint(-1, 5)
            box = [e for e in itertools.product(range(max(cap, 0) + 1), repeat=nvars) if sum(e) <= cap]
            present = sorted({exponent_key(congruences, e) for e in box})
            keys = set(rng.sample(present, min(len(present), rng.randint(0, 3))))
            for target in sorted({monomial_weight(e, w) for e in box})[:4]:
                got = list(monomials_of_weight(w, target, cap, (congruences, keys)))
                expected = [
                    e for e in box if monomial_weight(e, w) == target and exponent_key(congruences, e) in keys
                ]
                assert got == expected, (w, congruences, keys, target, cap)


def _det(rows):
    from fractions import Fraction as Fr

    m = [[Fr(x) for x in r] for r in rows]
    n, det = len(m), Fr(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            q = m[r][c] / m[c][c]
            m[r] = [a - q * b for a, b in zip(m[r], m[c])]
    return det


class TestRationalLiterals:
    def test_inverse_of_format_rational(self):
        rng = random.Random(11)
        for _ in range(200):
            c = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            assert parse_rational(format_rational(c)) == c
        assert parse_rational("+6/4") == Fraction(3, 2) and parse_rational("-007") == -7

    def test_weight_strings_share_the_grammar(self):
        assert weight_vector(["1/2", "-3"]) == (Fraction(1, 2), Fraction(-3))
        with pytest.raises(ValueError, match="is not a rational literal"):
            weight_vector(["0.5"])
