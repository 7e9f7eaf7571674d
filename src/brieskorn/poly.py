"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors (one non-negative integer per
variable) to nonzero Fraction coefficients.  Everything is exact: there is
no floating point anywhere in this package, which is what makes equality
tests meaningful and all downstream tolerances zero.

  Exponent = tuple[int, ...]          # len == number of ring variables
  terms    = {exponent: Fraction}     # zero coefficients never stored

Weight vectors (one rational weight per variable, negative and zero weights
allowed) give the quasi-homogeneous grading used throughout the engine; a
Grading holds one in integer form, and all weight arithmetic is done there.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial over Q in a fixed number of variables."""

    # _partials (forms.partial_terms) is filled on first use
    __slots__ = ("nvars", "terms", "_partials")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != nvars:
                    raise ValueError(f"exponent {exp} does not match {nvars} variables")
                c = _as_fraction(coeff)
                if c:
                    clean[exp] = c
        self.terms = clean
        self._partials = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "Polynomial":
        """The polynomial of terms, unchecked: exponents of length nvars and
        nonzero Fraction coefficients, owned by the result."""
        p = cls.__new__(cls)
        p.nvars, p.terms, p._partials = nvars, terms, None
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): ONE})

    @classmethod
    def monomial(cls, nvars: int, exp: Sequence[int], coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(exp): _as_fraction(coeff)})

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, ZERO)

    def total_degree(self) -> int:
        """Maximal total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return not self.terms
            return self.terms == {(0,) * self.nvars: c}
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    # -- arithmetic -------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials from different rings")

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, ZERO) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return Polynomial._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Polynomial.zero(self.nvars)
            return Polynomial._of(self.nvars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exp, ZERO) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return Polynomial._of(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and grading ---------------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        """Exact formal partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            k = exp[index]
            if k:
                e = list(exp)
                e[index] = k - 1
                out[tuple(e)] = c * k
        return Polynomial(self.nvars, out)

    def remap_variables(self, new_nvars: int, positions: Sequence[int]) -> "Polynomial":
        """Embed into a larger ring: old variable i becomes variable positions[i]."""
        if len(positions) != self.nvars:
            raise ValueError("positions length must equal current variable count")
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            e = [0] * new_nvars
            for i, k in enumerate(exp):
                e[positions[i]] = k
            out[tuple(e)] = c
        return Polynomial(new_nvars, out)

    # -- display ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded-lexicographic order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def serialize(self, variables: Sequence[str]) -> str:
        """Canonical string form; parse_polynomial() round-trips it exactly."""
        if len(variables) != self.nvars:
            raise ValueError("variable name list does not match ring")
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for exp, coeff in self.sorted_terms():
            body = _term_string(exp, abs(coeff), variables)
            if not chunks:
                chunks.append(body if coeff > 0 else "-" + body)
            else:
                chunks.append((" + " if coeff > 0 else " - ") + body)
        return "".join(chunks)

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.nvars)]
        return f"Polynomial({self.serialize(names)!r})"


def _term_string(exp: Exponent, coeff: Fraction, variables: Sequence[str]) -> str:
    factors = []
    for name, k in zip(variables, exp):
        if k == 1:
            factors.append(name)
        elif k > 1:
            factors.append(f"{name}^{k}")
    if not factors:
        return format_rational(coeff)
    if coeff != 1:
        factors.insert(0, format_rational(coeff))
    return "*".join(factors)


def format_rational(c: Fraction) -> str:
    """Rationals serialize as "p/q" or integer strings, never floats."""
    c = _as_fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# a rational literal: an integer p or a quotient p/q of integers
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text) -> Fraction:
    """The value of a rational literal p or p/q; anything else is a ValueError."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"{text!r} is not a rational literal p or p/q")
    num, den = match.groups()
    if den is not None and int(den) == 0:
        raise ValueError(f"{text!r} has a zero denominator")
    return Fraction(int(num), int(den or 1))


# -- parser -------------------------------------------------------------------
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*     ('/' only by a constant factor)
# factor := base ('^' uint)?
# base   := rational | variable | '(' expr ')'
# rational := int ('/' uint)?
#
# Whitespace is insignificant.


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        pos = self.pos
        text = self.text
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return ("end", "", pos)
        ch = text[pos]
        if "0" <= ch <= "9":  # ASCII only: str.isdigit also takes '²' and '٢'
            end = pos
            while end < len(text) and "0" <= text[end] <= "9":
                end += 1
            return ("int", text[pos:end], pos)
        if ch.isalpha() or ch == "_":
            end = pos
            while end < len(text) and (text[end].isalnum() or text[end] == "_"):
                end += 1
            return ("name", text[pos:end], pos)
        if ch in "+-*/^()":
            return (ch, ch, pos)
        raise ParseError(f"unexpected character {ch!r}", pos)

    def take(self) -> tuple[str, str, int]:
        kind, value, pos = self.peek()
        self.pos = pos + (len(value) if value else 0)
        return kind, value, pos

    def expect(self, kind: str) -> tuple[str, str, int]:
        got = self.take()
        if got[0] != kind:
            raise ParseError(f"expected {kind!r}, found {got[1]!r}", got[2])
        return got


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.tok = _Tokenizer(text)
        self.variables = list(variables)
        self.index = {name: i for i, name in enumerate(variables)}
        self.nvars = len(self.variables)

    def parse(self) -> Polynomial:
        p = self._expr()
        kind, value, pos = self.tok.peek()
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", pos)
        return p

    def _expr(self) -> Polynomial:
        negate = False
        if self.tok.peek()[0] == "-":
            self.tok.take()
            negate = True
        p = self._term()
        if negate:
            p = -p
        while True:
            kind = self.tok.peek()[0]
            if kind == "+":
                self.tok.take()
                p = p + self._term()
            elif kind == "-":
                self.tok.take()
                p = p - self._term()
            else:
                return p

    def _term(self) -> Polynomial:
        p = self._factor()
        while True:
            kind, _, pos = self.tok.peek()
            if kind == "*":
                self.tok.take()
                p = p * self._factor()
            elif kind == "/":
                self.tok.take()
                q = self._factor()
                if not q.is_monomial() or q.total_degree() != 0:
                    raise ParseError("division only by a nonzero constant", pos)
                c = q.constant_term()
                if not c:
                    raise ParseError("division by zero", pos)
                p = p * (1 / c)
            else:
                return p

    def _factor(self) -> Polynomial:
        p = self._base()
        if self.tok.peek()[0] == "^":
            self.tok.take()
            _, digits, _ = self.tok.expect("int")
            p = p ** int(digits)
        return p

    def _base(self) -> Polynomial:
        kind, value, pos = self.tok.take()
        if kind == "int":
            numer = int(value)
            # rational literal: int '/' uint binds tighter than term division
            if self.tok.peek()[0] == "/":
                save = self.tok.pos
                self.tok.take()
                kind2, value2, pos2 = self.tok.peek()
                if kind2 == "int":
                    self.tok.take()
                    if not int(value2):
                        raise ParseError("division by zero", pos2)
                    return Polynomial.constant(self.nvars, Fraction(numer, int(value2)))
                self.tok.pos = save
            return Polynomial.constant(self.nvars, numer)
        if kind == "name":
            if value not in self.index:
                raise ParseError(f"unknown variable {value!r}", pos)
            return Polynomial.variable(self.nvars, self.index[value])
        if kind == "(":
            p = self._expr()
            self.tok.expect(")")
            return p
        raise ParseError(f"expected a value, found {value!r}", pos)


def is_variable_name(text: str) -> bool:
    """Whether text reads as exactly one name token of the polynomial grammar."""
    kind, value, _pos = _Tokenizer(text).peek()
    return kind == "name" and value == text


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse `text` over the named variables into an exact Polynomial."""
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    return _Parser(text, variables).parse()


def weight_vector(entries: Iterable) -> tuple[Fraction, ...]:
    """Normalize a weight specification (ints, Fractions or "p/q" strings)."""
    return tuple(parse_rational(w) if isinstance(w, str) else _as_fraction(w) for w in entries)


class Grading:
    """The integer form of a weight vector w (ints or Fractions), built once per germ.

    With L (scale) the lcm of the denominators of w, W = L*w (weights) is
    an integer vector, so every monomial and form weight is an integer in
    units of 1/L.  Also holds the tables iter_monomials_of_weight searches
    with: over x_i.., `budget` exponent units reach weights in
    [budget*neg_tail[i], budget*pos_tail[i]], all multiples of gcd_tail[i];
    and for a multiple `remaining` of gcd_tail[i], remaining - W_i*k is a
    multiple of gcd_tail[i+1] exactly when k is congruent to
    (remaining / gcd_tail[i]) * inverse[i] modulo step[i].
    """

    __slots__ = ("weights", "scale", "pos_tail", "neg_tail", "gcd_tail", "step", "inverse")

    def __init__(self, weights: Sequence[Fraction]):
        self.scale = lcm(*(w.denominator for w in weights))
        ws = self.weights = tuple(w.numerator * (self.scale // w.denominator) for w in weights)
        # tails over x_i.., accumulated from the last variable back, 0 past it
        tails = [list(accumulate(reversed(ws), op, initial=0))[::-1] for op in (max, min, gcd)]
        self.pos_tail, self.neg_tail, self.gcd_tail = tails
        g = self.gcd_tail
        self.step = [g[i + 1] // g[i] if g[i + 1] else 1 for i in range(len(ws))]
        self.inverse = [pow(ws[i] // g[i], -1, s) if s > 1 else 0 for i, s in enumerate(self.step)]

    def monomial(self, exp: Sequence[int]) -> int:
        """Integer weight of x^exp."""
        return sum(map(mul, self.weights, exp))

    def form(self, form) -> int | None:
        """Integer weight of a nonzero differential form, dx_i weighing W_i, or
        None when its terms differ in weight."""
        if form.is_zero:
            raise ValueError("the zero form has no weighted degree")
        ws = self.weights
        found = {
            sum(ws[k] for k in wedge) + sum(map(mul, ws, exp))
            for wedge, poly in form.coeffs.items()
            for exp in poly.terms
        }
        return found.pop() if len(found) == 1 else None

    def scaled(self, c) -> int | None:
        """L*c (c an int or Fraction) as an int, or None when c is off the
        lattice (1/L)Z, where no monomial form has weight c."""
        q, r = divmod(c.numerator * self.scale, c.denominator)
        return None if r else q


def iter_monomials_of_weight(
    grading: Grading,
    target: int,
    degree_cap: int,
    classes: tuple[Sequence[tuple[Exponent, int]], Iterable[tuple[int, ...]]] | None = None,
) -> Iterator[Exponent]:
    """Yield exponents of integer weight `target` (Grading.monomial) and
    total degree <= cap.

    Enumeration order is deterministic (lexicographic in the exponent).
    With mixed-sign weights the cap is what keeps this finite.  The search
    does integer arithmetic only, on the grading's tables: each exponent
    runs only over the values that leave a remainder the later variables
    can still reach, both by size and by divisibility.

    classes, a pair (congruences, keys), keeps only the exponents whose
    exponent_key under those congruences lies in keys.  The search carries
    one integer, sum(g_k * e_k) over the exponents set so far (_key_test),
    and tests it before an exponent's tuple is built.
    """
    if degree_cap < 0:
        return
    ws = grading.weights
    nvars = len(ws)
    gs, test = [0] * nvars, None
    if classes is not None:
        congruences, keys = classes
        if congruences:
            gs, test = _key_test(congruences, set(keys), degree_cap)
        elif () not in keys:  # a single class, whose key is ()
            return
    if nvars == 0:
        if target == 0 and (test is None or test(0)):
            yield ()
        return
    pos_tail, neg_tail, gcd_tail = grading.pos_tail, grading.neg_tail, grading.gcd_tail
    step, inverse = grading.step, grading.inverse
    exp = [0] * nvars
    last = nvars - 1
    w_last, g_last = ws[last], gs[last]

    def rec(i: int, remaining: int, budget: int, key: int) -> Iterator[Exponent]:
        # i < last, and remaining is reachable by x_i.. within budget.  The k
        # that keep remaining - w*k reachable by x_(i+1).. within budget - k
        # satisfy a*k <= r for both (a, r) below and lie in the residue class.
        # key is sum(gs[j] * exp[j]) over j < i.
        w, g = ws[i], gs[i]
        pos, neg = pos_tail[i + 1], neg_tail[i + 1]
        lo, hi = 0, budget
        for a, r in ((pos - w, budget * pos - remaining), (w - neg, remaining - budget * neg)):
            if a > 0:
                hi = min(hi, r // a)
            elif a < 0:
                lo = max(lo, -(r // -a))
            elif r < 0:
                return
        if step[i] > 1:
            lo += (remaining // gcd_tail[i] * inverse[i] - lo) % step[i]
        for k in range(lo, hi + 1, step[i]):
            exp[i] = k
            if i + 1 < last:
                yield from rec(i + 1, remaining - w * k, budget - k, key + g * k)
            elif w_last:
                e = (remaining - w * k) // w_last
                if test is None or test(key + g * k + g_last * e):
                    exp[last] = e
                    yield tuple(exp)
            else:  # remaining == w * k, and the last exponent is free
                for e in range(budget - k + 1):
                    if test is None or test(key + g * k + g_last * e):
                        exp[last] = e
                        yield tuple(exp)
        exp[i] = exp[last] = 0

    if not degree_cap * neg_tail[0] <= target <= degree_cap * pos_tail[0]:
        return
    if gcd_tail[0] and target % gcd_tail[0]:
        return
    if nvars > 1:
        yield from rec(0, target, degree_cap, 0)
    else:
        single = [target // w_last] if w_last else range(degree_cap + 1)
        yield from ((e,) for e in single if test is None or test(g_last * e))


def exponent_key(congruences: Sequence[tuple[Exponent, int]], exp: Sequence[int]) -> tuple[int, ...]:
    """One entry per congruence (c, m): sum(c_k * e_k) mod m, unreduced for m = 0."""
    return tuple(sum(map(mul, c, exp)) % m if m else sum(map(mul, c, exp)) for c, m in congruences)


def _key_test(congruences, keys: set, cap: int):
    """(g, test): for an exponent e of total degree <= cap, test(sum(g_k * e_k))
    tells whether exponent_key(congruences, e) lies in keys.

    One congruence with a modulus: g = c, and test reduces mod m.  Otherwise
    each value v = sum(c_k * e_k), at most b = cap * max|c_k| in size, is
    packed as the digit v + b in radix 2b + 1, and test unpacks the digits.
    """
    if len(congruences) == 1 and congruences[0][1]:
        ((c, m),) = congruences
        residues = {key[0] for key in keys}
        return list(c), lambda v: v % m in residues
    radices = [2 * cap * max(map(abs, c)) + 1 for c, _m in congruences]
    g, offset, place = [0] * len(congruences[0][0]), 0, 1
    for (c, _m), radix in zip(congruences, radices):
        g = [a + place * b for a, b in zip(g, c)]
        offset += place * (radix // 2)
        place *= radix

    def test(v: int) -> bool:
        v += offset
        key = []
        for (_c, m), radix in zip(congruences, radices):
            v, digit = divmod(v, radix)
            digit -= radix // 2
            key.append(digit % m if m else digit)
        return tuple(key) in keys

    return g, test


def lattice_congruences(generators: Iterable[Sequence[int]], nvars: int) -> list[tuple[Exponent, int]]:
    """Congruences that tell the cosets of the lattice L spanned by generators apart.

    Pairs (c, m): u lies in L iff sum(c_k u_k) is divisible by m for every
    pair (equal to 0 for m = 0), so exponent_key(pairs, v) names the coset
    v + L.  Integer row and column operations bring the generator rows A to
    a diagonal D = U A V (U, V unimodular; only V is kept).  u = x A for an
    integer x iff u V lies in the row lattice of D, so the columns of V are
    the c and the diagonal of D the m, with m = 0 past the rank.  Pairs with
    m = 1 hold everywhere and are left out; the c of a pair with m > 1 are
    reduced mod m.
    """
    rows = [list(g) for g in generators if any(g)]
    cols = [[int(r == c) for r in range(nvars)] for c in range(nvars)]  # V, by column
    t = 0
    while t < min(len(rows), nvars):
        # move the smallest nonzero entry of the block past (t, t) to (t, t)
        entries = [(abs(v), i, j) for i in range(t, len(rows)) for j in range(t, nvars) if (v := rows[i][j])]
        if not entries:
            break
        _, i, j = min(entries)
        rows[t], rows[i] = rows[i], rows[t]
        for row in rows:
            row[t], row[j] = row[j], row[t]
        cols[t], cols[j] = cols[j], cols[t]
        pivot, done = rows[t][t], True
        for row in rows[t + 1 :]:  # clear column t by row operations
            q = row[t] // pivot
            if q:
                row[:] = [a - q * b for a, b in zip(row, rows[t])]
            done = done and not row[t]
        for j in range(t + 1, nvars):  # clear row t by column operations
            q = rows[t][j] // pivot
            if q:
                for row in rows:
                    row[j] -= q * row[t]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[t])]
            done = done and not rows[t][j]
        if done:  # else a remainder smaller than the pivot is left
            t += 1
    moduli = [abs(rows[k][k]) for k in range(t)] + [0] * (nvars - t)
    return [(tuple(a % m for a in c) if m else tuple(c), m) for c, m in zip(cols, moduli) if m != 1]
