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
from functools import cached_property
from math import comb, lcm
from operator import add, mul, neg
from typing import Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_POWER_WORK = 100_000  # weighted term products of a power in polynomial text (power_work)
MAX_SLICE_WALK = 50_000  # exponents one iter_monomials_of_weight call may list


class LimitExceeded(Exception):
    """Input past a documented size limit (MAX_POWER_WORK, MAX_SLICE_WALK,
    groebner.MAX_QUOTIENT_BOX): a bound, not bad input."""


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
        terms, others = self.terms, other.terms
        if len(terms) == 1 or len(others) == 1:  # the products have distinct exponents
            if len(others) != 1:
                terms, others = others, terms
            ((e2, c2),) = others.items()
            return Polynomial._of(self.nvars, {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in terms.items()})
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in terms.items():
            for e2, c2 in others.items():
                exp = tuple(map(add, e1, e2))
                s = out.get(exp)
                if s is None:
                    out[exp] = c1 * c2
                elif s := s + c1 * c2:
                    out[exp] = s
                else:
                    del out[exp]
        return Polynomial._of(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return Polynomial._of(self.nvars, {tuple(n * k for k in e): c**n})
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
# term   := factor (('*'|'/') factor)*     ('/' only by a nonzero constant)
# factor := base ('^' uint)?
# base   := uint | name | '(' expr ')'
#
# So '/' and '^' bind as in Python: x/2/3 is x/6, 2/3^2 is 2/9 and -2/3^2
# is -(2/3^2); x^2^3 is refused.  A uint is ASCII 0-9 digits; a name starts
# with a letter or '_' and goes on with letters, digits and '_'.  Whitespace
# is insignificant.

_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>\w+)|(?P<op>[-+*/^()])|\S")


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """The tokens (kind, value, position) of text, ending in ("end", "", len(text)).

    kind is "int", "name", the operator character itself, or "?" for a
    character that starts no token; the parser reports that character only
    when it reaches it."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m[0]
        if kind == "op":
            kind = value
        elif kind != "int" and not (value[0].isalpha() or value[0] == "_"):
            kind, value = "?", value[0]  # a non-word character, or a digit such as '²'
        tokens.append((kind, value, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokens(text)
        self.at = 0
        self.index = {name: i for i, name in enumerate(variables)}
        self.nvars = len(self.index)

    def parse(self) -> Polynomial:
        p = self._expr()
        kind, value, pos = self._peek()
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", pos)
        return p

    def _peek(self) -> tuple[str, str, int]:
        token = self.tokens[self.at]
        if token[0] == "?":
            raise ParseError(f"unexpected character {token[1]!r}", token[2])
        return token

    def _take(self) -> tuple[str, str, int]:
        token = self._peek()
        self.at += 1
        return token

    def _accept(self, *kinds: str) -> tuple[str, str, int] | None:
        """The next token, taken, if its kind is one of kinds; else None."""
        return self._take() if self._peek()[0] in kinds else None

    def _expect(self, kind: str) -> str:
        got, value, pos = self._take()
        if got != kind:
            raise ParseError(f"expected {kind!r}, found {value!r}", pos)
        return value

    def _expr(self) -> Polynomial:
        p = -self._term() if self._accept("-") else self._term()
        while op := self._accept("+", "-"):
            q = self._term()
            p = p + q if op[0] == "+" else p - q
        return p

    def _term(self) -> Polynomial:
        p = self._factor()
        while op := self._accept("*", "/"):
            q = self._factor()
            if op[0] == "*":
                p = p * q
            elif q.total_degree() > 0:
                raise ParseError("division only by a nonzero constant", op[2])
            elif not q:
                raise ParseError("division by zero", op[2])
            else:
                p = p * (1 / q.constant_term())
        return p

    def _factor(self) -> Polynomial:
        p = self._base()
        if op := self._accept("^"):
            k = int(self._expect("int"))
            if power_work(p, k) > MAX_POWER_WORK:
                raise LimitExceeded(f"a power may take over {MAX_POWER_WORK} term products (at position {op[2]})")
            p = p**k
        return p

    def _base(self) -> Polynomial:
        kind, value, pos = self._take()
        if kind == "int":
            return Polynomial.constant(self.nvars, int(value))
        if kind == "name":
            if value not in self.index:
                raise ParseError(f"unknown variable {value!r}", pos)
            return Polynomial.variable(self.nvars, self.index[value])
        if kind == "(":
            p = self._expr()
            self._expect(")")
            return p
        raise ParseError(f"expected a value, found {value!r}", pos)


def power_work(base: Polynomial, k: int) -> int:
    """The predicted work of base**k, or a sum past MAX_POWER_WORK: the term
    pairs of each product b^a * b^j of Polynomial.__pow__, b^j having at most
    C(t + j - 1, j) terms for t terms of b, weighted by 1 + (a + j) s / 1024.
    With L the lcm of b's denominators, (L b)^j has integer coefficients of
    at most j s bits, s = ceil(log2 sum |L c|), which is 0 for x^e."""
    t, coeffs = len(base), base.terms.values()
    scale = lcm(*(c.denominator for c in coeffs))
    s = (sum(abs(c.numerator) * scale // c.denominator for c in coeffs) - 1).bit_length()

    def cost(a: int, j: int) -> int:
        return comb(t + a - 1, a) * comb(t + j - 1, j) * (1024 + (a + j) * s) // 1024

    work, i, j = 0, 0, 1  # result = b^i and base = b^j, as in __pow__
    while base and k and work <= MAX_POWER_WORK:
        if k & 1:
            work, i = work + cost(i, j), i + j
        if k > 1:
            work, j = work + cost(j, j), 2 * j
        k >>= 1
    return work


def is_variable_name(text: str) -> bool:
    """Whether text reads as exactly one name token of the polynomial grammar."""
    return _tokens(text)[0][:2] == ("name", text)


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
    units of 1/L.  cosets, the Cosets of ker W, is built on first use.
    """

    def __init__(self, weights: Sequence[Fraction]):
        self.scale = lcm(*(w.denominator for w in weights))
        self.weights = tuple(w.numerator * (self.scale // w.denominator) for w in weights)

    @cached_property
    def cosets(self) -> "Cosets":
        return Cosets(self.weights)

    def monomial(self, exp: Sequence[int]) -> int:
        """Integer weight of x^exp."""
        return sum(map(mul, self.weights, exp))

    def form(self, form) -> int | None:
        """Integer weight of a nonzero differential form, dx_i weighing W_i, or
        None when its terms differ in weight."""
        if form.is_zero:
            raise ValueError("the zero form has no weighted degree")
        found = {sum(self.weights[k] for k in wedge) + self.monomial(exp) for (wedge, exp), _c in form.entries()}
        return found.pop() if len(found) == 1 else None

    def scaled(self, c) -> int | None:
        """L*c (c an int or Fraction) as an int, or None when c is off the
        lattice (1/L)Z, where no monomial form has weight c."""
        q, r = divmod(c.numerator * self.scale, c.denominator)
        return None if r else q


def _echelon(rows: Iterable[list[int]]) -> dict[int, list[int]]:
    """An echelon basis of the row lattice of integer rows, by pivot column:
    each row is merged in by Euclid at each nonzero entry in turn (Cohen,
    GTM 138, 2.4).  Pivots are positive."""
    basis: dict[int, list[int]] = {}
    for row in rows:
        for j in range(len(row)):
            if row[j]:
                b = basis.get(j, [0] * len(row))
                while row[j]:
                    q = b[j] // row[j]
                    b, row = row, [x - q * y for x, y in zip(b, row)]
                basis[j] = b if b[j] > 0 else list(map(neg, b))
    return basis


class Cosets:
    """The cosets of a lattice M in ker W: the lattice of generators, or
    without them ker W itself.

    An echelon basis of M has one row per pivot column j, with pivot h_j.
    The key of a coset is its canonical point (key).  Without generators M
    comes from the echelon basis of the rows (W_i | -unit_i): its one row
    (g | -u) that pivots left of the bar, W.u = g = gcd W, gives the point
    of each weight (point), and the others are an echelon basis of ker W.
    levels[i] holds W_i; two bounds (a, p, q), a*x_i <= p*budget +
    q*remaining, that leave a weight the later variables reach; and h_i with
    the entries past i of its basis row, or h = 0 if no row pivots at i.

    walks holds each finished iter_monomials_of_weight walk over these
    cosets, its exponent list keyed by (target, degree_cap, tuple(points)):
    a walk depends on nothing else, so it lives and dies with this instance.
    """

    __slots__ = ("levels", "walks", "_solver")

    def __init__(self, weights: Sequence[int], generators: Iterable[Sequence[int]] | None = None):
        n = len(weights)
        if generators is None:
            rows = [[w, *(-int(j == i) for j in range(n))] for i, w in enumerate(weights)]
        else:
            rows = [[0, *g] for g in generators]
        basis = _echelon(rows)
        self._solver, self.levels, self.walks, top, bottom = basis.pop(0, None), [], {}, 0, 0
        for i in reversed(range(n)):  # top and bottom: the largest and the least weight past x_i, 0 past the last
            w, row = weights[i], basis.get(i + 1)
            pivot = (row[i + 1], row[i + 2 :]) if row else (0, [0] * (n - 1 - i))
            self.levels.insert(0, (w, ((top - w, top, -1), (w - bottom, -bottom, 1)), *pivot))
            top, bottom = max(top, w), min(bottom, w)

    def point(self, target: int) -> Exponent | None:
        """A point of Z^n of weight target, or None; for M = ker W."""
        if self._solver is None:  # W = 0
            return None if target else (0,) * len(self.levels)
        g, *u = self._solver
        q, r = divmod(target, g)
        return None if r else tuple(-q * a for a in u)

    def key(self, u: Sequence[int]) -> Exponent:
        """The canonical point of u + M: u reduced at each pivot column j, in
        ascending order, into [0, h_j).  Two reduced points of one coset are
        equal: at the pivot of the first basis row their difference uses, it
        is a multiple of h_j within (-h_j, h_j)."""
        v = list(u)
        for j, (_w, _bounds, h, row) in enumerate(self.levels):
            if h and (q := v[j] // h):
                v[j:] = [v[j] - q * h, *(a - q * b for a, b in zip(v[j + 1 :], row))]
        return tuple(v)


def iter_monomials_of_weight(
    grading: Grading, target: int, degree_cap: int, classes: tuple[Cosets, Sequence[Exponent]] | None = None
) -> Iterator[Exponent]:
    """The exponents of integer weight `target` (Grading.monomial) and total
    degree <= cap, in lexicographic order: the points in that simplex of
    grading.cosets.point(target) + ker W, or with classes, a pair (cosets,
    points of weight target), of the cosets p + M.

    A coset is walked column by column with integer adds: column i steps by
    its pivot from the residue of its running offset (p_i moved by the rows
    of the pivots set so far), or is fixed at the offset.  Each exponent
    runs only over values that leave a weight the later variables can reach
    within the budget; with mixed-sign weights the cap keeps this finite.
    A walk that would list over MAX_SLICE_WALK exponents raises
    LimitExceeded before the range that passes it is listed.

    A walk reads only the cosets' levels, the target, the cap and the
    points, so its list is kept in cosets.walks once it has finished and a
    repeated call returns it unwalked; a refused walk keeps nothing.
    """
    if degree_cap < 0:
        return iter(())
    cosets, points = classes or (grading.cosets, [grading.cosets.point(target)])
    memo = (target, degree_cap, tuple(points))
    found = cosets.walks.get(memo)
    if found is not None:
        return iter(found)
    levels, last = cosets.levels, len(cosets.levels) - 1
    w_last = levels[last][0] if levels else 0
    exp, found = [0] * (last + 1), []

    def rec(i: int, remaining: int, budget: int, off: Sequence[int]) -> None:
        # off[j] is the offset of column i + j; x_i = k leaves remaining - w*k
        # to x_(i+1).. within budget - k
        w, bounds, h, row = levels[i]
        lo, hi = 0, budget
        for a, p, q in bounds:
            r = p * budget + q * remaining
            if a > 0:
                if r < a * hi:
                    hi = r // a
            elif a:
                if r < a * lo:
                    lo = -(r // -a)
            elif r < 0:
                return
        o = off[0]
        if not h:  # the earlier columns fix this one
            lo, hi, h = max(lo, o), min(hi, o), 1
        lo += (o - lo) % h
        if i == last:
            for exp[i] in _leaves(found, lo, hi, h):
                found.append(tuple(exp))
        elif i + 1 == last and w_last:
            for k in _leaves(found, lo, hi, h):
                exp[i], exp[last] = k, (remaining - w * k) // w_last
                found.append(tuple(exp))
        else:
            x = (lo - o) // h
            nxt = [u + x * v for u, v in zip(off[1:], row)]
            for k in range(lo, hi + 1, h):
                exp[i] = k
                rec(i + 1, remaining - w * k, budget - k, nxt)
                nxt = list(map(add, nxt, row))

    for p in points:
        if p:
            rec(0, target, degree_cap, p)
        elif p is not None:  # the point of Z^0
            found.append(p)
    if len(points) > 1:
        found.sort()
    cosets.walks[memo] = found
    return iter(found)


def _leaves(found: list, lo: int, hi: int, h: int) -> range:
    """range(lo, hi + 1, h), unless listing it after found passes MAX_SLICE_WALK."""
    leaves = range(lo, hi + 1, h)
    if len(found) + len(leaves) > MAX_SLICE_WALK:
        raise LimitExceeded(f"a weight slice holds over {MAX_SLICE_WALK} monomials")
    return leaves
