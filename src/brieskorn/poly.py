"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a map from exponent vectors (one non-negative integer per
variable) to nonzero Fraction coefficients.  Everything is exact: there is
no floating point anywhere in this package, which is what makes equality
tests meaningful and all downstream tolerances zero.

  Exponent = tuple[int, ...]          # len == number of ring variables
  terms    = {exponent: Fraction}     # zero coefficients never stored

Weight vectors (one rational weight per variable, negative and zero weights
allowed) give the quasi-homogeneous grading used throughout the engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]
Rational = Fraction

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

    __slots__ = ("nvars", "terms", "_hash")

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
        self._hash = None

    # -- constructors ---------------------------------------------------

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
        if self._hash is None:
            self._hash = hash((self.nvars, tuple(sorted(self.terms.items()))))
        return self._hash

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
        p = Polynomial.__new__(Polynomial)
        p.nvars, p.terms, p._hash = self.nvars, out, None
        return p

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p.nvars = self.nvars
        p.terms = {e: -c for e, c in self.terms.items()}
        p._hash = None
        return p

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
            p = Polynomial.__new__(Polynomial)
            p.nvars = self.nvars
            p.terms = {e: k * c for e, k in self.terms.items()}
            p._hash = None
            return p
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
        p = Polynomial.__new__(Polynomial)
        p.nvars, p.terms, p._hash = self.nvars, out, None
        return p

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

    def weighted_degree(self, weights: Sequence[Fraction]):
        """Common w-degree of all terms, or None when not w-homogeneous.

        Raises ValueError on the zero polynomial (it has every degree).
        """
        if not self.terms:
            raise ValueError("the zero polynomial has no weighted degree")
        if len(weights) != self.nvars:
            raise ValueError("weight vector length does not match ring")
        degree = None
        for exp in self.terms:
            d = sum(w * e for w, e in zip(weights, exp))
            if degree is None:
                degree = d
            elif d != degree:
                return None
        return Fraction(degree)

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
        if ch.isdigit():
            end = pos
            while end < len(text) and text[end].isdigit():
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
                kind2, value2, _ = self.tok.peek()
                if kind2 == "int":
                    self.tok.take()
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


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse `text` over the named variables into an exact Polynomial."""
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    return _Parser(text, variables).parse()


def weight_vector(entries: Iterable) -> tuple[Fraction, ...]:
    """Normalize a weight specification (ints, Fractions or "p/q" strings)."""
    out = []
    for w in entries:
        if isinstance(w, str):
            out.append(Fraction(w))
        else:
            out.append(_as_fraction(w))
    return tuple(out)


def monomial_weight(exp: Exponent, weights: Sequence[Fraction]) -> Fraction:
    return Fraction(sum(w * e for w, e in zip(weights, exp)))


def iter_monomials_of_weight(
    nvars: int,
    weights: Sequence[Fraction],
    target: Fraction,
    degree_cap: int,
) -> Iterator[Exponent]:
    """Yield exponents with weighted degree `target` and total degree <= cap.

    Enumeration order is deterministic (lexicographic in the exponent).
    With mixed-sign weights the cap is what keeps this finite.
    """
    target = Fraction(target)
    pos_tail = [ZERO] * (nvars + 1)
    neg_tail = [ZERO] * (nvars + 1)
    for i in range(nvars - 1, -1, -1):
        w = weights[i]
        pos_tail[i] = max(pos_tail[i + 1], w if w > 0 else ZERO)
        neg_tail[i] = min(neg_tail[i + 1], w if w < 0 else ZERO)

    exp = [0] * nvars

    def rec(i: int, remaining: Fraction, budget: int) -> Iterator[Exponent]:
        if i == nvars:
            if remaining == 0:
                yield tuple(exp)
            return
        # with at most `budget` more exponent units, the reachable weight
        # lies in [budget*neg_tail, budget*pos_tail]
        if remaining > budget * pos_tail[i] or remaining < budget * neg_tail[i]:
            return
        w = weights[i]
        for k in range(budget + 1):
            exp[i] = k
            yield from rec(i + 1, remaining - w * k, budget - k)
        exp[i] = 0

    yield from rec(0, target, degree_cap)
