"""Truncated arithmetic in the skew algebra generated by t and s with
[t, s] = s*s (s plays the role of the inverse connection dt^{-1}).

Normal form puts all s-powers left of all t-powers; normal ordering is the
literal rewrite t*s^j -> s^j*t + j*s^(j+1) applied until no t sits left of
an s.  A hard cap on the s-degree replaces the analytic convergence
condition; overflowing it raises instead of silently truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from brieskorn.poly import format_rational

DEFAULT_S_CAP = 64


class TruncationOverflow(Exception):
    """An s-power exceeded the configured cap."""


class SkewElement:
    """Finite sum of s^j t^k monomials with rational coefficients."""

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs=None, cap: int = DEFAULT_S_CAP):
        self.cap = cap
        clean: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for (j, k), c in coeffs.items():
                if j < 0 or k < 0:
                    raise ValueError("powers must be non-negative")
                if j > cap:
                    raise TruncationOverflow(f"s-power {j} exceeds cap {cap}")
                c = Fraction(c)
                if c:
                    clean[(j, k)] = c
        self.coeffs = clean

    @classmethod
    def one(cls, cap: int = DEFAULT_S_CAP) -> "SkewElement":
        return cls({(0, 0): Fraction(1)}, cap)

    @classmethod
    def generator(cls, name: str, power: int = 1, cap: int = DEFAULT_S_CAP) -> "SkewElement":
        if name == "t":
            return cls({(0, power): Fraction(1)}, cap)
        if name == "s":
            return cls({(power, 0): Fraction(1)}, cap)
        raise ValueError(f"unknown generator {name!r}")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewElement) and self.coeffs == other.coeffs

    def __add__(self, other: "SkewElement") -> "SkewElement":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return SkewElement(out, min(self.cap, other.cap))

    def __sub__(self, other: "SkewElement") -> "SkewElement":
        return self + (other * Fraction(-1))

    def __mul__(self, other) -> "SkewElement":
        if isinstance(other, (int, Fraction)):
            return SkewElement(
                {k: c * other for k, c in self.coeffs.items()}, self.cap
            )
        if not isinstance(other, SkewElement):
            return NotImplemented
        cap = min(self.cap, other.cap)
        out: dict[tuple[int, int], Fraction] = {}
        for (j1, k1), c1 in self.coeffs.items():
            for (j2, k2), c2 in other.coeffs.items():
                # (s^j1 t^k1)(s^j2 t^k2): rewrite t^k1 s^j2 into normal order
                for (ja, ka), cc in _t_pow_times_s_pow(k1, j2, cap).items():
                    key = (j1 + ja, ka + k2)
                    if key[0] > cap:
                        raise TruncationOverflow(
                            f"s-power {key[0]} exceeds cap {cap}"
                        )
                    s = out.get(key, Fraction(0)) + c1 * c2 * cc
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return SkewElement(out, cap)

    __rmul__ = __mul__

    def coefficient(self, s_power: int, t_power: int) -> Fraction:
        return self.coeffs.get((s_power, t_power), Fraction(0))

    def serialize(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for (j, k), c in sorted(self.coeffs.items()):
            parts = []
            if c != 1 or (j == 0 and k == 0):
                parts.append(format_rational(c))
            if j:
                parts.append("s" if j == 1 else f"s^{j}")
            if k:
                parts.append("t" if k == 1 else f"t^{k}")
            chunks.append("*".join(parts))
        return " + ".join(chunks)

    def __repr__(self):
        return f"SkewElement({self.serialize()})"


def _t_pow_times_s_pow(k: int, j: int, cap: int) -> dict[tuple[int, int], int]:
    """Normal order of t^k s^j by iterating the rewrite t s^a -> s^a t + a s^(a+1).

    Returns {(s_power, t_power): integer coefficient}.
    """
    if k == 0 or j == 0:
        return {(j, k): 1}
    terms: dict[tuple[int, int], int] = {(j, 0): 1}
    for _ in range(k):
        nxt: dict[tuple[int, int], int] = {}
        for (a, kk), c in terms.items():
            # multiply by t on the left: t s^a t^kk
            for key, cc in (((a, kk + 1), c), ((a + 1, kk), c * a)):
                if key[0] > cap:
                    raise TruncationOverflow(f"s-power {key[0]} exceeds cap {cap}")
                nxt[key] = nxt.get(key, 0) + cc
        terms = {k2: v for k2, v in nxt.items() if v}
    return terms


def normal_order(word: Sequence[tuple[str, int]], cap: int = DEFAULT_S_CAP) -> SkewElement:
    """Normal form of an alternating word of t- and s-powers."""
    result = SkewElement.one(cap)
    for name, power in word:
        if power < 0:
            raise ValueError("powers must be non-negative")
        if power:
            result = result * SkewElement.generator(name, power, cap)
    return result


@dataclass
class FactorialReport:
    """Expansion of t^(p+q-1) * s with its pure-s coefficient isolated."""

    p: int
    q: int
    expansion: SkewElement
    pure_s_coefficient: Fraction
    factorial: int
    tail_has_positive_t: bool

    @property
    def matches(self) -> bool:
        return self.pure_s_coefficient == self.factorial and self.tail_has_positive_t


def lemma_a_certificate(p: int, q: int, cap: int = DEFAULT_S_CAP) -> FactorialReport:
    """Expand t^(p+q-1)*s: the s^(p+q) coefficient is (p+q-1)! and every
    other term carries a positive t-power."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    m = p + q - 1
    if p + q > cap:
        raise TruncationOverflow("factorial certificate needs cap >= p+q")
    expansion = normal_order([("t", m), ("s", 1)], cap)
    coeff = expansion.coefficient(p + q, 0)
    tail_ok = all(k >= 1 for (j, k) in expansion.coeffs if j != p + q)
    return FactorialReport(p, q, expansion, coeff, math.factorial(m), tail_ok)


def remark26_solve(p: int, cap: int = DEFAULT_S_CAP) -> list[Fraction]:
    """Coefficients lambda_j with s^(2p) = sum_j lambda_j s^j t^p s^(p-j).

    Solvability is guaranteed; failure would be an internal invariant
    violation and raises.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if 2 * p > cap:
        raise TruncationOverflow("remark26 needs cap >= 2p")
    summands = [
        normal_order([("s", j), ("t", p), ("s", p - j)], cap) for j in range(p + 1)
    ]
    keys = sorted({key for term in summands for key in term.coeffs})
    columns = [
        {i: term.coeffs[key] for i, key in enumerate(keys) if key in term.coeffs}
        for term in summands
    ]
    target_key = (2 * p, 0)
    target = {keys.index(target_key): Fraction(1)} if target_key in keys else {}
    from brieskorn import linalg

    solution = linalg.solve_columns(columns, target)
    if solution is None:
        raise AssertionError(
            "s^(2p) is not a combination of s^j t^p s^(p-j); this contradicts "
            "the algebra relation and indicates a bug"
        )
    check = SkewElement({}, cap)
    for lam, term in zip(solution, summands):
        check = check + term * lam
    if check != SkewElement({(2 * p, 0): Fraction(1)}, cap):
        raise AssertionError("remark26 solution failed re-verification")
    return solution


class TruncatedSeries:
    """Power series in t known exactly up to degree cap."""

    __slots__ = ("coeffs", "cap", "shrunk")

    def __init__(self, coeffs: Iterable = (), cap: int = DEFAULT_S_CAP, shrunk: int = 0):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > cap + 1:
            raise ValueError("more coefficients than the cap allows")
        cs.extend([Fraction(0)] * (cap + 1 - len(cs)))
        self.coeffs = cs
        self.cap = cap
        self.shrunk = shrunk

    @classmethod
    def one(cls, cap: int = DEFAULT_S_CAP) -> "TruncatedSeries":
        return cls([1], cap)

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.cap == other.cap
            and self.coeffs == other.coeffs
        )

    def serialize(self) -> str:
        chunks = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = format_rational(c)
            chunks.append(cs if k == 0 else (f"{cs}*t^{k}" if k > 1 else f"{cs}*t"))
        return " + ".join(chunks) if chunks else "0"


def integrate_series(u: TruncatedSeries) -> TruncatedSeries:
    """Integration without constant term: t^k -> t^(k+1)/(k+1).

    The top coefficient falls outside the cap; the loss is recorded in
    `shrunk` (the result is exact up to degree cap - shrunk).
    """
    out = [Fraction(0)] * (u.cap + 1)
    for k in range(u.cap):
        out[k + 1] = u.coeffs[k] / (k + 1)
    lost = 1 if u.coeffs[u.cap] else 0
    return TruncatedSeries(out, u.cap, u.shrunk + lost)
