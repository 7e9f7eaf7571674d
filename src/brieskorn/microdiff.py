"""Exact arithmetic in the skew algebra generated by t and s with
[t, s] = s*s (s plays the role of the inverse connection dt^{-1}), and
integration of t-series.

Normal form puts all s-powers left of all t-powers; normal ordering sums
the literal rewrite t*s^j -> s^j*t + j*s^(j+1), applied until no t sits left
of an s, in closed form.  A hard cap on the s-degree replaces the analytic
convergence condition: normal_order refuses a letter or a product whose
s-power would pass it, before multiplying, and nothing is truncated.  A
t-series is the tuple of its coefficients up to the degree it is known to.
Coefficients are ints or Fractions; a float raises TypeError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from brieskorn import linalg
from brieskorn.germ import InvariantViolation
from brieskorn.poly import ZERO, _as_fraction, format_rational

DEFAULT_S_CAP = 64


class TruncationOverflow(Exception):
    """An s-power exceeded the configured cap."""


class SkewElement:
    """Finite sum of s^j t^k monomials with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for (j, k), c in coeffs.items():
                if j < 0 or k < 0:
                    raise ValueError("powers must be non-negative")
                c = _as_fraction(c)
                if c:
                    clean[(j, k)] = c
        self.coeffs = clean

    def __eq__(self, other) -> bool:
        return isinstance(other, SkewElement) and self.coeffs == other.coeffs

    def __add__(self, other: "SkewElement") -> "SkewElement":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, ZERO) + c
        return SkewElement(out)

    def __sub__(self, other: "SkewElement") -> "SkewElement":
        return self + (other * Fraction(-1))

    def __mul__(self, other) -> "SkewElement":
        if isinstance(other, (int, Fraction)):
            return SkewElement({k: c * other for k, c in self.coeffs.items()})
        if not isinstance(other, SkewElement):
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (j1, k1), c1 in self.coeffs.items():
            for (j2, k2), c2 in other.coeffs.items():
                # (s^j1 t^k1)(s^j2 t^k2): rewrite t^k1 s^j2 into normal order
                for (ja, ka), cc in _t_pow_times_s_pow(k1, j2).items():
                    key = (j1 + ja, ka + k2)
                    out[key] = out.get(key, ZERO) + c1 * c2 * cc
        return SkewElement(out)

    __rmul__ = __mul__

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


def _t_pow_times_s_pow(k: int, j: int) -> dict[tuple[int, int], int]:
    """Normal order of t^k s^j: the sum over i <= k of
    C(k, i) * j(j+1)...(j+i-1) * s^(j+i) t^(k-i), from ad_t(s^j) = j s^(j+1).

    Returns {(s_power, t_power): integer coefficient}.
    """
    if k == 0 or j == 0:
        return {(j, k): 1}
    terms, rising = {}, 1
    for i in range(k + 1):
        terms[(j + i, k - i)] = math.comb(k, i) * rising
        rising *= j + i
    return terms


def normal_order(word: Sequence[tuple[str, int]], cap: int = DEFAULT_S_CAP) -> SkewElement:
    """Normal form of a word of t- and s-powers.  A letter s^p with p > cap,
    or a product with it whose top s-power (j + k + p over the terms
    s^j t^k so far) passes cap, raises TruncationOverflow before it is
    multiplied out."""
    result = SkewElement({(0, 0): 1})
    for name, power in word:
        if power < 0:
            raise ValueError("powers must be non-negative")
        if not power:
            continue
        if name == "t":
            letter = (0, power)
        elif name == "s":
            top = power + max(j + k for j, k in result.coeffs)
            for s_power in (power, top):
                if s_power > cap:
                    raise TruncationOverflow(f"s-power {s_power} exceeds cap {cap}")
            letter = (power, 0)
        else:
            raise ValueError(f"unknown generator {name!r}")
        result = result * SkewElement({letter: 1})
    return result


def lemma_a_certificate(p: int, q: int, cap: int = DEFAULT_S_CAP) -> tuple[Fraction, bool]:
    """Expand t^(p+q-1)*s: its s^(p+q) coefficient, which Lemma A says is
    (p+q-1)!, and whether every other term carries a positive t-power."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    if p + q > cap:
        raise TruncationOverflow("factorial certificate needs cap >= p+q")
    expansion = normal_order([("t", p + q - 1), ("s", 1)], cap)
    tail_ok = all(k >= 1 for (j, k) in expansion.coeffs if j != p + q)
    return expansion.coeffs.get((p + q, 0), ZERO), tail_ok


def remark26_solve(p: int, cap: int = DEFAULT_S_CAP) -> list[Fraction]:
    """Coefficients lambda_j with s^(2p) = sum_j lambda_j s^j t^p s^(p-j).

    Solvability is guaranteed; failure would be an internal invariant
    violation and raises InvariantViolation.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if 2 * p > cap:
        raise TruncationOverflow("remark26 needs cap >= 2p")
    summands = [
        normal_order([("s", j), ("t", p), ("s", p - j)], cap) for j in range(p + 1)
    ]
    columns = [term.coeffs.items() for term in summands]
    solution = linalg.solve_columns(columns, [((2 * p, 0), Fraction(1))])
    if solution is None:
        raise InvariantViolation(
            "s^(2p) is not a combination of s^j t^p s^(p-j); this contradicts "
            "the algebra relation and indicates a bug"
        )
    check = SkewElement({})
    for lam, term in zip(solution, summands):
        check = check + term * lam
    if check != SkewElement({(2 * p, 0): 1}):
        raise InvariantViolation("remark26 solution failed re-verification")
    return solution


def integrate_series(coeffs: Sequence) -> tuple[Fraction, ...]:
    """Integration without constant term, t^k -> t^(k+1)/(k+1), of the series
    sum coeffs[k] t^k known up to degree cap = len(coeffs) - 1, which the
    result keeps.  A nonzero coefficient at the cap would integrate past
    it, which raises TruncationOverflow."""
    cs = [_as_fraction(c) for c in coeffs]
    cap = len(cs) - 1
    if cs[cap]:
        raise TruncationOverflow(f"integrating t^{cap} exceeds cap {cap}")
    return (ZERO, *(c / (k + 1) if c else ZERO for k, c in enumerate(cs[:-1])))
