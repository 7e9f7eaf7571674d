"""Skew algebra of t and s with [t, s] = s^2: rewriting and identities."""

import math
import random
from fractions import Fraction as F

import pytest

from brieskorn import microdiff
from brieskorn.microdiff import (
    SkewElement,
    TruncatedSeries,
    TruncationOverflow,
    integrate_series,
    lemma_a_certificate,
    normal_order,
    remark26_solve,
)


def rising(j, i):
    out = 1
    for k in range(i):
        out *= j + k
    return out


class TestNormalOrder:
    def test_defining_relation(self):
        assert normal_order([("t", 1), ("s", 1)]) == SkewElement({(1, 1): 1, (2, 0): 1})

    def test_ts2(self):
        assert normal_order([("t", 1), ("s", 2)]) == SkewElement({(2, 1): 1, (3, 0): 2})

    def test_t2s(self):
        expect = SkewElement({(1, 2): 1, (2, 1): 2, (3, 0): 2})
        assert normal_order([("t", 2), ("s", 1)]) == expect

    def test_closed_form_oracle(self):
        # independent oracle: t^k s^j = sum_i C(k,i) j(j+1)...(j+i-1) s^(j+i) t^(k-i)
        rng = random.Random(41)
        for _ in range(60):
            k = rng.randint(0, 7)
            j = rng.randint(0, 7)
            got = normal_order([("t", k), ("s", j)])
            expect = {}
            if j == 0:
                expect[(0, k)] = F(1)
            else:
                for i in range(k + 1):
                    expect[(j + i, k - i)] = F(math.comb(k, i) * rising(j, i))
            assert got == SkewElement(expect)

    def test_closed_form_matches_the_literal_rewrite(self):
        # reference: rewrite t s^a -> s^a t + a s^(a+1) one t at a time,
        # refusing any s-power above the cap as soon as it appears
        def rewrite(k, j, cap):
            if k == 0 or j == 0:
                return {(j, k): 1}
            terms = {(j, 0): 1}
            for _ in range(k):
                nxt = {}
                for (a, kk), c in terms.items():
                    for key, cc in (((a, kk + 1), c), ((a + 1, kk), c * a)):
                        if key[0] > cap:
                            raise TruncationOverflow(f"s-power {key[0]} exceeds cap {cap}")
                        nxt[key] = nxt.get(key, 0) + cc
                terms = {key: v for key, v in nxt.items() if v}
            return terms

        for cap in (0, 1, 3, 8, 64):
            for k in range(12):
                for j in range(12):
                    try:
                        expect = rewrite(k, j, cap)
                    except TruncationOverflow:
                        with pytest.raises(TruncationOverflow, match=f"exceeds cap {cap}"):
                            microdiff._t_pow_times_s_pow(k, j, cap)
                    else:
                        assert microdiff._t_pow_times_s_pow(k, j, cap) == expect

    def test_commutator_t_s_power(self):
        for j in range(1, 21):
            lhs = normal_order([("t", 1), ("s", j)]) - normal_order([("s", j), ("t", 1)])
            assert lhs == SkewElement({(j + 1, 0): F(j)})

    def test_rewrite_confluence_random_words(self):
        # associativity consistency: reducing (uv)w and u(vw) agree
        rng = random.Random(42)
        gens = ["t", "s"]
        for _ in range(500):
            word = [(rng.choice(gens), rng.randint(0, 2)) for _ in range(rng.randint(0, 8))]
            cut1 = rng.randint(0, len(word))
            cut2 = rng.randint(cut1, len(word))
            u, v, w = word[:cut1], word[cut1:cut2], word[cut2:]
            a = (normal_order(u) * normal_order(v)) * normal_order(w)
            b = normal_order(u) * (normal_order(v) * normal_order(w))
            assert a == b == normal_order(word)

    def test_truncation_overflow(self):
        with pytest.raises(TruncationOverflow):
            normal_order([("s", 5)], cap=4)


class TestFactorialCertificate:
    def test_examples(self):
        assert lemma_a_certificate(1, 1).pure_s_coefficient == 1
        assert lemma_a_certificate(2, 1).pure_s_coefficient == 2

    def test_exhaustive_up_to_eight(self):
        for total in range(2, 9):
            for p in range(1, total):
                rep = lemma_a_certificate(p, total - p)
                assert rep.matches
                assert rep.pure_s_coefficient == math.factorial(total - 1)

    def test_cap_guard(self):
        with pytest.raises(TruncationOverflow):
            lemma_a_certificate(3, 3, cap=4)


class TestRemark26:
    def test_p1_defining_relation(self):
        assert remark26_solve(1) == [F(1), F(-1)]

    def test_solvable_up_to_five(self):
        for p in range(1, 6):
            lam = remark26_solve(p)
            assert len(lam) == p + 1
            # re-verify the identity independently
            total = SkewElement({})
            for j, coeff in enumerate(lam):
                total = total + normal_order([("s", j), ("t", p), ("s", p - j)]) * coeff
            assert total == SkewElement({(2 * p, 0): F(1)})

    def test_statement_a_realized(self):
        # in any module killed by t^p, s^(2p) acts by zero: every summand
        # s^j t^p s^(p-j) carries the full power t^p in the middle
        for p in range(1, 6):
            lam = remark26_solve(p)
            assert len(lam) == p + 1  # summands are s^j t^p s^(p-j) by construction


class TestIntegration:
    def test_basic(self):
        one = TruncatedSeries.one(cap=10)
        t = integrate_series(one)
        assert t.coefficient(1) == 1 and t.coefficient(0) == 0
        t2 = integrate_series(t)
        assert t2.coefficient(2) == F(1, 2)

    def test_factorial_chain(self):
        u = TruncatedSeries.one(cap=60)
        for k in range(1, 51):
            u = integrate_series(u)
            assert u.coefficient(k) == F(1, math.factorial(k))

    def test_overflow_raises(self):
        # the t^4 term would integrate to t^5, past the cap
        with pytest.raises(TruncationOverflow, match="exceeds cap 4"):
            integrate_series(TruncatedSeries([1] * 5, cap=4))
        assert integrate_series(TruncatedSeries([1] * 4, cap=4)).coefficient(4) == F(1, 4)
