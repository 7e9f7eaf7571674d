"""Skew algebra of t and s with [t, s] = s^2: rewriting and identities."""

import math
import random
from fractions import Fraction as F

import pytest

from brieskorn import microdiff
from brieskorn.microdiff import (
    SkewElement,
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
        # refusing any s-power above the cap (the letter s^j's own, too) as
        # soon as it appears
        def rewrite(k, j, cap):
            if j > cap:
                raise TruncationOverflow(f"s-power {j} exceeds cap {cap}")
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

        for k in range(12):
            for j in range(12):
                assert microdiff._t_pow_times_s_pow(k, j) == rewrite(k, j, k + j)
        # normal_order refuses t^k s^j exactly when the rewrite passes the cap,
        # naming the top s-power of the product, and is the rewrite otherwise
        for cap in (0, 1, 3, 8, 64):
            for k in range(12):
                for j in range(12):
                    try:
                        expect = rewrite(k, j, cap)
                    except TruncationOverflow:
                        top = j if j > cap else j + k
                        with pytest.raises(TruncationOverflow, match=f"^s-power {top} exceeds cap {cap}$"):
                            normal_order([("t", k), ("s", j)], cap)
                    else:
                        assert normal_order([("t", k), ("s", j)], cap) == SkewElement(expect)

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

    @pytest.mark.parametrize(
        "word, cap, top",
        [
            ([("t", 1), ("s", 1)], 0, 1),  # the letter s passes cap 0 on its own
            ([("t", 1), ("s", 3)], 3, 4),
            ([("s", 2), ("s", 3)], 4, 5),
            ([("s", 1), ("t", 2), ("s", 2)], 4, 5),
        ],
    )
    def test_overflow_names_the_s_power(self, word, cap, top):
        with pytest.raises(TruncationOverflow, match=f"^s-power {top} exceeds cap {cap}$"):
            normal_order(word, cap)

    def test_the_cap_is_inclusive(self):
        assert max(normal_order([("s", 1), ("t", 2), ("s", 2)], cap=5).coeffs) == (5, 0)

    def test_products_are_never_truncated(self):
        # the cap belongs to normal_order, not to the elements it returns
        s40 = normal_order([("s", 40)])
        assert s40 * s40 == SkewElement({(80, 0): 1})
        assert normal_order([("t", 1)]) * normal_order([("s", 64)]) == SkewElement({(64, 1): 1, (65, 0): 64})

    def test_unknown_letters_and_negative_powers(self):
        with pytest.raises(ValueError, match="unknown generator 'u'"):
            normal_order([("u", 1)])
        with pytest.raises(ValueError, match="non-negative"):
            normal_order([("t", -1)])
        assert normal_order([("u", 0)]) == SkewElement({(0, 0): 1})

    def test_float_coefficients_are_refused(self):
        for c in (0.5, "1/2"):
            with pytest.raises(TypeError):
                SkewElement({(0, 0): c})
        with pytest.raises(TypeError):
            normal_order([("s", 1)]) * 0.5


class TestFactorialCertificate:
    def test_examples(self):
        assert lemma_a_certificate(1, 1)[0] == 1
        assert lemma_a_certificate(2, 1)[0] == 2

    def test_exhaustive_up_to_eight(self):
        for total in range(2, 9):
            for p in range(1, total):
                coefficient, tail_ok = lemma_a_certificate(p, total - p)
                assert tail_ok
                assert coefficient == math.factorial(total - 1)

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
        one = (1,) + (0,) * 10  # known up to t^10
        t = integrate_series(one)
        assert t == (0, 1) + (0,) * 9
        assert all(type(c) is F for c in t)
        t2 = integrate_series(t)
        assert t2[2] == F(1, 2) and len(t2) == 11

    def test_factorial_chain(self):
        u = (1,) + (0,) * 60
        for k in range(1, 51):
            u = integrate_series(u)
            assert u[k] == F(1, math.factorial(k))

    def test_overflow_raises(self):
        # the t^4 term would integrate to t^5, past the cap
        with pytest.raises(TruncationOverflow, match="integrating t\\^4 exceeds cap 4"):
            integrate_series([1] * 5)
        assert integrate_series([1] * 4 + [0])[4] == F(1, 4)

    def test_float_coefficients_are_refused(self):
        with pytest.raises(TypeError):
            integrate_series((0.1, 0, 0))
        with pytest.raises(TypeError):
            integrate_series((1, 0, 0.0))
