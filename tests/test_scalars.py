from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padic_voa import scalars
from padic_voa.axioms import locality_profile
from padic_voa.fock import HeisenbergState
from padic_voa.kummer import kummer_index, u_state
from padic_voa.qchar import QSeries, eisenstein_G2_star
from padic_voa.scalars import (
    bernoulli,
    c_row,
    is_prime,
    valuation,
)

from oracles import (
    akiyama_tanigawa_bernoulli,
    binomial,
    coprime_divisor_sum_brute,
    divisor_sum_brute,
    partition_counts,
    stirling2,
    valuation_by_loop,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)
small_primes = st.sampled_from([2, 3, 5, 7, 11])


def reduce_mod(q, p, n):
    """Test-local p-adic reduction q = p^v * u: returns (v, u mod p^n), with v
    from `valuation`, so the unit part is a p-adic unit only if v is right."""
    v = valuation(q, p)
    u = Fraction(q) / Fraction(p) ** v
    return v, u.numerator * pow(u.denominator, -1, p**n) % p**n


class TestPadicReduce:
    def test_one_sixth_at_five(self):
        assert reduce_mod(Fraction(1, 6), 5, 4) == (0, pow(6, -1, 5**4))
        assert reduce_mod(Fraction(1, 6), 5, 4) == (0, 521)

    def test_fifty_at_five(self):
        assert reduce_mod(50, 5, 3) == (2, 2)

    def test_negative_denominator_valuation(self):
        v, u = reduce_mod(Fraction(3, 25), 5, 4)
        assert v == -2
        assert u % 5 != 0


class TestPadicArithmetic:
    @given(rationals, rationals, small_primes)
    def test_product_homomorphism_at_unit_valuation(self, a, b, p):
        if a == 0 or b == 0 or valuation(a, p) or valuation(b, p):
            return
        n = 8
        assert valuation(a * b, p) == 0
        assert reduce_mod(a * b, p, n)[1] == reduce_mod(a, p, n)[1] * reduce_mod(b, p, n)[1] % p**n

    @given(rationals, rationals, small_primes)
    def test_product_homomorphism_up_to_precision(self, a, b, p):
        if a == 0 or b == 0:
            return
        n = 8
        (va, ua), (vb, ub) = reduce_mod(a, p, n), reduce_mod(b, p, n)
        assert reduce_mod(a * b, p, n) == (va + vb, ua * ub % p**n)


class TestValuation:
    def test_examples(self):
        assert valuation(Fraction(-81, 2), 3) == 4
        assert valuation(Fraction(2, 81), 3) == -4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            valuation(0, 7)

    @pytest.mark.parametrize("p", [-5, 0, 1, 4, 9])
    def test_rejects_non_prime(self, p):
        # p = 1 used to loop forever: num % 1 == 0 always holds
        with pytest.raises(ValueError):
            valuation(Fraction(3, 4), p)

    @given(
        st.integers(-(10**12), 10**12).filter(bool),
        st.integers(1, 10**12),
        st.integers(0, 600),
        st.integers(0, 600),
        st.sampled_from([2, 3, 5, 7, 101]),
    )
    def test_matches_loop_on_large_powers(self, num, den, up, down, p):
        # multiplicities in the hundreds, as in the Kummer rows at depth
        q = Fraction(num * p**up, den * p**down)
        assert valuation(q, p) == valuation_by_loop(q, p)

    @given(rationals, rationals, small_primes)
    def test_ultrametric(self, a, b, p):
        if a == 0 or b == 0 or a + b == 0:
            return
        assert valuation(a + b, p) >= min(valuation(a, p), valuation(b, p))


def p_adic_rationals(p):
    """Rationals with p-power parts, including zeros and ints past a machine
    word, in the two stored types: a plain int when integral, else a Fraction."""
    unit = st.integers(-(10**30), 10**30)
    return st.builds(
        lambda u, d, up, down: Fraction(u * p**up, d * p**down),
        unit,
        st.integers(1, 10**6),
        st.integers(0, 40),
        st.integers(0, 40),
    ).map(lambda q: q.numerator if q.denominator == 1 else q)


class TestNormExponent:
    @pytest.mark.parametrize("coefficients", [(), (0, Fraction(0)), [0], iter(())])
    def test_zero_is_the_shared_negative_infinity(self, coefficients):
        # _multiplicity(0, p) never returns, so no nonzero coefficient must read -inf first
        assert scalars._norm_exponent(coefficients, 3) is scalars._NEG_INF

    @given(st.data(), st.sampled_from([2, 3, 5, 7, 997]))
    def test_max_of_per_coefficient_exponents(self, data, p):
        cs = data.draw(st.lists(p_adic_rationals(p) | st.just(0), max_size=8))
        expected = max((-valuation(c, p) for c in cs if c), default=-inf)
        assert scalars._norm_exponent(cs, p) == expected

    def test_lcm_of_denominators(self):
        # the first denominator alone would read 0 and 2
        assert scalars._norm_exponent([Fraction(1, 2), Fraction(1, 18)], 3) == 2
        assert scalars._norm_exponent([Fraction(1, 9), Fraction(1, 27)], 3) == 3


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        assert all(bernoulli(k) == 0 for k in range(3, 40, 2))

    def test_against_akiyama_tanigawa(self):
        oracle = akiyama_tanigawa_bernoulli(40)
        assert [bernoulli(k) for k in range(41)] == oracle

    def test_against_akiyama_tanigawa_to_300_in_any_order(self):
        # the memo list is refilled in geometric steps: every order of calls,
        # and a list cut back to B_0, must give the same values
        oracle = akiyama_tanigawa_bernoulli(300)
        del scalars._BERNOULLI[1:]
        assert [bernoulli(k) for k in range(301)] == oracle
        del scalars._BERNOULLI[1:]
        assert [bernoulli(k) for k in range(300, -1, -1)] == oracle[::-1]
        del scalars._BERNOULLI[1:]
        assert bernoulli(296) == oracle[296]
        assert [bernoulli(k) for k in range(301)] == oracle

    def test_defining_recurrence(self):
        for k in range(1, 31):
            assert sum(comb(k + 1, j) * bernoulli(j) for j in range(k + 1)) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestCCoefficient:
    def test_vanishing_above_r(self):
        # c(r, m) = 0 for m >= r: the row stops at m = r - 1
        for r in range(1, 13):
            assert len(c_row(r)) == r

    def test_small_values(self):
        assert c_row(3) == (1, 3, 2)

    def test_matches_stirling_product(self):
        for r in range(1, 61):
            assert list(c_row(r)) == [factorial(m) * stirling2(r, m + 1) for m in range(r)]
            assert all(stirling2(r, m + 1) == 0 for m in range(r, r + 3))

    def test_row_cache_is_bounded(self):
        # no memo of its own: each Kummer member, whose terms are the row, is built once by kummer._member
        assert isinstance(c_row(7), tuple)

    def test_top_coefficient_is_factorial(self):
        for r in range(1, 10):
            assert c_row(r)[r - 1] == factorial(r - 1)

    def test_rejects_bad_indices(self):
        for r in (0, -1):
            with pytest.raises(ValueError):
                c_row(r)


class TestStirling:
    def test_explicit_sum(self):
        # independent route: k! S(n, k) = sum_j (-1)^(k-j) C(k, j) j^n
        for n in range(11):
            for k in range(1, n + 1):
                explicit = sum(
                    (-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1)
                )
                assert factorial(k) * stirling2(n, k) == explicit


class TestPartitionCounts:
    def test_pentagonal_recurrence_matches_series_inverse(self):
        for n_max in (0, 1, 2, 5, 60):
            assert scalars._partition_counts(n_max) == partition_counts(n_max)


class TestDivisorSums:
    def test_power_weights(self):
        for n in (0, 1, 2, 12, 60):
            for k in (0, 1, 3, 5):
                sums = scalars._divisor_sums([a**k for a in range(1, n + 1)])
                assert sums == [0] + [divisor_sum_brute(j, k) for j in range(1, n + 1)]

    def test_zero_weights_skipped(self):
        # f(a) = a off the multiples of p, so s(j) sums the divisors of j prime to p
        for p in (2, 3, 5, 7):
            sums = scalars._divisor_sums([a if a % p else 0 for a in range(1, 61)])
            assert sums == [0] + [coprime_divisor_sum_brute(j, p) for j in range(1, 61)]


class TestGenBinomial:
    def test_examples(self):
        assert binomial(-1, 3) == -1
        assert binomial(-2, 2) == 3
        assert binomial(4, 2) == 6

    @given(st.integers(0, 30), st.integers(0, 10))
    def test_matches_comb_for_nonnegative(self, t, i):
        assert binomial(t, i) == comb(t, i)

    @given(st.integers(-15, 15), st.integers(1, 8))
    def test_pascal_identity(self, t, i):
        assert binomial(t, i) == binomial(t - 1, i) + binomial(t - 1, i - 1)

    @given(st.integers(-12, -1), st.integers(0, 8))
    def test_negative_reflection(self, t, i):
        assert binomial(t, i) == (-1) ** i * comb(-t + i - 1, i)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-5)


class TestPrimeRules:
    """Every p-adic entry point refuses a p with one of the two messages of
    `scalars._require_prime` and `scalars._require_odd_prime`."""

    def test_prime_required(self):
        h = HeisenbergState.monomial([1])
        for call in (
            lambda: valuation(Fraction(1, 2), 4),
            lambda: h.r_norm_exponent(4, 1),
            lambda: QSeries([1]).norm_exponents(4),
            lambda: locality_profile(h, h, HeisenbergState.vacuum(), 1, prime=4),
        ):
            with pytest.raises(ValueError, match="^prime required, got 4$"):
                call()

    @pytest.mark.parametrize("p", [2, 9])
    def test_odd_prime_required(self, p):
        for call in (lambda: eisenstein_G2_star(p, 3), lambda: u_state(3, p), lambda: kummer_index(p, 0)):
            with pytest.raises(ValueError, match=f"^p must be an odd prime, got {p}$"):
                call()


class TestIsPrime:
    def test_matches_trial_division_below_ten_to_the_five(self):
        def by_trial_division(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if by_trial_division(n)]

    def test_large_primes(self):
        assert is_prime(2**61 - 1) and is_prime(2**64 - 59) and is_prime(10**18 + 3)

    def test_pseudoprimes_rejected(self):
        # 561 and 5148001 = 41 * 241 * 521 are Carmichael numbers, the second with
        # no factor among the bases; 3215031751 is a strong pseudoprime to
        # bases 2, 3, 5 and 7, and 3825123056546413051 to every base up to 31
        for n in (561, 5148001, 3215031751, 3825123056546413051):
            assert not is_prime(n), n

    def test_above_the_exact_range_raises(self):
        assert not is_prime(scalars._MR_BOUND - 2)  # even
        with pytest.raises(ValueError, match="too large"):
            is_prime(scalars._MR_BOUND)
