"""p-adic valuations and Frobenius substitution."""

import math
import random
from fractions import Fraction

import pytest

from mirrorint import (
    INF,
    NotPrime,
    PrimeTooLarge,
    RationalSeries,
    frobenius_substitute,
    is_prime,
    primes_up_to,
    valuation,
)

from mirrorint.padic import MR_LIMIT

import helpers

F = Fraction


def S(coeffs, order=None, valuation=0):
    return RationalSeries.from_coeffs(coeffs, order=order, valuation=valuation)


class TestValuation:
    def test_positive(self):
        assert valuation(F(9, 7), 3).value == 2

    def test_negative(self):
        assert valuation(F(1, 5), 5).value == -1

    def test_zero_is_infinite(self):
        assert valuation(0, 11).value == INF

    def test_integers_and_integrality(self):
        assert valuation(12, 2).value == 2
        assert valuation(12, 3).value == 1
        assert valuation(12, 5).value == 0
        assert valuation(12, 5).is_integral()
        assert not valuation(F(1, 5), 5).is_integral()
        assert valuation(0, 7).is_integral()

    def test_composite_modulus_rejected(self):
        with pytest.raises(NotPrime):
            valuation(F(1, 2), 6)
        with pytest.raises(NotPrime):
            valuation(3, 1)


class TestPrimeHelpers:
    def test_is_prime_small(self):
        hits = [n for n in range(60) if is_prime(n)]
        assert hits == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
                        31, 37, 41, 43, 47, 53, 59]

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert [n for n in range(10 ** 5) if is_prime(n)] == \
            [n for n in range(10 ** 5) if trial(n)]

    def test_is_prime_rejects_pseudoprimes(self):
        # strong pseudoprime to bases 2, 3, 5, 7; Carmichael numbers
        for n in (3215031751, 561, 41041):
            assert not is_prime(n)

    def test_is_prime_proven_range(self):
        assert is_prime(2 ** 61 - 1)
        assert not is_prime(2 ** 61 + 1)
        assert not is_prime(2 * MR_LIMIT)  # a factor among the bases decides it
        # MR_LIMIT is itself a strong pseudoprime to all 13 bases
        with pytest.raises(PrimeTooLarge, match=str(MR_LIMIT)):
            is_prime(MR_LIMIT)

    def test_primes_up_to_matches_membership(self):
        assert primes_up_to(50) == [n for n in range(51) if is_prime(n)]
        assert primes_up_to(1) == []


class TestFrobeniusSubstitute:
    def test_monomial(self):
        t = RationalSeries.identity(2)
        got = frobenius_substitute(t, 5)
        assert got == RationalSeries.monomial(1, 5, 6)

    def test_quadratic_p2(self):
        got = frobenius_substitute(S([1, 1, 1], order=3), 2)
        assert got == S([1, 0, 1, 0, 1], order=5)

    def test_geometric_p3(self):
        geo = S([1, 1, 1], order=3)
        got = frobenius_substitute(geo, 3)
        assert got.order == 7
        assert got == S([1, 0, 0, 1, 0, 0, 1], order=7)

    def test_max_order_cap(self):
        geo = S([1, 1, 1], order=3)
        got = frobenius_substitute(geo, 3, max_order=5)
        assert got.order == 5
        assert got == S([1, 0, 0, 1, 0], order=5)

    def test_homomorphism_on_random_series(self):
        rng = random.Random(991)
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            n = rng.randint(2, 7)
            a = helpers.rand_series(rng, n)
            b = helpers.rand_series(rng, n)
            fa, fb = frobenius_substitute(a, p), frobenius_substitute(b, p)
            assert frobenius_substitute(a + b, p) == fa + fb
            assert frobenius_substitute(a * b, p) == fa * fb


def test_valuation_axioms_property_suite():
    # >= 1000 cases for each prime in {2, 3, 5, 7, 11, 13}
    assert helpers.run_padic_axioms(1000) >= 6000
