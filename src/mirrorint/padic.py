"""p-adic valuations and the Frobenius substitution t -> t^p on rational series.

The valuation v_p on Q is normalized by v_p(p) = 1, v_p(0) = +infinity.
A rational x is a p-adic integer exactly when v_p(x) >= 0.  The
certificates read coefficient valuations through _vp and compare a series
with its Frobenius image f(t^p); both are exact on Fraction coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .series import RationalSeries

INF = math.inf


class NotPrime(ValueError):
    """The modulus handed to a p-adic routine is not prime."""


class PrimeTooLarge(ValueError):
    """Primality of a candidate beyond the proven Miller-Rabin range."""


# Sorenson-Webster (2017): strong probable primes to the 13 bases below are
# prime for every n < MR_LIMIT.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 prime bases.

    Proven for n < MR_LIMIT; a larger n without a factor among the bases
    raises PrimeTooLarge instead of guessing.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # a composite this small has a factor among the bases
        return True
    if n >= MR_LIMIT:
        raise PrimeTooLarge(
            f"primality of {n} is not decided: it is at or above {MR_LIMIT}, "
            "the limit of the deterministic Miller-Rabin test")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(bound: int) -> list[int]:
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, bound + 1) if sieve[p]]


def _check_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def _vp_int(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _vp(x, p: int):
    """Bare valuation value, assuming p prime; INF for 0."""
    if isinstance(x, int):
        if x == 0:
            return INF
        return _vp_int(x, p)
    if x.numerator == 0:
        return INF
    return _vp_int(x.numerator, p) - _vp_int(x.denominator, p)


class PadicValuation(NamedTuple):
    """v_p(x); value is an int, or math.inf for x = 0."""

    prime: int
    value: int | float

    def is_integral(self) -> bool:
        return self.value >= 0


def valuation(x, p: int) -> PadicValuation:
    """p-adic valuation of a rational number."""
    _check_prime(p)
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"not a rational: {x!r}")
    return PadicValuation(p, _vp(x, p))


def frobenius_substitute(f: RationalSeries, p: int,
                         max_order: int | None = None) -> RationalSeries:
    """f(t^p).

    Exponents are multiplied by p and the gaps are exact zeros, so the
    guaranteed order becomes p*(f.order - 1) + 1, optionally capped by
    max_order.  p only needs to be a positive integer here; primality
    matters to the callers, not to the substitution.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"substitution exponent must be a positive integer: {p}")
    order = p * (f.order - 1) + 1 if f.order > 0 else 0
    if max_order is not None:
        order = min(order, max_order)
    if f.is_zero():
        return RationalSeries.zero(order)
    cs = [Fraction(0)] * (order - p * f.val if order > p * f.val else 0)
    for i, c in enumerate(f.coeffs):
        m = p * (f.val + i) - p * f.val
        if m >= len(cs):
            break
        cs[m] = c
    return RationalSeries.from_coeffs(cs, order=order, valuation=p * f.val)
