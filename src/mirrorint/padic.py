"""p-adic valuations and mod p^k reductions of rational series.

The valuation v_p on Q is normalized by v_p(p) = 1, v_p(0) = +infinity.
A rational x is a p-adic integer exactly when v_p(x) >= 0; reduce_series
turns a series with p-integral coefficients into residues mod p^k and
reports the first offending index otherwise.  That failure signal is what
the integrality certificates consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import RationalSeries, SeriesError

INF = math.inf


class NotPrime(ValueError):
    """The modulus handed to a p-adic routine is not prime."""


class NegativeValuation(ValueError):
    """A coefficient fails p-integrality; carries where and how badly."""

    def __init__(self, prime: int, index: int, valuation: int):
        super().__init__(
            f"coefficient of t^{index} has {prime}-adic valuation {valuation}")
        self.prime = prime
        self.index = index
        self.valuation = valuation


def is_prime(n: int) -> bool:
    """Deterministic trial division; intended for the small primes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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


@dataclass(frozen=True)
class PadicValuation:
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


@dataclass(frozen=True)
class PadicSeries:
    """Series reduced mod p^k: residues for exponents 0..order-1."""

    prime: int
    precision: int
    residues: tuple[int, ...]
    order: int

    @property
    def modulus(self) -> int:
        return self.prime ** self.precision


def reduce_series(f: RationalSeries, p: int, k: int = 20) -> PadicSeries:
    """Residues of f mod p^k; raises NegativeValuation at the first
    coefficient that is not a p-adic integer.

    The default precision comfortably exceeds any valuation arising at
    order <= 256 for the primes this package certifies."""
    _check_prime(p)
    if k < 1:
        raise ValueError("precision exponent must be >= 1")
    mod = p ** k
    res = [0] * f.order
    for i, c in enumerate(f.coeffs):
        m = f.val + i
        if m >= f.order:
            break
        if not c:
            continue
        v = _vp(c, p)
        if v < 0:
            raise NegativeValuation(p, m, v)
        den = c.denominator
        res[m] = c.numerator * pow(den, -1, mod) % mod if den != 1 else c.numerator % mod
    return PadicSeries(p, k, tuple(res), f.order)
