"""Yukawa couplings and instanton numbers for rank-4 MUM operators.

In the algebraic coordinate the normalized coupling W satisfies the first
order equation delta(log W) = -(1/2) a_3/a_4, fixed by W(0) = n_0.  Pushed
to the canonical coordinate q and divided by the square of the holomorphic
period,

    Y(q) = (W/y_0^2)(t(q)) * ((q/t(q)) dt/dq)^3 = [W/(y_0^2 dlog_q^3)](t(q)),

which carries the Lambert expansion

    Y(q) = n_0 + sum_{d>=1} n_d d^3 q^d / (1 - q^d),

whose coefficients n_d are the instanton numbers.  Expanding the geometric
series, the q^m coefficient of Y is c_m = sum_{d | m} n_d d^3 for m >= 1,
so n_m is recovered exactly from the bottom up:

    n_m = (c_m - sum_{d | m, d < m} n_d d^3) / m^3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .picard_fuchs import MirrorMap, PFOperator
from .series import RationalSeries, exp_series

_ZERO = Fraction(0)


class NotRankFour(ValueError):
    """The coupling normalization here is specific to rank 4."""


class InsufficientOrder(ValueError):
    """Asked for instanton numbers beyond the computed truncation."""


def yukawa_t(op: PFOperator, n0, order: int) -> RationalSeries:
    """Solve delta(log W) = -(1/2) a_3/a_4 with W(0) = n_0.

    n_0 = 0 gives the zero series (nothing to normalize).
    """
    if op.rank != 4:
        raise NotRankFour(f"operator has rank {op.rank}")
    n0 = Fraction(n0)
    a3 = op.coeff_series(3, order + op.t_degree + 1)
    a4 = op.coeff_series(4, order + op.t_degree + 1)
    rhs = (a3 * a4.invert() * Fraction(-1, 2)).truncate(order)
    if n0 == 0:
        return RationalSeries.zero(order)
    return exp_series(rhs.delta_antiderivative()) * n0


def yukawa_q(w_t: RationalSeries, y0: RationalSeries, mm: MirrorMap,
             order: int) -> RationalSeries:
    """Transport W to the canonical coordinate.

    (q/t) dt/dq = 1/delta(log q) at t = t(q), so the whole transform is the
    single composition Y(q) = [W / (y_0^2 dlog_q^3)](t(q)).
    """
    integrand = w_t * (y0.pow_int(2) * mm.dlog_q.pow_int(3)).invert()
    return integrand.truncate(order).compose(mm.t_of_q.truncate(order + 1))


class YukawaData(NamedTuple):
    """Coupling in both coordinates, plus the declared normalization."""

    w_t: RationalSeries
    y_q: RationalSeries
    n0: Fraction


class InstantonSeries(NamedTuple):
    """Instanton numbers n_1..n_D extracted from a coupling of given order.

    numbers[d] is n_d (numbers[0] is the constant n_0); values beyond the
    source truncation are never reported.
    """

    numbers: tuple[Fraction, ...]
    source_order: int

    @property
    def max_degree(self) -> int:
        return len(self.numbers) - 1

    def n(self, d: int) -> Fraction:
        if d > self.max_degree:
            raise InsufficientOrder(f"n_{d} beyond computed degree {self.max_degree}")
        return self.numbers[d]


def lambert_expand(numbers, order: int) -> RationalSeries:
    """Series of n_0 + sum_d n_d d^3 q^d/(1-q^d) at the given order."""
    ns = [Fraction(x) for x in numbers]
    cs = [_ZERO] * order
    if order > 0:
        cs[0] = ns[0] if ns else _ZERO
    for d in range(1, len(ns)):
        nd = ns[d]
        if not nd or d >= order:
            continue
        step = nd * d ** 3
        for m in range(d, order, d):
            cs[m] += step
    return RationalSeries.from_coeffs(cs, order=order)


def instanton_extract(y_q: RationalSeries, max_degree: int) -> InstantonSeries:
    """Invert the Lambert expansion, n_d for d <= max_degree.

    Sweeping d upwards, c_d has lost every n_e e^3 with e a proper divisor
    of d by the time it is reached, so it equals n_d d^3; it is then
    subtracted from the coefficients at the proper multiples of d.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if y_q.order <= max_degree:
        raise InsufficientOrder(
            f"coupling order {y_q.order} determines n_d only for d < {y_q.order}")
    cs = y_q.coeff_list(max_degree + 1)
    for d in range(1, max_degree + 1):
        for m in range(2 * d, max_degree + 1, d):
            cs[m] -= cs[d]
    numbers = [cs[0]] + [cs[m] / m ** 3 for m in range(1, max_degree + 1)]
    return InstantonSeries(numbers=tuple(numbers), source_order=y_q.order)
