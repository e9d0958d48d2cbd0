"""p-adic integrality certificates for mirror maps and instanton expansions.

Three checks, one prime at a time, all decided by exact arithmetic on the
first `order` coefficients.

Dwork: the unit u = q/t has log u = L = g_1/g_0, which the mirror map holds
as the delta-antiderivative of dlog_q - 1.  The witness is
h = (L(t^p) - p L)/p = (1/p) log(u(t^p)/u(t)^p).  By Dwork's lemma u lies in
Z_p[[t]]* exactly when h is p-integral; the first coefficient of p h with
v_p < 1 is also that of exp(p h) - 1, with the same valuation.  L, and the
identity delta(u) = u delta(L) that ties it to q(t), are per mirror map.

KSV (Kontsevich-Schwarz-Vologodsky): let b_m be the q^m coefficient of
Y(q) - Y(q^p).  The criterion requires v_p(b_m) >= 3 v_p(m) for all m,
which happens exactly when all instanton numbers n_d (d in the checked
range) are p-adic integers; the witness is psi = sum b_m q^m / m^3, a
p-integral solution of delta^3 psi = Y(q) - Y(q^p).

Gauge: the same congruences seen as p-integrality of a Frobenius gauge
transformation.  The entries

    m23 = sum b_m q^m / m,   m13 = -sum b_m q^m / m^2,   m14 = -2 sum b_m q^m / m^3

satisfy delta(m23) = Y - Y(q^p), m23 = -delta(m13), delta(m14) = 2 m13 and
Y(q^p) - Y(q) = (1/2) delta^3(m14), so psi = -(1/2) m14.  All three series
must be p-integral.  A report builds b and the chain m23, m13, m14 once
per prime.  delta undoes delta^-1 exactly on b, which has no constant term,
so these relations hold by construction and are not re-checked.

A report aggregates the certificates over every admissible prime (p larger
than the rank, p not dividing the observed denominator support) up to a
bound, and states the verdict together with its truncation caveats.  At a
tested prime u = q/t already lies in 1 + t Z_p[[t]], so a verified Dwork
witness always passes there: the report's Dwork verdict restates the
support skip.  It fails at a prime of the support, which dwork_certify
accepts, at the index where p first enters the denominators of u.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .padic import _check_prime, _vp, frobenius_substitute, primes_up_to
from .picard_fuchs import MirrorMap
from .series import RationalSeries
from .yukawa import InstantonSeries


class FailureLocus(NamedTuple):
    """First offending coefficient index and its p-adic valuation."""

    index: int
    valuation: int


class DworkCertificate(NamedTuple):
    prime: int
    order: int
    witness: RationalSeries
    verdict: bool
    failure: Optional[FailureLocus]
    witness_verified: bool

    kind = "dwork"


class KSVCertificate(NamedTuple):
    prime: int
    order: int
    witness: RationalSeries
    verdict: bool
    failure: Optional[FailureLocus]
    witness_verified: bool

    kind = "ksv"


class SeriesVerdict(NamedTuple):
    name: str
    passed: bool
    failure: Optional[FailureLocus]


class GaugeCertificate(NamedTuple):
    prime: int
    order: int
    m13: RationalSeries
    m23: RationalSeries
    m14: RationalSeries
    checks: tuple[SeriesVerdict, ...]
    verdict: bool
    failure: Optional[FailureLocus]
    relations_verified: bool

    kind = "gauge"


class OrderMismatch(ValueError):
    """Certificate inputs were computed at incompatible truncation orders."""


def _first_violation(f: RationalSeries, p: int, floor: int) -> Optional[FailureLocus]:
    """First index m with v_p(coefficient of t^m) < floor."""
    for i, c in enumerate(f.coeffs):
        if c:
            v = _vp(c, p)
            if v < floor:
                return FailureLocus(index=f.val + i, valuation=v)
    return None


def _log_unit(mm: MirrorMap, order: int) -> tuple[RationalSeries, bool]:
    """L = log(q/t) at the order, and whether delta(u) = u delta(L) holds."""
    log_u = (mm.dlog_q - 1).delta_antiderivative().truncate(order)
    have = min(mm.unit_part.order, log_u.order)
    if have < order:
        raise OrderMismatch(
            f"mirror map order {have} below requested order {order}")
    u = mm.unit_part.truncate(order)
    return log_u, u.delta().agrees_with(u * (mm.dlog_q - 1))


def _dwork(log_u: RationalSeries, verified: bool, p: int, order: int) -> DworkCertificate:
    p_h = frobenius_substitute(log_u, p, max_order=order) - p * log_u
    failure = _first_violation(p_h, p, 1)
    return DworkCertificate(prime=p, order=p_h.order, witness=p_h * Fraction(1, p),
                            verdict=failure is None, failure=failure, witness_verified=verified)


def dwork_certify(mm: MirrorMap, p: int, order: int) -> DworkCertificate:
    """Check u = q/t against the Dwork congruence u(t^p) = u(t)^p mod p."""
    _check_prime(p)
    return _dwork(*_log_unit(mm, order), p, order)


def _frobenius_difference(y_q: RationalSeries, p: int, order: int) -> RationalSeries:
    if y_q.order < order:
        raise OrderMismatch(
            f"coupling order {y_q.order} below requested order {order}")
    y = y_q.truncate(order)
    return y - frobenius_substitute(y, p, max_order=order)


def _ksv(psi: RationalSeries, p: int) -> KSVCertificate:
    failure = _first_violation(psi, p, 0)
    # delta^3 psi = b by construction: delta undoes delta^-1 on b (no constant term)
    return KSVCertificate(prime=p, order=psi.order, witness=psi,
                          verdict=failure is None, failure=failure,
                          witness_verified=True)


def ksv_certify(y_q: RationalSeries, p: int, order: int) -> KSVCertificate:
    """Check v_p(b_m) >= 3 v_p(m) for b = Y(q) - Y(q^p)."""
    _check_prime(p)
    b = _frobenius_difference(y_q, p, order)
    return _ksv(b.delta_antiderivative().delta_antiderivative().delta_antiderivative(), p)


def _gauge(b: RationalSeries, p: int) -> GaugeCertificate:
    m23 = b.delta_antiderivative()
    m13 = -m23.delta_antiderivative()
    m14 = 2 * m13.delta_antiderivative()
    checks = []
    first = None
    for name, s in (("m13", m13), ("m23", m23), ("m14", m14)):
        loc = _first_violation(s, p, 0)
        checks.append(SeriesVerdict(name=name, passed=loc is None, failure=loc))
        if loc is not None and first is None:
            first = loc
    # the four relations hold by construction, as delta^3 psi = b does for KSV
    return GaugeCertificate(prime=p, order=b.order, m13=m13, m23=m23, m14=m14,
                            checks=tuple(checks),
                            verdict=all(c.passed for c in checks),
                            failure=first, relations_verified=True)


def gauge_certify(y_q: RationalSeries, p: int, order: int) -> GaugeCertificate:
    """Check p-integrality of the Frobenius gauge entries m13, m23, m14."""
    _check_prime(p)
    return _gauge(_frobenius_difference(y_q, p, order), p)


def denominator_support(values) -> tuple[int, ...]:
    """Sorted primes dividing any denominator among the given rationals.

    Denominators arising from series recursions factor over small primes;
    plain trial division is exact and fast for them.
    """
    seen: set[int] = set()
    for x in values:
        den = Fraction(x).denominator
        d = 2
        while d * d <= den:
            if den % d == 0:
                seen.add(d)
                while den % d == 0:
                    den //= d
            d += 1 if d == 2 else 2
        if den > 1:
            seen.add(den)
    return tuple(sorted(seen))


class PrimeCertificates(NamedTuple):
    prime: int
    dwork: DworkCertificate
    ksv: KSVCertificate
    gauge: GaugeCertificate

    @property
    def all_pass(self) -> bool:
        """Every verdict passed and the Dwork log-unit identity held."""
        return (self.dwork.verdict and self.dwork.witness_verified
                and self.ksv.verdict and self.ksv.witness_verified
                and self.gauge.verdict and self.gauge.relations_verified)


class IntegralityReport(NamedTuple):
    """Aggregated certificate verdicts with the observed denominator data.

    consistent means every admissible tested prime passed all three
    certificates and the mirror map's log-unit identity held; the guarantee
    is for the truncated range only, which the notes spell out.
    """

    operator_name: str
    rank: int
    order: int
    max_degree: int
    instantons: InstantonSeries
    q_support: tuple[int, ...]
    instanton_support: tuple[int, ...]
    n_observed: int
    prime_bound: Optional[int]
    primes_tested: tuple[int, ...]
    primes_skipped: tuple[tuple[int, str], ...]
    certificates: tuple[PrimeCertificates, ...]
    consistent: bool
    notes: tuple[str, ...] = ()


_REPORT_NOTES = (
    "certified range: statements cover coefficients below the working order "
    "and instanton numbers up to the tabulated degree only",
    "unit normalization: roots of unity of order p-1 rescale the coordinate "
    "without affecting integrality; the q'(0) = 1 gauge fixes the choice",
    "admissibility: certificates run only for primes exceeding the rank and "
    "prime to the observed denominator support",
)


def n_integrality_report(*, operator_name: str, rank: int, order: int,
                         mm: MirrorMap, y_q: RationalSeries,
                         instantons: InstantonSeries,
                         prime_bound: Optional[int] = None,
                         primes: Optional[list[int]] = None) -> IntegralityReport:
    """Run dwork/ksv/gauge for every admissible prime and aggregate.

    Admissible: p > rank and p not in the denominator support observed in
    the mirror map coefficients and the tabulated instanton numbers.  The
    candidate set is primes_up_to(prime_bound) unless an explicit list is
    given.
    """
    if prime_bound is None and primes is None:
        raise ValueError("need a prime bound or an explicit prime list")
    q_support = denominator_support(mm.q_of_t.coeffs)
    nd_support = denominator_support(instantons.numbers)
    support = sorted(set(q_support) | set(nd_support))
    n_observed = 1
    for p in support:
        n_observed *= p
    if primes is None:
        candidates = primes_up_to(prime_bound)
    else:
        candidates = sorted(set(primes))
    tested: list[int] = []
    skipped: list[tuple[int, str]] = []
    for p in candidates:
        _check_prime(p)
        if p <= rank:
            skipped.append((p, f"prime {p} does not exceed the rank {rank}"))
            continue
        if p in support:
            skipped.append((p, f"prime {p} divides the denominator support"))
            continue
        tested.append(p)
    log_u, verified = _log_unit(mm, order) if tested else (None, False)
    certs = []
    for p in tested:
        gauge = _gauge(_frobenius_difference(y_q, p, order), p)
        ksv = _ksv(gauge.m14 * Fraction(-1, 2), p)
        certs.append(PrimeCertificates(prime=p, dwork=_dwork(log_u, verified, p, order),
                                       ksv=ksv, gauge=gauge))
    return IntegralityReport(
        operator_name=operator_name,
        rank=rank,
        order=order,
        max_degree=instantons.max_degree,
        instantons=instantons,
        q_support=tuple(q_support),
        instanton_support=tuple(nd_support),
        n_observed=n_observed,
        prime_bound=prime_bound,
        primes_tested=tuple(tested),
        primes_skipped=tuple(skipped),
        certificates=tuple(certs),
        consistent=all(c.all_pass for c in certs),
        notes=_REPORT_NOTES,
    )
