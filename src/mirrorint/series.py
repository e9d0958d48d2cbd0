"""Truncated power series with exact rational coefficients.

Two value types:

  RationalSeries  f = sum_{m >= val} c_m t^m, known for m < order
  LogSeries       F = sum_{j <= D} f_j(t) (log t)^j with RationalSeries parts

A RationalSeries carries a guaranteed truncation order: coefficients are
stored densely for exponents val .. order-1 and nothing is claimed beyond.
Every operation propagates the smallest order its inputs can justify, so a
coefficient can be read only when it is actually determined:

  a + b            min(a.order, b.order)
  a * b            min(a.order + b.val, a.val + b.order)
  invert(a)        a.order                    (a a unit)
  compose(f, g)    min(g.val * f.order, g.order + max(f.val - 1, 0) * g.val)
  reversion(f)     f.order
  exp, log, delta  order preserved

The zero series is represented with an empty coefficient list and val set
equal to order ("no nonzero coefficient below the truncation").  Instances
are immutable; all arithmetic returns new objects.

compose and reversion run multimodularly on every input: the work runs
modulo the largest primes below 2^62 (a series product is one Python int
product of Kronecker-packed residues; compose is Horner, reversion is
Lagrange inversion), and each coefficient is rebuilt by CRT in the
symmetric range.  A leading coefficient c of the inner series (the series
itself, for reversion) is scaled out exactly first, so the kernel sees
V = t + O(t^2) (or an inner series of valuation >= 2): f^-1(q) =
(f/c)^-1(q/c) and outer(c V) = sum_k (outer_k c^k) V^k.

Rational coefficients are cleared before any residue is taken.  The outer
series is scaled by its common denominator.  An output coefficient is an
integer polynomial in v_j = [t^j](q/(c t)) (reversion) or a sum over k of
F_k = outer_k c^k times one in v_j = [t^(j+1)] V (compose), weighted
homogeneous of weight at most n - 2, or n - 1 - k for the term of F_k, with
v_j of weight j.  So its denominator divides D(n - 2), or
lcm_k den(F_k) D(n - 1 - k), for

  D(0) = 1,   D(s) = lcm_{1 <= j <= s} den(v_j) D(s - j),

and the kernel rebuilds the integers D * coefficient.  Primes dividing an
input denominator are skipped.  Their count comes, before any residue is
taken, from D times a majorant bound computed exactly over the integers
from the ceilings of the coefficients' absolute values; the primes'
product exceeds twice it:

  compose      |outer_k| <= A a^k, |V_j| <= b^(j-1)     |[t^m]| <= A a (a+b)^(m-1)
  reversion    q = t u(t), |u_j| <= R^j                 |t_m| <= s_m R^(m-1)

with a, b, R powers of two read off the inputs and s_m the little
Schroeder numbers.  On integer inputs D = 1 and no prime is skipped.  The
one function, _multimodular, then checks the CRT result at the next unused
prime and raises CRTMismatch where they disagree, so a bound or a D too
small cannot return wrong coefficients.  The Fraction Horner and Newton
references the tests compare against live in tests/helpers.py.

Operators t*d/dt (delta) and log t interact by delta(log t) = 1, which is
what makes LogSeries closed under delta.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, repeat
from typing import Callable, Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SeriesError(ValueError):
    """Base class for series arithmetic failures."""


class ZeroLeadingCoefficient(SeriesError):
    """Inversion requested for a series that is not a unit in Q[[t]]."""


class CompositionValuation(SeriesError):
    """Inner series of a composition has a constant term."""


class ReversionValuation(SeriesError):
    """Reversion requires valuation exactly 1 with invertible leading term."""


class ExpConstantTerm(SeriesError):
    """exp is only defined on series with zero constant term."""


class LogConstantTerm(SeriesError):
    """log is only defined on series with constant term 1."""


class CRTMismatch(SeriesError):
    """A multimodular result disagrees with its residue at the check prime."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational coefficient: {x!r}")


# ---------------------------------------------------------------------------
# dense kernels on coefficient lists anchored at exponent 0
# ---------------------------------------------------------------------------

def _mul_raw(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list[Fraction]:
    out = [_ZERO] * n
    for i, ai in enumerate(a):
        if i >= n:
            break
        if not ai:
            continue
        top = min(len(b), n - i)
        for j in range(top):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _inv_raw(a: Sequence[Fraction], n: int) -> list[Fraction]:
    inv0 = _ONE / a[0]
    out = [_ZERO] * n
    out[0] = inv0
    for m in range(1, n):
        acc = _ZERO
        top = min(m, len(a) - 1)
        for k in range(1, top + 1):
            ak = a[k]
            if ak:
                acc += ak * out[m - k]
        if acc:
            out[m] = -inv0 * acc
    return out


# ---------------------------------------------------------------------------
# multimodular kernel: compose and reversion modulo 62-bit primes
# ---------------------------------------------------------------------------

_MODULI: list[int] = []  # largest primes below 2^62, descending; grown on first use


def _modulus(i: int) -> int:
    """The i-th largest prime below 2^62, growing the list as needed."""
    from .padic import is_prime  # padic imports this module
    while i >= len(_MODULI):
        c = _MODULI[-1] - 2 if _MODULI else (1 << 62) - 1
        while not is_prime(c):
            c -= 2
        _MODULI.append(c)
    return _MODULI[i]


def _moduli_for(bound: int, den: int = 1) -> list[int]:
    """Shortest run of the prime list, skipping the primes that divide den,
    whose product exceeds 2 * bound."""
    out, prod, i = [], 1, 0
    while prod <= 2 * bound:
        p, i = _modulus(i), i + 1
        if den % p:
            out.append(p)
            prod *= p
    return out


def _den_multiple(vs: Sequence[Fraction], s: int, outer_dens: Sequence[int] = (1,)) -> int:
    """lcm_i outer_dens[i] D(s - i), by default D(s), for D(0) = 1 and
    D(k) = lcm_{1 <= j <= k} den(v_j) D(k - j).

    D(k) is a multiple of den(v_(j_1)) ... den(v_(j_i)) whenever
    j_1 + ... + j_i <= k, so it clears the denominator of any integer
    polynomial in v_0 (an integer), v_1, v_2, ... that is weighted
    homogeneous of weight at most k, v_j having weight j, and the result
    clears sum_i w_i P_i for den(w_i) = outer_dens[i] and such P_i of weight
    at most s - i.  Per prime l, v_l(D(k)) is the largest sum of v_l(den v_j)
    over parts j summing to at most k.  D(k - 1) divides D(k), so a v_j with
    denominator 1 adds nothing.
    """
    dens = [(j, v.denominator) for j, v in enumerate(vs[:s + 1]) if j and v.denominator != 1]
    D = [1]
    for k in range(1, s + 1):
        d = D[k - 1]
        for j, dj in dens:
            if j > k:
                break
            d = math.lcm(d, dj * D[k - j])
        D.append(d)
    return math.lcm(*(w * D[s - i] for i, w in enumerate(outer_dens[:s + 1])))


def _rate(cs: Sequence[int], scale: int = 1) -> int:
    """Least r >= 0 with |cs[j]| <= scale * 2^(r j) for every j >= 1."""
    r = 0
    for j in range(1, len(cs)):
        c = -(-abs(cs[j]) // scale)  # 2^(r j) >= c is what is needed
        r = max(r, -(-max(c - 1, 0).bit_length() // j))
    return r


def _compose_bound(outer: Sequence[int], inner: Sequence[int], n: int,
                   inner_den: int = 1) -> int:
    """Bound on |[t^m] outer(inner / inner_den)| for m < n, where
    inner / inner_den is t + O(t^2) or has valuation >= 2.

    With |outer_k| <= A a^k and |inner_j / inner_den| <= b^(j-1), the
    composition is majorized by A/(1 - a t/(1 - b t)), whose t^m coefficient
    is A a (a + b)^(m-1) for m >= 1; outer_k = A a^k, inner = t/(1 - b t)
    attain it.
    """
    A = max(1, abs(outer[0]))
    a, b = 1 << _rate(outer, A), 1 << _rate(inner[1:], inner_den)
    return A * a * (a + b) ** max(n - 2, 0)


def _reversion_bound(u: Sequence[int], n: int, den: int = 1) -> int:
    """Bound on |[q^m] t(q)| for m < n, where q = t u(t) / den,
    u(0) = den, n >= 2.

    With |u_j / den| <= R^j, 1/u is majorized by (1 - R t)/(1 - 2 R t), so
    by Lagrange |t_m| <= s_m R^(m-1), s_m the little Schroeder numbers
    1, 1, 3, 11, 45, ...; u = 1 - sum_j R^j t^j attains it.
    """
    s_prev, s = 1, 1  # s_1, s_2; (m+1) s_(m+1) = 3(2m-1) s_m - (m-2) s_(m-1)
    for m in range(2, n - 1):
        s_prev, s = s, (3 * (2 * m - 1) * s - (m - 2) * s_prev) // (m + 1)
    return s << (_rate(u, den) * (n - 2))


def _slot(n: int) -> int:
    # bytes per packed slot: a sum of n products of residues below 2^62
    return (124 + n.bit_length() + 7) // 8


def _pack(cs: Sequence[int], width: int) -> int:
    # Kronecker substitution: residue c_i in bytes [i*width, (i+1)*width)
    return int.from_bytes(b"".join(map(int.to_bytes, cs, repeat(width), repeat("little"))),
                          "little")


def _unpack(x: int, width: int, n: int, p: int) -> list[int]:
    b, from_bytes = x.to_bytes((x.bit_length() + 7) // 8, "little"), int.from_bytes
    return [from_bytes(b[i:i + width], "little") % p for i in range(0, n * width, width)]


def _residues(cs: Sequence[int], den: int, p: int) -> list[int]:
    # cs / den modulo p, for p prime to den
    if den == 1:
        return [c % p for c in cs]
    inv = pow(den, -1, p)
    return [c % p * inv % p for c in cs]


def _compose_mod(outer: Sequence[int], inner: Sequence[int], n: int, p: int) -> list[int]:
    # Horner on the residues of inner; the partial sum at outer_k is later
    # multiplied by inner^k, so only its first n - k coefficients matter
    # (and those of inner).
    width = _slot(n)
    inn = _pack(inner[:n], width)
    out: list[int] = []
    for k in range(len(outer) - 1, -1, -1):
        keep = n - k
        head = inn & ((1 << 8 * width * keep) - 1)
        out = _unpack(_pack(out, width) * head, width, keep, p)
        out[0] = (out[0] + outer[k]) % p
    return out


def _inv_mod(a: Sequence[int], n: int, p: int, width: int) -> list[int]:
    # Newton w <- w (2 - a w) for a[0] = 1, doubling the precision each step
    w, k = [1], 1
    while k < n:
        k = min(2 * k, n)
        e = [-x % p for x in _unpack(_pack(a[:k], width) * _pack(w, width), width, k, p)]
        e[0] = (e[0] + 2) % p
        w = _unpack(_pack(w, width) * _pack(e, width), width, k, p)
    return w


def _reversion_mod(u: Sequence[int], n: int, p: int) -> list[int]:
    # Lagrange on the residues of u: t = q w(t) with w = 1/u, so
    # t_m = [t^(m-1)] w^m / m.
    width = _slot(n)
    w = _pack(_inv_mod(u, n - 1, p, width), width)
    out, power = [0] * n, [1]
    for m in range(1, n):
        power = _unpack(_pack(power, width) * w, width, n - 1, p)
        out[m] = power[m - 1] * pow(m, -1, p) % p
    return out


def _multimodular(per_prime: Callable[[int], list[int]], bound: int, den: int,
                  D: int) -> list[int]:
    """The integers D * c_m, |D c_m| <= D * bound, by CRT of per_prime(p) =
    [c_m mod p] over primes p prime to den; CRTMismatch if one more disagrees."""
    moduli = _moduli_for(D * bound, den)
    M = math.prod(moduli)
    basis = [D * (M // p) * pow(M // p, -1, p) % M for p in moduli]
    half = M >> 1
    out = []
    for rs in zip(*map(per_prime, moduli)):
        x = sum(r * e for r, e in zip(rs, basis)) % M
        out.append(x - M if x > half else x)
    p = next(p for p in map(_modulus, count()) if den % p and p not in moduli)
    for m, (x, r) in enumerate(zip(out, per_prime(p))):
        if (x - D * r) % p:
            raise CRTMismatch(f"the CRT over {len(moduli)} primes disagrees with "
                              f"the check prime {p} at index {m}")
    return out


def _over_lcm(cs: Sequence[Fraction]) -> tuple[list[int], int]:
    # cs = nums / den with den the least common denominator
    den = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _compose_multimodular(outer: Sequence[Fraction], inner: Sequence[Fraction],
                          n: int) -> list[Fraction]:
    # inner = c V with V = t + O(t^2) (c = 1 when inner has valuation >= 2),
    # so outer(inner) = sum_k F_k V^k with F_k = outer_k c^k.  [t^m] V^k is
    # an integer polynomial in v_j = [t^(j+1)] V of weight m - k <= n - 1 - k.
    c = inner[1] if len(inner) > 1 and inner[1] else _ONE
    if c != 1:
        outer = [x * c ** k for k, x in enumerate(outer)]
        inner = [x / c for x in inner]
    f, den = _over_lcm(outer)
    g, gden = _over_lcm(inner)
    outer_dens = [x.denominator for x in outer[1:]]
    D = math.lcm(den, _den_multiple(inner[1:], n - 2, outer_dens)) // den
    ys = _multimodular(lambda p: _compose_mod(f, _residues(g, gden, p), n, p),
                       _compose_bound(f, g, n, gden), gden, D)
    return [Fraction(y, den * D) for y in ys]


def _reversion_multimodular(f: Sequence[Fraction], n: int) -> list[Fraction]:
    # f = c t U(t) with U(0) = 1 and f^-1(q) = (f/c)^-1(q/c); the q^m
    # coefficient of (f/c)^-1 is an integer polynomial in v_j = [t^j] U of
    # weight m - 1 <= n - 2.
    c = f[1]
    U = f[1:] if c == 1 else [x / c for x in f[1:]]
    u, uden = _over_lcm(U)
    D = _den_multiple(U, n - 2)
    ts = _multimodular(lambda p: _reversion_mod(_residues(u, uden, p), n, p),
                       _reversion_bound(u, n, uden), uden, D)
    if c == 1:
        return [Fraction(x, D) for x in ts]
    return [Fraction(x, D) / c ** m for m, x in enumerate(ts)]


class RationalSeries:
    """Truncated formal power series over Q.

    Construct with from_coeffs / zero / one / monomial / from_polynomial
    rather than calling the class directly with pre-normalized data.
    """

    __slots__ = ("val", "coeffs", "order")

    def __init__(self, val: int, coeffs: tuple[Fraction, ...], order: int):
        self.val = val
        self.coeffs = coeffs
        self.order = order

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, order: int | None = None,
                    valuation: int = 0) -> "RationalSeries":
        """Series with the given coefficients for t^valuation, t^(valuation+1), ...

        order defaults to valuation + len(coeffs); when larger, the series is
        padded with exact zeros, when smaller, coefficients are dropped.
        """
        cs = [_frac(c) for c in coeffs]
        if order is None:
            order = valuation + len(cs)
        if valuation < 0:
            raise SeriesError("negative valuation is only produced by shift")
        return cls._make(valuation, cs, order)

    @classmethod
    def _make(cls, base: int, cs: list[Fraction], order: int) -> "RationalSeries":
        if order < 0:
            raise SeriesError("order must be nonnegative")
        if order <= base:
            return cls(order, (), order)
        if len(cs) > order - base:
            cs = cs[: order - base]
        lead = 0
        while lead < len(cs) and not cs[lead]:
            lead += 1
        if lead == len(cs):
            return cls(order, (), order)
        cs = cs[lead:]
        base += lead
        want = order - base
        if len(cs) < want:
            cs = cs + [_ZERO] * (want - len(cs))
        return cls(base, tuple(cs), order)

    @classmethod
    def zero(cls, order: int) -> "RationalSeries":
        return cls(order, (), order)

    @classmethod
    def one(cls, order: int) -> "RationalSeries":
        return cls.monomial(1, 0, order)

    @classmethod
    def identity(cls, order: int) -> "RationalSeries":
        """The series t."""
        return cls.monomial(1, 1, order)

    @classmethod
    def monomial(cls, c, k: int, order: int) -> "RationalSeries":
        return cls._make(k, [_frac(c)], order)

    @classmethod
    def from_polynomial(cls, coeffs: Iterable, order: int) -> "RationalSeries":
        """Exact polynomial (constant term first) viewed at the given order."""
        return cls.from_coeffs(coeffs, order=order)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, m: int) -> Fraction:
        """Coefficient of t^m; reading at or beyond the truncation is an error."""
        if m >= self.order:
            raise SeriesError(f"coefficient of t^{m} not determined at order {self.order}")
        if m < self.val:
            return _ZERO
        return self.coeffs[m - self.val]

    def coeff_list(self, n: int | None = None) -> list[Fraction]:
        """Dense coefficients for exponents 0..n-1 (n defaults to order)."""
        if n is None:
            n = self.order
        if n > self.order:
            raise SeriesError(f"only {self.order} coefficients are determined")
        out = [_ZERO] * n
        for i, c in enumerate(self.coeffs):
            m = self.val + i
            if m >= n:
                break
            out[m] = c
        return out

    def constant_term(self) -> Fraction:
        return self.coeff(0)

    def agrees_with(self, other: "RationalSeries", through: int | None = None) -> bool:
        """Equality of all coefficients both sides determine (below `through`)."""
        n = min(self.order, other.order)
        if through is not None:
            n = min(n, through)
        for m in range(n):
            if self.coeff(m) != other.coeff(m):
                return False
        return True

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            other = RationalSeries.monomial(other, 0, self.order)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        order = min(self.order, other.order)
        base = min(self.val, other.val)
        cs = [_ZERO] * (order - base)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                m = s.val + i
                if m >= order:
                    break
                cs[m - base] += c
        return RationalSeries._make(base, cs, order)

    __radd__ = __add__

    def __neg__(self) -> "RationalSeries":
        return RationalSeries(self.val, tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            other = RationalSeries.monomial(other, 0, self.order)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalSeries.monomial(other, 0, self.order) - self
        return NotImplemented

    def __mul__(self, other) -> "RationalSeries":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if not c:
                return RationalSeries.zero(self.order)
            return RationalSeries(self.val, tuple(c * x for x in self.coeffs), self.order)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        order = min(self.order + other.val, self.val + other.order)
        base = self.val + other.val
        if self.is_zero() or other.is_zero():
            return RationalSeries.zero(order)
        cs = _mul_raw(self.coeffs, other.coeffs, order - base)
        return RationalSeries._make(base, cs, order)

    __rmul__ = __mul__

    def pow_int(self, e: int) -> "RationalSeries":
        """e-th power by binary exponentiation, e >= 0."""
        if e < 0:
            raise SeriesError("negative powers via invert")
        result = RationalSeries.one(self.order)
        base = self
        first = True
        while e:
            if e & 1:
                result = base if first else result * base
                first = False
            e >>= 1
            if e:
                base = base * base
        return result

    def invert(self) -> "RationalSeries":
        """Multiplicative inverse of a unit (nonzero constant term)."""
        if self.val != 0 or self.is_zero():
            raise ZeroLeadingCoefficient(
                f"series with valuation {self.val} is not a unit")
        return RationalSeries._make(0, _inv_raw(self.coeffs, self.order), self.order)

    # -- substitution -------------------------------------------------------

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """self(inner(t)); requires inner to vanish at t = 0."""
        nu = inner.val
        if nu < 1:
            raise CompositionValuation(
                f"inner series has valuation {nu}, need >= 1")
        order = min(nu * self.order, inner.order + max(self.val - 1, 0) * nu)
        if self.is_zero():
            return RationalSeries.zero(order)
        outer = self.coeff_list(min(self.order, order))
        inn = inner.coeff_list(min(inner.order, order))
        return RationalSeries._make(0, _compose_multimodular(outer, inn, order), order)

    def reversion(self) -> "RationalSeries":
        """Compositional inverse g with self(g(q)) = q.

        Lagrange inversion modulo each prime, t_m = [t^(m-1)] (t/self)^m / m
        for self = t + O(t^2); a leading coefficient c is scaled out first.
        """
        if self.val != 1 or not self.coeffs or not self.coeffs[0]:
            raise ReversionValuation(
                f"reversion needs valuation 1, got valuation {self.val}")
        n = self.order
        return RationalSeries._make(0, _reversion_multimodular(self.coeff_list(n), n), n)

    # -- differential structure ---------------------------------------------

    def delta(self) -> "RationalSeries":
        """t d/dt; the order is preserved."""
        cs = [(self.val + i) * c for i, c in enumerate(self.coeffs)]
        return RationalSeries._make(self.val, cs, self.order)

    def delta_antiderivative(self) -> "RationalSeries":
        """Inverse of delta on series without constant term."""
        if self.val == 0 and self.coeffs:
            raise SeriesError("delta_antiderivative needs zero constant term")
        cs = [c / (self.val + i) for i, c in enumerate(self.coeffs)]
        return RationalSeries._make(self.val, cs, self.order)

    def shift(self, k: int) -> "RationalSeries":
        """Multiply by t^k (k may be negative down to -val)."""
        if self.is_zero():
            if self.order + k < 0:
                raise SeriesError("shift below t^0")
            return RationalSeries.zero(self.order + k)
        if self.val + k < 0:
            raise SeriesError(f"shift by {k} drops below t^0")
        return RationalSeries(self.val + k, self.coeffs, self.order + k)

    def truncate(self, order: int) -> "RationalSeries":
        """Forget coefficients at or beyond `order` (never extends)."""
        if order >= self.order:
            return self
        return RationalSeries._make(self.val, list(self.coeffs), order)

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return (self.val, self.coeffs, self.order) == (other.val, other.coeffs, other.order)

    def __hash__(self):
        return hash((self.val, self.coeffs, self.order))

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            terms.append(f"{c}*t^{self.val + i}")
            if len(terms) >= 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(t^{self.order})>"


def exp_series(f: RationalSeries) -> RationalSeries:
    """exp(f) for f with zero constant term, via m E_m = sum k f_k E_{m-k}."""
    if f.val == 0 and not f.is_zero():
        raise ExpConstantTerm("exp needs vanishing constant term")
    n = f.order
    if n == 0:
        return RationalSeries.zero(0)
    fs = f.coeff_list(n)
    out = [_ZERO] * n
    out[0] = _ONE
    for m in range(1, n):
        acc = _ZERO
        for k in range(1, m + 1):
            if fs[k]:
                acc += k * fs[k] * out[m - k]
        if acc:
            out[m] = acc / m
    return RationalSeries._make(0, out, n)


def log_series(u: RationalSeries) -> RationalSeries:
    """log(u) for u with constant term 1: antiderivative of delta(u)/u."""
    if u.val != 0 or u.constant_term() != 1:
        raise LogConstantTerm("log needs constant term 1")
    return (u.delta() * u.invert()).delta_antiderivative()


class LogSeries:
    """Polynomial in log t with RationalSeries coefficients.

    parts[j] is the coefficient of (log t)^j; the top part is nonzero unless
    the whole series is zero.  delta acts by the Leibniz rule with
    delta(log t) = 1.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[RationalSeries]):
        ps = list(parts)
        if not ps:
            raise SeriesError("LogSeries needs at least one part")
        while len(ps) > 1 and ps[-1].is_zero():
            ps.pop()
        self.parts = tuple(ps)

    @property
    def log_degree(self) -> int:
        return len(self.parts) - 1

    @property
    def order(self) -> int:
        return min(p.order for p in self.parts)

    def part(self, j: int) -> RationalSeries:
        if j < len(self.parts):
            return self.parts[j]
        return RationalSeries.zero(self.order)

    def __add__(self, other: "LogSeries") -> "LogSeries":
        if not isinstance(other, LogSeries):
            return NotImplemented
        n = max(len(self.parts), len(other.parts))
        return LogSeries([self.part(j) + other.part(j) for j in range(n)])

    def scale(self, c) -> "LogSeries":
        return LogSeries([p * c for p in self.parts])

    def scale_series(self, s: RationalSeries) -> "LogSeries":
        return LogSeries([p * s for p in self.parts])

    def delta(self) -> "LogSeries":
        out = []
        for j, p in enumerate(self.parts):
            term = p.delta()
            if j + 1 < len(self.parts):
                term = term + (j + 1) * self.parts[j + 1]
            out.append(term)
        return LogSeries(out)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self) -> str:
        inner = ", ".join(f"L^{j}: {p!r}" for j, p in enumerate(self.parts))
        return f"LogSeries({inner})"
