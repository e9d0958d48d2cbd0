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

Operators t*d/dt (delta) and log t interact by delta(log t) = 1, which is
what makes LogSeries closed under delta.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

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


def _compose_raw(outer: Sequence[Fraction], inner: Sequence[Fraction], n: int) -> list[Fraction]:
    # Horner in the inner series; inner[0] must be 0.
    out = [_ZERO] * n
    for c in reversed(outer):
        out = _mul_raw(out, inner, n)
        if c:
            out[0] += c
    return out


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
        return RationalSeries._make(0, _compose_raw(outer, inn, order), order)

    def reversion(self) -> "RationalSeries":
        """Compositional inverse g with self(g(q)) = q.

        Newton iteration g <- g - g'(f(g) - q); a step correct modulo q^m
        yields correctness modulo q^(2m-1), so precisions follow that ladder.
        """
        if self.val != 1 or not self.coeffs or not self.coeffs[0]:
            raise ReversionValuation(
                f"reversion needs valuation 1, got valuation {self.val}")
        n = self.order
        f = self.coeff_list(n)
        g = [_ZERO, _ONE / f[1]]
        m = 2
        while m < n:
            m = min(2 * m - 1, n)
            fg = _compose_raw(f[:m], g + [_ZERO] * (m - len(g)), m)
            fg[1] -= _ONE
            dg = [(k + 1) * g[k + 1] for k in range(len(g) - 1)]
            corr = _mul_raw(dg, fg, m)
            g = [(g[k] if k < len(g) else _ZERO) - corr[k] for k in range(m)]
        return RationalSeries._make(0, g, n)

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

    def agrees_with(self, other: "LogSeries", through: int | None = None) -> bool:
        n = max(len(self.parts), len(other.parts))
        return all(self.part(j).agrees_with(other.part(j), through) for j in range(n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self) -> str:
        inner = ", ".join(f"L^{j}: {p!r}" for j, p in enumerate(self.parts))
        return f"LogSeries({inner})"
