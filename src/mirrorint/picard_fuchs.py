"""Frobenius bases and mirror maps for operators with a MUM point at t = 0.

An operator is given in delta form, L = sum_{i=0}^{r} a_i(t) delta^i with
delta = t d/dt and integer polynomial coefficients, normalized so that the
indicial polynomial at t = 0 is x^r: a_i(0) = 0 for i < r and a_r(0) = 1.
Such a point is MUM (maximally unipotent monodromy): the local solutions
are

    y_k = sum_{j=0}^{k} g_{k-j}(t) (log t)^j / j!,   k = 0..r-1,

with g_0(0) = 1 and g_k(0) = 0 for k >= 1.  The g_k come from a single
recursion over jets in the auxiliary exponent rho: writing the candidate
solution t^rho sum_m A_m(rho) t^m, applying L and matching powers of t gives

    A_m(rho) P_0(m+rho) = - sum_{s>=1} A_{m-s}(rho) P_s(m-s+rho),

where P_s(x) = sum_i a_{i,s} x^i collects the t^s parts of the a_i; the
MUM normalization makes P_0(x) = x^r.  All arithmetic happens in
Q[rho]/rho^r, which is truncated power series arithmetic in rho, so the
jets are multiplied and inverted with the series kernel; g_k is the rho^k
component.

The canonical coordinate in the q'(0) = 1 gauge is q = t exp(g_1/g_0);
its compositional inverse t(q) feeds the Yukawa coupling in q.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

from .series import LogSeries, RationalSeries, _inv_raw, _mul_raw, exp_series

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MalformedSpec(ValueError):
    """Operator description is structurally invalid."""


class NotMUM(ValueError):
    """Indicial polynomial at t = 0 is not x^rank."""


class RankCheckFailed(ValueError):
    """The Frobenius basis is not a solution basis: some L(y_k) is nonzero
    below the truncation order."""


def _parse_int(x, where: str) -> int:
    if isinstance(x, bool):
        raise MalformedSpec(f"{where}: expected integer, got boolean")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x, 10)
        except ValueError:
            raise MalformedSpec(f"{where}: not an integer string: {x!r}") from None
    raise MalformedSpec(f"{where}: expected integer, got {type(x).__name__}")


class PFOperator(NamedTuple):
    """Operator sum a_i(t) delta^i; coeffs[i] lists a_i as (a_{i,0}, a_{i,1}, ...).

    Construction does not validate: load_operator checks the rank, the
    shape and the MUM normalization, and every operator the package builds
    comes from it.
    """

    name: str
    rank: int
    coeffs: tuple[tuple[int, ...], ...]
    n0: int | None = None

    @property
    def t_degree(self) -> int:
        return max(len(poly) - 1 for poly in self.coeffs)

    def coeff_series(self, i: int, order: int) -> RationalSeries:
        """a_i(t) as an exact polynomial viewed at the given order."""
        return RationalSeries.from_polynomial(self.coeffs[i], order)


def load_operator(doc: dict) -> PFOperator:
    """Build and validate an operator from its JSON-style description.

    Expected fields: name (string), rank (int), delta_coefficients (list of
    rank+1 integer lists, a_0 first; entries may be strings for magnitudes
    beyond double precision), optional n0 and N.
    """
    if not isinstance(doc, dict):
        raise MalformedSpec(f"operator spec must be an object, got {type(doc).__name__}")
    for key in ("name", "rank", "delta_coefficients"):
        if key not in doc:
            raise MalformedSpec(f"missing field {key!r}")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise MalformedSpec("name must be a nonempty string")
    rank = _parse_int(doc["rank"], "rank")
    raw = doc["delta_coefficients"]
    if not isinstance(raw, list):
        raise MalformedSpec("delta_coefficients must be a list")
    coeffs = []
    for i, poly in enumerate(raw):
        if not isinstance(poly, list) or not poly:
            raise MalformedSpec(f"a_{i} must be a nonempty list")
        coeffs.append(tuple(_parse_int(c, f"a_{i}[{j}]") for j, c in enumerate(poly)))
    n0 = _parse_int(doc["n0"], "n0") if "n0" in doc else None
    if "N" in doc:
        _parse_int(doc["N"], "N")  # validated, otherwise unused
    if rank < 2:
        raise MalformedSpec(f"rank must be >= 2, got {rank}")
    if len(coeffs) != rank + 1:
        raise MalformedSpec(
            f"need {rank + 1} coefficient polynomials, got {len(coeffs)}")
    const = [poly[0] for poly in coeffs]
    if const[rank] != 1:
        raise NotMUM(f"a_{rank}(0) = {const[rank]}, need 1")
    bad = [i for i in range(rank) if const[i] != 0]
    if bad:
        raise NotMUM(
            "indicial polynomial is not x^rank: "
            + ", ".join(f"a_{i}(0) = {const[i]}" for i in bad))
    return PFOperator(name=name, rank=rank, coeffs=tuple(coeffs), n0=n0)


def load_operator_json(text: str) -> PFOperator:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedSpec(f"invalid JSON: {e}") from None
    return load_operator(doc)


def _taylor_shift(poly: tuple[int, ...], x0: int, r: int) -> list[Fraction]:
    # P(x0 + rho) in Q[rho]/rho^r: the rho^k coefficient is
    # sum_i a_i C(i, k) x0^(i-k)
    return [Fraction(sum(poly[i] * math.comb(i, k) * x0 ** (i - k)
                         for i in range(k, len(poly))))
            for k in range(r)]


class SolutionBasis(NamedTuple):
    """Frobenius basis at a MUM point, held as the series g_0..g_{r-1}."""

    operator: PFOperator
    order: int
    gs: tuple[RationalSeries, ...]

    @property
    def rank(self) -> int:
        return self.operator.rank

    @property
    def holomorphic(self) -> RationalSeries:
        return self.gs[0]

    def solution(self, k: int) -> LogSeries:
        """y_k = sum_{j<=k} g_{k-j} (log t)^j / j!."""
        parts = [self.gs[k - j] * Fraction(1, math.factorial(j)) for j in range(k + 1)]
        return LogSeries(parts)

    @property
    def solutions(self) -> tuple[LogSeries, ...]:
        return tuple(self.solution(k) for k in range(self.rank))


def frobenius_solutions(op: PFOperator, order: int) -> SolutionBasis:
    """Run the jet recursion up to (but not including) t^order, then check
    that L(y_k) vanishes below t^order for every k."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    r = op.rank
    sdeg = op.t_degree
    # P_s(x) = sum_i a_{i,s} x^i for s = 0..sdeg; P_0 = x^r by validation
    polys = [tuple(c[s] if s < len(c) else 0 for c in op.coeffs)
             for s in range(sdeg + 1)]
    jets: list[list[Fraction]] = [[_ONE] + [_ZERO] * (r - 1)]
    for m in range(1, order):
        rhs = [_ZERO] * r
        for s in range(1, min(m, sdeg) + 1):
            term = _mul_raw(jets[m - s], _taylor_shift(polys[s], m - s, r), r)
            rhs = [a - b for a, b in zip(rhs, term)]
        inv = _inv_raw(_taylor_shift(polys[0], m, r), r)
        jets.append(_mul_raw(rhs, inv, r))

    gs = tuple(
        RationalSeries.from_coeffs([jets[m][k] for m in range(order)], order=order)
        for k in range(r))
    basis = SolutionBasis(operator=op, order=order, gs=gs)
    for k, y in enumerate(basis.solutions):
        if not residual(op, y).is_zero():
            raise RankCheckFailed(f"L(y_{k}) is not zero below t^{order}")
    return basis


def residual(op: PFOperator, y: LogSeries) -> LogSeries:
    """L applied to y; vanishes up to the truncation order for true solutions."""
    pad = op.t_degree + 1
    acc = None
    dy = y
    for i in range(op.rank + 1):
        ai = op.coeff_series(i, y.order + pad)
        term = dy.scale_series(ai)
        acc = term if acc is None else acc + term
        if i < op.rank:
            dy = dy.delta()
    return acc


class MonodromyMatrix(NamedTuple):
    """Matrix of d/d(log t) on the Frobenius basis.

    entries[k][j] is the coefficient of y_j in the image of y_k.  At a MUM
    point this is the lower shift matrix, so N^e has rank max(size - e, 0).
    """

    size: int
    entries: tuple[tuple[Fraction, ...], ...]

    def rank_of_power(self, e: int) -> int:
        return max(self.size - e, 0)


def monodromy_matrix(basis: SolutionBasis) -> MonodromyMatrix:
    """d/d(log t) on y_0..y_{r-1}: the lower shift matrix, because
    SolutionBasis.solution builds y_k with d/d(log t) y_k = y_{k-1}."""
    r = basis.rank
    rows = tuple(tuple(_ONE if j == k - 1 else _ZERO for j in range(r))
                 for k in range(r))
    return MonodromyMatrix(size=r, entries=rows)


class MirrorMap(NamedTuple):
    """Canonical coordinate q(t) = t exp(g_1/g_0) and its inverse t(q).

    monodromy_index is the exponent k in q = t^k (unit); at a MUM point in
    the q'(0) = 1 gauge it is 1.  dlog_q is delta(log q) as a series in t,
    the coefficient of dt/t in the logarithmic differential of q.
    """

    q_of_t: RationalSeries
    t_of_q: RationalSeries
    monodromy_index: int
    dlog_q: RationalSeries

    @property
    def unit_part(self) -> RationalSeries:
        """q/t, a unit with constant term 1."""
        return self.q_of_t.shift(-1)

    @classmethod
    def from_q(cls, q: RationalSeries) -> "MirrorMap":
        """Mirror map determined by a given q(t) in the q'(0) = 1 gauge."""
        from .series import log_series
        u = q.shift(-1)
        if u.constant_term() != 1:
            raise ValueError("q/t must have constant term 1")
        return cls(q_of_t=q, t_of_q=q.reversion(), monodromy_index=1,
                   dlog_q=log_series(u).delta() + 1)


def mirror_map(basis: SolutionBasis) -> MirrorMap:
    """q(t) in the gauge q'(0) = 1, from the first two Frobenius solutions."""
    g0, g1 = basis.gs[0], basis.gs[1]
    ratio = g1 * g0.invert()
    q = exp_series(ratio).shift(1)
    return MirrorMap(
        q_of_t=q,
        t_of_q=q.reversion(),
        monodromy_index=1,
        dlog_q=ratio.delta() + 1,
    )
