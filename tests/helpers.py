"""Shared generators and property-suite runners for the test modules.

The acceptance suite re-runs the big randomized suites through the same
entry points, so each runner takes an explicit case count and seed and
returns the number of cases it actually exercised.
"""

import random
from fractions import Fraction

from mirrorint import (
    DworkCertificate,
    FailureLocus,
    InstantonSeries,
    MirrorMap,
    RationalSeries,
    dwork_certify,
    exp_series,
    frobenius_substitute,
    is_prime,
    instanton_extract,
    ksv_certify,
    gauge_certify,
    lambert_expand,
    log_series,
    valuation,
)
from mirrorint import series
from mirrorint.certify import _first_violation

F = Fraction


def rand_frac(rng: random.Random, span: int = 9, den: int = 9) -> Fraction:
    return F(rng.randint(-span, span), rng.randint(1, den))


def rand_series(rng, order, valuation=0, span=9, den=9):
    coeffs = [rand_frac(rng, span, den) for _ in range(order - valuation)]
    return RationalSeries.from_coeffs(coeffs, order=order, valuation=valuation)


def rand_unit(rng, order, span=9, den=9):
    """Random series with nonzero constant term."""
    c0 = F(0)
    while c0 == 0:
        c0 = rand_frac(rng, span, den)
    rest = [rand_frac(rng, span, den) for _ in range(order - 1)]
    return RationalSeries.from_coeffs([c0] + rest, order=order)


def rand_val1(rng, order, span=9, den=9):
    """Random series t*(c1 + ...) with c1 != 0, for composition inputs."""
    c1 = F(0)
    while c1 == 0:
        c1 = rand_frac(rng, span, den)
    rest = [rand_frac(rng, span, den) for _ in range(order - 2)]
    return RationalSeries.from_coeffs([c1] + rest, order=order, valuation=1)


def rand_one_plus_integral(rng, order, span=9):
    """1 + t*Z[[t]] truncated, integer coefficients."""
    coeffs = [F(1)] + [F(rng.randint(-span, span)) for _ in range(order - 1)]
    return RationalSeries.from_coeffs(coeffs, order=order)


def mirror_from_unit(u: RationalSeries) -> MirrorMap:
    return MirrorMap.from_q(u.shift(1))


def run_ring_axioms(cases: int, seed: int = 20240501) -> int:
    """Commutative-ring identities on random truncated series."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(2, 8)
        a = rand_series(rng, n + rng.randint(0, 3))
        b = rand_series(rng, n + rng.randint(0, 3))
        c = rand_series(rng, n + rng.randint(0, 3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        # cancellation in b + c can raise the tracked precision on the
        # left side, so compare on the common guaranteed range
        assert (a * (b + c)).agrees_with(a * b + a * c)
        assert a + RationalSeries.zero(a.order) == a
        assert a * RationalSeries.one(a.order + 2) == a
        assert (a - a).is_zero()
    return cases


def run_inversion_roundtrip(cases: int, seed: int = 20240502) -> int:
    """u * u^-1 == 1 and (u^-1)^-1 == u at full stated order."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(2, 10)
        u = rand_unit(rng, n)
        v = u.invert()
        assert (u * v) == RationalSeries.one(n)
        assert v.invert() == u
    return cases


def run_reversion_roundtrip(cases: int, seed: int = 20240503) -> int:
    """compose(f, reversion(f)) == t == compose(reversion(f), f), and
    reversion is an involution."""
    rng = random.Random(seed)
    ident_cache = {}
    for _ in range(cases):
        n = rng.randint(3, 10)
        f = rand_val1(rng, n)
        g = f.reversion()
        if n not in ident_cache:
            ident_cache[n] = RationalSeries.identity(n)
        ident = ident_cache[n]
        assert f.compose(g) == ident
        assert g.compose(f) == ident
        assert g.reversion() == f
    return cases


def run_exp_log_inverse(cases: int, seed: int = 20240504) -> int:
    """log(exp(f)) == f for f(0) = 0 and exp(log(u)) == u for u(0) = 1."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(2, 9)
        f = rand_series(rng, n, valuation=1)
        assert log_series(exp_series(f)) == f
        u = RationalSeries.one(n) + rand_series(rng, n, valuation=1)
        assert exp_series(log_series(u)) == u
    return cases


def run_delta_derivation(cases: int, seed: int = 20240505) -> int:
    """delta is a derivation: delta(fg) = delta(f) g + f delta(g)."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(2, 9)
        f = rand_series(rng, n + rng.randint(0, 2))
        g = rand_series(rng, n + rng.randint(0, 2))
        lhs = (f * g).delta()
        rhs = f.delta() * g + f * g.delta()
        assert lhs == rhs
    return cases


_PREC_OPS = ("add", "mul", "invert", "compose", "exp", "log", "delta", "reversion")


def run_precision_soundness(cases: int, seed: int = 20240506) -> int:
    """Truncating inputs never changes coefficients below the emitted order.

    Each case draws high-order inputs, recomputes from truncations, and
    demands exact agreement on the truncated result's full stated range.
    """
    rng = random.Random(seed)
    for i in range(cases):
        op = _PREC_OPS[i % len(_PREC_OPS)]
        hi = rng.randint(6, 12)
        lo = rng.randint(3, hi - 1)
        if op == "add":
            a, b = rand_series(rng, hi), rand_series(rng, hi)
            full, part = a + b, a.truncate(lo) + b.truncate(lo)
        elif op == "mul":
            a, b = rand_series(rng, hi), rand_series(rng, hi)
            full, part = a * b, a.truncate(lo) * b.truncate(lo)
        elif op == "invert":
            a = rand_unit(rng, hi)
            full, part = a.invert(), a.truncate(lo).invert()
        elif op == "compose":
            a, b = rand_series(rng, hi), rand_val1(rng, hi)
            full, part = a.compose(b), a.truncate(lo).compose(b.truncate(lo))
        elif op == "exp":
            a = rand_series(rng, hi, valuation=1)
            full, part = exp_series(a), exp_series(a.truncate(lo))
        elif op == "log":
            a = RationalSeries.one(hi) + rand_series(rng, hi, valuation=1)
            full, part = log_series(a), log_series(a.truncate(lo))
        elif op == "delta":
            a = rand_series(rng, hi)
            full, part = a.delta(), a.truncate(lo).delta()
        else:
            a = rand_val1(rng, hi)
            full, part = a.reversion(), a.truncate(lo).reversion()
        assert full.truncate(part.order) == part
    return cases


def _compose_raw(outer, inner, n):
    # Horner in the inner series; inner[0] must be 0.
    out = [F(0)] * n
    for c in reversed(outer):
        out = series._mul_raw(out, inner, n)
        if c:
            out[0] += c
    return out


def _reversion_newton(f, n):
    # Newton g <- g - g'(f(g) - q); a step correct modulo q^m is correct
    # modulo q^(2m-1).  f[0] = 0, f[1] != 0.
    g = [F(0), 1 / f[1]]
    m = 2
    while m < n:
        m = min(2 * m - 1, n)
        fg = _compose_raw(f[:m], g + [F(0)] * (m - len(g)), m)
        fg[1] -= 1
        dg = [(k + 1) * g[k + 1] for k in range(len(g) - 1)]
        corr = series._mul_raw(dg, fg, m)
        g = [(g[k] if k < len(g) else F(0)) - corr[k] for k in range(m)]
    return g


def fraction_compose(f: RationalSeries, g: RationalSeries) -> RationalSeries:
    """Fraction Horner reference for f(g), at compose's documented order."""
    nu = g.val
    order = min(nu * f.order, g.order + max(f.val - 1, 0) * nu)
    cs = _compose_raw(f.coeff_list(min(f.order, order)),
                      g.coeff_list(min(g.order, order)), order)
    return RationalSeries._make(0, cs, order)


def fraction_reversion(q: RationalSeries) -> RationalSeries:
    """Fraction Newton reference for the reversion of q."""
    return RationalSeries._make(0, _reversion_newton(q.coeff_list(), q.order), q.order)


# rational-ops operator rand0_0 (perfbench seed 0): q(t) has denominators,
# starting 1, 1, 8, 12, 36864 at t^1 .. t^5
RAND0_0 = {"name": "rand0_0", "rank": 4, "n0": 1,
           "delta_coefficients": [[0, 0, 1], [0, -6, -2], [0, 2, 2], [0, 0, -2],
                                  [1, 1, -1]]}


def random_operator_doc(rng, name):
    """Rank-4 MUM operator with quadratic a_i(t), coefficients in [-6, 6].

    a_i(0) = 0 for i < 4 and a_4(0) = 1 (the MUM normalisation); the t^2
    coefficient is nonzero so every a_i really is quadratic.  n0 = 1.  The
    same shape as the benchmark's rational-ops operators.
    """
    nonzero = [c for c in range(-6, 7) if c]
    coeffs = [[0, rng.randint(-6, 6), rng.choice(nonzero)] for _ in range(4)]
    coeffs.append([1, rng.randint(-6, 6), rng.choice(nonzero)])
    return {"name": name, "rank": 4, "delta_coefficients": coeffs, "n0": 1}


def rand_int_coeffs(rng, count, bits):
    """count integers of up to `bits` bits: dense, sparse, all zero or one term."""
    out = [0] * count
    style = rng.randrange(4) if count else 2
    if style == 0:
        idx = range(count)
    elif style == 1:
        idx = rng.sample(range(count), max(1, count // 4))
    elif style == 2:
        idx = []
    else:
        idx = [rng.randrange(count)]
    for i in idx:
        out[i] = rng.randint(-(1 << bits), 1 << bits)
    return out


FIRST_MODULUS = 4611686018427387847  # the first prime the kernel works modulo


def rand_rational_coeffs(rng, count, bits, n):
    """count nonzero rationals of up to `bits` bits over denominators with
    sparse support (powers of one prime), dense support (every prime below
    n, once count allows) or FIRST_MODULUS planted in one of them."""
    nums = [rng.randint(-(1 << bits), 1 << bits) or 1 for _ in range(count)]
    style = rng.randrange(3)
    if style == 0:
        ell = rng.choice((2, 3, 5, 7))
        dens = [ell ** rng.randint(0, 3) for _ in nums]
    elif style == 1:
        ps = [ell for ell in range(2, max(n, 3)) if is_prime(ell)]
        dens = [ps[j % len(ps)] * rng.choice(ps) for j in range(count)]
    else:
        dens = [1] * count
        if count:
            dens[rng.randrange(count)] = FIRST_MODULUS
    return [F(a, d) for a, d in zip(nums, dens)]


def rand_shift(rng, n, bits, leads):
    """Coefficients of t .. t^(n-1) for a compose or reversion input: an
    integral t + O(t^2) in half the cases, else a leading coefficient drawn
    from `leads` over rand_rational_coeffs."""
    if rng.random() < 0.5:
        return [1] + rand_int_coeffs(rng, n - 2, bits)
    return [rng.choice(leads)] + rand_rational_coeffs(rng, n - 2, min(bits, 64), n)


def extremal_compose_inputs(n, A, ra, rb):
    """outer_k = A 2^(ra k) and inner = t/(1 - 2^rb t): the composition
    bound is attained at t^(n-1)."""
    f = RationalSeries.from_coeffs([A << (ra * k) for k in range(n)], order=n)
    g = RationalSeries.from_coeffs([1 << (rb * j) for j in range(n - 1)], order=n, valuation=1)
    return f, g


def extremal_reversion_input(n, r):
    """q = t (1 - sum_j 2^(r j) t^j): the reversion bound is attained at q^(n-1)."""
    return RationalSeries.from_coeffs([1] + [-(1 << (r * j)) for j in range(1, n - 1)],
                                      order=n, valuation=1)


def den_extremal_inputs(n):
    """q = t (1 - sum_j t^j / 2^j), whose t_m = s_m / 2^(m-1) has s_m odd,
    and f = sum_k t^k, g = t/(1 - t/6), whose f(g) has [t^m] = (7/6)^(m-1):
    on both, D(n - 2) is the lcm of the output denominators."""
    q = RationalSeries.from_coeffs([1] + [F(-1, 2 ** j) for j in range(1, n - 1)],
                                   order=n, valuation=1)
    f = RationalSeries.from_coeffs([1] * n)
    g = RationalSeries.from_coeffs([F(1, 6 ** j) for j in range(n - 1)], order=n, valuation=1)
    return q, f, g


def per_term_den_inputs(n):
    """f = sum_(k <= 3n/4) t^k / 2^k and g = t + t^2/2, whose f(g) has
    [t^m] = (sum_k C(k, m - k)) / 2^m.  At n = 40 the per-term multiple
    lcm_k den(f_k) D(n - 1 - k) = 2^(n - 1) is the lcm of the output
    denominators, against D(n - 2) lcm(den f) = 2^68."""
    f = RationalSeries.from_coeffs([F(1, 2 ** k) for k in range(3 * n // 4 + 1)], order=n)
    g = RationalSeries.from_coeffs([1, F(1, 2)], order=n, valuation=1)
    return f, g


_LEADS = (1, 2, -3, F(1, 5), F(-7, 2))


def run_modular_vs_fraction(cases: int, seed: int = 20240512) -> int:
    """compose and reversion equal the Fraction Horner and Newton
    references, coefficients and order.

    Orders 2-40 (mostly below 16), coefficients of up to about 300 bits (the
    largest only up to order 8), dense, sparse, zero and single-term inputs,
    rational outer series, rational inner series and q with a leading
    coefficient other than 1 (inner series of valuation 2 too) over sparse,
    dense and planted denominator support (rand_rational_coeffs), and every
    tenth case the majorant-extremal inputs, whose top coefficient must equal
    the bound the kernel sizes its primes from.  A planted FIRST_MODULUS
    denominator makes the kernel skip that prime, or the case fails.
    """
    rng = random.Random(seed)
    for i in range(cases):
        bits = rng.choice((2, 8, 32, 64, 300))
        top = 40 if bits <= 8 else 16 if bits <= 64 else 8
        n = rng.randint(2, rng.choice((8, 16, top)))
        extremal = i % 20 < 2
        if i % 2:
            if extremal:
                f, g = extremal_compose_inputs(n, rng.randint(1, 9), rng.randint(0, 8),
                                               rng.randint(0, 8))
            else:
                cs = rand_int_coeffs(rng, rng.randint(2, top), bits)
                if rng.random() < 0.3:
                    cs = [F(c, rng.randint(1, 1 << rng.choice((2, 16, 64)))) for c in cs]
                f = RationalSeries.from_coeffs(cs)
                g = RationalSeries.from_coeffs(rand_shift(rng, n, bits, _LEADS + (0,)),
                                               order=n, valuation=1)
            got, want = f.compose(g), fraction_compose(f, g)
            if extremal:
                bound = series._compose_bound([int(c) for c in f.coeff_list()],
                                              [int(c) for c in g.coeff_list()], n)
                assert got.coeff(n - 1) == bound, (n, f, g)
        else:
            if extremal:
                q = extremal_reversion_input(n, rng.randint(0, 8))
            else:
                q = RationalSeries.from_coeffs(rand_shift(rng, n, bits, _LEADS),
                                               order=n, valuation=1)
            got, want = q.reversion(), fraction_reversion(q)
            if extremal:
                bound = series._reversion_bound([int(c) for c in q.coeff_list()[1:]], n)
                assert got.coeff(n - 1) == bound, (n, q)
        assert got == want, (i, got, want)
        assert got.order == want.order
    return cases


def run_padic_axioms(cases_per_prime: int, seed: int = 20240507,
                     primes=(2, 3, 5, 7, 11, 13)) -> int:
    """v_p(xy) = v_p(x) + v_p(y), ultrametric inequality, equality case."""
    rng = random.Random(seed)
    total = 0
    for p in primes:
        for _ in range(cases_per_prime):
            x = F(rng.randint(-400, 400), rng.randint(1, 400))
            y = F(rng.randint(-400, 400), rng.randint(1, 400))
            vx, vy = valuation(x, p).value, valuation(y, p).value
            assert valuation(x * y, p).value == vx + vy
            vs = valuation(x + y, p).value
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)
            total += 1
    return total


def run_mobius_roundtrip(cases: int, seed: int = 20240508) -> int:
    """lambert_expand then instanton_extract recovers the input table."""
    rng = random.Random(seed)
    for _ in range(cases):
        dmax = rng.randint(1, 12)
        numbers = [rand_frac(rng, 40, 12) for _ in range(dmax + 1)]
        order = dmax + 1 + rng.randint(0, 3)
        y = lambert_expand(numbers, order)
        got = instanton_extract(y, dmax)
        assert list(got.numbers) == numbers
    return cases


def reference_dwork(mm: MirrorMap, p: int, order: int) -> DworkCertificate:
    """Dwork certificate by the exp path: the verdict is read from
    exp(p h) - 1 at floor 1, and exp(p h) u^p = u(t^p) is re-verified for
    this prime alone."""
    u = mm.unit_part.truncate(order)
    log_u = (mm.dlog_q - 1).delta_antiderivative().truncate(order)
    p_h = frobenius_substitute(log_u, p, max_order=order) - p * log_u
    e = exp_series(p_h)
    failure = _first_violation(e - 1, p, 1)
    verified = (e * u.pow_int(p)).agrees_with(frobenius_substitute(u, p, max_order=order))
    return DworkCertificate(prime=p, order=e.order, witness=p_h * F(1, p),
                            verdict=failure is None, failure=failure,
                            witness_verified=verified)


def _check_dwork(mm: MirrorMap, p: int, n: int):
    """Certify mm and demand the exp-path reference certificate field for
    field.  Dwork's lemma, for every p: the verdict holds exactly when the
    witness is p-integral, and a failure sits at the witness's first
    non-integral coefficient with one more unit of valuation."""
    cert = dwork_certify(mm, p, n)
    assert cert == reference_dwork(mm, p, n), (p, mm.q_of_t, mm.dlog_q)
    loc = _first_violation(cert.witness, p, 0)
    assert cert.verdict == (loc is None), (p, mm.q_of_t)
    if loc is not None:
        assert cert.failure == FailureLocus(loc.index, loc.valuation + 1)
    return cert


def _check_dwork_unit(u: RationalSeries, p: int, n: int):
    """_check_dwork on the map of u, whose witness must also equal
    (1/p) log(u(t^p) u^-p) built directly from u."""
    cert = _check_dwork(mirror_from_unit(u), p, n)
    v = frobenius_substitute(u, p, max_order=n) * u.pow_int(p).invert() - 1
    assert cert.witness == log_series(1 + v) * F(1, p), (p, u)
    return cert


def run_dwork_soundness(cases: int, seed: int = 20240509) -> int:
    """Integral unit parts certify; a planted p-power denominator at an
    index prime to p is always caught; a tampered dlog_q is never
    re-verified; every certificate equals the exp-path reference and every
    untampered witness the direct log(u(t^p)/u^p)/p."""
    rng = random.Random(seed)
    primes = (2, 3, 5, 7)
    for i in range(cases):
        p = primes[i % len(primes)]
        n = rng.randint(4, 10)
        u = rand_one_plus_integral(rng, n)
        cert = _check_dwork_unit(u, p, n)
        assert cert.verdict, (p, u)
        assert cert.witness_verified
        j = rng.randint(1, n - 1)
        while j % p == 0:
            j = rng.randint(1, n - 1)
        c = rng.randint(1, p - 1) if p > 2 else 1
        bad = u + RationalSeries.monomial(F(c, p ** rng.randint(1, 3)), j, n)
        cert_bad = _check_dwork_unit(bad, p, n)
        assert not cert_bad.verdict, (p, j, bad)
        assert cert_bad.failure is not None and cert_bad.failure.index >= j
        mm = mirror_from_unit(rng.choice((u, bad)))
        k = rng.randint(1, n - 1)
        tamper = RationalSeries.monomial(rand_frac(rng) or 1, k, mm.dlog_q.order)
        cert_t = _check_dwork(mm._replace(dlog_q=mm.dlog_q + tamper), p, n)
        assert not cert_t.witness_verified, (p, k, mm.q_of_t)
    return cases


def frobenius_difference(y: RationalSeries, p: int) -> RationalSeries:
    """b = Y(q) - Y(q^p) at the order of y."""
    return y - frobenius_substitute(y, p, max_order=y.order)


def run_ksv_integrality_equivalence(cases: int, seed: int = 20240510) -> int:
    """ksv_certify passes exactly when every n_d below the order is
    p-integral, and its witness psi solves delta^3 psi = Y(q) - Y(q^p)."""
    rng = random.Random(seed)
    primes = (2, 3, 5, 7, 11)
    for i in range(cases):
        p = primes[i % len(primes)]
        order = rng.randint(4, 12)
        dmax = order - 1
        numbers = [F(rng.randint(-30, 30)) for _ in range(dmax + 1)]
        planted = rng.random() < 0.5
        if planted:
            j = rng.randint(1, dmax)
            e = rng.randint(1, 2)
            c = 1 + rng.randint(0, p - 2) if p > 2 else 1
            numbers[j] += F(c, p ** e)
        y = lambert_expand(numbers, order)
        cert = ksv_certify(y, p, order)
        integral = all(valuation(nd, p).value >= 0 for nd in numbers[1:])
        assert cert.verdict == integral, (p, numbers)
        assert cert.witness.delta().delta().delta() == frobenius_difference(y, p)
        extracted = instanton_extract(y, dmax)
        assert (min(valuation(nd, p).value for nd in extracted.numbers[1:])
                >= 0) == cert.verdict
    return cases


def run_gauge_ksv_agreement(cases: int, seed: int = 20240511) -> int:
    """psi == -(1/2) m14 always, delta^3 psi = b and the four defining
    relations hold exactly on the returned series, and for
    odd p (every admissible prime is > rank >= 2) the gauge verdict
    matches the direct criterion.  At p = 2 the factor -2 in m14 donates
    one valuation unit, so only the witness identity is asserted there.
    """
    rng = random.Random(seed)
    primes = (2, 3, 5, 7, 11)
    for i in range(cases):
        p = primes[i % len(primes)]
        order = rng.randint(4, 10)
        numbers = [rand_frac(rng, 20, 6) for _ in range(order)]
        y = lambert_expand(numbers, order)
        ksv = ksv_certify(y, p, order)
        gauge = gauge_certify(y, p, order)
        assert ksv.witness == gauge.m14 * F(-1, 2)
        b = frobenius_difference(y, p)
        assert ksv.witness.delta().delta().delta() == b
        assert gauge.m23.delta() == b
        assert gauge.m23 == -gauge.m13.delta()
        assert gauge.m14.delta() == 2 * gauge.m13
        assert gauge.m14.delta().delta().delta() * F(1, 2) == -b
        if p != 2:
            assert gauge.verdict == ksv.verdict, (p, numbers)
    return cases
