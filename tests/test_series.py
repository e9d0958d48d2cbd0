"""Truncated rational power series: pinned values, errors, the
multimodular kernel, and the randomized algebraic property suites."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import mirrorint
from mirrorint import (
    CRTMismatch,
    CompositionValuation,
    ExpConstantTerm,
    LogConstantTerm,
    LogSeries,
    RationalSeries,
    ReversionValuation,
    SeriesError,
    ZeroLeadingCoefficient,
    exp_series,
    fixture_operator,
    frobenius_solutions,
    is_prime,
    load_operator_json,
    log_series,
    mirror_map,
    run_pipeline,
)
from mirrorint import series

import helpers

F = Fraction


def S(coeffs, order=None, valuation=0):
    return RationalSeries.from_coeffs(coeffs, order=order, valuation=valuation)


class TestConstruction:
    def test_normalization_strips_leading_zeros(self):
        s = S([0, 0, 3, 4], order=5)
        assert s.val == 2
        assert s.coeff_list(5) == [0, 0, F(3), F(4), 0]
        assert s.order == 5

    def test_zero_sentinel(self):
        z = S([0, 0], order=4)
        assert z.is_zero()
        assert z.val == z.order == 4
        assert z == RationalSeries.zero(4)

    def test_monomial_and_identity(self):
        t = RationalSeries.identity(6)
        assert t == RationalSeries.monomial(1, 1, 6)
        assert t.val == 1 and t.coeff(1) == 1

    def test_coeff_beyond_order_raises(self):
        s = S([1, 2], order=2)
        assert s.coeff(1) == 2
        with pytest.raises(SeriesError):
            s.coeff(2)

    def test_from_polynomial(self):
        s = RationalSeries.from_polynomial([1, -3125], 3)
        assert s.coeff(0) == 1 and s.coeff(1) == -3125 and s.coeff(2) == 0

    def test_short_order_truncates_content(self):
        s = S([1, 2, 3], order=2)
        assert s.order == 2
        assert s.coeff_list(2) == [1, 2]


class TestAdd:
    def test_cancellation(self):
        # (t + t^2) + (-t) leaves t^2 at the shared order
        a = S([1, 1], order=3, valuation=1)
        b = S([-1], order=3, valuation=1)
        got = a + b
        assert got == S([1], order=3, valuation=2)
        assert got.val == 2

    def test_precision_is_min(self):
        one5 = RationalSeries.one(5)
        zero2 = RationalSeries.zero(2)
        got = one5 + zero2
        assert got.order == 2
        assert got.coeff(0) == 1

    def test_symmetric_cancellation(self):
        a = S([1, 120], order=4)
        b = S([1, -120], order=4)
        assert a + b == S([2], order=4)

    def test_scalar_add(self):
        assert S([1, 1], order=3) + 1 == S([2, 1], order=3)
        assert 1 + S([1, 1], order=3) == S([2, 1], order=3)


class TestMul:
    def test_difference_of_squares(self):
        a = S([1, 1], order=3)
        b = S([1, -1], order=3)
        assert a * b == S([1, 0, -1], order=3)

    def test_monomial_product_valuation(self):
        t = RationalSeries.identity(2)
        sq = t * t
        assert sq.val == 2
        assert sq.coeff(2) == 1

    def test_holomorphic_solution_square(self):
        a = S([1, 120, 113400], order=3)
        assert a * a == S([1, 240, 241200], order=3)

    def test_pow_int(self):
        a = S([1, 1], order=5)
        assert a.pow_int(4) == S([1, 4, 6, 4, 1], order=5)
        assert a.pow_int(0) == RationalSeries.one(5)
        with pytest.raises(ValueError):
            a.pow_int(-1)


class TestInvert:
    def test_geometric(self):
        assert S([1, -1], order=4).invert() == S([1, 1, 1, 1], order=4)

    def test_one(self):
        assert RationalSeries.one(3).invert() == RationalSeries.one(3)

    def test_quintic_discriminant_factor(self):
        got = S([1, -3125], order=3).invert()
        assert got == S([1, 3125, 9765625], order=3)

    def test_zero_constant_rejected(self):
        with pytest.raises(ZeroLeadingCoefficient):
            RationalSeries.identity(4).invert()


class TestCompose:
    def test_geometric_in_t_squared(self):
        outer = S([1, 1, 1, 1, 1], order=5)
        inner = RationalSeries.monomial(1, 2, 5)
        assert outer.compose(inner) == S([1, 0, 1, 0, 1], order=5)

    def test_identity_substitution(self):
        f = S([2, -3, F(1, 2), 7], order=4)
        assert f.compose(RationalSeries.identity(4)) == f

    def test_self_composition(self):
        f = S([1, 1], order=4, valuation=1)
        assert f.compose(f) == S([1, 2, 2], order=4, valuation=1)

    def test_nonzero_constant_inner_rejected(self):
        f = S([1, 1], order=3)
        with pytest.raises(CompositionValuation):
            f.compose(S([1, 1], order=3))


class TestReversion:
    def test_identity(self):
        t = RationalSeries.identity(5)
        assert t.reversion() == t

    def test_quadratic(self):
        got = S([1, 1], order=3, valuation=1).reversion()
        assert got == S([1, -1], order=3, valuation=1)

    def test_mirror_map_leading_behavior(self):
        got = S([1, 770], order=3, valuation=1).reversion()
        assert got == S([1, -770], order=3, valuation=1)

    def test_wrong_valuation_rejected(self):
        with pytest.raises(ReversionValuation):
            S([1, 1], order=3).reversion()
        with pytest.raises(ReversionValuation):
            RationalSeries.monomial(1, 2, 5).reversion()
        with pytest.raises(ReversionValuation):
            RationalSeries.zero(4).reversion()


class TestExpLog:
    def test_exp_small(self):
        got = exp_series(RationalSeries.identity(4))
        assert got == S([1, 1, F(1, 2), F(1, 6)], order=4)

    def test_log_small(self):
        got = log_series(S([1, 1], order=4))
        assert got == S([0, 1, F(-1, 2), F(1, 3)], order=4)

    def test_exp_mirror_ratio(self):
        got = exp_series(S([770], order=3, valuation=1))
        assert got == S([1, 770, 296450], order=3)

    def test_exp_requires_positive_valuation(self):
        with pytest.raises(ExpConstantTerm):
            exp_series(S([1, 1], order=3))

    def test_log_requires_unit_one(self):
        with pytest.raises(LogConstantTerm):
            log_series(S([2, 1], order=3))
        with pytest.raises(LogConstantTerm):
            log_series(RationalSeries.identity(3))

    def test_exp_of_sum_is_product(self):
        a = S([1, 2], order=5, valuation=1)
        b = S([-3, 5], order=5, valuation=1)
        assert exp_series(a + b) == exp_series(a) * exp_series(b)


class TestDelta:
    def test_multiplies_by_exponent(self):
        f = S([1, 0, 1], order=4, valuation=1)
        assert f.delta() == S([1, 0, 3], order=4, valuation=1)

    def test_antiderivative_inverts_delta(self):
        f = S([5, -7, F(2, 3)], order=4, valuation=1)
        assert f.delta().delta_antiderivative() == f

    def test_antiderivative_rejects_constant(self):
        with pytest.raises(SeriesError):
            S([1, 1], order=3).delta_antiderivative()


class TestLogSeries:
    def test_delta_of_plain_log(self):
        # delta(L) = 1
        ls = LogSeries((RationalSeries.zero(4), RationalSeries.one(4)))
        got = ls.delta()
        assert got.log_degree == 0
        assert got.part(0) == RationalSeries.one(4)

    def test_leibniz_symbolic_shape(self):
        # delta(y0*L + g) = (delta y0)*L + y0 + delta g
        y0 = S([1, 120, 113400], order=3)
        g = S([770, F(1, 2)], order=3, valuation=1)
        ls = LogSeries((g, y0))
        got = ls.delta()
        assert got.part(1) == y0.delta()
        assert got.part(0) == y0 + g.delta()

    def test_top_zero_parts_trimmed(self):
        ls = LogSeries((RationalSeries.one(3), RationalSeries.zero(3)))
        assert ls.log_degree == 0

    def test_add_and_scale(self):
        a = LogSeries((S([1], order=3), S([2], order=3)))
        b = LogSeries((S([0, 1], order=3),))
        tot = a + b
        assert tot.part(0) == S([1, 1], order=3)
        assert tot.part(1) == S([2], order=3)
        assert a.scale(F(1, 2)).part(1) == S([1], order=3)


class TestPrecisionTracking:
    def test_mul_order_formula(self):
        a = S([1, 1], order=6, valuation=1)
        b = S([1], order=3)
        # min(a.order + b.val, a.val + b.order) = min(6, 4) = 4
        assert (a * b).order == 4

    def test_truncate_only_reduces(self):
        s = S([1, 2, 3], order=3)
        assert s.truncate(2).order == 2
        assert s.truncate(5).order == 3

    def test_shift(self):
        s = S([1, 2], order=3)
        up = s.shift(2)
        assert up.val == 2 and up.order == 5
        assert up.shift(-2) == s


def _count_paths(monkeypatch):
    """Count calls of the two multimodular entry points (they still run)."""
    calls = Counter()
    for name in ("_compose_multimodular", "_reversion_multimodular"):
        def counted(*args, _orig=getattr(series, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(series, name, counted)
    return calls


def _ints(s):
    return [int(c) for c in s.coeff_list()]


class TestMultimodularBound:
    def test_short_prime_list_is_caught(self, monkeypatch):
        # on the extremal inputs the top coefficient equals the bound, so a
        # prime list one short of it rebuilds a wrong coefficient, which the
        # check prime catches
        f, g = helpers.extremal_compose_inputs(40, 3, 5, 7)
        q = helpers.extremal_reversion_input(40, 9)
        want_y, want_t = helpers.fraction_compose(f, g), helpers.fraction_reversion(q)
        assert f.compose(g) == want_y
        assert q.reversion() == want_t
        full = series._moduli_for
        assert len(full(series._compose_bound(_ints(f), _ints(g), 40))) >= 2
        assert len(full(series._reversion_bound(_ints(q)[1:], 40))) >= 2
        monkeypatch.setattr(series, "_moduli_for",
                            lambda bound, den=1: full(bound, den)[:-1])
        with pytest.raises(CRTMismatch, match="check prime"):
            f.compose(g)
        with pytest.raises(CRTMismatch, match="check prime"):
            q.reversion()

    def test_den_multiple_is_attained(self):
        n = 40
        q, f, g = helpers.den_extremal_inputs(n)
        t, y = q.reversion(), f.compose(g)
        assert t == helpers.fraction_reversion(q)
        assert y == helpers.fraction_compose(f, g)
        assert y.coeff(n - 1) == F(7, 6) ** (n - 2)
        assert math.lcm(*(c.denominator for c in t.coeffs)) == 2 ** (n - 2)
        assert math.lcm(*(c.denominator for c in y.coeffs)) == 6 ** (n - 2)
        assert series._den_multiple(q.coeff_list()[1:], n - 2) == 2 ** (n - 2)
        assert series._den_multiple(g.coeff_list()[1:], n - 2) == 6 ** (n - 2)
        # a rational outer series: the per-term multiple is attained
        f, g = helpers.per_term_den_inputs(n)
        y = f.compose(g)
        assert y == helpers.fraction_compose(f, g)
        assert math.lcm(*(c.denominator for c in y.coeffs)) == 2 ** (n - 1)
        vs, dens = g.coeff_list()[1:], [c.denominator for c in f.coeffs]
        assert series._den_multiple(vs, n - 2, dens[1:]) == 2 ** (n - 1)
        assert series._den_multiple(vs, n - 2) * math.lcm(*dens) == 2 ** 68

    @pytest.mark.parametrize("ell", [2, 3])
    def test_short_den_multiple_is_caught(self, monkeypatch, ell):
        # the extremal inputs with one factor ell taken out of D: the kernel
        # rebuilds D * coefficient as an integer, which it no longer is, and
        # the check prime catches it
        q, f, g = helpers.den_extremal_inputs(40)
        f2, g2 = helpers.per_term_den_inputs(40)
        want_t, want_y = helpers.fraction_reversion(q), helpers.fraction_compose(f, g)
        assert q.reversion() == want_t and f.compose(g) == want_y
        assert f2.compose(g2) == helpers.fraction_compose(f2, g2)
        full = series._den_multiple
        monkeypatch.setattr(series, "_den_multiple",
                            lambda vs, s, *weights: full(vs, s, *weights) // ell)
        with pytest.raises(CRTMismatch, match="check prime"):
            f.compose(g)
        if ell == 2:
            with pytest.raises(CRTMismatch, match="check prime"):
                q.reversion()
            with pytest.raises(CRTMismatch, match="check prime"):
                f2.compose(g2)

    @pytest.mark.parametrize("name", ["quintic", "x2222"])
    def test_bound_covers_pipeline_series(self, name):
        order = 60
        result = run_pipeline(fixture_operator(name), order)
        mm, y_q = result.mm, result.yukawa.y_q
        u = _ints(mm.q_of_t)[1:]
        t_max = max(abs(c.numerator) for c in mm.t_of_q.coeffs)
        assert series._reversion_bound(u, order) >= t_max
        # the yukawa_q composition, as yukawa.yukawa_q forms it
        y0 = result.basis.holomorphic
        outer = (result.yukawa.w_t
                 * (y0.pow_int(2) * mm.dlog_q.pow_int(3)).invert()).truncate(order)
        den = math.lcm(*(c.denominator for c in outer.coeffs))
        y_max = max(abs(int(c * den)) for c in y_q.coeffs)
        bound = series._compose_bound([int(c * den) for c in outer.coeff_list()],
                                      _ints(mm.t_of_q.truncate(order + 1)), order)
        assert bound >= y_max


class TestDispatch:
    # every input runs the kernel; these are the shapes that are not an
    # integral t + O(t^2)
    @pytest.mark.parametrize("inner", [
        S([1, F(1, 2), 3], order=6, valuation=1),   # non-integral coefficient
        S([2, 1, 3], order=6, valuation=1),         # leading coefficient 2
        S([1, 1, 3], order=6, valuation=2),         # valuation 2
    ])
    def test_fraction_path_inputs(self, monkeypatch, inner):
        outer = S([1, 2, 3, 4, 5, 6])
        calls = _count_paths(monkeypatch)
        assert outer.compose(inner) == helpers.fraction_compose(outer, inner)
        if inner.val == 1:
            assert inner.reversion() == helpers.fraction_reversion(inner)
            assert calls == {"_compose_multimodular": 1, "_reversion_multimodular": 1}
        else:
            assert calls == {"_compose_multimodular": 1}

    def test_rational_q_takes_fraction_path(self, monkeypatch):
        # a q(t) with denominators, reverted and composed on the kernel
        op = load_operator_json(json.dumps(helpers.RAND0_0))
        q = mirror_map(frobenius_solutions(op, 16)).q_of_t
        assert any(c.denominator != 1 for c in q.coeffs)
        calls = _count_paths(monkeypatch)
        t = q.reversion()
        assert t == helpers.fraction_reversion(q)
        qt = q.compose(t)
        assert qt == helpers.fraction_compose(q, t)
        assert qt.agrees_with(RationalSeries.identity(16))
        assert calls == {"_compose_multimodular": 1, "_reversion_multimodular": 1}

    def test_rational_outer_takes_modular_path(self, monkeypatch):
        outer = S([F(1, 3), F(-5, 7), F(2, 9), 4, F(1, 11)], order=5)
        inner = S([1, -2, 7, 1], order=5, valuation=1)
        calls = _count_paths(monkeypatch)
        assert outer.compose(inner) == helpers.fraction_compose(outer, inner)
        assert calls == {"_compose_multimodular": 1}


class TestModuli:
    def test_prime_list_is_pinned(self):
        ps = series._moduli_for(1 << 3000)
        assert ps[:3] == [4611686018427387847, 4611686018427387817, 4611686018427387787]
        assert len(set(ps)) == len(ps) >= 49
        assert all(p.bit_length() == 62 for p in ps)
        assert ps == sorted(ps, reverse=True)
        # the largest primes below 2^62: nothing prime is skipped
        gaps = range(ps[-1] + 1, 1 << 62)
        assert [c for c in gaps if c not in ps and is_prime(c)] == []
        assert math.prod(ps) > 2 << 3000
        assert math.prod(ps[:-1]) <= 2 << 3000

    @staticmethod
    def _child(code: str) -> str:
        """stdout of a fresh interpreter that runs `code` on this checkout."""
        root = str(Path(mirrorint.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_computes_no_prime(self):
        out = self._child("import mirrorint, mirrorint.series as s; print(len(s._MODULI))")
        assert out == "0\n"

    def test_cli_import_loads_no_dataclasses(self):
        # the records are NamedTuples: start-up pays for neither module
        out = self._child("import sys, mirrorint.cli; "
                          "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        assert out == "[]\n"


def test_modular_vs_fraction_property_suite(monkeypatch):
    calls = _count_paths(monkeypatch)
    assert helpers.run_modular_vs_fraction(1000) >= 1000
    # every reversion runs the kernel; so does every composition except the
    # 90 whose outer series is zero, which compose returns directly
    assert calls == {"_reversion_multimodular": 500, "_compose_multimodular": 410}


def test_ring_axioms_property_suite():
    assert helpers.run_ring_axioms(1000) >= 1000


def test_inversion_roundtrip_property_suite():
    assert helpers.run_inversion_roundtrip(1000) >= 1000


def test_reversion_roundtrip_property_suite():
    assert helpers.run_reversion_roundtrip(1000) >= 1000


def test_exp_log_inverse_property_suite():
    assert helpers.run_exp_log_inverse(1000) >= 1000


def test_delta_derivation_property_suite():
    assert helpers.run_delta_derivation(1000) >= 1000


def test_precision_soundness_property_suite():
    assert helpers.run_precision_soundness(1000) >= 1000
