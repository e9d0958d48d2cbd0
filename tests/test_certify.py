"""Integrality certificates: Dwork, KSV, gauge system, and the report."""

import json
from fractions import Fraction

import pytest

from mirrorint import (
    MirrorMap,
    OrderMismatch,
    RationalSeries,
    denominator_support,
    dwork_certify,
    exp_series,
    fixture_operator,
    frobenius_solutions,
    gauge_certify,
    instanton_extract,
    ksv_certify,
    lambert_expand,
    load_operator_json,
    mirror_map,
    n_integrality_report,
    run_pipeline,
    yukawa_q,
    yukawa_t,
)

from mirrorint.certify import _first_violation

import helpers

F = Fraction


def S(coeffs, order=None, valuation=0):
    return RationalSeries.from_coeffs(coeffs, order=order, valuation=valuation)


def mm_from_q(q):
    return MirrorMap.from_q(q)


class TestDwork:
    def test_identity_map_passes_with_zero_witness(self):
        q = RationalSeries.identity(11)
        for p in (2, 3, 5, 7):
            cert = dwork_certify(mm_from_q(q), p, 10)
            assert cert.verdict
            assert cert.failure is None
            assert cert.witness.is_zero()
            assert cert.witness_verified

    def test_one_plus_t_unit_passes_at_two(self):
        q = S([1, 1], order=11, valuation=1)
        cert = dwork_certify(mm_from_q(q), 2, 10)
        assert cert.verdict
        assert cert.witness_verified

    def test_exp_unit_fails_at_two(self):
        # q = t * exp(t), so L = t and p h = L(t^2) - 2 L = t^2 - 2t, whose
        # t^2 coefficient 1 is the first with v_2 < 1
        q = exp_series(RationalSeries.identity(4)).shift(1).truncate(4)
        cert = dwork_certify(mm_from_q(q), 2, 3)
        assert not cert.verdict
        assert cert.failure.index == 2
        assert cert.failure.valuation == 0

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_support_prime_fails(self, p):
        # rand0_0's q has p in its denominators: Dwork fails where p first
        # enters the denominators of u = q/t, with a verified witness
        op = load_operator_json(json.dumps(helpers.RAND0_0))
        mm = mirror_map(frobenius_solutions(op, 20))
        enters = _first_violation(mm.unit_part, p, 0)
        assert enters is not None
        cert = dwork_certify(mm, p, 20)
        assert not cert.verdict
        assert cert.witness_verified
        assert cert.failure.index == enters.index

    def test_quintic_passes(self):
        mm = mirror_map(frobenius_solutions(fixture_operator("quintic"), 24))
        for p in (7, 11, 13):
            cert = dwork_certify(mm, p, 24)
            assert cert.verdict
            assert cert.witness_verified
            assert cert.kind == "dwork"

    def test_order_mismatch(self):
        q = S([1, 1], order=5, valuation=1)
        with pytest.raises(OrderMismatch):
            dwork_certify(mm_from_q(q), 2, 10)

    def test_tampered_dlog_q_fails_reverification(self):
        # the witness is built from dlog_q and re-verified against q(t)
        result = run_pipeline(fixture_operator("quintic"), 20, max_degree=4)
        bad = result.mm._replace(
            dlog_q=result.mm.dlog_q + RationalSeries.monomial(1, 3, 20))
        for mm, ok in ((result.mm, True), (bad, False)):
            report = n_integrality_report(
                operator_name="quintic", rank=4, order=20, mm=mm,
                y_q=result.yukawa.y_q, instantons=result.instantons,
                primes=(7, 11, 13))
            for entry in report.certificates:
                assert entry.dwork.witness_verified is ok
                assert entry.all_pass is ok
            assert report.consistent is ok

    def test_tamper_at_last_index_fails_reverification(self):
        # the once-per-map check must reach the coefficient of t^(order - 1)
        result = run_pipeline(fixture_operator("quintic"), 20, max_degree=4)
        bad = result.mm._replace(
            dlog_q=result.mm.dlog_q + RationalSeries.monomial(1, 19, 20))
        assert not dwork_certify(bad, 7, 20).witness_verified
        report = n_integrality_report(
            operator_name="quintic", rank=4, order=20, mm=bad,
            y_q=result.yukawa.y_q, instantons=result.instantons, primes=(7, 11, 13))
        assert not any(entry.dwork.witness_verified for entry in report.certificates)
        assert not report.consistent


class TestKSV:
    def test_constant_passes_with_zero_witness(self):
        cert = ksv_certify(S([5], order=8), 7, 8)
        assert cert.verdict
        assert cert.witness.is_zero()
        assert cert.witness_verified

    def test_geometric_lambert_passes(self):
        order = 20
        y = S([1] * (order - 1), order=order, valuation=1)
        for p in (3, 7):
            cert = ksv_certify(y, p, order)
            assert cert.verdict
            expected = [F(0)] * order
            for m in range(1, order):
                if m % p:
                    expected[m] = F(1, m ** 3)
            assert cert.witness == S(expected, order=order)

    def test_pth_power_alone_fails_at_p(self):
        for p in (2, 5):
            y = RationalSeries.monomial(1, p, p + 3)
            cert = ksv_certify(y, p, p + 3)
            assert not cert.verdict
            assert cert.failure.index == p
            assert cert.failure.valuation == -3

    def test_kind_label(self):
        assert ksv_certify(S([1], order=4), 3, 4).kind == "ksv"


class TestGauge:
    def test_constant_gives_zero_witnesses(self):
        cert = gauge_certify(S([9], order=7), 5, 7)
        assert cert.verdict
        assert cert.m13.is_zero() and cert.m23.is_zero() and cert.m14.is_zero()
        assert cert.relations_verified

    def test_geometric_lambert_at_seven(self):
        order = 15
        y = S([1] * (order - 1), order=order, valuation=1)
        cert = gauge_certify(y, 7, order)
        assert cert.verdict
        expected = [F(0)] * order
        for m in range(1, order):
            if m % 7:
                expected[m] = F(1, m)
        assert cert.m23 == S(expected, order=order)

    def test_relation_chain_on_random_integral_input(self):
        import random
        rng = random.Random(77)
        for _ in range(50):
            order = rng.randint(4, 9)
            numbers = [F(rng.randint(-9, 9)) for _ in range(order)]
            y = lambert_expand(numbers, order)
            cert = gauge_certify(y, 3, order)
            assert cert.relations_verified
            # (1/2) delta^3 m14 + (Y - Y(q^p)) == 0
            from mirrorint import frobenius_substitute
            b = y - frobenius_substitute(y, 3, max_order=order)
            half = cert.m14.delta().delta().delta() * F(1, 2)
            assert (half + b).is_zero()

    def test_per_series_verdicts_recorded(self):
        y = lambert_expand([0, F(1, 5)], 8)
        cert = gauge_certify(y, 5, 8)
        names = [v.name for v in cert.checks]
        assert names == ["m13", "m23", "m14"]
        assert not cert.verdict


class TestReport:
    def test_quintic_order_50(self):
        result = run_pipeline(fixture_operator("quintic"), 50, max_degree=8)
        report = n_integrality_report(
            operator_name="quintic", rank=4, order=50,
            mm=result.mm, y_q=result.yukawa.y_q,
            instantons=result.instantons, primes=(7, 11, 13))
        assert set(report.q_support) <= {2, 3, 5}
        assert report.instanton_support == ()
        assert report.primes_tested == (7, 11, 13)
        assert report.consistent
        for per_prime in report.certificates:
            assert per_prime.all_pass
            assert per_prime.dwork.witness_verified
            assert per_prime.ksv.witness_verified
            p = per_prime.prime
            # Dwork and KSV certificates have the same fields and compare as
            # tuples; kind is a class attribute, so it pins the record type
            kinds = (per_prime.dwork.kind, per_prime.ksv.kind, per_prime.gauge.kind)
            assert kinds == ("dwork", "ksv", "gauge")
            assert per_prime.dwork == dwork_certify(result.mm, p, 50)
            assert per_prime.ksv == ksv_certify(result.yukawa.y_q, p, 50)
            assert per_prime.gauge == gauge_certify(result.yukawa.y_q, p, 50)
        want_n = 1
        for p in sorted(set(report.q_support) | set(report.instanton_support)):
            want_n *= p
        assert report.n_observed == want_n

    def test_unverified_witness_is_not_a_pass(self):
        result = run_pipeline(fixture_operator("quintic"), 16, max_degree=4)
        report = n_integrality_report(
            operator_name="quintic", rank=4, order=16,
            mm=result.mm, y_q=result.yukawa.y_q,
            instantons=result.instantons, primes=(7,))
        entry = report.certificates[0]
        assert entry.all_pass
        tampered = (
            entry._replace(dwork=entry.dwork._replace(witness_verified=False)),
            entry._replace(ksv=entry.ksv._replace(witness_verified=False)),
            entry._replace(gauge=entry.gauge._replace(relations_verified=False)),
        )
        for t in tampered:
            assert t.dwork.verdict and t.ksv.verdict and t.gauge.verdict
            assert not t.all_pass

    def test_synthetic_bad_instanton_flagged(self):
        order = 12
        numbers = [F(0)] * 8
        numbers[7] = F(1, 7)
        y = lambert_expand(numbers, order)
        q = RationalSeries.identity(order + 1)
        report = n_integrality_report(
            operator_name="synthetic", rank=4, order=order,
            mm=mm_from_q(q), y_q=y,
            instantons=instanton_extract(y, 4), primes=(7,))
        assert not report.consistent
        entry = report.certificates[0]
        assert entry.prime == 7
        assert entry.dwork.verdict
        assert not entry.ksv.verdict
        assert entry.ksv.failure.index == 7
        assert entry.ksv == ksv_certify(y, 7, order)
        assert entry.gauge == gauge_certify(y, 7, order)

    def test_empty_prime_range(self):
        order = 10
        y = lambert_expand([0, 1, 1], order)
        q = RationalSeries.identity(order + 1)
        report = n_integrality_report(
            operator_name="bare", rank=4, order=order,
            mm=mm_from_q(q), y_q=y,
            instantons=instanton_extract(y, 2), primes=())
        assert report.certificates == ()
        assert report.primes_tested == ()
        assert report.consistent
        assert report.n_observed == 1

    def test_prime_bound_skips_small_and_support_primes(self):
        result = run_pipeline(fixture_operator("quintic"), 16, max_degree=4)
        report = n_integrality_report(
            operator_name="quintic", rank=4, order=16,
            mm=result.mm, y_q=result.yukawa.y_q,
            instantons=result.instantons, prime_bound=14)
        skipped = dict(report.primes_skipped)
        assert set(report.primes_tested) | set(skipped) == {2, 3, 5, 7, 11, 13}
        for p in (2, 3):
            assert p in skipped
        assert 13 in report.primes_tested


class TestDenominatorSupport:
    def test_collects_prime_factors(self):
        got = denominator_support([F(1, 12), F(3, 5), 7])
        assert got == (2, 3, 5)

    def test_integers_have_empty_support(self):
        assert denominator_support([1, 2, F(6, 3)]) == ()


def test_dwork_soundness_property_suite():
    assert helpers.run_dwork_soundness(1000) >= 1000


def test_ksv_integrality_equivalence_property_suite():
    assert helpers.run_ksv_integrality_equivalence(1000) >= 1000


def test_gauge_ksv_agreement_property_suite():
    assert helpers.run_gauge_ksv_agreement(1000) >= 1000
