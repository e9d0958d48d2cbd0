"""Acceptance suite.

Each criterion prints exactly one line

    [acceptance] criterion N (<name>): PASS|FAIL

run with `pytest tests/test_acceptance.py -v -s` to see them live.  The
shared order-100 quintic pipeline is computed once; its stage wall times
feed the runtime budgets.
"""

import math
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mirrorint import (
    RationalSeries,
    denominator_support,
    dwork_certify,
    exp_series,
    fixture_names,
    fixture_operator,
    frobenius_solutions,
    gauge_certify,
    instanton_extract,
    ksv_certify,
    lambert_expand,
    mirror_map,
    monodromy_matrix,
    residual,
    yukawa_q,
    yukawa_t,
)
from mirrorint.picard_fuchs import MirrorMap

import helpers

F = Fraction


def _run(number, name, body):
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def quintic100():
    op = fixture_operator("quintic")
    times = {}
    t0 = time.perf_counter()
    basis = frobenius_solutions(op, 100)
    times["basis"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    mm = mirror_map(basis)
    times["mirror"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    w_t = yukawa_t(op, op.n0, 100)
    y_q = yukawa_q(w_t, basis.holomorphic, mm, 100)
    times["yukawa"] = time.perf_counter() - t0
    inst = instanton_extract(y_q, 16)
    return SimpleNamespace(op=op, basis=basis, mm=mm, w_t=w_t, y_q=y_q,
                           inst=inst, times=times)


def test_criterion_1_quintic_periods():
    def body():
        op = fixture_operator("quintic")
        t0 = time.perf_counter()
        basis = frobenius_solutions(op, 31)
        elapsed = time.perf_counter() - t0
        for n in range(31):
            want = math.factorial(5 * n) // math.factorial(n) ** 5
            assert basis.holomorphic.coeff(n) == want, n
        assert elapsed < 5.0, f"period computation took {elapsed:.2f}s"

    _run(1, "quintic periods vs (5n)!/(n!)^5, n <= 30", body)


def test_criterion_2_mirror_map(quintic100):
    def body():
        q = quintic100.mm.q_of_t
        assert q.coeff(1) == 1
        assert q.coeff(2) == 770
        support = denominator_support([q.coeff(m) for m in range(1, 101)])
        assert set(support) <= {2, 3, 5}, support
        elapsed = quintic100.times["basis"] + quintic100.times["mirror"]
        assert elapsed < 60.0, f"mirror map took {elapsed:.2f}s"

    _run(2, "mirror map 770 exact, order-100 support in {2,3,5}", body)


def test_criterion_3_instanton_numbers(quintic100):
    def body():
        assert quintic100.inst.n(1) == 2875
        assert quintic100.inst.n(2) == 609250
        assert quintic100.inst.n(3) == 317206375
        # re-verify at two truncation orders via independent pipeline runs
        per_order = []
        for order in (20, 28):
            op = quintic100.op
            basis = frobenius_solutions(op, order)
            mm = mirror_map(basis)
            w = yukawa_t(op, op.n0, order)
            y = yukawa_q(w, basis.holomorphic, mm, order)
            inst = instanton_extract(y, 3)
            per_order.append(tuple(inst.numbers))
            # Lambert round trip at this truncation
            full = instanton_extract(y, order - 1)
            assert lambert_expand(full.numbers, order) == y
        assert per_order[0] == per_order[1] == (5, 2875, 609250, 317206375)

    _run(3, "n_1, n_2, n_3 exact at two truncation orders", body)


def test_criterion_4_n_integrality_desk_scale(quintic100):
    def body():
        numbers = quintic100.inst.numbers
        assert len(numbers) == 17
        support = denominator_support(numbers)
        assert set(support) <= {2, 3, 5}, support
        # observed strengthening: the table is plainly integral
        assert support == ()

    _run(4, "n_d in Z[1/30] for d <= 16", body)


def test_criterion_5_certification(quintic100):
    def body():
        t0 = time.perf_counter()
        for p in (7, 11, 13):
            dwork = dwork_certify(quintic100.mm, p, 100)
            ksv = ksv_certify(quintic100.y_q, p, 100)
            gauge = gauge_certify(quintic100.y_q, p, 100)
            assert dwork.verdict and dwork.witness_verified, p
            assert ksv.verdict and ksv.witness_verified, p
            assert gauge.verdict and gauge.relations_verified, p
        cert_time = time.perf_counter() - t0
        total = cert_time + sum(quintic100.times.values())
        assert total < 120.0, f"certification chain took {total:.2f}s"

    _run(5, "p in {7,11,13} certificates at order 100", body)


def test_criterion_6_negative_controls():
    def body():
        # planted n_p = 1/p^3 must fail the KSV test exactly at index p
        for p in (5, 7):
            numbers = [F(0)] * (p + 1)
            numbers[p] = F(1, p ** 3)
            y = lambert_expand(numbers, p + 3)
            cert = ksv_certify(y, p, p + 3)
            assert not cert.verdict
            assert cert.failure.index == p
        # q = t*exp(t) must fail Dwork at p = 2, index 2
        q = exp_series(RationalSeries.identity(10)).shift(1).truncate(10)
        cert = dwork_certify(MirrorMap.from_q(q), 2, 9)
        assert not cert.verdict
        assert cert.failure.index == 2

    _run(6, "negative controls fail where planted", body)


def test_criterion_7_property_suites():
    def body():
        assert helpers.run_ring_axioms(1000) >= 1000
        assert helpers.run_reversion_roundtrip(1000) >= 1000
        assert helpers.run_delta_derivation(1000) >= 1000
        assert helpers.run_mobius_roundtrip(1000) >= 1000
        assert helpers.run_dwork_soundness(1000) >= 1000
        assert helpers.run_ksv_integrality_equivalence(1000) >= 1000
        assert helpers.run_gauge_ksv_agreement(1000) >= 1000

    _run(7, "seven property suites, >= 1000 cases each", body)


def test_criterion_8_structural_checks():
    def body():
        for name in fixture_names():
            op = fixture_operator(name)
            basis = frobenius_solutions(op, 12)
            mono = monodromy_matrix(basis)
            r = op.rank
            assert mono.rank_of_power(r) == 0, name
            assert mono.rank_of_power(r - 1) == 1, name
            assert mono.rank_of_power(r - 2) == 2, name
            for y in basis.solutions:
                assert residual(op, y).is_zero(), name

    _run(8, "fixture monodromy and residual structure", body)
