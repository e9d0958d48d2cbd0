"""Operator loading, Frobenius solution basis, monodromy, mirror map.

Oracle values for the quintic come from the closed form (5n)!/(n!)^5 and
hand derivations recorded inline; they are computed here independently of
the recursion under test.
"""

import json
import math
from fractions import Fraction

import pytest

from mirrorint import (
    LogSeries,
    MalformedSpec,
    MirrorMap,
    NotMUM,
    RationalSeries,
    SolutionBasis,
    fixture_operator,
    frobenius_solutions,
    load_operator,
    load_operator_json,
    mirror_map,
    monodromy_matrix,
    residual,
)

import helpers

F = Fraction


def S(coeffs, order=None, valuation=0):
    return RationalSeries.from_coeffs(coeffs, order=order, valuation=valuation)


def quintic_y0_oracle(n: int) -> int:
    # holomorphic period of the quintic: (5n)!/(n!)^5
    return math.factorial(5 * n) // math.factorial(n) ** 5


def binomial_fourth_oracle(n: int) -> int:
    # holomorphic period of the (2,2,2,2) complete intersection: C(2n,n)^4
    return math.comb(2 * n, n) ** 4


QUINTIC = fixture_operator("quintic")
X2222 = fixture_operator("x2222")


class TestLoadOperator:
    def test_quintic_polynomials(self):
        assert QUINTIC.rank == 4
        assert QUINTIC.coeffs == ((0, -120), (0, -1250), (0, -4375),
                                  (0, -6250), (1, -3125))
        assert QUINTIC.n0 == 5

    def test_nonzero_indicial_constant_rejected(self):
        doc = {"name": "bad", "rank": 2,
               "delta_coefficients": [[1], [0], [1]]}
        with pytest.raises(NotMUM) as ei:
            load_operator(doc)
        assert "a_0" in str(ei.value)

    def test_unnormalized_leading_coefficient_rejected(self):
        doc = {"name": "bad", "rank": 2,
               "delta_coefficients": [[0, 1], [0], [2]]}
        with pytest.raises(NotMUM) as ei:
            load_operator(doc)
        assert "a_2" in str(ei.value)

    def test_missing_field_rejected(self):
        with pytest.raises(MalformedSpec):
            load_operator({"name": "x", "rank": 2})

    def test_wrong_polynomial_count_rejected(self):
        doc = {"name": "x", "rank": 3,
               "delta_coefficients": [[0, 1], [0], [1]]}
        with pytest.raises(MalformedSpec):
            load_operator(doc)

    def test_rank_below_two_rejected(self):
        doc = {"name": "x", "rank": 1, "delta_coefficients": [[0, 1], [1]]}
        with pytest.raises(MalformedSpec):
            load_operator(doc)

    def test_string_integers_accepted(self):
        doc = {"name": "big", "rank": 2,
               "delta_coefficients": [["0", "-1"], ["0", "-2"],
                                      ["1", "-90071992547409931"]],
               "n0": "4"}
        op = load_operator(doc)
        assert op.coeffs[2][1] == -90071992547409931
        assert op.n0 == 4

    def test_bool_is_not_an_integer(self):
        doc = {"name": "x", "rank": 2,
               "delta_coefficients": [[0, True], [0, 1], [1]]}
        with pytest.raises(MalformedSpec):
            load_operator(doc)

    def test_json_text_path(self):
        op = load_operator_json(json.dumps({
            "name": "tiny", "rank": 2,
            "delta_coefficients": [[0, -1], [0, -2], [1, -1]]}))
        assert op.name == "tiny"
        with pytest.raises(MalformedSpec):
            load_operator_json("{not json")


class TestFrobeniusSolutions:
    def test_quintic_holomorphic_against_closed_form(self):
        basis = frobenius_solutions(QUINTIC, 12)
        y0 = basis.holomorphic
        for n in range(12):
            assert y0.coeff(n) == quintic_y0_oracle(n)

    def test_x2222_holomorphic_against_closed_form(self):
        basis = frobenius_solutions(X2222, 10)
        for n in range(10):
            assert basis.holomorphic.coeff(n) == binomial_fourth_oracle(n)

    def test_quintic_single_log_coefficient(self):
        # A1'(0) for prod((5r+j)/(r+1)^5): 120*(5*H5 - 5) = 770
        basis = frobenius_solutions(QUINTIC, 3)
        assert basis.gs[1].coeff(1) == 770

    def test_normalization(self):
        for op in (QUINTIC, X2222):
            basis = frobenius_solutions(op, 5)
            assert basis.gs[0].coeff(0) == 1
            for g in basis.gs[1:]:
                assert g.val >= 1

    def test_solution_log_structure(self):
        basis = frobenius_solutions(QUINTIC, 6)
        for k in range(4):
            y = basis.solution(k)
            assert y.log_degree == k
            for j in range(k + 1):
                assert y.part(j) == basis.gs[k - j] * F(1, math.factorial(j))

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            frobenius_solutions(QUINTIC, 1)


class TestResidual:
    def test_all_solutions_annihilated(self):
        basis = frobenius_solutions(QUINTIC, 9)
        for y in basis.solutions:
            assert residual(QUINTIC, y).is_zero()

    def test_non_solution_detected(self):
        t = LogSeries((RationalSeries.identity(8),))
        assert not residual(QUINTIC, t).is_zero()

    def test_linearity(self):
        basis = frobenius_solutions(QUINTIC, 8)
        combined = basis.solution(0) + basis.solution(1)
        assert residual(QUINTIC, combined).is_zero()


class TestMonodromy:
    def test_shift_matrix_entries(self):
        basis = frobenius_solutions(QUINTIC, 6)
        mono = monodromy_matrix(basis)
        assert mono.size == 4
        for k in range(4):
            for j in range(4):
                expect = 1 if j == k - 1 else 0
                assert mono.entries[k][j] == expect

    def test_rank_profile(self):
        mono = monodromy_matrix(frobenius_solutions(QUINTIC, 6))
        assert mono.rank_of_power(1) == 3
        assert mono.rank_of_power(2) == 2
        assert mono.rank_of_power(3) == 1
        assert mono.rank_of_power(4) == 0

    def test_rank_two_case(self):
        doc = {"name": "tiny", "rank": 2,
               "delta_coefficients": [[0, -1], [0, -2], [1, -1]]}
        mono = monodromy_matrix(frobenius_solutions(load_operator(doc), 6))
        assert mono.size == 2
        assert mono.rank_of_power(1) == 1
        assert mono.rank_of_power(2) == 0


class TestMirrorMap:
    def test_quintic_low_order(self):
        mm = mirror_map(frobenius_solutions(QUINTIC, 3))
        assert mm.q_of_t.truncate(3) == S([1, 770], order=3, valuation=1)

    def test_quintic_frozen_prefix(self):
        mm = mirror_map(frobenius_solutions(QUINTIC, 5))
        assert mm.q_of_t.coeff_list(5) == [0, 1, 770, 1014275, 1703916750]

    def test_trivial_extension_gives_identity(self):
        base = frobenius_solutions(QUINTIC, 5)
        degenerate = SolutionBasis(
            operator=base.operator, order=5,
            gs=(RationalSeries.one(5), RationalSeries.zero(5)) + base.gs[2:])
        mm = mirror_map(degenerate)
        assert mm.q_of_t == RationalSeries.identity(6)

    def test_gauge_and_small_monodromy(self):
        mm = mirror_map(frobenius_solutions(QUINTIC, 8))
        assert mm.monodromy_index == 1
        assert mm.q_of_t.val == 1
        assert mm.unit_part.constant_term() == 1

    def test_round_trip_order_50(self):
        mm = mirror_map(frobenius_solutions(QUINTIC, 50))
        ident = RationalSeries.identity(51)
        assert mm.q_of_t.compose(mm.t_of_q) == ident
        assert mm.t_of_q.compose(mm.q_of_t) == ident

    def test_dlog_q_matches_logarithmic_derivative(self):
        mm = mirror_map(frobenius_solutions(QUINTIC, 12))
        # delta(q)/q recomputed from q itself
        direct = mm.q_of_t.delta().shift(-1) * mm.unit_part.invert()
        assert mm.dlog_q.agrees_with(direct)

    def test_quintic_denominator_support(self):
        mm = mirror_map(frobenius_solutions(QUINTIC, 40))
        for c in mm.q_of_t.coeff_list(41):
            d = F(c).denominator
            for p in (2, 3, 5):
                while d % p == 0:
                    d //= p
            assert d == 1, c

    def test_from_q_constructor(self):
        q = S([1, -3, F(5, 2)], order=6, valuation=1)
        mm = MirrorMap.from_q(q)
        assert mm.q_of_t == q
        assert q.compose(mm.t_of_q) == RationalSeries.identity(6)
        with pytest.raises(ValueError):
            MirrorMap.from_q(S([2, 1], order=4, valuation=1))


def test_residuals_vanish_for_all_fixture_solutions():
    for name in ("quintic", "x2222"):
        op = fixture_operator(name)
        basis = frobenius_solutions(op, 7)
        for y in basis.solutions:
            assert residual(op, y).is_zero(), name
