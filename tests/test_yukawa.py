"""Yukawa coupling in both coordinates and instanton extraction.

The quintic W oracle is the closed form n0/(1 - 3125 t); the acceptance
suite pins the famous low-degree instanton numbers against the full
pipeline, while this module tests each stage in isolation.
"""

from fractions import Fraction

import pytest

from mirrorint import (
    InstantonSeries,
    InsufficientOrder,
    MirrorMap,
    NotRankFour,
    RationalSeries,
    SeriesError,
    fixture_operator,
    frobenius_solutions,
    instanton_extract,
    lambert_expand,
    load_operator,
    mirror_map,
    yukawa_q,
    yukawa_t,
)

import helpers

F = Fraction


def S(coeffs, order=None, valuation=0):
    return RationalSeries.from_coeffs(coeffs, order=order, valuation=valuation)


QUINTIC = fixture_operator("quintic")


def identity_mirror(order: int) -> MirrorMap:
    return MirrorMap.from_q(RationalSeries.identity(order).shift(0))


class TestYukawaT:
    def test_quintic_closed_form(self):
        w = yukawa_t(QUINTIC, 5, 12)
        # W * (1 - 3125 t) = 5 exactly
        assert w * S([1, -3125], order=12) == S([5], order=12)
        assert w.coeff_list(3) == [5, 15625, 48828125]

    def test_vanishing_subleading_gives_constant(self):
        # delta^4 - t*(delta+1)^2*(delta+3)^2 has a3 = -t*(... ) with the
        # right shape; build instead an explicit operator with a3 = 0
        doc = {"name": "a3zero", "rank": 4,
               "delta_coefficients": [[0, -1], [0, -2], [0, -1], [0], [1]]}
        op = load_operator(doc)
        assert yukawa_t(op, 3, 8) == S([3], order=8)

    def test_zero_constant_gives_zero(self):
        w = yukawa_t(QUINTIC, 0, 6)
        assert w.is_zero()

    def test_rank_enforced(self):
        doc = {"name": "tiny", "rank": 2,
               "delta_coefficients": [[0, -1], [0, -2], [1, -1]]}
        with pytest.raises(NotRankFour):
            yukawa_t(load_operator(doc), 1, 5)

    def test_non_integrable_rhs_rejected(self):
        # a3(0) != 0 cannot pass load_operator; on an operator built
        # directly the constant term of delta(log W) stops the antiderivative
        from mirrorint import PFOperator
        op = PFOperator(name="skew", rank=4,
                        coeffs=((0, -1), (0, -1), (0, -1), (1,), (1, -1)))
        with pytest.raises(SeriesError):
            yukawa_t(op, 1, 5)


class TestYukawaQ:
    def test_quintic_first_instanton_coefficient(self):
        basis = frobenius_solutions(QUINTIC, 4)
        mm = mirror_map(basis)
        w = yukawa_t(QUINTIC, 5, 4)
        y = yukawa_q(w, basis.holomorphic, mm, 2)
        assert y.coeff_list(2) == [5, 2875]

    def test_identity_map_returns_normalized_w(self):
        y0 = S([1, 7, -2], order=6)
        w = S([4, 1, 1], order=6)
        got = yukawa_q(w, y0, identity_mirror(7), 6)
        assert got == w * y0.invert().pow_int(2)

    def test_constant_w_identity_map(self):
        y0 = S([1, 3], order=5)
        got = yukawa_q(S([7], order=5), y0, identity_mirror(6), 5)
        assert got == y0.invert().pow_int(2) * 7

    def test_zero_w_gives_zero(self):
        basis = frobenius_solutions(QUINTIC, 5)
        mm = mirror_map(basis)
        got = yukawa_q(RationalSeries.zero(5), basis.holomorphic, mm, 5)
        assert got.is_zero()

    def test_constant_term_preserved(self):
        basis = frobenius_solutions(QUINTIC, 6)
        mm = mirror_map(basis)
        w = yukawa_t(QUINTIC, 5, 6)
        y = yukawa_q(w, basis.holomorphic, mm, 6)
        assert y.coeff(0) == w.coeff(0) == 5


class TestLambertExpand:
    def test_single_degree(self):
        assert lambert_expand([0, 1], 4) == S([1, 1, 1], order=4, valuation=1)

    def test_two_degrees(self):
        assert lambert_expand([0, 1, 1], 3) == S([1, 9], order=3, valuation=1)

    def test_constant_only(self):
        assert lambert_expand([7], 3) == S([7], order=3)

    def test_rational_weights(self):
        got = lambert_expand([0, F(1, 2)], 3)
        assert got == S([F(1, 2), F(1, 2)], order=3, valuation=1)


class TestInstantonExtract:
    def test_constant_series(self):
        got = instanton_extract(S([5], order=6), 4)
        assert got.numbers == (5, 0, 0, 0, 0)

    def test_mobius_inversion_by_hand(self):
        got = instanton_extract(S([1, 9], order=3, valuation=1), 2)
        assert got.n(1) == 1
        assert got.n(2) == F(9 - 1, 8) == 1

    def test_insufficient_order(self):
        with pytest.raises(InsufficientOrder):
            instanton_extract(S([1], order=3, valuation=1), 3)
        with pytest.raises(InsufficientOrder):
            InstantonSeries(numbers=(0, 1), source_order=4).n(2)

    def test_max_degree_positive(self):
        with pytest.raises(ValueError):
            instanton_extract(S([1], order=3, valuation=1), 0)


def test_mobius_roundtrip_property_suite():
    assert helpers.run_mobius_roundtrip(1000) >= 1000
