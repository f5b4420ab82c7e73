"""Parabolic weights, degrees, s-invariants, and the composed invariant."""

from fractions import Fraction

import pytest

from vicalc.engine import InadmissibleQueryError
from vicalc.parabolic import (
    MarkedPoint,
    ParabolicData,
    parabolic_degree,
    parabolic_vi,
    s_invariant,
    weights_from_equivariant,
)


def test_marked_point_accessors():
    p = MarkedPoint((0, Fraction(1, 3)), (2, 1))
    assert p.flag_total() == 3
    assert p.weight_contribution() == Fraction(1, 3)


def test_marked_point_validation():
    with pytest.raises(ValueError, match="outside"):
        MarkedPoint((1,), (1,))
    with pytest.raises(ValueError, match="increasing"):
        MarkedPoint((Fraction(1, 2), Fraction(1, 4)), (1, 1))
    with pytest.raises(ValueError, match="positive"):
        MarkedPoint((0,), (0,))
    with pytest.raises(ValueError, match="length"):
        MarkedPoint((0, Fraction(1, 2)), (1,))


def test_flag_sum_must_match_rank():
    with pytest.raises(ValueError, match="invariant violation"):
        ParabolicData(2, 0, ((("0", "1/2"), (1, 2)),))
    with pytest.raises(ValueError, match="rank must be positive"):
        ParabolicData(0, 0)


def test_parabolic_degree_examples():
    plain = ParabolicData(2, 3)
    assert parabolic_degree(plain) == 3
    one_point = ParabolicData(2, 0, ((("1/4", "3/4"), (1, 1)),))
    assert parabolic_degree(one_point) == 1
    two_points = ParabolicData(
        3, 1, ((("0", "1/2"), (2, 1)), (("1/3",), (3,)))
    )
    assert parabolic_degree(two_points) == 1 + Fraction(1, 2) + 1


def test_s_invariant_plain():
    assert s_invariant(2, 1, 3, 1) == 3
    assert s_invariant(4, 2, 1, 2) == 2
    assert s_invariant(4, 2, 0, 3) == -1


def test_s_invariant_with_weights():
    got = s_invariant(4, 2, 1, 2, group_order=4,
                      weights=(Fraction(1, 4), Fraction(1, 2)))
    assert got == 2 + 4 * Fraction(3, 4)


def test_s_invariant_guards():
    with pytest.raises(ValueError, match="eps"):
        s_invariant(4, 2, 1, 0)
    with pytest.raises(ValueError, match="eps"):
        s_invariant(4, 2, 1, 4)
    with pytest.raises(ValueError, match="group order"):
        s_invariant(4, 2, 1, 1, group_order=-2)
    with pytest.raises(ValueError, match="group order"):
        s_invariant(3, 1, 0, 1, weights=(Fraction(1, 2),))
    # weights lie in [0, 1), as at a MarkedPoint
    for w in (Fraction(3, 2), 1, Fraction(-1, 4)):
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            s_invariant(4, 2, 0, 1, group_order=2, weights=(0, w))
    for k in (0, 3, 5):
        with pytest.raises(ValueError, match="0 < k < n"):
            s_invariant(3, k, 0, 1)
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        s_invariant(3, 1, -1, 1)


def test_weights_from_equivariant():
    assert weights_from_equivariant(2, [0, 1, 0]) == [0, 0, Fraction(1, 2)]
    assert weights_from_equivariant(5, [3, 1]) == [Fraction(1, 5), Fraction(3, 5)]
    with pytest.raises(ValueError, match="outside"):
        weights_from_equivariant(3, [3])
    with pytest.raises(ValueError, match="outside"):
        weights_from_equivariant(3, [-1])


def test_parabolic_vi_composition():
    r = parabolic_vi(2, 1, 1, 1, 2, [Fraction(1, 2)], monomial=(1, 1))
    assert r.value == 2
    assert r.integral


def test_parabolic_vi_budget_guard():
    with pytest.raises(InadmissibleQueryError, match="budget"):
        parabolic_vi(3, 1, 1, 1, 0, [])
