"""Parabolic weights, degrees and s-invariants."""

import re
from fractions import Fraction

import pytest

from vicalc.parabolic import (
    MarkedPoint,
    ParabolicData,
    parabolic_degree,
    read_flag,
    read_rational,
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


def test_floats_are_refused():
    # a float weight is a TypeError, never its binary expansion; integers are
    # read with operator.index, never truncated
    with pytest.raises(TypeError, match="float"):
        MarkedPoint((0.1, Fraction(1, 2)), (1, 1))
    with pytest.raises(TypeError):
        MarkedPoint((0, Fraction(1, 2)), (1.5, 1))
    with pytest.raises(TypeError, match="float"):
        s_invariant(4, 2, 0, 1, 2, [0.1])
    with pytest.raises(TypeError, match="float"):
        s_invariant(4, 2, 0, 1, 2, [0.5])
    for args in ((4, 2, 0, 1.5), (4, 2, 0, 1, 2.0, ["1/2"]), (4.0, 2, 0, 1)):
        with pytest.raises(TypeError):
            s_invariant(*args)
    with pytest.raises(TypeError):
        ParabolicData(2, 0.5, ((("1/4", "3/4"), (1, 1)),))
    # ints, Fractions and strings still parse exactly
    p = MarkedPoint((0, "1/10", Fraction(1, 2)), (1, 1, 1))
    assert p.weights == (0, Fraction(1, 10), Fraction(1, 2))
    assert s_invariant(4, 2, 0, 1, 2, ["1/10", Fraction(1, 2), 0]) == Fraction(-9, 5)


def test_rational_text_in_exponent_notation_is_refused():
    # one reader for every entry: Fraction would expand 1e-100000000 to 10^100000000
    for text in ("1e-100000000", "1e-5", "2.5E-1", "0e0"):
        refusal = "^expected a rational like 1/2, got %s$" % re.escape(repr(text))
        for read in (read_rational, lambda t: read_flag(t + ":1"),
                     lambda t: MarkedPoint((t,), (1,)), lambda t: s_invariant(4, 2, 1, 2, 2, [t])):
            with pytest.raises(ValueError, match=refusal):
                read(text)
    # integers, p/q and decimals are read exactly
    assert [read_rational(t) for t in ("3", "-7/3", "0.25", " 1/2 ")] == \
        [3, Fraction(-7, 3), Fraction(1, 4), Fraction(1, 2)]
    assert read_flag("1/4:2") == (Fraction(1, 4), 2)
    assert MarkedPoint(("0.25",), (1,)).weights == (Fraction(1, 4),)
    for text in ("1/0", "x", "", "1/2/3"):
        with pytest.raises(ValueError, match="^expected a rational like 1/2"):
            read_rational(text)


def test_flag_sum_must_match_rank():
    with pytest.raises(ValueError, match="^marked point multiplicities sum to 3, rank is 2$"):
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
    # exponents need a group order N >= 1, with or without exponents to convert
    for order, exponents in ((0, []), (0, [0]), (-2, [1])):
        with pytest.raises(ValueError, match="positive group order"):
            weights_from_equivariant(order, exponents)

