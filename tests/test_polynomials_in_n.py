"""Polynomials in n, anchored on the fusion trace: the kernel at any n.

A column monomial of total weight k^2(g-1) with e = -k(g-1) meets the
degree condition on Gr(k, n) for every n > k, and its dual value is then
a polynomial in n of degree k^2(g-1) + 1, the dimension of the moduli
space of rank-k bundles on a genus-g curve.  Each family below takes
degree + 1 consecutive values from fusion.oracle_value, interpolates them
exactly over Fraction, and holds evaluate to that polynomial for every n
up to 100, far past the oracle's reach.  The degree and the first n of
each family are what was measured over that range, not a theorem: if a
family stops fitting, that is a finding about the family or the kernel.
"""

from fractions import Fraction

from vicalc.engine import InvariantQuery, evaluate
from vicalc.fusion import oracle_value

LAST_N = 100


def interpolant(points):
    """The Lagrange polynomial through the (x, y) points, as a function."""
    def at(x):
        total = Fraction(0)
        for i, (xi, yi) in enumerate(points):
            term = Fraction(yi)
            for j, (xj, _) in enumerate(points):
                if j != i:
                    term *= Fraction(x - xj, xi - xj)
            total += term
        return total
    return at


def check_family(k, g, monomial, degree, first):
    """Anchor on the oracle at n = first..first+degree, check the degree is
    exact, and hold evaluate to the polynomial for every n up to LAST_N."""
    def query(n):
        return InvariantQuery(n, k, g, -k * (g - 1), monomial=monomial, convention="dual")

    anchors = [(n, oracle_value(query(n))) for n in range(first, first + degree + 1)]
    poly = interpolant(anchors)
    # one anchor fewer does not fit: the degree is not lower
    assert interpolant(anchors[:-1])(anchors[-1][0]) != anchors[-1][1]
    for n in range(first, LAST_N + 1):
        assert evaluate(query(n)).value == poly(n), n


def test_planes_sigma_two_fourth_at_genus_three():
    """sigma_2^4 on Gr(2, n) at g = 3: degree 9 from n = 3, anchors
    n = 3..12, matched every n up to 100."""
    check_family(2, 3, (2,) * 4, 9, 3)


def test_planes_sigma_two_sixth_at_genus_four():
    """sigma_2^6 on Gr(2, n) at g = 4: degree 13 from n = 3, anchors
    n = 3..16, matched every n up to 100."""
    check_family(2, 4, (2,) * 6, 13, 3)


def test_three_planes_sigma_three_cubed_at_genus_two():
    """sigma_3^3 on Gr(3, n) at g = 2: degree 10 from n = 4, anchors
    n = 4..14, matched every n up to 100."""
    check_family(3, 2, (3,) * 3, 10, 4)


def test_three_planes_mixed_columns_at_genus_two():
    """sigma_1 sigma_2 sigma_3^2 on Gr(3, n) at g = 2: degree 10 from
    n = 4, anchors n = 4..14, matched every n up to 100."""
    check_family(3, 2, (1, 2, 3, 3), 10, 4)
