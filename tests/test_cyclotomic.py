"""Field axioms and root identities for the exact cyclotomic arithmetic."""

import random
from fractions import Fraction
from math import gcd

import pytest

from vicalc.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    from_rational,
    root_power_sum,
    zeta,
)

ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24)


def random_element(rng, n):
    deg = len(cyclotomic_polynomial(n)) - 1
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
    return CyclotomicNumber(n, coeffs)


def random_nonzero(rng, n):
    while True:
        x = random_element(rng, n)
        if not x.is_zero():
            return x


def test_known_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_polynomial_degree_is_totient():
    for n in ORDERS:
        phi = sum(1 for t in range(1, n + 1) if gcd(t, n) == 1)
        assert len(cyclotomic_polynomial(n)) - 1 == phi


def test_primitive_root_order():
    for n in ORDERS:
        z = zeta(n)
        assert z ** n == from_rational(n, 1)
        for t in range(1, n):
            assert z ** t != from_rational(n, 1), (n, t)


def test_field_axioms_random():
    rng = random.Random(20240)
    one = lambda n: from_rational(n, 1)
    for n in ORDERS:
        for _ in range(20):
            a = random_element(rng, n)
            b = random_element(rng, n)
            c = random_element(rng, n)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + from_rational(n, 0) == a
            assert a * one(n) == a


def test_inverse_random():
    rng = random.Random(20241)
    for n in ORDERS:
        for _ in range(15):
            a = random_nonzero(rng, n)
            assert a * a.inverse() == from_rational(n, 1)
            b = random_nonzero(rng, n)
            assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        zeta(5).inverse() * from_rational(5, 0).inverse()


def test_pow_negative_matches_inverse():
    rng = random.Random(20242)
    for n in (3, 5, 8, 12):
        a = random_nonzero(rng, n)
        assert a ** -3 == (a.inverse()) ** 3
        assert a ** 0 == from_rational(n, 1)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError, match="incompatible cyclotomic orders"):
        zeta(3) + zeta(4)


def test_root_power_sum_matches_explicit_sum():
    for n in range(2, 11):
        for t in range(-6, 13):
            total = from_rational(n, 0)
            for c in range(n):
                total = total + zeta(n, c) ** t
            expected = root_power_sum(n, t)
            assert total == from_rational(n, expected), (n, t)
            assert expected == (n if t % n == 0 else 0)


def test_to_rational():
    assert (zeta(6) + zeta(6) ** 5).to_rational() == 1
    assert from_rational(7, Fraction(3, 2)).to_rational() == Fraction(3, 2)
    with pytest.raises(ValueError, match="non-rational"):
        zeta(5).to_rational()


def test_rational_detection():
    assert from_rational(9, Fraction(-2, 5)).is_rational()
    assert not zeta(9).is_rational()
    # zeta_4^2 = -1 is rational even though zeta_4 is not
    assert (zeta(4) ** 2).is_rational()


def test_galois_is_multiplicative():
    rng = random.Random(20244)
    for n in (5, 7, 8, 12):
        units = [j for j in range(1, n) if gcd(j, n) == 1]
        for _ in range(10):
            a = random_element(rng, n)
            b = random_element(rng, n)
            j = rng.choice(units)
            assert (a * b).galois(j) == a.galois(j) * b.galois(j)
            assert (a + b).galois(j) == a.galois(j) + b.galois(j)
        # the automorphism sends zeta to zeta^j
        for j in units:
            assert zeta(n).galois(j) == zeta(n, j)


def test_galois_rejects_non_units():
    with pytest.raises(ValueError):
        zeta(6).galois(2)


def test_hash_consistent_with_eq():
    a = zeta(12) ** 4
    b = zeta(12, 4)
    assert a == b
    assert hash(a) == hash(b)
