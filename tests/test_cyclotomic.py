"""Field axioms and root identities for the exact cyclotomic arithmetic."""

import random
from fractions import Fraction
from math import gcd

import pytest

from vicalc.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    root_power_sum,
    zeta,
)

ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24)
# the spectral route works in Q(zeta_2n) when k is even
REF_ORDERS = sorted(set(ORDERS) | {2 * n for n in ORDERS})


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
        assert z ** n == CyclotomicNumber(n, [1])
        for t in range(1, n):
            assert z ** t != CyclotomicNumber(n, [1]), (n, t)


def test_field_axioms_random():
    rng = random.Random(20240)
    one = lambda n: CyclotomicNumber(n, [1])
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
            assert a + CyclotomicNumber(n, [0]) == a
            assert a * one(n) == a


def test_inverse_random():
    rng = random.Random(20241)
    for n in ORDERS:
        for _ in range(15):
            a = random_nonzero(rng, n)
            assert a * a.inverse() == CyclotomicNumber(n, [1])
            b = random_nonzero(rng, n)
            assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        zeta(5).inverse() * CyclotomicNumber(5, [0]).inverse()
    for n in REF_ORDERS:
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber(n, [0]).inverse()
        with pytest.raises(ZeroDivisionError):
            zeta(n) / CyclotomicNumber(n, [0])
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber(n, [0]) ** -1


def test_pow_negative_matches_inverse():
    rng = random.Random(20242)
    for n in (3, 5, 8, 12):
        a = random_nonzero(rng, n)
        assert a ** -3 == (a.inverse()) ** 3
        assert a ** 0 == CyclotomicNumber(n, [1])


def test_order_mismatch_rejected():
    with pytest.raises(ValueError, match="incompatible cyclotomic orders"):
        zeta(3) + zeta(4)


def test_root_power_sum_matches_explicit_sum():
    for n in range(2, 11):
        for t in range(-6, 13):
            total = CyclotomicNumber(n, [0])
            for c in range(n):
                total = total + zeta(n, c) ** t
            expected = root_power_sum(n, t)
            assert total == CyclotomicNumber(n, [expected]), (n, t)
            assert expected == (n if t % n == 0 else 0)


def test_to_rational():
    assert (zeta(6) + zeta(6) ** 5).to_rational() == 1
    assert CyclotomicNumber(7, [Fraction(3, 2)]).to_rational() == Fraction(3, 2)
    with pytest.raises(ValueError, match="non-rational"):
        zeta(5).to_rational()


def test_rational_detection():
    assert CyclotomicNumber(9, [Fraction(-2, 5)]).is_rational()
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
    # a rational element equals its int or Fraction, so it hashes as one
    assert CyclotomicNumber(5, [1]) == 1
    assert len({CyclotomicNumber(5, [1]), 1}) == 1
    assert len({CyclotomicNumber(7, [Fraction(3, 2)]), Fraction(3, 2)}) == 1
    assert len({CyclotomicNumber(9, [0]), 0, Fraction(0)}) == 1
    x = zeta(8) + Fraction(1, 3)
    equal_pairs = [
        (zeta(6) + zeta(6) ** 5, 1),
        (zeta(4) ** 2, -1),
        (CyclotomicNumber(8, [Fraction(2, 4), 0, 0]), Fraction(1, 2)),
        (CyclotomicNumber(8, [Fraction(6, 4)]) * 2, 3),
        (x / x, 1),
        (x * 3 - x * 3, 0),
        (zeta(5) * Fraction(2, 3), CyclotomicNumber(5, [0, Fraction(4, 6)])),
        (x - Fraction(1, 3), zeta(8)),
    ]
    for a, b in equal_pairs:
        assert a == b and b == a, (a, b)
        assert hash(a) == hash(b), (a, b)
        assert len({a, b}) == 1
    assert zeta(5) != 1 and 1 != zeta(5)
    assert CyclotomicNumber(5, [Fraction(1, 2)]) != 1


def test_constructor_rejects_floats_and_strings():
    with pytest.raises(TypeError):
        CyclotomicNumber(5, [0.5])
    with pytest.raises(TypeError):
        CyclotomicNumber(5, [1, "1/2"])
    with pytest.raises(TypeError):
        CyclotomicNumber(5, [1.0])


# ---------------------------------------------------------------------------
# the integer arithmetic against the Fraction arithmetic it replaced
#
# The reference below is the earlier representation: Fraction coordinates,
# a schoolbook product reduced mod Phi_n, and the inverse by the extended
# Euclidean algorithm mod Phi_n.

def _ref_divmod(num, den):
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    dn = len(den) - 1
    lead = den[-1]
    q = [Fraction(0)] * max(len(num) - dn, 0)
    while len(num) - 1 >= dn and num:
        c = num[-1] / lead
        d = len(num) - 1 - dn
        q[d] = c
        for j, dc in enumerate(den):
            num[d + j] -= c * dc
        while num and num[-1] == 0:
            num.pop()
    return q, num


def _ref_poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _ref_poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while out and out[-1] == 0:
        out.pop()
    return out


def _ref_reduce(n, poly):
    phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
    rem = _ref_divmod(poly, phi)[1]
    return tuple(rem) + (Fraction(0),) * (len(phi) - 1 - len(rem))


def _ref_mul(n, a, b):
    return _ref_reduce(n, _ref_poly_mul(list(a), list(b)) or [Fraction(0)])


def _ref_inverse(n, a):
    phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
    r0, r1 = phi, list(a)
    s0, s1 = [], [Fraction(1)]
    while True:
        while r1 and r1[-1] == 0:
            r1.pop()
        if len(r1) == 1:
            return _ref_reduce(n, [x / r1[0] for x in s1])
        q, rem = _ref_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _ref_poly_sub(s0, _ref_poly_mul(q, s1))


def _ref_galois(n, a, j):
    poly = [Fraction(0)] * n
    for i, c in enumerate(a):
        poly[(i * j) % n] += c
    return _ref_reduce(n, poly)


def _ref_pow(n, a, e):
    if e < 0:
        a, e = _ref_inverse(n, a), -e
    out = _ref_reduce(n, [Fraction(1)])
    for _ in range(e):
        out = _ref_mul(n, out, a)
    return out


def _assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int for c in x.num)
    assert gcd(x.den, *x.num) == 1
    assert len(x.num) == len(cyclotomic_polynomial(x.order)) - 1


def _sample(rng, n):
    """An integral or a fractional element, sometimes sparse."""
    deg = len(cyclotomic_polynomial(n)) - 1
    if rng.random() < 0.4:
        coeffs = [rng.randint(-6, 6) for _ in range(deg)]
    else:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
    for i in rng.sample(range(deg), rng.randint(0, deg - 1)):
        coeffs[i] = 0
    return CyclotomicNumber(n, coeffs)



def test_integer_arithmetic_matches_the_fraction_reference():
    rng = random.Random(20245)
    for n in REF_ORDERS:
        units = [j for j in range(1, n) if gcd(j, n) == 1] or [1]
        for _ in range(6):
            a, b = _sample(rng, n), _sample(rng, n)
            q = rng.choice([3, -2, Fraction(-5, 4), Fraction(7, 6)])
            j = rng.choice(units)
            fa, fb = a.coeffs, b.coeffs
            checks = [
                (a + b, tuple(x + y for x, y in zip(fa, fb))),
                (a - b, tuple(x - y for x, y in zip(fa, fb))),
                (q - a, tuple((q if i == 0 else 0) - x for i, x in enumerate(fa))),
                (a * b, _ref_mul(n, fa, fb)),
                (a * q, tuple(x * q for x in fa)),
                (a ** 3, _ref_pow(n, fa, 3)),
                (a.galois(j), _ref_galois(n, fa, j)),
            ]
            if not b.is_zero():
                checks += [
                    (b.inverse(), _ref_inverse(n, fb)),
                    (a / b, _ref_mul(n, fa, _ref_inverse(n, fb))),
                    (q / b, tuple(x * q for x in _ref_inverse(n, fb))),
                    (b ** -2, _ref_pow(n, fb, -2)),
                ]
                assert b * b.inverse() == 1
            for got, want in checks:
                _assert_canonical(got)
                assert got.coeffs == want, (n, a, b)


def test_elements_are_immutable():
    x = zeta(7) + Fraction(1, 2)
    before = (x.order, x.num, x.den, x.coeffs)
    for name, value in (("num", (1,) * 6), ("den", 3), ("order", 14), ("coeffs", ())):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    results = [x * x, x + 1, 1 - x, x / 2, x.inverse(), x.galois(3), -x]
    assert all(y is not x for y in results)
    assert (x.order, x.num, x.den, x.coeffs) == before
