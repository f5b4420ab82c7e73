"""Field axioms and root identities for the exact cyclotomic arithmetic."""

import random
from fractions import Fraction
from math import gcd

import pytest

from vicalc.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    zeta,
)

ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24)
# the spectral route works in Q(zeta_2n) when k is even
REF_ORDERS = sorted(set(ORDERS) | {2 * n for n in ORDERS})


def element(n, coeffs):
    """sum c_i * zeta(n, i): for i < phi(n), zeta(n, i) is the i-th power-basis
    vector, so the element has exactly the coordinates coeffs."""
    x = sum((zeta(n, i) * c for i, c in enumerate(coeffs)), zeta(n, 0) * 0)
    assert x.coeffs[: len(coeffs)] == tuple(coeffs)
    return x


def random_element(rng, n):
    deg = len(cyclotomic_polynomial(n)) - 1
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
    return element(n, coeffs)


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
        assert z ** n == zeta(n, 0)
        for t in range(1, n):
            assert z ** t != zeta(n, 0), (n, t)


def test_field_axioms_random():
    rng = random.Random(20240)
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
            assert a + zeta(n, 0) * 0 == a
            assert a * zeta(n, 0) == a


def test_inverse_random():
    rng = random.Random(20241)
    for n in ORDERS:
        for _ in range(15):
            a = random_nonzero(rng, n)
            assert a * a.inverse() == zeta(n, 0)
            b = random_nonzero(rng, n)
            assert (a * b.inverse()) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        zeta(5).inverse() * (zeta(5, 0) * 0).inverse()
    for n in REF_ORDERS:
        with pytest.raises(ZeroDivisionError):
            (zeta(n, 0) * 0).inverse()
        with pytest.raises(ZeroDivisionError):
            zeta(n) * (zeta(n) - zeta(n)).inverse()
        with pytest.raises(ZeroDivisionError):
            (zeta(n, 0) * 0) ** -1


def test_pow_negative_matches_inverse():
    rng = random.Random(20242)
    for n in (3, 5, 8, 12):
        a = random_nonzero(rng, n)
        assert a ** -3 == (a.inverse()) ** 3
        assert a ** 0 == zeta(n, 0)


def test_pow_matches_repeated_products_with_fewest_products(monkeypatch):
    # x^m for m in -3..6 is the m-fold product (of x^-1 when m < 0), and
    # the square-and-multiply walk starts from x: x^1..x^4 take 0, 1, 2, 2
    # field products, and x^-1 none beyond the inverse
    rng = random.Random(20246)
    for n in (3, 5, 8, 12):
        x = random_nonzero(rng, n)
        inv = x.inverse()
        for m in range(-3, 7):
            want = 1
            for _ in range(abs(m)):
                want = want * (x if m > 0 else inv)
            got = x ** m
            assert got == want and isinstance(got, CyclotomicNumber), (n, m)
        assert x ** 0 == 1
    products = []
    mul = CyclotomicNumber.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
    monkeypatch.setattr(CyclotomicNumber, "inverse", lambda self: self)
    x = zeta(7, 2) + 3
    for m, count in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (-1, 0), (-4, 2)):
        del products[:]
        x ** m
        assert len(products) == count, m


def test_inverse_starts_from_the_first_conjugate(monkeypatch):
    # adj is the product of the phi(n) - 1 conjugates other than x, so it
    # takes phi(n) - 2 field products and the norm x * adj one more; orders
    # 1 and 2 have no other conjugate and take only the norm's
    rng = random.Random(2022)
    products = []
    times = CyclotomicNumber._times

    def counted(self, b, bd):
        products.append(b)
        return times(self, b, bd)

    monkeypatch.setattr(CyclotomicNumber, "_times", counted)
    for n in (1, 2, 3, 4, 5, 7, 8, 12, 15):
        x = random_nonzero(rng, n)
        phi = len(cyclotomic_polynomial(n)) - 1
        del products[:]
        inv = x.inverse()
        assert len(products) == max(phi - 1, 1), n
        assert x * inv == 1 and inv * x == 1, n
    del products[:]
    (zeta(5) + 2).inverse()
    assert len(products) == 3


def test_order_mismatch_rejected():
    with pytest.raises(ValueError, match="incompatible cyclotomic orders"):
        zeta(3) + zeta(4)


def test_root_power_sum_matches_explicit_sum():
    # the sum of rho^t over the n-th roots of unity is n when n | t, else 0
    for n in range(2, 11):
        for t in range(-6, 13):
            total = zeta(n, 0) * 0
            for c in range(n):
                total = total + zeta(n, c) ** t
            expected = n if t % n == 0 else 0
            assert total == zeta(n, 0) * expected, (n, t)


def test_to_rational():
    assert (zeta(6) + zeta(6) ** 5).to_rational() == 1
    assert (zeta(7, 0) * Fraction(3, 2)).to_rational() == Fraction(3, 2)
    with pytest.raises(ValueError, match="non-rational"):
        zeta(5).to_rational()


def test_rational_detection():
    assert (zeta(9, 0) * Fraction(-2, 5)).is_rational()
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
    assert zeta(5, 0) == 1
    assert len({zeta(5, 0), 1}) == 1
    assert len({zeta(7, 0) * Fraction(3, 2), Fraction(3, 2)}) == 1
    assert len({zeta(9, 0) * 0, 0, Fraction(0)}) == 1
    x = zeta(8) + Fraction(1, 3)
    equal_pairs = [
        (zeta(6) + zeta(6) ** 5, 1),
        (zeta(4) ** 2, -1),
        (element(8, [Fraction(2, 4), 0, 0]), Fraction(1, 2)),
        (zeta(8, 0) * Fraction(6, 4) * 2, 3),
        (x * x.inverse(), 1),
        (x * 3 - x * 3, 0),
        (zeta(5) * Fraction(2, 3), element(5, [0, Fraction(4, 6)])),
        (x - Fraction(1, 3), zeta(8)),
    ]
    for a, b in equal_pairs:
        assert a == b and b == a, (a, b)
        assert hash(a) == hash(b), (a, b)
        assert len({a, b}) == 1
    assert zeta(5) != 1 and 1 != zeta(5)
    assert zeta(5, 0) * Fraction(1, 2) != 1


def test_arithmetic_rejects_floats_and_strings():
    # elements come only from zeta and arithmetic with ints and Fractions
    for make in (lambda: zeta(5) * 0.5, lambda: 0.5 * zeta(5), lambda: zeta(5) + 0.5,
                 lambda: 0.5 - zeta(5), lambda: zeta(5) ** 0.5, lambda: zeta(5) + "1/2"):
        with pytest.raises(TypeError):
            make()


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
    return element(n, coeffs)


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
                    (a * b.inverse(), _ref_mul(n, fa, _ref_inverse(n, fb))),
                    (q * b.inverse(), tuple(x * q for x in _ref_inverse(n, fb))),
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
    results = [x * x, x + 1, 1 - x, x * Fraction(1, 2), x.inverse(), x.galois(3), -x]
    assert all(y is not x for y in results)
    assert (x.order, x.num, x.den, x.coeffs) == before
