"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is its coordinates over the power basis 1, zeta, ...,
zeta^(phi(n)-1) of Q[x]/(Phi_n(x)): a tuple `num` of integer numerators
over one denominator `den` > 0, in lowest terms (gcd(den, *num) == 1, so
den == 1 exactly on Z[zeta]).  Arithmetic runs on integers only; a product
multiplies the denominators and reduces once by gcd, skipped when den == 1.
Elements come only from zeta(n, t) and arithmetic with ints and Fractions,
so _reduced is the one normalizer: any other operand, a float included, is
a TypeError, and no floating point enters here.

Division is inverse (x ** -m), by the Galois norm: x^-1 = adj / N(x), where
adj = prod_{j in (Z/n)^x, j != 1} sigma_j(x) and N(x) = x * adj is rational.

Phi_n is the exact integer quotient (x^n - 1) / prod_{d | n, d < n} Phi_d(x).
Per-order data is cached in a module table.
"""

from fractions import Fraction
from math import gcd

# order -> (phi coefficients low-to-high, degree, power rows, phi tail)
# power rows: tuple indexed by t < n giving the basis coordinates of
# x^t mod Phi_n, for zeta powers and Galois images; phi tail: the nonzero
# (j, phi_j) with j < degree, which reduce a product's high terms.
_TABLES = {}


def _poly_divmod_exact(num, den):
    """Quotient of integer polynomials known to divide exactly (low-to-high lists)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("inexact cyclotomic quotient")
        c //= den[-1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact cyclotomic quotient")
    return q


def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n, low degree first."""
    if n < 1:
        raise ValueError("order must be positive")
    tab = _TABLES.get(n)
    if tab is not None:
        return tab[0]
    if n == 1:
        phi = [-1, 1]
    else:
        num = [0] * (n + 1)
        num[0], num[n] = -1, 1
        for d in range(1, n):
            if n % d == 0:
                num = _poly_divmod_exact(num, cyclotomic_polynomial(d))
        phi = num
    deg = len(phi) - 1
    rows = [[0] * deg for _ in range(n)]
    for t in range(deg):
        rows[t][t] = 1
    for t in range(deg, len(rows)):
        prev = rows[t - 1]
        carry = prev[deg - 1]
        row = [0] + prev[:-1]
        if carry:
            for j in range(deg):
                row[j] -= carry * phi[j]
        rows[t] = row
    tail = tuple((j, c) for j, c in enumerate(phi[:deg]) if c)
    _TABLES[n] = (phi, deg, tuple(tuple(r) for r in rows), tail)
    return phi


_new = object.__new__
_set = object.__setattr__


def _make(order, num, den):
    """The element num/den, which the caller guarantees is in lowest terms."""
    x = _new(CyclotomicNumber)
    _set(x, "order", order)
    _set(x, "num", num)
    _set(x, "den", den)
    return x


def _reduced(order, num, den):
    """The element num/den for a list num and den > 0, put in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [c // g for c in num]
    return _make(order, tuple(num), den)


def _rational(order, q):
    """The coordinates (num, den) of the int or Fraction q."""
    return (q.numerator,) + (0,) * (_TABLES[order][1] - 1), q.denominator


class CyclotomicNumber:
    """An element of Q(zeta_n): integer power-basis numerators over one denominator."""

    __slots__ = ("order", "num", "den")

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicNumber is immutable")

    @property
    def coeffs(self):
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coords(self, other):
        """(num, den) of other in this field, or None when it is not a number."""
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError(
                    "incompatible cyclotomic orders: %d vs %d" % (self.order, other.order)
                )
            return other.num, other.den
        if isinstance(other, (int, Fraction)):
            return _rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coords(other)
        if o is None:
            return NotImplemented
        (b, bd), a, ad = o, self.num, self.den
        if ad == bd:
            return _reduced(self.order, [x + y for x, y in zip(a, b)], ad)
        return _reduced(self.order, [x * bd + y * ad for x, y in zip(a, b)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        o = self._coords(other)
        if o is None:
            return NotImplemented
        (b, bd), a, ad = o, self.num, self.den
        if ad == bd:
            return _reduced(self.order, [x - y for x, y in zip(a, b)], ad)
        return _reduced(self.order, [x * bd - y * ad for x, y in zip(a, b)], ad * bd)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _reduced(self.order, [c * p for c in self.num], self.den * other.denominator)
        o = self._coords(other)
        if o is None:
            return NotImplemented
        return self._times(*o)

    __rmul__ = __mul__

    def _times(self, b, bd):
        """self * (b / bd) for power-basis numerators b and bd > 0."""
        n = self.order
        _, deg, _, tail = _TABLES[n]
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(self.num):
            if x:
                for t, y in enumerate(b, i):
                    prod[t] += x * y
        # x^deg = -sum_j phi_j x^j, applied from the top term down
        for t in range(2 * deg - 2, deg - 1, -1):
            c = prod[t]
            if c:
                for j, p in tail:
                    prod[t - deg + j] -= c * p
        del prod[deg:]
        return _reduced(n, prod, self.den * bd)

    def __pow__(self, exp):
        if not isinstance(exp, int):
            return NotImplemented
        if exp < 0:
            return self.inverse() ** (-exp)
        if not exp:
            return _make(self.order, *_rational(self.order, 1))
        # left to right over the bits below the top one: x^m in
        # bit_length(m) - 1 squarings and one product per further set bit
        result = self
        for bit in bin(exp)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            return self.order == other.order and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and (self.num[0], self.den) == other.as_integer_ratio()
        return NotImplemented

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash as one
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        return "CyclotomicNumber(%d, %s)" % (self.order, list(self.coeffs))

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def to_rational(self):
        """The element as a Fraction; raises if it has nonzero basis tail."""
        if not self.is_rational():
            raise ValueError(
                "non-rational cyclotomic value: order %d coefficients %s"
                % (self.order, [str(c) for c in self.coeffs])
            )
        return Fraction(self.num[0], self.den)

    def inverse(self):
        """Multiplicative inverse adj / N(x) by the Galois norm N(x) = x * adj."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        n = self.order
        conjugates = (self.galois(j) for j in range(2, n) if gcd(j, n) == 1)
        adj = next(conjugates, None)
        if adj is None:  # orders 1 and 2: Q(zeta_n) = Q has no other conjugate
            adj = _make(n, *_rational(n, 1))
        for g in conjugates:
            adj = adj._times(g.num, g.den)
        inv = 1 / self._times(adj.num, adj.den).to_rational()
        return _reduced(n, [c * inv.numerator for c in adj.num], adj.den * inv.denominator)

    def galois(self, j):
        """Image under zeta -> zeta^j; j must be a unit mod the order."""
        n = self.order
        if gcd(j, n) != 1:
            raise ValueError("galois exponent %d is not a unit mod %d" % (j, n))
        _, deg, rows, _ = _TABLES[n]
        out = [0] * deg
        for i, c in enumerate(self.num):
            if c:
                row = rows[(i * j) % n]
                for t in range(deg):
                    if row[t]:
                        out[t] += c * row[t]
        # sigma_j permutes Z[zeta], so the image is still in lowest terms
        return _make(n, tuple(out), self.den)


def zeta(n, power=1):
    """The root of unity zeta_n^power as a CyclotomicNumber."""
    cyclotomic_polynomial(n)
    return _make(n, _TABLES[n][2][power % n], 1)
