"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are represented by their coordinates over the power basis
1, zeta, ..., zeta^(phi(n)-1) of Q[x]/(Phi_n(x)), with Fraction
coefficients.  No floating point enters any computation here.

The n-th cyclotomic polynomial is obtained by the recursive quotient
(x^n - 1) / prod_{d | n, d < n} Phi_d(x) with exact integer division.
Per-order data (Phi_n plus reduction rows for high powers of x) is
cached in a module table; the fill is idempotent, so a racing second
writer is harmless.
"""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

# order -> (phi coefficients low-to-high, degree, power rows)
# power rows: tuple indexed by t giving the basis coordinates of x^t mod Phi_n,
# covering every t needed by products of reduced elements and by zeta powers.
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
    # rows for x^t mod Phi_n: t up to max(n - 1, 2*deg - 2) covers both
    # zeta powers and products of two reduced elements.
    rows = [[0] * deg for _ in range(max(n, 2 * deg - 1))]
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
    _TABLES[n] = (phi, deg, tuple(tuple(r) for r in rows))
    return phi


def _table(n):
    cyclotomic_polynomial(n)
    return _TABLES[n]


class CyclotomicNumber:
    """An element of Q(zeta_n) in canonical power-basis coordinates."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        deg = _table(order)[1]
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            raise ValueError("coefficient vector longer than the basis")
        cs.extend([_ZERO] * (deg - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicNumber is immutable")

    def _lift(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError(
                    "incompatible cyclotomic orders: %d vs %d" % (self.order, other.order)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.order, [Fraction(other)])
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CyclotomicNumber(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CyclotomicNumber(self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicNumber(self.order, [a * f for a in self.coeffs])
        o = self._lift(other)
        if o is None:
            return NotImplemented
        _, deg, rows = _table(self.order)
        prod = [_ZERO] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        out = [_ZERO] * deg
        for t, c in enumerate(prod):
            if c:
                if t < deg:
                    out[t] += c
                else:
                    row = rows[t]
                    for j in range(deg):
                        if row[j]:
                            out[j] += c * row[j]
        return CyclotomicNumber(self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            inv = Fraction(1, 1) / Fraction(other)
            return self * inv
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exp):
        if not isinstance(exp, int):
            return NotImplemented
        if exp < 0:
            return self.inverse() ** (-exp)
        result = CyclotomicNumber(self.order, [_ONE])
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber(self.order, [Fraction(other)])
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return "CyclotomicNumber(%d, %s)" % (self.order, list(self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self):
        """The element as a Fraction; raises if it has nonzero basis tail."""
        if not self.is_rational():
            raise ValueError(
                "non-rational cyclotomic value: order %d coefficients %s"
                % (self.order, [str(c) for c in self.coeffs])
            )
        return self.coeffs[0]

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        phi = [Fraction(c) for c in _table(self.order)[0]]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [], [_ONE]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                c = r1[0]
                return CyclotomicNumber(self.order, [x / c for x in s1])
            q, rem = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))

    def galois(self, j):
        """Image under zeta -> zeta^j; j must be a unit mod the order."""
        n = self.order
        from math import gcd

        if gcd(j, n) != 1:
            raise ValueError("galois exponent %d is not a unit mod %d" % (j, n))
        _, deg, rows = _table(n)
        out = [_ZERO] * deg
        for i, c in enumerate(self.coeffs):
            if c:
                row = rows[(i * j) % n]
                for t in range(deg):
                    if row[t]:
                        out[t] += c * row[t]
        return CyclotomicNumber(n, out)


def _frac_poly_divmod(num, den):
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    dn = len(den) - 1
    lead = den[-1]
    q = [_ZERO] * max(len(num) - dn, 0)
    while len(num) - 1 >= dn and num:
        c = num[-1] / lead
        d = len(num) - 1 - dn
        q[d] = c
        for j, dc in enumerate(den):
            num[d + j] -= c * dc
        while num and num[-1] == 0:
            num.pop()
    return q, num


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [_ZERO] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while out and out[-1] == 0:
        out.pop()
    return out


def zeta(n, power=1):
    """The root of unity zeta_n^power as a CyclotomicNumber."""
    _, deg, rows = _table(n)
    return CyclotomicNumber(n, rows[power % n])


def from_rational(n, value):
    return CyclotomicNumber(n, [Fraction(value)])


def root_power_sum(n, t):
    """Sum of rho^t over all n-th roots of unity: n when n | t, else 0."""
    return Fraction(n if t % n == 0 else 0)
