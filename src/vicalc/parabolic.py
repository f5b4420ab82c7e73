"""Parabolic-bundle bookkeeping: degrees and s-invariants.

All weights are exact rationals; nothing here may introduce a float,
because the weight sums are degree shifts and must stay exact.
A float weight is a TypeError, as a float cyclotomic operand is, and
every integer is read with operator.index.  MarkedPoint and ParabolicData
are frozen records in the engine's idiom, not dataclasses, so that loading
this module does not load dataclasses and inspect.

read_rational is the one reader of rational text, for the command line,
batch lines and string weights given here alike: an integer, p/q or a
decimal.  It refuses exponent notation, because Fraction("1e-100000000")
builds 10^100000000 before anything can refuse it, while an integer or a
decimal is bounded by the int-from-text digit limit.  read_flag reads a
marked point's weight:multiplicity entry with it.
"""

import operator
from fractions import Fraction

from .engine import _Record


def read_rational(text):
    """Rational text, "3", "-7/3" or "0.25", as an exact Fraction; a ValueError
    for anything else, exponent notation ("1e-5") included."""
    if "e" not in text and "E" not in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError("expected a rational like 1/2, got %r" % (text,))


def read_flag(text):
    """A marked point's weight:multiplicity entry, as (Fraction, int)."""
    weight, colon, mult = text.partition(":")
    if not colon:
        raise ValueError("marked point entry %r is not weight:multiplicity" % (text,))
    weight = read_rational(weight)
    try:
        return weight, int(mult)
    except ValueError:
        raise ValueError("marked point entry %r has no integer multiplicity" % (text,)) from None


def _weight(w):
    """An int, Fraction or string like "1/2" as an exact Fraction in [0, 1);
    no float."""
    if isinstance(w, float):
        raise TypeError("weights must be exact rationals, not float: %r" % (w,))
    w = read_rational(w) if isinstance(w, str) else Fraction(w)
    if not 0 <= w < 1:
        raise ValueError("weight %s outside [0, 1)" % (w,))
    return w


class MarkedPoint(_Record):
    """Weights strictly increasing in [0, 1) with positive multiplicities."""

    __slots__ = _fields = ("weights", "multiplicities")

    def __init__(self, weights, multiplicities):
        ws = tuple(_weight(w) for w in weights)
        ks = tuple(operator.index(k) for k in multiplicities)
        if len(ws) != len(ks):
            raise ValueError("weights and multiplicities differ in length")
        for a, b in zip(ws, ws[1:]):
            if a >= b:
                raise ValueError("weights must be strictly increasing")
        for k in ks:
            if k < 1:
                raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "multiplicities", ks)

    def flag_total(self):
        return sum(self.multiplicities)

    def weight_contribution(self):
        return sum(k * w for k, w in zip(self.multiplicities, self.weights))


class ParabolicData(_Record):
    __slots__ = _fields = ("rank", "degree", "points")

    def __init__(self, rank, degree, points=()):
        pts = tuple(p if isinstance(p, MarkedPoint) else MarkedPoint(*p) for p in points)
        rank, degree = operator.index(rank), operator.index(degree)
        if rank < 1:
            raise ValueError("rank must be positive")
        for p in pts:
            if p.flag_total() != rank:
                raise ValueError("marked point multiplicities sum to %d, rank is %d"
                                 % (p.flag_total(), rank))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "points", pts)


def parabolic_degree(data):
    """deg plus the weighted flag contributions over all marked points."""
    total = Fraction(data.degree)
    for p in data.points:
        total += p.weight_contribution()
    return total


def s_invariant(n, k, g, eps, group_order=0, weights=()):
    """k(n-k)(g-1) + eps, plus the parabolic refinement N * sum(mu).

    Weights count only through the group order N, so weights given with
    N = 0 are refused rather than ignored; each weight must lie in [0, 1),
    as at a MarkedPoint.
    """
    n, k, g, eps, group_order = map(operator.index, (n, k, g, eps, group_order))
    if not 0 < k < n:
        raise ValueError("need 0 < k < n, got k=%d n=%d" % (k, n))
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if not 1 <= eps <= n - 1:
        raise ValueError("eps %d outside [1, %d]" % (eps, n - 1))
    if group_order < 0:
        raise ValueError("group order must be nonnegative")
    weights = [_weight(w) for w in weights]
    if weights and not group_order:
        raise ValueError("weights require a positive group order")
    total = Fraction(k * (n - k) * (g - 1) + eps)
    if group_order:
        total += group_order * sum(weights)
    return total


def weights_from_equivariant(group_order, exponents):
    """Parabolic weights exponent/N from equivariant exponents in [0, N),
    for a group order N >= 1."""
    if group_order < 1:
        raise ValueError("exponents require a positive group order, got %d" % (group_order,))
    out = []
    for ex in exponents:
        if not 0 <= ex < group_order:
            raise ValueError("exponent %d outside [0, %d)" % (ex, group_order))
        out.append(Fraction(ex, group_order))
    out.sort()
    return out
