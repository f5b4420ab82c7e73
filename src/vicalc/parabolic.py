"""Parabolic-bundle bookkeeping: degrees, s-invariants, and the composed invariant.

All weights are exact rationals; nothing here may introduce a float,
because the weight sums feed degree shifts for the root-of-unity engine.
"""

from dataclasses import dataclass
from fractions import Fraction

from .engine import InadmissibleQueryError, InvariantQuery, vi_invariant


@dataclass(frozen=True)
class MarkedPoint:
    """Weights strictly increasing in [0, 1) with positive multiplicities."""

    weights: tuple
    multiplicities: tuple

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        ks = tuple(int(k) for k in self.multiplicities)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "multiplicities", ks)
        if len(ws) != len(ks):
            raise ValueError("weights and multiplicities differ in length")
        for w in ws:
            if not 0 <= w < 1:
                raise ValueError("weight %s outside [0, 1)" % (w,))
        for a, b in zip(ws, ws[1:]):
            if a >= b:
                raise ValueError("weights must be strictly increasing")
        for k in ks:
            if k < 1:
                raise ValueError("multiplicities must be positive")

    def flag_total(self):
        return sum(self.multiplicities)

    def weight_contribution(self):
        return sum(k * w for k, w in zip(self.multiplicities, self.weights))


@dataclass(frozen=True)
class ParabolicData:
    rank: int
    degree: int
    points: tuple = ()

    def __post_init__(self):
        pts = tuple(
            p if isinstance(p, MarkedPoint) else MarkedPoint(*p) for p in self.points
        )
        object.__setattr__(self, "points", pts)
        if self.rank < 1:
            raise ValueError("rank must be positive")
        for p in pts:
            if p.flag_total() != self.rank:
                raise ValueError(
                    "invariant violation: multiplicities sum to %d, rank is %d"
                    % (p.flag_total(), self.rank)
                )


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
    if not 0 < k < n:
        raise ValueError("need 0 < k < n, got k=%d n=%d" % (k, n))
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if not 1 <= eps <= n - 1:
        raise ValueError("eps %d outside [1, %d]" % (eps, n - 1))
    if group_order < 0:
        raise ValueError("group order must be nonnegative")
    weights = [Fraction(w) for w in weights]
    if weights and not group_order:
        raise ValueError("weights require a positive group order")
    for w in weights:
        if not 0 <= w < 1:
            raise ValueError("weight %s outside [0, 1)" % (w,))
    total = Fraction(k * (n - k) * (g - 1) + eps)
    if group_order:
        total += group_order * sum(weights)
    return total


def weights_from_equivariant(group_order, exponents):
    """Parabolic weights exponent/N from equivariant exponents in [0, N)."""
    out = []
    for ex in exponents:
        if not 0 <= ex < group_order:
            raise ValueError("exponent %d outside [0, %d)" % (ex, group_order))
        out.append(Fraction(ex, group_order))
    out.sort()
    return out


def parabolic_vi(n, k, g, eps, group_order, weights, monomial=(), convention="paper"):
    """Parabolic invariant as the documented s-invariant composition.

    The budget s = s_invariant(n, k, g, eps, N, mu) replaces -n*e, so the
    degree-condition target becomes s + k(n-k)(1-g) = eps + N*sum(mu).
    Both s/n and the shifted target must be integers for a query to exist;
    otherwise the range contains no admissible invariant and this raises.
    """
    budget = s_invariant(n, k, g, eps, group_order, weights)
    quotient = -budget / n
    if quotient.denominator != 1:
        raise InadmissibleQueryError(
            "parabolic budget %s is not n times an integral quotient degree" % (budget,)
        )
    query = InvariantQuery(
        n=n, k=k, g=g, e=int(quotient), monomial=tuple(monomial), convention=convention
    )
    return vi_invariant(query)
