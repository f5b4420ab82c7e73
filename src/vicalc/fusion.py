"""Fusion-algebra oracle: small quantum cohomology of Gr(k, n) at q = 1.

This is the cross-check for the root-of-unity engine, built from nothing
but Littlewood-Richardson numbers and rim-hook reduction: basis = the
C(n, k) partitions in the k x (n-k) box, counit = coefficient of the
full box, handle element sum_i sigma_i * sigma_i^dual, the pairing being
Poincare duality, kept as the one permutation `dual`, the box complement,
and checked against LR numbers over the box preimages: one enumeration
per checked pair, read at every preimage.  A genus-g invariant is the
counit of (product of insertions) * H^g, read through that permutation,
with the powers H^g kept per algebra.  Each product of two basis classes
is kept sparse, as its nonzero terms, and multiply walks only those.

A second, spectral route evaluates the same trace through the algebra
characters (Schur values at k-subsets of the n-th roots of (-1)^(k-1)),
with each idempotent counit read off the handle element's character;
tests hold the two routes equal.

What the queries reuse is computed once per process, in the standard
library's memo idioms: fusion_algebra and _spectral_weights are
functools.cache tables keyed by (k, n) and (k, n, genus), an algebra's
pairing `dual` and spectral `characters` are functools.cached_property
values, and its products and handle powers H^g are kept in per-algebra
memos keyed by argument.  All of it grows with the shapes and genera
asked for and is never emptied.
"""

from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement

from .cyclotomic import zeta
from .engine import _require_admissible
from .symfunc import (
    Partition,
    _lr_expand,
    elementary_symmetrics,
    partitions_in_box,
    quantum_product,
    rim_hook_reduce,
)

@cache
def fusion_algebra(k, n):
    return FusionAlgebra(k, n)


class FusionAlgebra:
    def __init__(self, k, n):
        if not 0 < k < n:
            raise ValueError("need 0 < k < n")
        self.k = k
        self.n = n
        self.cols = n - k
        self.basis = partitions_in_box(k, self.cols)
        self.dim = len(self.basis)
        self.index = {p: i for i, p in enumerate(self.basis)}
        self.box_index = self.index[(self.cols,) * k]
        self._products = {}
        self._handle_powers = []

    def class_index(self, parts):
        p = Partition(parts)
        if p not in self.index:
            raise ValueError("class outside box: %s in %dx%d" % (p, self.k, self.cols))
        return self.index[p]

    def _terms(self, i, j):
        """sigma_i * sigma_j at q = 1 as its nonzero (basis index, coefficient)
        terms, one quantum_product per unordered pair."""
        if i > j:
            i, j = j, i
        got = self._products.get((i, j))
        if got is None:
            acc = {}
            for (parts, _), coeff in quantum_product(self.basis[i], self.basis[j],
                                                     self.k, self.n).items():
                t = self.index[parts]
                acc[t] = acc.get(t, 0) + coeff
            got = self._products[(i, j)] = [(t, c) for t, c in acc.items() if c]
        return got

    def multiply(self, v, w):
        out = [0] * self.dim
        w_terms = [(j, wj) for j, wj in enumerate(w) if wj]
        for i, vi in enumerate(v):
            if vi:
                for j, wj in w_terms:
                    c = vi * wj
                    for t, p in self._terms(i, j):
                        out[t] += c * p
        return out

    def counit(self, v):
        return v[self.box_index]

    @cached_property
    def dual(self):
        """The pairing permutation: counit(sigma_i * sigma_j) = [j == dual[i]],
        dual[i] the box complement of basis[i].

        The pairing at q = 1 is the 3-point invariant <sigma_i, sigma_j, 1>,
        which the fundamental-class axiom kills in positive degree: Poincare
        duality.  Each entry j >= i with |lam_i| + |lam_j| = k(n-k) + n*s is
        checked against LR numbers over the box preimages of s strips and
        their rim-hook signs, never against the products, and a mismatch
        means wrong products: ArithmeticError.  Each preimage is reduced once,
        and must reduce to the box; each pair takes one LR enumeration,
        bounded by the preimages' rows, which gives c^nu for all of them.
        """
        k, n, top = self.k, self.n, self.k * self.cols
        box = self.basis[self.box_index]
        dual = [self.index[Partition(self.cols - lam.row(k - 1 - r) for r in range(k))]
                for lam in self.basis]
        by_size = {}  # basis indices by class size; the basis runs by size
        for i, lam in enumerate(self.basis):
            by_size.setdefault(sum(lam), []).append(i)
        for strips in range(top // n + 1):
            targets = []  # (preimage, its rim-hook sign); every preimage has k rows
            for nu in box_preimages(k, n, strips):
                red = rim_hook_reduce(nu, k, n)
                if red is None or red[0] != box:
                    raise ArithmeticError("pairing is not a permutation matrix")
                targets.append((nu, red[2]))
            outer = tuple(map(max, zip(*(nu for nu, _ in targets))))
            for i, lam in enumerate(self.basis):
                for j in by_size.get(top + n * strips - sum(lam), ()):
                    if j >= i:  # the larger class as the shape, the smaller as letters
                        counts = _lr_expand(self.basis[j], lam, outer)
                        total = sum(sign * counts.get(nu, 0) for nu, sign in targets)
                        if total != (j == dual[i]):
                            raise ArithmeticError("pairing is not a permutation matrix")
        return dual

    def handle_element(self):
        """H = sum_i sigma_i * sigma_dual(i), as the pairing's inverse is its
        transpose, the permutation `dual` itself; one factor per genus.
        handle_power keeps it as H^1."""
        out = [0] * self.dim
        for i, j in enumerate(self.dual):
            for t, c in self._terms(i, j):
                out[t] += c
        return out

    def handle_power(self, genus):
        """H^genus for genus >= 1, each power multiplied out once per algebra."""
        powers = self._handle_powers
        if not powers:
            powers.append(self.handle_element())
        while len(powers) < genus:
            powers.append(self.multiply(powers[-1], powers[0]))
        return powers[genus - 1]

    @cached_property
    def characters(self):
        """Per spectral point, (the basis characters s_lam(t), chi_t(H)), with
        H's character sum_lam s_lam(t) * s_lam^dual(t); computed once per
        algebra."""
        out = []
        for vals in _spectrum_points(self.k, self.n):
            ents = elementary_symmetrics(self.k, vals)
            chars = tuple(_schur_value(p, ents) for p in self.basis)
            out.append((chars, sum(chars[i] * chars[j] for i, j in enumerate(self.dual))))
        return tuple(out)

    def correlator(self, classes, genus):
        """Genus-g correlator of the box classes, an exact Fraction: with v their
        product, counit(v * H^g) = sum_i v_i * (H^g)[dual(i)], dual the pairing permutation."""
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        v = [0] * self.dim
        v[self.index[()]] = 1
        for parts in classes:
            w = [0] * self.dim
            w[self.class_index(parts)] = 1
            v = self.multiply(v, w)
        if not genus:
            return Fraction(self.counit(v))
        h = self.handle_power(genus)
        return Fraction(sum(vi * h[j] for vi, j in zip(v, self.dual) if vi))


def box_preimages(k, n, strips):
    """Partitions reducing to the k x (n-k) box after removing `strips` n-rim hooks.

    The box's beta numbers n-1, ..., n-k have distinct residues mod n, so
    adding n * m_i to the i-th, with sum m_i = strips, gives each preimage once.
    """
    out = []
    for raised in combinations_with_replacement(range(k), strips):
        beta = sorted((n - 1 - i + n * raised.count(i) for i in range(k)), reverse=True)
        out.append(Partition([b - (k - 1 - i) for i, b in enumerate(beta)]))
    return out


def correlator_genus_g(classes, genus, k, n):
    return fusion_algebra(k, n).correlator(classes, genus)


# ---------------------------------------------------------------------------
# spectral route

def _spectrum_points(k, n):
    """Root tuples for the characters: k-subsets of the n-th roots of (-1)^(k-1).

    For even k the points live among the 2n-th roots of unity (odd powers),
    so the arithmetic runs in Q(zeta_2n); for odd k plain n-th roots suffice.
    Each point is a list of CyclotomicNumber roots, which carry their field.
    """
    if k % 2:
        order, exps = n, list(range(n))
    else:
        order, exps = 2 * n, [2 * j + 1 for j in range(n)]
    return [[zeta(order, exps[j]) for j in sub] for sub in combinations(range(n), k)]


def _schur_value(lam, ents):
    """s_lam at one point via the dual Jacobi-Trudi determinant, from the
    point's e_0..e_k in `ents`."""
    conj = lam.conjugate()
    if not conj:
        return 1
    mat = [[ents[t] if 0 <= t < len(ents) else 0
            for t in range(c - i, c - i + len(conj))]
           for i, c in enumerate(conj)]
    return _det(mat)


def _det(mat):
    """Laplace expansion along the first row, over any commutative ring."""
    if len(mat) == 1:
        return mat[0][0]
    return sum(entry * _det([row[:j] + row[j + 1 :] for row in mat[1:]]) * (-1) ** j
               for j, entry in enumerate(mat[0]))


@cache
def _spectral_weights(k, n, genus):
    """chi_t(H)^(genus-1) per spectral point of Gr(k, n)."""
    return tuple(handle ** (genus - 1) for _, handle in fusion_algebra(k, n).characters)


def correlator_via_spectrum(classes, genus, k, n):
    """The same trace through the algebra characters.

    At each point t the handle element H = sum_lam s_lam s_lam^dual (the
    dual being the box complement, the pairing's permutation) has the
    character chi_t(H), the inverse of the idempotent counit there, so the
    genus-g trace is sum_t prod s_class(t) * chi_t(H)^(g-1); see Abrams,
    "Two-dimensional topological quantum field theories and Frobenius
    algebras", 1996.  The characters and the weights chi_t(H)^(g-1) are
    kept per process, so a call multiplies only its classes' characters
    into them.  Intended for small n (the tests use n <= 5).
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    alg = fusion_algebra(k, n)
    picked = [alg.class_index(parts) for parts in classes]
    total = 0
    for (chars, _), val in zip(alg.characters, _spectral_weights(k, n, genus)):
        for i in picked:
            val = val * chars[i]
        total = total + val
    return total.to_rational()


# ---------------------------------------------------------------------------
# engine comparison

def classes_for_query(query):
    """The column classes sigma_(1^j) the query inserts, j over its columns."""
    return [(1,) * j for j in query.columns]


def oracle_value(query):
    _require_admissible(query)
    return correlator_genus_g(classes_for_query(query), query.g, query.k, query.n)
