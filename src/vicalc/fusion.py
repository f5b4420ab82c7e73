"""Fusion-algebra oracle: small quantum cohomology of Gr(k, n) at q = 1.

This is the cross-check for the root-of-unity engine, built from nothing
but Littlewood-Richardson numbers and rim-hook reduction: basis = the
C(n, k) partitions in the k x (n-k) box, counit = coefficient of the
full box, handle element sum_i sigma_i * sigma_i^dual, the pairing being
Poincare duality (a permutation matrix, inverted by transposing it).  A
genus-g invariant is the counit of (product of insertions) * H^g, read
through the pairing permutation, with the powers H^g kept per algebra.

A second, spectral route evaluates the same trace through the algebra
characters (Schur values at k-subsets of the n-th roots of (-1)^(k-1)),
with each idempotent counit read off the handle element's character;
tests hold the two routes equal.
"""

from fractions import Fraction
from itertools import combinations

from .cyclotomic import CyclotomicNumber, zeta
from .engine import InadmissibleQueryError, _require_admissible, vi_invariant
from .symfunc import (
    Partition,
    elementary_symmetric,
    lr_coefficient,
    partitions_in_box,
    quantum_product,
    rim_hook_reduce,
)

_ALGEBRAS = {}


def fusion_algebra(k, n):
    key = (k, n)
    if key not in _ALGEBRAS:
        _ALGEBRAS[key] = FusionAlgebra(k, n)
    return _ALGEBRAS[key]


class FusionAlgebra:
    def __init__(self, k, n):
        if not 0 < k < n:
            raise ValueError("need 0 < k < n")
        self.k = k
        self.n = n
        self.cols = n - k
        self.basis = partitions_in_box(k, self.cols)
        self.dim = len(self.basis)
        self.index = {p.parts: i for i, p in enumerate(self.basis)}
        self.box = Partition([self.cols] * k)
        self.box_index = self.index[self.box.parts]
        self._products = {}
        self._pairing = None
        self._pairing_inv = None
        self._dual = None
        self._handle = None
        self._handle_powers = []

    def class_index(self, parts):
        p = Partition(parts)
        if p.parts not in self.index:
            raise ValueError(
                "class outside box: %s in %dx%d" % (p.parts, self.k, self.cols)
            )
        return self.index[p.parts]

    def product_vector(self, i, j):
        """sigma_i * sigma_j at q = 1, as a coefficient vector over the basis."""
        if i > j:
            i, j = j, i
        got = self._products.get((i, j))
        if got is None:
            got = [0] * self.dim
            qp = quantum_product(self.basis[i], self.basis[j], self.k, self.n)
            for (parts, _), coeff in qp.items():
                got[self.index[parts]] += coeff
            self._products[(i, j)] = got
        return got

    def multiply(self, v, w):
        out = [0] * self.dim
        for i, vi in enumerate(v):
            if vi:
                for j, wj in enumerate(w):
                    if wj:
                        pv = self.product_vector(i, j)
                        c = vi * wj
                        for t, p in enumerate(pv):
                            if p:
                                out[t] += c * p
        return out

    def multiply_class(self, v, j):
        out = [0] * self.dim
        for i, vi in enumerate(v):
            if vi:
                pv = self.product_vector(i, j)
                for t, p in enumerate(pv):
                    if p:
                        out[t] += vi * p
        return out

    def counit(self, v):
        return v[self.box_index]

    def _box_preimages(self, strips):
        """Partitions reducing to the box after removing `strips` n-hooks."""
        k, n = self.k, self.n
        beta0 = tuple(self.cols + k - 1 - i for i in range(k))
        frontier = {beta0}
        for _ in range(strips):
            nxt = set()
            for beta in frontier:
                for pos in range(k):
                    cand = beta[pos] + n
                    if cand not in beta:
                        nb = tuple(sorted(beta[:pos] + beta[pos + 1 :] + (cand,), reverse=True))
                        nxt.add(nb)
            frontier = nxt
        out = []
        for beta in frontier:
            out.append(Partition([beta[i] - (k - 1 - i) for i in range(k)]))
        return out

    def pairing(self):
        """Matrix of counit(sigma_i * sigma_j), built from box preimages only."""
        if self._pairing is None:
            k, n = self.k, self.n
            top = k * self.cols
            mat = [[0] * self.dim for _ in range(self.dim)]
            for i, lam in enumerate(self.basis):
                for j in range(i, self.dim):
                    mu = self.basis[j]
                    diff = lam.size() + mu.size() - top
                    if diff < 0 or diff % n:
                        continue
                    total = 0
                    for nu in self._box_preimages(diff // n):
                        c = lr_coefficient(lam, mu, nu)
                        if c:
                            red = rim_hook_reduce(nu, k, n)
                            assert red is not None and red[0] == self.box
                            total += red[2] * c
                    mat[i][j] = mat[j][i] = total
            self._pairing = mat
        return self._pairing

    def pairing_inverse(self):
        """Inverse of the pairing, which is Poincare duality: its own transpose.

        counit(sigma_i * sigma_j) at q = 1 is the 3-point invariant
        <sigma_i, sigma_j, 1>, which the fundamental-class axiom kills in
        positive degree, so the pairing is a 0/1 permutation matrix.  Any
        other matrix means the products are wrong and raises ArithmeticError.
        """
        if self._pairing_inv is None:
            mat = self.pairing()
            cols = list(zip(*mat))
            for line in mat + cols:
                if sorted(x for x in line if x) != [1]:
                    raise ArithmeticError("pairing is not a permutation matrix")
            self._pairing_inv = [list(col) for col in cols]
            self._dual = [row.index(1) for row in mat]
        return self._pairing_inv

    def handle_element(self):
        """Sum of eta^(ij) sigma_i sigma_j; one factor per genus in the trace."""
        if self._handle is None:
            inv = self.pairing_inverse()
            out = [0] * self.dim
            for i in range(self.dim):
                for j in range(self.dim):
                    c = inv[i][j]
                    if c:
                        pv = self.product_vector(i, j)
                        for t, p in enumerate(pv):
                            if p:
                                out[t] += c * p
            self._handle = out
        return self._handle

    def handle_power(self, genus):
        """H^genus for genus >= 1, each power multiplied out once per algebra."""
        powers = self._handle_powers
        if not powers:
            powers.append(self.handle_element())
        while len(powers) < genus:
            powers.append(self.multiply(powers[-1], powers[0]))
        return powers[genus - 1]

    def correlator(self, classes, genus):
        """Genus-g correlator of the box classes, an exact Fraction: with v their
        product, counit(v * H^g) = sum_i v_i * (H^g)[dual(i)], dual the pairing permutation."""
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        v = [0] * self.dim
        v[self.index[()]] = 1
        for parts in classes:
            v = self.multiply_class(v, self.class_index(parts))
        if not genus:
            return Fraction(self.counit(v))
        h = self.handle_power(genus)
        return Fraction(sum(vi * h[j] for vi, j in zip(v, self._dual) if vi))


def correlator_genus_g(classes, genus, k, n):
    return fusion_algebra(k, n).correlator(classes, genus)


# ---------------------------------------------------------------------------
# spectral route

def _spectrum_points(k, n):
    """Root tuples for the characters: k-subsets of the n-th roots of (-1)^(k-1).

    For even k the points live among the 2n-th roots of unity (odd powers),
    so the arithmetic runs in Q(zeta_2n); for odd k plain n-th roots suffice.
    """
    if k % 2:
        order = n
        exps = list(range(n))
    else:
        order = 2 * n
        exps = [2 * j + 1 for j in range(n)]
    pts = []
    for sub in combinations(range(n), k):
        pts.append([zeta(order, exps[j]) for j in sub])
    return order, pts


def _schur_value(lam, values, k, order):
    """s_lam at the given roots via the dual Jacobi-Trudi determinant."""
    lam = Partition(lam)
    conj = lam.conjugate()
    size = len(conj)
    if size == 0:
        return CyclotomicNumber(order, [1])
    ents = {}

    def e_at(t):
        if t < 0 or t > k:
            return CyclotomicNumber(order, [])
        if t not in ents:
            v = elementary_symmetric(t, values)
            if isinstance(v, Fraction):
                v = CyclotomicNumber(order, [v])
            ents[t] = v
        return ents[t]

    mat = [[e_at(conj[i] - i + j) for j in range(size)] for i in range(size)]
    return _det(mat, order)


def _det(mat, order):
    size = len(mat)
    if size == 1:
        return mat[0][0]
    total = CyclotomicNumber(order, [])
    sign = 1
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total = total + mat[0][j] * _det(minor, order) * sign
        sign = -sign
    return total


def correlator_via_spectrum(classes, genus, k, n):
    """The same trace through the algebra characters.

    At each point t the handle element H = sum_lam s_lam s_lam^dual (the
    dual being the box complement, the pairing's permutation) has the
    character chi_t(H), the inverse of the idempotent counit there, so the
    genus-g trace is sum_t prod s_class(t) * chi_t(H)^(g-1); see Abrams,
    "Two-dimensional topological quantum field theories and Frobenius
    algebras", 1996.  Intended for small n (the tests use n <= 5).
    """
    alg = fusion_algebra(k, n)
    order, pts = _spectrum_points(k, n)
    dual = [alg.index[p.box_complement(k, alg.cols).parts] for p in alg.basis]
    total = CyclotomicNumber(order, [])
    for vals in pts:
        chars = [_schur_value(p, vals, k, order) for p in alg.basis]
        handle = CyclotomicNumber(order, [])
        for i, j in enumerate(dual):
            handle = handle + chars[i] * chars[j]
        val = handle ** (genus - 1)
        for parts in classes:
            val = val * chars[alg.class_index(parts)]
        total = total + val
    return total.to_rational()


# ---------------------------------------------------------------------------
# engine comparison

def classes_for_query(query):
    """Schubert classes realizing the query's monomial under its convention."""
    out = []
    for a in query.monomial:
        j = query.k - a + 1 if query.convention == "paper" else a
        out.append((1,) * j)
    return out


def oracle_value(query):
    if query.d != 0:
        raise ValueError("bundle degree must be 0 here; route through degree_reduce")
    _require_admissible(query)
    return correlator_genus_g(classes_for_query(query), query.g, query.k, query.n)


def oracle_compare(query):
    """True when the fusion trace reproduces the root-of-unity value."""
    return oracle_value(query) == vi_invariant(query).value
