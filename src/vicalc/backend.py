"""The subset-sum kernel, evaluated as scalars modulo one prime.

Pick a prime p = 1 (mod n) above the query's L1 bound plus SPARE_BITS
and a w with Phi_n(w) = 0 (mod p).  Then x -> w is a ring map from
Z[x]/Phi_n to Z/p, every root of unity becomes a power of w, and each
per-subset term of the sum is one residue:

    genus 0:   Delta_S * D_S        D = prod(rho) * (-1)^(k(k-1)/2) * prod_{i<j}(rho_i - rho_j)^2
    genus 1:   Delta_S
    genus g:   Delta_S * R_S^(g-1)  R = prod_{rho in S, tau not in S}(rho - tau)

with Delta_S the product of the elementary symmetric values sigma_j(S)
over the requested indices.  Neither D nor R needs an inverse.

One term is computed per rotation orbit.  Rotating S by one step
multiplies its term by zeta_n to the term's total degree, which is
-e*n, and zeta_n^(-e*n) = 1 exactly when the query meets the degree
condition.  On such a query every term is rotation invariant, so the
sum over all C(n, k) subsets is the sum over orbit representatives of
orbit size times term.  Every orbit contains a subset {0} + T whose gap
word (t1 - 0, t2 - t1, ..., n - t_(k-1)) is the least of its k
rotations, and that subset is unique: it is the necklace of the orbit
(Ruskey & Sawada, "An efficient algorithm for generating necklaces with
fixed density", SIAM J. Comput. 1999).  If the gap word's smallest
period is s, the subset is fixed by rotation through n*s/k steps, so
the orbit has n*s/k members.  About C(n, k)/n terms are computed, not
C(n, k).  On an inadmissible query the reduction is wrong, which is why
vi_invariant checks admissibility before it calls the kernel.  The full
sum is a rational integer of absolute value below 2^term_bound_bits, so
its symmetric residue mod p is the integer itself; the caller lifts it,
checks it against the bound, and applies the sign and the genus-0
division by n^k.  The map stays a ring map whether or not p is prime,
and the kernel takes no inverse mod p, so correctness rests on the
Phi_n check, not on the primality test.
This is the multi-modular method (von zur Gathen & Gerhard, Modern
Computer Algebra, ch. 5) with a single prime.
"""

from itertools import combinations, islice
from math import comb, gcd, prod
from operator import sub

from .cyclotomic import cyclotomic_polynomial

SPARE_BITS = 64
_PRIMORIAL = prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))

# (n, bits) -> (p, w); filling it twice is harmless
_FIELDS = {}


def backend_name():
    """Name of the kernel lane; there is one, pure Python."""
    return "pure"


def term_bound_bits(n, k, genus, sigma_indices, count):
    """Bit length of an L1 bound on every intermediate in the subset loop."""
    bound = 1
    for j in sigma_indices:
        bound *= comb(k, j)
    if genus == 0:
        bound <<= k * (k - 1)
    elif genus >= 2:
        bound <<= k * (n - k) * (genus - 1)
    return (bound * max(count, 1)).bit_length()


def _root_of_phi(n, p):
    """A w with Phi_n(w) = 0 (mod p), or None after a few tries."""
    phi = cyclotomic_polynomial(n)
    for a in range(2, 40):
        w = pow(a, (p - 1) // n, p)
        acc = 0
        for c in reversed(phi):
            acc = (acc * w + c) % p
        if acc == 0:
            return w
    return None


def field(n, k, genus, sigma_indices):
    """(bits, p, w) for one query, shared by every rank range of its sum.

    bits is term_bound_bits over all C(n, k) subsets, p = 1 (mod n) lies
    above 2^(bits + SPARE_BITS), and Phi_n(w) = 0 (mod p).
    """
    bits = term_bound_bits(n, k, genus, sigma_indices, comb(n, k))
    got = _FIELDS.get((n, bits))
    if got is None:
        p = ((1 << (bits + SPARE_BITS)) // n + 1) * n + 1
        while True:
            if p % 2 and gcd(p, _PRIMORIAL) == 1 and pow(2, p - 1, p) == 1:
                w = _root_of_phi(n, p)
                if w is not None:
                    break
            p += n
        got = _FIELDS[(n, bits)] = (p, w)
    return (bits,) + got


def _orbit_representatives(n, k, lo, hi):
    """(subset, orbit_size) for each necklace among the subsets {0} + T,
    T over the lex ranks [lo, hi) of combinations(range(1, n), k - 1).

    A subset is kept when its gap word is the least of its rotations;
    each rotation orbit of k-subsets of range(n) has exactly one such
    subset, so the orbit sizes over the whole rank range sum to C(n, k).
    """
    for tail in islice(combinations(range(1, n), k - 1), lo, hi):
        subset = (0,) + tail
        gaps = tuple(map(sub, tail + (n,), subset))
        twice = gaps + gaps
        for s in range(1, k + 1):
            turned = twice[s:s + k]
            if turned < gaps:
                break
            if turned == gaps:  # s is the smallest period; s = k always ends here
                yield subset, n * s // k
                break


def subset_power_sum(n, k, genus, sigma_indices, lo, hi):
    """Sum of orbit size times term over the necklace subsets among {0} + T,
    T over the lex ranks [lo, hi) of combinations(range(1, n), k - 1),
    mod field(...)'s p.

    Over [0, C(n-1, k-1)) this is the full sum over all C(n, k) subsets,
    provided the query is admissible (see the module docstring); since
    each orbit has one representative, any split of the ranks into
    [lo, hi) ranges sums to that residue.
    """
    _, p, w = field(n, k, genus, sigma_indices)
    roots = [pow(w, c, p) for c in range(n)]
    diff = [[(a - b) % p for b in roots] for a in roots]
    jmax = max(sigma_indices, default=0)
    d_sign = -1 if (k * (k - 1) // 2) % 2 else 1
    everything = set(range(n))
    acc = 0
    for subset, size in _orbit_representatives(n, k, lo, hi):
        term = 1
        if jmax:
            e = [1] + [0] * jmax
            for seen, c in enumerate(subset, 1):
                x = roots[c]
                for j in range(min(jmax, seen), 0, -1):
                    e[j] = (e[j] + e[j - 1] * x) % p
            term = prod(e[j] for j in sigma_indices) % p
        if genus == 0:
            v = 1
            for i, a in enumerate(subset):
                row = diff[a]
                for b in subset[i + 1:]:
                    v = v * row[b] % p
            term = term * d_sign * v * v % p * roots[sum(subset) % n] % p
        elif genus >= 2:
            rest = everything.difference(subset)
            r = 1
            for a in subset:
                row = diff[a]
                for t in rest:
                    r = r * row[t] % p
            term = term * pow(r, genus - 1, p) % p
        acc += size * term
    # only ring operations: no inverse mod p is taken, so a composite p
    # still gives a ring map and the Phi_n check alone carries correctness
    return acc % p
