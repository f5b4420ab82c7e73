"""The subset-sum kernel, evaluated as scalars modulo one prime.

Pick a prime p = 1 (mod n) above the query's L1 bound plus SPARE_BITS
and a w with Phi_n(w) = 0 (mod p).  Then x -> w is a ring map from
Z[x]/Phi_n to Z/p, every root of unity becomes a power of w, and each
per-subset term of the sum is one residue:

    genus 0:   Delta_S * D_S        D = rho_S * (-1)^(k(k-1)/2) * V_S
    genus 1:   Delta_S
    genus g:   Delta_S * R_S^(g-1)  R = prod_{rho in S, tau not in S}(rho - tau)

with rho_S = prod(rho), V_S = prod_{i<j}(rho_i - rho_j)^2 and Delta_S
the product of the elementary symmetric values sigma_j(S) over the
requested indices.  Since prod_{tau != rho}(rho - tau) = n*rho^(n-1) =
n/rho, the product of that over rho in S splits into R_S times the
differences inside S, and

    R_S = n^k * (-1)^(k(k-1)/2) * rho_S^(-1) / V_S.

So every genus builds its term from the one O(k^2) product V_S, not
from the O(k(n-k)) product R_S.  rho_S^(-(g-1)) is the power
w^(-(g-1)*sum(S)) and needs no inverse; the constant (n^k * sign)^(g-1)
is applied once; and the genus >= 2 terms are added as one fraction
num/den, so a call takes one inverse mod p, of den.

One term is computed per rotation orbit.  Rotating S by one step
multiplies its term by zeta_n to the term's total degree, which is
-e*n, and zeta_n^(-e*n) = 1 exactly when the query meets the degree
condition.  On such a query every term is rotation invariant, so the
sum over all C(n, k) subsets is the sum over orbit representatives of
orbit size times term.  Every orbit contains a subset {0} + T whose gap
word (t1 - 0, t2 - t1, ..., n - t_(k-1)) is the least of its k
rotations, and that subset is unique: it is the necklace of the orbit.
The necklaces are generated directly, not filtered out of all
C(n-1, k-1) subsets that contain 0: the FKM prenecklace recursion runs
over the gap words, a composition of n into k parts, and stops
extending a prefix when the rest of the sum cannot hold gaps as large
as the first (Ruskey & Sawada, "An efficient algorithm for generating
necklaces with fixed density", SIAM J. Comput. 1999).  If the gap
word's smallest period is s, the subset is fixed by rotation through
n*s/k steps, so the orbit has n*s/k members.  About C(n, k)/n terms are
computed, not C(n, k).  On an inadmissible query the reduction is
wrong, which is why vi_invariant checks admissibility before it calls
the kernel.

The full sum is a rational integer of absolute value below
2^term_bound_bits, so its symmetric residue mod p is the integer
itself; the caller lifts it, checks it against the bound, and applies
the sign and the genus-0 division by n^k.  The map stays a ring map
whether or not p is prime, so every residue but the one inverse is
right even for a composite p that passed the primality test.  den is a
product of differences of distinct n-th roots of unity, which is a unit
mod a prime p = 1 (mod n).  If den is a unit, so is every V_S in it,
and dividing by V_S gives the image of R_S exactly; if it is not,
pow(den, -1, p) raises and the kernel raises ArithmeticError (exit 4 on
the command line) instead of returning a wrong value.
This is the multi-modular method (von zur Gathen & Gerhard, Modern
Computer Algebra, ch. 5) with a single prime.
"""
from math import comb, gcd, prod

from .cyclotomic import cyclotomic_polynomial

SPARE_BITS = 64
_PRIMORIAL = prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))

# (n, bits) -> (p, w); filling it twice is harmless
_FIELDS = {}


def backend_name():
    """Name of the kernel lane; there is one, pure Python."""
    return "pure"


def term_bound_bits(n, k, genus, columns, count):
    """Bit length of an L1 bound on every intermediate in the subset loop."""
    bound = 1
    for j in columns:
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


def field(n, k, genus, columns):
    """(bits, p, w) for one query, shared by every rank range of its sum.

    bits is term_bound_bits over all C(n, k) subsets, p = 1 (mod n) lies
    above 2^(bits + SPARE_BITS), and Phi_n(w) = 0 (mod p).
    """
    bits = term_bound_bits(n, k, genus, columns, comb(n, k))
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
    T over the lex ranks [lo, hi) of combinations(range(1, n), k - 1),
    in rank order.

    The gap words are generated directly by the FKM prenecklace recursion,
    run without recursion: position t holds gap t, tail[t] is the element
    it ends at, period[t] is the smallest period of gaps[1..t] and rank[t]
    is the first rank of the tails that start with tail[1..t].  Those
    tails are C(n-1-tail[t], k-1-t) consecutive ranks, so a prefix whose
    block misses [lo, hi) is skipped whole, and one whose remaining sum
    cannot hold k-t gaps as large as the first is not extended.  Each
    rotation orbit of k-subsets of range(n) has exactly one necklace, so
    the orbit sizes over the whole rank range sum to C(n, k).
    """
    if k == 1:
        if lo <= 0 < hi:
            yield (0,), n
        return
    last = k - 1
    gaps = [0] * (k + 1)
    tail = [0] * k
    period = [1] * k
    rank = [0] * k
    t = 1
    while t:
        gap = gaps[t] + 1
        prev = tail[t - 1]
        left = n - prev - gap  # the sum still to place in gaps t+1..k
        if left < (k - t) * (gaps[1] if t > 1 else gap):
            t -= 1
            continue
        at = tail[t] = prev + gap
        r = rank[t] = rank[t - 1] + comb(n - 1 - prev, k - t) - comb(n - at, k - t)
        if r >= hi:
            t -= 1
            continue
        gaps[t] = gap
        if r + comb(n - 1 - at, last - t) <= lo:
            continue
        p = period[t - 1]
        if gap != gaps[t - p]:
            p = t
        if t < last:
            period[t] = p
            t += 1
            gaps[t] = gaps[t - p] - 1  # the next gap starts at gaps[t - p]
            continue
        ref = gaps[k - p]  # the last gap is left, forced by the sum
        if left > ref:
            p = k
        if left >= ref and k % p == 0:
            yield tuple(tail), n * p // k


def subset_power_sum(n, k, genus, columns, lo, hi):
    """Sum of orbit size times term over the necklace subsets among {0} + T,
    T over the lex ranks [lo, hi) of combinations(range(1, n), k - 1),
    mod field(...)'s p.

    Over [0, C(n-1, k-1)) this is the full sum over all C(n, k) subsets,
    provided the query is admissible (see the module docstring); since
    each orbit has one representative, any split of the ranks into
    [lo, hi) ranges sums to that residue.  Raises ArithmeticError when
    the genus >= 2 denominator is not a unit mod p.
    """
    _, p, w = field(n, k, genus, columns)
    roots = [pow(w, c, p) for c in range(n)]
    diff = [[(a - b) % p for b in roots] for a in roots]
    jmax = max(columns, default=0)
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    # the factors every term shares: sign at genus 0, (n^k * sign)^(g-1) above it
    scale = sign if genus == 0 else pow(pow(n, k, p) * sign, genus - 1, p)
    num, den = 0, 1
    for subset, size in _orbit_representatives(n, k, lo, hi):
        term = size
        if jmax:
            e = [1] + [0] * jmax
            for seen, c in enumerate(subset, 1):
                x = roots[c]
                for j in range(min(jmax, seen), 0, -1):
                    e[j] = (e[j] + e[j - 1] * x) % p
            term = term * prod(e[j] for j in columns) % p
        if genus == 1:
            num += term
            continue
        v = 1
        for i, a in enumerate(subset):
            row = diff[a]
            for b in subset[i + 1:]:
                v = v * row[b] % p
        v = v * v % p
        term = term * roots[(1 - genus) * sum(subset) % n] % p  # rho_S^(1-g)
        if genus == 0:
            num += term * v
        else:
            v = pow(v, genus - 1, p)
            num = (num * v + term * den) % p
            den = den * v % p
    try:
        inverse = pow(den, -1, p)
    except ValueError:
        raise ArithmeticError(
            "the denominator of the subset sum is not a unit mod p=%d" % p) from None
    return num * scale * inverse % p
