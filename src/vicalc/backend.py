"""The subset-sum kernel, evaluated as scalars modulo one integer.

The modulus is p = Phi_n(w), the n-th cyclotomic polynomial evaluated at
an integer w chosen so that p lies above the query's L1 bound plus
SPARE_BITS and gcd(p, n) = 1.  Phi_n(w) = 0 (mod p) holds by
construction, so x -> w is a ring map from Z[x]/Phi_n to Z/p, every root
of unity becomes a power of w, and each per-subset term of the sum is
one residue:

    genus 0:   Delta_S * D_S        D = rho_S * (-1)^(k(k-1)/2) * V_S
    genus 1:   Delta_S
    genus g:   Delta_S * R_S^(g-1)  R = prod_{rho in S, tau not in S}(rho - tau)

with rho_S = prod(rho), V_S = prod_{i<j}(rho_i - rho_j)^2 and Delta_S
the product of the elementary symmetric values sigma_j(S) over the
requested indices, taken as one power sigma_j(S)^m per distinct index j
of multiplicity m.  Since prod_{tau != rho}(rho - tau) = n*rho^(n-1) =
n/rho, the product of that over rho in S splits into R_S times the
differences inside S, and

    R_S = n^k * (-1)^(k(k-1)/2) * rho_S^(-1) / V_S.

So every genus builds its term from the one O(k^2) product V_S, not
from the O(k(n-k)) product R_S.  The kernel keeps the n powers w^c mod
p, built as a running product, and takes each difference rho_i - rho_j
of V_S from them inside the pair loop, so it holds n residues, not
n^2.  rho_S^(-(g-1)) is the power
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
itself; the kernel lifts it and checks it against the bound, and the
caller applies the sign and the genus-0 division by n^k.

p need not be prime.  Let r be a prime factor of p.  Since gcd(p, n) = 1,
r does not divide n, so x^n - 1 has no repeated root mod r and the roots
of Phi_n mod r are the elements of order n; w is one of them.  Hence
w^a - w^b = w^b(w^(a-b) - 1) with a != b (mod n) is nonzero mod every
r, so a unit mod p.  den is a product of such differences, so it is a
unit, and dividing by each V_S in it gives the image of R_S exactly.
pow(den, -1, p) still guards the inverse: if den is not a unit the
kernel raises ArithmeticError (exit 4 on the command line) instead of
returning a wrong value.  This is the multi-modular method (von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 5) with a single modulus.
"""
from functools import cache
from math import comb, gcd, prod

SPARE_BITS = 64


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


def _phi_at(n, w):
    """Phi_n(w) for an integer w > 1, from w^d - 1 = prod_{e | d} Phi_e(w):
    Phi_d(w) is computed once per divisor d of n, in increasing d."""
    phi = {}  # Phi_e(w) for the divisors e of n below d
    for d in range(1, n + 1):
        if n % d == 0:
            phi[d] = (w ** d - 1) // prod(v for e, v in phi.items() if d % e == 0)
    return phi[n]


def field(n, k, genus, columns):
    """(bits, p, w) for one query: bits is term_bound_bits over all
    C(n, k) subsets, (p, w) _modulus's."""
    bits = term_bound_bits(n, k, genus, columns, comb(n, k))
    return (bits,) + _modulus(n, bits)


@cache
def _modulus(n, bits):
    """(p, w) with p = Phi_n(w) above 2^(bits + SPARE_BITS) and prime to n,
    computed once per (n, bits) per process and never emptied.

    w starts at 1 + 2^ceil((bits + SPARE_BITS) / phi(n)), so p > (w -
    1)^phi(n) >= 2^(bits + SPARE_BITS), since |w - zeta| > w - 1 for every
    primitive n-th root zeta.  w is then raised by one until gcd(p, n) = 1.
    Of the primes dividing n only the largest, r, can divide Phi_n(w), and
    it does not when r | w, so that takes fewer than r steps.
    """
    totient = sum(gcd(a, n) == 1 for a in range(n))
    w = 1 + (1 << -(-(bits + SPARE_BITS) // totient))
    while gcd(p := _phi_at(n, w), n) != 1:
        w += 1
    return p, w


def _orbit_representatives(n, k):
    """(subset, orbit_size) for each necklace among the subsets {0} + T,
    T over combinations(range(1, n), k - 1), in lex order.

    The gap words are generated directly by the FKM prenecklace recursion,
    run without recursion: position t holds gap t, tail[t] is the element
    it ends at and period[t] is the smallest period of gaps[1..t].  A
    prefix whose remaining sum cannot hold k-t gaps as large as the first
    is not extended.  Each rotation orbit of k-subsets of range(n) has
    exactly one necklace, so the orbit sizes sum to C(n, k).
    """
    if k == 1:
        yield (0,), n
        return
    last = k - 1
    gaps = [0] * (k + 1)
    tail = [0] * k
    period = [1] * k
    t = 1
    while t:
        gap = gaps[t] + 1
        prev = tail[t - 1]
        left = n - prev - gap  # the sum still to place in gaps t+1..k
        if left < (k - t) * (gaps[1] if t > 1 else gap):
            t -= 1
            continue
        tail[t] = prev + gap
        gaps[t] = gap
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
    """The integer sum over all C(n, k) subsets, as orbit size times term
    over the necklaces, provided the query is admissible (see the module
    docstring).

    lo, hi must be 0, C(n-1, k-1): the lex ranks of the subsets {0} + T,
    all of them; any other range raises ValueError.  Raises
    ArithmeticError when the genus >= 2 denominator is not a unit mod p,
    or when the lifted sum exceeds its bound.
    """
    if (lo, hi) != (0, comb(n - 1, k - 1)):
        raise ValueError("the kernel sums the full rank range [0, %d), not [%d, %d)"
                         % (comb(n - 1, k - 1), lo, hi))
    bits, p, w = field(n, k, genus, columns)
    roots = [1] * n  # roots[c] = w^c mod p, one product per power
    if k > 1:  # k = 1 has the one necklace (0,), which reads w^0 alone
        for c in range(1, n):
            roots[c] = roots[c - 1] * w % p
    jmax = max(columns, default=0)
    groups = {}  # the multiplicity of each distinct column
    for j in columns:
        groups[j] = groups.get(j, 0) + 1
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    # the factors every term shares: sign at genus 0, (n^k * sign)^(g-1) above it
    scale = sign if genus == 0 else pow(pow(n, k, p) * sign, genus - 1, p)
    num, den = 0, 1
    for subset, size in _orbit_representatives(n, k):
        term = size
        if jmax:
            e = [1] + [0] * jmax
            for seen, c in enumerate(subset, 1):
                x = roots[c]
                for j in range(min(jmax, seen), 0, -1):
                    e[j] = (e[j] + e[j - 1] * x) % p
            for j, m in groups.items():
                term = term * pow(e[j], m, p) % p
        if genus == 1:
            num += term
            continue
        v = 1
        for i, a in enumerate(subset):
            x = roots[a]
            for b in subset[i + 1:]:
                v = v * (x - roots[b]) % p
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
    total = num * scale * inverse % p
    if total > p // 2:
        total -= p
    if total.bit_length() > bits:
        raise ArithmeticError(
            "subset sum %d exceeds its %d-bit bound mod p=%d" % (total, bits, p))
    return total
