"""Closed forms at any n: checks of the subset sum where no oracle reaches.

The fusion oracle stops near Gr(4, 12) and vi_reference before that.  The
two families here are classical formulas, written out in the tests only,
so each one checks the kernel's necklaces, modulus, bound and lift at sizes
the oracles never see.  Each test states its source and the range it
covers; if the kernel disagrees, the test fails.  A third, n^g for the
rank-one count, is test_vi_engine.test_count_maximal_closed_form_rank_one.
"""

from fractions import Fraction
from math import factorial, pi, prod, sin

from vicalc.engine import InvariantQuery, count_maximal, vi_invariant


def compositions(total, parts):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def rrw_sigma_one_power(n, k, d):
    """The dual query Gr(k, n), genus 0, e = -d, sigma_1^N with N = k(n-k) + dn:

        (-1)^(d(k+1)) N! sum_{d_1+...+d_k = d, d_i >= 0}
            prod_{i<j} (j - i + n(d_j - d_i)) / prod_i (n - k + i - 1 + n d_i)!

    with i and j running from 1 to k.
    """
    big_n = k * (n - k) + d * n
    total = Fraction(0)
    for ds in compositions(d, k):
        num = prod(j - i + n * (ds[j] - ds[i]) for i in range(k) for j in range(i + 1, k))
        den = prod(factorial(n - k + i + n * ds[i]) for i in range(k))
        total += Fraction(num, den)
    return (-1) ** (d * (k + 1)) * factorial(big_n) * total


def rrw_query(n, k, d):
    return InvariantQuery(n, k, 0, -d, monomial=(1,) * (k * (n - k) + d * n),
                          convention="dual")


def test_genus_zero_sigma_one_powers_match_rrw():
    """Genus 0, sigma_1 powers, any d: the degree of the Quot scheme.

    Ravi, Rosenthal & Wang, "Degree of the generalized Plucker embedding of
    a Quot scheme and quantum cohomology", Math. Ann. 1998.  The formula
    comes from Schubert calculus on the Quot scheme, so it checks the
    Vafa-Intriligator sum itself, not only the kernel's arithmetic.  Range:
    every shape with n <= 12 and d <= 2 (198 queries), then eight larger
    ones with C(n, k) <= 20,000, among them sigma_1^95 on Gr(5, 20) and
    two with k near n, whose genus-0 bound runs to over a thousand bits.
    """
    checked = 0
    for n in range(2, 13):
        for k in range(1, n):
            for d in range(3):
                checked += 1
                assert vi_invariant(rrw_query(n, k, d)).value == rrw_sigma_one_power(n, k, d), \
                    (n, k, d)
    for n, k, d in ((13, 10, 0), (15, 13, 2), (20, 5, 1), (27, 3, 1), (34, 3, 2), (40, 2, 2),
                    (35, 34, 2), (30, 28, 2)):
        checked += 1
        assert vi_invariant(rrw_query(n, k, d)).value == rrw_sigma_one_power(n, k, d), (n, k, d)
    assert checked == 206


def cosecant_sum(m, n):
    """C_m(n) = sum_{j=1}^{n-1} csc^(2m)(pi j / n), as its polynomial in n."""
    s = n * n
    return (
        Fraction(n - 1),
        Fraction(s - 1, 3),
        Fraction((s - 1) * (s + 11), 45),
        Fraction((s - 1) * (2 * s * s + 23 * s + 191), 945),
    )[m]


def gr2_value(n, g):
    """The dual query Gr(2, n), genus g >= 1, sigma_2^(2(g-1)): (n/2)(n^2/4)^(g-1) C_(g-1)(n)."""
    return Fraction(n, 2) * Fraction(n * n, 4) ** (g - 1) * cosecant_sum(g - 1, n)


def test_cosecant_polynomials_are_the_trigonometric_sums():
    # the polynomials above, held to the sums they stand for in floating point
    for n in range(2, 101):
        for m in range(4):
            direct = sum(sin(pi * j / n) ** (-2 * m) for j in range(1, n))
            assert abs(direct - cosecant_sum(m, n)) <= 1e-9 * direct, (m, n)


def test_grassmannian_of_planes_matches_cosecant_sums():
    """Gr(2, n) at any genus, and the rank-2 maximal-subbundle counts.

    For k = 2 the subset sum is a cosecant power sum, and the sums
    C_m(n) = sum_j csc^(2m)(pi j / n) are polynomials in n (Zagier,
    "Elementary aspects of the Verlinde formula and of the
    Harder-Narasimhan-Atiyah-Bott formula", 1996; Berndt & Yeap, "Explicit
    evaluations and reciprocity theorems for finite trigonometric sums",
    Adv. Appl. Math. 2002).  So:
    - the dual query Gr(2, n), genus g, sigma_2^(2(g-1)) is
      (n/2)(n^2/4)^(g-1) C_(g-1)(n);
    - count_maximal(n, d, 2, g) is the same number when -d = 2(g-1) mod n;
    - at g = 2 with n even and -d = 2 + n/2 mod n, it is n^3(n^2+2)/48.
    Range: 3 <= n <= 100 and 1 <= g <= 4, every case of each branch
    (392 queries and 441 counts).
    """
    queries = counts = 0
    for n in range(3, 101):
        for g in range(1, 5):
            expected = gr2_value(n, g)
            query = InvariantQuery(n, 2, g, -2 * (g - 1), monomial=(2,) * (2 * (g - 1)),
                                   convention="dual")
            assert vi_invariant(query).value == expected, (n, g)
            assert count_maximal(n, -2 * (g - 1) % n, 2, g).value == expected, (n, g)
            queries += 1
            counts += 1
        if n % 2 == 0:
            d = -(2 + n // 2) % n
            assert count_maximal(n, d, 2, 2).value == Fraction(n ** 3 * (n * n + 2), 48), n
            counts += 1
    assert (queries, counts) == (392, 441)
