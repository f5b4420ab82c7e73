"""Root-of-unity engine: examples, reductions, kernels, and counts."""

import pickle
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial, gcd

import pytest

from vicalc import backend
from vicalc.cli import _execute
from vicalc.cyclotomic import cyclotomic_polynomial
from vicalc.engine import (
    CONVENTIONS,
    InadmissibleQueryError,
    InvariantQuery,
    count_maximal,
    degree_reduce,
    evaluate,
    reference_term,
    required_weight,
    sign_factor,
    vi_invariant,
    vi_reference,
)
from vicalc.fusion import classes_for_query, oracle_value

ROUTES = (vi_invariant, vi_reference, oracle_value)


@lru_cache(maxsize=None)
def admissible_queries(n, k, g, max_len, convention="dual"):
    """Every admissible d = 0 query with a monomial of length <= max_len, by
    length and then lexicographically: the one enumerator the test modules
    share.  Cached, for the Hypothesis strategies, so it is a tuple."""
    out = []
    for m in range(max_len + 1):
        for mono in combinations_with_replacement(range(1, k + 1), m):
            q = InvariantQuery(n=n, k=k, g=g, e=0, monomial=mono, convention=convention)
            e, rest = divmod(required_weight(q) - sum(q.columns), n)
            if not rest:
                out.append(q.replace(e=e))
    return tuple(out)


def test_query_validation():
    with pytest.raises(ValueError):
        InvariantQuery(n=1, k=1, g=0, e=0)
    with pytest.raises(ValueError):
        InvariantQuery(n=4, k=4, g=0, e=0)
    with pytest.raises(ValueError):
        InvariantQuery(n=4, k=2, g=-1, e=0)
    with pytest.raises(ValueError):
        InvariantQuery(n=4, k=2, g=0, e=0, monomial=(3,))
    with pytest.raises(ValueError):
        InvariantQuery(n=4, k=2, g=0, e=0, convention="mixed")


def test_monomial_entries_must_be_integers():
    # read with operator.index, as Partition reads its parts: 1.9 is not
    # truncated to 1, and "1" is not parsed
    q = InvariantQuery(4, 2, 0, 0, monomial=(1, 1, 1, 1), convention="dual")
    assert evaluate(q).value == 2
    for bad in (1.9, "1", 1.0):
        with pytest.raises(TypeError):
            InvariantQuery(4, 2, 0, 0, monomial=(1, 1, 1, bad), convention="dual")


def test_query_and_count_fields_must_be_integers():
    # n, k, g, e and d of a query, and n, d, k and g of a count, are read with
    # operator.index, as the monomial is.  InvariantQuery(4, 2, 1.0, 0) used
    # to fail inside the kernel's pow(), and a d of 0.0 was stored and gave 6
    assert evaluate(InvariantQuery(4, 2, 1, 0, 0, convention="dual")).value == 6
    for i in range(5):
        args = [4, 2, 1, 0, 0]
        args[i] = float(args[i])
        with pytest.raises(TypeError):
            InvariantQuery(*args, convention="dual")
    # count_maximal(4, 2.0, 2, 1) used to fail multiplying a tuple by 2.0, and
    # off the degree condition count_maximal(4, 1.0, 2, 1) returned 0
    assert (count_maximal(4, 2, 2, 1).value, count_maximal(4, 1, 2, 1).value) == (2, 0)
    for args in ((4.0, 2, 2, 1), (4, 2.0, 2, 1), (4, 2, 2.0, 1), (4, 2, 2, 1.0), (4, 1.0, 2, 1)):
        with pytest.raises(TypeError):
            count_maximal(*args)


def test_query_and_result_are_frozen_values():
    q = InvariantQuery(5, 3, 0, 0, monomial=(1, 2, 3), convention="paper")
    for name in ("n", "e", "monomial", "convention", "columns"):
        with pytest.raises(AttributeError):
            setattr(q, name, getattr(q, name))
    twin = InvariantQuery(n=5, k=3, g=0, e=0, d=0, monomial=[1, 2, 3])
    assert twin == q and hash(twin) == hash(q)
    assert q.replace() == q and q.replace(e=1) != q
    # equality reads the seven fields, not the derived columns
    dual = q.replace(convention="dual")
    assert dual.columns == q.columns and dual != q
    assert repr(q) == ("InvariantQuery(n=5, k=3, g=0, e=0, d=0, "
                       "monomial=(1, 2, 3), convention='paper')")
    assert pickle.loads(pickle.dumps(q)) == q
    # replace() validates like the constructor
    with pytest.raises(ValueError):
        q.replace(k=q.n)
    with pytest.raises(TypeError):
        q.replace(e=1.0)
    with pytest.raises(TypeError):
        q.replace(columns=(1,))
    result = evaluate(InvariantQuery(4, 2, 1, 0))
    with pytest.raises(AttributeError):
        result.value = Fraction(7)
    assert result == evaluate(InvariantQuery(4, 2, 1, 0))
    assert hash(result) == hash((Fraction(6), 6))
    assert repr(result) == "InvariantResult(value=Fraction(6, 1), terms_summed=6)"


def admissible(query):
    return sum(query.columns) == required_weight(query)


def test_admissibility_examples():
    assert admissible(InvariantQuery(2, 1, 1, -1, monomial=(1, 1)))
    assert admissible(InvariantQuery(3, 1, 1, 0, monomial=()))
    assert not admissible(InvariantQuery(2, 1, 1, 0, monomial=(1,)))


def test_weights_by_convention():
    # paper label a is sigma_(1^(k-a+1)), dual label a is sigma_(1^a), sorted;
    # the weighted degree of the monomial is sum(columns)
    q = InvariantQuery(5, 3, 0, 0, monomial=(1, 2, 3), convention="paper")
    assert sum(q.columns) == (3 - 1 + 1) + (3 - 2 + 1) + (3 - 3 + 1)
    assert q.columns == (1, 2, 3)
    qd = InvariantQuery(5, 3, 0, 0, monomial=(1, 2, 3), convention="dual")
    assert sum(qd.columns) == 6
    assert qd.columns == (1, 2, 3)
    assert required_weight(InvariantQuery(4, 2, 2, -3, monomial=())) == 12 - 4


def test_columns_resolve_the_spelling_once():
    q = InvariantQuery(5, 3, 0, 0, monomial=(1, 2, 3, 3), convention="paper")
    assert q.columns == (1, 1, 2, 3)
    assert classes_for_query(q) == [(1,), (1,), (1, 1), (1, 1, 1)]
    qd = InvariantQuery(5, 3, 0, 0, monomial=(3, 1, 2), convention="dual")
    assert qd.columns == (1, 2, 3)
    assert classes_for_query(qd) == [(1,), (1, 1), (1, 1, 1)]
    # replace() builds a new query, whose columns follow its own fields
    assert q.replace(convention="dual").columns == (1, 2, 3, 3)
    assert q.replace(k=4, monomial=(1, 4)).columns == (1, 4)
    assert qd.replace(monomial=(2, 2)).columns == (2, 2)
    for n, k, g in ((4, 2, 0), (5, 3, 1), (6, 2, 2), (6, 3, 0)):
        for convention in CONVENTIONS:
            pool = admissible_queries(n, k, g, 4, convention)
            assert pool, (n, k, g, convention)
            for query in pool:
                assert admissible(query), query


def test_invariant_examples():
    r = vi_invariant(InvariantQuery(4, 2, 1, 0, monomial=()))
    assert (r.value, r.terms_summed, r.integral) == (6, 6, True)
    assert vi_invariant(InvariantQuery(2, 1, 1, -1, monomial=(1, 1))).value == 2
    # k=1 genus-2 closed form lands on n^g
    assert vi_invariant(InvariantQuery(3, 1, 2, -1, monomial=(1,))).value == 9


def test_inadmissible_raises_with_both_tallies():
    # every route passes the one guard
    for route in ROUTES:
        with pytest.raises(InadmissibleQueryError) as err:
            route(InvariantQuery(2, 1, 1, 0, monomial=(1,)))
        assert str(err.value) == ("degree condition violated: monomial weighted "
                                  "degree 1 != -e*n + k(n-k)(1-g) = 0"), route


def test_nonzero_degree_must_be_reduced():
    # an admissible query, were it reduced; the d check comes first
    for route in ROUTES:
        for q in (InvariantQuery(3, 1, 1, 0, d=3, monomial=()),
                  InvariantQuery(4, 2, 0, 0, d=4, monomial=(1,), convention="dual")):
            with pytest.raises(ValueError, match="route through degree_reduce") as err:
                route(q)
            assert not isinstance(err.value, InadmissibleQueryError), (route, q)


def test_genus_one_counts_subsets():
    for n in range(2, 9):
        for k in range(1, n):
            r = vi_invariant(InvariantQuery(n, k, 1, 0, monomial=()))
            assert r.value == comb(n, k)


def test_subset_sum_matches_reference(monkeypatch):
    rng = random.Random(52)
    for n in range(2, 7):
        for k in range(1, n):
            for g in (0, 1, 2):
                queries = admissible_queries(n, k, g, 5)
                for q in rng.sample(queries, min(4, len(queries))):
                    assert vi_invariant(q).value == vi_reference(q).value, q
    # a bound that under-reports must trip the check, not return a value
    q = InvariantQuery(6, 2, 2, -2, monomial=(2, 2), convention="dual")
    assert vi_invariant(q).value == 315
    monkeypatch.setattr(backend, "term_bound_bits", lambda *args: 4)
    with pytest.raises(ArithmeticError, match="bound"):
        vi_invariant(q)
    code, out, err = _execute(["vi", "--n", "6", "--k", "2", "--g", "2", "--e=-2",
                               "--monomial", "2,2", "--convention", "dual"])
    assert (code, out) == (4, "")
    assert "internal invariant violation" in err and "bound" in err


def test_subset_sum_equals_tuple_sum_term_exact():
    # per subset, all k! orderings give the same summand, and the full
    # tuple sum is k! times the subset sum
    for n in range(2, 6):
        for k in range(1, n):
            for g in (0, 1, 2):
                queries = admissible_queries(n, k, g, 3)
                if not queries:
                    continue
                q = queries[len(queries) // 2]
                sig = q.columns
                subset_total = None
                tuple_total = None
                for subset in combinations(range(n), k):
                    rep = reference_term(n, g, sig, subset)
                    for perm in permutations(subset):
                        term = reference_term(n, g, sig, perm)
                        assert term == rep, (q, subset, perm)
                        tuple_total = term if tuple_total is None else tuple_total + term
                    subset_total = rep if subset_total is None else subset_total + rep
                lhs = tuple_total * Fraction(1, factorial(k))
                assert lhs == subset_total


def test_twist_reduce_examples():
    # a line bundle twist (d += n*dL, e += k*dL) is the b = 0 case of
    # degree_reduce, which undoes it
    for q in (InvariantQuery(3, 1, 1, 2, monomial=()),
              InvariantQuery(5, 2, 0, 1, monomial=(1, 1), convention="dual")):
        for d_l in (1, 2, 4):
            twisted = q.replace(d=q.n * d_l, e=q.e + q.k * d_l)
            assert degree_reduce(twisted) == q, (q, d_l)


def test_degree_reduce_shapes():
    q0 = InvariantQuery(4, 2, 1, -1, monomial=(2, 2))
    assert degree_reduce(q0) is q0
    # b = 0: only e moves
    q = InvariantQuery(4, 2, 1, 1, d=8, monomial=())
    red = degree_reduce(q)
    assert (red.d, red.e, red.monomial) == (0, 1 - 2 * 2, ())
    # b > 0: monomial gains b top classes
    q = InvariantQuery(5, 2, 1, 0, d=7, monomial=(1,))
    red = degree_reduce(q)
    assert (red.d, red.e) == (0, -4)
    assert red.monomial == (1,) + (2,) * 3


def test_degree_reduce_pipeline_matches_direct():
    rng = random.Random(54)
    for n, k in ((3, 1), (4, 2), (5, 2), (6, 3)):
        for g in (0, 1, 2):
            pool = admissible_queries(n, k, g, 4)
            for q in rng.sample(pool, min(2, len(pool))):
                for d_l in (-2, -1, 1, 2, 3):
                    twisted = q.replace(d=n * d_l, e=q.e + k * d_l)
                    assert evaluate(twisted).value == vi_invariant(q).value, (q, d_l)


def test_kernel_returns_the_signed_sum_of_the_full_range():
    # the kernel returns the lifted integer sum, which is the invariant up to
    # the sign and, at genus 0, the factor n^k; it sums only the full range
    negative = InvariantQuery(3, 2, 2, -1, monomial=(1,), convention="dual")
    queries = [q for n in range(2, 7) for k in range(1, n) for g in (0, 1, 2)
               for q in admissible_queries(n, k, g, 3)]
    assert negative in queries
    for q in queries:
        n, k = q.n, q.k
        total = backend.subset_power_sum(n, k, q.g, q.columns, 0, comb(n - 1, k - 1))
        if q == negative:
            assert total == -9
        value = Fraction(sign_factor(q.e, k) * total)
        if q.g == 0:
            value /= n ** k
        assert value == vi_reference(q).value, q
    ranks = comb(6 - 1, 3 - 1)
    for lo, hi in ((0, 1), (1, ranks)):
        with pytest.raises(ValueError, match="full rank range"):
            backend.subset_power_sum(6, 3, 1, (), lo, hi)


def test_kernel_takes_one_power_per_repeated_column():
    # long runs of one column, alone or next to another: the kernel raises each
    # sigma_j(S) to its multiplicity once, and vi_reference multiplies every
    # entry out, over the cyclotomic field
    cases = 0
    for n in range(3, 8):
        for k in range(1, n):
            for g in (0, 1, 2):
                for j in range(1, k + 1):
                    for m in range(2, 12):
                        for extra in ((), (1,), (k,)):
                            q = InvariantQuery(n, k, g, 0, monomial=(j,) * m + extra,
                                               convention="dual")
                            e, rest = divmod(required_weight(q) - sum(q.columns), n)
                            if rest:
                                continue
                            q = q.replace(e=e)
                            total = backend.subset_power_sum(n, k, g, q.columns, 0,
                                                             comb(n - 1, k - 1))
                            value = Fraction(sign_factor(e, k) * total)
                            if g == 0:
                                value /= n ** k
                            assert value == vi_reference(q).value, q
                            cases += 1
    assert cases == 933


def _necklaces_by_filter(n, k):
    """The reference generator: walk every subset {0} + T and keep those
    whose gap word is the least of its rotations."""
    for tail in combinations(range(1, n), k - 1):
        subset = (0,) + tail
        gaps = tuple(b - a for a, b in zip(subset, tail + (n,)))
        twice = gaps + gaps
        for s in range(1, k + 1):
            turned = twice[s:s + k]
            if turned < gaps:
                break
            if turned == gaps:  # s is the smallest period
                yield subset, n * s // k
                break


def test_orbit_representatives_are_the_necklaces():
    def phi(m):
        return sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)

    for n in range(2, 17):
        for k in range(1, n):
            reps = list(backend._orbit_representatives(n, k))
            assert sum(size for _, size in reps) == comb(n, k), (n, k)
            necklaces = sum(phi(d) * comb(n // d, k // d)
                            for d in range(1, gcd(n, k) + 1) if gcd(n, k) % d == 0)
            assert len(reps) * n == necklaces, (n, k)
            # the same sequence as the filter
            assert reps == list(_necklaces_by_filter(n, k)), (n, k)


def test_periodic_shapes_match_reference():
    # shapes with necklaces of smallest period below k, and sigma_3^3 on
    # Gr(3, 10) at genus 2, beyond the reach of the other reference sweeps;
    # at n = 12 the fusion oracle is too slow
    for n, k, g, e, mono in (
        (8, 4, 0, 0, (4, 4, 4, 4)), (8, 4, 1, -1, (1, 3, 4)), (8, 4, 2, -3, (4, 4)),
        (10, 2, 0, 1, (2, 2, 2)), (10, 2, 1, -1, (1, 1, 2, 2, 2, 2)), (10, 2, 2, -2, (1, 1, 2)),
        (10, 5, 2, -3, (5,)),
        (10, 3, 2, -3, (3, 3, 3)),
        (12, 4, 0, 2, (4, 4)), (12, 4, 2, -3, (2, 2)),
    ):
        q = InvariantQuery(n, k, g, e, monomial=mono, convention="dual")
        assert vi_invariant(q).value == vi_reference(q).value, q


def test_half_rank_values_are_recorded():
    # k = n/2 has necklaces of every period dividing 6; the values were
    # recorded from vi_reference (about 3 s each)
    assert vi_invariant(InvariantQuery(12, 6, 2, -3, convention="dual")).value == 88649616
    assert (vi_invariant(InvariantQuery(12, 6, 3, -6, convention="dual")).value
            == 784986259865280)


def test_phi_at_forms_each_divisor_once():
    # n = 55,440 = 2^4 * 3^2 * 5 * 7 * 11 has 120 divisors: Phi_n(w) takes one
    # power w^d per divisor d, not one per chain of divisors
    n, w = 55440, 3
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert len(divisors) == 120
    powers = []

    class Counted(int):
        def __pow__(self, d):
            powers.append(d)
            return int(self) ** d

    value = backend._phi_at(n, Counted(w))
    assert sorted(powers) == divisors
    # Phi_n(w) = prod over d | n with n/d squarefree of (w^d - 1)^mu(n/d)
    num = den = 1
    for d in divisors:
        m = n // d
        primes = [q for q in (2, 3, 5, 7, 11) if m % q == 0]
        if all(m % (q * q) for q in primes):
            if len(primes) % 2:
                den *= w ** d - 1
            else:
                num *= w ** d - 1
    assert value * den == num


def test_field_root_is_a_root_of_the_cyclotomic_polynomial():
    # field() evaluates Phi_n by its own divisor recursion; hold p to Phi_n(w)
    # by Horner over the oracle's coefficients, above the bound, prime to n,
    # and w to order exactly n modulo every prime factor of p
    for n in range(2, 101):
        primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
        phi = cyclotomic_polynomial(n)
        k = min(2, n - 1)
        for genus, columns in ((0, ()), (2, (k,) * n)):
            bits, p, w = backend.field(n, k, genus, columns)
            assert p % n == 1
            acc = 0
            for c in reversed(phi):
                acc = acc * w + c
            assert acc == p, (n, genus, p, w)
            assert p > 1 << (bits + backend.SPARE_BITS), (n, genus)
            assert gcd(p, n) == 1, (n, genus)
            assert all(gcd(pow(w, c, p) - 1, p) == 1 for c in range(1, n)), (n, genus)
            assert all(pow(w, n // q, p) != 1 for q in primes), (n, genus)


def test_non_unit_denominator_exits_4(monkeypatch):
    real = backend.field
    # w = 1 sends every root to 1, so every V_S and the denominator are 0
    monkeypatch.setattr(backend, "field", lambda *args: real(*args)[:2] + (1,))
    with pytest.raises(ArithmeticError, match="not a unit"):
        vi_invariant(InvariantQuery(12, 6, 2, -3, convention="dual"))
    code, out, err = _execute(["vi", "--n", "12", "--k", "6", "--g", "2", "--e=-3",
                               "--convention", "dual"])
    assert (code, out) == (4, "")
    assert "not a unit" in err


def test_convention_duality():
    rng = random.Random(55)
    for n, k in ((4, 2), (5, 3), (6, 2)):
        for g in (0, 1, 2):
            pool = admissible_queries(n, k, g, 4, "paper")
            for q in rng.sample(pool, min(2, len(pool))):
                mirrored = InvariantQuery(
                    n=n, k=k, g=g, e=q.e,
                    monomial=tuple(sorted(k - a + 1 for a in q.monomial)),
                    convention="dual",
                )
                assert vi_invariant(q).value == vi_invariant(mirrored).value


def test_grassmannian_duality_twins():
    """Gr(k, n) = Gr(n-k, n): a query equals its twin on the dual Grassmannian.

    The isomorphism sends sigma_lambda to sigma_lambda' (the conjugate), so
    sigma_1 to itself, and the degree condition is symmetric in k and n-k
    (Witten, "The Verlinde algebra and the cohomology of the Grassmannian",
    1993).  The twin is a different subset sum: another k, another p and
    other necklaces.  No sign enters.  Range: every admissible dual query
    with sigma_1^m or no insertions, n <= 12, g <= 3, m <= 7 (288 pairs).
    """
    checked = 0
    for n in range(2, 13):
        for k in range(1, n):
            for g in range(4):
                for m in range(8):
                    e, rest = divmod(k * (n - k) * (1 - g) - m, n)
                    if rest:
                        continue
                    query = InvariantQuery(n, k, g, e, monomial=(1,) * m, convention="dual")
                    twin = query.replace(k=n - k)
                    assert vi_invariant(query).value == vi_invariant(twin).value, (n, k, g, m)
                    checked += 1
    assert checked == 288


def test_count_maximal_examples():
    # n=2, k=1, g=2, b=1: 2^(g-1) * root power sum at b-g+1 = 0 gives 4
    assert count_maximal(2, 1, 1, 2).value == 4
    # vanishing branch: 3 does not divide b-g+1
    assert count_maximal(3, 1, 1, 2).value == 0  # b=2, b-g+1 = 1
    # b=0, g=1: subset count
    assert count_maximal(4, 8, 2, 1).value == comb(4, 2)


def test_count_maximal_closed_form_rank_one():
    """m(n, d, 1, g) is n^g on the degree condition and 0 off it.

    With b = -d mod n the rank-one count is n^(g-1) times the sum of
    rho^(b-g+1) over the n-th roots of unity, which is n^g when n divides
    b - g + 1 and 0 otherwise.  n^g is the classical count of maximal line
    subbundles: 2^g in rank 2 (Lange & Narasimhan, "Maximal subbundles of
    rank two vector bundles on curves", Math. Ann. 1983), n^g in general
    (Oxbury, "Varieties of maximal line subbundles", Math. Proc. Cambridge
    Philos. Soc. 2000).  corollary-report prints this count and no longer
    re-derives it.  Range: 2 <= n <= 40, g <= 4, -n <= d < 2n, 12,285 cases.
    """
    checked = 0
    for n in range(2, 41):
        for g in range(5):
            for d in range(-n, 2 * n):
                b = -d % n
                got = count_maximal(n, d, 1, g)
                assert got.value == (n ** g if (b - g + 1) % n == 0 else 0), (n, d, g)
                assert got.integral
                checked += 1
    assert checked == 12285


def test_count_maximal_memory_grows_with_n_not_n_squared():
    # the kernel keeps the n powers of w, not an n x n table of differences:
    # at n = 1000 that table of a million residues took over 100 MiB.  Rank one
    # has the one necklace (0,) and fills no powers at all: at n = 110,880 the
    # powers of w modulo a 36,518-bit p took 463 MiB and most of the query's time.
    # At genus one the count is the number of subsets.
    for n, k, limit in ((1000, 1, 8 << 20), (1000, 2, 8 << 20), (110880, 1, 16 << 20)):
        tracemalloc.start()
        try:
            got = count_maximal(n, 0, k, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.value == comb(n, k)
        assert peak < limit, (n, k, peak)


def test_count_maximal_conventions_and_guards():
    # the count does not depend on the labelling: a <-> k-a+1 sends the
    # dual (k,)*b query to the paper (1,)*b query
    for n, d, k, g in ((3, 1, 2, 2), (4, 2, 2, 3), (5, 2, 3, 2), (6, 2, 3, 1)):
        b = -d % n
        e = (k * (n - k) * (1 - g) - k * b) // n
        paper = InvariantQuery(n, k, g, e, monomial=(1,) * b, convention="paper")
        assert count_maximal(n, d, k, g).value == vi_invariant(paper).value
    with pytest.raises(ValueError):
        count_maximal(4, 1, 0, 1)
    with pytest.raises(ValueError):
        count_maximal(0, 1, 1, 1)


def test_results_integral_across_suites():
    rng = random.Random(56)
    for n in range(2, 6):
        for k in range(1, n):
            for g in (0, 1, 2):
                pool = admissible_queries(n, k, g, 4)
                for q in rng.sample(pool, min(2, len(pool))):
                    assert vi_invariant(q).integral, q
