"""Root-of-unity engine: examples, reductions, kernels, and counts."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice, permutations
from math import comb, factorial, gcd

import pytest

from vicalc import backend
from vicalc.cli import _execute
from vicalc.engine import (
    CONVENTIONS,
    InadmissibleQueryError,
    InvariantQuery,
    count_maximal,
    degree_reduce,
    evaluate,
    reference_term,
    required_weight,
    vi_invariant,
    vi_reference,
)
from vicalc.fusion import classes_for_query, oracle_value

ROUTES = (vi_invariant, vi_reference, oracle_value)


def admissible_queries(n, k, g, max_len, convention="dual"):
    """Every admissible monomial up to the given length, as queries."""
    out = []
    shift = k * (n - k) * (1 - g)
    for m in range(max_len + 1):
        for mono in combinations_with_replacement(range(1, k + 1), m):
            if convention == "paper":
                weight = sum(k - a + 1 for a in mono)
            else:
                weight = sum(mono)
            if (shift - weight) % n:
                continue
            e = (shift - weight) // n
            out.append(InvariantQuery(n=n, k=k, g=g, e=e, monomial=mono,
                                      convention=convention))
    return out


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
    assert replace(q, convention="dual").columns == (1, 2, 3, 3)
    assert replace(q, k=4, monomial=(1, 4)).columns == (1, 4)
    assert replace(qd, monomial=(2, 2)).columns == (2, 2)
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
                    rep = reference_term(n, k, g, sig, subset)
                    for perm in permutations(subset):
                        term = reference_term(n, k, g, sig, perm)
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
            twisted = replace(q, d=q.n * d_l, e=q.e + q.k * d_l)
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
                    twisted = replace(q, d=n * d_l, e=q.e + k * d_l)
                    assert evaluate(twisted).value == vi_invariant(q).value, (q, d_l)


def test_rank_splits_sum_to_the_full_residue():
    q = InvariantQuery(10, 3, 2, -3, monomial=(3, 3, 3), convention="dual")
    assert admissible(q)
    assert vi_invariant(q).value == vi_reference(q).value
    # any split of the ranks of [0, C(n-1, k-1)), the subsets containing 0,
    # into [lo, hi) ranges sums to the full residue; (12, 4) and (12, 6)
    # have orbits with non-trivial stabilisers
    rng = random.Random(57)
    for n, k, g in ((5, 2, 0), (8, 3, 1), (10, 3, 2), (11, 4, 3), (12, 4, 2), (12, 6, 0)):
        sig = tuple(sorted(rng.randint(1, k) for _ in range(3)))
        total = comb(n - 1, k - 1)
        p = backend.field(n, k, g, sig)[1]
        full = backend.subset_power_sum(n, k, g, sig, 0, total)
        assert 0 <= full < p
        for _ in range(3):
            cuts = sorted(rng.sample(range(1, total), rng.randint(1, min(4, total - 1))))
            edges = [0] + cuts + [total]
            parts = [backend.subset_power_sum(n, k, g, sig, lo, hi)
                     for lo, hi in zip(edges, edges[1:])]
            assert sum(parts) % p == full, (n, k, g, sig, edges)


def _necklaces_by_filter(n, k, lo, hi):
    """The reference generator: walk every subset {0} + T and keep those
    whose gap word is the least of its rotations."""
    for tail in islice(combinations(range(1, n), k - 1), lo, hi):
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

    rng = random.Random(7)
    for n in range(2, 17):
        for k in range(1, n):
            total = comb(n - 1, k - 1)
            reps = list(backend._orbit_representatives(n, k, 0, total))
            assert sum(size for _, size in reps) == comb(n, k), (n, k)
            necklaces = sum(phi(d) * comb(n // d, k // d)
                            for d in range(1, gcd(n, k) + 1) if gcd(n, k) % d == 0)
            assert len(reps) * n == necklaces, (n, k)
            if n > 14:
                continue
            # the same sequence as the filter, on the full range and on random ones
            ranges = [(0, total)] + [sorted(rng.choices(range(total + 1), k=2))
                                     for _ in range(6)]
            for lo, hi in ranges:
                assert (list(backend._orbit_representatives(n, k, lo, hi))
                        == list(_necklaces_by_filter(n, k, lo, hi))), (n, k, lo, hi)


def test_periodic_shapes_match_reference():
    # shapes with necklaces of smallest period below k, beyond the reach of
    # the other reference sweeps; at n = 12 the fusion oracle is too slow
    for n, k, g, e, mono in (
        (8, 4, 0, 0, (4, 4, 4, 4)), (8, 4, 1, -1, (1, 3, 4)), (8, 4, 2, -3, (4, 4)),
        (10, 2, 0, 1, (2, 2, 2)), (10, 2, 1, -1, (1, 1, 2, 2, 2, 2)), (10, 2, 2, -2, (1, 1, 2)),
        (10, 5, 2, -3, (5,)),
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


def test_count_maximal_examples():
    # n=2, k=1, g=2, b=1: 2^(g-1) * root power sum at b-g+1 = 0 gives 4
    assert count_maximal(2, 1, 1, 2).value == 4
    # vanishing branch: 3 does not divide b-g+1
    assert count_maximal(3, 1, 1, 2).value == 0  # b=2, b-g+1 = 1
    # b=0, g=1: subset count
    assert count_maximal(4, 8, 2, 1).value == comb(4, 2)


def test_count_maximal_closed_form_rank_one():
    for n in range(2, 7):
        for g in range(0, 4):
            for d in range(0, 2 * n + 1):
                a = -(-d // n)
                b = a * n - d
                expect = Fraction(n) ** (g - 1) * (n if (b - g + 1) % n == 0 else 0)
                got = count_maximal(n, d, 1, g)
                assert got.value == expect, (n, d, g)
                assert got.integral


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
