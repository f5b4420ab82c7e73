"""End-to-end acceptance run: closed forms, oracle sweeps, reductions, timing.

Each test here is one independently checkable promise about the whole
package; run with -v to get a pass/fail line per promise.  Definition
order goes from closed-form sanity through oracle equivalence to the
performance and stability checks, so a failure high in the file points at
arithmetic and a failure low in the file points at plumbing.
"""

import json
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial
from random import Random

from vicalc.cli import _execute
from vicalc.engine import (
    InvariantQuery,
    count_maximal,
    degree_reduce,
    evaluate,
    reference_term,
    vi_invariant,
    vi_reference,
)
from vicalc.fusion import correlator_genus_g, oracle_value

from test_vi_engine import admissible_queries


def paper_twin(query):
    """Same insertion classes spelled in the other index convention."""
    mono = tuple(sorted(query.k - a + 1 for a in query.monomial))
    return query.replace(monomial=mono, convention="paper")


def test_rank_one_closed_form_under_one_second():
    # k = 1 collapses the subset sum to n^(g-1) * sum of rho^(m-g+1),
    # which is n^g when n divides m - g + 1 and 0 otherwise
    started = time.perf_counter()
    checked = 0
    for n in range(2, 9):
        for g in range(4):
            shift = (n - 1) * (1 - g)
            for m in range(13):
                if (shift - m) % n:
                    continue
                e = (shift - m) // n
                q = InvariantQuery(n=n, k=1, g=g, e=e, monomial=(1,) * m)
                expected = n ** g if (m - g + 1) % n == 0 else 0
                assert vi_invariant(q).value == expected, q
                checked += 1
    elapsed = time.perf_counter() - started
    assert checked > 50
    assert elapsed < 1.0, "rank-one sweep took %.2fs" % elapsed


def test_oracle_agrees_on_every_small_query():
    # the fusion trace and the root-of-unity sum, over every admissible
    # monomial of length <= 8 for n <= 6 and genus <= 2, both spellings
    started = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        for k in range(1, n):
            for g in (0, 1, 2):
                for q in admissible_queries(n, k, g, 8):
                    for query in (q, paper_twin(q)):
                        assert oracle_value(query) == vi_invariant(query).value, query
                    checked += 2
    elapsed = time.perf_counter() - started
    assert checked > 1000
    assert elapsed < 300.0, "oracle sweep took %.2fs" % elapsed


def test_four_hyperplane_classes_both_routes():
    # the two lines meeting four general lines in P^3, three ways
    assert correlator_genus_g([(1,)] * 4, 0, 2, 4) == 2
    dual = InvariantQuery(4, 2, 0, 0, monomial=(1, 1, 1, 1), convention="dual")
    paper = InvariantQuery(4, 2, 0, 0, monomial=(2, 2, 2, 2), convention="paper")
    assert vi_invariant(dual).value == 2
    assert vi_invariant(paper).value == 2
    assert vi_reference(dual).value == 2
    assert oracle_value(dual) == oracle_value(paper) == 2


def test_genus_one_with_no_insertions_counts_the_basis():
    for n in range(2, 9):
        for k in range(1, n):
            q = InvariantQuery(n=n, k=k, g=1, e=0, monomial=())
            assert vi_invariant(q).value == comb(n, k), (n, k)


def test_twisting_by_a_line_bundle_changes_nothing():
    rng = Random(20240229)
    pool = []
    for n in range(2, 7):
        for k in range(1, n):
            for g in (0, 1, 2):
                for q in admissible_queries(n, k, g, 6):
                    pool.append(q)
                    pool.append(paper_twin(q))
    assert len(pool) >= 100
    for _ in range(100):
        q = rng.choice(pool)
        d_line = rng.randint(-3, 3)
        twisted = q.replace(d=q.d + q.n * d_line, e=q.e + q.k * d_line)
        assert evaluate(twisted).value == vi_invariant(q).value, (q, d_line)


def test_degree_reduction_rewrites_d_into_the_monomial():
    for q0 in (
        InvariantQuery(4, 2, 1, 0, monomial=()),
        InvariantQuery(5, 2, 0, 0, monomial=(2, 2, 2), convention="dual"),
        InvariantQuery(6, 3, 2, -2, monomial=(1, 2), convention="dual"),
        InvariantQuery(5, 3, 1, -1, monomial=(1, 3, 3), convention="paper"),
    ):
        n, k = q0.n, q0.k
        for d in range(1, 3 * n + 1):
            q = q0.replace(d=d)
            a = -(-d // n)
            b = a * n - d
            expected = q.replace(d=0, e=q.e - a * k, monomial=q.monomial + (k,) * b)
            assert degree_reduce(q) == expected, (q0, d)
        # a twist is the b = 0 case and must evaluate to the same number
        for d_line in (1, 2, 3):
            twisted = q0.replace(d=n * d_line, e=q0.e + k * d_line)
            reduced = degree_reduce(twisted)
            assert reduced.monomial == q0.monomial
            assert vi_invariant(reduced).value == vi_invariant(q0).value


def test_tuple_sum_is_k_factorial_times_subset_sum():
    for n in range(2, 6):
        for k in range(1, n):
            for g in (0, 1, 2):
                queries = admissible_queries(n, k, g, 4)
                if not queries:
                    continue
                q = queries[len(queries) // 2]
                sig = q.columns
                for subset in combinations(range(n), k):
                    rep = reference_term(n, g, sig, subset)
                    tuple_total = None
                    for perm in permutations(subset):
                        term = reference_term(n, g, sig, perm)
                        tuple_total = term if tuple_total is None else tuple_total + term
                    assert tuple_total * Fraction(1, factorial(k)) == rep, (q, subset)
                assert vi_reference(q).value == vi_invariant(q).value, q


def test_every_admissible_value_is_an_integer():
    for n in range(2, 7):
        for k in range(1, n):
            for g in (0, 1, 2):
                for q in admissible_queries(n, k, g, 8):
                    r = vi_invariant(q)
                    assert r.integral and r.value.denominator == 1, q
    for n in range(2, 9):
        for g in range(4):
            shift = (n - 1) * (1 - g)
            for m in range(13):
                if (shift - m) % n:
                    continue
                q = InvariantQuery(n, 1, g, (shift - m) // n, monomial=(1,) * m)
                assert vi_invariant(q).integral, q


def test_maximal_subbundle_counts_match_the_oracle():
    # m(n, d, k, g) is the dual query with monomial (k,)*b when e is an
    # integer and 0 off the degree condition; no count is negative
    admissible = 0
    started = time.perf_counter()
    for n in range(2, 8):
        for k in range(1, n):
            for g in range(4):
                for d in range(2 * n):
                    b = -d % n
                    e, rest = divmod(k * (n - k) * (1 - g) - k * b, n)
                    got = count_maximal(n, d, k, g)
                    if rest:
                        expected = 0
                    else:
                        admissible += 1
                        expected = oracle_value(InvariantQuery(
                            n, k, g, e, monomial=(k,) * b, convention="dual"))
                    assert got.value == expected, (n, d, k, g)
                    assert got.value >= 0 and got.integral
                    assert got.terms_summed == comb(n, k)
    elapsed = time.perf_counter() - started
    assert admissible == 208
    assert elapsed < 30.0, "count sweep took %.2fs" % elapsed


def test_corollary_report_shows_claim_next_to_derivation():
    for n in range(2, 6):
        for g in range(1, 4):
            code, out, err = _execute([
                "corollary-report", "--n", str(n), "--g", str(g),
                "--format", "json",
            ])
            assert (code, err) == (0, ""), (n, g, err)
            got = json.loads(out)
            assert got["claimed"] == str(n ** (n * g))
            # the default d = 1 gives b = n - 1: n^g when n divides b - g + 1, else 0
            t = (n - 1) - g + 1
            assert got["derived"] == str(n ** g if t % n == 0 else 0)
            assert got["differ"] is True, (n, g)
    code, out, err = _execute(["corollary-report", "--n", "2", "--g", "1"])
    assert code == 0
    assert "published corollary" in out
    assert "root-of-unity sum" in out
    assert "not adjudicated" in out


def test_large_shape_is_fast_and_worker_count_is_invisible():
    q = InvariantQuery(20, 5, 2, -4, monomial=(5,) * 5, convention="paper")
    started = time.perf_counter()
    result = vi_invariant(q)
    elapsed = time.perf_counter() - started
    assert result.terms_summed == comb(20, 5) == 15504
    assert result.integral
    assert elapsed < 10.0, "took %.2fs" % elapsed

    argv = ["vi", "--n", "20", "--k", "5", "--g", "2", "--e=-4",
            "--monomial", "5,5,5,5,5", "--convention", "paper",
            "--format", "json"]
    serial = _execute(argv + ["--workers", "1"])
    quad = _execute(argv + ["--workers", "4"])
    assert serial == quad
    assert serial[0] == 0
    assert Fraction(json.loads(serial[1])["value"]) == result.value
