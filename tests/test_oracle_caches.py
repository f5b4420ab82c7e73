"""The per-process tables cannot be seen in their values.

backend keeps each (n, bits)'s modulus, engine each root tuple's D^(1-g)
and e_0..e_k, and fusion each algebra and its spectral weights
chi_t(H)^(g-1), all as functools.cache tables.  Every value must be the
same from a cold table and a warm one, in any order of queries.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from vicalc import backend, cyclotomic, engine, fusion
from vicalc.engine import InvariantQuery, reference_term, vi_invariant, vi_reference
from vicalc.fusion import classes_for_query, correlator_via_spectrum

from test_vi_engine import admissible_queries


TABLES = (backend._modulus, engine._d_power, engine._elementary,
          fusion.fusion_algebra, fusion._spectral_weights)


@pytest.fixture
def cold():
    """Every per-process table emptied before the test."""
    for table in TABLES:
        table.cache_clear()


def table_sizes():
    return [table.cache_info().currsize for table in TABLES]


def sweep_range(max_n, max_g):
    """Every admissible dual query with a monomial of length <= 5, n <= max_n
    and g <= max_g: the benchmark sweep's reference and spectral ranges."""
    return [q for n in range(2, max_n + 1) for k in range(1, n) for g in range(max_g + 1)
            for q in admissible_queries(n, k, g, 5)]


def count_inverses(monkeypatch):
    calls = []
    inverse = cyclotomic.CyclotomicNumber.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(cyclotomic.CyclotomicNumber, "inverse", counted)
    return calls


def test_sweep_ranges_cold_and_warm_agree(cold, monkeypatch):
    reference = sweep_range(5, 2)
    spectral = sweep_range(4, 1)
    assert (len(reference), len(spectral)) == (228, 67)

    def values():
        return ([vi_reference(q).value for q in reference],
                [correlator_via_spectrum(classes_for_query(q), q.g, q.k, q.n)
                 for q in spectral])

    first = values()
    kept = table_sizes()
    inverses = count_inverses(monkeypatch)
    second = values()
    # the warm pass found every subset and every spectral weight kept
    assert table_sizes() == kept and inverses == []
    assert first == second
    assert first[0] == [vi_invariant(q).value for q in reference]


@pytest.mark.parametrize("order", [(0, 2), (2, 0)])
def test_genus_is_part_of_the_key(cold, order):
    # on Gr(2, 4) the g = 0 and g = 2 sums run over the same six subsets
    # with D^1 and D^-1: a key without the genus would hand one the other's
    queries = {0: InvariantQuery(4, 2, 0, 0, monomial=(1, 1, 1, 1), convention="dual"),
               2: InvariantQuery(4, 2, 2, -1, convention="dual")}
    for g in order:
        assert vi_reference(queries[g]).value == vi_invariant(queries[g]).value, g
    assert [vi_reference(queries[g]).value for g in (0, 2)] == [2, 24]
    for g in order:
        classes = classes_for_query(queries[g])
        assert (correlator_via_spectrum(classes, g, 2, 4)
                == fusion.fusion_algebra(2, 4).correlator(classes, g)), g
    for subset in combinations(range(4), 2):
        terms = [reference_term(4, g, (), subset) for g in (0, 1, 2)]
        assert len(set(terms)) == 3, subset


def test_permuted_tuples_cold_and_warm(cold):
    # each ordering of a subset is its own key; all k! of them, taken before
    # or after the sorted subset and from a cold or a warm cache, give the
    # subset's term, and the tuple sum is k! times the subset sum
    for n in range(2, 6):
        for k in range(1, n):
            for g in (0, 1, 2):
                columns = tuple(range(1, k + 1))
                for subset in combinations(range(n), k):
                    engine._d_power.cache_clear()
                    engine._elementary.cache_clear()
                    cold_terms = [reference_term(n, g, columns, perm)
                                  for perm in permutations(reversed(subset))]
                    rep = reference_term(n, g, columns, subset)
                    warm_terms = [reference_term(n, g, columns, list(perm))
                                  for perm in permutations(subset)]
                    assert set(cold_terms) == set(warm_terms) == {rep}, (n, k, g, subset)
                    assert sum(warm_terms) * Fraction(1, factorial(k)) == rep


def test_field_modulus_cold_and_warm(cold, monkeypatch):
    # (bits, p, w) is the same from a cold table and a warm one, and a warm
    # call finds (p, w) kept: it evaluates no Phi_n(w)
    shapes = [(n, k, g, columns) for n in range(2, 13) for k in (1, n // 2)
              for g in (0, 1, 3) for columns in ((), (k,) * n)]
    first = [backend.field(*shape) for shape in shapes]
    calls = []
    phi_at = backend._phi_at

    def counted(n, w):
        calls.append((n, w))
        return phi_at(n, w)

    monkeypatch.setattr(backend, "_phi_at", counted)
    assert [backend.field(*shape) for shape in shapes] == first and calls == []
    backend._modulus.cache_clear()
    assert [backend.field(*shape) for shape in shapes] == first and calls
