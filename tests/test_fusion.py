"""Fusion oracle: algebra structure, both trace routes, engine agreement."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from vicalc import fusion
from vicalc.engine import InadmissibleQueryError, InvariantQuery, vi_invariant
from vicalc.fusion import (
    FusionAlgebra,
    box_preimages,
    classes_for_query,
    correlator_genus_g,
    correlator_via_spectrum,
    fusion_algebra,
    oracle_value,
)
from vicalc.symfunc import Partition, _lr_expand, rim_hook_reduce


def basis_vector(alg, i):
    v = [0] * alg.dim
    v[i] = 1
    return v


def product(alg, i, j):
    """sigma_i * sigma_j as a dense vector, through multiply."""
    return alg.multiply(basis_vector(alg, i), basis_vector(alg, j))


def loop_correlator(alg, classes, genus):
    """Reference: multiply the insertions' product by H, genus times, then take the counit."""
    v = basis_vector(alg, alg.index[()])
    for parts in classes:
        v = alg.multiply(v, basis_vector(alg, alg.class_index(parts)))
    if genus:
        h = alg.handle_element()
        for _ in range(genus):
            v = alg.multiply(v, h)
    return Fraction(alg.counit(v))


def box_multisets(alg, size):
    """Every multiset of at most `size` box classes, the empty one first."""
    return [()] + [tuple(c) for r in range(1, size + 1)
                   for c in combinations_with_replacement(alg.basis, r)]


def test_basis_dimension():
    for n in range(2, 7):
        for k in range(1, n):
            assert fusion_algebra(k, n).dim == comb(n, k)


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        fusion_algebra(0, 3)
    with pytest.raises(ValueError):
        fusion_algebra(3, 3)


def test_empty_class_is_identity():
    alg = fusion_algebra(2, 5)
    e = alg.class_index(())
    for i in range(alg.dim):
        assert alg.multiply(basis_vector(alg, i), basis_vector(alg, e)) == basis_vector(alg, i)


def test_class_outside_box_rejected():
    alg = fusion_algebra(2, 4)
    with pytest.raises(ValueError):
        alg.class_index((3,))
    with pytest.raises(ValueError):
        alg.class_index((1, 1, 1))


def test_product_associative():
    for k, n in ((1, 4), (2, 4), (2, 5), (3, 5)):
        alg = fusion_algebra(k, n)
        for a in range(alg.dim):
            for b in range(a, alg.dim):
                ab = product(alg, a, b)
                for c in range(b, alg.dim):
                    left = alg.multiply(ab, basis_vector(alg, c))
                    right = alg.multiply(basis_vector(alg, a), product(alg, b, c))
                    assert left == right, (k, n, a, b, c)


def test_product_associative_sampled():
    rng = random.Random(7)
    for k, n in ((2, 6), (3, 6)):
        alg = fusion_algebra(k, n)
        for _ in range(20):
            a, b, c = (rng.randrange(alg.dim) for _ in range(3))
            left = alg.multiply(product(alg, a, b), basis_vector(alg, c))
            right = alg.multiply(basis_vector(alg, a), product(alg, b, c))
            assert left == right, (k, n, a, b, c)


def walk_box_preimages(k, n, strips):
    """Reference: raise one beta number of the box by n per step, as a set of Partitions."""
    frontier = {tuple(n - 1 - i for i in range(k))}
    for _ in range(strips):
        frontier = {tuple(sorted(beta[:pos] + beta[pos + 1:] + (beta[pos] + n,), reverse=True))
                    for beta in frontier for pos in range(k) if beta[pos] + n not in beta}
    return {Partition([b - (k - 1 - i) for i, b in enumerate(beta)]) for beta in frontier}


def test_box_preimages_match_walk():
    # n <= 12 with every strip count that `dual` reads, k(n-k) // n at most,
    # and every strips <= k for n <= 9 (all of n <= 12 takes about a minute)
    cases = 0
    for n in range(2, 13):
        for k in range(1, n):
            for strips in range(max(k * (n - k) // n, k if n <= 9 else 0) + 1):
                got = box_preimages(k, n, strips)
                assert len(got) == len(set(got)), (k, n, strips)
                assert set(got) == walk_box_preimages(k, n, strips), (k, n, strips)
                assert all(rim_hook_reduce(p, k, n)[:2] == ((n - k,) * k, strips)
                           for p in got), (k, n, strips)
                cases += 1
    assert cases == 229


def test_pairing_matches_products():
    # `dual` goes through box preimages and rim hooks; the product route
    # goes through Littlewood-Richardson expansion.  Same pairing either way.
    for k, n in ((1, 4), (2, 4), (2, 5), (3, 5), (3, 6)):
        alg = fusion_algebra(k, n)
        dual = alg.dual
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert alg.counit(product(alg, i, j)) == (j == dual[i]), (k, n, i, j)


def test_pairing_complement_block():
    # dual(i) is the complement of basis[i] in the k x (n-k) box, turned round
    for k, n in ((1, 4), (2, 4), (2, 5), (3, 6)):
        alg = fusion_algebra(k, n)
        complements = [Partition([alg.cols - lam.row(k - 1 - r) for r in range(k)])
                       for lam in alg.basis]
        assert alg.dual == [alg.index[c] for c in complements], (k, n)


def test_pairing_inverse_is_inverse():
    # the pairing matrix from the products, inverted by transposing it: it is a
    # permutation, its transpose is its inverse, and the handle element summed
    # over that inverse is the one handle_element builds from `dual`
    for k, n in ((2, 4), (2, 5), (3, 6)):
        alg = fusion_algebra(k, n)
        dim = alg.dim
        mat = [[alg.counit(product(alg, i, j)) for j in range(dim)] for i in range(dim)]
        inv = [list(col) for col in zip(*mat)]
        for i in range(dim):
            for j in range(dim):
                assert sum(mat[i][t] * inv[t][j] for t in range(dim)) == (i == j)
        assert sorted(alg.dual) == list(range(dim))
        assert all(alg.dual[j] == i for i, j in enumerate(alg.dual))
        handle = [0] * dim
        for i in range(dim):
            for j in range(dim):
                if inv[i][j]:
                    for t, p in enumerate(product(alg, i, j)):
                        handle[t] += inv[i][j] * p
        assert alg.handle_element() == handle, (k, n)


def test_pairing_inverse_refuses_non_permutation(monkeypatch):
    # each bad pairing is injected through the LR enumeration or rim hooks
    # that `dual` reads; the products come from quantum_product and stay sound
    empty = Partition(())
    lr, rim = _lr_expand, rim_hook_reduce

    def scaled(factor, only_with_empty=False):
        def fake(lam, mu, outer):
            counts = lr(lam, mu, outer)
            if only_with_empty and empty not in (lam, mu):
                return counts
            return {nu: factor * c for nu, c in counts.items()}
        return fake

    bad = {
        "doubled": ("_lr_expand", scaled(2)),
        # sigma_2 * sigma_11 has no box term on Gr(2, 4): a second entry in both rows
        "extra": ("_lr_expand", lambda lam, mu, outer: {**lr(lam, mu, outer), (2, 2): 1}
                  if {lam, mu} == {(2,), (1, 1)} else lr(lam, mu, outer)),
        "negated": ("_lr_expand", scaled(-1, only_with_empty=True)),
        "zero_row": ("_lr_expand", scaled(0, only_with_empty=True)),
        # a preimage that the rim hooks kill, or send elsewhere than the box
        "killed": ("rim_hook_reduce", lambda nu, k, n: None),
        "elsewhere": ("rim_hook_reduce", lambda nu, k, n: (empty,) + rim(nu, k, n)[1:]),
    }
    for name, (attr, fake) in bad.items():
        monkeypatch.setattr(fusion, attr, fake)
        alg = FusionAlgebra(2, 4)
        with pytest.raises(ArithmeticError, match="permutation"):
            alg.dual
        assert "dual" not in vars(alg), name
        # the handle element and every genus >= 1 correlator read the dual
        # only after the check passes
        alg = FusionAlgebra(2, 4)
        with pytest.raises(ArithmeticError, match="permutation"):
            alg.correlator([], 1)
        assert "dual" not in vars(alg) and alg._handle_powers == [], name
        monkeypatch.undo()
    assert FusionAlgebra(2, 4).dual == fusion_algebra(2, 4).dual


def test_pairing_check_enumerates_once_per_pair(monkeypatch):
    # Gr(4, 8): the 259 pairs i <= j with |lam_i| + |lam_j| = 16 + 8s, s <= 2, each
    # checked over all its box preimages from one LR enumeration; a check that
    # enumerated per preimage would make more calls (445 on this shape)
    expected = FusionAlgebra(4, 8).dual
    calls = []
    monkeypatch.setattr(fusion, "_lr_expand",
                        lambda lam, mu, outer: calls.append((lam, mu)) or _lr_expand(lam, mu, outer))
    alg = FusionAlgebra(4, 8)
    assert alg.dual == expected
    pairs = {(i, j) for i, lam in enumerate(alg.basis) for j, mu in enumerate(alg.basis)
             if i <= j and sum(lam) + sum(mu) in (16, 24, 32)}
    assert len(pairs) == len(calls) == len(set(calls)) == 259
    # the smaller class is laid in as letters
    assert all(sum(mu) <= sum(lam) for lam, mu in calls)


def test_correlator_matches_genus_loop():
    # every 0 < k < n <= 6, g <= 3, every multiset of at most two box classes
    cases = 0
    for n in range(2, 7):
        for k in range(1, n):
            alg = fusion_algebra(k, n)
            for classes in box_multisets(alg, 2):
                for g in range(4):
                    assert alg.correlator(classes, g) == loop_correlator(alg, classes, g), \
                        (k, n, classes, g)
                    cases += 1
    assert cases == 3268


def test_handle_powers_are_repeated_products():
    for k, n in ((1, 4), (2, 4), (2, 5), (3, 6)):
        alg = FusionAlgebra(k, n)
        alg.correlator([], 3)
        h = alg.handle_element()
        expected = [h, alg.multiply(h, h), alg.multiply(alg.multiply(h, h), h)]
        assert alg._handle_powers == expected, (k, n)
        assert [alg.handle_power(g) for g in (1, 2, 3)] == expected, (k, n)


def test_genus_one_trace_counts_basis():
    for k, n in ((1, 5), (2, 4), (2, 5), (3, 5)):
        assert correlator_genus_g([], 1, k, n) == comb(n, k)


def test_genus_zero_examples():
    # four hyperplane classes on Gr(2, 4): the two lines meeting four
    # general lines.
    assert correlator_genus_g([(1,)] * 4, 0, 2, 4) == 2
    assert correlator_genus_g([(2,), (1, 1), (2, 2)], 0, 2, 4) == 1
    assert correlator_genus_g([(2, 2), (2, 2), (2, 2)], 0, 2, 4) == 1


def test_negative_genus_rejected():
    # the spectral route refuses g < 0 as the handle route does, instead of
    # summing chi_t(H)^(g-1) at a negative power
    for route in (correlator_genus_g, correlator_via_spectrum):
        with pytest.raises(ValueError, match="genus must be nonnegative"):
            route([], -1, 2, 4)


def test_spectral_route_matches_handle_route():
    # exhaustive for n <= 4: every k, g <= 2, every multiset of at most two
    # box classes; then random draws on Gr(2, 5)
    cases = 0
    for n in range(2, 5):
        for k in range(1, n):
            alg = fusion_algebra(k, n)
            for classes in box_multisets(alg, 2):
                for g in range(3):
                    assert correlator_via_spectrum(list(classes), g, k, n) == \
                        alg.correlator(classes, g), (k, n, classes, g)
                    cases += 1
    assert cases == 252
    rng = random.Random(3)
    alg = fusion_algebra(2, 5)
    for _ in range(3):
        classes = [alg.basis[rng.randrange(alg.dim)] for _ in range(rng.randrange(4))]
        g = rng.randrange(3)
        assert correlator_via_spectrum(classes, g, 2, 5) == \
            alg.correlator(classes, g), (classes, g)


def test_classes_for_query_conventions():
    # both spellings of the same classes; the list is sorted by column
    qp = InvariantQuery(5, 3, 0, 0, monomial=(1, 2, 3), convention="paper")
    assert classes_for_query(qp) == [(1,), (1, 1), (1, 1, 1)]
    qd = InvariantQuery(5, 3, 0, 0, monomial=(1, 2, 3), convention="dual")
    assert classes_for_query(qd) == [(1,), (1, 1), (1, 1, 1)]


def test_oracle_requires_reduced_degree():
    q = InvariantQuery(4, 2, 0, 0, d=4, monomial=(1, 1, 1, 1), convention="dual")
    with pytest.raises(ValueError, match="degree_reduce"):
        oracle_value(q)


def test_oracle_rejects_inadmissible():
    with pytest.raises(InadmissibleQueryError):
        oracle_value(InvariantQuery(4, 2, 0, 0, monomial=(1,), convention="dual"))


def test_oracle_matches_engine_examples():
    for q in (
        InvariantQuery(4, 2, 0, 0, monomial=(1, 1, 1, 1), convention="dual"),
        InvariantQuery(4, 2, 1, 0, monomial=()),
        InvariantQuery(4, 2, 2, -1, monomial=()),
        InvariantQuery(5, 2, 1, -1, monomial=(1, 2, 2), convention="dual"),
        InvariantQuery(6, 3, 2, -2, monomial=(1, 2), convention="dual"),
        InvariantQuery(4, 2, 0, 0, monomial=(2, 2, 2, 2), convention="paper"),
    ):
        assert oracle_value(q) == vi_invariant(q).value, q
