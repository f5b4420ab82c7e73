"""Fusion oracle: algebra structure, both trace routes, engine agreement."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from vicalc.engine import InadmissibleQueryError, InvariantQuery, vi_invariant
from vicalc.fusion import (
    FusionAlgebra,
    classes_for_query,
    correlator_genus_g,
    correlator_via_spectrum,
    fusion_algebra,
    oracle_value,
)


def basis_vector(alg, i):
    v = [0] * alg.dim
    v[i] = 1
    return v


def loop_correlator(alg, classes, genus):
    """Reference: multiply the insertions' product by H, genus times, then take the counit."""
    v = basis_vector(alg, alg.index[()])
    for parts in classes:
        v = alg.multiply_class(v, alg.class_index(parts))
    if genus:
        h = alg.handle_element()
        for _ in range(genus):
            v = alg.multiply(v, h)
    return Fraction(alg.counit(v))


def box_multisets(alg, size):
    """Every multiset of at most `size` box classes, the empty one first."""
    parts = [p.parts for p in alg.basis]
    return [()] + [tuple(c) for r in range(1, size + 1)
                   for c in combinations_with_replacement(parts, r)]


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
        assert alg.multiply_class(basis_vector(alg, i), e) == basis_vector(alg, i)


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
                ab = alg.product_vector(a, b)
                for c in range(b, alg.dim):
                    left = alg.multiply_class(ab, c)
                    right = alg.multiply(basis_vector(alg, a),
                                         alg.product_vector(b, c))
                    assert left == right, (k, n, a, b, c)


def test_product_associative_sampled():
    rng = random.Random(7)
    for k, n in ((2, 6), (3, 6)):
        alg = fusion_algebra(k, n)
        for _ in range(20):
            a, b, c = (rng.randrange(alg.dim) for _ in range(3))
            left = alg.multiply_class(alg.product_vector(a, b), c)
            right = alg.multiply(basis_vector(alg, a), alg.product_vector(b, c))
            assert left == right, (k, n, a, b, c)


def test_pairing_matches_products():
    # pairing() goes through box preimages and rim hooks; the product route
    # goes through Littlewood-Richardson expansion.  Same matrix either way.
    for k, n in ((2, 4), (2, 5), (3, 5)):
        alg = fusion_algebra(k, n)
        mat = alg.pairing()
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert mat[i][j] == alg.counit(alg.product_vector(i, j))


def test_pairing_complement_block():
    for k, n in ((1, 4), (2, 4), (2, 5), (3, 6)):
        alg = fusion_algebra(k, n)
        mat = alg.pairing()
        top = alg.k * alg.cols
        for i, lam in enumerate(alg.basis):
            comp = alg.index[lam.box_complement(alg.k, alg.cols).parts]
            assert mat[i][comp] == 1
            for j, mu in enumerate(alg.basis):
                if lam.size() + mu.size() == top and j != comp:
                    assert mat[i][j] == 0


def test_pairing_inverse_is_inverse():
    for k, n in ((2, 4), (2, 5), (3, 6)):
        alg = fusion_algebra(k, n)
        mat, inv = alg.pairing(), alg.pairing_inverse()
        for i in range(alg.dim):
            for j in range(alg.dim):
                s = sum(mat[i][t] * inv[t][j] for t in range(alg.dim))
                assert s == (1 if i == j else 0)


def test_pairing_inverse_refuses_non_permutation():
    # a fresh algebra, so the cached one that other tests read stays sound
    good = fusion_algebra(2, 4).pairing()
    doubled = [[2 * x for x in row] for row in good]
    extra = [list(row) for row in good]
    extra[0][0] += 1
    negated = [list(row) for row in good]
    negated[0] = [-x for x in negated[0]]
    zero_row = [list(row) for row in good]
    zero_row[0] = [0] * len(good)
    for bad in (doubled, extra, negated, zero_row):
        alg = FusionAlgebra(2, 4)
        alg._pairing = bad
        with pytest.raises(ArithmeticError, match="permutation"):
            alg.pairing_inverse()
        assert alg._pairing_inv is None
        # the genus >= 1 correlator reads the dual only after the check passes
        alg = FusionAlgebra(2, 4)
        alg._pairing = bad
        with pytest.raises(ArithmeticError, match="permutation"):
            alg.correlator([], 1)
        assert alg._dual is None and alg._handle_powers == []


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
    with pytest.raises(ValueError):
        correlator_genus_g([], -1, 2, 4)


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
        classes = [alg.basis[rng.randrange(alg.dim)].parts
                   for _ in range(rng.randrange(4))]
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
