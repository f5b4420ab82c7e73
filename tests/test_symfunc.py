"""Partitions, LR coefficients, rim hooks, and the quantum product."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest

from vicalc.cyclotomic import zeta
from vicalc.fusion import fusion_algebra
from vicalc.symfunc import (
    Partition,
    _lr_expand,
    elementary_symmetric,
    elementary_symmetrics,
    lr_coefficient,
    partitions_in_box,
    quantum_product,
    rim_hook_reduce,
)


def partitions_of(total, max_rows, max_part):
    """Partitions of `total` with at most max_rows parts, each at most max_part."""
    out = []

    def rec(prefix, remaining, bound):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if len(prefix) == max_rows:
            return
        for p in range(min(bound, remaining), 0, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], total, max_part)
    return out


def contains(outer, inner):
    """Whether the diagram of `inner` lies inside that of `outer`."""
    return all(outer.row(i) >= part for i, part in enumerate(inner))


def fits_in_box(p, rows, cols):
    return len(p) <= rows and p.row(0) <= cols


def box_complement(p, rows, cols):
    """Complement inside the rows x cols box, reversed to a partition."""
    if not fits_in_box(p, rows, cols):
        raise ValueError("class outside box: %s in %dx%d" % (p, rows, cols))
    return Partition([cols - p.row(rows - 1 - i) for i in range(rows)])


def reference_lr_coefficient(lam, mu, nu):
    """c^nu_{lam, mu} by a fresh cell-by-cell tableau search for this one nu.

    Fills the cells of nu/lam in reading order (rows top to bottom, right to
    left within a row), enforcing semistandardness against the right and
    upper neighbours and the lattice property of the reverse reading word
    as each cell is filled.  The reference for the strip enumeration.
    """
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if not contains(nu, lam) or not contains(nu, mu):
        return 0
    cells = []
    for r in range(len(nu)):
        for c in range(nu.row(r) - 1, lam.row(r) - 1, -1):
            cells.append((r, c))
    if not cells:
        return 1
    m = len(mu)
    grid = {}
    counts = [0] * (m + 1)
    remaining = [mu.row(i) for i in range(m)]

    def fill(pos):
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        hi = m
        right = grid.get((r, c + 1))
        if right is not None:
            hi = min(hi, right)
        above = grid.get((r - 1, c))
        lo = 1
        if r > 0 and lam.row(r - 1) <= c < nu.row(r - 1):
            lo = above + 1
        total = 0
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and counts[v - 1] >= counts[v - 2]:
                continue
            grid[(r, c)] = v
            counts[v - 1] += 1
            remaining[v - 1] -= 1
            total += fill(pos + 1)
            del grid[(r, c)]
            counts[v - 1] -= 1
            remaining[v - 1] += 1
        return total

    return fill(0)


def reference_quantum_product(lam, mu, k, n):
    """quantum_product with one reference search per candidate nu."""
    lam, mu = Partition(lam), Partition(mu)
    acc = {}
    for nu in partitions_of(sum(lam) + sum(mu), k, lam.row(0) + mu.row(0)):
        c = reference_lr_coefficient(lam, mu, nu)
        red = rim_hook_reduce(nu, k, n) if c else None
        if red is not None:
            key = (red[0], red[1])
            acc[key] = acc.get(key, 0) + red[2] * c
    return {key: acc[key] for key in sorted(acc) if acc[key]}


def test_partition_validation():
    assert Partition((3, 3, 1)).parts == (3, 3, 1)
    assert type(Partition((3, 3, 1)).parts) is tuple
    assert Partition((2, 1, 0, 0)).parts == (2, 1)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_conjugate_involution():
    rng = random.Random(3100)
    for _ in range(50):
        parts = sorted((rng.randint(0, 6) for _ in range(5)), reverse=True)
        p = Partition(parts)
        assert p.conjugate().conjugate() == p
        assert sum(p.conjugate()) == sum(p)
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))


def test_partition_is_a_tuple():
    p = Partition((2, 1))
    assert isinstance(p, tuple)
    assert p == (2, 1) and (2, 1) == p and p != (2, 1, 1)
    assert hash(p) == hash((2, 1))
    assert {(2, 1): "plain"}[p] == "plain"
    assert repr(p) == "(2, 1)" and list(p) == [2, 1] and p[-1] == 1
    with pytest.raises(AttributeError):
        p.parts = (3,)
    # a Partition and the plain tuple are the same FusionAlgebra.index key
    alg = fusion_algebra(2, 4)
    assert alg.index[p] == alg.index[(2, 1)] == alg.class_index([2, 1, 0])
    assert alg.basis[alg.index[p]] == p
    # parts are read with operator.index: a float or a string is refused, not truncated
    for bad in ((2.7, 1), (2, 1.0), ("3",), (Fraction(2), 1)):
        with pytest.raises(TypeError):
            Partition(bad)


def test_box_complement():
    box = Partition((4, 4, 4))
    assert box_complement(Partition((4, 2, 1)), 3, 4) == Partition((3, 2))
    assert box_complement(box, 3, 4) == Partition(())
    assert box_complement(Partition(()), 3, 4) == box
    with pytest.raises(ValueError, match="outside box"):
        box_complement(Partition((5,)), 3, 4)
    # complement is an involution on the box
    for p in partitions_in_box(3, 4):
        assert box_complement(box_complement(p, 3, 4), 3, 4) == p


def test_partitions_in_box_count():
    for rows in range(0, 5):
        for cols in range(0, 5):
            got = partitions_in_box(rows, cols)
            assert len(got) == comb(rows + cols, rows)
            assert len(set(got)) == len(got)
            for p in got:
                assert fits_in_box(p, rows, cols)


def brute_elementary(j, values):
    total = None
    for pick in combinations(range(len(values)), j):
        prod = values[pick[0]]
        for i in pick[1:]:
            prod = prod * values[i]
        total = prod if total is None else total + prod
    return total


def test_elementary_symmetric_matches_brute_force():
    roots = [zeta(7, c) for c in (0, 2, 3, 6)]
    for j in range(1, 5):
        assert elementary_symmetric(j, roots) == brute_elementary(j, roots)
    assert elementary_symmetric(0, roots) == Fraction(1)
    assert elementary_symmetric(5, roots) == Fraction(0)
    assert elementary_symmetric(2, []) == Fraction(0)


def test_elementary_symmetric_over_ints_and_fractions():
    # the recurrence starts from the ints 1 and 0, so any ring of values works
    samples = ([], [3], [2, -1, 5, 7], [Fraction(1, 2), Fraction(-3, 4), 2, Fraction(5, 3)])
    for values in samples:
        for j in range(len(values) + 2):
            expected = sum(prod(pick) for pick in combinations(values, j))
            assert elementary_symmetric(j, values) == expected, (values, j)
        assert elementary_symmetrics(len(values) + 1, values) == [
            elementary_symmetric(j, values) for j in range(len(values) + 2)]
    assert type(elementary_symmetric(0, [Fraction(1, 2)])) is int
    assert type(elementary_symmetric(2, [Fraction(1, 2)])) is int
    with pytest.raises(ValueError, match="negative"):
        elementary_symmetric(-1, [1, 2])


def test_lr_known_values():
    # s1 * s1 = s2 + s11
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    # s21 appears twice in s1 * s1 * s1 but once per factor pairing
    assert lr_coefficient((2,), (1,), (2, 1)) == 1
    assert lr_coefficient((1, 1), (1,), (2, 1)) == 1
    # the classic multiplicity-2 case
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    # weight mismatch
    assert lr_coefficient((2,), (1,), (2,)) == 0
    # containment failure
    assert lr_coefficient((2, 2), (1,), (3, 1, 1)) == 0


def test_lr_symmetry():
    shapes = [p for total in range(0, 5) for p in partitions_of(total, 3, 4)]
    for lam in shapes:
        for mu in shapes:
            if sum(lam) + sum(mu) > 8:
                continue
            for nu in partitions_of(sum(lam) + sum(mu), 4, 8):
                assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu), (
                    lam, mu, nu)


SMALL_SHAPES = [p for total in range(0, 7) for p in partitions_of(total, 4, 6)]


def test_lr_coefficient_matches_reference():
    # every nu with at most 5 rows, contained or not, against a fresh search
    triples = 0
    for lam in SMALL_SHAPES:
        for mu in SMALL_SHAPES:
            total = sum(lam) + sum(mu)
            for nu in partitions_of(total, 5, total):
                want = reference_lr_coefficient(lam, mu, nu)
                assert lr_coefficient(lam, mu, nu) == want, (lam, mu, nu)
                triples += 1
    assert triples == 17858


def hook_length_count(lam):
    """Standard Young tableaux of shape lam, by the hook-length formula."""
    lam = Partition(lam)
    conj = lam.conjugate()
    hooks = 1
    for r, length in enumerate(lam):
        for c in range(length):
            hooks *= (length - c - 1) + (conj.row(c) - r - 1) + 1
    return factorial(sum(lam)) // hooks


def test_lr_expansion_hook_length_identity():
    # sum_nu c^nu_{lam mu} f^nu = C(|lam|+|mu|, |lam|) f^lam f^mu, f = #SYT;
    # the outer bound leaves room for every nu, so nothing is cut off
    for lam in SMALL_SHAPES:
        for mu in SMALL_SHAPES:
            outer = (lam.row(0) + mu.row(0),) * (len(lam) + len(mu))
            got = sum(c * hook_length_count(nu)
                      for nu, c in _lr_expand(lam, mu, outer).items())
            want = (comb(sum(lam) + sum(mu), sum(lam))
                    * hook_length_count(lam) * hook_length_count(mu))
            assert got == want, (lam, mu)


def test_quantum_product_matches_reference():
    for n in range(2, 8):
        for k in range(1, n):
            basis = partitions_in_box(k, n - k)
            for lam in basis:
                for mu in basis:
                    assert quantum_product(lam, mu, k, n) == \
                        reference_quantum_product(lam, mu, k, n), (lam, mu, k, n)


def horizontal_strip(nu, lam):
    nu, lam = Partition(nu), Partition(lam)
    if not contains(nu, lam):
        return False
    for i in range(1, len(nu)):
        if nu.row(i) > lam.row(i - 1):
            return False
    return True


def test_pieri_rule():
    # multiplying by a single row (r) adds a horizontal strip, coefficient 1
    shapes = [p for total in range(0, 7) for p in partitions_of(total, 4, 6)]
    for lam in shapes:
        for r in range(1, 5):
            for nu in partitions_of(sum(lam) + r, 5, 10):
                want = 1 if horizontal_strip(nu, lam) else 0
                assert lr_coefficient(lam, (r,), nu) == want, (lam, r, nu)


def test_column_pieri_rule():
    # multiplying by a column (1^r) adds a vertical strip
    shapes = [p for total in range(0, 6) for p in partitions_of(total, 3, 5)]
    for lam in shapes:
        for r in range(1, 4):
            col = (1,) * r
            for nu in partitions_of(sum(lam) + r, 6, 8):
                want = 1 if horizontal_strip(nu.conjugate(), lam.conjugate()) else 0
                assert lr_coefficient(lam, col, nu) == want, (lam, r, nu)


def rim_hook_removals(lam, k, n):
    """All single n-rim-hook removals from lam, as (new_partition, height) pairs.

    Removing a strip lowers one beta number lam_i + k-1-i by n onto a free
    value; the height is one more than the beta numbers it passes.  The
    one-strip walk that rim_hook_reduce's closed form is held to.
    """
    lam = Partition(lam)
    beta = [lam.row(i) + k - 1 - i for i in range(k)]
    out = []
    for b in beta:
        t = b - n
        if t >= 0 and t not in beta:
            height = sum(1 for x in beta if t < x < b) + 1
            nb = sorted([x for x in beta if x != b] + [t], reverse=True)
            out.append((Partition([x - (k - 1 - i) for i, x in enumerate(nb)]), height))
    return out


def test_rim_hook_removal_shapes():
    for k, n in ((2, 4), (3, 5), (3, 6), (4, 6)):
        for total in range(n, 2 * n + 3):
            for lam in partitions_of(total, k, 12):
                for nxt, height in rim_hook_removals(lam, k, n):
                    assert sum(nxt) == sum(lam) - n
                    assert 1 <= height <= k
                    assert contains(lam, nxt)


def test_rim_hook_reduce_examples():
    assert rim_hook_reduce((3, 2), 2, 4) == (Partition((1,)), 1, 1)
    assert rim_hook_reduce((3, 3), 2, 4) == (Partition((2,)), 1, 1)
    # a class that dies: no removable 4-strip reaches the 2x2 box
    assert rim_hook_reduce((4, 1), 2, 4) is None
    # already inside the box
    assert rim_hook_reduce((2, 1), 2, 4) == (Partition((2, 1)), 0, 1)


def test_rim_hook_reduce_row_guard():
    with pytest.raises(ValueError, match="more than 2 rows"):
        rim_hook_reduce((2, 1, 1), 2, 4)


DEAD = (None, None, None)


def all_reductions(lam, k, n):
    """Every complete removal sequence's endpoint, for order-independence."""
    lam = Partition(lam)
    if fits_in_box(lam, k, n - k):
        return {(lam, 0, 1)}
    out = set()
    for nxt, height in rim_hook_removals(lam, k, n):
        step = (-1) ** (k - height)
        for parts, q, sign in all_reductions(nxt, k, n):
            if parts is None:
                out.add(DEAD)
            else:
                out.add((parts, q + 1, step * sign))
    if not out:
        return {DEAD}
    return out


def test_rim_hook_reduce_order_independent():
    for k, n in ((2, 4), (2, 5), (3, 5), (3, 6), (2, 6)):
        for total in range(0, 13):
            for lam in partitions_of(total, k, 12):
                leaves = all_reductions(lam, k, n)
                got = rim_hook_reduce(lam, k, n)
                if got is None:
                    assert leaves == {DEAD}, (lam, k, n, leaves)
                else:
                    # order independence: one endpoint and no dead ends
                    assert len(leaves) == 1 and DEAD not in leaves, (
                        lam, k, n, leaves)
                    parts, q, sign = next(iter(leaves))
                    assert got == (Partition(parts), q, sign)


def test_quantum_product_known():
    assert quantum_product((1,), (1,), 2, 4) == {((1, 1), 0): 1, ((2,), 0): 1}
    # the q-term of s2*s2 cancels between the (4) and (3,1) strips; the
    # deformation shows up in s2*s11 instead (checked against the root sum)
    assert quantum_product((2,), (2,), 2, 4) == {((2, 2), 0): 1}
    assert quantum_product((2,), (1, 1), 2, 4) == {((), 1): 1}
    assert quantum_product((1,), (2, 1), 2, 4) == {((), 1): 1, ((2, 2), 0): 1}
    assert quantum_product((2, 2), (2, 2), 2, 4) == {((), 2): 1}
    # k=1: line geometry, sigma_a * sigma_b = sigma_{a+b} with q wrap
    assert quantum_product((2,), (2,), 1, 3) == {((1,), 1): 1}
    # keys come out sorted, so callers can render them in order
    assert list(quantum_product((1,), (2, 1), 2, 4)) == [((), 1), ((2, 2), 0)]
    with pytest.raises(ValueError, match="outside box"):
        quantum_product((3,), (1,), 2, 4)
    # no Grassmannian Gr(k, n) unless 0 < k < n
    for k, n in ((0, 3), (3, 3), (5, 3)):
        with pytest.raises(ValueError, match="0 < k < n"):
            quantum_product((), (), k, n)


def test_quantum_product_commutes_and_grades():
    rng = random.Random(3200)
    for k, n in ((2, 4), (2, 5), (3, 6)):
        basis = partitions_in_box(k, n - k)
        for _ in range(12):
            lam = rng.choice(basis)
            mu = rng.choice(basis)
            prod = quantum_product(lam, mu, k, n)
            assert prod == quantum_product(mu, lam, k, n)
            for (parts, qexp), coeff in prod.items():
                assert coeff != 0
                assert fits_in_box(parts, k, n - k)
                # q carries homogeneous degree n
                assert sum(parts) + n * qexp == sum(lam) + sum(mu)
