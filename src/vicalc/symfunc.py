"""Partitions, Littlewood-Richardson coefficients, and rim-hook reduction.

A Partition is a validated tuple: it compares, hashes and indexes as the
plain tuple of its parts, so it serves directly as a dict key and a
product key.

LR coefficients come from direct enumeration of skew LR tableaux
(deliberately: this routine is the independently auditable cross-check
for everything downstream, so no determinant or crystal shortcuts).
The tableaux are built letter by letter, each letter a horizontal strip
that keeps the reverse reading word a lattice word, so one enumeration
yields c^nu_{lam, mu} for every nu at once: quantum_product takes them
all, lr_coefficient bounds the shapes by its nu, and the fusion pairing
check bounds them by its box preimages, one enumeration per checked pair.

Rim-hook reduction rewrites a partition with at most k rows, modulo
removal of border strips of size n, into a class inside the k x (n-k)
box.  Each removal contributes one power of q and the sign
(-1)^(k - height of the strip).  The endpoint is independent of the
removal order, so it is read off the beta numbers mod n in closed form
(Bertram, Ciocan-Fontanine and Fulton, "Quantum multiplication of Schur
polynomials", J. Algebra 1999); tests hold it to every removal sequence
of the one-strip walk.  rim_hook_reduce validates its input;
quantum_product reduces the enumerator's k-row tuples as they come, and
builds a Partition only for each class its product keeps.

Everything here is integer combinatorics.  elementary_symmetrics takes its
values from any commutative ring, starting from the ints 1 and 0, so the
oracles hand it roots of unity without this module importing the field.
"""

import operator
from itertools import combinations_with_replacement


class Partition(tuple):
    """A tuple of weakly decreasing positive parts; trailing zeros dropped.

    Each part is read with operator.index, so a float or a string is a
    TypeError rather than a truncated part.  A Partition given to the
    constructor is returned as it is, as tuple() returns a tuple: it was
    validated when it was built.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        if parts.__class__ is cls:
            return parts
        ps = [operator.index(p) for p in parts]
        while ps and ps[-1] == 0:
            ps.pop()
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing: %s" % (tuple(parts),))
        if ps and ps[-1] < 0:
            raise ValueError("parts must be nonnegative: %s" % (tuple(parts),))
        return super().__new__(cls, ps)

    @property
    def parts(self):
        """The parts as a plain tuple."""
        return tuple(self)

    def row(self, i):
        return self[i] if i < len(self) else 0

    def conjugate(self):
        return Partition([sum(1 for p in self if p > c) for c in range(self.row(0))])


def partitions_in_box(rows, cols):
    """All partitions fitting in rows x cols, by size then lexicographically;
    a box with a negative side holds only the empty partition."""
    parts = combinations_with_replacement(range(max(cols, 0), -1, -1), max(rows, 0))
    return sorted(map(Partition, parts), key=lambda p: (sum(p), p))


def elementary_symmetrics(j, values):
    """[e_0, ..., e_j] of a list of values in any commutative ring, by one
    pass of the recurrence started from the integers 1 and 0: so e_0 is
    the int 1 and e_t for t > len(values) the int 0, and the values decide
    how they combine with an int."""
    if j < 0:
        raise ValueError("negative elementary symmetric index")
    e = [1] + [0] * j
    for seen, x in enumerate(values, 1):
        for t in range(min(j, seen), 0, -1):
            e[t] = e[t] + x * e[t - 1]
    return e


def elementary_symmetric(j, values):
    """e_j of a list of values, the last entry of elementary_symmetrics."""
    return elementary_symmetrics(j, values)[j]


def _lr_strips(shape, prev, letter, size, rest, outer):
    """Every way to add `size` copies of the next letter as a horizontal strip.

    letter is the 0-based index of the letter and prev[r] counts the
    previous letter in row r.  A strip is kept when the lattice condition
    holds in every row: the copies in rows <= r number at most the previous
    letter's in rows < r.  That condition keeps the later letters, `rest`
    cells in all, out of rows <= letter, so a strip that leaves them too
    little room inside `outer` below that row is cut off.
    Returns (new shape, copies per row) pairs.

    The strips are walked depth first, a row at a time, without recursion:
    row r takes between least[r], what the rows below it cannot hold, and
    the most its cap, the lattice room and the copies left allow; each
    backtrack lowers the deepest row that is still above its least.
    """
    rows = len(shape)
    low = min(letter + 1, rows)
    budget = sum(outer[low:]) - sum(shape[low:]) - rest  # room below row `low` to spare
    if budget < 0:
        return []
    caps = [outer[0] - shape[0]]
    caps += [min(outer[r], shape[r - 1]) - shape[r] for r in range(1, rows)]
    below = [0] * (rows + 1)  # below[r]: the most copies rows >= r can hold
    for r in range(rows - 1, -1, -1):
        below[r] = below[r + 1] + caps[r]
    out = []
    added = [0] * rows
    least = [0] * rows
    left = [size] + [0] * rows  # left[r], room[r]: copies to place and lattice room at row r
    room = [size if letter == 0 else 0] + [0] * rows
    r = 0
    while True:
        want = left[r]
        if not want:  # rows r.. take none
            out.append((tuple([s + a for s, a in zip(shape, added)]), tuple(added)))
        else:
            # min and max spelled out: this is the oracles' innermost loop
            top = caps[r] if caps[r] < room[r] else room[r]
            if want < top:
                top = want
            bottom = want - below[r + 1]
            if top >= bottom and (r != low or want <= budget):
                added[r] = top
                least[r] = bottom if bottom > 0 else 0
                left[r + 1] = want - top
                room[r + 1] = room[r] + prev[r] - top
                r += 1
                continue
        r -= 1
        while r >= 0 and added[r] == least[r]:
            added[r] = 0
            r -= 1
        if r < 0:
            return out
        added[r] -= 1
        left[r + 1] += 1
        room[r + 1] += 1
        r += 1


def _lr_expand(lam, mu, outer):
    """c^nu_{lam, mu} for every nu inside `outer`, from one tableau enumeration.

    Enumerates the skew LR tableaux of shape nu/lam and content mu: the
    mu_i copies of letter i go in as a horizontal strip on the current
    shape, for i = 1..len(mu), which keeps rows weakly increasing and
    columns strict, and each strip must keep the reverse reading word a
    lattice word.  Partial tableaux with the same shape and the same rows
    for their last letter have the same completions, so they are counted
    together.  Returns {nu as a tuple of len(outer) row lengths: count}.
    """
    rows = len(outer)
    if len(lam) > rows or any(lam.row(r) > outer[r] for r in range(rows)):
        return {}
    frontier = {(tuple(lam.row(r) for r in range(rows)), (0,) * rows): 1}
    rest = sum(mu)
    for letter, size in enumerate(mu):
        rest -= size
        nxt = {}
        for (shape, prev), count in frontier.items():
            for key in _lr_strips(shape, prev, letter, size, rest, outer):
                nxt[key] = nxt.get(key, 0) + count
        frontier = nxt
    out = {}
    for (shape, _), count in frontier.items():
        out[shape] = out.get(shape, 0) + count
    return out


def lr_coefficient(lam, mu, nu):
    """Littlewood-Richardson coefficient c^nu_{lam, mu} by tableau enumeration.

    Counts skew semistandard tableaux of shape nu/lam and content mu whose
    reverse reading word is a lattice word: the enumeration of
    quantum_product, bounded by nu.
    """
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    return _lr_expand(lam, mu, nu).get(nu, 0)


def rim_hook_reduce(lam, k, n):
    """Reduce lam modulo n-rim hooks into the k x (n-k) box.

    Works on the beta numbers beta_i = lam_i + k-1-i and their residues
    r_i = beta_i mod n: a removal lowers one beta number by n, so the class
    dies exactly when two residues coincide.  Otherwise the box class has
    the residues, in decreasing order, as its beta numbers, q is
    (sum beta - sum r)/n, and the sign is (-1)^((k-1)q + #{i<j : r_i < r_j}).
    Returns (partition, q_exponent, sign), or None for the zero class.
    This is the validated entry; _rim_hook_reduce does the arithmetic.
    """
    lam = Partition(lam)
    if len(lam) > k:
        raise ValueError("class outside algebra: %s has more than %d rows" % (lam, k))
    red = _rim_hook_reduce(lam + (0,) * (k - len(lam)), k, n)
    return None if red is None else (Partition(red[0]), red[1], red[2])


def _rim_hook_reduce(rows, k, n):
    """rim_hook_reduce of k weakly decreasing row lengths, zeros kept, taken
    as given: (box class as a plain tuple, q_exponent, sign), or None."""
    beta = [rows[i] + k - 1 - i for i in range(k)]
    res = [b % n for b in beta]
    if len(set(res)) < k:
        return None
    q = (sum(beta) - sum(res)) // n
    swaps = sum(1 for i in range(k) for j in range(i + 1, k) if res[i] < res[j])
    res.sort(reverse=True)
    box = [r - (k - 1 - i) for i, r in enumerate(res)]
    while box and not box[-1]:
        box.pop()
    return tuple(box), q, (-1) ** ((k - 1) * q + swaps)


def quantum_product(lam, mu, k, n):
    """Product of two box classes in the rim-hook quotient, q kept formal.

    Returns {(box class Partition, q exponent): coefficient}, nonzero
    coefficients only, keys in sorted order.  One LR enumeration gives
    every nu with at most k rows; since c^nu_{lam, mu} = c^nu_{mu, lam},
    the smaller class is laid in as letters.  The enumerator's nu are
    reduced as they come, k-row tuples that need no validation; only the
    classes the product keeps become Partitions.
    """
    if not 0 < k < n:
        raise ValueError("need 0 < k < n, got k=%d n=%d" % (k, n))
    lam, mu = Partition(lam), Partition(mu)
    for p in (lam, mu):
        if len(p) > k or p.row(0) > n - k:
            raise ValueError("class outside box: %s in %dx%d" % (p, k, n - k))
    if sum(mu) > sum(lam):
        lam, mu = mu, lam
    width = lam.row(0) + mu.row(0)
    acc = {}
    for nu, c in _lr_expand(lam, mu, (width,) * k).items():
        red = _rim_hook_reduce(nu, k, n)
        if red is not None:
            key = red[:2]
            acc[key] = acc.get(key, 0) + red[2] * c
    return {(Partition(box), q): acc[box, q] for box, q in sorted(acc) if acc[box, q]}
