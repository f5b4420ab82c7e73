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
all, lr_coefficient bounds the shapes by its nu.

Rim-hook reduction rewrites a partition with at most k rows, modulo
removal of border strips of size n, into a class inside the k x (n-k)
box.  Each removal contributes one power of q and the sign
(-1)^(k - height of the strip).  The endpoint is independent of the
removal order, so it is read off the beta numbers mod n in closed form
(Bertram, Ciocan-Fontanine and Fulton, "Quantum multiplication of Schur
polynomials", J. Algebra 1999); tests hold it to every removal sequence
of the one-strip walk.

Everything here is integer combinatorics.  elementary_symmetrics takes its
values from any commutative ring, starting from the ints 1 and 0, so the
oracles hand it roots of unity without this module importing the field.
"""

import operator
from itertools import combinations_with_replacement


class Partition(tuple):
    """A tuple of weakly decreasing positive parts; trailing zeros dropped.

    Each part is read with operator.index, so a float or a string is a
    TypeError rather than a truncated part.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
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
    """
    rows = len(shape)
    low = min(letter + 1, rows)
    caps = [outer[0] - shape[0]]
    caps += [min(outer[r], shape[r - 1]) - shape[r] for r in range(1, rows)]
    strip = [0] * (rows + 1)
    free = [0] * (rows + 1)
    for r in range(rows - 1, -1, -1):
        strip[r] = strip[r + 1] + caps[r]
        free[r] = free[r + 1] + outer[r] - shape[r]
    out = []
    added = [0] * rows

    def place(r, left, room):
        if left == 0:
            if r <= low and rest > free[low]:
                return
            out.append((tuple([s + a for s, a in zip(shape, added)]), tuple(added)))
            return
        if left > strip[r] or (r == low and left + rest > free[low]):
            return
        top = min(caps[r], room, left)
        room += prev[r]
        for a in range(top, -1, -1):
            added[r] = a
            place(r + 1, left - a, room - a)
        added[r] = 0

    place(0, size, size if letter == 0 else 0)
    return out


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
    """
    lam = Partition(lam)
    if len(lam) > k:
        raise ValueError("class outside algebra: %s has more than %d rows" % (lam, k))
    beta = [lam.row(i) + k - 1 - i for i in range(k)]
    res = [b % n for b in beta]
    if len(set(res)) < k:
        return None
    q = (sum(beta) - sum(res)) // n
    swaps = sum(1 for i in range(k) for j in range(i + 1, k) if res[i] < res[j])
    res.sort(reverse=True)
    box = Partition([r - (k - 1 - i) for i, r in enumerate(res)])
    return box, q, (-1) ** ((k - 1) * q + swaps)


def quantum_product(lam, mu, k, n):
    """Product of two box classes in the rim-hook quotient, q kept formal.

    Returns {(box class Partition, q exponent): coefficient}, nonzero
    coefficients only, keys in sorted order.  One LR enumeration gives
    every nu with at most k rows; since c^nu_{lam, mu} = c^nu_{mu, lam},
    the smaller class is laid in as letters.
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
        red = rim_hook_reduce(nu, k, n)
        if red is None:
            continue
        box_class, qexp, sign = red
        key = (box_class, qexp)
        acc[key] = acc.get(key, 0) + sign * c
    return {key: acc[key] for key in sorted(acc) if acc[key]}
