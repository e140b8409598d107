"""Stabilizer search in the monomial group: coordinate permutations and signs.

The object being stabilized is a finite set of words over Z/m: a monomial
map (sigma, s) sends a word w to w' with w'[sigma[p]] = s[p]*w[p] mod m.
`stabilizer` computes the full stabilizer's order, the order of its
sign-only subgroup, and a generating set, via a stabilizer chain over
coordinate positions:

    |Stab| = |sign part| * prod_j |orbit of j under the subgroup fixing
                                   positions 0..j-1|

The chain is built from the deepest level up, j = n-1 down to 0.  Every
witness found so far fixes positions 0..j-1, so it lies in G_j, the
subgroup fixing them, and it decides targets without a search:
- a target in the closure of {j} under the witnesses is in j's orbit;
- a target in the closure of the targets already refused is not, since
  j's orbit is G_j-invariant and so is its complement.
Only the targets left are asked.  The witnesses then form a strong
generating set for the base 0..n-1 (Sims 1970; Seress, Permutation Group
Algorithms, 2003): those fixing 0..j-1 move j round its whole orbit.
`chain` is that loop for any group given by an existence query on any
base; `unimodular.definite_automorphisms` runs it on the isometries of a
definite lattice, with the basis vectors as base.

Each question is answered by one depth-first existence search over images
of positions, pruned by comparing the multiset of word restrictions on
the source prefix, signs applied, with the multiset of word restrictions
on the candidate target prefix.  At full depth the multiset condition is
equivalent to actual stabilization, so every accepted leaf is a witness.

Each word is stored once with its negation appended, so a source
position p reads column p (sign +1) or column n + p (sign -1).  The
multisets come from partition refinement (McKay, Practical Graph
Isomorphism, 1981), memoized across all the questions by column tuple.
For each prefix idx the memo holds one label per row, naming the class of
the row's restriction to idx, and a key; a full-depth prefix is never
refined, so it keeps its key alone.  A child idx + (c,) pairs each
row's parent label with its entry in column c, as the integer
value * rows + label; its key is the sorted sequence of these pairs, and a
row's label is the position of the last copy of its pair in that key.  A
label depends only on the multiset and on the row's own restriction, so
prefixes with equal multisets label equal restrictions alike.  Two
children's keys are therefore equal exactly when their multisets are,
provided their parents' multisets are equal.  That is the only comparison
the search makes: both sides start at the empty prefix, and a pair is
extended only after it compared equal.  Keys whose parents differ may
collide and are never compared.

Labels and keys are packed into bytes, each value in the narrowest
struct integer code (B, H, I, L, Q) that holds it, so the encoding does
not bound the modulus; the input check still asks for 1 <= m <= 256, and
words of length n with entries in range(m).

The sign part is elementary abelian, a subspace of F2^n, so its dimension
is the number of positions p that are the first -1 of some stabilizing
sign vector.  The search asks that once per position: sigma the identity,
signs +1 before p, -1 at p and free after it.

A position where each word's value is its own negation has a free sign:
a factor 2 of the sign part, never branched on.  Over Z/2 every position
is such, so sign_order is 2^n.
"""

from collections import namedtuple
from math import prod
from operator import add
from struct import Struct, calcsize

from . import budget

__all__ = [
    "StabilizerResult",
    "stabilizer",
    "chain",
    "orbit",
]


class StabilizerResult(namedtuple("StabilizerResult", "order sign_order orbit_sizes generators")):
    """Order and generators of a monomial stabilizer.

    generators are (sigma, signs) pairs, the witnesses of the chain's
    orbits, deepest level first; sigma maps position p to sigma[p],
    signs[p] multiplies the value leaving position p.  They are a strong
    generating set: the orbit of j under those whose first moved position
    is >= j has orbit_sizes[j] points.  The sign-only subgroup has order
    sign_order, a power of two, and order = sign_order times the product
    of orbit_sizes.
    """

    __slots__ = ()


def _value_code(bound):
    """Narrowest struct integer code holding every value below bound."""
    return next(t for t in "BHILQ" if bound <= 1 << 8 * calcsize(t))


def orbit(seeds, images):
    """Closure of the points in `seeds` under `images(point)`.

    images yields the neighbours of a point, typically its images under
    each group generator.  For a finite group forward images already give
    the whole orbit, since every inverse is a positive power.
    """
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        for q in images(frontier.pop()):
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def chain(n, base, targets, exists, image):
    """(orbit_sizes, generators) of a group by a stabilizer chain on the
    points base[0..n-1], deepest level first (see the module docstring).

    targets(level) holds the orbit of base[level] under G_level, the
    subgroup fixing base[0..level-1]; exists(level, target) is an element
    of G_level sending base[level] to target, or None; image(g, p) is the
    image of point p under g.  The group's order is prod(orbit_sizes).
    """
    orbit_sizes = [1] * n
    generators = []

    def images(pt):
        return (image(g, pt) for g in generators)

    for level in reversed(range(n)):
        level_orbit = orbit({base[level]}, images)
        refused = set()
        for target in targets(level):
            if target in level_orbit or target in refused:
                continue
            witness = exists(level, target)
            if witness is None:
                refused = orbit(refused | {target}, images)
            else:
                generators.append(witness)
                level_orbit = orbit(level_orbit | {target}, images)
        orbit_sizes[level] = len(level_orbit)
    return tuple(orbit_sizes), tuple(generators)


class _Search:
    def __init__(self, words, n, modulus):
        if not 1 <= modulus <= 256:
            raise ValueError(f"modulus must be in 1..256, got {modulus}")
        values = set(range(modulus))
        words = [tuple(w) for w in words]
        for w in words:
            if len(w) != n or not values.issuperset(w):
                raise ValueError(f"word {w} is not in (Z/{modulus})^{n}")
        # position n + p holds the negation of position p; the table is
        # read only after every entry passed the range check above
        negate = [-x % modulus for x in range(modulus)].__getitem__
        rows = [w + tuple(map(negate, w)) for w in words]
        self.n = n
        self.nodes = 0
        # sign on position p can only matter if some word has a value there
        # that differs from its own negation mod m
        self.sign_matters = [any(r[p] != r[n + p] for r in rows) for p in range(n)]
        # a label is below len(rows), so value * len(rows) + label encodes
        # the pair (value, label) without collisions; the m scaled values
        # are shared, not one int object per row
        size = len(rows)
        scaled = [v * size for v in range(modulus)]
        self._columns = [[scaled[r[c]] for r in rows] for c in range(2 * n)]
        self._label_code = _value_code(size)
        self._labels = Struct(f"{size}{self._label_code}")
        self._keys = Struct(f"{size}{_value_code(modulus * size)}")
        self._memo = {(): (bytes(self._labels.size), None)}

    def multiset(self, idx):
        """Key of the multiset of row restrictions to columns idx; see the
        module docstring for when two keys may be compared."""
        return self._entry(idx)[1]

    def _entry(self, idx):
        """(labels, key) of columns idx, refined from those of idx[:-1].
        A full-depth prefix is never refined, so its labels are None."""
        got = self._memo.get(idx)
        if got is None:
            # one entry's cost grows with the word count, so poll per entry
            budget.check()
            labels = memoryview(self._entry(idx[:-1])[0]).cast(self._label_code)
            pairs = list(map(add, labels, self._columns[idx[-1]]))
            ordered = sorted(pairs)
            key = self._keys.pack(*ordered)
            if len(idx) == self.n:
                got = None, key
            else:
                last = dict(zip(ordered, range(len(ordered))))
                got = self._labels.pack(*map(last.__getitem__, pairs)), key
            self._memo[idx] = got
        return got

    # --- existence query ------------------------------------------------
    def exists(self, fixed, target, flip=None):
        """Witness (sigma, signs) fixing positions < fixed and sending
        position `fixed` to `target`, or None.  With flip=p the signs are
        also +1 before p and -1 at p."""
        used = [False] * self.n
        return self._dfs(0, fixed, target, flip, used, (), ())

    def _dfs(self, depth, fixed, target, flip, used, tpos, spos):
        """tpos are the target positions of source positions 0..depth-1,
        spos their columns: p for sign +1, n + p for sign -1."""
        self.nodes += 1
        if self.nodes % budget.CHECK_EVERY == 0:
            budget.check()
        n = self.n
        if depth == n:
            return tpos, tuple(1 if c < n else -1 for c in spos)
        if depth < fixed:
            candidates = (depth,)
        elif depth == fixed:
            candidates = (target,)
        else:
            candidates = tuple(q for q in range(n) if not used[q])
        if flip is not None and depth <= flip:
            columns = (n + depth,) if depth == flip else (depth,)
        else:
            columns = (depth, n + depth) if self.sign_matters[depth] else (depth,)
        for q in candidates:
            if used[q]:
                continue
            new_tpos = tpos + (q,)
            want = self.multiset(new_tpos)
            for c in columns:
                new_spos = spos + (c,)
                if self.multiset(new_spos) != want:
                    continue
                used[q] = True
                got = self._dfs(depth + 1, fixed, target, flip, used, new_tpos, new_spos)
                used[q] = False
                if got is not None:
                    return got
        return None


def stabilizer(words, n, modulus):
    """Full monomial stabilizer of a set of words in (Z/m)^n, by `chain`
    on the positions 0..n-1.

    Raises ValueError unless 1 <= modulus <= 256 and every word has length
    n and entries in range(modulus).
    """
    search = _Search(words, n, modulus)
    sign_order = 1
    # a position whose sign never matters contributes a free factor of 2;
    # any other does if some stabilizing sign vector has its first -1 there
    for p in range(n):
        if not search.sign_matters[p] or search.exists(n, None, flip=p) is not None:
            sign_order *= 2

    orbit_sizes, generators = chain(
        n, range(n), lambda level: range(level + 1, n), search.exists, lambda g, p: g[0][p]
    )

    return StabilizerResult(
        order=sign_order * prod(orbit_sizes),
        sign_order=sign_order,
        orbit_sizes=orbit_sizes,
        generators=generators,
    )
