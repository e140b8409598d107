"""Binary linear codes: the nested Reed-Muller codes, automorphisms, markings.

Codewords are bit-packed ints (bit i = coordinate i).  A BinaryCode is
identified with its row space; the stored generators are the canonical
reduced row-echelon basis, so equal codes compare equal.
"""

from collections import namedtuple

from .bits import f2_rref, f2_span
from .stabsearch import orbit, stabilizer

__all__ = [
    "BinaryCode",
    "Marking",
    "hamming_code",
    "rm1_subcode",
    "code_automorphisms",
    "all_markings",
    "classify_markings",
]


class BinaryCode(namedtuple("BinaryCode", "length rows")):
    """Row space of `rows` inside F2^length (rows canonical RREF)."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, length, rows):
        for r in rows:
            if r >= 1 << length:
                raise ValueError("generator wider than the code length")
        return cls(length, f2_rref(rows))

    @property
    def dim(self):
        return len(self.rows)

    def words(self):
        """All 2^dim codewords as ints."""
        return f2_span(self.rows)

    def word_tuples(self):
        """All codewords as 0/1 tuples (coordinate i = tuple index i)."""
        return [tuple((w >> i) & 1 for i in range(self.length)) for w in self.words()]

    def __str__(self):
        return f"[{self.length},{self.dim}] binary code"


def _rm1_rows(length):
    """All-ones plus the binary-digit indicator rows (first-order
    Reed-Muller generators when length is a power of two)."""
    nbits = (length - 1).bit_length()
    rows = [(1 << length) - 1]
    for b in range(nbits - 1, -1, -1):
        rows.append(sum(1 << i for i in range(length) if not (i >> b) & 1))
    return rows


def hamming_code():
    """The [8,4,4] extended Hamming code.

    It is the first-order Reed-Muller code RM(1,3), doubly even and
    self-dual.  RM(1,4), the length-16 top of the nested chain, is
    rm1_subcode(5).
    """
    return BinaryCode.from_rows(8, _rm1_rows(8))


def rm1_subcode(k):
    """Dimension-k subcode of RM(1,4): the all-ones word plus the first
    k-1 coordinate-hyperplane words of length 16."""
    if not 1 <= k <= 5:
        raise ValueError("k must be in 1..5")
    return BinaryCode.from_rows(16, _rm1_rows(16)[:k])


def code_automorphisms(c):
    """Coordinate permutations preserving the code.

    Returns (generators, order): generators are permutation tuples, order
    is the exact group order: the monomial stabilizer's order divided by
    its 2^length free signs.
    """
    res = stabilizer(c.word_tuples(), c.length, 2)
    gens = tuple(sigma for sigma, _ in res.generators)
    return gens, res.order // res.sign_order


class Marking(namedtuple("Marking", "pairs")):
    """A perfect matching of the coordinates {0..length-1}."""

    __slots__ = ()

    @classmethod
    def from_pairs(cls, pairs):
        norm = tuple(sorted(tuple(sorted(p)) for p in pairs))
        flat = [i for p in norm for i in p]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("pairs must partition the coordinates")
        return cls(norm)

    @property
    def length(self):
        return 2 * len(self.pairs)

    def permuted(self, sigma):
        return Marking.from_pairs(tuple((sigma[a], sigma[b]) for a, b in self.pairs))


def all_markings(length):
    """Every perfect matching of {0..length-1}; (length-1)!! of them."""
    if length % 2:
        raise ValueError("length must be even")

    def rec(points):
        if not points:
            yield ()
            return
        a = points[0]
        for i in range(1, len(points)):
            b = points[i]
            rest = points[1:i] + points[i + 1 :]
            for tail in rec(rest):
                yield ((a, b),) + tail

    return [Marking.from_pairs(p) for p in rec(tuple(range(length)))]


def classify_markings(c):
    """Orbits of all markings of c's coordinates under Aut(c).

    Returns (orbit list, aut_order); orbits are (representative, size)
    pairs with sizes summing to (length-1)!!.
    """
    gens, order = code_automorphisms(c)
    todo = set(all_markings(c.length))
    orbits = []
    while todo:
        rep = min(todo, key=lambda m: m.pairs)
        members = orbit({rep}, lambda m: (m.permuted(sigma) for sigma in gens))
        todo -= members
        orbits.append((rep, len(members)))
    orbits.sort(key=lambda t: t[1])
    return orbits, order
