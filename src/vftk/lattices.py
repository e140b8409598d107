"""Exact integral lattices: Gram arithmetic, short vectors, discriminant
groups, and the code-to-lattice construction.

A lattice of rank n is Z^n with an inner product given by a Gram matrix.
To keep everything integer we store gram2 = 2 * Gram: the lattice is
integral iff every gram2 entry is even, and even iff additionally the
diagonal of gram2 is divisible by 4.  Vectors are coordinate row tuples in
the lattice's own basis; the dual lattice is G^{-1} Z^n in the same
coordinates.  No floating point anywhere: definiteness and short vectors
both come from the package's one Bareiss elimination of gram2.
`short_vectors` takes any basis and returns its vectors sorted.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import mul

from . import budget
from .abelian import prime_factors
from .f2codes import hamming_code
from .intmat import _bareiss, _hnf_coords, block_diagonal, det, hnf_basis, mat_mul, snf, transpose

__all__ = [
    "IntegralLattice",
    "DiscriminantGroup",
    "lattice_from_code",
    "e8_lattice",
    "short_vectors",
    "discriminant_group",
    "direct_sum",
    "ambient_to_basis",
]


class IntegralLattice:
    """Rank-n lattice with exact doubled Gram matrix gram2 = 2*Gram."""

    __slots__ = ("rank", "gram2", "ambient_rows")

    def __init__(self, gram2, ambient_rows=None):
        gram2 = tuple(tuple(row) for row in gram2)
        if not all(isinstance(x, int) for row in gram2 for x in row):
            raise ValueError("gram2 entries must be integers")
        n = len(gram2)
        for row in gram2:
            if len(row) != n:
                raise ValueError("gram2 must be square")
        if gram2 != transpose(gram2):
            raise ValueError("gram2 must be symmetric")
        self.rank = n
        self.gram2 = gram2
        # for lattices built from a code: basis rows in ambient coordinates
        self.ambient_rows = ambient_rows

    @classmethod
    def from_gram(cls, gram):
        return cls(tuple(tuple(2 * x for x in row) for row in gram))

    # --- basic predicates -------------------------------------------------
    @property
    def is_integral(self):
        return all(x % 2 == 0 for row in self.gram2 for x in row)

    @property
    def is_even(self):
        return self.is_integral and all(self.gram2[i][i] % 4 == 0 for i in range(self.rank))

    @property
    def is_definite(self):
        """Positive definite: every leading minor of gram2 is > 0 (Sylvester)."""
        swaps, pivots, _ = _bareiss(self.gram2)
        return not swaps and len(pivots) == self.rank and min(pivots, default=1) > 0

    # --- arithmetic ---------------------------------------------------------
    def inner(self, u, v):
        """Exact inner product (u, v); Fraction or int."""
        total = 0
        for i, ui in enumerate(u):
            if ui:
                row = self.gram2[i]
                total += ui * sum(row[j] * vj for j, vj in enumerate(v) if vj)
        half, rem = divmod(total, 2)
        return half if rem == 0 else Fraction(total, 2)

    def norm(self, v):
        return self.inner(v, v)

    def gram_row(self, v):
        """v . gram2 as a tuple: (v, w) is the dot product with w, halved.

        Entry j is 2 (e_j, v), so an integer vector gives an int tuple and
        a vector paired with many others costs one row, not one Gram pass
        per pair.
        """
        return tuple(sum(map(mul, row, v)) for row in self.gram2)

    def is_isometry(self, w):
        """True if the square matrix w (rows = basis images) keeps the form:
        W gram2 W^T == gram2."""
        n = self.rank
        if len(w) != n or any(len(row) != n for row in w):
            return False
        return mat_mul(mat_mul(w, self.gram2), transpose(w)) == self.gram2

    def determinant(self):
        """det of the Gram matrix (int for integral lattices)."""
        d = Fraction(det(self.gram2), 2**self.rank)
        return int(d) if d.denominator == 1 else d

    def rescale(self, s):
        return IntegralLattice(tuple(tuple(x * s for x in row) for row in self.gram2))

    def __eq__(self, other):
        return isinstance(other, IntegralLattice) and self.gram2 == other.gram2

    def __hash__(self):
        return hash(self.gram2)

    def __repr__(self):
        return f"IntegralLattice(rank={self.rank}, det={self.determinant()})"


def direct_sum(*lattices):
    """Orthogonal sum; block-diagonal doubled Gram."""
    return IntegralLattice(block_diagonal(*(l.gram2 for l in lattices)))


def lattice_from_code(code):
    """Scaled construction-A lattice of a binary code.

    In ambient coordinates y (the code's coordinates scaled by 1/sqrt(2)),
    the lattice is {y in Z^n : y mod 2 in C} with (u, v) = u.v/2.  The
    returned lattice carries the chosen basis as `ambient_rows` so callers
    can express ambient vectors in basis coordinates.  Even iff the code is
    doubly even.
    """
    n = code.length
    gen_rows = [tuple((w >> i) & 1 for i in range(n)) for w in code.rows]
    stacked = gen_rows + [tuple(2 * int(i == j) for j in range(n)) for i in range(n)]
    basis = hnf_basis(stacked)
    gram2 = mat_mul(basis, transpose(basis))
    return IntegralLattice(gram2, ambient_rows=basis)


def ambient_to_basis(lattice, y):
    """Coordinates of an ambient row y in the lattice's HNF basis (must be exact)."""
    if lattice.ambient_rows is None:
        raise ValueError("lattice carries no ambient basis")
    x = _hnf_coords(lattice.ambient_rows, y)
    if x is None:
        raise ValueError("vector is not in the lattice")
    return x


@lru_cache(maxsize=None)
def e8_lattice():
    """The E8 root lattice, realized from the [8,4,4] Hamming code."""
    return lattice_from_code(hamming_code())


def _lll(gram2):
    """Integral LLL of a positive definite gram2 (Cohen, GTM 138, Alg. 2.6.7;
    Lovasz constant 3/4): (h, pivots, cols), h unimodular and the rest the
    `_bareiss` data of the reduced Gram h gram2 h^T.

    Cohen's d and lambda are the pivots and sub-pivot columns of `_bareiss`,
    so no Gram entry is read after it.  Polls the budget once per step.
    """
    n = len(gram2)
    swaps, pivots, cols = _bareiss(gram2)
    if swaps or len(pivots) < n or min(pivots, default=1) <= 0:
        raise ValueError("short vector enumeration needs a definite lattice")
    d = [1, *pivots]  # d[k] is the leading k-minor
    lam = [[cols[j][i - j - 1] for j in range(i)] for i in range(n)]
    h = [[int(i == j) for j in range(n)] for i in range(n)]

    def size_reduce(k, l):
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])  # nearest integer
        if q:
            h[k] = [x - q * y for x, y in zip(h[k], h[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    while k < n:
        budget.check()
        size_reduce(k, k - 1)
        t = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * t * t:
            h[k - 1], h[k] = h[k], h[k - 1]
            lam[k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1]
            b = (d[k - 1] * d[k + 1] + t * t) // d[k]
            for row in lam[k + 1 :]:
                s = row[k]
                row[k] = (d[k + 1] * row[k - 1] - t * s) // d[k]
                row[k - 1] = (b * s + t * row[k]) // d[k + 1]
            d[k] = b
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return h, d[1:], [tuple(row[k] for row in lam[k + 1 :]) for k in range(n)]


def short_vectors(lattice, norm):
    """All v with (v, v) == norm, exactly, sorted; closed under negation.

    Any basis of a definite lattice works: Fincke-Pohst runs on the `_lll`
    data, pivots M_{k+1} and columns B[j][k]: with M_0 = 1 and c_k =
    sum_{j>k} B[j][k] x_j, x gram2 x^T = sum_k (M_{k+1} x_k + c_k)^2 /
    (M_k M_{k+1}).  Scaled by S = lcm_k(M_k M_{k+1}), level k with budget
    `left` allows exactly |M_{k+1} x_k + c_k| <= isqrt(left // w_k), where
    w_k = S / (M_k M_{k+1}), so every node is integer arithmetic.  Each
    vector is mapped back through the LLL transform.
    """
    norm = Fraction(norm)
    if norm <= 0:
        raise ValueError("norm must be positive")
    h, pivots, cols = _lll(lattice.gram2)
    if (2 * norm).denominator != 1:
        return []  # x gram2 x^T is an integer
    dens = [m * p for m, p in zip((1, *pivots), pivots)]
    scale = lcm(*dens)
    weights = [scale // d for d in dens]
    ht = transpose(h)
    out = []
    coords = [0] * lattice.rank
    nodes = 0

    def rec(k, left):
        nonlocal nodes
        nodes += 1
        if nodes % 4096 == 0:
            budget.check()
        if k < 0:
            if left == 0 and any(coords):
                out.append(tuple(sum(map(mul, coords, col)) for col in ht))
            return
        c = sum(map(mul, cols[k], coords[k + 1 :]))
        p, w = pivots[k], weights[k]
        r = isqrt(left // w)
        for x in range(-((c + r) // p), (r - c) // p + 1):
            coords[k] = x
            t = p * x + c
            rec(k - 1, left - w * t * t)

    rec(lattice.rank - 1, scale * int(2 * norm))
    return sorted(out)


class DiscriminantGroup(namedtuple("DiscriminantGroup", "lattice rows orders")):
    """L*/L as integer rows u_i and orders d_i (> 1, each dividing the
    next): the generators are u_i / d_i, in the lattice's coordinates."""

    __slots__ = ()

    def p_primary_generators(self):
        """dict p -> list of (row u_i, order p^a), largest first: the p-part
        of u_i / d_i is u_i / p^a.  Each order is split into its prime
        powers by one sweep of prime_factors, which polls the budget.
        """
        out = {}
        for u, d in zip(self.rows, self.orders):
            for p, a in prime_factors(d):
                out.setdefault(p, []).append((u, p**a))
        for comps in out.values():
            comps.sort(key=lambda t: -t[1])
        return out


def discriminant_group(lattice):
    """Smith-form presentation of L*/L for an integral lattice."""
    if not lattice.is_integral:
        raise ValueError("discriminant group needs an integral lattice")
    gram = tuple(tuple(x // 2 for x in row) for row in lattice.gram2)
    d, u = snf(gram)
    # U G V = D, so L* = Z^n G^{-1} = Z^n D^{-1} U: generators are rows of
    # U scaled by 1/d_i, of order exactly d_i (unimodular rows have gcd 1).
    kept = [i for i, di in enumerate(d) if di > 1]
    return DiscriminantGroup(lattice, tuple(tuple(u[i]) for i in kept), tuple(d[i] for i in kept))
