"""Even unimodular overlattices built from isotropic glue.

Three constructions on an even lattice L: a definite-preserving
unimodular overlattice of 4 or 8 orthogonal copies of L, an indefinite
unimodular overlattice of rank at most 2*rank(L) + 2, and an overlattice
of L with its s-rescaling whose determinant is the prime power s^rank.
All glue coefficients come from exact sum-of-squares congruences, and
isometries of L extend to the overlattices by acting diagonally on the
copies.  The glue lattice Z^n + span(glue) is held once as a common
denominator den and an integer HNF basis: the isotropy checks are one
integer Gram of the den-scaled generators, and glue orders and the
primitivity of the first block are indices of integer lattices (an HNF
and a determinant), so no glue element is ever listed.
"""

from collections import namedtuple
from math import gcd, isqrt, lcm, prod
from operator import mul

from . import budget
from .abelian import prime_factors
from .intmat import _hnf_coords, block_diagonal, hnf_basis, identity, mat_mul, transpose, vec_mat
from .lattices import IntegralLattice, direct_sum, discriminant_group, short_vectors
from .stabsearch import chain
from .verify import verify

__all__ = [
    "IsotropicSubgroup",
    "Overlattice",
    "ExtensionVerdict",
    "IsometryGroup",
    "sum_two_squares_mod",
    "sum_four_squares_mod",
    "isotropic_subgroup",
    "overlattice_from_isotropic",
    "first_block_primitive",
    "unimodularize",
    "hyperbolic_unimodularize",
    "prime_power_twist",
    "dirichlet_prime",
    "strong_extension_check",
    "definite_automorphisms",
]


def _is_prime(m):
    """Whether m is prime: its least prime factor is m itself."""
    return m >= 2 and next(prime_factors(m)) == (m, 1)


def _input_det(l):
    """|det(l)|, after a ValueError unless l is even and nondegenerate: every
    construction here glues along the discriminant group, which needs det != 0."""
    if not l.is_even:
        raise ValueError("input lattice must be even")
    d = abs(l.determinant())
    if d == 0:
        raise ValueError("input lattice must be nondegenerate")
    return d


def sum_two_squares_mod(p, r):
    """(a, b) with a^2 + b^2 == -1 mod p^r, for an odd prime p.

    A solution mod p always exists because {a^2} and {-1 - b^2} each take
    (p+1)/2 values.  Euler's criterion finds one: for p == 1 mod 4, a = 0
    and b = c^((p-1)/4) for the first non-residue c; for p == 3 mod 4, a is
    the first a >= 1 with -1 - a^2 a square and b = (-1 - a^2)^((p+1)/4);
    b is the smaller of its two roots.  It lifts one power at a time: if
    a^2 + b^2 + 1 is m * p^j, adding (x*p^j, y*p^j) changes the sum by
    2(ax + by)p^j mod p^{j+1}, so it suffices to solve 2(ax + by) == -m
    mod p.
    """
    if p == 2 or not _is_prime(p):
        raise ValueError("p must be an odd prime")
    return _two_squares_mod(p, r)


def _two_squares_mod(p, r):
    """sum_two_squares_mod for a p the caller already knows is an odd prime."""
    if r < 1:
        raise ValueError("r must be positive")
    half = (p - 1) // 2
    if p % 4 == 1:
        c = next(c for c in range(2, p) if pow(c, half, p) == p - 1)
        a, b = 0, pow(c, half // 2, p)
    else:
        a = next(a for a in range(1, p) if pow(-1 - a * a, half, p) == 1)
        b = pow(-1 - a * a, (p + 1) // 4, p)
    b = min(b, p - b)
    for j in range(1, r):
        pj = p**j
        m = ((a * a + b * b + 1) // pj) % p
        if a % p:
            a += (-m * pow(2 * a, -1, p)) % p * pj
        else:
            b += (-m * pow(2 * b, -1, p)) % p * pj
    a, b = a % p**r, b % p**r
    verify((a * a + b * b + 1) % p**r == 0, "sum of two squares misses -1 mod p^r")
    return a, b


def sum_four_squares_mod(r):
    """(a, b, c, d) with a^2 + b^2 + c^2 + d^2 == -1 mod 2^r.

    Decomposes 2^r - 1 into four squares exactly (always possible), so
    the congruence holds on the nose; components come out decreasing.
    """
    if r < 1:
        raise ValueError("r must be positive")
    n = (1 << r) - 1
    for a in range(isqrt(n), -1, -1):
        n_a = n - a * a
        for b in range(min(a, isqrt(n_a)), -1, -1):
            n_b = n_a - b * b
            for c in range(min(b, isqrt(n_b)), -1, -1):
                d2 = n_b - c * c
                d = isqrt(d2)
                if d <= c and d * d == d2:
                    return a, b, c, d
    raise AssertionError("unreachable: every natural number is a sum of four squares")


def _index(den, rows):
    """[span(rows) / den : Z^n] = den^n / det(rows) for a full-rank HNF basis
    of a lattice above Z^n, whose determinant is its diagonal's product."""
    index, rem = divmod(den ** len(rows), prod(row[i] for i, row in enumerate(rows)))
    verify(rem == 0, "glue lattice index is not an integer")
    return index


class IsotropicSubgroup(namedtuple("IsotropicSubgroup", "lattice den rows basis")):
    """Subgroup of the discriminant group L*/L on which q vanishes identically.

    The generators are rows / den in the coordinates of the lattice L, in
    lowest terms.  q == 0 mod 2 on each generator and b == 0 mod 1 on
    each pair force q == 0 on the whole subgroup.  As rows mod 1 the
    subgroup is (Z^n + span(rows / den)) / Z^n; basis / den is the HNF
    basis of that glue lattice, so the order -- the number of rows a walk
    adding generators to 0 would reach -- is one determinant, with no
    element listed.
    """

    __slots__ = ()

    def order(self):
        """|G| = [Z^n + span(rows / den) : Z^n]."""
        return _index(self.den, self.basis)


def isotropic_subgroup(lattice, den, rows):
    """Validated isotropic subgroup of the discriminant group of lattice,
    generated by rows / den for a positive int den and int rows of length
    rank (else ValueError), reduced to lowest terms first.

    Exact checks on the integer rows R, all read off R gram2 and
    R gram2 R^T: every generator lies in the dual lattice (its row of
    R gram2 is 0 mod 2 den), has q == 0 mod 2 (its diagonal entry is 0
    mod 4 den^2), and pairs to 0 mod 1 with every other generator (their
    entry is 0 mod 2 den^2).
    """
    n = lattice.rank
    if not isinstance(den, int) or den < 1:
        raise ValueError("glue denominator must be a positive integer")
    rows = tuple(tuple(r) for r in rows)
    if any(len(r) != n or not all(isinstance(x, int) for x in r) for r in rows):
        raise ValueError("glue rows must be integer rows of the lattice's rank")
    g = gcd(den, *(x for r in rows for x in r))
    den, rows = den // g, tuple(tuple(x // g for x in r) for r in rows)
    basis = hnf_basis([tuple(den * x for x in r) for r in identity(n)] + list(rows))
    paired = mat_mul(rows, lattice.gram2)
    for row, pair in zip(rows, paired):
        if any(x % (2 * den) for x in pair):
            raise ValueError("glue generator does not lie in the dual lattice")
        if sum(map(mul, row, pair)) % (4 * den**2):
            raise ValueError("glue generator is not isotropic")
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if sum(map(mul, paired[i], rows[j])) % (2 * den**2):
                raise ValueError("glue generators are not orthogonal")
    return IsotropicSubgroup(lattice, den, rows, basis)


class Overlattice(
    namedtuple("Overlattice", "base glue result diagonal_copies tail_rank", defaults=(1, 0))
):
    """Even overlattice base <= result <= base* given by isotropic glue.

    The result's basis in base coordinates is glue.basis / glue.den.
    diagonal_copies and tail_rank record the block shape the glue was
    built over: isometries of the block lattice act on the first
    diagonal_copies blocks and fix the tail (see strong_extension_check).
    """

    __slots__ = ()


def overlattice_from_isotropic(base, glue, diagonal_copies=1, tail_rank=0):
    """Even overlattice of base generated by the glue's coset representatives.

    Its basis is B / den for B = glue.basis, so its doubled Gram is
    B gram2 B^T / den^2.
    """
    den, rows = glue.den, glue.basis
    gram2 = mat_mul(mat_mul(rows, base.gram2), transpose(rows))
    verify(all(x % den**2 == 0 for row in gram2 for x in row), "overlattice is not integral")
    result = IntegralLattice([[x // den**2 for x in row] for row in gram2])
    index = glue.order()
    verify(result.determinant() * index**2 == base.determinant(), "index disagrees with det")
    verify(not base.is_even or result.is_even, "overlattice of an even lattice is odd")
    return Overlattice(base, glue, result, diagonal_copies, tail_rank)


def first_block_primitive(over, block_rank):
    """True if the first block_rank coordinates meet the result in the base.

    A result vector on the first block alone but outside the base is a
    nonzero glue element whose coordinates after the first block are
    integers, i.e. a nonzero element in the kernel of the projection
    G -> (Q/Z)^(n - block_rank) that drops the first block.  So the block
    is primitive iff that projection is injective, iff its image, the
    subgroup generated by the projected generators, still has order |G|.
    Both orders are lattice indices, so no glue element is listed: the
    image lattice Z^(n - block_rank) + span(projected generators) is
    spanned by the glue basis with the first block dropped.
    """
    glue = over.glue
    image = _index(glue.den, hnf_basis([row[block_rank:] for row in glue.basis]))
    return image == glue.order()


def _p_exponent(p, order):
    e = 0
    while order > 1:
        order //= p
        e += 1
    return e


def unimodularize(l):
    """Even unimodular overlattice of 4 or 8 orthogonal copies of l.

    4 copies when det(l) is odd, 8 when even.  For each prime p dividing
    the determinant, every p-primary generator x of the discriminant
    group is spread across the copies with sum-of-squares coefficients:
    (rx, sx, 0, x) and (sx, -rx, x, 0) with r^2 + s^2 == -1 mod p^a for
    odd p (repeated on both halves in the 8-copy case), and four-square
    analogues mod 2^{a+1} spanning all eight copies for p = 2.  The glue
    group has order det^2 (resp. det^4), killing the determinant exactly.

    Self-checks (each raises VerificationError, also under python -O): the
    glue order, an HNF index, equals that closed form; det(result) times
    the index squared is det(base), the result is even and |det| is 1;
    the first copy embeds primitively, i.e. the projection of the glue
    off the first copy keeps its order; and the result is positive
    definite when l is.

    over.result is written in the glue HNF basis (glue.basis / glue.den).
    """
    d = _input_det(l)
    copies = 4 if d % 2 else 8
    base = direct_sum(*[l] * copies)
    primary = discriminant_group(l).p_primary_generators()
    den = lcm(*(order for comps in primary.values() for _, order in comps))
    rows = []
    for p, comps in sorted(primary.items()):
        a1 = _p_exponent(p, comps[0][1])  # orders come largest-first
        if p == 2:
            # 2^(a1+1) - 1 is 3 mod 4, so exactly one entry is even; at r or
            # s it would make the four rows below sum to 0 mod 2, halving the glue
            r, s, t, u = sorted(sum_four_squares_mod(a1 + 1), key=lambda x: x % 2 == 0)
            pats = [
                (r, s, t, u, 1, 0, 0, 0),
                (s, -r, u, -t, 0, 1, 0, 0),
                (-1, 0, 0, 0, r, s, t, u),
                (0, -1, 0, 0, s, -r, u, -t),
            ]
        else:
            r, s = _two_squares_mod(p, a1)  # p came from prime_factors
            pats = [(r, s, 0, 1), (s, -r, 1, 0)]
            if copies == 8:
                pats = [q + (0,) * 4 for q in pats] + [(0,) * 4 + q for q in pats]
        for x, order in comps:
            rows += (tuple(den // order * c * xi for c in pat for xi in x) for pat in pats)
    glue = isotropic_subgroup(base, den, rows)
    verify(glue.order() == (d**2 if d % 2 else d**4), "glue order is not det^2 or det^4")
    over = overlattice_from_isotropic(base, glue, diagonal_copies=copies)
    verify(abs(over.result.determinant()) == 1, "glued lattice is not unimodular")
    verify(first_block_primitive(over, l.rank), "first copy does not embed primitively")
    if l.is_definite:
        verify(over.result.is_definite, "glued lattice is not definite")
    return over


def _diagonal_glue(l, pad=()):
    """(den, rows): each u_i / d_i of L*/L on two copies of l, then pad.
    den is the last order, which every d_i divides."""
    dg = discriminant_group(l)
    den = max(dg.orders, default=1)
    return den, [tuple(den // d * x for x in u) * 2 + pad for u, d in zip(dg.rows, dg.orders)]


def hyperbolic_unimodularize(l):
    """Indefinite even unimodular overlattice of rank <= 2*rank(l) + 2.

    For |det| = 1 this is l plus one hyperbolic plane.  Otherwise l and
    its sign-flip are glued along the diagonal of their discriminant
    groups, with a hyperbolic plane added to force indefiniteness.
    Purely algebraic: no short-vector enumeration is involved.
    """
    d = _input_det(l)
    plane = IntegralLattice.from_gram(((0, 1), (1, 0)))
    if d == 1:
        base = direct_sum(l, plane)
        glue = isotropic_subgroup(base, 1, ())
        over = overlattice_from_isotropic(base, glue, diagonal_copies=1, tail_rank=2)
    else:
        base = direct_sum(l, l.rescale(-1), plane)
        glue = isotropic_subgroup(base, *_diagonal_glue(l, pad=(0, 0)))
        over = overlattice_from_isotropic(base, glue, diagonal_copies=2, tail_rank=2)
        verify(first_block_primitive(over, l.rank), "first block does not embed primitively")
    res = over.result
    verify(abs(res.determinant()) == 1 and res.is_even, "glued lattice is not even unimodular")
    verify(not res.is_definite and not res.rescale(-1).is_definite, "glued lattice is definite")
    return over


def prime_power_twist(l, s):
    """Overlattice of l + l(s) with determinant s^rank(l).

    Requires s prime with s == -1 mod 2*det(l); the glue is the diagonal
    {(x, x)} of the two discriminant groups.  Definiteness is preserved,
    l embeds primitively, and isometries of l extend diagonally.
    """
    d = _input_det(l)
    if not _is_prime(s):
        raise ValueError("s must be prime")
    if (s + 1) % (2 * d):
        raise ValueError("s must be -1 mod 2*det(l)")
    base = direct_sum(l, l.rescale(s))
    glue = isotropic_subgroup(base, *_diagonal_glue(l))
    over = overlattice_from_isotropic(base, glue, diagonal_copies=2)
    verify(over.result.determinant() == s**l.rank, "twisted lattice determinant is not s^rank")
    verify(first_block_primitive(over, l.rank), "first block does not embed primitively")
    if l.is_definite:
        verify(over.result.is_definite, "twisted lattice is not definite")
    return over


def dirichlet_prime(l, lower):
    """Smallest prime >= lower that is -1 mod 2*det(l), for l as in prime_power_twist.

    Steps through the residue class only; each candidate and every 4096
    trial factors poll the budget.
    """
    m = 2 * _input_det(l)
    s = max(2, lower)
    s += (-1 - s) % m
    while not _is_prime(s):
        budget.check()
        s += m
    return s


class ExtensionVerdict(namedtuple("ExtensionVerdict", "extends matrix")):
    __slots__ = ()


def strong_extension_check(l, over, gens):
    """Extend isometries of l across the overlattice, copy-diagonally.

    For each generator w the candidate map is w on each of the
    overlattice's diagonal blocks and the identity on the tail.  It
    descends to the overlattice iff its matrix in the result basis is
    integral -- equivalently, iff the induced map on the discriminant
    group fixes the glue setwise.  With B = glue.basis that matrix is
    B amb B^-1 (den cancels): row i is row i of B amb written in the HNF
    basis B, by integer back-substitution.  Returns one verdict per
    generator, with the extended matrix (rows = basis images) when it
    exists; ValueError if a generator is not an integer isometry of l.
    """
    if over.diagonal_copies * l.rank + over.tail_rank != over.base.rank:
        raise ValueError("overlattice block structure does not match l")
    b = over.glue.basis
    verdicts = []
    for w in gens:
        if not all(isinstance(x, int) for row in w for x in row):
            raise ValueError("generator is not an integer matrix")
        if not l.is_isometry(w):
            raise ValueError("generator is not an isometry of l")
        amb = block_diagonal(*[w] * over.diagonal_copies, identity(over.tail_rank))
        mat = tuple(_hnf_coords(b, row) for row in mat_mul(b, amb))
        if None not in mat:
            verify(over.result.is_isometry(mat), "extended map is not an isometry")
            verdicts.append(ExtensionVerdict(True, mat))
        else:
            verdicts.append(ExtensionVerdict(False, None))
    return tuple(verdicts)


class IsometryGroup(namedtuple("IsometryGroup", "order orbit_sizes generators")):
    """|Aut(l)| and strong generators, deepest level first: matrices whose
    rows are the basis vectors' images.  Those fixing e_0..e_(d-1) move e_d
    round orbit_sizes[d] vectors, so order is the product of orbit_sizes."""

    __slots__ = ()


def definite_automorphisms(l):
    """Isometry group of a positive definite lattice, by a stabilizer chain
    on the basis vectors (Sims 1970; Plesken & Souvignier 1997).

    Level d's targets are the vectors of e_d's norm that pair with
    e_0..e_(d-1) as e_d does.  A target is decided by a backtrack that
    fixes e_0..e_(d-1), sends e_d to it and picks each later image among
    the vectors of equal norm, pruning on the pairings with the images
    already chosen; its first leaf is an isometry.  Each node polls the
    budget.
    """
    if not l.is_definite:
        raise ValueError("needs a positive definite lattice")
    n = l.rank
    basis = identity(n)
    norms = [l.norm(e) for e in basis]
    candidates = {nv: short_vectors(l, nv) for nv in set(norms)}
    # 2 (v, w) = v . row[w]; each e_j is a candidate of its own norm
    row = {v: l.gram_row(v) for vs in candidates.values() for v in vs}

    def fitting(img):
        """Candidates for the next image: e_i's norm, e_i's pairings with img."""
        i = len(img)
        return [
            v
            for v in candidates[norms[i]]
            if all(sum(map(mul, v, row[w])) == g for w, g in zip(img, l.gram2[i]))
        ]

    def first_leaf(img):
        budget.check()
        if len(img) == n:
            return img
        for v in fitting(img):
            got = first_leaf(img + (v,))
            if got:
                return got
        return None

    orbit_sizes, generators = chain(
        n,
        basis,
        lambda d: fitting(basis[:d]),
        lambda d, v: first_leaf((*basis[:d], v)),
        lambda w, v: vec_mat(v, w),
    )
    return IsometryGroup(prod(orbit_sizes), orbit_sizes, generators)
