"""Slow, independent routes the tests check the library against: the
definitions computed over Fraction or by exhaustive search, for small inputs
only, and the left-half stabilizer's orbits by a BFS over its generators.
Also the test-side constructions the library does not need: random odd
Lagrangians, frame isometries from monomials, reoriented frames, and the
text of fixture files."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import isqrt

from vftk import budget, frames
from vftk.abelian import _scaled_hnf
from vftk.bits import (
    f2_echelon,
    f2_identity,
    f2_mat_inverse,
    f2_mat_mul,
    f2_orth_step,
    f2_rank,
    f2_reduce,
    f2_rref,
    f2_transpose,
    f2_vec_mat,
)
from vftk.f2quad import (
    _swap_halves,
    is_odd_lagrangian,
    left_stabilizer_order,
    pairing,
    quad_value,
)
from vftk.intmat import _hnf_coords, identity, mat_mul, snf_divisors, vec_mat
from vftk.lattices import IntegralLattice, short_vectors
from vftk.stabsearch import orbit
from vftk.verify import verify


def det_gauss(a):
    """Determinant by Gaussian elimination over Q, with row swaps."""
    m = [[Fraction(x) for x in r] for r in a]
    n = len(m)
    sign = 1
    out = Fraction(1)
    for k in range(n):
        pivot = None
        for r in range(k, n):
            if m[r][k] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        out *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return sign * out


def inverse_gauss_jordan(a):
    """Exact inverse as a Fraction matrix; raises ValueError if singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def hnf_euclid(rows):
    """Row-style Hermite normal form by column-wise Euclid: each column is
    cleared below its pivot by repeated divisions between whole rows, and
    entries are reduced only above a finished pivot.  The entries of the
    trailing columns grow with every step, so small inputs only."""
    h = [list(r) for r in rows]
    m = len(h)
    ncols = len(h[0]) if m else 0
    row = 0
    for col in range(ncols):
        if row == m:
            break
        # find a pivot and clear the column below it by exact Euclid
        piv = None
        for r in range(row, m):
            if h[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        h[row], h[piv] = h[piv], h[row]
        for r in range(row + 1, m):
            while h[r][col] != 0:
                q = h[row][col] // h[r][col]
                h[row] = [a - q * b for a, b in zip(h[row], h[r])]
                h[row], h[r] = h[r], h[row]
        if h[row][col] < 0:
            h[row] = [-a for a in h[row]]
        for r in range(row):
            q = h[r][col] // h[row][col]
            if q:
                h[r] = [a - q * b for a, b in zip(h[r], h[row])]
        row += 1
    return tuple(map(tuple, h))


def quotient_divisors_general(sup_rows, sub_rows):
    """Elementary divisors (> 1) of span(sup_rows)/span(sub_rows).

    Both spans are Z-modules of rational rows; sub must lie inside sup with
    finite index (same rank), else ValueError.  A sub row inside sup has
    denominators dividing sup's den, so both scale to integer rows by it.
    """
    den, sup = _scaled_hnf(sup_rows)
    sub_den, sub = _scaled_hnf(sub_rows)
    if len(sub) != len(sup):
        raise ValueError("quotient is not finite (ranks differ)")
    if not sup:
        return ()
    scale, rem = divmod(den, sub_den)
    coords = [_hnf_coords(sup, [x * scale for x in r]) for r in sub]
    if rem or None in coords:
        raise ValueError("sub is not contained in sup")
    divs = snf_divisors(coords)
    if len(divs) != len(sup):
        raise ValueError("quotient is not finite")
    return tuple(d for d in divs if d > 1)


def gram(lattice):
    return tuple(tuple(Fraction(x, 2) for x in row) for row in lattice.gram2)


@lru_cache(maxsize=None)
def gram_inverse(lattice):
    return inverse_gauss_jordan(gram(lattice))


def dual_basis_rows(lattice):
    """Rows spanning the dual lattice in the lattice's coordinates (= G^{-1})."""
    return gram_inverse(lattice)


def in_dual(lattice, v):
    """True if the rational row v pairs integrally with the lattice."""
    return all(
        sum(Fraction(x) * Fraction(g, 2) for x, g in zip(v, col)).denominator == 1
        for col in zip(*lattice.gram2)
    )


def q(dg, v):
    """The discriminant quadratic form: the norm mod 2."""
    return Fraction(dg.lattice.norm(v)) % 2


def b(dg, u, v):
    """The discriminant bilinear form: the inner product mod 1."""
    return Fraction(dg.lattice.inner(u, v)) % 1


def generators(dg):
    """The discriminant group's generators rows[i] / orders[i], as Fraction rows."""
    return tuple(tuple(Fraction(x, d) for x in u) for u, d in zip(dg.rows, dg.orders))


def element(dg, coeffs):
    """Sum of coeffs[i] * generators[i] as a rational row."""
    n = dg.lattice.rank
    out = [Fraction(0)] * n
    for c, g in zip(coeffs, generators(dg)):
        for i in range(n):
            out[i] += c * g[i]
    return tuple(out)


def _floor_sqrt_frac(fr):
    """floor(sqrt(p/q)) for a nonnegative Fraction."""
    if fr < 0:
        raise ValueError("negative radicand")
    p, q = fr.numerator, fr.denominator
    return isqrt(p * q) // q


def short_vectors_box(lattice, norm):
    """Naive box-bound enumeration oracle (use only for small ranks).

    Coordinate bounds come from x_i^2 <= norm * (G^{-1})_ii, which holds
    for every v with (v,v) <= norm.
    """
    norm = Fraction(norm)
    if not lattice.is_definite:
        raise ValueError("needs a definite lattice")
    n = lattice.rank
    ginv = gram_inverse(lattice)
    bounds = [_floor_sqrt_frac(norm * ginv[i][i]) for i in range(n)]
    out = []

    def rec(i, v):
        if i == n:
            if any(v) and lattice.norm(v) == norm:
                out.append(tuple(v))
            return
        for x in range(-bounds[i], bounds[i] + 1):
            rec(i + 1, v + [x])

    rec(0, [])
    return out


def skewed(lattice, rng, moves, size):
    """The lattice in a seeded basis: `moves` row operations b_i += c b_j,
    0 < |c| <= size, applied to gram2 on both sides."""
    g = [list(row) for row in lattice.gram2]
    for _ in range(moves if lattice.rank > 1 else 0):
        i, j = rng.sample(range(lattice.rank), 2)
        c = rng.choice((-1, 1)) * rng.randint(1, size)
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in g:
            row[i] += c * row[j]
    return IntegralLattice(g)


def random_definite(rng, n):
    """gram2 = 2 (b b^T + I): positive definite and even."""
    b = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
    return IntegralLattice(
        [[2 * sum(b[i][k] * b[j][k] for k in range(n)) + 2 * (i == j) for j in range(n)]
         for i in range(n)]
    )


def isometries(l):
    """All isometries of a small positive definite lattice.

    Backtracks over images of the basis vectors among vectors of equal
    norm, pruning on inner products with images already chosen.  Cost
    grows with the short-vector counts, so keep the rank small.  Each
    node polls the budget.
    """
    if not l.is_definite:
        raise ValueError("needs a positive definite lattice")
    n = l.rank
    norms = [l.norm(e) for e in identity(n)]
    candidates = {nv: short_vectors(l, nv) for nv in set(norms)}
    out = []
    img = []

    def rec(i):
        budget.check()
        if i == n:
            out.append(tuple(img))
            return
        for v in candidates[norms[i]]:
            if all(2 * l.inner(v, img[j]) == l.gram2[i][j] for j in range(i)):
                img.append(v)
                rec(i + 1)
                img.pop()

    rec(0)
    return tuple(out)


def matrix_group(n, gens):
    """Every product of the n x n matrices gens, the identity included:
    the group they generate, for a finite group."""
    return orbit({identity(n)}, lambda a: (mat_mul(a, g) for g in gens))


def apply_monomial(word, sigma, signs, modulus):
    out = [0] * len(word)
    for p, v in enumerate(word):
        out[sigma[p]] = (signs[p] * v) % modulus
    return tuple(out)


def brute_force_monomials(words, n, modulus):
    """All (sigma, signs) stabilizing the word set; oracle for small n."""
    wordset = frozenset(tuple(w) for w in words)
    out = []
    for sigma in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            if all(apply_monomial(w, sigma, signs, modulus) in wordset for w in wordset):
                out.append((sigma, signs))
    return out


def brute_force_perms(words, n):
    """All coordinate permutations stabilizing a set of binary words."""
    wordset = frozenset(tuple(w) for w in words)
    out = []
    for sigma in permutations(range(n)):
        if all(apply_monomial(w, sigma, [1] * n, 2) in wordset for w in wordset):
            out.append(sigma)
    return out


def z4_closure(length, generators):
    """Span of Z/4 generators: every generator, in turn, added 0..3 times
    to every word found so far."""
    words = {(0,) * length}
    for g in generators:
        words = {tuple((w[i] + m * g[i]) % 4 for i in range(length)) for w in words for m in range(4)}
    return frozenset(words)


def sum_two_squares_scan(p):
    """The first (a0, b0) in residue order with a0^2 + b0^2 == -1 mod p."""
    for a0 in range(p):
        rest = (-1 - a0 * a0) % p
        b0 = next((t for t in range(p) if t * t % p == rest), None)
        if b0 is not None:
            return a0, b0


def walk_frames_reference(graph):
    """Yield (clique, k) for every frame, in the order frames._walk_frames
    must meet them: the walk that enters every clique and carries the
    reduced F2 basis of the pair masks chosen so far down each depth."""
    size = graph.lattice.rank
    if not size:
        yield (), 0
        return
    adj, masks = graph.adj, graph.masks
    rest = [0] * size
    chosen = [0] * size
    bases = [()] * size
    rest[0] = (1 << len(adj)) - 1
    depth = 0
    while depth >= 0:
        cands = rest[depth]
        need = size - depth - 1
        left = cands.bit_count()
        while left > need:
            v = cands.bit_length() - 1
            cands ^= 1 << v
            left -= 1
            below = cands & adj[v]
            if below.bit_count() >= need:
                break
        else:
            depth -= 1
            continue
        rest[depth] = cands
        chosen[depth] = v
        basis = bases[depth]
        m = masks[v]
        for b in basis:  # descending leading bits: Gaussian elimination over F2
            m = min(m, m ^ b)
        if not need:
            yield tuple(chosen), len(basis) + (m > 0)
            continue
        depth += 1
        rest[depth] = below
        bases[depth] = tuple(sorted(basis + (m,), reverse=True)) if m else basis


def f2_transpose_bitwise(rows, width):
    """Columns of the bit matrix, read one bit at a time: bit i of column j
    is bit j of rows[i]."""
    out = []
    for j in range(width):
        c = 0
        for i, r in enumerate(rows):
            c |= ((r >> j) & 1) << i
        out.append(c)
    return out


def epsilon_by_loops(exponents, x, y):
    """EpsilonCocycle.epsilon by the definition: (-1)^(x E y^T), summed
    entry by entry over the nonzero coordinates."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = exponents[i]
            total += xi * sum(row[j] * yj for j, yj in enumerate(y) if yj)
    return -1 if total & 1 else 1


def mu_exponent_by_loops(cmatrix, mu_bits, x):
    """LiftedAutomorphism.mu_exponent by the definition, entry by entry:
    mu_bits . x + sum_i c_ii x_i (x_i - 1) / 2 + sum_(i < j) c_ij x_i x_j
    mod 2."""
    c = cmatrix
    total = sum(m * xi for m, xi in zip(mu_bits, x))
    n = len(x)
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        if c[i][i]:
            total += (xi * (xi - 1) // 2) * c[i][i]
        row = c[i]
        for j in range(i + 1, n):
            if x[j]:
                total += row[j] * xi * x[j]
    return total % 2


def f2_orth(basis, rows):
    """Echelon basis of the vectors in span(basis) with even overlap with
    every row: one f2_orth_step per row, on a copy of basis."""
    basis = list(basis)
    for r in rows:
        f2_orth_step(basis, r)
    return basis


def f2_subspaces(width, dim):
    """Yield every dim-dimensional subspace of F2^width exactly once.

    Subspaces come out as RREF tuples (descending pivots).  Enumeration is
    by choice of pivot columns plus free entries, so the count matches the
    Gaussian binomial coefficient.
    """
    if dim == 0:
        yield ()
        return
    for pivots in combinations(range(width - 1, -1, -1), dim):
        # pivots descending; row i has leading bit pivots[i]
        free_positions = []  # (row, col) pairs that may be 0/1
        for i, p in enumerate(pivots):
            for col in range(p - 1, -1, -1):
                if col not in pivots:
                    free_positions.append((i, col))
        base = [1 << p for p in pivots]
        nfree = len(free_positions)
        for mask in range(1 << nfree):
            rows = list(base)
            m = mask
            while m:
                idx = (m & -m).bit_length() - 1
                i, col = free_positions[idx]
                rows[i] |= 1 << col
                m &= m - 1
            yield tuple(rows)


def nonsingular_vectors(n):
    """Every vector with Q = 1, by listing the whole space."""
    return [v for v in range(1, 1 << (2 * n)) if quad_value(n, v)]


def transform_member(n, g, member):
    """The image of a member under the rows g (images of the basis
    vectors), in canonical RREF."""
    return f2_rref([f2_vec_mat(r, g) for r in member])


def left_stabilizer_generators(n):
    """Generators (rows = images of basis vectors) of the left-half stabilizer.

    GL pairs act as B on the right half and B^{-T} on the left; the
    unipotent part adds symmetric zero-diagonal left corrections to the
    right-half images.
    """
    gens = []
    for i in range(n):
        for l in range(n):
            if i == l:
                continue
            g = list(f2_identity(2 * n))
            g[n + i] ^= 1 << (n + l)  # f_i -> f_i + f_l
            g[l] ^= 1 << i  # e_l -> e_l + e_i
            gens.append(tuple(g))
    for i in range(n):
        for l in range(i + 1, n):
            g = list(f2_identity(2 * n))
            g[n + i] ^= 1 << l  # f_i -> f_i + e_l
            g[n + l] ^= 1 << i  # f_l -> f_l + e_i
            gens.append(tuple(g))
    return gens


def orbit_partition_bfs(n, members):
    """Orbits of the left-half stabilizer through the given members, by a
    BFS over left_stabilizer_generators: whole orbits, each a frozenset."""
    gens = left_stabilizer_generators(n)
    todo = set(members)
    orbits = []
    while todo:
        orb = orbit({todo.pop()}, lambda m: (transform_member(n, g, m) for g in gens))
        todo -= orb
        orbits.append(frozenset(orb))
    return orbits


def odd_lagrangian_through(n, v):
    """The member spanned by a nonsingular v and the left vectors orthogonal to v.

    Its left overlap is n - 1, the maximal value.
    """
    if not quad_value(n, v):
        raise ValueError("v must be nonsingular")
    # left vectors orthogonal to v: even overlap with the right half of v
    perp = f2_orth(f2_identity(n)[::-1], [v >> n])
    member = f2_rref(perp + [v])
    verify(is_odd_lagrangian(n, member), "member through v is not an odd Lagrangian")
    return member


def random_isometry(n, rng):
    """Product of 3n transvections x -> x + (x,u)u at random nonsingular u."""
    vecs = nonsingular_vectors(n)
    g = tuple(f2_identity(2 * n))
    for _ in range(3 * n):
        u = rng.choice(vecs)
        t = tuple(b ^ (u if pairing(n, b, u) else 0) for b in f2_identity(2 * n))
        g = tuple(f2_mat_mul(g, t))
    return g


def sample_odd_lagrangians(n, count=32, seed=0):
    """Constructive members: one through a random nonsingular vector, then
    pushed around by a random isometry of the whole space."""
    rng = random.Random(seed)
    vecs = nonsingular_vectors(n)
    out = []
    for _ in range(count):
        member = odd_lagrangian_through(n, rng.choice(vecs))
        out.append(transform_member(n, random_isometry(n, rng), member))
    return tuple(out)


def is_isometry(n, g):
    """Whether the rows g (images of the basis vectors) preserve Q.

    Against the constant split form: Q vanishes on every image, and the
    images pair to 1 exactly at l = i + n.  The pairing matrix is
    alternating, so its upper triangle decides.
    """
    width = 2 * n
    if len(g) != width or any(x >> width for x in g):
        return False
    if any(quad_value(n, x) for x in g):
        return False
    for i in range(width):
        s = _swap_halves(n, g[i])  # (x, y) is the parity of swap(x) & y
        for l in range(i + 1, width):
            if ((s & g[l]).bit_count() & 1) != (l == i + n):
                return False
    return True


def fixes_left_half(n, g):
    return all(g[i] < (1 << n) for i in range(n))


def full_left_stabilizer(n):
    """Every element of the left-half stabilizer (feasible for n <= 3)."""
    unipotent_masks = []
    pairs = [(i, l) for i in range(n) for l in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        mat = [0] * n
        for idx, (i, l) in enumerate(pairs):
            if (bits >> idx) & 1:
                mat[i] |= 1 << l
                mat[l] |= 1 << i
        unipotent_masks.append(mat)
    out = []
    for b in product(range(1, 1 << n), repeat=n):
        if f2_rank(b) != n:
            continue
        binv_t = f2_transpose(f2_mat_inverse(list(b), n), n)
        for mat in unipotent_masks:
            # unipotent first, then the GL pair: the raw left correction
            # to the f-block is M * B^{-T}, not M itself
            corr = f2_mat_mul(mat, binv_t)
            g = [binv_t[i] for i in range(n)]
            g += [(b[i] << n) ^ corr[i] for i in range(n)]
            out.append(tuple(g))
    verify(len(set(out)) == left_stabilizer_order(n), "left-half stabilizer has the wrong order")
    return out


def listed_stabilizer_orders(n, member):
    """(order, unipotent order) of the member's stabilizer, by listing.

    The stabilizer is filtered out of the full left-half stabilizer, and
    its unipotent part is the kernel of the action on the graded pieces of
    the fixed flag (the left overlap and the singular hyperplane modulo
    it).  The member must be in canonical RREF.
    """
    stab = [g for g in full_left_stabilizer(n) if transform_member(n, g, member) == member]
    t_ech = f2_echelon([r for r in member if r < (1 << n)])
    qs = [quad_value(n, r) for r in member]
    pivot = member[qs.index(1)]
    hyperplane = [r ^ (pivot if q else 0) for r, q in zip(member, qs) if r != pivot]
    unipotent = [
        g
        for g in stab
        if all(f2_vec_mat(r, g) == r for r in t_ech)
        and all(f2_reduce(f2_vec_mat(h, g) ^ h, t_ech) == 0 for h in hyperplane)
    ]
    return len(stab), len(unipotent)


def find_frames(lattice):
    """Every frame of a small definite even lattice, as LatticeFrames."""
    graph = frames._norm4_graph(lattice)
    return [graph.frame(clique) for clique, _ in frames._walk_frames(graph)]


def reoriented(frame, signs, order):
    """The same frame with representatives flipped by signs, then permuted."""
    vecs = [tuple(s * c for c in v) for s, v in zip(signs, frame.vectors)]
    return frames.LatticeFrame(frame.lattice, [vecs[i] for i in order])


def monomial_to_isometry(lattice, frame, sigma, signs):
    """Integer isometry sending x_p to signs[p] * x_{sigma[p]}.

    Raises ValueError if the monomial map does not preserve the lattice
    (equivalently, does not preserve the glue code).
    """
    n = lattice.rank
    vecs = frame.vectors
    cols = [lattice.gram_row(x) for x in vecs]  # cols[p][j] = 2 (e_j, x_p)
    rows = []
    for j in range(n):
        # e_j = sum_p (e_j, x_p)/4 x_p, so row j is acc/8
        acc = [0] * n
        for p in range(n):
            c = cols[p][j] * signs[p]
            if c:
                tgt = vecs[sigma[p]]
                for t in range(n):
                    acc[t] += c * tgt[t]
        if any(x % 8 for x in acc):
            raise ValueError("monomial map does not preserve the lattice")
        rows.append(tuple(x // 8 for x in acc))
    rows = tuple(rows)
    verify(lattice.is_isometry(rows), "constructed map is not an isometry")
    return rows


def frame_symbol_action(frame, lift):
    """Action of a lift on the 2n frame symbols, as (sigma, sign flips).

    The lift's matrix must be monomial on the frame: x_p -> +-x_{sigma(p)}.
    The symbol pair p goes to pair sigma[p], with the two symbols swapped
    exactly when mu(x_p) = -1 (the +- label tracks mu, the sign of the
    frame vector drops out).
    """
    vecs = frame.vectors
    index = {}
    for q, x in enumerate(vecs):
        index[x] = q
        index[tuple(-c for c in x)] = q
    sigma = []
    flips = []
    for x in vecs:
        img = vec_mat(x, lift.matrix)
        if img not in index:
            raise ValueError("lift is not monomial on the frame")
        sigma.append(index[img])
        flips.append(lift.mu(x) == -1)
    return tuple(sigma), tuple(flips)


def format_gram(lattice):
    """Gram-file text for a lattice (uses ``scale 1/2`` only when needed)."""
    halved = any(x % 2 for row in lattice.gram2 for x in row)
    lines = [str(lattice.rank)]
    if halved:
        lines.append("scale 1/2")
        rows = lattice.gram2
    else:
        rows = [[x // 2 for x in row] for row in lattice.gram2]
    lines += [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def format_frame(frame):
    """Frame-file text: the pair count, then one coordinate row per pair."""
    lines = [str(frame.pair_count)]
    lines += [" ".join(str(x) for x in v) for v in frame.vectors]
    return "\n".join(lines) + "\n"
