"""Quadratic spaces of maximal Witt index over GF(2).

The ambient space is F2^(2n) split into two distinguished totally
singular halves -- the left half (bits 0..n-1) and the right half (bits
n..2n-1) -- with Q(v) = popcount(left & right) mod 2, a sum of n
hyperbolic planes.  The objects classified here are the odd Lagrangians:
n-dimensional subspaces that are totally isotropic for the bilinear
pairing but on which Q restricts to a nonzero linear functional, so the
singular vectors form a hyperplane.  The stabilizer of the left half
acts with exactly n orbits, separated by the left overlap (the dimension
of the intersection with the left half).  In the rank-8 frame
classification the orbit of left overlap j corresponds to the frame
class whose glue code has rank 5 - j.

Vectors are bit-packed ints and subspaces are canonical RREF row tuples,
as in the bits module.
"""

from array import array
from collections import namedtuple
from math import prod

from . import budget
from .bits import (
    f2_identity,
    f2_mat_inverse,
    f2_mat_mul,
    f2_orth,
    f2_rank,
    f2_rref,
    f2_transpose,
    f2_vec_mat,
    gl2_order,
)
from .stabsearch import CHECK_EVERY, orbit
from .verify import verify

__all__ = [
    "OrbitWitness",
    "OrbitClass",
    "StabilizerInfo",
    "quad_value",
    "pairing",
    "nonsingular_vectors",
    "nonsingular_count",
    "is_odd_lagrangian",
    "left_overlap",
    "standard_odd_lagrangian",
    "enumerate_odd_lagrangians",
    "left_stabilizer_order",
    "left_stabilizer_generators",
    "transform_member",
    "orbit_partition",
    "same_orbit_witness",
    "stabilizer_structure",
    "orbit_census",
    "orbit_size",
    "total_odd_count",
    "gaussian_binomial",
]


def quad_value(n, v):
    """Q(v) for the split form: left half dotted with right half."""
    return ((v & ((1 << n) - 1)) & (v >> n)).bit_count() & 1


def _swap_halves(n, v):
    return (v >> n) | ((v & ((1 << n) - 1)) << n)


def pairing(n, u, v):
    """Bilinear pairing Q(u+v) + Q(u) + Q(v)."""
    return (_swap_halves(n, u) & v).bit_count() & 1


def _leading_bits(basis):
    """Mask of the leading bits of an echelon basis."""
    return sum(1 << (b.bit_length() - 1) for b in basis)


def nonsingular_vectors(n):
    return [v for v in range(1, 1 << (2 * n)) if quad_value(n, v)]


def nonsingular_count(n):
    """len(nonsingular_vectors(n)), counted one hyperbolic plane at a time.

    A plane has 1 vector with Q = 1 and 3 with Q = 0, and Q adds over the
    planes, so each plane maps (odd, even) to (3 odd + even, 3 even + odd).
    """
    odd, even = 0, 1
    for _ in range(n):
        odd, even = 3 * odd + even, 3 * even + odd
    return odd


# --- members ---------------------------------------------------------------


def is_odd_lagrangian(n, member):
    """Totally isotropic of dimension n with Q nonzero (hence linear) on it."""
    rows = tuple(member)
    if len(rows) != n or f2_rank(rows) != n:
        return False
    if any(pairing(n, rows[i], rows[l]) for i in range(n) for l in range(i + 1, n)):
        return False
    return any(quad_value(n, r) for r in rows)


def left_overlap(n, member):
    """dim of the intersection with the left half (the orbit invariant)."""
    return n - f2_rank([r >> n for r in member])


def standard_odd_lagrangian(n, overlap):
    """Canonical orbit representative: span{e0+f0, f1..f_{m-1}, e_m..e_{n-1}}."""
    if not 0 <= overlap <= n - 1:
        raise ValueError("overlap must lie in 0..n-1")
    return f2_rref(_standard_frame(n, overlap)[:n])


def _unpack(n, word):
    """The row tuple packed in word: n fields of 2n bits, first row highest."""
    width = 2 * n
    mask = (1 << width) - 1
    return tuple([(word >> s) & mask for s in range(width * (n - 1), -1, -width)])


def enumerate_odd_lagrangians(n):
    """Every odd Lagrangian, exhaustively, as canonical RREF row tuples in
    lexicographic order.

    The walk, _odd_lagrangian_words, packs each member into one word, the
    first row in the highest field, and yields the words strictly
    descending; so its words read backwards unpack to the members in
    ascending order of rows.  The census reads the words and never builds
    this tuple.
    """
    return tuple(_unpack(n, word) for word in reversed(_odd_lagrangian_words(n)))


def _odd_lagrangian_words(n):
    """Every odd Lagrangian as one packed word, strictly descending.

    A word holds the member's RREF rows in n fields of 2n bits each, the
    first row in the highest field; n <= 5 keeps it within n * 2n <= 50
    bits, so the words fit an array("Q") of 8 bytes per member.

    Enumerates RREF bases of totally isotropic n-subspaces directly:
    pivots descend and earlier rows are required to vanish at later
    pivots.  Each depth carries the perp of the chosen rows, its mask of
    leading bits, the rows' OR, their packed prefix and whether Q is
    nonzero on one of them, so a new row with pivot p is a perp basis
    vector led by an unused bit p plus any combination of the perp basis
    vectors below it.

    The perp starts as the identity and f2_orth keeps it fully reduced:
    each vector is 0 at the leading bits of the others.  So of two
    combinations of perp vectors, the larger is the one that uses the
    highest vector in which they differ, and each node visits its
    candidates in descending order: by pivot, then by the combination
    below it.  A word's rows are its path from the root, so the words come
    out strictly descending, which the census checks.

    A child is entered only if its perp still has enough candidate
    pivots: leading bits below p and outside the OR of its rows, one for
    each row still missing.  This is sound because f2_orth keeps the
    leading bit of every basis vector it does not drop, so every later
    pivot leads a vector of the child's perp; for the same reason the
    parent's mask is a first, cheaper test.  The pruned nodes are the ones
    with no leaf below them; the budget is polled every CHECK_EVERY
    recursive calls.
    """
    if not 1 <= n <= 5:
        raise ValueError("exhaustive enumeration is limited to 1 <= n <= 5")
    width = 2 * n
    words = array("Q")
    calls = 0

    def rec(perp, leads, used, max_pivot, packed, need, odd):
        nonlocal calls
        calls += 1
        if calls % CHECK_EVERY == 0:
            budget.check()
        if need == 0:
            if odd:
                words.append(packed)
            return
        span = None
        for i, b in enumerate(perp):
            p = b.bit_length() - 1
            if p < need - 1:
                break
            if p > max_pivot or (used >> p) & 1:
                continue  # keep full RREF: old rows must vanish at the new pivot
            if span is None:
                # span of perp[i + 1:], descending; the span of each later
                # suffix is its tail
                span = [0]
                for v in reversed(perp[i + 1 :]):
                    span = [v ^ c for c in span] + span
            for c in span[-(1 << (len(perp) - 1 - i)) :]:
                w = b ^ c
                free = ((1 << p) - 1) & ~(used | w)
                if (leads & free).bit_count() < need - 1:
                    continue  # the child's leading bits are a subset of leads
                child = f2_orth(perp, [_swap_halves(n, w)]) if need > 1 else ()
                child_leads = _leading_bits(child)
                if (child_leads & free).bit_count() < need - 1:
                    continue
                rec(child, child_leads, used | w, p - 1, packed << width | w, need - 1, odd or quad_value(n, w))

    rec(f2_identity(width)[::-1], (1 << width) - 1, 0, width - 1, 0, n, 0)
    return words


# --- the stabilizer of the left half ----------------------------------------


def left_stabilizer_order(n):
    """2^{n(n-1)/2} * |GL(n,2)|: unipotent radical times a GL Levi factor."""
    return 2 ** (n * (n - 1) // 2) * gl2_order(n)


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


def transform_member(n, g, member):
    return f2_rref([f2_vec_mat(r, g) for r in member])


def orbit_partition(n, members):
    """Orbits of the left-half stabilizer on the given members."""
    gens = left_stabilizer_generators(n)
    todo = set(members)
    orbits = []
    while todo:
        orb = orbit({todo.pop()}, lambda m: (transform_member(n, g, m) for g in gens))
        todo -= orb
        orbits.append(frozenset(orb))
    return orbits


# --- canonical witnesses -----------------------------------------------------


def _adapted_frame(n, member):
    """Basis of the whole space adapted to the member.

    Returns rows [w_1..w_m, t_1..t_j, s_1..s_m, p_1..p_j] where the t's
    span the left overlap, the w's complete the member with Q(w_1) = 1 and
    Q(w_i) = 0 otherwise, the s's lie in the left half dual to the w's,
    and the p's complete the t's to hyperbolic pairs.  The Gram/Q data of
    this list depends only on (n, overlap), which is what makes the
    witness isometry exist.  The member must be in canonical RREF.

    The member is fully reduced, so the frame is read off its rows (a
    left s pairs with x as the parity of s & (x >> n)).  A u row, with
    right pivot p_k + n, has bit p_l + n equal to delta_kl, so e_{p_k}
    is its left dual.  For w_1 = u_a with Q(u_a) = 1 and w_i = u_i +
    Q(u_i) w_1, the dual of w_1 is the sum of e_{p_i} over the u_i with
    Q = 1, and the dual of each other w_i is still e_{p_i}.  A t row,
    with left pivot c_l, is the only row with bit c_l set, so f_{c_l}
    pairs delta with the t's and 0 with the w's.  Adding w_k wherever
    f_{c_l} pairs 1 with s_k, then t_l if Q = 1, gives p_l.  Neither step
    moves a pairing with the isotropic member or with the left-half s's,
    so two p's pair as each f does with the other's additions: 0.
    """
    t_rows = [r for r in member if r < (1 << n)]
    u_rows = [r for r in member if r >> n]
    qs = [quad_value(n, r) for r in u_rows]
    if 1 not in qs:
        raise ValueError("member is singular (not an odd Lagrangian)")
    w1 = u_rows[qs.index(1)]
    duals = [1 << (u.bit_length() - 1 - n) for u in u_rows]
    ws = [w1] + [u ^ (w1 if q else 0) for u, q in zip(u_rows, qs) if u != w1]
    ss = [sum(d for d, q in zip(duals, qs) if q)]
    ss += [d for u, d in zip(u_rows, duals) if u != w1]
    ps = []
    for t in t_rows:
        f = 1 << (n + t.bit_length() - 1)
        p = f
        for w, s in zip(ws, ss):
            if ((f >> n) & s).bit_count() & 1:
                p ^= w
        if quad_value(n, p):
            p ^= t
        ps.append(p)
    return ws + t_rows + ss + ps


def _standard_frame(n, j):
    """The standard frame for left overlap j.

    It is laid out as in _adapted_frame, with the Gram/Q data that every
    adapted frame of overlap j has; its first n rows span
    standard_odd_lagrangian(n, j).
    """
    m = n - j
    frame = [1 | (1 << n)]
    frame += [1 << (n + i) for i in range(1, m)]  # w_2..w_m
    frame += [1 << (m + l) for l in range(j)]  # the t's
    frame += [1 << i for i in range(m)]  # the s's
    frame += [1 << (n + m + l) for l in range(j)]  # the p's
    return frame


class OrbitWitness(namedtuple("OrbitWitness", "matrix overlaps")):
    """A witness isometry, or matrix None with unequal left overlaps as the refutation."""

    __slots__ = ()


def same_orbit_witness(n, a, b):
    """Witness in the left-half stabilizer mapping a to b, or a refutation.

    Members with equal left overlap j have adapted frames F_a and F_b with
    the Gram/Q data of the standard frame of j, so the isometry sending
    row i of F_a to row i of F_b is g = F_a^-1 F_b; the t's and s's of
    each frame span the left half, so it keeps the left half.  The
    returned matrix is verified as the census verifies its members: F_a g
    = F_b, the first n rows of each frame span its member, and
    _verify_frames checks both frames; a failed check raises
    VerificationError.  Unequal overlaps are returned as the refutation.
    """
    a = f2_rref(a)
    b = f2_rref(b)
    ja, jb = left_overlap(n, a), left_overlap(n, b)
    if ja != jb:
        return OrbitWitness(None, (ja, jb))
    fa, fb = _adapted_frame(n, a), _adapted_frame(n, b)
    g = tuple(f2_mat_mul(f2_mat_inverse(fa, 2 * n), fb))
    verify(
        f2_mat_mul(fa, g) == fb and f2_rref(fa[:n]) == a and f2_rref(fb[:n]) == b,
        "witness misses its target member",
    )
    _verify_frames(n, ja, fa + fb)
    return OrbitWitness(g, (ja, jb))


_BATCH = 4096  # frames per bit-slice check in the exhaustive census


def _verify_frames(n, j, frames):
    """Raise VerificationError unless every adapted frame in the batch
    keeps the left-half rows of the standard frame T of overlap j in the
    left half, has rows of 2n bits, and has T's Q values and pairings.
    T must be a basis, which is checked too: then T's pairing matrix is
    nondegenerate, and so each frame is a basis as well.

    frames holds 2n rows per frame, frame after frame.  Transposing the
    rows at one position k gives 2n bit slices x[k][b], with bit t of
    x[k][b] equal to bit b of row k of frame t, so one AND or XOR of
    slices does one step for every frame at once: Q of row k is the XOR
    over b < n of x[k][b] & x[k][b + n], and must be all ones where Q(T_k)
    is 1 and all zeros where it is 0; pairings are alike.
    """
    width = 2 * n
    ones = (1 << (len(frames) // width)) - 1
    standard = _standard_frame(n, j)
    verify(f2_rank(standard) == width, "standard frame is not a basis")
    verify(max(frames) < (1 << width), "witness is not an isometry")
    x = [f2_transpose(frames[k::width], width) for k in range(width)]
    left = [x[k] for k, r in enumerate(standard) if r < (1 << n)]
    verify(not any(xk[b] for xk in left for b in range(n, width)), "witness moves the left half")
    for k, r in enumerate(standard):
        xk = x[k]
        q = 0
        for b in range(n):
            q ^= xk[b] & xk[b + n]
        verify(q == ones * quad_value(n, r), "witness is not an isometry")
        for l in range(k + 1, width):
            xl = x[l]
            p = 0
            for b in range(n):
                p ^= (xk[b] & xl[b + n]) ^ (xk[b + n] & xl[b])
            verify(p == ones * pairing(n, r, standard[l]), "witness is not an isometry")


# --- orbit census and stabilizer structure -----------------------------------


def gaussian_binomial(m, k):
    """Number of k-dimensional subspaces of F2^m."""
    if not 0 <= k <= m:
        return 0
    num = prod(2**m - 2**i for i in range(k))
    den = prod(2**k - 2**i for i in range(k))
    return num // den


def orbit_size(n, j):
    """Closed-form orbit size for left overlap j.

    A member with overlap j is exactly a pair (R, S): an (n-j)-dim
    projection R to the right half (the left part is forced to be the
    annihilator of R) and, in a basis of R, a symmetric (n-j) x (n-j)
    matrix S over F2 whose diagonal -- the Q values -- is nonzero.
    """
    m = n - j
    return gaussian_binomial(n, m) * 2 ** (m * (m - 1) // 2) * (2**m - 1)


def total_odd_count(n):
    return sum(orbit_size(n, j) for j in range(n))


class StabilizerInfo(namedtuple("StabilizerInfo", "overlap order unipotent_order levi")):
    __slots__ = ()


class OrbitClass(namedtuple("OrbitClass", "overlap size stabilizer_order unipotent_order levi")):
    __slots__ = ()


def stabilizer_structure(n, member):
    """(order, unipotent order, Levi description) of the member's stabilizer.

    The stabilizer of a member of left overlap j has order |P| / |orbit|,
    with |P| = left_stabilizer_order(n) and the orbit size from its closed
    form.  It fixes the flag of the left overlap inside the singular
    hyperplane of the member, and its Levi factor GL(j,2) x GL(n-1-j,2)
    acts on the graded pieces; the unipotent order is the quotient by the
    Levi order, which must divide exactly and leave a power of 2.  The
    tests list the whole left-half stabilizer for n <= 3 and count both
    orders by definition.
    """
    member = f2_rref(member)
    if not is_odd_lagrangian(n, member):
        raise ValueError("not an odd Lagrangian")
    j = left_overlap(n, member)
    levi_order = gl2_order(j) * gl2_order(n - 1 - j)
    order, rem = divmod(left_stabilizer_order(n), orbit_size(n, j))
    verify(rem == 0, "orbit size does not divide the group order")
    u_order, rem = divmod(order, levi_order)
    verify(rem == 0, "Levi order does not divide the stabilizer order")
    verify(u_order & (u_order - 1) == 0, "unipotent part must be a 2-group")
    return StabilizerInfo(j, order, u_order, f"GL({j},2) x GL({n - 1 - j},2)")


def orbit_census(n, exhaustive=False):
    """One row per orbit of the left-half stabilizer on odd Lagrangians.

    The sizes come from the closed form.  When exhaustive is true, or n
    <= 3 where it is cheap, the members are also enumerated and every
    one is certified with an explicit witness h that fixes the left half,
    preserves Q and carries the standard representative of the member's
    left overlap onto the member; the count of each overlap must then be
    its closed-form orbit size.  A failed check raises VerificationError.

    The census runs in two phases.  The walk first stores every member as
    one packed word of at most 50 bits, 8 bytes in an array (see
    _odd_lagrangian_words); then each word is unpacked and certified in
    turn, so no list of row tuples is held.  The walk yields its words
    strictly descending, and the census checks that order word by word
    against the previous one: with the count, it refuses a repeated
    member, which every witness check would pass, in O(1) memory.

    The witness of a member with overlap j is h = T^-1 F, with T the
    standard frame of j and F the member's adapted frame, so h maps row k
    of T to row k of F.  The census checks F instead of h, three ways:
    the rows that T keeps in the left half (its t's and s's, which span
    that half) are below 1 << n in F, so h fixes the left half; Q(F_k) =
    Q(T_k) for every k and pairing(F_k, F_l) = pairing(T_k, T_l) for
    every k < l, and since T is a basis (checked) and the form is
    nondegenerate, T's pairing matrix is nondegenerate, so F is a basis
    and h preserves Q; and f2_rref(F[:n]) is the member, which is where h
    takes standard_odd_lagrangian(n, j) = f2_rref(T[:n]).  The span check
    runs per member.  The frames are kept per j in an array of 2n-bit
    rows, and the other two checks run on _BATCH of them at a time, as
    bit slices (see _verify_frames).
    """
    if exhaustive or n <= 3:
        words = _odd_lagrangian_words(n)
        verify(len(words) == total_odd_count(n), "enumeration missed the closed-form count")
        width = 2 * n
        sizes = [0] * n
        batches = [array("H") for _ in range(n)]
        previous = 1 << (width * n)
        for word in words:
            budget.check()
            verify(word < previous, "walk words are not strictly descending")
            previous = word
            member = _unpack(n, word)
            # canonical RREF: the rows below 1 << n span the left overlap;
            # Q vanishes on the left half, so a row with Q = 1 puts j < n
            j = sum(r < (1 << n) for r in member)
            verify(any(quad_value(n, r) for r in member), "walk yields a singular member")
            frame = _adapted_frame(n, member)
            verify(f2_rref(frame[:n]) == member, "witness misses its target member")
            batch = batches[j]
            batch.extend(frame)
            if len(batch) == _BATCH * width:
                _verify_frames(n, j, batch)
                del batch[:]
            sizes[j] += 1
        for j, batch in enumerate(batches):
            if batch:
                _verify_frames(n, j, batch)
        verify(sizes == [orbit_size(n, j) for j in range(n)], "orbit sizes disagree with the closed form")
    rows = []
    for j in range(n):
        info = stabilizer_structure(n, standard_odd_lagrangian(n, j))
        size = orbit_size(n, j)
        verify(size * info.order == left_stabilizer_order(n), "orbit-stabilizer product is off")
        rows.append(OrbitClass(j, size, info.order, info.unipotent_order, info.levi))
    return tuple(rows)
