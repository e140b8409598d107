"""Acceptance suite: one test per exit criterion, each with its stated
runtime limit asserted against the wall clock.

The rank-8 frame invariants run once in a module-scoped fixture; its
elapsed time is recorded and asserted inside the criteria that own it.
The full frame census and the n=5 exhaustive odd-Lagrangian census come
from session fixtures in conftest.py, shared with test_frames and
test_f2quad, and carry their elapsed times the same way.
"""

import random
import time
from itertools import product as iproduct
from math import factorial

import pytest

from oracles import fixes_left_half, is_isometry
from vftk.abelian import type_string
from vftk.bits import f2_rref, f2_vec_mat, gl2_order
from vftk.f2codes import classify_markings, hamming_code, rm1_subcode
from vftk.f2quad import (
    enumerate_odd_lagrangians,
    left_overlap,
    left_stabilizer_order,
    nonsingular_vectors,
    orbit_census,
    orbit_partition,
    orbit_size,
    same_orbit_witness,
    standard_odd_lagrangian,
)
from vftk.frames import (
    W_E8_ORDER,
    agl2_order,
    e8_frame_representatives,
    frame_group_order,
    frame_invariants,
    frame_stabilizer,
    frame_torus_divisors,
    order_sym_wr_agl,
)
from vftk.hatgroup import (
    HatElement,
    all_lifts,
    frame_index_characters,
    involution_class,
    miyamoto_involutions,
    standard_cocycle,
    weight_one_dim,
)
from vftk.lattices import IntegralLattice, e8_lattice, short_vectors
from vftk.unimodular import (
    definite_automorphisms,
    first_block_primitive,
    hyperbolic_unimodularize,
    prime_power_twist,
    strong_extension_check,
    sum_four_squares_mod,
    sum_two_squares_mod,
    unimodularize,
)

A1 = IntegralLattice.from_gram([[2]])
A2 = IntegralLattice.from_gram([[2, -1], [-1, 2]])

# (glue shape, sign-part order |D_X|, monomial-image order |W_X|) per class
FRAME_TABLE = {
    1: ("2^6 x 4", 2**7, 2**7 * factorial(8)),
    2: ("2^4 x 4^2", 2**6, 2**6 * 1152),
    3: ("2^2 x 4^3", 2**4, 2**4 * 384),
    4: ("4^4", 2, 2688),
}
POINTWISE_ORDERS = {1: 2**15, 2: 2**14, 3: 2**12, 4: 2**9}
CENSUS_SIZES = {1: 135, 2: 9450, 3: 113400, 4: 259200}


@pytest.fixture(scope="module")
def e8_invariants():
    e8 = e8_lattice()
    reps = e8_frame_representatives()
    t0 = time.monotonic()
    invs = {k: frame_invariants(e8, reps[k]) for k in sorted(reps)}
    return invs, time.monotonic() - t0


def test_criterion_01_frame_sublattice_table(e8_invariants):
    invs, elapsed = e8_invariants
    assert set(invs) == {1, 2, 3, 4}
    for k, inv in invs.items():
        delta, dx, wx = FRAME_TABLE[k]
        assert type_string((2,) * inv.two_rank + (4,) * inv.four_rank) == delta
        assert inv.four_rank == k
        assert inv.sign_order == dx
        assert inv.monomial_order == wx
    assert elapsed < 60.0


def test_criterion_02_structural_information(e8_invariants):
    invs, _ = e8_invariants
    e8 = e8_lattice()
    reps = e8_frame_representatives()
    for k, inv in invs.items():
        assert inv.pointwise_order == POINTWISE_ORDERS[k]
        # quotient order = |2 wr (monomial image / sign part)|
        assert inv.perm_image_order == 2**8 * inv.monomial_order // inv.sign_order
        # cross-check against the independently computed Smith form of the
        # eighth-dual torus quotient
        divisors = frame_torus_divisors(e8, reps[k], 8)
        assert divisors == inv.torus_stab_divisors
        l, kk = inv.two_rank, inv.four_rank
        assert type_string(divisors) == type_string(
            (2,) * (8 - l - kk) + (4,) * l + (8,) * kk
        )


def test_criterion_03_frame_census(e8_census):
    census, elapsed = e8_census
    assert len(census.classes) == 4
    for cls in census.classes:
        assert cls.count == CENSUS_SIZES[cls.four_rank]
        stab = frame_stabilizer(e8_lattice(), cls.representative)
        assert cls.count * stab.order == W_E8_ORDER
    assert census.total == 382185 == sum(CENSUS_SIZES.values())
    assert elapsed < 600.0


def test_criterion_04_stabilizer_orders():
    gc = {**POINTWISE_ORDERS, 5: 2**5}
    for k in range(1, 6):
        assert frame_group_order(k) == gc[k] * order_sym_wr_agl(k)
    # both closed presentations of the k=5 order
    assert frame_group_order(5) == 2**9 * 20160
    assert frame_group_order(5) == 2**5 * agl2_order(4)
    assert frame_group_order(5) == 4**4 * (2 * gl2_order(4))


def test_criterion_05_2b_purity():
    for k in range(1, 6):
        total = 0
        code = rm1_subcode(k)
        for coeffs in iproduct((0, 1), repeat=k):
            word = 0
            for c, g in zip(coeffs, code.rows):
                if c:
                    word ^= g
            total += weight_one_dim(k, bin(word).count("1"))
        assert total == 248
        for bits in range(1, 1 << k):
            chi = tuple((bits >> i) & 1 for i in range(k))
            report = involution_class(k, chi)
            assert report.minus_dim == 128
            assert report.plus_dim == 120
            assert report.label == "2B"


def test_criterion_06_miyamoto_count():
    for k in range(1, 6):
        chars = miyamoto_involutions(k)
        assert len(chars) == 2 ** (k - 1)
        assert set(frame_index_characters(k)) == chars
        # exact set algebra: pairwise differences form a subgroup and the
        # set is one coset of it
        diffs = {tuple(a ^ b for a, b in zip(c1, c2)) for c1 in chars for c2 in chars}
        assert len(diffs) == 2 ** (k - 1)
        base = next(iter(chars))
        assert {tuple(a ^ d for a, d in zip(base, d2)) for d2 in diffs} == chars


def test_criterion_07_markings():
    t0 = time.monotonic()
    orbits, aut_order = classify_markings(hamming_code())
    elapsed = time.monotonic() - t0
    assert sum(size for _, size in orbits) == 105
    assert len(orbits) == 3
    assert aut_order == 1344
    assert elapsed < 10.0


def test_criterion_08_unimodularization():
    t0 = time.monotonic()
    for base in (A1, A2):
        over = unimodularize(base)
        result = over.result
        assert result.is_even and result.is_definite
        assert abs(result.determinant()) == 1
        assert result.rank == 8
        assert len(short_vectors(result, 2)) == 240  # recognizes the rank-8 root lattice
        for verdict in strong_extension_check(base, over, definite_automorphisms(base).generators):
            assert verdict.extends
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    twist = prime_power_twist(A1, 3)
    assert twist.result.determinant() == 3
    for base in (A1, A2):
        over = hyperbolic_unimodularize(base)
        assert over.result.is_even
        assert abs(over.result.determinant()) == 1
        assert first_block_primitive(over, base.rank)


def test_criterion_09_sum_of_squares():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for r in range(1, 7):
            a, b = sum_two_squares_mod(p, r)
            assert (a * a + b * b + 1) % p**r == 0
            if p**r <= 200000:
                # brute-force residue search reproduces a valid pair
                squares = {x * x % p**r for x in range(p**r)}
                assert any((-1 - s) % p**r in squares for s in squares)
                assert (a * a) % p**r in squares and (b * b) % p**r in squares
    for r in range(1, 9):
        quad = sum_four_squares_mod(r)
        assert sum(x * x for x in quad) == 2**r - 1
        assert (sum(x * x for x in quad) + 1) % 2**r == 0
        # independent meet-in-the-middle residue search
        mod = 2**r
        two_sums = {(x * x + y * y) % mod for x in range(mod) for y in range(x + 1)}
        assert any((-1 - s) % mod in two_sums for s in two_sums)


def test_criterion_10_f2quad_orbits(n5_exhaustive_census):
    # n <= 3: exhaustive orbits coincide with the overlap-indicator classes,
    # and every member is carried to its class representative by an explicit
    # witness verified through the matrix action
    for n in (1, 2, 3):
        members = enumerate_odd_lagrangians(n)
        orbits = orbit_partition(n, members)
        by_overlap = {}
        for orbit in orbits:
            js = {left_overlap(n, m) for m in orbit}
            assert len(js) == 1
            by_overlap[js.pop()] = orbit
        assert set(by_overlap) == set(range(n))
        for j in range(n):
            expected = frozenset(m for m in members if left_overlap(n, m) == j)
            assert by_overlap[j] == expected
            rep = standard_odd_lagrangian(n, j)
            for member in expected:
                witness = same_orbit_witness(n, member, rep)
                g = witness.matrix
                assert g is not None and is_isometry(n, g) and fixes_left_half(n, g)
                assert tuple(f2_rref([f2_vec_mat(r, g) for r in member])) == rep
        # members with different overlaps are refuted, not connected
        if n > 1:
            refute = same_orbit_witness(
                n, standard_odd_lagrangian(n, 0), standard_odd_lagrangian(n, n - 1)
            )
            assert refute.matrix is None and refute.overlaps == (0, n - 1)
    # n = 5 default census: exact values, under a minute
    t0 = time.monotonic()
    rows = orbit_census(5)
    elapsed = time.monotonic() - t0
    assert len(rows) == 5
    assert [r.size for r in rows] == [orbit_size(5, j) for j in range(5)]
    assert sum(r.size for r in rows) == 71145
    assert rows[0].unipotent_order == 2**4
    assert rows[4].unipotent_order == 2**14
    assert all(r.size * r.stabilizer_order == left_stabilizer_order(5) for r in rows)
    assert len(nonsingular_vectors(5)) == 496
    assert elapsed < 60.0
    # exhaustive mode is opt-in and agrees with the default route
    assert n5_exhaustive_census == rows


def test_criterion_11_hat_relations(e8_invariants):
    rng = random.Random(19)
    lattices = [e8_lattice()]
    while len(lattices) < 4:
        n = rng.randrange(1, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randrange(1, 4)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randrange(-2, 3)
        lattices.append(IntegralLattice.from_gram(g))
    for lat in lattices:
        c = standard_cocycle(lat)
        n = lat.rank
        basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        # exhaustive basis-pair relation checks
        for x in basis:
            assert c.epsilon(x, x) == (-1) ** (lat.norm(x) // 2 % 2)
            for y in basis:
                assert c.epsilon(x, y) * c.epsilon(y, x) == (-1) ** (int(lat.inner(x, y)) % 2)
                sx = tuple(a + b for a, b in zip(x, y))
                for z in basis:
                    assert c.epsilon(sx, z) == c.epsilon(x, z) * c.epsilon(y, z)
        # 2^n lifts of the identity form the kernel: sign characters that
        # fix every vector and are homomorphisms
        ident = tuple(basis)
        lifts = all_lifts(c, ident)
        assert len(lifts) == 2**n and len(set(lifts)) == 2**n
        for lift in lifts:
            assert lift.is_kernel_element()
            for x in basis:
                assert lift.apply(HatElement(1, x)).vec == x
            for x in basis:
                for y in basis:
                    a, b = HatElement(1, x), HatElement(1, y)
                    assert lift.apply(c.product(a, b)) == c.product(lift.apply(a), lift.apply(b))
    # torus stabilizer type on all four rank-8 frames
    invs, _ = e8_invariants
    for inv in invs.values():
        l, k = inv.two_rank, inv.four_rank
        assert inv.torus_stab_type == type_string((2,) * (8 - l - k) + (4,) * l + (8,) * k)
