"""Sign extension: cocycle relations, lifts, frame symbols, involution sums."""

import random
from itertools import product as iproduct

import pytest

from oracles import epsilon_by_loops, frame_symbol_action, monomial_to_isometry, mu_exponent_by_loops
from vftk.frames import e8_frame_representatives, frame_stabilizer
from vftk.hatgroup import (
    EpsilonCocycle,
    HatElement,
    LiftedAutomorphism,
    all_lifts,
    frame_index_characters,
    involution_class,
    lift_automorphism,
    miyamoto_involutions,
    standard_cocycle,
    weight_one_dim,
)
from vftk.lattices import IntegralLattice, e8_lattice

A2 = IntegralLattice.from_gram([[2, -1], [-1, 2]])
A2_ROT = ((0, 1), (-1, -1))  # order-3 isometry of A2


def random_even_lattice(rng, n):
    """Random even (not necessarily definite) lattice of rank n."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * rng.randrange(1, 4)
        for j in range(i):
            g[i][j] = g[j][i] = rng.randrange(-2, 3)
    return IntegralLattice.from_gram(g)


def random_vec(rng, n):
    return tuple(rng.randrange(-3, 4) for _ in range(n))


def test_epsilon_and_mu_exponent_match_the_definition_loops():
    rng = random.Random(34)
    for _ in range(300):
        n = rng.randint(1, 8)
        if rng.random() < 0.5:
            exponents = standard_cocycle(random_even_lattice(rng, n)).exponents
        else:
            exponents = tuple(tuple(rng.randrange(2) for _ in range(n)) for _ in range(n))
        cmatrix = tuple(tuple(rng.randrange(2) for _ in range(n)) for _ in range(n))
        mu_bits = tuple(rng.randrange(2) for _ in range(n))
        cocycle = EpsilonCocycle(None, exponents)
        lift = LiftedAutomorphism(cocycle, None, mu_bits, cmatrix)
        for _ in range(10):
            # entries in [-3, 3], about a third of them zero
            x = tuple(rng.choice((0, 0, 0, -3, -2, -1, 1, 2, 3)) for _ in range(n))
            y = tuple(rng.choice((0, 0, 0, -3, -2, -1, 1, 2, 3)) for _ in range(n))
            assert cocycle.epsilon(x, y) == epsilon_by_loops(exponents, x, y)
            assert lift.mu_exponent(x) == mu_exponent_by_loops(cmatrix, mu_bits, x)


def test_cocycle_needs_even_lattice():
    with pytest.raises(ValueError):
        standard_cocycle(IntegralLattice.from_gram([[1]]))


def test_cocycle_square_and_commutator_relations():
    rng = random.Random(2)
    lattices = [e8_lattice()] + [random_even_lattice(rng, rng.randrange(1, 5)) for _ in range(5)]
    for lat in lattices:
        c = standard_cocycle(lat)
        n = lat.rank
        for _ in range(25):
            x, y = random_vec(rng, n), random_vec(rng, n)
            # eps(x,x) realizes the square sign
            assert c.epsilon(x, x) == (-1) ** (lat.norm(x) // 2 % 2)
            # antisymmetry defect realizes the commutator sign
            assert c.epsilon(x, y) * c.epsilon(y, x) == (-1) ** (int(lat.inner(x, y)) % 2)
            # bilinearity
            z = random_vec(rng, n)
            xy = tuple(a + b for a, b in zip(x, y))
            assert c.epsilon(xy, z) == c.epsilon(x, z) * c.epsilon(y, z)
            assert c.epsilon(z, xy) == c.epsilon(z, x) * c.epsilon(z, y)


def test_hat_group_law():
    c = standard_cocycle(A2)
    rng = random.Random(7)
    e = HatElement(1, (0, 0))

    def inverse(a):
        # the one element over -vec(a) whose product with a is e
        over = [HatElement(s, tuple(-v for v in a.vec)) for s in (1, -1)]
        (inv,) = [h for h in over if c.product(a, h) == e]
        assert c.product(inv, a) == e
        return inv

    for _ in range(40):
        a = HatElement(rng.choice((1, -1)), random_vec(rng, 2))
        b = HatElement(rng.choice((1, -1)), random_vec(rng, 2))
        d = HatElement(rng.choice((1, -1)), random_vec(rng, 2))
        assert c.product(c.product(a, b), d) == c.product(a, c.product(b, d))
        assert c.product(a, e) == a and c.product(e, a) == a
        sq = c.product(a, a)
        assert sq.vec == tuple(2 * v for v in a.vec)
        assert sq.sign == (-1) ** (A2.norm(a.vec) // 2 % 2)
        com = c.product(c.product(a, b), c.product(inverse(a), inverse(b)))
        assert com.vec == (0, 0)
        assert com.sign == (-1) ** (int(A2.inner(a.vec, b.vec)) % 2)


def test_hat_square_of_norm_four_vector_is_positive():
    e8 = e8_lattice()
    c = standard_cocycle(e8)
    frame = e8_frame_representatives()[1]
    for x in frame.vectors:
        h = HatElement(1, x)
        assert c.product(h, h).sign == 1


def test_lift_is_homomorphism_all_sign_choices():
    c = standard_cocycle(A2)
    rng = random.Random(13)
    lifts = list(all_lifts(c, A2_ROT))
    assert len(lifts) == 4
    for lift in lifts:
        for _ in range(20):
            a = HatElement(rng.choice((1, -1)), random_vec(rng, 2))
            b = HatElement(rng.choice((1, -1)), random_vec(rng, 2))
            assert lift.apply(c.product(a, b)) == c.product(lift.apply(a), lift.apply(b))
    # distinct sign choices give distinct maps
    seen = set()
    for lift in lifts:
        key = tuple(lift.apply(HatElement(1, v)) for v in ((1, 0), (0, 1), (1, 1)))
        assert key not in seen
        seen.add(key)
    # the same lifts, in the same order, as one lift_automorphism per bit vector
    bits = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert lifts == [lift_automorphism(c, A2_ROT, b) for b in bits]
    with pytest.raises(ValueError):
        all_lifts(c, ((1, 1), (0, 1)))


def test_lift_rejects_non_isometry():
    c = standard_cocycle(A2)
    with pytest.raises(ValueError):
        lift_automorphism(c, ((1, 1), (0, 1)))


def test_lift_compose_and_kernel():
    c = standard_cocycle(A2)
    rng = random.Random(3)
    lift = lift_automorphism(c, A2_ROT, (1, 0))
    inv = lift.inverse()
    both = lift.compose(inv)
    assert both.is_kernel_element()
    # kernel elements have linear mu: mu(x+y) = mu(x) mu(y)
    for _ in range(20):
        x, y = random_vec(rng, 2), random_vec(rng, 2)
        xy = tuple(a + b for a, b in zip(x, y))
        assert both.mu(xy) == both.mu(x) * both.mu(y)
    # and compose acts as the identity on sampled elements
    for _ in range(10):
        a = HatElement(rng.choice((1, -1)), random_vec(rng, 2))
        assert both.apply(a).vec == a.vec
    # order-3 rotation: lift^3 is also a kernel element
    cubed = lift.compose(lift).compose(lift)
    assert cubed.is_kernel_element()


def test_frame_symbol_action_of_sign_monomial():
    """The lift of each frame-stabilizer generator moves the frame symbol
    pairs by the generator's own permutation."""
    e8 = e8_lattice()
    reps = e8_frame_representatives()
    cocycle = standard_cocycle(e8)
    ident = tuple(range(8))
    for k, sign_order, order in ((1, 2**7, 5160960), (4, 2, 2688)):
        frame = reps[k]
        stab = frame_stabilizer(e8, frame)
        assert (stab.sign_order, stab.order) == (sign_order, order)
        for sigma, signs in [(ident, (1,) * 8)] + list(stab.generators):
            w = monomial_to_isometry(e8, frame, sigma, signs)
            got_sigma, _flips = frame_symbol_action(frame, lift_automorphism(cocycle, w))
            assert got_sigma == sigma


def test_lifted_frame_stabilizer_k1():
    """For the k = 1 frame, the sign-only monomials found by scanning all
    2^8 sign vectors form the stabilizer's sign subgroup (order 2^7); each
    lift of one fixes every symbol pair, so the lifted group of pair-fixing
    elements has order 2^8 * 2^7."""
    e8 = e8_lattice()
    frame = e8_frame_representatives()[1]
    cocycle = standard_cocycle(e8)
    ident = tuple(range(8))
    sign_only = []
    for signs in iproduct((1, -1), repeat=8):
        try:
            sign_only.append(monomial_to_isometry(e8, frame, ident, signs))
        except ValueError:
            continue
    assert len(sign_only) == 2**7 == frame_stabilizer(e8, frame).sign_order
    lifted = 0
    for w in sign_only:
        lifts = list(all_lifts(cocycle, w))
        assert len({lift.mu_bits for lift in lifts}) == 2**8
        got_sigma, _flips = frame_symbol_action(frame, lifts[0])
        assert got_sigma == ident
        lifted += len(lifts)
    assert lifted == 2**8 * 2**7


def test_frame_symbol_action_nonmonomial_raises():
    e8 = e8_lattice()
    frame = e8_frame_representatives()[1]
    c = standard_cocycle(e8)
    # the identity is monomial on the frame: every symbol stays put
    ident = tuple(tuple(int(i == j) for j in range(8)) for i in range(8))
    lift = lift_automorphism(c, ident)
    sigma, flips = frame_symbol_action(frame, lift)
    assert sigma == tuple(range(8))
    assert not any(flips)
    # the reflection x -> x - (x, r) r in this root is not: it moves some
    # frame vector off +-frame (128 of the 240 root reflections do)
    root = (0, -1, -1, 1, -1, 1, 1, 2)
    assert e8.norm(root) == 2
    twice = e8.gram_row(root)  # entry i is 2 (e_i, r)
    reflection = tuple(tuple(int(i == j) - twice[i] // 2 * root[j] for j in range(8)) for i in range(8))
    assert e8.is_isometry(reflection)
    with pytest.raises(ValueError, match="not monomial"):
        frame_symbol_action(frame, lift_automorphism(c, reflection))


def test_miyamoto_counts_and_coset():
    for k in range(1, 6):
        chars = miyamoto_involutions(k)
        assert len(chars) == 2 ** (k - 1)
        # every index character negates the all-ones word
        from vftk.f2codes import rm1_subcode

        code = rm1_subcode(k)
        ones = (1 << 16) - 1
        combo = None
        for coeffs in iproduct((0, 1), repeat=k):
            w = 0
            for cbit, g in zip(coeffs, code.rows):
                if cbit:
                    w ^= g
            if w == ones:
                combo = coeffs
                break
        assert combo is not None
        for chi in chars:
            assert sum(c * b for c, b in zip(combo, chi)) % 2 == 1
        # affine coset: pairwise differences form a subgroup of size 2^(k-1)
        diffs = {tuple(a ^ b for a, b in zip(c1, c2)) for c1 in chars for c2 in chars}
        assert len(diffs) == 2 ** (k - 1)
        base = next(iter(chars))
        assert {tuple(a ^ b for a, b in zip(base, d)) for d in diffs} == chars
        # all 16 indices give characters in the set
        assert set(frame_index_characters(k)) == chars


def test_weight_one_dims():
    assert weight_one_dim(1, 0) == 120
    assert weight_one_dim(1, 16) == 128
    assert weight_one_dim(5, 0) == 0
    assert weight_one_dim(5, 8) == 8
    with pytest.raises(ValueError):
        weight_one_dim(2, 4)
    for k in range(1, 6):
        total = weight_one_dim(k, 0) + (2**k - 2) * weight_one_dim(k, 8) + weight_one_dim(k, 16)
        assert total == 248


def test_involution_class_all_nontrivial():
    for k in range(1, 6):
        for bits in iproduct((0, 1), repeat=k):
            if not any(bits):
                with pytest.raises(ValueError):
                    involution_class(k, bits)
                continue
            rep = involution_class(k, bits)
            assert rep.minus_dim == 128
            assert rep.plus_dim == 120
            assert rep.label == "2B"
