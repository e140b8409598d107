"""Orbit closure and the stabilizer search, checked against whole-group enumeration."""

import random

from oracles import apply_monomial, brute_force_monomials, brute_force_perms
from vftk.f2codes import BinaryCode, all_markings
from vftk.frames import Z4Code
from vftk.stabsearch import orbit, stabilizer

# two blocks of three coordinates: the group S3 wr S2 of order 72
BLOCKS = BinaryCode.from_rows(6, [0b000111, 0b111000])
GENS = ((1, 2, 0, 3, 4, 5), (1, 0, 2, 3, 4, 5), (3, 4, 5, 0, 1, 2))


def test_orbit_on_points_matches_group():
    group = brute_force_perms(BLOCKS.word_tuples(), 6)
    assert len(group) == 72
    for p in range(6):
        got = orbit({p}, lambda q: (g[q] for g in GENS))
        assert got == {sigma[p] for sigma in group}
    # the first two generators move only the first block
    assert orbit({0}, lambda q: (g[q] for g in GENS[:2])) == {0, 1, 2}
    assert orbit({0, 4}, lambda q: (g[q] for g in GENS[:2])) == {0, 1, 2, 4}


def test_orbit_on_markings_matches_group():
    group = brute_force_perms(BLOCKS.word_tuples(), 6)
    sizes = []
    for m in all_markings(6):
        got = orbit({m}, lambda x: (x.permuted(g) for g in GENS))
        assert got == {m.permuted(sigma) for sigma in group}
        sizes.append(len(got))
    # three cross pairs (6 markings), or one pair inside each block (9)
    assert sorted(set(sizes)) == [6, 9]


def test_orbit_without_images_is_the_seeds():
    assert orbit({3, 5}, lambda q: ()) == {3, 5}
    assert orbit(set(), lambda q: (q + 1,)) == set()


def _random_words(rng, n, modulus):
    """A few random words, closed under one random monomial map."""
    words = {tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(rng.randint(1, 4))}
    sigma = list(range(n))
    rng.shuffle(sigma)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return orbit(words, lambda w: (apply_monomial(w, sigma, signs, modulus),))


def _random_z4_code(rng, n):
    gens = []
    for _ in range(rng.randint(1, 3)):
        # an even generator leaves room for positions whose sign is free
        values = (0, 2) if rng.random() < 0.4 else range(4)
        gens.append(tuple(rng.choice(values) for _ in range(n)))
    return Z4Code.from_generators(n, gens).words


def test_stabilizer_matches_brute_force_monomials():
    rng = random.Random(11)
    free_sign = sign_dim_2 = 0
    for case in range(150):
        n = rng.randint(1, 5)
        if case % 3 == 0:
            words, modulus = _random_z4_code(rng, n), 4
        else:
            modulus = 3 if case % 3 == 1 else 4
            words = _random_words(rng, n, modulus)
        words = sorted(words)
        brute = brute_force_monomials(words, n, modulus)
        res = stabilizer(words, n, modulus)
        identity = tuple(range(n))
        assert res.order == len(brute)
        assert res.sign_order == sum(sigma == identity for sigma, _ in brute)
        assert set(res.generators) <= set(brute)
        if any(all(w[p] == -w[p] % modulus for w in words) for p in range(n)):
            free_sign += 1
        elif res.sign_order >= 4:
            sign_dim_2 += 1
    # positions with a free sign, and sign parts of dimension >= 2 that
    # only the search over sign-relevant positions can find
    assert free_sign >= 20 and sign_dim_2 >= 10


def test_signless_stabilizer_matches_brute_force_perms():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 5)
        words = sorted(_random_words(rng, n, 2))
        brute = brute_force_perms(words, n)
        res = stabilizer(words, n, 2, signed=False)
        assert res.order == len(brute) and res.sign_order == 1
        assert all(sigma in brute and signs == (1,) * n for sigma, signs in res.generators)
