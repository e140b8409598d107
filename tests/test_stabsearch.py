"""Orbit closure and the stabilizer search, checked against whole-group enumeration."""

import random
import time
import tracemalloc
from itertools import product
from math import factorial

import pytest

import vftk.stabsearch
from oracles import apply_monomial, brute_force_monomials, brute_force_perms
from vftk import budget
from vftk.budget import BudgetExceeded
from vftk.f2codes import BinaryCode, all_markings
from vftk.frames import Z4Code, e8_frame_representatives, glue_code
from vftk.lattices import e8_lattice
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


def _random_words(rng, n, modulus, edges=False):
    """A few random words, closed under one random monomial map.  With
    edges, one more word takes its entries from 0, m // 2 and m - 1."""
    words = {tuple(rng.randrange(modulus) for _ in range(n)) for _ in range(rng.randint(1, 4))}
    if edges:
        words.add(tuple(rng.choice((0, modulus // 2, modulus - 1)) for _ in range(n)))
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

    # moduli up to 256, the largest accepted, with n small enough
    # for brute force
    edge_words = 0
    for case in range(60):
        modulus = (5, 8, 256)[case % 3]
        n = rng.randint(1, 4)
        words = sorted(_random_words(rng, n, modulus, edges=True))
        brute = brute_force_monomials(words, n, modulus)
        res = stabilizer(words, n, modulus)
        identity = tuple(range(n))
        assert res.order == len(brute)
        assert res.sign_order == sum(sigma == identity for sigma, _ in brute)
        assert set(res.generators) <= set(brute)
        entries = {x for w in words for x in w}
        edge_words += {0, modulus - 1} <= entries
    assert edge_words >= 30


def test_signless_stabilizer_matches_brute_force_perms():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 5)
        words = sorted(_random_words(rng, n, 2))
        brute = brute_force_perms(words, n)
        res = stabilizer(words, n, 2)
        # -x = x over Z/2, so every sign is free
        assert res.sign_order == 2**n and res.order == len(brute) * 2**n
        assert all(sigma in brute and signs == (1,) * n for sigma, signs in res.generators)


def test_stabilizer_rejects_unreduced_and_misshapen_words():
    # (1, 5) is (1, 1) mod 4, whose stabilizer has order 2, not 1
    assert stabilizer([(1, 1)], 2, 4).order == 2
    with pytest.raises(ValueError):
        stabilizer([(1, 5)], 2, 4)
    with pytest.raises(ValueError):
        stabilizer([(1, -1)], 2, 4)
    # a word longer or shorter than n
    with pytest.raises(ValueError):
        stabilizer([(1, 1, 7)], 2, 4)
    with pytest.raises(ValueError):
        stabilizer([(0, 1), (1,)], 2, 4)
    # a modulus outside 1..256, the accepted range
    for modulus in (0, -4, 257):
        with pytest.raises(ValueError):
            stabilizer([(0, 0)], 2, modulus)
    assert stabilizer([(0, 255)], 2, 256).order == 2
    assert stabilizer([(0, 0)], 2, 1).order == 8


def test_more_words_than_one_byte_labels():
    """Row labels wider than one byte (over 256 words), and keys wider than
    two bytes (modulus times the word count over 2^16)."""
    space = list(product(range(4), repeat=5))
    res = stabilizer(space, 5, 4)
    assert (res.order, res.sign_order) == (2**5 * factorial(5), 2**5)
    rng = random.Random(1602)
    for _ in range(3):
        # closed under (a, b) -> (-b, -a), so the stabilizer is not trivial
        words = {(rng.randrange(256), rng.randrange(256)) for _ in range(600)}
        words = sorted(words | {(-b % 256, -a % 256) for a, b in words})
        assert len(words) * 256 > 1 << 16
        brute = brute_force_monomials(words, 2, 256)
        res = stabilizer(words, 2, 256)
        assert res.order == len(brute) >= 2
        assert set(res.generators) <= set(brute)


# (order, sign_order, orbit_sizes, generators) of the glue-code stabilizer of
# each E8 frame class k, and the search's node count; a generator is written
# as sigma's images and the signs, one character per position.  The chain is
# built from the deepest level up, so the generators come deepest level
# first, and a target that the generators already found put inside or
# outside a level's orbit costs no node
E8_SEARCHES = {
    1: (5160960, 128, (8, 7, 6, 5, 4, 3, 2, 1), 134, (
        ("01234576", "++++++++"), ("01234657", "++++++++"), ("01235467", "++++++++"),
        ("01243567", "++++++++"), ("01324567", "++++++++"), ("02134567", "++++++++"),
        ("10234567", "++++++++"),
    )),
    2: (73728, 64, (8, 3, 2, 1, 4, 3, 2, 1), 158, (
        ("01234576", "++++++++"), ("01234657", "++++++++"), ("01235467", "++++++++"),
        ("01324567", "++++++++"), ("02134567", "++++++++"), ("10234567", "++++++++"),
        ("45670123", "++++++++"),
    )),
    3: (6144, 16, (8, 1, 6, 1, 4, 1, 2, 1), 201, (
        ("01234576", "++++++++"), ("01235467", "++++++++"), ("01236745", "+-+-++++"),
        ("01324567", "++++++++"), ("01456723", "+++-+-++"), ("10234567", "++++++++"),
        ("23014567", "+++++-+-"),
    )),
    4: (2688, 2, (8, 7, 6, 4, 1, 1, 1, 1), 352, (
        ("01243657", "++------"), ("01256347", "+-+-----"), ("01365724", "+++-++-+"),
        ("02135467", "+++----+"), ("10243567", "+++----+"),
    )),
}


def test_e8_glue_code_searches_are_pinned(monkeypatch):
    searches = []

    class Recorded(vftk.stabsearch._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(vftk.stabsearch, "_Search", Recorded)
    e8 = e8_lattice()
    for k, frame in sorted(e8_frame_representatives().items()):
        words = glue_code(e8, frame).sorted_words()
        tracemalloc.start()
        try:
            res = stabilizer(words, 8, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        order, sign_order, orbit_sizes, nodes, gens = E8_SEARCHES[k]
        assert (res.order, res.sign_order, res.orbit_sizes) == (order, sign_order, orbit_sizes)
        assert res.generators == tuple(
            (tuple(map(int, sigma)), tuple(1 if c == "+" else -1 for c in signs)) for sigma, signs in gens
        )
        assert searches[-1].nodes == nodes
        # a full-depth prefix is never refined, so it keeps no row labels
        assert all((labels is None) == (len(idx) == 8) for idx, (labels, _) in searches[-1]._memo.items())
        if k == 4:
            # the memoized row labels and keys of the largest search
            assert peak < 600_000


def test_generators_stabilize_codes_beyond_brute_force():
    """Codes of length 8 and 10: every generator maps the word set onto
    itself, and moving the coordinates by a random monomial map and
    shuffling the words keeps |Stab| and the sign part's order."""
    e8 = e8_lattice()
    codes = [glue_code(e8, frame).sorted_words() for frame in e8_frame_representatives().values()]
    rng = random.Random(1601)
    codes += [sorted(_random_z4_code(rng, 10)) for _ in range(30)]
    moving = 0
    for words in codes:
        n = len(words[0])
        wordset = set(words)
        res = stabilizer(words, n, 4)
        for sigma, signs in res.generators:
            assert {apply_monomial(w, sigma, signs, 4) for w in wordset} == wordset
        moving += len(res.generators) > 0
        sigma = list(range(n))
        rng.shuffle(sigma)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        moved = [apply_monomial(w, sigma, signs, 4) for w in words]
        rng.shuffle(moved)
        again = stabilizer(moved, n, 4)
        assert (again.order, again.sign_order) == (res.order, res.sign_order)
    assert moving >= 30


def _first_moved(sigma):
    return next((p for p, q in enumerate(sigma) if p != q), len(sigma))


def _assert_strong_generating_set(res, n):
    """The generators that fix 0..L-1 alone move L round its whole orbit,
    so they form a strong generating set for the base 0..n-1; they come
    deepest level first."""
    levels = [_first_moved(sigma) for sigma, _ in res.generators]
    assert levels == sorted(levels, reverse=True) and n not in levels
    for level in range(n):
        deeper = [sigma for sigma, _ in res.generators if _first_moved(sigma) >= level]
        assert len(orbit({level}, lambda q: (s[q] for s in deeper))) == res.orbit_sizes[level]


def test_generators_are_a_strong_generating_set():
    e8 = e8_lattice()
    codes = [(glue_code(e8, frame).sorted_words(), 8, 4) for frame in e8_frame_representatives().values()]
    # the 150 cases of test_stabilizer_matches_brute_force_monomials
    rng = random.Random(11)
    for case in range(150):
        n = rng.randint(1, 5)
        if case % 3 == 0:
            codes.append((sorted(_random_z4_code(rng, n)), n, 4))
        else:
            modulus = 3 if case % 3 == 1 else 4
            codes.append((sorted(_random_words(rng, n, modulus)), n, modulus))
    # the length-10 codes of test_generators_stabilize_codes_beyond_brute_force
    rng = random.Random(1601)
    codes += [(sorted(_random_z4_code(rng, 10)), 10, 4) for _ in range(30)]
    for words, n, modulus in codes:
        _assert_strong_generating_set(stabilizer(words, n, modulus), n)


def test_budget_binds_on_a_large_code():
    """The 65,536-word glue code of the (k=4)+(k=4) frame of E8+E8: one
    memo entry sorts a label per word, so the search polls per entry."""
    words = glue_code(e8_lattice(), e8_frame_representatives()[4]).sorted_words()
    words = [a + b for a in words for b in words]
    start = time.monotonic()
    with pytest.raises(BudgetExceeded), budget.limit(0.5):
        stabilizer(words, 16, 4)
    assert time.monotonic() - start < 1.5
