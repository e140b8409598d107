"""Orbit closure under generators, checked against whole-group enumeration."""

from vftk.f2codes import BinaryCode, all_markings
from vftk.stabsearch import brute_force_perms, orbit

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
