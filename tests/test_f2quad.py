"""Tests for the GF(2) quadratic-space orbit classifier."""

import os
import random
import subprocess
import sys
import textwrap
import time
from itertools import product

import pytest

import vftk.f2quad as f2quad
from vftk import budget, parts
from oracles import (
    f2_subspaces,
    fixes_left_half,
    is_isometry,
    left_stabilizer_generators,
    listed_stabilizer_orders,
    nonsingular_vectors,
    odd_lagrangian_through,
    orbit_partition_bfs,
    random_isometry,
    sample_odd_lagrangians,
    transform_member,
)
from vftk import cli
from vftk.budget import BudgetExceeded
from vftk.bits import (
    f2_identity,
    f2_mat_mul,
    f2_rank,
    f2_reduce,
    f2_rref,
    f2_vec_mat,
)
from vftk.f2quad import (
    enumerate_odd_lagrangians,
    gaussian_binomial,
    is_odd_lagrangian,
    left_overlap,
    left_stabilizer_order,
    nonsingular_count,
    orbit_census,
    orbit_partition,
    orbit_size,
    pairing,
    quad_value,
    same_orbit_witness,
    stabilizer_structure,
    standard_odd_lagrangian,
    total_odd_count,
)
from vftk.verify import VerificationError

_WALK = f2quad._odd_lagrangian_words


def test_quad_and_pairing_basics():
    n = 3
    for i in range(n):
        assert quad_value(n, 1 << i) == 0  # left basis is singular
        assert quad_value(n, 1 << (n + i)) == 0  # right basis is singular
        assert quad_value(n, (1 << i) | (1 << (n + i))) == 1
    for i in range(n):
        for l in range(n):
            assert pairing(n, 1 << i, 1 << (n + l)) == (i == l)
            assert pairing(n, 1 << i, 1 << l) == 0
            assert pairing(n, 1 << (n + i), 1 << (n + l)) == 0
    # the pairing is the polarization of Q
    for u in range(1 << (2 * n)):
        for v in (5, 17, 44, 63):
            assert pairing(n, u, v) == (
                quad_value(n, u ^ v) ^ quad_value(n, u) ^ quad_value(n, v)
            )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_nonsingular_counts(n):
    assert len(nonsingular_vectors(n)) == 2 ** (2 * n - 1) - 2 ** (n - 1)


def test_nonsingular_count_recursion():
    # the plane-by-plane count that every f2quad report checks against the
    # closed form: equal to enumeration where that is cheap, and to the
    # closed form far beyond it
    for n in range(7):
        assert nonsingular_count(n) == len(nonsingular_vectors(n))
    for n in range(1, 41):
        assert nonsingular_count(n) == 2 ** (2 * n - 1) - 2 ** (n - 1)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 9), (3, 105), (4, 2025)])
def test_enumeration_counts(n, count):
    members = enumerate_odd_lagrangians(n)
    assert len(members) == count == total_odd_count(n)
    for m in members:
        assert is_odd_lagrangian(n, m)
        assert tuple(f2_rref(m)) == m  # canonical form
    assert len(set(members)) == count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_against_subspace_filter(n):
    # an independent route: filter every n-subspace of F2^(2n)
    expected = sorted(m for m in f2_subspaces(2 * n, n) if is_odd_lagrangian(n, m))
    assert enumerate_odd_lagrangians(n) == tuple(expected)


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_odd_lagrangians(6)
    with pytest.raises(ValueError):
        enumerate_odd_lagrangians(0)


def _pack(n, rows):
    width = 2 * n
    return sum(r << (width * (n - 1 - i)) for i, r in enumerate(rows))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_words_pack_the_enumeration(n):
    # one 2n-bit field per row, first row highest: at most n * 2n <= 50 bits
    width = 2 * n
    words = f2quad._odd_lagrangian_words(n)
    assert words.typecode == "Q"
    assert all(word < 1 << (width * n) for word in words)
    for word in words:
        rows = f2quad._unpack(n, word)
        assert _pack(n, rows) == word
    assert tuple(f2quad._unpack(n, word) for word in sorted(words)) == (
        enumerate_odd_lagrangians(n)
    )
    # the census checks this order, which with the count refuses a repeat
    assert list(words) == sorted(words, reverse=True)
    assert len(set(words)) == len(words) == total_odd_count(n)


def _census_with_walk(monkeypatch, n, mutate):
    """orbit_census(n, exhaustive=True) with mutate applied to the walk's
    words, in each part of the census."""

    def broken_walk(n, part=0, parts=1):
        words = _WALK(n, part, parts)
        mutate(words)
        return words

    monkeypatch.setattr(f2quad, "_odd_lagrangian_words", broken_walk)
    return orbit_census(n, exhaustive=True)


def _flip_low_bit_of_least(words):
    # the least member's last row e1 becomes e0 + e1, which pairs to 1
    # with its first row e0 + f0: the rows stay RREF but are not isotropic
    words[words.index(min(words))] ^= 1


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda words: words.pop(), "missed the closed-form count"),
        (lambda words: words.append(words[7]), "missed the closed-form count"),
        (_flip_low_bit_of_least, "witness"),
    ],
    ids=["dropped", "repeated", "bit-flipped"],
)
def test_census_refuses_a_broken_walk(monkeypatch, mutate, message):
    with pytest.raises(VerificationError, match=message):
        _census_with_walk(monkeypatch, 4, mutate)


@pytest.mark.parametrize(
    "rows",
    [(8, 4, 2, 1), (128, 64, 32, 16)],
    ids=["all-left", "no-odd-row"],
)
def test_census_refuses_a_singular_walk_member(monkeypatch, rows):
    # a walk fault is a failed check (exit 1), not bad input (exit 3):
    # e0..e3 has j = n, and f0..f3 has no row with Q = 1; each takes the
    # place of the member at its sorted position, so the order holds
    singular = _pack(4, rows)

    def replace_in_order(words):
        words[min(sum(w > singular for w in words), len(words) - 1)] = singular

    with pytest.raises(VerificationError, match="singular member"):
        _census_with_walk(monkeypatch, 4, replace_in_order)
    report, code = cli.run(["f2quad", "--n", "4", "--exhaustive"])
    assert code == 1 and "singular member" in report["error"]


def _walk_positions(n, j):
    """Walk positions of the members of overlap j, in the census's order."""
    words = f2quad._odd_lagrangian_words(n)
    return [t for t, w in enumerate(words) if left_overlap(n, f2quad._unpack(n, w)) == j]


def _batch_words(n, rows, ones):
    """The walk words of a batch, read back off its member row slices."""
    width = 2 * n
    return [
        sum((x >> t & 1) << (width * (n - 1 - i) + b) for i, row in enumerate(rows) for b, x in enumerate(row))
        for t in range(ones.bit_length())
    ]


@pytest.mark.parametrize(
    "j,slot,row,bit,message",
    [
        # the slot-th member of overlap j in walk order; n = 4 has 960,
        # 840, 210 and 15 members of overlap 0..3 in 41 shapes, and overlap
        # 0 is one shape.  With 7 frames a batch: first and last slot of a
        # full batch, first of the next, a middle slot, a final batch of one
        # frame, a shape of one member, the last slot of a final batch of 6
        (0, 0, 7, 0, "not an isometry"),
        (0, 6, 7, 0, "not an isometry"),
        (0, 7, 7, 0, "not an isometry"),
        (1, 700, 7, 0, "not an isometry"),
        (0, 959, 7, 0, "not an isometry"),
        (3, 14, 7, 0, "not an isometry"),
        (2, 209, 7, 0, "not an isometry"),
        # a bit beyond the 2n coordinates: one slice more than the 2n
        (0, 6, 7, 8, "not an isometry"),
        # the first s row (row n) gets a right-half bit
        (1, 3, 4, 4, "moves the left half"),
        (3, 14, 4, 5, "moves the left half"),
    ],
)
def test_census_checks_every_batch_slot(monkeypatch, j, slot, row, bit, message):
    n = 4
    target = f2quad._odd_lagrangian_words(n)[_walk_positions(n, j)[slot]]
    adapted = f2quad._adapted_slices
    batches = []

    def flipped(n, pivots, rows, ones):
        frames = adapted(n, pivots, rows, ones)
        words = _batch_words(n, rows, ones)
        if target in words:
            x = frames[row]
            x += [0] * (bit + 1 - len(x))
            x[bit] ^= 1 << words.index(target)
        batches.append(words)
        return frames

    monkeypatch.setattr(f2quad, "_BATCH", 7)
    assert orbit_census(n, exhaustive=True) == orbit_census(n)
    monkeypatch.setattr(f2quad, "_adapted_slices", flipped)
    with pytest.raises(VerificationError, match=message):
        orbit_census(n, exhaustive=True)
    # refused by the check of the shape batch that holds the flipped frame
    assert [target in words for words in batches] == [False] * (len(batches) - 1) + [True]
    assert all(len(words) <= 7 for words in batches)


def test_census_refuses_a_member_in_a_non_canonical_basis(monkeypatch):
    # the member at walk position 100 comes again with its first row plus
    # its second, in place of the member at the new word's sorted
    # position: the order, the part, the count of the overlap, the shape
    # and the span all hold, and the canonical RREF check of the slices
    # refuses it before any frame is built
    n = 4
    words = list(_WALK(n))
    rows = f2quad._unpack(n, words[100])
    again = _pack(n, (rows[0] ^ rows[1],) + rows[1:])
    assert f2_rref(f2quad._unpack(n, again)) == rows
    assert [r.bit_length() for r in f2quad._unpack(n, again)] == [r.bit_length() for r in rows]
    position = sum(w > again for w in words)
    assert words[position] != words[100]
    assert left_overlap(n, f2quad._unpack(n, words[position])) == left_overlap(n, rows)

    def repeat(words):
        words[position] = again

    with pytest.raises(VerificationError, match="not in canonical RREF"):
        _census_with_walk(monkeypatch, n, repeat)


def test_census_refuses_frames_of_other_members(monkeypatch):
    # each frame of a batch moves to the next slot, so every frame of a
    # batch of two or more is the adapted frame of another member of the
    # same shape: it passes the frame check, and only the span check
    # refuses it
    adapted = f2quad._adapted_slices

    def rotated(n, pivots, rows, ones):
        size = ones.bit_length()
        frames = adapted(n, pivots, rows, ones)
        return [[(x << 1 | x >> (size - 1)) & ones for x in row] for row in frames]

    monkeypatch.setattr(f2quad, "_adapted_slices", rotated)
    with pytest.raises(VerificationError, match="misses its target member"):
        orbit_census(4, exhaustive=True)


# the words at positions 0, 1, 500 and 2024 of an earlier n = 4 walk whose
# words were not in order; one-bit flips turn 10 of their 128 (word, bit)
# choices into another member
_REPEAT_SOURCES = (0x80402011, 0x80402210, 0x8C4D2214, 0x11080402)


def test_census_refuses_a_repeated_member(monkeypatch):
    # a flipped word that is another member keeps the count and passes
    # every witness check; only the order of the words can refuse it
    n = 4
    members = set(f2quad._odd_lagrangian_words(n))
    mutants = [
        (source, source ^ (1 << bit))
        for source in _REPEAT_SOURCES
        for bit in range(32)
        if source ^ (1 << bit) in members
    ]
    assert len(mutants) == 10
    for source, mutant in mutants:

        def repeat(words, source=source, mutant=mutant):
            words[words.index(source)] = mutant

        with pytest.raises(VerificationError, match="not strictly descending"):
            _census_with_walk(monkeypatch, n, repeat)


@pytest.mark.parametrize("n", [3, 5])
def test_census_refuses_words_out_of_order(monkeypatch, n):
    def swap(words):
        words[2], words[3] = words[3], words[2]

    with pytest.raises(VerificationError, match="not strictly descending"):
        _census_with_walk(monkeypatch, n, swap)


def _split(monkeypatch, count, forked=True):
    """Make orbit_census split every certified census into count parts."""
    monkeypatch.setattr(f2quad, "_PART_MEMBERS", 1)
    monkeypatch.setattr(f2quad, "max_parts", lambda: count)
    if not forked:
        monkeypatch.setattr(parts, "_may_fork", lambda: False)


def _walk_with(monkeypatch, mutate, in_part):
    """Apply mutate to the words of one part of the walk only."""

    def walk(n, part=0, parts=1):
        words = _WALK(n, part, parts)
        if part == in_part:
            mutate(words)
        return words

    monkeypatch.setattr(f2quad, "_odd_lagrangian_words", walk)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the census forks only where os.fork exists")


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in-process"])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_split_census_matches_the_unsplit_census(monkeypatch, count, forked):
    n = 4
    whole = orbit_census(n, exhaustive=True)
    _split(monkeypatch, count, forked)
    certify = f2quad._certified_sizes
    here = []

    def certified_sizes(n, part, parts):
        here.append((part, parts))
        return certify(n, part, parts)

    monkeypatch.setattr(f2quad, "_certified_sizes", certified_sizes)
    assert orbit_census(n, exhaustive=True) == whole == orbit_census(n)
    # where forking is allowed, only part 0 runs in this process
    ran_here = 1 if forked and count > 1 and parts._may_fork() else count
    assert here == [(part, count) for part in range(ran_here)]
    _assert_no_child_left()


class _Stop(Exception):
    pass


def test_only_a_large_census_is_split(monkeypatch):
    # a forked part pays for itself only at n = 5; up to n = 4 (2,025
    # members) the census runs in one part
    monkeypatch.setattr(f2quad, "max_parts", lambda: 8)
    asked = []

    def run_parts(work, count):
        asked.append(count)
        raise _Stop

    monkeypatch.setattr(f2quad, "run_parts", run_parts)
    for n in (3, 4, 5):
        with pytest.raises(_Stop):
            orbit_census(n, exhaustive=True)
    assert asked == [1, 1, 8]


def test_census_refuses_a_word_in_the_wrong_part(monkeypatch):
    # part 0 gets a member of part 1 in place of one of its own of the
    # same overlap: every count, order and witness check passes, and only
    # the part check refuses the member that two parts would count
    n = 5
    _split(monkeypatch, 2)
    moved = _WALK(n, 1, 2)[100]
    j = left_overlap(n, f2quad._unpack(n, moved))

    def move(words):
        dropped = next(w for w in words if left_overlap(n, f2quad._unpack(n, w)) == j)
        words.remove(dropped)
        words.insert(sum(w > moved for w in words), moved)

    _walk_with(monkeypatch, move, in_part=0)
    with pytest.raises(VerificationError, match="outside its part"):
        orbit_census(n, exhaustive=True)
    _assert_no_child_left()


def _repeat_second(words):
    words[1] = words[0]


def _swap_third_and_fourth(words):
    words[2], words[3] = words[3], words[2]


@pytest.mark.parametrize("mutate", [_repeat_second, _swap_third_and_fourth], ids=["repeated", "swapped"])
@pytest.mark.parametrize("in_part", [0, 1])
def test_census_refuses_bad_order_inside_a_part(monkeypatch, mutate, in_part):
    # part 1 runs in a forked worker where forking is allowed, part 0 here
    _split(monkeypatch, 2)
    _walk_with(monkeypatch, mutate, in_part)
    with pytest.raises(VerificationError, match="not strictly descending"):
        orbit_census(4, exhaustive=True)
    _assert_no_child_left()


@needs_fork
def test_no_worker_outlives_a_census_budget_stop(monkeypatch):
    assert parts._may_fork()
    _split(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(BudgetExceeded), budget.limit(0.2):
        orbit_census(5, exhaustive=True)
    assert time.monotonic() - start < 0.7
    _assert_no_child_left()


def _fail_in_workers(monkeypatch, fail):
    """Make the certification of a part call fail() in a forked worker."""
    parent = os.getpid()
    certify = f2quad._certified_sizes

    def certified_sizes(n, part, parts):
        if os.getpid() != parent:
            fail()
        return certify(n, part, parts)

    monkeypatch.setattr(f2quad, "_certified_sizes", certified_sizes)


def _raise_runtime_error():
    raise RuntimeError("fails on purpose")


def _raise_budget_exceeded():
    raise BudgetExceeded("worker budget")


@needs_fork
@pytest.mark.parametrize(
    "fail,error,message",
    [
        (_raise_runtime_error, VerificationError, "RuntimeError: fails on purpose"),
        (lambda: os._exit(3), VerificationError, "no result, exit status 3"),
        (_raise_budget_exceeded, BudgetExceeded, "worker budget"),
    ],
    ids=["failing", "no-result", "budget"],
)
def test_a_worker_failure_stops_the_census(monkeypatch, fail, error, message):
    assert parts._may_fork()
    _split(monkeypatch, 3)
    _fail_in_workers(monkeypatch, fail)
    with pytest.raises(error, match=message):
        orbit_census(4, exhaustive=True)
    _assert_no_child_left()


def test_certified_census_builds_no_member_tuples(monkeypatch):
    def refuse(n):
        raise RuntimeError("enumerate_odd_lagrangians was called")

    monkeypatch.setattr(f2quad, "enumerate_odd_lagrangians", refuse)
    for n in range(1, 6):
        assert orbit_census(n, exhaustive=True) == orbit_census(n)


@pytest.mark.parametrize("n", [2, 3])
def test_member_through_vector(n):
    for v in nonsingular_vectors(n):
        member = odd_lagrangian_through(n, v)
        assert is_odd_lagrangian(n, member)
        assert left_overlap(n, member) == n - 1
        assert f2_reduce(v, member) == 0  # v lies in the member
    with pytest.raises(ValueError):
        odd_lagrangian_through(n, 1)  # singular vector


def test_standard_members():
    for n in (1, 2, 3, 5):
        for j in range(n):
            member = standard_odd_lagrangian(n, j)
            assert is_odd_lagrangian(n, member)
            assert left_overlap(n, member) == j
    with pytest.raises(ValueError):
        standard_odd_lagrangian(3, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_generators_are_isometries_fixing_left_half(n):
    gens = left_stabilizer_generators(n)
    assert len(gens) == n * (n - 1) + n * (n - 1) // 2
    for g in gens:
        assert is_isometry(n, g)
        assert fixes_left_half(n, g)


def test_left_stabilizer_orders():
    assert left_stabilizer_order(1) == 1
    assert left_stabilizer_order(2) == 12
    assert left_stabilizer_order(3) == 1344
    assert left_stabilizer_order(5) == 10239344640


def _is_isometry_pairwise(n, g):
    # the pair-by-pair definition: Q and every pairing of the images
    # agree with those of the standard basis
    basis = f2_identity(2 * n)
    if any(quad_value(n, g[i]) != quad_value(n, basis[i]) for i in range(2 * n)):
        return False
    return all(
        pairing(n, g[i], g[l]) == pairing(n, basis[i], basis[l])
        for i in range(2 * n)
        for l in range(i + 1, 2 * n)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_isometry_against_pairwise_definition(n):
    rng = random.Random(100 + n)
    width = 2 * n
    cases = [tuple(rng.randrange(1 << width) for _ in range(width)) for _ in range(300)]
    for _ in range(60):
        g = random_isometry(n, rng)
        cases.append(g)
        row, bit = rng.randrange(width), rng.randrange(width)
        cases.append(g[:row] + (g[row] ^ (1 << bit),) + g[row + 1 :])
    verdicts = [is_isometry(n, g) for g in cases]
    assert verdicts == [_is_isometry_pairwise(n, g) for g in cases]
    assert any(verdicts) and not all(verdicts)
    g = random_isometry(n, rng)
    assert not is_isometry(n, g[:-1])
    assert not is_isometry(n, g + (0,))
    assert not is_isometry(n, g[:-1] + (g[-1] | (1 << width),))


def test_left_stabilizer_order_against_brute_force():
    # filter every 4x4 bit matrix at n=2: the stabilizer of the left half
    # inside the full isometry group has exactly the advertised order
    n = 2
    iso = 0
    fixing = 0
    for g in product(range(16), repeat=4):
        if f2_rank(g) != 4 or not is_isometry(n, g):
            continue
        iso += 1
        if fixes_left_half(n, g):
            fixing += 1
    # |O+(4,2)| = 72; the left-half stabilizer is the order-12 parabolic
    assert iso == 72
    assert fixing == left_stabilizer_order(2)


@pytest.mark.parametrize("n,sizes", [(2, (6, 3)), (3, (56, 42, 7))])
def test_orbit_partition_matches_overlap_classes(n, sizes):
    members = enumerate_odd_lagrangians(n)
    orbits = orbit_partition_bfs(n, members)
    assert len(orbits) == n
    by_overlap = {}
    for orbit in orbits:
        js = {left_overlap(n, m) for m in orbit}
        assert len(js) == 1
        by_overlap[js.pop()] = orbit
    for j in range(n):
        expected = frozenset(m for m in members if left_overlap(n, m) == j)
        assert by_overlap[j] == expected
        assert len(by_overlap[j]) == sizes[j] == orbit_size(n, j)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certified_orbit_partition_matches_the_bfs(n, monkeypatch):
    members = enumerate_odd_lagrangians(n)
    checked = []
    verify_frames = f2quad._verify_frames

    def counted(n, j, frames, ones):
        checked.append(j)
        verify_frames(n, j, frames, ones)

    monkeypatch.setattr(f2quad, "_verify_frames", counted)
    orbits = orbit_partition(n, members)
    assert set(orbits) == set(orbit_partition_bfs(n, members))
    assert [left_overlap(n, next(iter(orbit))) for orbit in orbits] == list(range(n))
    # one certificate per member, each against its own overlap's standard frame
    assert sorted(checked) == sorted(left_overlap(n, m) for m in members)


def test_orbit_partition_returns_only_the_given_members():
    n = 3
    members = enumerate_odd_lagrangians(n)
    subset = members[::7] + members[:1]  # a repeat is one member
    orbits = orbit_partition(n, subset)
    assert set().union(*orbits) == set(subset)
    whole = orbit_partition_bfs(n, members)
    assert all(any(orbit <= full for full in whole) for orbit in orbits)
    assert sum(map(len, orbits)) == len(set(subset)) < len(members)
    assert orbit_partition(n, []) == []


@pytest.mark.parametrize(
    "member",
    [
        (4, 2, 1),  # the left half: totally isotropic, but singular
        (8, 4, 1),  # f0 pairs with e0: not totally isotropic
        (9, 4),  # e0 + f0 and e2: too small
        (4, 2, 9),  # an odd Lagrangian, but not in canonical RREF
    ],
)
def test_orbit_partition_refuses_what_is_not_a_member(member):
    good = standard_odd_lagrangian(3, 2)
    with pytest.raises(ValueError):
        orbit_partition(3, [good, member])


def _check_witness(n, a, b, witness):
    assert witness.overlaps == (left_overlap(n, a), left_overlap(n, b))
    if witness.matrix is None:
        assert witness.overlaps[0] != witness.overlaps[1]
        return
    g = witness.matrix
    assert is_isometry(n, g)
    assert fixes_left_half(n, g)
    assert tuple(f2_rref([f2_vec_mat(r, g) for r in a])) == tuple(f2_rref(b))


def test_witness_grid_small():
    n = 3
    members = sample_odd_lagrangians(n, count=12, seed=5)
    for a in members:
        for b in members:
            _check_witness(n, a, b, same_orbit_witness(n, a, b))


def test_witness_identity_on_equal_members():
    for n in (2, 3, 5):
        m = standard_odd_lagrangian(n, n - 1)
        w = same_orbit_witness(n, m, m)
        assert w.matrix == tuple(f2_identity(2 * n))


def test_witness_n5_across_classes():
    n = 5
    members = list(sample_odd_lagrangians(n, count=10, seed=9))
    members += [standard_odd_lagrangian(n, j) for j in range(n)]
    for a in members:
        for b in members:
            _check_witness(n, a, b, same_orbit_witness(n, a, b))


def test_witness_failure_raises(monkeypatch):
    # a frame that is not adapted to the member gives a witness that
    # misses it, and the check must raise rather than return
    n = 4
    adapted = f2quad._adapted_frame
    monkeypatch.setattr(
        f2quad,
        "_adapted_frame",
        lambda n, member: adapted(n, standard_odd_lagrangian(n, left_overlap(n, member))),
    )
    (member,) = sample_odd_lagrangians(n, count=1, seed=3)
    rep = standard_odd_lagrangian(n, left_overlap(n, member))
    assert member != rep
    with pytest.raises(VerificationError, match="misses its target"):
        same_orbit_witness(n, member, rep)


@pytest.mark.parametrize(
    "row,source,message",
    [(7, 4, "not an isometry"), (4, 0, "moves the left half")],
)
def test_witness_refuses_frames_off_the_standard_data(monkeypatch, row, source, message):
    # adding an earlier row to a row past n keeps each frame a basis whose
    # first n rows span its member, so F_a g = F_b still holds and only the
    # frame check can refuse: with the first s (row n) added, the last row
    # pairs with w_1; with w_1 added, the first s leaves the left half
    n = 4
    adapted = f2quad._adapted_frame

    def sheared(n, member):
        frame = adapted(n, member)
        frame[row] ^= frame[source]
        return frame

    monkeypatch.setattr(f2quad, "_adapted_frame", sheared)
    for member in sample_odd_lagrangians(n, count=4, seed=3):
        rep = standard_odd_lagrangian(n, left_overlap(n, member))
        with pytest.raises(VerificationError, match=message):
            same_orbit_witness(n, member, rep)


def _frame_data(n, rows):
    """Q of every row and the pairing of every pair, computed entry by entry."""
    qs = [quad_value(n, r) for r in rows]
    pairs = [pairing(n, a, b) for i, a in enumerate(rows) for b in rows[i + 1 :]]
    return qs, pairs


def _members_for_frame_tests():
    for n in (1, 2, 3, 4):
        for member in enumerate_odd_lagrangians(n):
            yield n, member
    for member in sample_odd_lagrangians(5, count=500, seed=14):
        yield 5, member
    for j in range(5):  # the samples miss the smallest class
        yield 5, standard_odd_lagrangian(5, j)


def test_adapted_frame_by_definition():
    # a second route beside the census's batch check (_verify_frames, which
    # reads the same data off bit slices): the frame is a basis whose
    # first n rows span the member and whose Q values and pairings are
    # those of the standard frame of the member's overlap
    standard = {}
    for n, member in _members_for_frame_tests():
        j = left_overlap(n, member)
        if (n, j) not in standard:
            standard[n, j] = _frame_data(n, f2quad._standard_frame(n, j))
        rows = f2quad._adapted_frame(n, member)
        assert len(rows) == 2 * n and f2_rank(rows) == 2 * n
        assert tuple(f2_rref(rows[:n])) == member
        assert _frame_data(n, rows) == standard[n, j]
    assert len(standard) == 1 + 2 + 3 + 4 + 5


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_left_overlap_is_the_count_of_left_rows(n):
    # orbit_census reads j off the canonical member this way
    for member in enumerate_odd_lagrangians(n):
        assert sum(r < (1 << n) for r in member) == left_overlap(n, member)


def test_adapted_frame_refuses_singular_members():
    n = 3
    right_half = tuple(f2_rref([1 << (n + i) for i in range(n)]))
    mixed = tuple(f2_rref([1, 1 << (n + 1), 1 << (n + 2)]))  # e0, f1, f2
    for member in (right_half, mixed, tuple(f2_rref(f2_identity(n)))):
        with pytest.raises(ValueError, match="member is singular"):
            f2quad._adapted_frame(n, member)


def test_census_certification_survives_optimize():
    # under python -O every assert is stripped; the census must still
    # refuse a member whose witness misses it, and a repeated member
    script = textwrap.dedent(
        """
        import vftk.f2quad as f2quad
        from vftk.verify import VerificationError

        assert False, "asserts are live"  # stripped under -O
        adapted = f2quad._adapted_slices

        def wrong_frame(n, pivots, rows, ones):
            # the standard member's frame in every slot of the batch
            j = sum(p < n for p in pivots)
            rep = f2quad.standard_odd_lagrangian(n, j)
            rep_rows = [[ones * (r >> b & 1) for b in range(2 * n)] for r in rep]
            return adapted(n, [r.bit_length() - 1 for r in rep], rep_rows, ones)

        f2quad._adapted_slices = wrong_frame
        try:
            f2quad.orbit_census(4, exhaustive=True)
        except VerificationError as exc:
            print("refused:", exc)

        f2quad._adapted_slices = adapted
        walk = f2quad._odd_lagrangian_words

        def repeated_walk(n, part=0, parts=1):
            words = walk(n, part, parts)
            words[1] = words[0]
            return words

        f2quad._odd_lagrangian_words = repeated_walk
        try:
            f2quad.orbit_census(4, exhaustive=True)
        except VerificationError as exc:
            print("refused:", exc)
        """
    )
    src = os.path.dirname(os.path.dirname(f2quad.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "refused: witness misses its target member",
        "refused: walk words are not strictly descending",
    ]


def test_witness_refutation_reports_overlaps():
    n = 5
    w = same_orbit_witness(n, standard_odd_lagrangian(n, 0), standard_odd_lagrangian(n, 4))
    assert w.matrix is None
    assert w.overlaps == (0, 4)


@pytest.mark.parametrize(
    "n,expected",
    [
        (2, [(6, 2, 2), (3, 4, 4)]),
        (3, [(56, 24, 4), (42, 32, 32), (7, 192, 32)]),
    ],
)
def test_exhaustive_census_small(n, expected):
    rows = orbit_census(n)
    assert len(rows) == n
    for j, (size, order, u_order) in enumerate(expected):
        row = rows[j]
        assert row.overlap == j
        assert (row.size, row.stabilizer_order, row.unipotent_order) == (size, order, u_order)
        assert row.size * row.stabilizer_order == left_stabilizer_order(n)


def test_census_n5_closed_form():
    rows = orbit_census(5)
    assert [r.size for r in rows] == [31744, 29760, 8680, 930, 31]
    assert sum(r.size for r in rows) == 71145 == total_odd_count(5)
    assert [r.stabilizer_order for r in rows] == [
        322560,
        344064,
        1179648,
        11010048,
        330301440,
    ]
    assert [r.unipotent_order for r in rows] == [2**4, 2**11, 2**15, 2**16, 2**14]
    assert rows[0].levi == "GL(0,2) x GL(4,2)"
    assert rows[2].levi == "GL(2,2) x GL(2,2)"


def test_census_n4_certified_exhaustive():
    # the formula route and a fully certified enumeration must agree
    fast = orbit_census(4)
    slow = orbit_census(4, exhaustive=True)
    assert fast == slow
    assert [r.size for r in fast] == [960, 840, 210, 15]


def test_stabilizer_structure_counts_vs_quotients():
    # exhaustive subgroup counting (n <= 3) against the orbit quotient
    for n in (2, 3):
        for j in range(n):
            order, u_order = listed_stabilizer_orders(n, standard_odd_lagrangian(n, j))
            assert order * orbit_size(n, j) == left_stabilizer_order(n)
            assert order % u_order == 0
            assert stabilizer_structure(n, standard_odd_lagrangian(n, j)).overlap == j
    info = stabilizer_structure(3, standard_odd_lagrangian(3, 0))
    assert info.levi == "GL(0,2) x GL(2,2)"
    with pytest.raises(ValueError):
        stabilizer_structure(3, (1, 2, 4))  # the left half itself is singular


def _seeded_conjugates():
    """(base, moved): each n = 3 representative moved by 3 seeded generators."""
    n = 3
    rng = random.Random(11)
    gens = left_stabilizer_generators(n)
    for j in range(n):
        base = standard_odd_lagrangian(n, j)
        for _ in range(3):
            yield base, transform_member(n, gens[rng.randrange(len(gens))], base)


def test_stabilizer_structure_is_conjugation_invariant():
    # conjugating by a left-half isometry must not change the structure
    for base, moved in _seeded_conjugates():
        assert listed_stabilizer_orders(3, moved) == listed_stabilizer_orders(3, base)
        assert stabilizer_structure(3, moved) == stabilizer_structure(3, base)


def test_closed_forms_match_the_listing():
    # the census's closed forms against the routes that list the group
    # (n <= 3): the stabilizer and its unipotent kernel, filtered out of
    # the whole left-half stabilizer, and the orbits of a BFS
    members = [(n, standard_odd_lagrangian(n, j)) for n in (1, 2, 3) for j in range(n)]
    members += [(3, moved) for _, moved in _seeded_conjugates()]
    for n, member in members:
        info = stabilizer_structure(n, member)
        assert listed_stabilizer_orders(n, member) == (info.order, info.unipotent_order)
    for n in (1, 2, 3):
        orbits = orbit_partition_bfs(n, enumerate_odd_lagrangians(n))
        sizes = sorted((left_overlap(n, next(iter(orbit))), len(orbit)) for orbit in orbits)
        assert sizes == [(row.overlap, row.size) for row in orbit_census(n, exhaustive=True)]


def test_closed_form_rows_poll_the_budget(monkeypatch):
    # without --exhaustive, n = 6 walks nothing: each overlap row polls once
    polls = []
    monkeypatch.setattr(budget, "check", lambda: polls.append(None))
    orbit_census(6)
    assert len(polls) == 6
    monkeypatch.undo()
    with budget.limit(0), pytest.raises(BudgetExceeded):
        orbit_census(6)


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(5, 2) == 155
    assert gaussian_binomial(6, 3) == 1395
    assert gaussian_binomial(3, 0) == gaussian_binomial(3, 3) == 1
    assert gaussian_binomial(2, 3) == 0


def test_random_isometry_and_samples():
    for n in (2, 3, 5):
        rng = random.Random(n)
        for _ in range(3):
            assert is_isometry(n, random_isometry(n, rng))
    members = sample_odd_lagrangians(5, count=20, seed=0)
    assert members == sample_odd_lagrangians(5, count=20, seed=0)  # deterministic
    assert all(is_odd_lagrangian(5, m) for m in members)
    assert len({left_overlap(5, m) for m in members}) >= 2


def test_n5_exhaustive_census_certified(n5_exhaustive_census):
    # opt-in full run: enumerates all 71145 members and certifies each one
    # with an explicit witness from its standard representative
    assert n5_exhaustive_census == orbit_census(5)
