"""Frame engine: markings to frames, glue codes, stabilizers, order formulas."""

import functools
import os
import random
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice
from math import factorial

import pytest

from oracles import (
    apply_monomial,
    brute_force_monomials,
    find_frames,
    monomial_to_isometry,
    reoriented,
    short_vectors_box,
    walk_frames_reference,
    z4_closure,
)
from vftk import budget, frames, parts
from vftk.bits import gl2_order
from vftk.budget import BudgetExceeded
from vftk.f2codes import Marking, classify_markings, hamming_code
from vftk.frames import (
    LatticeFrame,
    _e8_graph,
    Z4Code,
    abelian_type,
    agl2_order,
    classify_e8_frames,
    e8_frame_representatives,
    frame_from_marking,
    frame_group_order,
    frame_invariants,
    frame_stabilizer,
    frame_torus_divisors,
    glue_code,
    order_sym_wr_agl,
)
from vftk.intmat import vec_mat
from vftk.lattices import IntegralLattice, e8_lattice, short_vectors
from vftk.stabsearch import orbit
from vftk.unimodular import definite_automorphisms
from vftk.verify import VerificationError


def _d_lattice(n):
    """D_n from its Dynkin diagram: the path 0, ..., n-2 and node n-1 joined to n-3."""
    gram = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]:
        gram[i][j] = gram[j][i] = -1
    return IntegralLattice.from_gram(gram)


D4, D5, D6, D7 = (_d_lattice(n) for n in (4, 5, 6, 7))


@pytest.fixture(scope="module")
def e8_table():
    e8 = e8_lattice()
    return {k: frame_invariants(e8, fr) for k, fr in e8_frame_representatives().items()}


def test_frame_from_marking_valid():
    e8 = e8_lattice()
    orbits, _ = classify_markings(hamming_code())
    for rep, _size in orbits:
        frame = frame_from_marking(e8, rep)  # constructor validates norms
        assert frame.pair_count == 8
        for x in frame.vectors:
            assert e8.norm(x) == 4


def test_frame_validation():
    lat = IntegralLattice.from_gram([[4, 0], [0, 4]])
    with pytest.raises(ValueError):
        LatticeFrame(lat, [(1, 0)])  # too few pairs
    with pytest.raises(ValueError):
        LatticeFrame(lat, [(1, 0), (1, 1)])  # norm 8
    with pytest.raises(ValueError):
        LatticeFrame(IntegralLattice.from_gram([[4, 1], [1, 4]]), [(1, 0), (0, 1)])
    # non-integer coordinates are refused, not truncated to the frame (1, 0), (0, 1)
    for first in ((Fraction(3, 2), 0), (1.0, 0), (1.7, 0)):
        with pytest.raises(ValueError, match="integers"):
            LatticeFrame(lat, [first, (0, 1)])
    # a vector of the wrong length is refused, not read as (1, 0) nor indexed past its end
    for first in ((1,), (1, 0, 5)):
        with pytest.raises(ValueError, match="2 coordinates"):
            LatticeFrame(lat, [first, (0, 1)])


def test_z4_code_closure():
    c = Z4Code.from_generators(2, [(1, 2)])
    assert c.order == 4
    assert (2, 0) in c and (3, 2) in c and (1, 0) not in c
    zero = Z4Code.from_generators(3, [])
    assert zero.order == 1
    assert abelian_type(zero) == (0, 0)


def test_z4_code_closure_matches_oracle():
    rng = random.Random(16)
    dependent = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        gens = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        # repeat a generator, or add a combination of two, or a multiple of one
        for _ in range(rng.randint(0, 2)):
            g, h = rng.choice(gens), rng.choice(gens)
            gens.insert(rng.randint(0, len(gens)), rng.choice((
                g,
                tuple((x + y) % 4 for x, y in zip(g, h)),
                tuple(rng.choice((2, 3)) * x for x in g),
            )))
        code = Z4Code.from_generators(n, gens)
        assert code.words == z4_closure(n, gens)
        assert code.generators == tuple(tuple(x % 4 for x in g) for g in gens)
        # cases where the closure skips a generator already in the span
        dependent += any(g in z4_closure(n, gens[:i]) for i, g in enumerate(code.generators))
    assert dependent >= 100


def test_frame_hash_agrees_with_equality():
    # equal frames (same lattice, same sign-pairs in any order and sign)
    # hash equal; a frame on another Gram is a different frame
    frame = e8_frame_representatives()[2]
    rng = random.Random(18)
    for _ in range(5):
        order = list(range(8))
        rng.shuffle(order)
        other = reoriented(frame, [rng.choice((1, -1)) for _ in range(8)], order)
        assert other == frame and hash(other) == hash(frame)
    assert len({frame, other, e8_frame_representatives()[3]}) == 2
    lat = IntegralLattice.from_gram([[4, 0], [0, 4]])
    a = LatticeFrame(lat, [(1, 0), (0, 1)])
    b = LatticeFrame(lat.rescale(1), [(0, -1), (-1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != LatticeFrame(IntegralLattice.from_gram([[1, 0], [0, 1]]), [(2, 0), (0, 2)])


def test_glue_code_of_frame_lattice_is_zero():
    lat = IntegralLattice.from_gram([[4, 0], [0, 4]])
    frame = LatticeFrame(lat, [(1, 0), (0, 1)])
    assert glue_code(lat, frame).order == 1


def test_glue_order_squared_times_det():
    e8 = e8_lattice()
    for frame in e8_frame_representatives().values():
        code = glue_code(e8, frame)
        assert code.order**2 * e8.determinant() == 4**8
        # frame vectors themselves glue to the zero word
        for x in frame.vectors:
            word = tuple(int(e8.inner(x, y)) % 4 for y in frame.vectors)
            assert word == (0,) * 8


def test_marking_classes_give_three_glue_types(e8_table):
    assert set(e8_table) == {1, 2, 3, 4}
    assert {(inv.two_rank, inv.four_rank) for inv in e8_table.values()} == {
        (6, 1),
        (4, 2),
        (2, 3),
        (0, 4),
    }


def test_e8_invariant_table(e8_table):
    expected = {
        # k: (l, |W_X|, |D_X|, pointwise, perm image, torus type)
        1: (6, 5160960, 2**7, 2**15, 10321920, "2 x 4^6 x 8"),
        2: (4, 73728, 2**6, 2**14, 294912, "2^2 x 4^4 x 8^2"),
        3: (2, 6144, 2**4, 2**12, 98304, "2^3 x 4^2 x 8^3"),
        4: (0, 2688, 2**1, 2**9, 344064, "2^4 x 8^4"),
    }
    for k, inv in e8_table.items():
        l, wx, dx, gc, gn, ttype = expected[k]
        assert inv.two_rank == l
        assert inv.four_rank == k
        assert inv.monomial_order == wx
        assert inv.sign_order == dx
        assert inv.pointwise_order == gc
        assert inv.perm_image_order == gn
        assert inv.torus_stab_type == ttype
        assert inv.glue_order == 2**l * 4**k
        assert inv.miyamoto_order == 2**k
        assert inv.sign_log2 >= 1  # -1 is always a sign symmetry
        assert inv.pointwise_order == 2 ** (l + 2 * k + inv.sign_log2)
        assert inv.full_order == gc * gn
        assert inv.torus_stab_order == 2 ** (8 + l + 2 * k)


def test_e8_wx_times_class_size_checks(e8_table):
    sizes = {1: 135, 2: 9450, 3: 113400, 4: 259200}
    for k, inv in e8_table.items():
        assert sizes[k] * inv.monomial_order == 696729600


def test_two_rank_plus_twice_four_rank(e8_table):
    # l + 2k = n exactly when the lattice is self-dual
    for inv in e8_table.values():
        assert inv.two_rank + 2 * inv.four_rank == 8


def test_small_classes_are_orbits_under_computed_w_e8():
    """The k = 1 and k = 2 classes as orbits of their representatives
    under the chain's generators of W(E8), acting on the 1,080 sign-pairs:
    a route to the census counts that walks no cliques, and through
    |W(E8)| / size a route to W_X that reads no pinned order."""
    e8 = e8_lattice()
    group = definite_automorphisms(e8)
    reps = _e8_graph().reps
    pair = {}
    for i, v in enumerate(reps):
        pair[v] = pair[tuple(-c for c in v)] = i
    perms = [tuple(pair[vec_mat(v, w)] for v in reps) for w in group.generators]
    representatives = e8_frame_representatives()
    for k, size in ((1, 135), (2, 9450)):
        frame = representatives[k]
        seed = frozenset(pair[v] for v in frame.vectors)
        found = orbit({seed}, lambda f: (frozenset(map(p.__getitem__, f)) for p in perms))
        assert len(found) == size
        assert group.order == size * frame_stabilizer(e8, frame).order


def test_torus_divisor_cross_sections():
    e8 = e8_lattice()
    for k, frame in e8_frame_representatives().items():
        l = 8 - 2 * k
        assert frame_torus_divisors(e8, frame, 8) == (2,) * (8 - l - k) + (4,) * l + (8,) * k
        assert frame_torus_divisors(e8, frame, 4) == (2,) * l + (4,) * k
        assert frame_torus_divisors(e8, frame, 2) == (2,) * k


def test_reorientation_invariance():
    e8 = e8_lattice()
    frame = e8_frame_representatives()[2]
    rng = random.Random(3)
    base = frame_invariants(e8, frame)
    for _ in range(2):
        signs = [rng.choice((1, -1)) for _ in range(8)]
        order = list(range(8))
        rng.shuffle(order)
        other = frame_invariants(e8, reoriented(frame, signs, order))
        assert (other.two_rank, other.four_rank) == (base.two_rank, base.four_rank)
        assert other.monomial_order == base.monomial_order
        assert other.sign_order == base.sign_order


def test_find_frames_small():
    (empty,) = find_frames(IntegralLattice([]))
    assert empty.pair_count == 0
    assert find_frames(IntegralLattice.from_gram([[2]])) == []  # no norm-4 vectors at all
    assert find_frames(IntegralLattice.from_gram([[8]])) == []
    (one,) = find_frames(IntegralLattice.from_gram([[4]]))
    assert one.pair_count == 1
    square = IntegralLattice.from_gram([[4, 0], [0, 4]])
    frames = find_frames(square)
    assert len(frames) == 1
    assert frames[0].pair_count == 2


def test_find_frames_d4():
    frames = find_frames(D4)
    assert len(frames) == 3
    for frame in frames:
        code = glue_code(D4, frame)
        assert code.order**2 * D4.determinant() == 4**4
        stab = frame_stabilizer(D4, frame)
        brute = brute_force_monomials(code.sorted_words(), 4, 4)
        assert stab.order == len(brute)
        ident = tuple(range(4))
        assert stab.sign_order == sum(1 for sigma, _ in brute if sigma == ident)


@pytest.mark.parametrize(
    "lattice, count",
    [(D4, 3), (IntegralLattice.from_gram([[4, 0], [0, 4]]), 1), (D5, 11)],
    ids=["D4", "4I2", "D5"],
)
def test_find_frames_matches_brute_force(lattice, count):
    reps = sorted({max(v, tuple(-c for c in v)) for v in short_vectors_box(lattice, 4)})
    orthogonal = {(x, y) for x, y in combinations(reps, 2) if lattice.inner(x, y) == 0}
    brute = {
        frozenset(c)
        for c in combinations(reps, lattice.rank)
        if all(pair in orthogonal for pair in combinations(c, 2))
    }
    frames = find_frames(lattice)
    assert len(frames) == len(brute) == count
    assert {frozenset(f.vectors) for f in frames} == brute


@pytest.mark.parametrize(
    "lattice",
    [
        IntegralLattice([]),
        IntegralLattice.from_gram([[4]]),
        IntegralLattice.from_gram([[4, 0], [0, 4]]),
        D4,
        D5,
        D6,
        D7,
    ],
    ids=["zero", "4", "4I2", "D4", "D5", "D6", "D7"],
)
def test_walk_matches_reference_walker(lattice):
    # D6 and D7 have 8 and 1704 exact fits that are not cliques
    graph = frames._norm4_graph(lattice)
    reference = list(walk_frames_reference(graph))
    assert list(frames._walk_frames(graph)) == reference
    counts, first, _nodes = frames._census_part(graph, None)
    assert counts == Counter(k for _, k in reference)
    assert first == {k: next(c for c, j in reference if j == k) for k in counts}


@pytest.fixture(scope="module")
def e8_walk_prefix():
    """The first 20000 (clique, k) of the E8 walk: all four classes occur."""
    return list(islice(frames._walk_frames(_e8_graph()), 20000))


def test_walk_matches_reference_walker_on_e8(e8_walk_prefix):
    reference = islice(walk_frames_reference(_e8_graph()), len(e8_walk_prefix))
    assert e8_walk_prefix == list(reference)


def test_pair_masks_give_k_a_second_way(e8_walk_prefix):
    """A class-k frame of E8 has 2^(k-1) distinct pair masks, each shared by
    2^(4-k) of its pairs.

    Proof.  Reading v -> ((v, x_i) mod 4)_i on the frame x_1..x_8 maps E8
    onto its glue code C in (Z/4)^8, and E8 is C's construction A scaled
    by 1/2; E8 is even unimodular, so C is a Type II Z4 code of length 8.
    Its residue code R = C mod 2 is doubly even and contains the all-ones
    vector 1 (Harada-Sole-Gaborit 1998), and has dimension k, the 4-rank
    of C.  Bit j of masks[x_i] over i is the residue of the glue word of
    the basis vector e_j; these words generate C, so the mask columns span
    R.  Hence pairs i and i' share a mask iff every word of R agrees on
    coordinates i and i', i.e. iff columns i and i' of a generator matrix
    of R are equal.  Up to coordinate order the doubly even codes of
    length 8 with 1 and k <= 4 are <1>, <1, u> with wt u = 4, <1, u, w>
    with wt u = wt w = 4 and |u & w| = 2, and the [8,4,4] Hamming code,
    which is self-dual with minimum weight 4, so no two of its columns
    are equal.  Their generator matrices have 1, 2, 4 and 8 distinct
    columns, each 8, 4, 2 and 1 times.
    """
    masks = _e8_graph().masks
    for clique, k in e8_walk_prefix:
        shared = Counter(masks[i] for i in clique)
        assert len(shared) == 2 ** (k - 1)
        assert set(shared.values()) == {2 ** (4 - k)}


def test_e8_graph_matches_inner():
    e8 = e8_lattice()
    graph = _e8_graph()
    reps = sorted({max(v, tuple(-c for c in v)) for v in short_vectors(e8, 4)}, reverse=True)
    assert graph.reps == tuple(reps)
    adj = [0] * len(reps)
    for i, x in enumerate(reps):
        for j in range(i):
            if e8.inner(x, reps[j]) == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    assert graph.adj == tuple(adj)
    units = [tuple(int(i == j) for i in range(8)) for j in range(8)]
    masks = tuple(
        sum((int(e8.inner(e, x)) % 2) << j for j, e in enumerate(units)) for x in reps
    )
    assert graph.masks == masks


def test_rank4_search_finds_a_4_to_the_4_frame():
    e8 = e8_lattice()
    frame = e8_frame_representatives()[4]
    assert abelian_type(glue_code(e8, frame)) == (0, 4)


def test_zero_glue_stabilizer_is_full_monomial_group():
    lat = IntegralLattice.from_gram([[4, 0, 0], [0, 4, 0], [0, 0, 4]])
    (frame,) = find_frames(lat)
    stab = frame_stabilizer(lat, frame)
    assert stab.order == 2**3 * factorial(3)
    assert stab.sign_order == 8


def test_monomial_to_isometry_generators():
    e8 = e8_lattice()
    for k in (1, 4):
        frame = e8_frame_representatives()[k]
        stab = frame_stabilizer(e8, frame)
        for sigma, signs in stab.generators:
            w = monomial_to_isometry(e8, frame, sigma, signs)
            # rows of w are images of basis vectors; frame pair p must map
            # to signs[p] * x_{sigma[p]}
            for p, x in enumerate(frame.vectors):
                img = tuple(
                    sum(x[j] * w[j][t] for j in range(8)) for t in range(8)
                )
                want = tuple(signs[p] * c for c in frame.vectors[sigma[p]])
                assert img == want


def test_monomial_to_isometry_rejects_nonmember():
    # use the smallest stabilizer (k=4): its permutation image cannot
    # contain every transposition, so a breaking one must exist
    e8 = e8_lattice()
    frame = e8_frame_representatives()[4]
    code = glue_code(e8, frame)
    words = set(code.sorted_words())
    # find a transposition that breaks the glue code, then expect a raise
    found = None
    for i in range(8):
        for j in range(i + 1, 8):
            sigma = list(range(8))
            sigma[i], sigma[j] = sigma[j], sigma[i]
            sigma = tuple(sigma)
            moved = {tuple(w[sigma.index(t)] for t in range(8)) for w in words}
            if moved != words:
                found = sigma
                break
        if found:
            break
    assert found is not None
    with pytest.raises(ValueError):
        monomial_to_isometry(e8, frame, found, (1,) * 8)


def test_monomial_to_isometry_iff_glue_code_preserved():
    # every transposition, with no sign or one -1, on each E8 class
    e8 = e8_lattice()
    rejected = 0
    for frame in e8_frame_representatives().values():
        code = glue_code(e8, frame)
        for i, j in combinations(range(8), 2):
            sigma = list(range(8))
            sigma[i], sigma[j] = j, i
            for flip in range(-1, 8):
                signs = tuple(-1 if p == flip else 1 for p in range(8))
                image = {apply_monomial(w, sigma, signs, 4) for w in code.words}
                if image == code.words:
                    assert e8.is_isometry(monomial_to_isometry(e8, frame, sigma, signs))
                else:
                    rejected += 1
                    with pytest.raises(ValueError):
                        monomial_to_isometry(e8, frame, sigma, signs)
    assert 0 < rejected < 4 * 28 * 9


def test_group_order_helpers():
    assert gl2_order(1) == 1
    assert gl2_order(2) == 6
    assert gl2_order(4) == 20160
    assert agl2_order(0) == 1
    assert agl2_order(3) == 1344
    assert agl2_order(4) == 322560


def test_order_sym_wr_agl():
    assert order_sym_wr_agl(1) == factorial(16)
    assert order_sym_wr_agl(2) == factorial(8) ** 2 * 2
    assert order_sym_wr_agl(3) == factorial(4) ** 4 * 24
    assert order_sym_wr_agl(4) == 2**8 * 1344
    assert order_sym_wr_agl(5) == 322560
    with pytest.raises(ValueError):
        order_sym_wr_agl(0)
    with pytest.raises(ValueError):
        order_sym_wr_agl(6)


def test_frame_group_order(e8_table):
    for k in range(1, 5):
        assert frame_group_order(k) == e8_table[k].pointwise_order * order_sym_wr_agl(k)
    assert frame_group_order(1) == 2**15 * factorial(16)
    assert frame_group_order(5) == 2**5 * 322560
    assert frame_group_order(5) == 2**9 * 20160


def test_frame_group_order_deadline_reaches_cold_e8_build(monkeypatch):
    # with every E8 cache cold, an expired budget stops the build, and the
    # build that ran out of budget leaves nothing cached
    for name in ("_e8_graph", "e8_frame_representatives", "_e8_gc_orders"):
        cold = functools.cache(getattr(frames, name).__wrapped__)
        monkeypatch.setattr(frames, name, cold)
    with pytest.raises(BudgetExceeded), budget.limit(0):
        frame_group_order(1)
    assert frames._e8_gc_orders.cache_info().currsize == 0
    # k = 5 needs no E8 computation
    with budget.limit(0):
        assert frame_group_order(5) == 2**9 * 20160


def test_frame_group_order_deadline_binds_soon_on_cold_e8_build(monkeypatch):
    # a budget that runs out during the cold build stops it soon after:
    # no step between two polls, the short-vector search included, runs long
    for name in ("_e8_graph", "e8_frame_representatives", "_e8_gc_orders"):
        cold = functools.cache(getattr(frames, name).__wrapped__)
        monkeypatch.setattr(frames, name, cold)
    start = time.monotonic()
    with pytest.raises(BudgetExceeded), budget.limit(0.05):
        frame_group_order(1)
    assert time.monotonic() - start < 0.15
    assert frames._e8_gc_orders.cache_info().currsize == 0


def test_budget_binds_inside_the_census_walk():
    _e8_graph()  # warm, so the budget runs out in the walk, not in the graph build
    start = time.monotonic()
    with pytest.raises(BudgetExceeded), budget.limit(0.3):
        classify_e8_frames()
    assert time.monotonic() - start < 0.8


def _root_parts(graph, w):
    """The depth-0 vertex bitsets v % w == i, i < w."""
    return [sum(1 << v for v in range(len(graph.adj)) if v % w == i) for i in range(w)]


@pytest.mark.parametrize("lattice", [D4, D5, D6, D7], ids=["D4", "D5", "D6", "D7"])
@pytest.mark.parametrize("w", [1, 2, 3])
def test_walk_parts_partition_the_walk(lattice, w):
    graph = frames._norm4_graph(lattice)
    stats = {}
    full = list(frames._walk_frames(graph, stats))
    nodes = 0
    for part in _root_parts(graph, w):
        part_stats = {}
        assert list(frames._walk_frames(graph, part_stats, part)) == [
            f for f in full if part >> f[0][0] & 1
        ]
        nodes += part_stats["nodes"]
    assert nodes == stats["nodes"]


@pytest.mark.parametrize("w", [1, 2, 3])
def test_walk_parts_partition_the_e8_walk_prefix(e8_walk_prefix, w):
    graph = _e8_graph()
    for part in _root_parts(graph, w):
        expected = [f for f in e8_walk_prefix if part >> f[0][0] & 1]
        assert expected
        assert list(islice(frames._walk_frames(graph, roots=part), len(expected))) == expected


@pytest.mark.parametrize("lattice", [D6, D7], ids=["D6", "D7"])
def test_split_census_forked_or_not_merges_exactly(monkeypatch, lattice):
    graph = frames._norm4_graph(lattice)
    whole = frames._census_part(graph, None)
    for count in (2, 3):
        assert frames._split_census(graph, count) == whole
    monkeypatch.setattr(parts, "_may_fork", lambda: False)
    for count in (1, 2, 3):
        assert frames._split_census(graph, count) == whole


def test_no_fork_while_another_thread_lives():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not parts._may_fork()
        # so the split census runs its parts here, one after another
        pids = parts.run_parts(lambda i: os.getpid(), 3)
        assert pids == [os.getpid()] * 3
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert parts._may_fork() == hasattr(os, "fork")


def test_census_split_matches_in_process(e8_census):
    # the census does not depend on how the walk is split: the shared
    # census, split over parts.max_parts() parts, against one walk here
    whole = frames._classify_e8_frames(1)
    splits = [e8_census[0]]
    if parts.max_parts() == 1:  # then the shared census is not split
        splits.append(frames._classify_e8_frames(2))
    for split in splits:
        assert split == whole
        assert [c.representative.vectors for c in split.classes] == [
            c.representative.vectors for c in whole.classes
        ]
        assert [c.count for c in split.classes] == [135, 9450, 113400, 259200]
        assert split.total == 382185
        assert split.nodes == whole.nodes == 3_323_445


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split census forks only where os.fork exists")


@needs_fork
def test_no_worker_outlives_a_budget_stop():
    _e8_graph()
    assert parts._may_fork()
    start = time.monotonic()
    with pytest.raises(BudgetExceeded), budget.limit(0.3):
        frames._classify_e8_frames(3)
    assert time.monotonic() - start < 0.8
    _assert_no_child_left()


def _fail_in_workers(monkeypatch, fail):
    """Make _census_part call fail() in a forked worker, not here."""
    parent = os.getpid()
    part = frames._census_part

    def census_part(graph, roots):
        if os.getpid() != parent:
            fail()
        return part(graph, roots)

    monkeypatch.setattr(frames, "_census_part", census_part)


@needs_fork
def test_a_failing_worker_is_a_verification_error(monkeypatch):
    def fail():
        raise RuntimeError("fails on purpose")

    _fail_in_workers(monkeypatch, fail)
    with pytest.raises(VerificationError, match="RuntimeError: fails on purpose"):
        frames._split_census(frames._norm4_graph(D7), 3)
    _assert_no_child_left()


@needs_fork
def test_a_worker_that_exits_without_a_result_is_a_verification_error(monkeypatch):
    _fail_in_workers(monkeypatch, lambda: os._exit(3))
    with pytest.raises(VerificationError, match="no result, exit status 3"):
        frames._split_census(frames._norm4_graph(D7), 2)
    _assert_no_child_left()


@needs_fork
def test_a_worker_budget_stop_is_raised_here(monkeypatch):
    def fail():
        raise BudgetExceeded("worker budget")

    _fail_in_workers(monkeypatch, fail)
    with pytest.raises(BudgetExceeded, match="worker budget"):
        frames._split_census(frames._norm4_graph(D7), 2)
    _assert_no_child_left()
