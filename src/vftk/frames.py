"""Lattice frames, their Z4 glue codes, and frame-stabilizer invariants.

A frame of a rank-n even lattice is a set of n sign-pairs {x, -x} of
norm-4 vectors, pairwise orthogonal; its span M has Gram 4I in the frame
basis, and M <= L <= L* <= (1/4)M.  Reading inner products with the frame
vectors mod 4 embeds L/M as a subgroup of (Z/4)^n — the glue code.  The
monomial symmetries of the glue code are exactly the lattice
automorphisms that permute the frame, and everything else here (sign
subgroup, pointwise stabilizer, torus-intersection types, wreath-product
order formulas) is bookkeeping on top of that search.
"""

import marshal
import os
from collections import namedtuple
from functools import cache
from math import factorial, prod
from operator import mul

from . import budget
from .abelian import quotient_divisors, type_string
from .bits import f2_rank, gl2_order
from .f2codes import classify_markings, hamming_code
from .lattices import ambient_to_basis, e8_lattice, short_vectors
from .stabsearch import stabilizer
from .verify import verify

__all__ = [
    "LatticeFrame",
    "Z4Code",
    "FrameInvariants",
    "FrameClass",
    "FrameCensus",
    "W_E8_ORDER",
    "frame_from_marking",
    "glue_code",
    "abelian_type",
    "frame_stabilizer",
    "frame_invariants",
    "frame_torus_divisors",
    "e8_frame_representatives",
    "classify_e8_frames",
    "agl2_order",
    "order_sym_wr_agl",
    "frame_group_order",
]

# Order of the full isometry group of the E8 root lattice (pinned; the
# census cross-checks it through class size x stabilizer order).
W_E8_ORDER = 696729600


class LatticeFrame:
    """n orthogonal sign-pairs of norm-4 vectors, one chosen rep per pair."""

    __slots__ = ("lattice", "vectors")

    def __init__(self, lattice, vectors):
        vectors = tuple(tuple(v) for v in vectors)
        if not all(isinstance(c, int) for v in vectors for c in v):
            raise ValueError("frame coordinates must be integers")
        if len(vectors) != lattice.rank:
            raise ValueError("a frame needs one sign-pair per unit of rank")
        for i, x in enumerate(vectors):
            if lattice.norm(x) != 4:
                raise ValueError(f"frame vector {i} has norm {lattice.norm(x)} != 4")
            for j in range(i):
                if lattice.inner(vectors[j], x) != 0:
                    raise ValueError(f"frame vectors {j} and {i} are not orthogonal")
        self.lattice = lattice
        self.vectors = vectors

    @property
    def pair_count(self):
        return len(self.vectors)

    def _pairs(self):
        return frozenset(frozenset((v, tuple(-c for c in v))) for v in self.vectors)

    def __eq__(self, other):
        if not isinstance(other, LatticeFrame):
            return NotImplemented
        return self.lattice == other.lattice and self._pairs() == other._pairs()

    def __hash__(self):
        return hash((self.lattice, self._pairs()))

    def __repr__(self):
        return f"LatticeFrame({self.pair_count} pairs)"


class Z4Code(namedtuple("Z4Code", "length words generators")):
    """Additive subgroup of (Z/4)^n, stored as the full word set.

    generators span the words; they are not compared, so ==, != and hash
    read (length, words) only, and only another Z4Code compares equal.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is Z4Code and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    @classmethod
    def from_generators(cls, length, generators):
        words = {(0,) * length}
        gens = tuple(tuple(x % 4 for x in g) for g in generators)
        for g in gens:
            if len(g) != length:
                raise ValueError("generator length mismatch")
            # words is a subgroup, so a generator inside it adds nothing
            if g in words:
                continue
            words = {
                tuple((w[i] + m * g[i]) % 4 for i in range(length))
                for w in words
                for m in range(4)
            }
        return cls(length, frozenset(words), gens)

    @property
    def order(self):
        return len(self.words)

    def __contains__(self, word):
        return tuple(x % 4 for x in word) in self.words

    def sorted_words(self):
        return sorted(self.words)


def frame_from_marking(lattice, marking):
    """Frame of a construction-A lattice from a coordinate pairing.

    Each marked pair {a, b} contributes the two orthogonal sign-pairs
    through 2(e_a + e_b) and 2(e_a - e_b) in ambient coordinates; both are
    norm 4 and land in the lattice for any binary code.
    """
    if lattice.ambient_rows is None:
        raise ValueError("frame_from_marking needs a construction-A lattice")
    n = lattice.rank
    if marking.length != n:
        raise ValueError("marking length must match the lattice rank")
    vecs = []
    for a, b in marking.pairs:
        for sign in (1, -1):
            y = [0] * n
            y[a] = 2
            y[b] = 2 * sign
            vecs.append(ambient_to_basis(lattice, y))
    return LatticeFrame(lattice, vecs)


# --- frame enumeration ----------------------------------------------------


class _Norm4Graph(namedtuple("_Norm4Graph", "lattice reps adj masks")):
    """Orthogonality graph on the sign-pairs of norm-4 vectors.

    reps holds one vector per sign-pair in descending order; vertex i is
    reps[i] and bit i of the bitsets, so a walk that takes the highest bit
    first meets the reps in ascending order.  adj[i] has bit j set when
    reps i and j are orthogonal; bit j of masks[i] is (e_j, reps[i]) mod 2.
    """

    __slots__ = ()

    def frame(self, clique):
        return LatticeFrame(self.lattice, [self.reps[i] for i in clique])


def _norm4_graph(lattice):
    """Build the _Norm4Graph of a definite lattice from its Gram rows."""
    reps = sorted(
        {max(v, tuple(-c for c in v)) for v in short_vectors(lattice, 4)},
        reverse=True,
    )
    rows = [lattice.gram_row(v) for v in reps]
    adj = [0] * len(reps)
    for i, row in enumerate(rows):
        budget.check()
        for j in range(i):
            if not sum(map(mul, row, reps[j])):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    # row[j] = 2 (e_j, v)
    masks = tuple(sum(((c >> 1) & 1) << j for j, c in enumerate(row)) for row in rows)
    return _Norm4Graph(lattice, tuple(reps), tuple(adj), masks)


def _walk_frames(graph, stats=None, roots=None):
    """Yield (clique, k) for every frame of the graph's lattice.

    A clique is rank-many pairwise orthogonal vertices in descending order,
    so the walk meets frames in ascending order of their sign-pair reps,
    which is descending lexicographic order of the cliques; k is the
    F2-rank of their pair masks, computed at the frames only.
    Each depth keeps its untried candidates, all below the vertex chosen
    last, so backtracking restores nothing.  A completion through a
    candidate v is `need` vertices of `below`, the later candidates
    orthogonal to v.  When `below` has exactly `need`, it is the only one:
    it is yielded if it is a clique, and only larger `below`s are entered.
    stats["nodes"] gets the cliques entered plus the exact fits tested.

    roots, a bitset of vertices (None: all), limits the depth-0 choices to
    its vertices; `below` and the order are as in the full walk.  So the
    walks over disjoint roots that cover every vertex yield disjoint
    subsequences of the full walk, and their nodes add up to its nodes.
    """
    size = graph.lattice.rank
    if not size:  # the zero lattice has one frame, the empty one
        if stats is not None:
            stats["nodes"] = 0
        yield (), 0
        return
    adj, masks = graph.adj, graph.masks
    if roots is None:
        roots = (1 << len(adj)) - 1
    rest = [0] * size
    chosen = [0] * size
    rest[0] = (1 << len(adj)) - 1
    nodes = 0
    depth = 0
    while depth >= 0:
        cands = rest[depth]
        need = size - depth - 1  # vertices still to choose below this depth's
        left = cands.bit_count()
        while left > need:
            v = cands.bit_length() - 1
            cands ^= 1 << v
            left -= 1
            below = cands & adj[v]
            fit = below.bit_count()
            if fit < need or not (depth or roots >> v & 1):
                continue
            nodes += 1
            if not nodes & 4095:
                budget.check()
            if fit > need:  # never at need 0: nothing in a definite L is orthogonal to a frame
                break
            clique = chosen[:depth] + [v]
            rem = below
            while rem:  # a clique iff each vertex has need - 1 neighbours in it
                u = rem.bit_length() - 1
                if (below & adj[u]).bit_count() < need - 1:
                    break
                clique.append(u)
                rem ^= 1 << u
            else:
                yield tuple(clique), f2_rank([masks[i] for i in clique])
        else:
            depth -= 1
            continue
        rest[depth] = cands
        chosen[depth] = v
        depth += 1
        rest[depth] = below
    if stats is not None:
        stats["nodes"] = nodes


# --- glue code and invariants ---------------------------------------------


def glue_code(lattice, frame):
    """Image of L in (Z/4)^n via v -> ((v, x_i) mod 4) over the frame."""
    cols = [lattice.gram_row(x) for x in frame.vectors]  # cols[i][j] = 2 (e_j, x_i)
    if any(c % 2 for col in cols for c in col):
        raise ValueError("a glue code needs integral inner products with the frame")
    gens = [tuple(col[j] // 2 % 4 for col in cols) for j in range(lattice.rank)]
    return Z4Code.from_generators(frame.pair_count, gens)


def abelian_type(code):
    """(l, k) with the code isomorphic to 2^l x 4^k as an abelian group."""
    divisors = quotient_divisors(code.generators, 4)
    return divisors.count(2), divisors.count(4)


def frame_stabilizer(lattice, frame):
    """Monomial stabilizer of the glue code: all of W_X, exactly.

    Returns the search result: order = |W_X|, sign_order = |D_X| (the
    sign-only monomials), with generators as (sigma, signs) pairs.
    """
    return _code_stabilizer(glue_code(lattice, frame))


def _code_stabilizer(code):
    return stabilizer(code.sorted_words(), code.length, 4)


def frame_torus_divisors(lattice, frame, denom):
    """Elementary divisors of ((1/denom)M + L*)/L* for the frame span M, denom >= 1.

    v -> vG carries L* onto Z^n, so this is ((1/denom)MG + Z^n)/Z^n; row i
    of MG is gram_row(x_i) halved.  Scaled by 2*denom it is the subgroup
    of (Z/2*denom)^n spanned by the gram rows.
    """
    return quotient_divisors([lattice.gram_row(x) for x in frame.vectors], 2 * denom)


class FrameInvariants(
    namedtuple(
        "FrameInvariants",
        "pair_count two_rank four_rank sign_log2 glue_order monomial_order sign_order"
        " miyamoto_order pointwise_order torus_stab_divisors torus_stab_type"
        " torus_stab_order perm_image_order full_order",
    )
):
    """Exact invariants of one frame: glue-code shape and stabilizer orders.

    two_rank/four_rank are the (l, k) of the glue code 2^l x 4^k;
    sign_log2 is e with |D_X| = 2^e.  pointwise_order is the order of the
    subgroup fixing all 2n frame symbols, 2^(l+2k+e); the quotient by it
    is a sign wreath of the permutation image, of order perm_image_order =
    2^n * |W_X|/|D_X|; full_order is their product.  torus_stab_* describe
    ((1/8)M + L*)/L*, the frame-stabilizing part of the ambient torus.
    """

    __slots__ = ()


def frame_invariants(lattice, frame):
    """Compute every FrameInvariants field for a frame (search included)."""
    code = glue_code(lattice, frame)
    two_rank, four_rank = abelian_type(code)
    stab = _code_stabilizer(code)
    sign_log2 = stab.sign_order.bit_length() - 1
    verify(1 << sign_log2 == stab.sign_order, "sign subgroup order must be a power of two")
    n = frame.pair_count
    torus = frame_torus_divisors(lattice, frame, 8)
    pointwise = code.order * stab.sign_order
    perm_image = (1 << n) * (stab.order // stab.sign_order)
    return FrameInvariants(
        pair_count=n,
        two_rank=two_rank,
        four_rank=four_rank,
        sign_log2=sign_log2,
        glue_order=code.order,
        monomial_order=stab.order,
        sign_order=stab.sign_order,
        miyamoto_order=1 << four_rank,
        pointwise_order=pointwise,
        torus_stab_divisors=torus,
        torus_stab_type=type_string(torus),
        torus_stab_order=prod(torus),
        perm_image_order=perm_image,
        full_order=pointwise * perm_image,
    )


# --- the E8 table and census ----------------------------------------------

# The E8 builds below are cached for the process once a call completes; a
# build that runs out of budget raises, so it caches nothing.

_MAX_CENSUS_PROCESSES = 8  # the census walk uses at most this many processes


@cache
def _e8_graph():
    """The norm-4 graph of E8, shared by the representatives and the census."""
    return _norm4_graph(e8_lattice())


@cache
def e8_frame_representatives():
    """One E8 frame per glue-code class, keyed by four_rank k in 1..4.

    k = 1, 2, 3 come from the three marking classes of the [8,4] Hamming
    code; k = 4 is the first frame of the walk with pair-mask rank 4 (it
    is not realized by any marking).
    """
    e8 = e8_lattice()
    out = {}
    orbits, _ = classify_markings(hamming_code())
    for rep, _size in orbits:
        frame = frame_from_marking(e8, rep)
        _, k = abelian_type(glue_code(e8, frame))
        out[k] = frame
    verify(set(out) == {1, 2, 3}, f"marking classes gave unexpected ranks {sorted(out)}")
    graph = _e8_graph()
    found = next((c for c, k in _walk_frames(graph) if k == 4), None)
    verify(found is not None, "no rank-4 glue class found in E8")
    out[4] = graph.frame(found)
    return out


class FrameClass(namedtuple("FrameClass", "four_rank two_rank delta_type count representative")):
    """One census class: glue-code shape, count, and its first frame."""

    __slots__ = ()


class FrameCensus(namedtuple("FrameCensus", "classes total note nodes")):
    """Census classes, frame total, and walk nodes (cliques entered + exact fits)."""

    __slots__ = ()


def classify_e8_frames():
    """Exhaustive census of E8 frames, partitioned by glue-code class.

    Every frame is visited (symmetry is not quotiented) and classified by
    the F2-rank k of its pair-mask matrix, which determines the glue type
    2^(8-2k) x 4^k here, which the glue code of each class's first frame
    cross-checks.  The census runs no stabilizer search: callers check
    class size x |W_X| against the E8 isometry group order with the
    monomial_order of frame_invariants on the representative.

    The walk is split by depth-0 vertex v into the parts v % w, each
    walked with _walk_frames(graph, roots=part), where w is the number of
    CPUs this process may use, at most _MAX_CENSUS_PROCESSES;
    _split_census says where the parts run.  The merge is exact: counts
    and nodes add up, and each class's first clique is the largest of the
    parts' firsts, because the walk meets cliques in descending
    lexicographic order.  So the result does not depend on w.
    """
    return _classify_e8_frames(_census_processes())


def _census_processes():
    """The CPUs this process may use, at most _MAX_CENSUS_PROCESSES."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_CENSUS_PROCESSES)


def _classify_e8_frames(parts):
    """classify_e8_frames with the walk split into `parts` parts."""
    e8 = e8_lattice()
    graph = _e8_graph()
    counts, first, nodes = _split_census(graph, parts)

    classes = []
    for k in sorted(counts):
        frame = graph.frame(first[k])
        code = glue_code(e8, frame)
        two_rank, four_rank = abelian_type(code)
        verify(four_rank == k, "leaf rank disagrees with glue-code type")
        classes.append(
            FrameClass(
                four_rank=k,
                two_rank=two_rank,
                delta_type=type_string((2,) * two_rank + (4,) * four_rank),
                count=counts[k],
                representative=frame,
            )
        )
    note = (
        "Frames with k = 5 invariants exist only through the order formulas "
        "(no frame sublattice realizes them); the k = 4 class supports two "
        "inequivalent framings, so the frame classification above has four "
        "rows while the full framed-symmetry classification has five."
    )
    return FrameCensus(classes=tuple(classes), total=sum(counts.values()), note=note, nodes=nodes)


def _census_part(graph, roots):
    """(count by k, first clique by k, nodes) of the walk under roots."""
    counts = {}
    first = {}
    stats = {}
    for clique, k in _walk_frames(graph, stats, roots):
        if k in counts:
            counts[k] += 1
        else:
            counts[k] = 1
            first[k] = clique
    return counts, first, stats["nodes"]


def _split_census(graph, parts):
    """_census_part of the whole walk, merged from `parts` parts.

    Part i holds the depth-0 vertices v with v % parts == i.  Part 0 runs
    in this process.  When os.fork exists and no other thread is alive,
    every other part runs in a forked worker, which shares this process's
    pages copy-on-write and sends its result back over a pipe; otherwise
    the parts run here one after another.  classify_e8_frames states the
    merge rules.
    """
    n = len(graph.adj)
    roots = [sum(1 << v for v in range(i, n, parts)) for i in range(parts)]
    if parts > 1 and _may_fork():
        results = _forked_parts(graph, roots)
    else:
        results = [_census_part(graph, part) for part in roots]
    counts, first, nodes = {}, {}, 0
    for part_counts, part_first, part_nodes in results:
        for k, count in part_counts.items():
            counts[k] = counts.get(k, 0) + count
            first[k] = max(first.get(k, ()), part_first[k])
        nodes += part_nodes
    return counts, first, nodes


def _may_fork():
    """Whether the census may fork: os.fork exists and no other thread lives."""
    import threading  # here, not at the top: only the census needs it

    return hasattr(os, "fork") and threading.active_count() == 1


def _forked_parts(graph, roots):
    """_census_part of roots[0] here and of every other part in a worker.

    A worker inherits the budget deadline.  Its BudgetExceeded is raised
    here again; any other failure, an exit without a result included, is a
    VerificationError.  However this returns, no worker outlives it.
    """
    import signal

    workers = []  # [pid, read end of its result pipe]
    try:
        for part in roots[1:]:
            read, write = os.pipe()
            workers.append([None, read])
            try:
                pid = os.fork()
            except OSError:
                os.close(write)
                raise
            if not pid:
                os.close(read)
                _census_worker(graph, part, write)
            os.close(write)
            workers[-1][0] = pid
        results = [_census_part(graph, roots[0])]
        for worker in workers:
            pid, read = worker
            with open(read, "rb") as pipe:
                worker[1] = None
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            worker[0] = None
            try:
                tag, value = marshal.loads(data)
            except (EOFError, ValueError, TypeError):
                tag, value = "error", f"no result, exit status {os.waitstatus_to_exitcode(status)}"
            if tag == "budget":
                raise budget.BudgetExceeded(value)
            verify(tag == "ok", f"census worker failed: {value}")
            results.append(value)
        return results
    finally:
        for pid, read in workers:
            if read is not None:
                os.close(read)
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)


def _census_worker(graph, roots, write):
    """In a forked worker: send (tag, value) for one part, then exit.

    The worker never returns into its parent's stack: whatever happens,
    it leaves through os._exit, and without a result on anything that
    is not an Exception.
    """
    status = 1
    try:
        try:
            outcome = ("ok", _census_part(graph, roots))
        except budget.BudgetExceeded as exc:
            outcome = ("budget", str(exc))
        except Exception as exc:
            outcome = ("error", f"{type(exc).__name__}: {exc}")
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


# --- order formulas ---------------------------------------------------------


def agl2_order(n):
    """|AGL(n, 2)| = 2^n |GL(n, 2)|."""
    return (1 << n) * gl2_order(n)


def order_sym_wr_agl(k):
    """|Sym_d wr AGL(k-1, 2)| with d = 2^(5-k), the permutation part
    of the length-16 frame stabilizer for the k-th nested code."""
    if not 1 <= k <= 5:
        raise ValueError("k must be in 1..5")
    d = 1 << (5 - k)
    return factorial(d) ** (1 << (k - 1)) * agl2_order(k - 1)


@cache
def _e8_gc_orders():
    e8 = e8_lattice()
    out = {}
    for k, frame in e8_frame_representatives().items():
        inv = frame_invariants(e8, frame)
        out[k] = inv.pointwise_order
    return out


def frame_group_order(k):
    """Full stabilizer order of the k-th standard 16-pair frame.

    The pointwise part is the computed E8 value for k <= 4 and 2^5 for
    k = 5 (where the pointwise and sign groups coincide); the quotient is
    the wreath product counted by order_sym_wr_agl.
    """
    if not 1 <= k <= 5:
        raise ValueError("k must be in 1..5")
    gc = 32 if k == 5 else _e8_gc_orders()[k]
    return gc * order_sym_wr_agl(k)
