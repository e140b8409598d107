"""Workload ops and the seeded input generator for the vftk benchmark.

Only ``small-reports`` depends on the seed.  Its inputs are made here with
the benchmark's own integer arithmetic, never with vftk, and the program
receives only the generated files:

* frames: the four E8 class representatives, moved by a seeded word in
  root reflections and written in a seeded unimodular change of basis;
* Grams: seeded positive-definite even matrices of rank 1-4 with a fixed
  determinant per slot, whose glue order (det^2 for odd det, det^4 for
  even det: the order of the glue group ``unimodularize`` builds) is at
  most ``GLUE_CAP``.  Inputs are never filtered on whether an op succeeds.

Every pass has the same composition (op kinds, frame classes, Gram ranks,
determinants and modes); the seed picks the instances.  That keeps the
work of one pass comparable between seeds.
"""

import os
import random
from dataclasses import dataclass, field

# E8 in the basis vftk builds from the [8,4,4] Hamming code (inner products)
E8_GRAM = (
    (2, 1, 1, 1, 1, 1, 1, 0),
    (1, 2, 1, 1, 1, 1, 0, 1),
    (1, 1, 2, 1, 1, 0, 1, 1),
    (1, 1, 1, 2, 0, 0, 0, 0),
    (1, 1, 1, 0, 2, 1, 1, 1),
    (1, 1, 0, 0, 1, 2, 0, 0),
    (1, 0, 1, 0, 1, 0, 2, 0),
    (0, 1, 1, 0, 1, 0, 0, 2),
)

# one frame per glue class, keyed by the 4-rank k of the glue code
E8_FRAMES = {
    1: (
        (2, 2, 0, -2, 0, -2, -1, -1), (2, -2, 0, 0, 0, 0, -1, 1),
        (0, 0, 2, 0, 0, 0, -1, -1), (0, 0, 2, -2, 0, 0, -1, -1),
        (0, 0, 0, 0, 2, 0, -1, -1), (0, 0, 0, 0, 2, -2, -1, -1),
        (0, 0, 0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 0, 1, -1),
    ),
    2: (
        (2, 2, 0, -2, 0, -2, -1, -1), (2, -2, 0, 0, 0, 0, -1, 1),
        (0, 0, 2, 0, 0, 0, -1, -1), (0, 0, 2, -2, 0, 0, -1, -1),
        (0, 0, 0, 0, 2, -1, 0, -1), (0, 0, 0, 0, 2, -1, -2, -1),
        (0, 0, 0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 0, 1, 0, -1),
    ),
    3: (
        (2, 2, 0, -2, 0, -2, -1, -1), (2, -2, 0, 0, 0, 0, -1, 1),
        (0, 0, 2, -1, 2, -1, -2, -2), (0, 0, 2, -1, -2, 1, 0, 0),
        (0, 0, 0, 1, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 0, 1, 0, -1),
    ),
    4: (
        (0, 0, 0, 0, 0, 0, 1, -1), (0, 0, 0, 1, -2, 1, 1, 1),
        (0, 2, -2, 0, 0, -1, 1, 0), (1, -1, -1, 0, -1, 0, 0, 1),
        (1, -1, -1, 1, 1, -1, 0, 1), (1, 1, 1, -2, -1, -1, 0, 0),
        (1, 1, 1, -1, 1, -2, -2, -2), (2, 0, 0, -1, 0, 0, -1, 0),
    ),
}

# largest glue order a generated Gram may have: D4 (glue 256) takes ~2 s
# in definite mode, while [[2,0],[0,6]] (glue 20736) takes ~60 s
GLUE_CAP = 256
REFLECTIONS = 24
BASIS_MOVES = 10
# frame-invariants ops are most of a pass, so the median op is one of them
FRAMES_PER_CLASS = 6
# (rank, det) of the Grams each pass draws; the seed picks the matrices.
# Fixing the determinants keeps the work per pass steady between seeds.
UNIMODULAR_STRATA = {
    "definite": ((1, 2), (2, 4), (3, 4), (4, 5)),
    "hyperbolic": ((2, 7), (4, 4)),
    "prime-power": ((2, 3), (4, 5)),
}
HAT_STRATA = ((2, 3), (4, 4))


@dataclass
class Op:
    """One CLI invocation and what the verifier needs to judge it."""

    argv: list
    kind: str
    expect: dict = field(default_factory=dict)


# --- exact integer arithmetic ------------------------------------------------


def inner(gram, x, y):
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def det(m):
    """Determinant of a square integer matrix (Bareiss, exact)."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def is_positive_definite(gram):
    """Sylvester's criterion on the Bareiss pivots (the leading minors)."""
    a = [list(r) for r in gram]
    n, prev = len(a), 1
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return True


def glue_order(d):
    """Order of the glue group unimodularize builds for a Gram of determinant d."""
    return d**2 if d % 2 else d**4


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def transpose(a):
    return tuple(zip(*a))


def random_unimodular(rng, n, moves):
    """(U, U^-1): a product of seeded elementary integer row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [row[:] for row in u]
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # U <- E U with E = I + c e_ij; U^-1 <- U^-1 E^-1 (column j -= c column i)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in v:
            row[j] -= c * row[i]
        if rng.random() < 0.3:
            u[i] = [-a for a in u[i]]
            for row in v:
                row[i] = -row[i]
    u, v = tuple(map(tuple, u)), tuple(map(tuple, v))
    if mat_mul(u, v) != tuple(tuple(int(i == j) for j in range(n)) for i in range(n)):
        raise AssertionError("basis change is not unimodular")
    return u, v


def e8_roots(gram=E8_GRAM):
    """Norm-2 vectors with coordinates in {-1, 0, 1} (E8 roots)."""
    n = len(gram)
    roots = []
    for code in range(3**n):
        x = []
        for _ in range(n):
            code, r = divmod(code, 3)
            x.append(r - 1)
        if inner(gram, x, x) == 2:
            roots.append(tuple(x))
    return roots


def rotated_frame(rng, roots, k):
    """(Gram, frame rows) of a class-k E8 frame moved by a seeded isometry."""
    gram = E8_GRAM
    frame = [list(v) for v in E8_FRAMES[k]]
    for _ in range(REFLECTIONS):
        a = rng.choice(roots)
        # reflection in a norm-2 root: x -> x - (x, a) a
        for x in frame:
            c = inner(gram, x, a)
            for t in range(len(x)):
                x[t] -= c * a[t]
    u, u_inv = random_unimodular(rng, len(gram), BASIS_MOVES)
    new_gram = mat_mul(mat_mul(u, gram), transpose(u))
    new_frame = mat_mul(tuple(map(tuple, frame)), u_inv)
    for i, x in enumerate(new_frame):
        if inner(new_gram, x, x) != 4 or any(inner(new_gram, x, y) for y in new_frame[:i]):
            raise AssertionError("moved frame is not a norm-4 frame")
    return new_gram, new_frame


def random_even_gram(rng, rank, target_det):
    """Seeded positive-definite even Gram with the given rank and determinant."""
    if glue_order(target_det) > GLUE_CAP:
        raise ValueError(f"det {target_det} exceeds the glue cap")
    while True:
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            g[i][i] = rng.choice((2, 2, 2, 4))
            for j in range(i):
                g[i][j] = g[j][i] = rng.choice((-1, 0, 0, 1))
        g = tuple(map(tuple, g))
        if det(g) == target_det and is_positive_definite(g):
            return g


def smallest_twist_prime(gram):
    """Smallest prime s with s == -1 mod 2 det."""
    m = 2 * abs(det(gram))
    s = 2
    while (s + 1) % m or not _is_prime(s):
        s += 1
    return s


def _is_prime(m):
    return m >= 2 and all(m % f for f in range(2, int(m**0.5) + 1))


# --- files -------------------------------------------------------------------


def write_rows(path, rows):
    """A Gram or frame file: the row count, then one integer row per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))


# --- workloads ---------------------------------------------------------------


def e8_census_ops(seed, workdir):
    return [Op(["e8-frames", "--census"], "e8-census")]


def f2quad_op(n):
    return Op(["f2quad", "--n", str(n), "--exhaustive"], "f2quad", {"n": n})


def f2quad_census_ops(seed, workdir):
    # n=5 alone: the sub-second n=4 and n=3 ops run in small-reports, where
    # the median op is not one of them (their latency swings with the host)
    return [f2quad_op(5)]


def small_reports_ops(seed, workdir):
    """One pass of the seeded small-op stream (files go to workdir)."""
    rng = random.Random(seed)
    roots = e8_roots()
    ops = []

    def path(name):
        return os.path.join(workdir, f"{len(ops):03d}-{name}")

    for k in (1, 2, 3, 4) * FRAMES_PER_CLASS:
        gram, frame = rotated_frame(rng, roots, k)
        gp, fp = path("e8.gram"), path(f"k{k}.frame")
        write_rows(gp, gram)
        write_rows(fp, frame)
        ops.append(Op(["frame-invariants", "--gram", gp, "--frame", fp], "frame-invariants", {"k": k}))
    for mode, strata in UNIMODULAR_STRATA.items():
        for rank, d in strata:
            gram = random_even_gram(rng, rank, d)
            gp = path(f"r{rank}.gram")
            write_rows(gp, gram)
            expect = {"gram": gram, "mode": mode}
            if mode == "prime-power":
                expect["twist_prime"] = smallest_twist_prime(gram)
            ops.append(Op(["unimodularize", "--gram", gp, "--mode", mode], "unimodularize", expect))
    hat_grams = [random_even_gram(rng, rank, d) for rank, d in HAT_STRATA]
    hat_grams.append(rotated_frame(rng, roots, 1)[0])
    for gram in hat_grams:
        gp = path(f"r{len(gram)}.gram")
        write_rows(gp, gram)
        ops.append(Op(["hat-verify", "--gram", gp], "hat-verify", {"gram": gram}))
    ops += [
        Op(["markings", "--code", "h8"], "markings"),
        Op(["miyamoto"], "miyamoto"),
        Op(["stabilizer-orders", "--k", "5"], "stabilizer-orders-k5"),
        f2quad_op(4),
        f2quad_op(3),
    ]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "e8-census": e8_census_ops,
    "f2quad-census": f2quad_census_ops,
    "small-reports": small_reports_ops,
}

