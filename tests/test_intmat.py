import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from oracles import det_gauss, hnf_euclid, inverse_gauss_jordan
from vftk import budget
from vftk.budget import BudgetExceeded
from vftk.intmat import (
    block_diagonal,
    det,
    hnf,
    hnf_basis,
    identity,
    inverse,
    mat_mul,
    snf,
    snf_divisors,
)

# no result after 30 s from a Smith form that eliminates pivot by pivot
# without keeping the other entries reduced
STALLS_PIVOT_SNF = (
    (0, 3, 3, -9, 0, -10),
    (-5, 6, -5, 11, -5, -6),
    (0, -11, -5, -11, 0, 1),
    (-8, 3, -9, 10, -8, 0),
    (4, 4, 0, 0, -12, -10),
    (7, 5, -11, 7, 0, 5),
)


def random_matrix(rng, m, n, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))


def random_oracle_matrix(rng, m, n):
    """Entries in [-12, 12]; one draw in three has rank < min(m, n)."""
    if rng.randrange(3):
        return random_matrix(rng, m, n, -12, 12)
    r = rng.randrange(min(m, n))
    if r == 0:
        return tuple((0,) * n for _ in range(m))
    return mat_mul(random_matrix(rng, m, r, -3, 3), random_matrix(rng, r, n, -3, 3))


def verify_snf(a):
    # the budget turns a stalled Smith form into a failure, not a hang
    with budget.limit(2):
        d, u = snf(a)
    m, n = len(a), len(a[0]) if a else 0
    assert len(d) == min(m, n)
    assert len(u) == m and all(len(row) == m for row in u)
    assert abs(det(u)) == 1
    diag = list(d)
    for i in range(len(diag)):
        assert diag[i] >= 0
        if i and diag[i - 1] == 0:
            assert diag[i] == 0
        elif i:
            assert diag[i] % diag[i - 1] == 0
    # u a = [D_r Q; 0]; a unimodular v with u a v = diag(d) exists iff the
    # quotient rows Q are primitive, i.e. their r x r minors have gcd 1
    r = len(diag) - diag.count(0)
    ua = mat_mul(u, a)
    assert all(x % diag[i] == 0 for i in range(r) for x in ua[i])
    assert not any(x for row in ua[r:] for x in row)
    if r:
        assert minor_gcds([[x // diag[i] for x in ua[i]] for i in range(r)])[-1] == 1
    assert snf_divisors(a) == tuple(x for x in diag if x)
    return diag


def minor_gcds(a):
    """g_k = gcd of the k x k minors of a, for k = 1 .. min(m, n)."""
    m, n = len(a), len(a[0])
    return [
        gcd(*(det([[a[i][j] for j in cols] for i in rows])
              for rows in combinations(range(m), k) for cols in combinations(range(n), k)))
        for k in range(1, min(m, n) + 1)
    ]


def verify_hnf(a):
    # the HNF of [a | I] is [H | U] with U a = H, H = hnf(a) and U unimodular
    m, n = len(a), len(a[0]) if a else 0
    h = hnf(a)
    hu = hnf([tuple(row) + e for row, e in zip(a, identity(m))])
    u = tuple(row[n:] for row in hu)
    assert len(h) == m and len(u) == m
    assert tuple(row[:n] for row in hu) == h
    if m and n:
        assert mat_mul(u, a) == h
    assert abs(det(u)) == 1
    # echelon shape: leading columns strictly increase, zero rows last
    leads = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        leads.append(nz[0] if nz else None)
    seen_zero = False
    prev = -1
    for i, lead in enumerate(leads):
        if lead is None:
            seen_zero = True
            continue
        assert not seen_zero
        assert lead > prev
        prev = lead
        # a positive pivot, with every entry above it in [0, pivot)
        assert h[i][lead] > 0
        assert all(0 <= h[r][lead] < h[i][lead] for r in range(i))
    return h


def test_block_diagonal():
    a, b = ((1, 2), (3, 4)), ((5,),)
    expected = ((1, 2, 0), (3, 4, 0), (0, 0, 5))
    assert block_diagonal(a, b) == expected
    # an empty identity tail adds nothing
    assert block_diagonal(a, b, identity(0)) == expected
    assert block_diagonal(a, identity(2)) == ((1, 2, 0, 0), (3, 4, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert block_diagonal() == ()


def test_snf_random_square():
    # the divisors against the determinantal divisors: d_1 ... d_k = g_k
    rng = random.Random(1)
    for _ in range(150):
        n = rng.randint(1, 6)
        a = random_oracle_matrix(rng, n, n)
        diag = verify_snf(a)
        if n <= 4:
            assert [prod(diag[:k]) for k in range(1, n + 1)] == minor_gcds(a)


def test_snf_known():
    a = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
    d, u = snf(a)
    assert d == (2, 2, 156)
    assert snf_divisors(a) == (2, 2, 156)


def test_snf_rectangular():
    rng = random.Random(2)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_oracle_matrix(rng, m, n)
        diag = verify_snf(a)
        if max(m, n) <= 4:
            assert [prod(diag[:k]) for k in range(1, min(m, n) + 1)] == minor_gcds(a)
    # the empty shapes: 0 x n is (), m x 0 keeps its m empty rows
    assert snf(()) == ((), ())
    assert snf(((),) * 3) == ((), identity(3))
    assert verify_snf(((),) * 3) == []


def test_snf_stalling_input_finishes():
    start = time.monotonic()
    with budget.limit(1):
        snf(STALLS_PIVOT_SNF)
    assert time.monotonic() - start < 1
    assert verify_snf(STALLS_PIVOT_SNF) == [1, 1, 1, 1, 1, 1940100]
    assert abs(det(STALLS_PIVOT_SNF)) == 1940100


def test_snf_passed_deadline_raises():
    with pytest.raises(BudgetExceeded), budget.limit(0):
        snf(STALLS_PIVOT_SNF)


def test_hnf_random():
    # rectangular and rank-deficient shapes up to 8 x 8: H, and [H | U] of
    # [a | I], equal those of the column-wise Euclid reference
    rng = random.Random(3)
    for _ in range(300):
        a = random_oracle_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert verify_hnf(a) == hnf_euclid(a)
        with_identity = [tuple(row) + e for row, e in zip(a, identity(len(a)))]
        assert hnf(with_identity) == hnf_euclid(with_identity)
    assert hnf(()) == ()
    assert hnf(((),) * 3) == ((),) * 3


def test_hnf_passed_deadline_raises():
    with pytest.raises(BudgetExceeded), budget.limit(0):
        hnf(STALLS_PIVOT_SNF)


def test_hnf_large_entries_finish():
    # column-wise Euclid gave no result after 20 s: its trailing entries grow
    # with every division; row insertion keeps them reduced by the pivots
    rng = random.Random(30)
    a = tuple(tuple(rng.randint(-10**6 + 1, 10**6 - 1) for _ in range(30)) for _ in range(30))
    with budget.limit(1):
        h = verify_hnf(a)
    assert prod(h[i][i] for i in range(30)) == abs(det(a))


def test_hnf_basis_spans_same_lattice():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        if det(a) == 0:
            continue
        mult = tuple(tuple(x for x in row) for row in mat_mul(random_unimodular(rng, n), a))
        assert hnf_basis(a) == hnf_basis(mult)


def random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return tuple(map(tuple, m))


def test_det_vs_fraction_gauss():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        exact = det_gauss(a)
        assert det(a) == exact


def test_det_vs_fraction_gauss_with_swaps():
    # singular matrices, and zero leading pivots that need a row swap
    rng = random.Random(7)
    swapped = singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        a = [list(row) for row in random_oracle_matrix(rng, n, n)]
        for i in rng.sample(range(n), rng.randint(0, n)):
            a[i][i] = 0
        if rng.randrange(3) == 0:  # a zero block atop the first column
            for row in a[: rng.randint(1, n)]:
                row[0] = 0
        exact = det_gauss(a)
        assert det(a) == exact
        singular += exact == 0
        swapped += a[0][0] == 0 and exact != 0
    assert det(()) == 1 and det([[0]]) == 0
    assert det(((0, 1), (1, 0))) == -1 and det(((0, 0, 1), (0, 1, 0), (1, 0, 0))) == -1
    assert singular >= 50 and swapped >= 30


def test_det_rejects_non_int_entries():
    with pytest.raises(TypeError):
        det(((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))))
    with pytest.raises(TypeError):
        det(((2, Fraction(1, 2)), (0, 1)))


def test_inverse_roundtrip():
    # unimodular products of elementary matrices, each with a sign flip and
    # a row swap half the time, against the Fraction Gauss-Jordan inverse
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [list(row) for row in random_unimodular(rng, n)]
        if rng.randrange(2):
            i = rng.randrange(n)
            a[i] = [-x for x in a[i]]
        if n > 1 and rng.randrange(2):
            i, j = rng.sample(range(n), 2)
            a[i], a[j] = a[j], a[i]
        a = tuple(map(tuple, a))
        inv = inverse(a)
        assert mat_mul(a, inv) == identity(n)
        assert mat_mul(inv, a) == identity(n)
        assert inv == inverse_gauss_jordan(a)
    assert inverse(()) == ()


def test_inverse_rejects_non_unimodular():
    rng = random.Random(8)
    done = 0
    while done < 20:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        if abs(det(a)) < 2:
            continue
        inverse_gauss_jordan(a)  # invertible over Q
        with pytest.raises(ValueError):
            inverse(a)
        done += 1
    for a in (((2, 0), (0, 1)), ((1, 2), (2, 4)), ((0,),), ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(ValueError):
            inverse(a)
