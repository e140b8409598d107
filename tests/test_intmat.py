import random
from fractions import Fraction

from vftk.intmat import (
    det,
    hnf,
    hnf_basis,
    identity,
    inverse,
    is_unimodular,
    mat_mul,
    snf,
    snf_divisors,
)


def random_matrix(rng, m, n, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))


def verify_snf(a):
    d, u, v = snf(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert is_unimodular(u)
    assert is_unimodular(v)
    m, n = len(a), len(a[0])
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    return diag


def verify_hnf(a):
    h, u = hnf(a)
    assert mat_mul(u, a) == h
    assert is_unimodular(u)
    # echelon shape: leading columns strictly increase, zero rows last
    leads = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        leads.append(nz[0] if nz else None)
    seen_zero = False
    prev = -1
    for lead in leads:
        if lead is None:
            seen_zero = True
            continue
        assert not seen_zero
        assert lead > prev
        prev = lead
    return h


def test_snf_random_square():
    rng = random.Random(1)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        verify_snf(a)


def test_snf_known():
    a = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
    d, u, v = snf(a)
    assert [d[i][i] for i in range(3)] == [2, 2, 156]
    assert snf_divisors(a) == (2, 2, 156)


def test_snf_rectangular():
    rng = random.Random(2)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        verify_snf(a)


def test_hnf_random():
    rng = random.Random(3)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        verify_hnf(a)


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
        exact = det(tuple(tuple(Fraction(x) for x in r) for r in a))
        assert det(a) == exact


def test_inverse_roundtrip():
    rng = random.Random(6)
    done = 0
    while done < 20:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        if det(a) == 0:
            continue
        assert mat_mul(a, inverse(a)) == identity(n)
        done += 1
