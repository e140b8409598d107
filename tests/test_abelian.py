import random
from fractions import Fraction
from math import gcd, prod

import pytest

from oracles import quotient_divisors_general
from vftk.abelian import quotient_divisors, rational_row_basis, type_string
from vftk.intmat import det, hnf_basis, mat_mul, snf_divisors


def test_quotient_of_standard_lattice():
    sup = [(1, 0), (0, 1)]
    sub = [(2, 0), (0, 4)]
    assert quotient_divisors_general(sup, sub) == (2, 4)
    assert quotient_divisors_general(sup, sup) == ()


def test_quotient_rational():
    half = Fraction(1, 2)
    sup = [(half, 0), (0, half)]
    sub = [(1, 0), (0, 1)]
    assert quotient_divisors_general(sup, sub) == (2, 2)


def test_quotient_requires_containment():
    with pytest.raises(ValueError):
        quotient_divisors_general([(1, 0), (0, 1)], [(Fraction(1, 2), 0), (0, 1)])
    with pytest.raises(ValueError):
        quotient_divisors_general([(1, 0)], [(1, 5)])


def test_quotient_non_diagonal():
    sup = [(1, 0), (0, 1)]
    sub = [(1, 1), (1, -1)]  # index 2
    assert quotient_divisors_general(sup, sub) == (2,)


def _independent_rows(rng, k, n):
    while True:
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        if len(hnf_basis(rows)) == k:
            return rows


def test_quotient_divisors_against_snf_of_transform():
    # span(sup) / span(X sup) is Z^k / Z^k X, whose divisors are X's
    rng = random.Random(11)
    ranks = set()
    for _ in range(80):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        ranks.add(k == n)
        sup = _independent_rows(rng, k, n)
        x = _independent_rows(rng, k, k)
        sub = mat_mul(x, sup)
        expected = tuple(d for d in snf_divisors(x) if d > 1)
        assert quotient_divisors_general(sup, sub) == expected
        d = rng.randint(2, 9)
        scaled = [[tuple(Fraction(v, d) for v in r) for r in rows] for rows in (sup, sub)]
        assert quotient_divisors_general(*scaled) == expected
        # sub[0] + sup[0] / 2 is in the rational span of sup but not in span(sup);
        # it keeps the rank unless X with e_0 / 2 added to its first row is singular
        bad = [tuple(a + Fraction(b, 2) for a, b in zip(sub[0], sup[0]))] + list(sub[1:])
        doubled = [tuple(2 * v + (i == 0) for i, v in enumerate(x[0]))] + list(x[1:])
        with pytest.raises(ValueError, match="not contained" if det(doubled) else "ranks differ"):
            quotient_divisors_general(sup, bad)
        # a unit vector outside the rational span of sup
        for e in ([int(i == j) for j in range(n)] for i in range(n)):
            if len(hnf_basis(sup + [e])) > k:
                off = [tuple(a + b for a, b in zip(sub[0], e))] + list(sub[1:])
                with pytest.raises(ValueError, match="not contained"):
                    quotient_divisors_general(sup, off)
                break
    assert ranks == {True, False}


def _random_rows(rng, m, n):
    """m rows of width n: random, zero, or a combination of earlier rows."""
    bound = rng.choice((1, 3, 80))
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.1:
            rows.append((0,) * n)
        elif kind < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            rows.append(tuple(rng.randint(-bound, bound) for _ in range(n)))
    return rows


def _span_mod(rows, n, c):
    """The subgroup of (Z/c)^n spanned by rows, by closure."""
    group = {(0,) * n}
    for r in rows:
        r = tuple(x % c for x in r)
        while True:
            grown = group | {tuple((x + y) % c for x, y in zip(g, r)) for g in group}
            if grown == group:
                break
            group = grown
    return group


def test_quotient_divisors_matches_general_quotient():
    """(span(R) + cZ^n)/cZ^n by one Smith form equals the general quotient
    of R + cI by cI; for n <= 3 and c <= 8 the divisors also count the
    subgroup and its t-torsion, found by closure in (Z/c)^n."""
    rng = random.Random(25)
    cases, closures = set(), 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        m = rng.randint(0, 8)
        c = rng.choice((1, 2, 3, 4, 8, rng.randint(1, 64)))
        rows = _random_rows(rng, m, n)
        hits = {"m < n": m < n, "m > n": m > n, "m = 0": not m, "c = 1": c == 1}
        cases |= {case for case, hit in hits.items() if hit}
        ci = [tuple(c * (i == j) for j in range(n)) for i in range(n)]
        got = quotient_divisors(rows, c)
        assert got == quotient_divisors_general(rows + ci, ci)
        if n <= 3 and c <= 8:
            closures += 1
            group = _span_mod(rows, n, c)
            assert prod(got) == len(group)
            for t in (t for t in range(1, c + 1) if c % t == 0):
                torsion = sum(all(t * x % c == 0 for x in g) for g in group)
                assert torsion == prod(gcd(t, q) for q in got)
    assert cases == {"m < n", "m > n", "m = 0", "c = 1"}
    assert closures > 300


def test_quotient_divisors_needs_a_positive_modulus():
    for modulus in (0, -4):
        with pytest.raises(ValueError):
            quotient_divisors([(1, 2), (0, 4)], modulus)


def test_rational_row_basis_dedups():
    rows = [(Fraction(1, 2), 0), (1, 0), (Fraction(3, 2), 0)]
    basis = rational_row_basis(rows)
    assert basis == ((Fraction(1, 2), Fraction(0)),)


def test_type_helpers():
    assert type_string((2, 4, 4)) == "2 x 4^2"
    assert type_string(()) == "1"
