import random
from fractions import Fraction

import pytest

from vftk.abelian import (
    quotient_divisors,
    rational_row_basis,
    type_counts,
    type_string,
)
from vftk.intmat import det, hnf_basis, mat_mul, snf_divisors


def test_quotient_of_standard_lattice():
    sup = [(1, 0), (0, 1)]
    sub = [(2, 0), (0, 4)]
    assert quotient_divisors(sup, sub) == (2, 4)
    assert quotient_divisors(sup, sup) == ()


def test_quotient_rational():
    half = Fraction(1, 2)
    sup = [(half, 0), (0, half)]
    sub = [(1, 0), (0, 1)]
    assert quotient_divisors(sup, sub) == (2, 2)


def test_quotient_requires_containment():
    with pytest.raises(ValueError):
        quotient_divisors([(1, 0), (0, 1)], [(Fraction(1, 2), 0), (0, 1)])
    with pytest.raises(ValueError):
        quotient_divisors([(1, 0)], [(1, 5)])


def test_quotient_non_diagonal():
    sup = [(1, 0), (0, 1)]
    sub = [(1, 1), (1, -1)]  # index 2
    assert quotient_divisors(sup, sub) == (2,)


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
        assert quotient_divisors(sup, sub) == expected
        d = rng.randint(2, 9)
        scaled = [[tuple(Fraction(v, d) for v in r) for r in rows] for rows in (sup, sub)]
        assert quotient_divisors(*scaled) == expected
        # sub[0] + sup[0] / 2 is in the rational span of sup but not in span(sup);
        # it keeps the rank unless X with e_0 / 2 added to its first row is singular
        bad = [tuple(a + Fraction(b, 2) for a, b in zip(sub[0], sup[0]))] + list(sub[1:])
        doubled = [tuple(2 * v + (i == 0) for i, v in enumerate(x[0]))] + list(x[1:])
        with pytest.raises(ValueError, match="not contained" if det(doubled) else "ranks differ"):
            quotient_divisors(sup, bad)
        # a unit vector outside the rational span of sup
        for e in ([int(i == j) for j in range(n)] for i in range(n)):
            if len(hnf_basis(sup + [e])) > k:
                off = [tuple(a + b for a, b in zip(sub[0], e))] + list(sub[1:])
                with pytest.raises(ValueError, match="not contained"):
                    quotient_divisors(sup, off)
                break
    assert ranks == {True, False}


def test_rational_row_basis_dedups():
    rows = [(Fraction(1, 2), 0), (1, 0), (Fraction(3, 2), 0)]
    basis = rational_row_basis(rows)
    assert basis == ((Fraction(1, 2), Fraction(0)),)


def test_type_helpers():
    assert type_counts((2, 4, 4)) == {2: 1, 4: 2}
    assert type_string((2, 4, 4)) == "2 x 4^2"
    assert type_string(()) == "1"
