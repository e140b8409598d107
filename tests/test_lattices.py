"""Lattice core: Gram arithmetic, construction A, short vectors, discriminants."""

import random
from fractions import Fraction
from math import prod

import pytest

import oracles
from oracles import short_vectors_box
from vftk import budget
from vftk.abelian import prime_factors
from vftk.budget import BudgetExceeded
from vftk.f2codes import BinaryCode, hamming_code
from vftk.intmat import _bareiss, det, mat_mul, transpose, vec_mat
from vftk.lattices import (
    IntegralLattice,
    _lll,
    ambient_to_basis,
    direct_sum,
    discriminant_group,
    e8_lattice,
    lattice_from_code,
    short_vectors,
)
from vftk.unimodular import definite_automorphisms, unimodularize

A1 = IntegralLattice.from_gram([[2]])
A2 = IntegralLattice.from_gram([[2, -1], [-1, 2]])


def test_gram_basics():
    assert A2.is_integral and A2.is_even and A2.is_definite
    assert A2.determinant() == 3
    assert A2.norm((1, 0)) == 2
    assert A2.inner((1, 0), (0, 1)) == -1
    odd = IntegralLattice.from_gram([[1]])
    assert odd.is_integral and not odd.is_even


def test_is_isometry():
    auts = oracles.matrix_group(2, definite_automorphisms(A2).generators)
    assert len(auts) == 12
    assert all(A2.is_isometry(w) for w in auts)
    assert not A2.is_isometry(((1, 1), (0, 1)))  # a shear
    assert not A2.is_isometry(((1, 0),))
    assert not A2.is_isometry(((1, 0, 0), (0, 1, 0)))


def test_gram_validation():
    with pytest.raises(ValueError):
        IntegralLattice([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        IntegralLattice([[0, 1, 0], [1, 0, 0]])
    # non-integer entries are refused, not truncated to gram2 ((4,),) or ((5,),)
    for build in (
        lambda: IntegralLattice([[Fraction(9, 2)]]),
        lambda: IntegralLattice.from_gram([[2.7]]),
        lambda: IntegralLattice([[4.0]]),
        lambda: IntegralLattice.from_gram([[2, Fraction(1, 2)], [Fraction(1, 2), 2]]),
    ):
        with pytest.raises(ValueError, match="integers"):
            build()


def test_direct_sum():
    s = direct_sum(A1, A2)
    assert s.rank == 3
    assert s.determinant() == 6
    assert s.inner((1, 0, 0), (0, 1, 0)) == 0


def test_e8_from_hamming_code():
    e8 = e8_lattice()
    assert e8.rank == 8
    assert e8.is_even
    assert e8.determinant() == 1
    assert len(short_vectors(e8, 2)) == 240
    assert len(short_vectors(e8, 4)) == 2160
    assert discriminant_group(e8).orders == ()


def test_construction_a_zero_code():
    # no code words except 0: the lattice is 2Z^n with (u,v) = u.v/2
    zero = BinaryCode.from_rows(3, [])
    lat = lattice_from_code(zero)
    assert lat.gram2 == ((4, 0, 0), (0, 4, 0), (0, 0, 4))
    assert lat.determinant() == 8


def test_construction_a_even_iff_doubly_even():
    # the [2,1] repetition code is not doubly even; its lattice is odd
    rep = BinaryCode.from_rows(2, [0b11])
    lat = lattice_from_code(rep)
    assert lat.is_integral and not lat.is_even
    # det = 2^(n - 2 dim): this one is odd unimodular
    assert lat.determinant() == 1


def test_ambient_coordinates():
    e8 = e8_lattice()
    n = e8.rank
    for i, row in enumerate(e8.ambient_rows):
        assert ambient_to_basis(e8, row) == tuple(int(j == i) for j in range(n))
    with pytest.raises(ValueError):
        ambient_to_basis(e8, (1,) + (0,) * 7)  # weight-1 residue is not a code word
    with pytest.raises(ValueError):
        ambient_to_basis(A1, (1,))


def test_dual_membership():
    for lat in (A1, A2, e8_lattice()):
        for row in oracles.dual_basis_rows(lat):
            assert oracles.in_dual(lat, row)
    assert not oracles.in_dual(A1, (Fraction(1, 3),))


def test_discriminant_a1():
    dg = discriminant_group(A1)
    assert dg.orders == (2,)
    (g,) = oracles.generators(dg)
    assert oracles.q(dg, g) == Fraction(1, 2)
    assert oracles.in_dual(A1, g)


def test_discriminant_a2():
    dg = discriminant_group(A2)
    assert dg.orders == (3,)
    (g,) = oracles.generators(dg)
    assert oracles.in_dual(A2, g)
    assert tuple(3 * x for x in g) == (3 * g[0], 3 * g[1])
    assert all((3 * x).denominator == 1 for x in g)
    assert oracles.q(dg, g) in (Fraction(2, 3), Fraction(4, 3))
    assert oracles.b(dg, g, g) == oracles.q(dg, g) % 1


def test_discriminant_rescaled():
    lat = IntegralLattice.from_gram([[4, 0], [0, 4]])
    dg = discriminant_group(lat)
    assert dg.orders == (4, 4)
    for g in oracles.generators(dg):
        assert oracles.q(dg, g) == Fraction(1, 4)
    # all sixteen elements, with exact q values
    vals = {}
    for a in range(4):
        for b in range(4):
            v = oracles.element(dg, (a, b))
            vals[(a, b)] = oracles.q(dg, v)
    assert vals[(0, 0)] == 0
    assert vals[(2, 2)] == 2 % 2


def test_discriminant_generators_pinned():
    # diag(4, 6) is diagonal already, so the gcd/lcm step alone makes the
    # orders (2, 12); the generators are rows of its row transform over d_i,
    # ((1, -1/2), (-1/4, 1/6))
    dg = discriminant_group(IntegralLattice.from_gram([[4, 0], [0, 6]]))
    assert dg.orders == (2, 12)
    assert dg.rows == ((2, -1), (-3, 2))


def test_p_primary_generators():
    lat = IntegralLattice.from_gram([[12]])
    dg = discriminant_group(lat)
    assert dg.orders == (12,)
    parts = dg.p_primary_generators()
    assert set(parts) == {2, 3}
    (g2, o2), = parts[2]
    (g3, o3), = parts[3]
    assert o2 == 4 and o3 == 3
    # each generator row / order is a dual vector of exactly that order mod L
    for row, order in ((g2, o2), (g3, o3)):
        assert oracles.in_dual(lat, tuple(Fraction(x, order) for x in row))
        assert [m for m in range(1, order + 1) if all(m * x % order == 0 for x in row)] == [order]


def _trial_factor(d):
    """dict p -> exponent, trial-dividing by every p up to d's largest prime."""
    out, p = {}, 2
    while d > 1:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    return out


def test_prime_factors_match_trial_division():
    rng = random.Random(37)
    special = [1, 2, 3, 4, 9, 2**20, 3**13, 7919, 65537, 7919**2, 2 * 3 * 5 * 7 * 11 * 13]
    for n in special + [rng.randrange(1, 10**5) for _ in range(300)]:
        got = list(prime_factors(n))
        assert [p for p, _ in got] == sorted({p for p, _ in got})
        assert dict(got) == _trial_factor(n)


def test_prime_factors_is_lazy():
    # the least factor comes before any budget poll; the sweep for the
    # large cofactor is what a second next() would start
    factors = prime_factors(3 * (10**9 + 7))
    with budget.limit(0):
        assert next(factors) == (3, 1)
        with pytest.raises(BudgetExceeded):
            next(factors)


def test_p_primary_generators_match_trial_division():
    rng = random.Random(29)
    for _ in range(40):
        diag = [rng.randrange(1, 20000) for _ in range(rng.randint(1, 3))]
        lat = IntegralLattice.from_gram([[d * (i == j) for j in range(len(diag))] for i, d in enumerate(diag)])
        dg = discriminant_group(lat)
        expected = {}
        for g, d in zip(oracles.generators(dg), dg.orders):
            for p, a in _trial_factor(d).items():
                expected.setdefault(p, []).append((tuple(x * (d // p**a) for x in g), p**a))
        for comps in expected.values():
            comps.sort(key=lambda t: -t[1])
        # each p-primary generator is its integer row over its order
        got = {
            p: [(tuple(Fraction(x, o) for x in row), o) for row, o in comps]
            for p, comps in dg.p_primary_generators().items()
        }
        assert got == expected


def test_p_primary_generators_of_large_primes():
    p, q = 10**9 + 7, 10**9 + 9
    dg = discriminant_group(IntegralLattice.from_gram([[2 * p]]))
    assert {r: [o for _, o in comps] for r, comps in dg.p_primary_generators().items()} == {2: [2], p: [p]}
    dg = discriminant_group(IntegralLattice.from_gram([[2 * p * q]]))
    with pytest.raises(BudgetExceeded), budget.limit(0):
        dg.p_primary_generators()


def test_lll_is_a_reduced_unimodular_change_of_basis():
    rng = random.Random(31)
    lattices = [IntegralLattice([]), A1, e8_lattice(), direct_sum(A2, A2, A1)]
    lattices += [oracles.random_definite(rng, rng.randrange(1, 7)) for _ in range(30)]
    changed = 0
    for lat in lattices:
        skewed = oracles.skewed(lat, rng, 20, 5)
        h, pivots, cols = _lll(skewed.gram2)
        n = lat.rank
        assert abs(det(h)) == 1
        # the returned data is the Bareiss elimination of the reduced Gram
        assert _bareiss(mat_mul(mat_mul(h, skewed.gram2), transpose(h))) == (0, pivots, cols)
        d = (1, *pivots)
        for k in range(n):
            assert all(2 * abs(lam) <= d[k + 1] for lam in cols[k])  # size reduced
        for k in range(1, n):  # Lovasz condition, constant 3/4
            assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * cols[k - 1][0] ** 2
        changed += h != [[int(i == j) for j in range(n)] for i in range(n)]
    assert changed >= 25
    with pytest.raises(BudgetExceeded), budget.limit(0):
        _lll(oracles.skewed(e8_lattice(), rng, 80, 50).gram2)


def test_short_vectors_on_skewed_bases():
    # 80 row operations with multipliers up to 50 leave Gram entries of
    # dozens of digits; the glue basis of [[2000000014]] has entries near
    # 5 * 10^9
    rng = random.Random(80)
    e8 = e8_lattice()
    cases = [
        (oracles.skewed(e8, rng, 80, 50), 240),
        (oracles.skewed(direct_sum(e8, e8), rng, 80, 50), 480),
        (unimodularize(IntegralLattice.from_gram([[2000000014]])).result, 240),
    ]
    for lat, count in cases:
        assert max(abs(x) for row in lat.gram2 for x in row) > 10**9
        with budget.limit(1.0):  # each finishes in well under a second
            roots = short_vectors(lat, 2)
        assert len(roots) == count and all(lat.norm(v) == 2 for v in roots)


def test_discriminant_generators_generate():
    # orders multiply to |det| and the generators are independent
    random.seed(11)
    for _ in range(6):
        n = random.randrange(1, 4)
        while True:
            b = [[random.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
            g = [[sum(b[i][k] * b[j][k] for k in range(n)) + 2 * (i == j) for j in range(n)]
                 for i in range(n)]
            lat = IntegralLattice.from_gram(g)
            if lat.is_definite:
                break
        dg = discriminant_group(lat)
        assert prod(dg.orders) == abs(lat.determinant())
        seen = set()
        for coeffs in _all_coeffs(dg.orders):
            v = oracles.element(dg, coeffs)
            key = tuple(x % 1 for x in v)
            assert key not in seen
            seen.add(key)


def _all_coeffs(orders):
    if not orders:
        yield ()
        return
    for c in range(orders[0]):
        for rest in _all_coeffs(orders[1:]):
            yield (c,) + rest


def test_short_vectors_match_box_oracle():
    # each seeded Gram is checked again in a basis skewed by its own rng
    skew = random.Random(6)
    random.seed(5)
    for _ in range(8):
        n = random.randrange(1, 5)
        while True:
            b = [[random.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
            g = [[sum(b[i][k] * b[j][k] for k in range(n)) + (i == j) for j in range(n)]
                 for i in range(n)]
            lat = IntegralLattice.from_gram(g)
            if lat.is_definite:
                break
        skewed = oracles.skewed(lat, skew, 6, 1)
        for norm in (1, 2, 3, 4):
            fast = short_vectors(lat, norm)
            assert fast == sorted(short_vectors_box(lat, norm))
            for v in fast:
                assert lat.norm(v) == norm
                assert tuple(-x for x in v) in set(fast)
            assert set(short_vectors(skewed, norm)) == set(short_vectors_box(skewed, norm))
    # doubled Grams b b^T + diag(d): odd entries give half-integral norms,
    # and no vector has norm 5/6
    rng = random.Random(23)
    odd = found = 0
    for _ in range(60):
        n = rng.randrange(1, 6)
        b = [[rng.randrange(-1, 2) for _ in range(n)] for _ in range(n)]
        g2 = [[sum(b[i][k] * b[j][k] for k in range(n)) + rng.randrange(1, 4) * (i == j)
               for j in range(n)] for i in range(n)]
        lat = IntegralLattice(g2)
        odd += any(g2[i][j] % 2 for i in range(n) for j in range(i))
        skewed = oracles.skewed(lat, skew, 6, 1)
        for norm in (Fraction(1, 2), Fraction(5, 6), 1, Fraction(3, 2), 2):
            fast = short_vectors(lat, norm)
            assert len(set(fast)) == len(fast)
            assert set(fast) == set(short_vectors_box(lat, norm))
            assert set(short_vectors(skewed, norm)) == set(short_vectors_box(skewed, norm))
            for v in fast:
                assert lat.norm(v) == norm
                assert tuple(-x for x in v) in set(fast)
            found += bool(fast) and norm.denominator == 2
    assert odd >= 20 and found >= 20


def test_is_definite_matches_leading_minors():
    # the old definition: every leading block of gram2 has det > 0
    rng = random.Random(31)
    kinds = set()
    for trial in range(300):
        n = rng.randrange(1, 6)
        if trial % 2:
            m = rng.randrange(1, n + 1)  # m < n gives a singular semidefinite form
            b = [[rng.randrange(-2, 3) for _ in range(m)] for _ in range(n)]
            g2 = [[sum(x * y for x, y in zip(b[i], b[j])) for j in range(n)] for i in range(n)]
        else:
            g2 = [[0] * n for _ in range(n)]
            for i in range(n):
                g2[i][i] = rng.randrange(-1, 8)
                for j in range(i):
                    g2[i][j] = g2[j][i] = rng.randrange(-3, 4)
        minors = [det(tuple(row[:k] for row in g2[:k])) for k in range(1, n + 1)]
        definite = all(d > 0 for d in minors)
        assert IntegralLattice(g2).is_definite == definite
        kinds.add("definite" if definite else "zero minor" if 0 in minors else "negative minor")
    assert kinds == {"definite", "zero minor", "negative minor"}


def test_gram_row_matches_inner():
    # random symmetric gram2, so indefinite forms and half-integral inner
    # products (odd gram2 entries) both occur
    rng = random.Random(11)
    definite = set()
    denominators = set()
    for _ in range(20):
        n = rng.randrange(1, 6)
        g2 = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                g2[i][j] = g2[j][i] = rng.randrange(-5, 6)
        lat = IntegralLattice(g2)
        definite.add(lat.is_definite)
        for _ in range(10):
            v = tuple(rng.randrange(-3, 4) for _ in range(n))
            w = tuple(rng.randrange(-3, 4) for _ in range(n))
            row = lat.gram_row(v)
            assert all(type(c) is int for c in row)
            inner = lat.inner(v, w)
            assert Fraction(sum(a * b for a, b in zip(row, w)), 2) == inner
            denominators.add(Fraction(inner).denominator)
    assert definite == {True, False}
    assert denominators == {1, 2}


def test_short_vectors_requires_definite():
    indef = IntegralLattice.from_gram([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        short_vectors(indef, 2)


def test_rescale():
    assert A1.rescale(3).gram2 == ((12,),)
    assert A1.rescale(-1).determinant() == -2
