"""Sum-of-squares congruences and even unimodular overlattice constructions."""

import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from math import isqrt, lcm, prod

import pytest

import oracles
import vftk.unimodular as unimodular
from vftk import budget
from vftk.abelian import _scaled_hnf
from vftk.budget import BudgetExceeded
from vftk.f2codes import hamming_code
from vftk.frames import W_E8_ORDER
from vftk.intmat import identity
from vftk.lattices import (
    IntegralLattice,
    direct_sum,
    discriminant_group,
    e8_lattice,
    short_vectors,
)
from vftk.stabsearch import orbit
from vftk.unimodular import (
    definite_automorphisms,
    dirichlet_prime,
    first_block_primitive,
    hyperbolic_unimodularize,
    isotropic_subgroup,
    overlattice_from_isotropic,
    prime_power_twist,
    strong_extension_check,
    sum_four_squares_mod,
    sum_two_squares_mod,
    unimodularize,
)

A1 = IntegralLattice.from_gram(((2,),))
A2 = IntegralLattice.from_gram(((2, -1), (-1, 2)))
PLANE = IntegralLattice.from_gram(((0, 1), (1, 0)))
ODD_PRIMES = [p for p in range(3, 51) if all(p % f for f in range(2, p))]


def _closure(glue):
    """(den, elements): every glue element, as den * row reduced mod den.

    The oracle for the index route: it walks the whole group, so keep the
    glue order small.
    """
    den = glue.den
    gens = [tuple(x % den for x in r) for r in glue.rows]
    zero = (0,) * glue.lattice.rank
    return den, orbit({zero}, lambda u: (tuple((a + b) % den for a, b in zip(u, g)) for g in gens))


def _den_rows(gens):
    """Rational rows as isotropic_subgroup's (den, integer rows): den is
    the lcm of their denominators."""
    den = lcm(1, *(Fraction(x).denominator for g in gens for x in g))
    return den, [tuple(int(x * den) for x in g) for g in gens]


def _walk_primitive(elements, block_rank):
    """No nonzero element is supported on the first block_rank coordinates."""
    return not any(any(row[:block_rank]) and not any(row[block_rank:]) for row in elements)


def _assert_matches_closure(over):
    """glue.order() and first_block_primitive at every block rank match the walk."""
    _, elements = _closure(over.glue)
    assert over.glue.order() == len(elements)
    verdicts = [first_block_primitive(over, b) for b in range(over.base.rank + 1)]
    assert verdicts == [_walk_primitive(elements, b) for b in range(over.base.rank + 1)]
    return verdicts


def test_sum_two_squares_congruence():
    for p in ODD_PRIMES:
        for r in range(1, 7):
            a, b = sum_two_squares_mod(p, r)
            assert (a * a + b * b + 1) % p**r == 0
            assert 0 <= a < p**r and 0 <= b < p**r


def test_sum_two_squares_against_residue_search():
    # independent oracle: scan all residues mod p^r (kept to small moduli)
    for p in ODD_PRIMES:
        for r in range(1, 7):
            m = p**r
            if m > 100_000:
                continue
            squares = {t * t % m for t in range(m)}
            solvable = any((-1 - a * a) % m in squares for a in range(m))
            assert solvable
            a, b = sum_two_squares_mod(p, r)
            assert (-1 - a * a) % m in squares and b * b % m == (-1 - a * a) % m


def test_sum_two_squares_base_matches_residue_scan():
    # Euler's criterion gives the scan's first (a, b) mod p, for all 429
    # odd primes below 3000
    primes = [p for p in range(3, 3000, 2) if all(p % f for f in range(3, isqrt(p) + 1, 2))]
    assert len(primes) == 429
    for p in primes:
        assert sum_two_squares_mod(p, 1) == oracles.sum_two_squares_scan(p)


def test_sum_two_squares_rejects_bad_input():
    for p in (1, 2, 9, 15):
        with pytest.raises(ValueError):
            sum_two_squares_mod(p, 1)
    with pytest.raises(ValueError):
        sum_two_squares_mod(3, 0)


def test_unimodularize_proves_each_prime_once(monkeypatch):
    # prime_factors proves p = 10^12 + 39 prime; the congruence solver
    # must not prove it again by trial division
    def no_second_proof(m):
        raise AssertionError(f"second primality proof of {m}")

    monkeypatch.setattr(unimodular, "_is_prime", no_second_proof)
    p = 10**12 + 39
    over = unimodularize(IntegralLattice.from_gram(((2 * p,),)))
    assert over.diagonal_copies == 8
    assert (over.result.rank, over.result.determinant()) == (8, 1)
    assert over.result.is_even and over.result.is_definite


def test_sum_two_squares_still_proves_p_prime(monkeypatch):
    # the public solver keeps its own primality proof: a composite such as
    # 15 is rejected (test_sum_two_squares_rejects_bad_input), and so is a
    # prime once the proof is made to fail
    monkeypatch.setattr(unimodular, "_is_prime", lambda m: False)
    with pytest.raises(ValueError):
        sum_two_squares_mod(13, 1)


def test_sum_four_squares_exact():
    for r in range(1, 11):
        a, b, c, d = sum_four_squares_mod(r)
        assert a * a + b * b + c * c + d * d == 2**r - 1
        assert a >= b >= c >= d >= 0
        assert (a * a + b * b + c * c + d * d + 1) % 2**r == 0
    with pytest.raises(ValueError):
        sum_four_squares_mod(0)


def test_hamming_glue_rebuilds_e8():
    # glueing the halved Hamming words onto 8 orthogonal roots kills det 2^8
    base = direct_sum(*[A1] * 8)
    code = hamming_code()
    rows = [tuple((w >> i) & 1 for i in range(8)) for w in code.rows]
    glue = isotropic_subgroup(base, 2, rows)
    assert glue.order() == 16
    over = overlattice_from_isotropic(base, glue)
    assert over.result.determinant() == 1
    assert over.result.is_even
    assert len(short_vectors(over.result, 2)) == 240


def test_trivial_glue_returns_base():
    base = direct_sum(A1, A1.rescale(-1))
    glue = isotropic_subgroup(base, 1, ())
    over = overlattice_from_isotropic(base, glue)
    assert over.result.gram2 == base.gram2
    assert (over.glue.den, over.glue.basis) == (1, identity(2))


def test_isotropic_subgroup_validation():
    with pytest.raises(ValueError, match="dual"):
        isotropic_subgroup(A1, 3, [(1,)])
    with pytest.raises(ValueError, match="isotropic"):
        isotropic_subgroup(A1, 2, [(1,)])
    # both generators isotropic but pairing to 1/2: not mutually orthogonal
    mixed = IntegralLattice.from_gram(((4, 0), (0, -4)))
    dg2 = discriminant_group(mixed)
    g1 = (Fraction(1, 4), Fraction(1, 4))
    g2 = (Fraction(1, 4), Fraction(-1, 4))
    assert oracles.q(dg2, g1) == 0 and oracles.q(dg2, g2) == 0
    with pytest.raises(ValueError, match="orthogonal"):
        isotropic_subgroup(mixed, *_den_rows([g1, g2]))


def test_isotropic_subgroup_reduces_to_lowest_terms():
    # the record keeps (den, rows) divided by their gcd: here the diagonal
    # glue of A2 and A2(-1), written over 6 and over 3, and a zero row
    base = direct_sum(A2, A2.rescale(-1))
    (u,) = discriminant_group(A2).rows
    wide = isotropic_subgroup(base, 6, [tuple(2 * x for x in u + u)])
    assert wide == isotropic_subgroup(base, 3, [u + u])
    assert (wide.den, wide.rows, wide.order()) == (3, (u + u,), 3)
    assert isotropic_subgroup(A1, 4, [(0,)]) == (A1, 1, ((0,),), ((1,),))


def test_isotropic_subgroup_refuses_malformed_input():
    bad = ((0, [(1,)]), (-2, [(1,)]), (Fraction(2), [(1,)]), (2, [(Fraction(1),)]), (2, [(1.0,)]), (2, [()]))
    for den, rows in bad:
        with pytest.raises(ValueError):
            isotropic_subgroup(A1, den, rows)
    with pytest.raises(ValueError, match="rank"):
        isotropic_subgroup(A2, 3, [(1,)])


def _fraction_verdict(lat, gens):
    """The Fraction definitions: None for isotropic glue, else the error message."""
    dg = discriminant_group(lat)
    for g in gens:
        if not oracles.in_dual(lat, g):
            return "glue generator does not lie in the dual lattice"
        if oracles.q(dg, g) != 0:
            return "glue generator is not isotropic"
    for i, g in enumerate(gens):
        if any(oracles.b(dg, g, h) != 0 for h in gens[i + 1 :]):
            return "glue generators are not orthogonal"
    return None


def _random_even_gram(rng, kind):
    """Even diagonal lattice of rank 2-4, in a skewed basis unless kind is diagonal.

    Diagonal entries are 2, 4, 8 or 16 up to sign (both signs when kind is
    indefinite), so the discriminant groups have many isotropic elements.
    """
    n = rng.randint(2, 4)
    signs = [1, -1] + [rng.choice((1, -1)) for _ in range(n - 2)] if kind == "indefinite" else [1] * n
    gram = [[0] * n for _ in range(n)]
    for i, sign in enumerate(signs):
        gram[i][i] = sign * rng.choice((2, 4, 8, 16))
    for _ in range(0 if kind == "diagonal" else 4):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        gram[i] = [a + c * b for a, b in zip(gram[i], gram[j])]
        for row in gram:
            row[i] += c * row[j]
    return IntegralLattice.from_gram(gram)


def test_integer_isotropy_matches_fraction_definitions():
    rng = random.Random(7)
    outcomes = set()
    accepted = []
    for kind in ("diagonal", "definite", "indefinite") * 60:
        lat = _random_even_gram(rng, kind)
        dg = discriminant_group(lat)
        gens = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.15:  # a random rational row, rarely in L*
                g = tuple(Fraction(rng.randrange(-3, 4), rng.randint(1, 4)) for _ in range(lat.rank))
            else:  # a random element of L*, isotropic if one of 40 draws is
                for _ in range(40):
                    g = oracles.element(dg, [rng.randrange(d) for d in dg.orders])
                    if oracles.q(dg, g) == 0:
                        break
            gens.append(g)
        expected = _fraction_verdict(lat, gens)
        try:
            glue = isotropic_subgroup(lat, *_den_rows(gens))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (lat.gram2, gens)
        outcomes.add(got)
        if got is None:  # the glue lattice Z^n + span(gens), by the Fraction route
            assert (glue.den, glue.basis) == _scaled_hnf(identity(lat.rank) + tuple(gens))
            den, rows = _den_rows(gens)
            assert isotropic_subgroup(lat, 5 * den, [tuple(5 * x for x in r) for r in rows]) == glue
            accepted.append(glue.den)
    assert len(outcomes) == 4  # accepted, and each of the three refusals
    assert len(accepted) > 20 and max(accepted) > 2


def test_unimodularize_a1_gives_e8():
    over = unimodularize(A1)
    res = over.result
    assert over.diagonal_copies == 8
    assert (res.rank, res.determinant()) == (8, 1)
    assert res.is_even and res.is_definite
    assert len(short_vectors(res, 2)) == 240
    assert over.glue.order() == 2**4
    assert first_block_primitive(over, 1)


def test_unimodularize_a2_gives_e8():
    over = unimodularize(A2)
    res = over.result
    assert over.diagonal_copies == 4
    assert (res.rank, res.determinant()) == (8, 1)
    assert res.is_even and res.is_definite
    assert len(short_vectors(res, 2)) == 240
    assert over.glue.order() == 9
    assert first_block_primitive(over, 2)


def test_unimodularize_e8_is_four_copies():
    over = unimodularize(e8_lattice())
    assert over.diagonal_copies == 4
    assert over.result.gram2 == direct_sum(*[e8_lattice()] * 4).gram2
    assert (over.glue.den, over.glue.basis) == (1, identity(32))


def test_unimodularize_other_determinants():
    # det 6 (even, 8 copies) and det 15 (odd, 4 copies) both land on E8
    for gram, copies in ((((6,),), 8), (((4, 1), (1, 4)), 4)):
        over = unimodularize(IntegralLattice.from_gram(gram))
        assert over.diagonal_copies == copies
        assert (over.result.rank, over.result.determinant()) == (8, 1)
        assert over.result.is_even and over.result.is_definite
        assert len(short_vectors(over.result, 2)) == 240
    # a Z/4 in the 2-part ([[4]], [[2,0],[0,4]] and A3) once gave glue of
    # order det^4 / 2 and a result of determinant 4
    a3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    for gram in (((4,),), ((2, 0), (0, 4)), a3):
        lat = IntegralLattice.from_gram(gram)
        over = unimodularize(lat)
        assert over.diagonal_copies == 8
        assert (over.result.rank, over.result.determinant()) == (8 * lat.rank, 1)
        assert over.result.is_even and over.result.is_definite


def test_unimodularize_indefinite_input():
    over = unimodularize(PLANE)  # det -1: trivial glue on four copies
    assert over.diagonal_copies == 4
    assert over.result.gram2 == direct_sum(*[PLANE] * 4).gram2
    wide = IntegralLattice.from_gram(((0, 2), (2, 0)))  # det -4
    over = unimodularize(wide)
    res = over.result
    assert (res.rank, abs(res.determinant())) == (16, 1)
    assert res.is_even
    assert not res.is_definite and not res.rescale(-1).is_definite


def test_unimodularize_rejects_odd_lattice():
    with pytest.raises(ValueError):
        unimodularize(IntegralLattice.from_gram(((1,),)))


def test_first_block_primitive_negative_control():
    # glue supported on the first block alone makes the embedding imprimitive
    base = IntegralLattice.from_gram(((8, 0), (0, 2)))
    glue = isotropic_subgroup(base, 2, [(1, 0)])
    over = overlattice_from_isotropic(base, glue)
    assert over.result.determinant() == 4
    assert not first_block_primitive(over, 1)
    # mirrored construction: glue supported away from the first block is fine
    swapped = IntegralLattice.from_gram(((2, 0), (0, 8)))
    glue = isotropic_subgroup(swapped, 2, [(0, 1)])
    assert first_block_primitive(overlattice_from_isotropic(swapped, glue), 1)


def test_strong_extension_sign_flip_on_a1():
    over = unimodularize(A1)
    (verdict,) = strong_extension_check(A1, over, [((-1,),)])
    assert verdict.extends
    minus = tuple(tuple(-x for x in row) for row in identity(8))
    assert verdict.matrix == minus


def test_strong_extension_full_a2_automorphisms():
    over = unimodularize(A2)
    verdicts = strong_extension_check(A2, over, definite_automorphisms(A2).generators)
    assert all(v.extends for v in verdicts)
    # the extended generators generate the extensions of all 12 isometries
    mats = oracles.matrix_group(over.result.rank, [v.matrix for v in verdicts])
    assert len(mats) == 12
    assert mats == {v.matrix for v in strong_extension_check(A2, over, oracles.isometries(A2))}


def test_strong_extension_detects_obstruction():
    # act on only one of the two glued blocks: -1 moves the diagonal glue
    base = direct_sum(A2, A2.rescale(-1), PLANE)
    dg = discriminant_group(A2)
    (u,), (d,) = dg.rows, dg.orders
    glue = isotropic_subgroup(base, d, [u + u + (0, 0)])
    over = overlattice_from_isotropic(base, glue, diagonal_copies=1, tail_rank=4)
    eye = identity(2)
    minus = tuple(tuple(-x for x in row) for row in eye)
    good, bad = strong_extension_check(A2, over, [eye, minus])
    assert good.extends and good.matrix is not None
    assert not bad.extends and bad.matrix is None
    # independent oracle: the induced ambient map must fix the glue setwise
    den, elements = _closure(over.glue)
    for w, verdict in ((eye, good), (minus, bad)):
        amb = [tuple(r) + (0,) * 4 for r in w]
        amb += [(0, 0) + tuple(r) for r in identity(4)]
        image = {
            tuple(sum(c * amb[i][j] for i, c in enumerate(row)) % den for j in range(6))
            for row in elements
        }
        assert (image == elements) == verdict.extends


def test_strong_extension_rejects_non_isometry():
    over = unimodularize(A2)
    with pytest.raises(ValueError, match="isometry"):
        strong_extension_check(A2, over, [((1, 0), (1, 1))])


def test_strong_extension_refuses_non_integer_generators():
    # int() would truncate these to the isometry -1 and report that it extends
    over = unimodularize(A1)
    for w in (((Fraction(3, 2),),), ((-1.7,),)):
        with pytest.raises(ValueError, match="not an integer matrix"):
            strong_extension_check(A1, over, [w])


def test_hyperbolic_unimodularize_small():
    for lat, rank in ((A1, 4), (A2, 6)):
        over = hyperbolic_unimodularize(lat)
        res = over.result
        assert res.rank == rank <= 2 * lat.rank + 2
        assert abs(res.determinant()) == 1 and res.is_even
        assert not res.is_definite and not res.rescale(-1).is_definite
        assert first_block_primitive(over, lat.rank)
    over = hyperbolic_unimodularize(A2)
    verdicts = strong_extension_check(A2, over, definite_automorphisms(A2).generators)
    assert all(v.extends for v in verdicts)


def test_hyperbolic_unimodularize_det_one_shortcut():
    over = hyperbolic_unimodularize(e8_lattice())
    assert over.result.rank == 10
    assert over.result.gram2 == direct_sum(e8_lattice(), PLANE).gram2


def test_hyperbolic_unimodularize_rank_zero():
    over = hyperbolic_unimodularize(IntegralLattice(()))
    assert over.result.gram2 == ((0, 2), (2, 0))


def test_prime_power_twist_a1():
    over = prime_power_twist(A1, 3)
    res = over.result
    assert (res.rank, res.determinant()) == (2, 3)
    assert res.is_even and res.is_definite
    assert len(short_vectors(res, 2)) == 6  # the result is a hexagonal lattice
    assert first_block_primitive(over, 1)


def test_prime_power_twist_a2():
    s = dirichlet_prime(A2, 7)
    assert s == 11
    over = prime_power_twist(A2, s)
    assert (over.result.rank, over.result.determinant()) == (4, 121)
    assert over.result.is_even and over.result.is_definite
    assert over.glue.order() == 3
    verdicts = strong_extension_check(A2, over, definite_automorphisms(A2).generators)
    assert all(v.extends for v in verdicts)


def test_prime_power_twist_validation():
    with pytest.raises(ValueError, match="-1 mod"):
        prime_power_twist(A1, 5)
    with pytest.raises(ValueError, match="prime"):
        prime_power_twist(A1, 15)
    with pytest.raises(ValueError, match="even"):
        prime_power_twist(IntegralLattice.from_gram(((1,),)), 3)


def test_dirichlet_prime():
    assert dirichlet_prime(A1, 2) == 3
    assert dirichlet_prime(A1, 4) == 7
    assert dirichlet_prime(e8_lattice(), 2) == 3
    assert dirichlet_prime(A2, 100) == 101
    assert dirichlet_prime(A2, 5) == 5


def test_definite_automorphisms():
    assert definite_automorphisms(A1).order == 2
    group = definite_automorphisms(A2)
    assert group.order == 12 == len(oracles.matrix_group(2, group.generators))
    rect = IntegralLattice.from_gram(((2, 0), (0, 4)))
    assert definite_automorphisms(rect).order == 4
    with pytest.raises(ValueError):
        definite_automorphisms(PLANE)


def test_definite_automorphisms_match_the_listing():
    # the order is the listing's length and the generators generate it,
    # in skewed bases of lattices with large groups and of random ones
    rng = random.Random(12)
    a3 = IntegralLattice.from_gram(((2, -1, 0), (-1, 2, -1), (0, -1, 2)))
    d4 = IntegralLattice.from_gram(((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)))
    rect = IntegralLattice.from_gram(((2, 0), (0, 4)))
    lattices = [IntegralLattice(()), A1, A2, rect, a3, d4, direct_sum(A1, A2), direct_sum(A2, A2)]
    lattices += [direct_sum(A1, rect), direct_sum(A1, A1, A1, A1)]
    lattices = [oracles.skewed(lat, rng, 6, 1) for lat in lattices for _ in range(2)]
    lattices += [oracles.random_definite(rng, rng.randint(1, 4)) for _ in range(20)]
    for lat in lattices:
        group = definite_automorphisms(lat)
        listed = oracles.isometries(lat)
        assert group.order == prod(group.orbit_sizes) == len(listed)
        assert all(lat.is_isometry(w) for w in group.generators)
        assert oracles.matrix_group(lat.rank, group.generators) == set(listed)


def test_definite_automorphisms_e8_order():
    e8 = e8_lattice()
    start = time.monotonic()
    group = definite_automorphisms(e8)
    assert time.monotonic() - start < 1.0
    assert group.order == W_E8_ORDER
    assert group.orbit_sizes == (240, 56, 27, 16, 5, 4, 3, 2)
    assert len(group.generators) == 8 and all(e8.is_isometry(w) for w in group.generators)


# a rank-8 lattice of determinant 1024 whose chain runs for about 20 s
SLOW_GRAM = (
    (6, -2, -2, -2, 0, 0, 0, 0),
    (-2, 6, 0, -2, 2, -2, 0, 0),
    (-2, 0, 8, 2, 0, -2, -2, 0),
    (-2, -2, 2, 6, -4, -2, 0, 2),
    (0, 2, 0, -4, 6, 2, -2, -2),
    (0, -2, -2, -2, 2, 4, 0, 0),
    (0, 0, -2, 0, -2, 0, 2, 0),
    (0, 0, 0, 2, -2, 0, 0, 8),
)


def test_definite_automorphisms_deadline():
    # an expired budget stops the search at its first node
    with pytest.raises(BudgetExceeded), budget.limit(0):
        definite_automorphisms(A2)
    # the existence searches must stop soon after 0.3 s
    slow = IntegralLattice.from_gram(SLOW_GRAM)
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        with budget.limit(0.3):
            definite_automorphisms(slow)
    assert time.monotonic() - start < 1.3


SMALL_GRAMS = (
    ((2,),),
    ((4,),),
    ((6,),),
    ((2, -1), (-1, 2)),
    ((4, 1), (1, 4)),
    ((2, 0), (0, 4)),
)


@pytest.mark.parametrize("gram", SMALL_GRAMS)
def test_glue_index_matches_closure_on_constructions(gram):
    # all three constructions; definite glue orders run 9 .. 4096
    lat = IntegralLattice.from_gram(gram)
    d = abs(lat.determinant())
    overs = (
        unimodularize(lat),
        hyperbolic_unimodularize(lat),
        prime_power_twist(lat, dirichlet_prime(lat, 2)),
    )
    for over in overs:
        verdicts = _assert_matches_closure(over)
        assert verdicts[lat.rank]  # the first copy is primitive
        assert not verdicts[-1]  # with nontrivial glue the whole base is imprimitive
    assert overs[0].glue.order() == (d**2 if d % 2 else d**4)


def _random_isotropic_glue(rng):
    """Isotropic glue on a random diagonal even lattice of rank 3 or 4."""
    diag = [rng.choice((2, 4, 8, -2, -4, -8)) for _ in range(rng.choice((3, 4)))]
    n = len(diag)
    base = IntegralLattice.from_gram([[d * (i == j) for j in range(n)] for i, d in enumerate(diag)])
    dg = discriminant_group(base)
    gens = []
    for _ in range(40):
        g = tuple(Fraction(rng.randrange(abs(d)), d) for d in diag)
        if any(g) and oracles.q(dg, g) == 0 and all(oracles.b(dg, g, h) == 0 for h in gens):
            gens.append(g)
        if len(gens) == 3:
            break
    return base, isotropic_subgroup(base, *_den_rows(gens))


def test_glue_index_matches_closure_on_random_glue():
    rng = random.Random(2001)
    seen = set()
    for _ in range(60):
        base, glue = _random_isotropic_glue(rng)
        verdicts = _assert_matches_closure(overlattice_from_isotropic(base, glue))
        seen.update(verdicts[1:-1])
    # the interior block ranks gave both primitive and imprimitive blocks
    assert seen == {True, False}


def test_unimodularize_checks_survive_optimize():
    # under python -O every assert is stripped; a glue group missing one
    # pattern row must still be refused
    script = textwrap.dedent(
        """
        import vftk.unimodular as unimodular
        from vftk.lattices import IntegralLattice
        from vftk.verify import VerificationError

        assert False, "asserts are live"  # stripped under -O
        validated = unimodular.isotropic_subgroup
        unimodular.isotropic_subgroup = lambda lat, den, rows: validated(lat, den, rows[:-1])
        try:
            unimodular.unimodularize(IntegralLattice.from_gram(((2,),)))
        except VerificationError as exc:
            print("refused:", exc)
        """
    )
    src = os.path.dirname(os.path.dirname(unimodular.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: glue order is not det^2 or det^4")
