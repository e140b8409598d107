import random
from array import array
from itertools import combinations

import pytest

from oracles import f2_orth, f2_subspaces, f2_transpose_bitwise
from vftk.bits import (
    f2_echelon,
    f2_mat_inverse,
    f2_mat_mul,
    f2_identity,
    f2_orth_step,
    f2_rank,
    f2_reduce,
    f2_rref,
    f2_span,
    f2_transpose,
)


def test_rank_and_span():
    rows = [0b101, 0b011, 0b110]  # third = first ^ second
    assert f2_rank(rows) == 2
    assert sorted(f2_span(rows)) == sorted([0, 0b101, 0b011, 0b110])
    assert f2_reduce(0b110, f2_echelon(rows)) == 0
    assert f2_reduce(0b001, f2_echelon(rows)) != 0


def test_rref_canonical_under_row_ops():
    rng = random.Random(11)
    for _ in range(50):
        width = rng.randint(1, 8)
        rows = [rng.randrange(1 << width) for _ in range(rng.randint(1, 5))]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        # also mix rows together
        if len(shuffled) > 1:
            shuffled[0] ^= shuffled[1]
        assert f2_rref(rows) == f2_rref(shuffled)


def test_orth_against_brute_force():
    rng = random.Random(12)
    for _ in range(60):
        width = rng.randint(1, 6)
        basis = f2_echelon(rng.randrange(1 << width) for _ in range(rng.randint(0, width)))
        rows = [rng.randrange(1 << width) for _ in range(rng.randint(0, 4))]
        orth = f2_orth(basis, rows)
        # echelon: distinct leading bits, descending
        leads = [b.bit_length() for b in orth]
        assert leads == sorted(set(leads), reverse=True) and 0 not in leads
        brute = {
            v
            for v in range(1 << width)
            if f2_reduce(v, basis) == 0 and all((v & r).bit_count() % 2 == 0 for r in rows)
        }
        assert set(f2_span(orth)) == brute
        assert len(brute) == 1 << len(orth)


def test_orth_step_drops_one_leading_bit():
    # the walk of f2quad reads the new mask of leading bits off the
    # dropped vector alone, and relies on full reduction surviving
    rng = random.Random(14)
    for _ in range(200):
        width = rng.randint(1, 8)
        basis = list(f2_rref(rng.randrange(1 << width) for _ in range(rng.randint(0, width))))
        row = rng.randrange(1 << width)
        before = sum(1 << (b.bit_length() - 1) for b in basis)
        cut = basis.copy()
        low = f2_orth_step(cut, row)
        assert sum(1 << (b.bit_length() - 1) for b in cut) == before & ~(1 << low.bit_length() >> 1)
        assert (low == 0) == all((b & row).bit_count() % 2 == 0 for b in basis)
        assert len(cut) == len(basis) - (low != 0)
        assert tuple(cut) == f2_rref(cut)  # still fully reduced


def test_mat_inverse():
    rng = random.Random(13)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 10)
        rows = [rng.randrange(1 << n) for _ in range(n)]
        if f2_rank(rows) == n:
            inv = f2_mat_inverse(rows, n)
            assert f2_mat_mul(rows, inv) == f2_identity(n)
        else:
            singular += 1
            with pytest.raises(ValueError):
                f2_mat_inverse(rows, n)
    assert 0 < singular < 400
    assert f2_mat_inverse([], 0) == []


def gaussian_binomial(n, k):
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


def test_subspace_enumeration_counts():
    for width, dim in [(4, 0), (4, 1), (4, 2), (5, 2), (6, 3)]:
        subs = list(f2_subspaces(width, dim))
        assert len(subs) == gaussian_binomial(width, dim)
        assert len(set(subs)) == len(subs)
        for rows in subs:
            assert f2_rank(rows) == dim
            assert f2_rref(rows) == tuple(sorted(rows, reverse=True))


def test_subspaces_agree_with_brute_force():
    width, dim = 4, 2
    brute = set()
    for combo in combinations(range(1, 1 << width), dim):
        if f2_rank(combo) == dim:
            brute.add(f2_rref(combo))
    assert brute == set(f2_subspaces(width, dim))


@pytest.mark.parametrize("width", [1, 7, 8, 9, 10, 16, 17, 40])
@pytest.mark.parametrize("count", [0, 1, 300])
def test_transpose_against_bitwise_oracle(width, count):
    rng = random.Random(width * 1000 + count)
    rows = [rng.randrange(1 << width) for _ in range(count)]
    rows[::3] = [r | 1 << (width - 1) for r in rows[::3]]  # top bit set
    inputs = [rows, tuple(rows)]
    if width <= 16:
        packed = array("H", rows)
        inputs += [packed, packed[1::3], packed[::-2]]
    for rows_in in inputs:
        assert f2_transpose(rows_in, width) == f2_transpose_bitwise(rows_in, width)
