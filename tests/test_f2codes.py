import math
import random

from oracles import brute_force_perms
from vftk.f2codes import (
    BinaryCode,
    Marking,
    all_markings,
    classify_markings,
    code_automorphisms,
    hamming_code,
    rm1_subcode,
)


def _weight_enumerator(code):
    """Tuple a where a[w] = number of codewords of Hamming weight w."""
    counts = [0] * (code.length + 1)
    for w in code.words():
        counts[w.bit_count()] += 1
    return tuple(counts)


def _doubly_even(code):
    return all(w.bit_count() % 4 == 0 for w in code.words())


def _dual_words(code):
    """Every word with an even overlap with each generator."""
    return {v for v in range(1 << code.length) if all((v & r).bit_count() % 2 == 0 for r in code.rows)}


def test_hamming8_parameters():
    h8 = hamming_code()
    assert h8.length == 8 and h8.dim == 4
    assert len(h8.words()) == 16
    assert _weight_enumerator(h8) == (1, 0, 0, 0, 14, 0, 0, 0, 1)
    assert _doubly_even(h8)


def test_hamming8_self_dual():
    h8 = hamming_code()
    assert _dual_words(h8) == set(h8.words())


def test_hamming16_is_rm1_chain_top():
    # RM(1,4) is rm1_subcode(5) alone; these rows, coordinate 0 first, pin it
    pinned = [
        "1111111111111111",
        "1111111100000000",
        "1111000011110000",
        "1100110011001100",
        "1010101010101010",
    ]
    rm14 = rm1_subcode(5)
    assert rm14 == BinaryCode.from_rows(16, [int(row[::-1], 2) for row in pinned])
    assert rm14.length == 16 and rm14.dim == 5
    dual = _dual_words(rm14)
    assert len(dual) == 2**11
    # doubly even, contained in its dual
    assert _doubly_even(rm14)
    assert set(rm14.words()) <= dual


def test_rm1_subcode_weights():
    for k in range(1, 6):
        c = rm1_subcode(k)
        assert c.dim == k
        enum = _weight_enumerator(c)
        assert enum[0] == 1 and enum[16] == 1
        assert enum[8] == 2**k - 2
        assert sum(enum) == 2**k


def test_rm1_subcode_nested():
    for k in range(1, 5):
        small, big = rm1_subcode(k), rm1_subcode(k + 1)
        assert set(small.words()) <= set(big.words())


def test_aut_hamming8_order_1344_vs_brute_force():
    h8 = hamming_code()
    gens, order = code_automorphisms(h8)
    assert order == 1344
    brute = brute_force_perms(h8.word_tuples(), 8)
    assert len(brute) == 1344
    for sigma in gens:
        assert sigma in set(brute)


def test_aut_rm1_extremes():
    gens, order = code_automorphisms(rm1_subcode(1))
    assert order == math.factorial(16)
    _, order5 = code_automorphisms(rm1_subcode(5))
    assert order5 == 322560  # = |AGL(4,2)|


def test_aut_closure_random_products():
    h8 = hamming_code()
    gens, _ = code_automorphisms(h8)
    words = set(h8.words())
    rng = random.Random(22)
    for _ in range(100):
        a = rng.choice(gens)
        b = rng.choice(gens)
        prod = tuple(b[a[p]] for p in range(8))
        for w in words:
            img = 0
            for i in range(8):
                if (w >> i) & 1:
                    img |= 1 << prod[i]
            assert img in words


def test_marking_count():
    assert len(all_markings(8)) == 105  # 7!!
    assert len(all_markings(4)) == 3
    assert len(set(all_markings(8))) == 105


def test_classify_markings_h8():
    orbits, aut_order = classify_markings(hamming_code())
    assert aut_order == 1344
    assert len(orbits) == 3
    assert sum(size for _, size in orbits) == 105
    for _, size in orbits:
        assert 1344 % size == 0


def test_classify_markings_h8_vs_brute_force():
    h8 = hamming_code()
    sigmas = brute_force_perms(h8.word_tuples(), 8)
    todo = set(all_markings(8))
    brute_orbits = []
    while todo:
        rep = next(iter(todo))
        orbit = {rep.permuted(s) for s in sigmas}
        assert rep in orbit
        todo -= orbit
        brute_orbits.append(orbit)
    fast, _ = classify_markings(h8)
    assert sorted(len(o) for o in brute_orbits) == sorted(s for _, s in fast)


def test_classify_markings_zero_code_len2():
    zero = BinaryCode.from_rows(2, [])
    orbits, order = classify_markings(zero)
    assert order == 2
    assert orbits == [(Marking.from_pairs(((0, 1),)), 1)]
