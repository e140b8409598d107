"""Bit-packed linear algebra over GF(2).

Vectors are plain Python ints (bit i = coordinate i) and matrices are
sequences of row ints; there are no wrapper classes, so callers must keep
track of widths themselves.  All routines are pure.
"""

from itertools import repeat
from math import prod

__all__ = [
    "f2_echelon",
    "f2_rank",
    "f2_rref",
    "f2_reduce",
    "f2_span",
    "f2_orth",
    "f2_mat_mul",
    "f2_vec_mat",
    "f2_mat_inverse",
    "f2_identity",
    "f2_transpose",
    "gl2_order",
]


def f2_echelon(rows):
    """Row-echelon basis (descending leading bits) of the span of `rows`."""
    basis = []  # kept sorted by leading bit, descending
    for r in rows:
        r = f2_reduce(r, basis)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return basis


def f2_reduce(v, basis):
    """Reduce v against an echelon basis; 0 iff v lies in the span."""
    for b in basis:
        if v ^ b < v:  # v has b's leading bit
            v ^= b
    return v


def f2_rank(rows):
    return len(f2_echelon(rows))


def f2_rref(rows):
    """Canonical reduced row-echelon form (tuple, descending pivots).

    Unique per subspace, so it doubles as a dictionary key for subspaces.
    """
    basis = f2_echelon(rows)
    # eliminate pivots of later rows from earlier rows
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            pivot = 1 << (basis[j].bit_length() - 1)
            if basis[i] & pivot:
                basis[i] ^= basis[j]
    return tuple(basis)


def f2_span(rows):
    """All 2^rank elements of the span (list, starts with 0)."""
    out = [0]
    for b in f2_echelon(rows):
        out += [v ^ b for v in out]
    return out


def f2_orth(basis, rows):
    """Echelon basis of the vectors in span(basis) with even overlap with every row.

    `basis` must be echelon (distinct leading bits, descending), and so is
    the result.  Each row cuts the span by at most one dimension: the
    odd-overlap vector with the lowest leading bit is folded into the
    other odd-overlap vectors, whose leading bits it cannot touch, and
    dropped.  A fully reduced basis (each vector 0 at the leading bits of
    the others) stays fully reduced, since the folded vector is 0 at the
    leading bits that remain.
    """
    basis = list(basis)
    for r in rows:
        odd = [i for i, b in enumerate(basis) if (b & r).bit_count() & 1]
        if odd:
            low = basis.pop(odd.pop())
            for i in odd:
                basis[i] ^= low
    return basis


def f2_identity(n):
    return [1 << i for i in range(n)]


def f2_vec_mat(v, rows):
    """Row vector times matrix: XOR of rows[i] over set bits i of v."""
    out = 0
    while v:
        i = (v & -v).bit_length() - 1
        out ^= rows[i]
        v &= v - 1
    return out


def f2_mat_mul(a_rows, b_rows):
    """Matrix product (row convention): row i of result = a_rows[i] * B."""
    return [f2_vec_mat(r, b_rows) for r in a_rows]


# _BIT[b] maps a byte to the ASCII digit ("0" or "1") of its bit b
_BIT = [bytes(48 + (x >> b & 1) for x in range(256)) for b in range(8)]


def f2_transpose(rows, width):
    """Columns of the bit matrix: bit i of column j is bit j of rows[i].

    `rows` is a sequence (a list, a tuple or an array) of ints below
    1 << width.  They are packed little-endian, last row first, into
    (width + 7) // 8 bytes each, so the bytes slice of byte column k
    lists byte k of every row, last row first.  Translating that slice
    through _BIT[j & 7] spells column j (j in byte k) as ASCII digits,
    most significant bit first, and int(..., 2) reads it.
    """
    if not rows:
        return [0] * width
    size = (width + 7) // 8
    packed = b"".join(map(int.to_bytes, reversed(rows), repeat(size), repeat("little")))
    out = []
    for k in range(size):
        col = packed[k::size]
        out += [int(col.translate(_BIT[b]), 2) for b in range(min(8, width - 8 * k))]
    return out


def f2_mat_inverse(rows, n):
    """Inverse of an n x n bit matrix; raises ValueError if singular.

    The RREF of [A | I], with A in the high n bits, is [I | A^-1] (rows in
    descending pivot order) exactly when every pivot falls in A's half.
    """
    rref = f2_rref([(r << n) | (1 << i) for i, r in enumerate(rows)])
    if rref and not rref[-1] >> n:
        raise ValueError("matrix is singular over GF(2)")
    low = (1 << n) - 1
    return [r & low for r in reversed(rref)]


def gl2_order(n):
    """|GL(n, 2)|."""
    return prod((1 << n) - (1 << i) for i in range(n))
