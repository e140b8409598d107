"""Exact matrix arithmetic over Z.

Matrices are tuples/lists of row tuples; vectors are row tuples.  Row
convention throughout the package: a vector acts on the left, v @ M.
Everything is arbitrary-precision int; nothing here ever touches floating
point or fractions.

A transform is recorded only where a caller reads one, by one rule: the
HNF of [a | I] is [H | U] with U a = H, U unimodular (Cohen, GTM 138,
2.4), since each row operation on a acts on I alike.  inverse reads
[I | a^-1] off it, and snf carries its row transform the same way.

Both normal forms rest on one extended-gcd step, _gcd_step.  hnf polls
the budget once per row, so every Smith form polls through it.
"""

from math import gcd, lcm

from . import budget

__all__ = [
    "identity",
    "block_diagonal",
    "mat_mul",
    "vec_mat",
    "transpose",
    "det",
    "inverse",
    "hnf",
    "hnf_basis",
    "snf",
    "snf_divisors",
]


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def block_diagonal(*blocks):
    """Square matrix with the given square blocks down its diagonal."""
    n = sum(len(b) for b in blocks)
    rows = []
    for b in blocks:
        offset = len(rows)
        rows += [(0,) * offset + tuple(row) + (0,) * (n - offset - len(b)) for row in b]
    return tuple(rows)


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def vec_mat(v, m):
    cols = list(zip(*m))
    return tuple(sum(x * y for x, y in zip(v, col)) for col in cols)


def det(a):
    """Exact determinant of a square int matrix; TypeError on any other
    entry, where the floor division of `_bareiss` would not be exact."""
    if not all(isinstance(x, int) for row in a for x in row):
        raise TypeError("det needs int entries")
    swaps, pivots, _ = _bareiss(a)
    if len(pivots) < len(a):
        return 0
    return (-1) ** swaps * pivots[-1] if pivots else 1


def _bareiss(a):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): (swaps, pivots, cols).

    Step k swaps up the first row at or below k with a nonzero column-k
    entry, or stops with fewer than n pivots if there is none.  pivots[k]
    is the (k+1)-th leading minor of the swapped matrix, so each division
    is exact (Sylvester's identity); cols[k] holds the entries below it.
    """
    m = [list(row) for row in a]
    n = len(m)
    swaps, pivots, cols = 0, [], []
    prev = 1
    for k in range(n):
        r = next((r for r in range(k, n) if m[r][k]), None)
        if r is None:
            break
        if r != k:
            m[k], m[r] = m[r], m[k]
            swaps += 1
        top = m[k]
        p = top[k]
        for row in m[k + 1 :]:
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - c * top[j]) // prev
        pivots.append(p)
        cols.append(tuple(row[k] for row in m[k + 1 :]))
        prev = p
    return swaps, pivots, cols


def _with_identity(a):
    """[a | I], whose HNF is [H | U]."""
    return [tuple(row) + e for row, e in zip(a, identity(len(a)))]


def inverse(a):
    """Inverse of a unimodular int matrix: the HNF of [a | I] is [I | a^-1].
    ValueError when its left block is not I, i.e. a is not invertible over Z."""
    n = len(a[0]) if a else 0
    h = hnf(_with_identity(a))
    if tuple(row[:n] for row in h) != identity(len(a)):
        raise ValueError("matrix is not invertible over the integers")
    return tuple(row[n:] for row in h)


def _gcd_step(a, b, ra, rb):
    """Rows (x ra + y rb, (a/g) rb - (b/g) ra) for entries a, b != 0 of ra, rb
    in one column, g = gcd(a, b) = x a + y b: a determinant-1 transform that
    leaves g and 0 there.  x is in [0, |b/g|), so ra stays when a divides b."""
    g = gcd(a, b)
    ag, bg = a // g, b // g
    x = pow(ag, -1, abs(bg))
    y = (g - x * a) // b
    return [x * p + y * q for p, q in zip(ra, rb)], [ag * q - bg * p for p, q in zip(ra, rb)]


def hnf(rows):
    """Row-style Hermite normal form H of rows.

    H is in echelon form with positive pivots and entries above each pivot
    reduced into [0, pivot); zero rows sink to the bottom.  Each row goes
    in once (Kannan & Bachem, SIAM J. Comput. 8(4), 1979): it takes one
    _gcd_step with the pivot row of each leading column it meets, or
    becomes that column's pivot row.  Then the entries above every pivot
    are reduced, top pivot first.  Polls the budget once per row.
    """
    ncols = len(rows[0]) if rows else 0
    piv = {}  # pivot column -> pivot row
    for row in rows:
        budget.check()
        for j in range(ncols):
            if not row[j]:
                continue
            if j not in piv:
                piv[j] = row if row[j] > 0 else [-x for x in row]
                break
            piv[j], row = _gcd_step(piv[j][j], row[j], piv[j], row)
        cols = sorted(piv)
        for i, c in enumerate(cols):
            p = piv[c]
            for above in cols[:i]:
                q = piv[above][c] // p[c]
                if q:
                    piv[above] = [x - q * y for x, y in zip(piv[above], p)]
    h = tuple(tuple(piv[c]) for c in sorted(piv))
    return h + ((0,) * ncols,) * (len(rows) - len(h))


def _hnf_coords(basis, row):
    """Integer c with c @ basis == row for an HNF basis, or None if none exists."""
    row = list(row)
    coords = []
    for b in basis:
        p = next(j for j, x in enumerate(b) if x)
        c, rem = divmod(row[p], b[p])
        if rem:
            return None
        coords.append(c)
        if c:
            row = [x - c * y for x, y in zip(row, b)]
    return tuple(coords) if not any(row) else None


def hnf_basis(rows):
    """Nonzero rows of the HNF: a canonical Z-basis of the row span."""
    return tuple(r for r in hnf(rows) if any(r))


def snf(a):
    """Smith normal form with its row transform: returns (d, u).

    d is the diagonal, min(m, n) nonnegative entries satisfying the
    divisibility chain, zeros last; u is unimodular and u @ a @ v is
    diagonal with d on it for some unimodular v.  Row and column HNFs
    alternate until the matrix is diagonal, so every entry stays reduced
    (Kannan & Bachem, SIAM J. Comput. 8(4), 1979); the row passes run on
    [s | u], so u rides in the identity columns; the budget is polled once
    per row, by hnf.  Then _gcd_step on rows i, j of u turns diag(d_i, d_j)
    into diag(gcd, lcm) wherever d_i does not divide d_j, restoring the
    chain (the column transform, not kept, is [[1, -y b/g], [1, x a/g]]
    with a, b = d_i, d_j and x, y of the step).
    """
    n = len(a[0]) if a else 0
    h = hnf(_with_identity(a))
    s = [row[:n] for row in h]
    while any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
        s = transpose(hnf(transpose(s)))
        h = hnf([row + su[n:] for row, su in zip(s, h)])
        s = [row[:n] for row in h]
    # HNF pivots are positive and zero rows sink: d_0, ..., d_{r-1} > 0, then zeros
    d = [s[i][i] for i in range(min(len(s), n))]
    r = len(d) - d.count(0)
    u = [row[n:] for row in h]
    for i in range(r):
        for j in range(i + 1, r):
            if d[j] % d[i]:
                u[i], u[j] = _gcd_step(d[i], d[j], u[i], u[j])
                d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d), tuple(map(tuple, u))


def snf_divisors(a):
    """Nonzero Smith normal form diagonal entries (the elementary divisors)."""
    return tuple(x for x in snf(a)[0] if x)
