"""Exact matrix arithmetic over Z.

Matrices are tuples/lists of row tuples; vectors are row tuples.  Row
convention throughout the package: a vector acts on the left, v @ M.
Everything is arbitrary-precision int; nothing here ever touches floating
point or fractions.

A transform is recorded only where a caller reads one, by one rule: the
HNF of [a | I] is [H | U] with U a = H, U unimodular (Cohen, GTM 138,
2.4), since each row operation on a acts on I alike.  inverse reads
[I | a^-1] off it, and snf carries its row transform the same way.
"""

from math import gcd

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


def hnf(rows):
    """Row-style Hermite normal form H of rows.

    H is in echelon form with positive pivots and entries above each pivot
    reduced into [0, pivot); zero rows sink to the bottom.
    """
    h = [list(r) for r in rows]
    m = len(h)
    ncols = len(h[0]) if m else 0
    row = 0
    for col in range(ncols):
        if row == m:
            break
        # find a pivot and clear the column below it by exact Euclid
        piv = None
        for r in range(row, m):
            if h[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        h[row], h[piv] = h[piv], h[row]
        for r in range(row + 1, m):
            while h[r][col] != 0:
                q = h[row][col] // h[r][col]
                h[row] = [a - q * b for a, b in zip(h[row], h[r])]
                h[row], h[r] = h[r], h[row]
        if h[row][col] < 0:
            h[row] = [-a for a in h[row]]
        for r in range(row):
            q = h[r][col] // h[row][col]
            if q:
                h[r] = [a - q * b for a, b in zip(h[r], h[row])]
        row += 1
    return tuple(map(tuple, h))


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
    [s | u], so u rides in the identity columns.  Then a 2x2 gcd/lcm step
    per pair d_i, d_j with d_i not dividing d_j restores the chain.  Each
    pass polls the budget.
    """
    n = len(a[0]) if a else 0
    h = hnf(_with_identity(a))
    s = [row[:n] for row in h]
    while any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
        budget.check()
        s = transpose(hnf(transpose(s)))
        h = hnf([row + su[n:] for row, su in zip(s, h)])
        s = [row[:n] for row in h]
    # HNF pivots are positive and zero rows sink: d_0, ..., d_{r-1} > 0, then zeros
    d = [s[i][i] for i in range(min(len(s), n))]
    r = len(d) - d.count(0)
    u = [list(row[n:]) for row in h]
    for i in range(r):
        for j in range(i + 1, r):
            if d[j] % d[i] == 0:
                continue
            # diag(a, b) -> diag(g, lcm): rows by [[x, y], [-b/g, a/g]], columns
            # (not kept) by [[1, -yb/g], [1, xa/g]], both of determinant xa/g + yb/g = 1
            a, b = d[i], d[j]
            g = gcd(a, b)
            ag, bg = a // g, b // g
            x = pow(ag, -1, bg)
            y = (g - x * a) // b
            ui, uj = u[i], u[j]
            u[i] = [x * p + y * q for p, q in zip(ui, uj)]
            u[j] = [ag * q - bg * p for p, q in zip(ui, uj)]
            d[i], d[j] = g, ag * b
    return tuple(d), tuple(map(tuple, u))


def snf_divisors(a):
    """Nonzero Smith normal form diagonal entries (the elementary divisors)."""
    return tuple(x for x in snf(a)[0] if x)
