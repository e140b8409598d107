"""Exact matrix arithmetic over Z.

Matrices are tuples/lists of row tuples; vectors are row tuples.  Row
convention throughout the package: a vector acts on the left, v @ M.
Everything is arbitrary-precision int; nothing here ever touches floating
point or fractions.
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


def inverse(a):
    """Inverse of a unimodular int matrix: its HNF U a = H is the identity,
    so U = a^-1.  ValueError when H is not, i.e. a is not invertible over Z."""
    h, u = hnf(a)
    if h != identity(len(a)):
        raise ValueError("matrix is not invertible over the integers")
    return u


def hnf(rows):
    """Row-style Hermite normal form.

    Returns (H, U) with U @ rows == H, U unimodular.  H is in echelon form
    with positive pivots and entries above each pivot reduced into
    [0, pivot); zero rows sink to the bottom.
    """
    h = [list(r) for r in rows]
    m = len(h)
    ncols = len(h[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
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
        u[row], u[piv] = u[piv], u[row]
        for r in range(row + 1, m):
            while h[r][col] != 0:
                q = h[row][col] // h[r][col]
                h[row] = [a - q * b for a, b in zip(h[row], h[r])]
                u[row] = [a - q * b for a, b in zip(u[row], u[r])]
                h[row], h[r] = h[r], h[row]
                u[row], u[r] = u[r], u[row]
        if h[row][col] < 0:
            h[row] = [-a for a in h[row]]
            u[row] = [-a for a in u[row]]
        for r in range(row):
            q = h[r][col] // h[row][col]
            if q:
                h[r] = [a - q * b for a, b in zip(h[r], h[row])]
                u[r] = [a - q * b for a, b in zip(u[r], u[row])]
        row += 1
    return tuple(map(tuple, h)), tuple(map(tuple, u))


def hnf_basis(rows):
    """Nonzero rows of the HNF: a canonical Z-basis of the row span."""
    h, _ = hnf(rows)
    return tuple(r for r in h if any(r))


def snf(a):
    """Smith normal form with transforms: returns (d, u, v), u @ a @ v = d.

    d is diagonal (rectangular allowed) with nonnegative entries satisfying
    the divisibility chain, zeros last; u and v are unimodular.  Row and
    column HNFs alternate until the matrix is diagonal, so every entry stays
    reduced (Kannan & Bachem, SIAM J. Comput. 8(4), 1979); then a 2x2
    gcd/lcm step per pair d_i, d_j with d_i not dividing d_j restores the
    chain.  Each pass polls the budget.
    """
    n = len(a[0]) if a else 0
    s, u = hnf(a)
    v = identity(n)
    while any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
        budget.check()
        t, w = hnf(transpose(s))
        s, v = transpose(t), mat_mul(v, transpose(w))
        s, w = hnf(s)
        u = mat_mul(w, u)
    # HNF pivots are positive and zero rows sink: d_0, ..., d_{r-1} > 0, then zeros
    d = [s[i][i] for i in range(min(len(s), n))]
    r = len(d) - d.count(0)
    u, v = [list(row) for row in u], [list(row) for row in v]
    for i in range(r):
        for j in range(i + 1, r):
            if d[j] % d[i] == 0:
                continue
            # diag(a, b) -> diag(g, lcm): rows by [[x, y], [-b/g, a/g]], columns
            # by [[1, -yb/g], [1, xa/g]], both of determinant xa/g + yb/g = 1
            a, b = d[i], d[j]
            g = gcd(a, b)
            ag, bg = a // g, b // g
            x = pow(ag, -1, bg)
            y = (g - x * a) // b
            ui, uj = u[i], u[j]
            u[i] = [x * p + y * q for p, q in zip(ui, uj)]
            u[j] = [ag * q - bg * p for p, q in zip(ui, uj)]
            for row in v:
                row[i], row[j] = row[i] + row[j], x * ag * row[j] - y * bg * row[i]
            d[i], d[j] = g, ag * b
    s = tuple(tuple(d[i] if i == j else 0 for j in range(n)) for i in range(len(s)))
    return s, tuple(map(tuple, u)), tuple(map(tuple, v))


def snf_divisors(a):
    """Nonzero Smith normal form diagonal entries (the elementary divisors)."""
    d, _, _ = snf(a)
    return tuple(row[i] for i, row in enumerate(d) if i < len(row) and row[i])

