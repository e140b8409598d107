"""Exact matrix arithmetic over Z and Q.

Matrices are tuples/lists of row tuples; vectors are row tuples.  Row
convention throughout the package: a vector acts on the left, v @ M.
Everything is arbitrary precision (int / fractions.Fraction); nothing here
ever touches floating point.
"""

from fractions import Fraction

from . import budget

__all__ = [
    "identity",
    "mat_mul",
    "vec_mat",
    "transpose",
    "det",
    "inverse",
    "hnf",
    "hnf_basis",
    "snf",
    "snf_divisors",
    "is_unimodular",
]


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def vec_mat(v, m):
    cols = list(zip(*m))
    return tuple(sum(x * y for x, y in zip(v, col)) for col in cols)


def det(a):
    """Exact determinant; Bareiss for int matrices, Gauss over Q otherwise."""
    n = len(a)
    if n == 0:
        return 1
    if all(isinstance(x, int) for row in a for x in row):
        return _det_bareiss([list(r) for r in a])
    return _det_gauss([[Fraction(x) for x in r] for r in a])


def _det_bareiss(m):
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _det_gauss(m):
    n = len(m)
    sign = 1
    out = Fraction(1)
    for k in range(n):
        pivot = None
        for r in range(k, n):
            if m[r][k] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        out *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return sign * out


def inverse(a):
    """Exact inverse as a Fraction matrix; raises ValueError if singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


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


def snf(a, deadline=None):
    """Smith normal form with transforms: returns (d, u, v), u @ a @ v = d.

    d is diagonal (rectangular allowed) with nonnegative entries satisfying
    the divisibility chain; u and v are unimodular.  Every row or column
    operation polls the deadline (BudgetExceeded once it has passed).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    s = [list(r) for r in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, q):
        budget.check(deadline)
        s[dst] = [x + q * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        budget.check(deadline)
        for r in s:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    t = 0
    while t < min(m, n):
        # locate a nonzero pivot in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0:
                    if piv is None or abs(s[i][j]) < abs(s[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    addmul_row(i, t, -q)
                    if s[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    addmul_col(j, t, -q)
                    if s[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # pivot must divide the rest of the block; if not, fold a bad row in
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            addmul_row(t, bad, 1)
            continue  # redo elimination at the same t
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return tuple(map(tuple, s)), tuple(map(tuple, u)), tuple(map(tuple, v))


def snf_divisors(a):
    """Nonzero Smith normal form diagonal entries (the elementary divisors)."""
    d, _, _ = snf(a)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return tuple(out)


def is_unimodular(a):
    return abs(det(a)) == 1
