"""Finite abelian quotients of free Z-modules.

A subgroup of Q^n is described by basis rows.  quotient_divisors(sup, sub)
computes the elementary divisors of span(sup)/span(sub) by writing the sub
basis in sup coordinates and taking the Smith normal form.
"""

from fractions import Fraction
from math import lcm, prod

from .intmat import hnf_basis, inverse, snf_divisors, vec_mat

__all__ = [
    "rational_row_basis",
    "quotient_divisors",
    "group_order",
    "type_counts",
    "type_string",
]


def rational_row_basis(rows):
    """Z-basis (tuple of Fraction rows) of the Z-span of rational rows."""
    rows = [tuple(Fraction(x) for x in r) for r in rows]
    if not rows:
        return ()
    den = lcm(*[x.denominator for r in rows for x in r]) if rows else 1
    int_rows = [tuple(int(x * den) for x in r) for r in rows]
    basis = hnf_basis(int_rows)
    return tuple(tuple(Fraction(x, den) for x in r) for r in basis)


def quotient_divisors(sup_rows, sub_rows):
    """Elementary divisors (> 1) of span(sup_rows)/span(sub_rows).

    Both spans are Z-modules of rational rows; sub must lie inside sup with
    finite index (same rank), else ValueError.
    """
    sup = rational_row_basis(sup_rows)
    sub = rational_row_basis(sub_rows)
    if len(sub) != len(sup):
        raise ValueError("quotient is not finite (ranks differ)")
    if not sup:
        return ()
    sup_sq, embed = _square_coords(sup)
    sup_inv = inverse(sup_sq)
    coords = []
    for r in sub:
        x = vec_mat(_project(r, embed), sup_inv)
        if any(c.denominator != 1 for c in x) or vec_mat(x, sup) != tuple(map(Fraction, r)):
            raise ValueError("sub is not contained in sup")
        coords.append(tuple(int(c) for c in x))
    divs = snf_divisors(coords)
    if len(divs) != len(sup):
        raise ValueError("quotient is not finite")
    return tuple(d for d in divs if d > 1)


def _square_coords(basis):
    """Pick a set of coordinate positions making the basis matrix square."""
    # basis rows are echelon (from HNF) so leading columns are independent
    cols = []
    for r in basis:
        for j, x in enumerate(r):
            if x != 0 and j not in cols:
                cols.append(j)
                break
    if len(cols) != len(basis):
        raise ValueError("basis rows are not independent")
    cols = sorted(cols)
    sq = tuple(tuple(r[j] for j in cols) for r in basis)
    return sq, cols


def _project(row, cols):
    return tuple(row[j] for j in cols)


def group_order(divisors):
    return prod(divisors) if divisors else 1


def type_counts(divisors):
    """Multiplicity of each cyclic order, e.g. (2,4,4) -> {2: 1, 4: 2}."""
    out = {}
    for d in divisors:
        out[d] = out.get(d, 0) + 1
    return out


def type_string(divisors):
    """Human form like '2 x 4^6 x 8'; '1' for the trivial group."""
    counts = type_counts(divisors)
    if not counts:
        return "1"
    parts = []
    for order in sorted(counts):
        m = counts[order]
        parts.append(f"{order}^{m}" if m > 1 else f"{order}")
    return " x ".join(parts)
