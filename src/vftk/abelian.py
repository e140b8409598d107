"""Finite abelian quotients of free Z-modules.

A Z-module of rational rows is held as a common denominator den and the
integer HNF basis of the rows scaled by den.  quotient_divisors(sup, sub)
writes the sub basis in sup coordinates by integer back-substitution along
the HNF pivots and takes the Smith normal form of those coordinates.
"""

from fractions import Fraction
from math import lcm

from . import budget
from .intmat import hnf_basis, snf_divisors

__all__ = [
    "rational_row_basis",
    "quotient_divisors",
    "type_counts",
    "type_string",
    "prime_factors",
]


def _scaled_hnf(rows):
    """(den, basis): den clears every denominator in rows, basis is the HNF
    of the rows scaled by den, so basis / den is a Z-basis of their span."""
    den = lcm(1, *(x.denominator for r in rows for x in r))
    return den, hnf_basis([tuple(x.numerator * (den // x.denominator) for x in r) for r in rows])


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


def rational_row_basis(rows):
    """Z-basis (tuple of Fraction rows) of the Z-span of rational rows."""
    den, basis = _scaled_hnf(rows)
    return tuple(tuple(Fraction(x, den) for x in r) for r in basis)


def quotient_divisors(sup_rows, sub_rows):
    """Elementary divisors (> 1) of span(sup_rows)/span(sub_rows).

    Both spans are Z-modules of rational rows; sub must lie inside sup with
    finite index (same rank), else ValueError.  A sub row inside sup has
    denominators dividing sup's den, so both scale to integer rows by it.
    """
    den, sup = _scaled_hnf(sup_rows)
    sub_den, sub = _scaled_hnf(sub_rows)
    if len(sub) != len(sup):
        raise ValueError("quotient is not finite (ranks differ)")
    if not sup:
        return ()
    scale, rem = divmod(den, sub_den)
    coords = [_hnf_coords(sup, [x * scale for x in r]) for r in sub]
    if rem or None in coords:
        raise ValueError("sub is not contained in sup")
    divs = snf_divisors(coords)
    if len(divs) != len(sup):
        raise ValueError("quotient is not finite")
    return tuple(d for d in divs if d > 1)


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


def prime_factors(n):
    """Yield (p, e) with p^e exactly dividing n, p ascending, by trial
    division.  Lazy: a caller that stops at the least factor divides no
    further.  Polls the budget once per 4096 odd trial factors."""
    p = 2
    while n > 1:
        if p * p > n:
            p = n  # what is left is prime
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
        p += 1 if p == 2 else 2
        if p % 8192 == 1:
            budget.check()
