"""Finite abelian groups: subgroups of (Z/c)^n and their printed types.

quotient_divisors reads a subgroup of (Z/c)^n off one Smith form: with
d_i the Smith diagonal of the integer rows R,
(span(R) + cZ^n)/cZ^n is the sum of the Z/(c / gcd(c, d_i))
(Cohen, GTM 138, 2.4.3).

rational_row_basis holds a Z-module of rational rows as a common
denominator den and the integer HNF basis of the rows scaled by den.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from . import budget
from .intmat import hnf_basis, snf_divisors

__all__ = [
    "rational_row_basis",
    "quotient_divisors",
    "type_string",
    "prime_factors",
]


def _scaled_hnf(rows):
    """(den, basis): den clears every denominator in rows, basis is the HNF
    of the rows scaled by den, so basis / den is a Z-basis of their span."""
    den = lcm(1, *(x.denominator for r in rows for x in r))
    return den, hnf_basis([tuple(x.numerator * (den // x.denominator) for x in r) for r in rows])


def rational_row_basis(rows):
    """Z-basis (tuple of Fraction rows) of the Z-span of rational rows."""
    den, basis = _scaled_hnf(rows)
    return tuple(tuple(Fraction(x, den) for x in r) for r in basis)


def quotient_divisors(rows, modulus):
    """Elementary divisors (> 1), ascending, of the subgroup of
    (Z/modulus)^n that the integer rows span; ValueError if modulus < 1.

    The Smith diagonal d_1 | d_2 | ... gives modulus // gcd(modulus, d_i),
    each a multiple of the next, so the reversed list ascends.
    """
    if modulus < 1:
        raise ValueError("modulus must be at least 1")
    divs = (modulus // gcd(modulus, d) for d in reversed(snf_divisors(rows)))
    return tuple(q for q in divs if q > 1)


def type_string(divisors):
    """Human form like '2 x 4^6 x 8'; '1' for the trivial group."""
    counts = Counter(divisors)
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
