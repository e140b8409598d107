"""Central extension of an even lattice by {±1}, its lifted isometries,
and the involution bookkeeping for the nested length-16 codes.

The extension is presented by a bilinear sign cocycle on basis
coordinates.  Everything is exact: signs are +-1 ints, and the
"eigenspace dimensions" of the involution classifier are closed-form
integers — no analytic objects anywhere.
"""

from collections import namedtuple
from itertools import product as iproduct
from operator import mul

from .bits import f2_vec_mat
from .f2codes import rm1_subcode
from .intmat import identity, inverse, mat_mul, transpose, vec_mat
from .verify import verify

__all__ = [
    "EpsilonCocycle",
    "HatElement",
    "LiftedAutomorphism",
    "standard_cocycle",
    "lift_automorphism",
    "all_lifts",
    "miyamoto_involutions",
    "frame_index_characters",
    "weight_one_dim",
    "involution_class",
    "InvolutionReport",
]


class EpsilonCocycle(namedtuple("EpsilonCocycle", "lattice exponents")):
    """Sign cocycle eps(x, y) = (-1)^(x E y^T) on an even lattice.

    The exponent matrix E has (e_i, e_j) mod 2 below the diagonal, zeros
    above, and (e_i, e_i)/2 mod 2 on the diagonal; this realizes the two
    defining relations: squares (s,x)^2 = ((-1)^((x,x)/2), 2x) and
    commutators picking up (-1)^((x,y)).  exponents holds E as n rows of
    n 0/1 ints.
    """

    __slots__ = ()

    @property
    def rank(self):
        return len(self.exponents)

    def epsilon(self, x, y):
        rows = self.exponents
        total = sum(xi * sum(map(mul, rows[i], y)) for i, xi in enumerate(x) if xi)
        return -1 if total & 1 else 1

    # --- group law of the extension ---------------------------------------
    def product(self, a, b):
        sign = a.sign * b.sign * self.epsilon(a.vec, b.vec)
        return HatElement(sign, tuple(p + q for p, q in zip(a.vec, b.vec)))


class HatElement(namedtuple("HatElement", "sign vec")):
    """Element (sign, x) of the extension; sign in {+1, -1}, x in L."""

    __slots__ = ()

    def __new__(cls, sign, vec):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return tuple.__new__(cls, (sign, vec))


def standard_cocycle(lattice):
    """The upper-triangular-trivial cocycle of an even lattice."""
    if not lattice.is_even:
        raise ValueError("the sign extension needs an even lattice")
    n = lattice.rank
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i > j:
                row.append((lattice.gram2[i][j] // 2) % 2)
            elif i == j:
                row.append((lattice.gram2[i][i] // 4) % 2)
            else:
                row.append(0)
        rows.append(tuple(row))
    return EpsilonCocycle(lattice, tuple(rows))


def _lift_cmatrix(cocycle, w):
    """C = E + W E W^T mod 2; the obstruction bilinear form of the lift."""
    e = cocycle.exponents
    wewt = mat_mul(mat_mul(w, e), transpose(w))
    n = len(e)
    return tuple(
        tuple((e[i][j] + wewt[i][j]) % 2 for j in range(n)) for i in range(n)
    )


class LiftedAutomorphism(namedtuple("LiftedAutomorphism", "cocycle matrix mu_bits cmatrix")):
    """Extension automorphism (s, x) -> (s * mu(x), x W) over an isometry W.

    mu is determined by free sign bits on the basis plus the closed-form
    quadratic correction from the cocycle; the 2^n choices of mu_bits are
    exactly the lifts of W.
    """

    __slots__ = ()

    def mu_exponent(self, x):
        """mu_bits . x + sum over i of c_ii x_i (x_i - 1) / 2 + sum over
        i < j of c_ij x_i x_j, mod 2, with C = cmatrix."""
        c = self.cmatrix
        total = sum(map(mul, self.mu_bits, x))
        for i, xi in enumerate(x):
            if xi:
                row = c[i]
                total += (xi * (xi - 1) // 2) * row[i] + xi * sum(map(mul, row[i + 1 :], x[i + 1 :]))
        return total % 2

    def mu(self, x):
        return -1 if self.mu_exponent(x) else 1

    def apply(self, h):
        return HatElement(h.sign * self.mu(h.vec), vec_mat(h.vec, self.matrix))

    def compose(self, other):
        """This lift followed by `other` (a lift of matrix * other.matrix)."""
        # e_i maps to row i of the matrix, and mu_exponent(e_i) = mu_bits[i]
        bits = tuple(
            (b + other.mu_exponent(row)) % 2 for b, row in zip(self.mu_bits, self.matrix)
        )
        return lift_automorphism(self.cocycle, mat_mul(self.matrix, other.matrix), bits)

    def inverse(self):
        winv = inverse(self.matrix)
        bits = tuple(self.mu_exponent(row) for row in winv)
        return lift_automorphism(self.cocycle, winv, bits)

    def is_kernel_element(self):
        n = len(self.matrix)
        return self.matrix == identity(n)


def lift_automorphism(cocycle, w, mu_bits=None):
    """Lift of the isometry w with the given free sign bits (default all 0)."""
    n = cocycle.rank
    w = tuple(tuple(int(x) for x in row) for row in w)
    if not cocycle.lattice.is_isometry(w):
        raise ValueError("matrix does not preserve the bilinear form")
    if mu_bits is None:
        mu_bits = (0,) * n
    mu_bits = tuple(int(b) % 2 for b in mu_bits)
    if len(mu_bits) != n:
        raise ValueError("one mu bit per basis vector")
    return LiftedAutomorphism(cocycle, w, mu_bits, _lift_cmatrix(cocycle, w))


def all_lifts(cocycle, w):
    """All 2^n lifts of the isometry w."""
    base = lift_automorphism(cocycle, w)
    return [base._replace(mu_bits=bits) for bits in iproduct((0, 1), repeat=cocycle.rank)]


# --- involutions of the nested length-16 codes -------------------------------


def frame_index_characters(k):
    """Character of the k-th nested code attached to each of 16 indices.

    Index i yields the character I -> (-1)^(I_i); in generator coordinates
    that is the i-th column of the generator matrix, as a k-bit tuple.
    """
    code = rm1_subcode(k)
    return tuple(
        tuple((g >> i) & 1 for g in code.rows) for i in range(code.length)
    )


def miyamoto_involutions(k):
    """The distinct index characters; always 2^(k-1) of them.

    The set is an affine coset: every member evaluates the all-ones word
    to -1, and the full coset of that hyperplane is hit.
    """
    return frozenset(frame_index_characters(k))


def weight_one_dim(k, weight):
    """Weight-one subspace dimension attached to a word of the k-th code.

    Only weights 0, 8, 16 occur in these codes; the three values sum over
    the whole code to 248 for every k.
    """
    if weight == 0:
        return 8 * ((1 << (5 - k)) - 1)
    if weight in (8, 16):
        return 1 << (8 - k)
    raise ValueError(f"no word of weight {weight} in the nested codes")


class InvolutionReport(namedtuple("InvolutionReport", "minus_dim plus_dim label")):
    __slots__ = ()


def involution_class(k, chi):
    """Conjugacy class of the involution attached to a nontrivial character.

    The -1-eigenspace dimension on the weight-one space is the sum of
    weight_one_dim over the words the character negates; 128 means class
    2B, 112 would mean 2A.
    """
    chi = tuple(int(b) % 2 for b in chi)
    if len(chi) != k:
        raise ValueError("character must give one bit per generator")
    if not any(chi):
        raise ValueError("character is trivial")
    rows = rm1_subcode(k).rows
    chi_mask = sum(b << i for i, b in enumerate(chi))
    minus = 0
    total = 0
    for c in range(1 << k):
        dim = weight_one_dim(k, f2_vec_mat(c, rows).bit_count())
        total += dim
        if (c & chi_mask).bit_count() & 1:
            minus += dim
    verify(total == 248, "weight-one dimensions no longer sum to 248")
    label = "2B" if minus == 128 else ("2A" if minus == 112 else "unknown")
    return InvolutionReport(minus_dim=minus, plus_dim=total - minus, label=label)
