"""
Sign cocycle, lifted isometries, and frame involutions
======================================================

An even lattice carries a standard 2-cocycle eps with values in {+-1}
whose twisted group ring realizes the central extension 1 -> {+-1} ->
L-hat -> L -> 1.  Lattice isometries lift to the extension in exactly
2^rank ways; the lifts of the identity are the sign characters.  On a
norm-4 frame the involutive lifts cut out eigenspaces whose dimensions
are the frame's basic representation-theoretic data.
"""

from vftk import (
    HatElement,
    all_lifts,
    e8_lattice,
    miyamoto_involutions,
    standard_cocycle,
)
from vftk.hatgroup import involution_class

lat = e8_lattice()
c = standard_cocycle(lat)
n = lat.rank
basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]

# the sign rules that pin the extension down
x, y = basis[0], basis[1]
print(f"eps(x, x) = {c.epsilon(x, x)}   (realizes (-1)^(norm/2))")
print(f"eps(x, y) * eps(y, x) = {c.epsilon(x, y) * c.epsilon(y, x)}   (realizes (-1)^<x,y>)")

# lifting the identity: 2^8 sign characters, all fixing the underlying
# vectors, all homomorphisms of the extension
ident = tuple(basis)
lifts = list(all_lifts(c, ident))
print(f"\nlifts of the identity isometry: {len(lifts)}")
assert all(lift.is_kernel_element() for lift in lifts)
assert all(lift.apply(HatElement(1, x)).vec == x for lift in lifts for x in basis)

# involutions attached to a frame of 2^k axes: they form one affine coset
# of a rank k-1 subgroup, and every nontrivial one has a 128-dimensional
# minus part (all conjugate; none of the 120-type survive)
print()
for k in range(1, 6):
    chars = miyamoto_involutions(k)
    rep = involution_class(k, next(iter(chars)))
    print(
        f"k={k}: {len(chars):>2} involutions, minus part {rep.minus_dim},"
        f" plus part {rep.plus_dim}, class {rep.label}"
    )
