"""
Even unimodular overlattices by glue
====================================

Any even definite lattice embeds primitively in an even unimodular one.
The construction pads the lattice with enough diagonal copies of itself
(scaled), finds an isotropic subgroup of the discriminant form killing
the whole discriminant, and glues.  Every isometry of the input extends
to the result — checked here generator by generator, with explicit
matrices.
"""

from vftk import (
    IntegralLattice,
    definite_automorphisms,
    hyperbolic_unimodularize,
    prime_power_twist,
    short_vectors,
    strong_extension_check,
    unimodularize,
)

A1 = IntegralLattice.from_gram([[2]])
A2 = IntegralLattice.from_gram([[2, -1], [-1, 2]])

for name, base in (("A1", A1), ("A2", A2)):
    over = unimodularize(base)
    res = over.result
    roots = len(short_vectors(res, 2))
    print(f"{name} (rank {base.rank}, det {base.determinant()})")
    print(f"  -> even unimodular of rank {res.rank}, det {res.determinant()}, {roots} roots")

    # the determinant-1 even definite lattice of rank 8 with 240 roots is
    # unique, so both inputs land in the same overlattice
    assert res.rank == 8 and abs(res.determinant()) == 1 and roots == 240

    # the extended generators compose, so every isometry of the group extends
    group = definite_automorphisms(base)
    verdicts = strong_extension_check(base, over, group.generators)
    assert all(v.extends for v in verdicts)
    print(f"  all {group.order} isometries extend to the overlattice")
    print()

# instead of killing the whole discriminant, one can aim at a prescribed
# prime-power determinant: glue away everything except one cyclic factor
twist = prime_power_twist(A1, 3)
print(f"A1 twisted to determinant 3: rank {twist.result.rank}, det {twist.result.determinant()}")

# indefinite route: two hyperbolic-plane-style glue steps reach an even
# unimodular overlattice of rank at most 2n+2, with the input primitive
for name, base in (("A1", A1), ("A2", A2)):
    over = hyperbolic_unimodularize(base)
    res = over.result
    print(f"{name} -> indefinite even unimodular of rank {res.rank}, det {res.determinant()}")
    assert res.is_even and abs(res.determinant()) == 1
