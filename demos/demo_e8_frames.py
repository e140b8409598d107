"""
Norm-4 frames of the rank-8 even unimodular lattice
===================================================

A frame here is a set of 8 sign pairs {+-x_i} of norm-4 vectors that are
pairwise orthogonal.  Every such frame determines a glue group (how the
lattice sits over the frame sublattice) and a tower of stabilizer
subgroups inside the lattice's isometry group.  This script prints the
invariant table for one representative of each of the four frame classes.

Run with --census to also count every frame in the lattice (about half a
minute of exact integer arithmetic).
"""

import sys

from vftk import (
    W_E8_ORDER,
    classify_e8_frames,
    e8_frame_representatives,
    e8_lattice,
    frame_invariants,
    type_string,
)
from vftk.frames import frame_stabilizer

e8 = e8_lattice()
reps = e8_frame_representatives()

print("frame classes of the rank-8 even unimodular lattice")
print(f"isometry group order: {W_E8_ORDER}")
print()

header = f"{'k':>2} {'glue shape':>10} {'|W_X|':>9} {'|D_X|':>6} {'|G_C|':>6} {'G cap T':>16} {'|G|':>13}"
print(header)
print("-" * len(header))
for k in sorted(reps):
    inv = frame_invariants(e8, reps[k])
    delta = type_string((2,) * inv.two_rank + (4,) * inv.four_rank)
    print(
        f"{k:>2} {delta:>10} {inv.monomial_order:>9} {inv.sign_order:>6}"
        f" {f'2^{inv.pointwise_order.bit_length() - 1}':>6}"
        f" {inv.torus_stab_type:>16} {inv.full_order:>13}"
    )

# the frame-wise constraints that make the table rigid:
#   |G_C|       = 2^(l + 2k + e)   (pointwise stabilizer of the frame)
#   |G|/|G_C|   = 2^8 |W_X| / |D_X|  (image in the coordinate permutations)
for k in sorted(reps):
    inv = frame_invariants(e8, reps[k])
    assert inv.pointwise_order == 2 ** (inv.two_rank + 2 * inv.four_rank + inv.sign_log2)
    assert inv.perm_image_order * inv.sign_order == 2**8 * inv.monomial_order

if "--census" in sys.argv[1:]:
    # count every frame in the lattice by orbit-stabilizer: the number of
    # frames in a class times the monomial-image order is the full isometry
    # group order, class by class
    print()
    print("counting all frames ...")
    census = classify_e8_frames()
    for cls in census.classes:
        assert cls.count * frame_stabilizer(e8, cls.representative).order == W_E8_ORDER
        print(f"  k={cls.four_rank}: {cls.count:>7} frames  (glue shape {cls.delta_type})")
    print(f"  total: {census.total} frames")
