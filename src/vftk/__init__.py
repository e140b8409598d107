"""Exact-arithmetic toolkit for norm-4 lattice frames and their symmetry.

Everything is exact: matrices, lattices, glue and discriminant groups live
on Python integers, and Fraction is kept for values that are rational
themselves (rational row bases, inner products, determinants, norms).  The
package covers integral lattices and their discriminant groups, binary and
Z4 glue codes, frame classification and stabilizer orders for the rank-8
even unimodular lattice, sign-cocycle central extensions with lifted
isometries and involution bookkeeping, even unimodular overlattices glued
from isotropic subgroups, and the orbit classification of odd Lagrangians
in split quadratic spaces over GF(2).  The ``vftk`` command line emits the
same results as JSON reports with built-in cross-checks.

Results are immutable records, each a subclass of a collections.namedtuple
with empty __slots__: tuples with named fields, whose repr is
Name(field=value, ...) and whose hash is that of the field tuple.  Being
tuples they also iterate, order with < and equal a plain tuple of their
fields, except Z4Code, which compares (length, words) and only with another
Z4Code.
"""

from .abelian import type_string
from .budget import BudgetExceeded, limit
from .f2codes import (
    BinaryCode,
    Marking,
    all_markings,
    classify_markings,
    hamming_code,
    rm1_subcode,
)
from .f2quad import (
    enumerate_odd_lagrangians,
    left_overlap,
    orbit_census,
    same_orbit_witness,
    stabilizer_structure,
    standard_odd_lagrangian,
)
from .frames import (
    FrameCensus,
    FrameInvariants,
    LatticeFrame,
    W_E8_ORDER,
    classify_e8_frames,
    e8_frame_representatives,
    frame_group_order,
    frame_invariants,
    order_sym_wr_agl,
)
from .hatgroup import (
    EpsilonCocycle,
    HatElement,
    all_lifts,
    lift_automorphism,
    miyamoto_involutions,
    standard_cocycle,
)
from .lattices import (
    DiscriminantGroup,
    IntegralLattice,
    direct_sum,
    discriminant_group,
    e8_lattice,
    lattice_from_code,
    short_vectors,
)
from .unimodular import (
    definite_automorphisms,
    hyperbolic_unimodularize,
    isotropic_subgroup,
    overlattice_from_isotropic,
    prime_power_twist,
    strong_extension_check,
    sum_four_squares_mod,
    sum_two_squares_mod,
    unimodularize,
)
from .verify import VerificationError

__version__ = "0.1.0"

__all__ = [
    "type_string",
    "BudgetExceeded",
    "limit",
    "BinaryCode",
    "Marking",
    "all_markings",
    "classify_markings",
    "hamming_code",
    "rm1_subcode",
    "enumerate_odd_lagrangians",
    "left_overlap",
    "orbit_census",
    "same_orbit_witness",
    "stabilizer_structure",
    "standard_odd_lagrangian",
    "FrameCensus",
    "FrameInvariants",
    "LatticeFrame",
    "W_E8_ORDER",
    "classify_e8_frames",
    "e8_frame_representatives",
    "frame_group_order",
    "frame_invariants",
    "order_sym_wr_agl",
    "EpsilonCocycle",
    "HatElement",
    "all_lifts",
    "lift_automorphism",
    "miyamoto_involutions",
    "standard_cocycle",
    "DiscriminantGroup",
    "IntegralLattice",
    "direct_sum",
    "discriminant_group",
    "e8_lattice",
    "lattice_from_code",
    "short_vectors",
    "definite_automorphisms",
    "hyperbolic_unimodularize",
    "isotropic_subgroup",
    "overlattice_from_isotropic",
    "prime_power_twist",
    "strong_extension_check",
    "sum_four_squares_mod",
    "sum_two_squares_mod",
    "unimodularize",
    "VerificationError",
]
