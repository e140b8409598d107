"""The frozen records: namedtuple subclasses with pinned repr, hash and
immutability.

Reports and sets of records rely on three things: repr is
Name(field=value, ...), hash is the hash of the tuple of compared fields
(so set and dict orders stay put), and no field can be reassigned.
"""

import pytest

from vftk.f2codes import BinaryCode, Marking
from vftk.f2quad import OrbitWitness, orbit_census, stabilizer_structure, standard_odd_lagrangian
from vftk.frames import FrameCensus, FrameClass, Z4Code, e8_frame_representatives, frame_invariants
from vftk.hatgroup import (
    HatElement,
    LiftedAutomorphism,
    all_lifts,
    involution_class,
    lift_automorphism,
    standard_cocycle,
)
from vftk.intmat import identity
from vftk.lattices import IntegralLattice, discriminant_group, e8_lattice
from vftk.stabsearch import stabilizer
from vftk.unimodular import (
    ExtensionVerdict,
    Overlattice,
    definite_automorphisms,
    isotropic_subgroup,
    overlattice_from_isotropic,
)

A2 = IntegralLattice.from_gram([[2, -1], [-1, 2]])
L8 = IntegralLattice.from_gram([[8]])
HALF = isotropic_subgroup(L8, 2, [(1,)])
A2_ROT = ((0, 1), (-1, -1))

# (build, compared fields in order, repr)
RECORDS = {
    "BinaryCode": (
        lambda: BinaryCode.from_rows(4, (3, 12)),
        "length rows",
        "BinaryCode(length=4, rows=(12, 3))",
    ),
    "Marking": (
        lambda: Marking.from_pairs(((2, 0), (1, 3))),
        "pairs",
        "Marking(pairs=((0, 2), (1, 3)))",
    ),
    "OrbitWitness": (
        lambda: OrbitWitness(None, (0, 1)),
        "matrix overlaps",
        "OrbitWitness(matrix=None, overlaps=(0, 1))",
    ),
    "StabilizerInfo": (
        lambda: stabilizer_structure(2, standard_odd_lagrangian(2, 1)),
        "overlap order unipotent_order levi",
        "StabilizerInfo(overlap=1, order=4, unipotent_order=4, levi='GL(1,2) x GL(0,2)')",
    ),
    "OrbitClass": (
        lambda: orbit_census(2)[0],
        "overlap size stabilizer_order unipotent_order levi",
        "OrbitClass(overlap=0, size=6, stabilizer_order=2, unipotent_order=2, levi='GL(0,2) x GL(1,2)')",
    ),
    "Z4Code": (
        lambda: Z4Code.from_generators(2, [(1, 2)]),
        "length words",
        "Z4Code(length=2, words=frozenset({(3, 2), (1, 2), (2, 0), (0, 0)}), generators=((1, 2),))",
    ),
    "FrameInvariants": (
        lambda: frame_invariants(e8_lattice(), e8_frame_representatives()[4]),
        "pair_count two_rank four_rank sign_log2 glue_order monomial_order sign_order miyamoto_order"
        " pointwise_order torus_stab_divisors torus_stab_type torus_stab_order perm_image_order full_order",
        "FrameInvariants(pair_count=8, two_rank=0, four_rank=4, sign_log2=1, glue_order=256,"
        " monomial_order=2688, sign_order=2, miyamoto_order=16, pointwise_order=512,"
        " torus_stab_divisors=(2, 2, 2, 2, 8, 8, 8, 8), torus_stab_type='2^4 x 8^4',"
        " torus_stab_order=65536, perm_image_order=344064, full_order=176160768)",
    ),
    "FrameClass": (
        lambda: FrameClass(4, 0, "4^4", 259200, e8_frame_representatives()[4]),
        "four_rank two_rank delta_type count representative",
        "FrameClass(four_rank=4, two_rank=0, delta_type='4^4', count=259200,"
        " representative=LatticeFrame(8 pairs))",
    ),
    "FrameCensus": (
        lambda: FrameCensus((), 0, "none", 0),
        "classes total note nodes",
        "FrameCensus(classes=(), total=0, note='none', nodes=0)",
    ),
    "EpsilonCocycle": (
        lambda: standard_cocycle(A2),
        "lattice exponents",
        "EpsilonCocycle(lattice=IntegralLattice(rank=2, det=3), exponents=((1, 0), (1, 1)))",
    ),
    "HatElement": (
        lambda: HatElement(-1, (1, 0)),
        "sign vec",
        "HatElement(sign=-1, vec=(1, 0))",
    ),
    "LiftedAutomorphism": (
        lambda: lift_automorphism(standard_cocycle(A2), A2_ROT),
        "cocycle matrix mu_bits cmatrix",
        "LiftedAutomorphism(cocycle=EpsilonCocycle(lattice=IntegralLattice(rank=2, det=3),"
        " exponents=((1, 0), (1, 1))), matrix=((0, 1), (-1, -1)), mu_bits=(0, 0), cmatrix=((0, 0), (0, 0)))",
    ),
    "InvolutionReport": (
        lambda: involution_class(1, (1,)),
        "minus_dim plus_dim label",
        "InvolutionReport(minus_dim=128, plus_dim=120, label='2B')",
    ),
    "DiscriminantGroup": (
        lambda: discriminant_group(A2),
        "lattice rows orders",
        "DiscriminantGroup(lattice=IntegralLattice(rank=2, det=3), rows=((1, 2),), orders=(3,))",
    ),
    "StabilizerResult": (
        lambda: stabilizer([(0, 1), (1, 0)], 2, 2),
        "order sign_order orbit_sizes generators",
        "StabilizerResult(order=8, sign_order=4, orbit_sizes=(2, 1), generators=(((1, 0), (1, 1)),))",
    ),
    "IsotropicSubgroup": (
        lambda: HALF,
        "lattice den rows basis",
        "IsotropicSubgroup(lattice=IntegralLattice(rank=1, det=8), den=2, rows=((1,),), basis=((1,),))",
    ),
    "Overlattice": (
        lambda: overlattice_from_isotropic(L8, HALF),
        "base glue result diagonal_copies tail_rank",
        "Overlattice(base=IntegralLattice(rank=1, det=8), glue=IsotropicSubgroup(lattice="
        "IntegralLattice(rank=1, det=8), den=2, rows=((1,),), basis=((1,),)),"
        " result=IntegralLattice(rank=1, det=2), diagonal_copies=1, tail_rank=0)",
    ),
    "ExtensionVerdict": (
        lambda: ExtensionVerdict(True, ((1,),)),
        "extends matrix",
        "ExtensionVerdict(extends=True, matrix=((1,),))",
    ),
    "IsometryGroup": (
        lambda: definite_automorphisms(A2),
        "order orbit_sizes generators",
        "IsometryGroup(order=12, orbit_sizes=(6, 2),"
        " generators=(((1, 0), (-1, -1)), ((-1, -1), (0, 1)), ((-1, 0), (0, -1))))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_hash_and_immutability(name):
    build, compared, text = RECORDS[name]
    r = build()
    assert type(r).__name__ == name and isinstance(r, tuple)
    assert repr(r) == text
    fields = compared.split()
    assert hash(r) == hash(tuple(getattr(r, f) for f in fields))
    with pytest.raises(AttributeError):
        setattr(r, fields[0], None)
    with pytest.raises(AttributeError):
        r.extra = None


def test_hat_element_checks_its_sign():
    for sign in (0, 2, -2):
        with pytest.raises(ValueError):
            HatElement(sign, (1, 0))
    assert HatElement(sign=1, vec=(0,)) == HatElement(1, (0,))


def test_z4_code_equality_ignores_generators():
    a = Z4Code.from_generators(2, [(1, 2)])
    b = Z4Code.from_generators(2, [(3, 2), (1, 2), (2, 0)])
    assert a.generators != b.generators
    assert a == b and not a != b and hash(a) == hash(b)
    c = Z4Code.from_generators(2, [(2, 2)])
    assert a != c and not a == c
    # only a Z4Code compares equal, not the plain tuple of its fields
    assert a != tuple(a) and not a == tuple(a)
    assert tuple(a) != a and not tuple(a) == a


def test_overlattice_defaults():
    over = Overlattice(L8, HALF, IntegralLattice.from_gram([[2]]))
    assert (over.diagonal_copies, over.tail_rank) == (1, 0)
    assert over == overlattice_from_isotropic(L8, HALF)


def test_all_lifts_of_the_e8_identity():
    cocycle = standard_cocycle(e8_lattice())
    base = lift_automorphism(cocycle, identity(8))
    lifts = all_lifts(cocycle, identity(8))
    assert len(lifts) == 256 and len({lift.mu_bits for lift in lifts}) == 256
    for lift in lifts:
        assert type(lift) is LiftedAutomorphism
        assert lift == lift_automorphism(cocycle, identity(8), lift.mu_bits)
        assert (lift.cocycle, lift.matrix, lift.cmatrix) == (base.cocycle, base.matrix, base.cmatrix)
