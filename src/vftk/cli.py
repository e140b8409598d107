"""Command-line reports for the toolkit's tables and order formulas.

Every subcommand prints one JSON report::

    {"schema": 1, "command": ..., "inputs": ..., "results": ...,
     "checks": [{"name", "expected", "actual", "pass", "source"}, ...]}

Counts and group orders are serialized as decimal strings because many
exceed 64 bits.  Each check carries a ``source``: "reference" for values
frozen from the published tables, "definition" for identities immediate
from the constructions, and "computed" for values this package derives
independently.  The exit status is 0 when every check passes, 1 when at
least one fails or a computation fails its own self-check (reported as
an ``error``), 2 for bad flags, 3 for unreadable or invalid input, and
4 when the ``VFTK_BUDGET_SECONDS`` wall-clock budget runs out.
"""

import argparse
import json
import random
import sys
from math import factorial

from . import budget
from .abelian import type_string
from .f2codes import classify_markings, hamming_code, rm1_subcode
from .f2quad import (
    left_stabilizer_order,
    nonsingular_count,
    nonsingular_vectors,
    orbit_census,
    total_odd_count,
)
from .fileio import ParseError, load_frame, load_gram
from .frames import (
    W_E8_ORDER,
    classify_e8_frames,
    e8_frame_representatives,
    frame_group_order,
    frame_invariants,
    order_sym_wr_agl,
)
from .hatgroup import (
    HatElement,
    all_lifts,
    frame_index_characters,
    involution_class,
    lift_automorphism,
    miyamoto_involutions,
    standard_cocycle,
    weight_one_dim,
)
from .intmat import identity
from .lattices import e8_lattice, short_vectors
from .unimodular import (
    dirichlet_prime,
    first_block_primitive,
    hyperbolic_unimodularize,
    prime_power_twist,
    unimodularize,
)
from .verify import VerificationError

__all__ = ["run", "main", "build_parser"]

REFERENCE = "reference"
DEFINITION = "definition"
COMPUTED = "computed"

# the four rank-8 frame classes: glue 2-rank, sign exponent, glue shape,
# monomial-image order, sign-part order, pointwise-part order, class size
E8_TABLE = {
    1: (6, 7, "2^6 x 4", 5160960, 128, 2**15, 135),
    2: (4, 6, "2^4 x 4^2", 73728, 64, 2**14, 9450),
    3: (2, 4, "2^2 x 4^3", 6144, 16, 2**12, 113400),
    4: (0, 1, "4^4", 2688, 2, 2**9, 259200),
}


def _norm(x):
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_norm(v) for v in x]
    return x


def _check(name, expected, actual, source):
    exp, act = _norm(expected), _norm(actual)
    return {"name": name, "expected": exp, "actual": act, "pass": exp == act, "source": source}


def _report(command, inputs, results, checks):
    return {
        "schema": 1,
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
    }


# --- e8-frames ---------------------------------------------------------------


def _invariant_fields(inv):
    """(glue shape, stabilizer fields) of one frame, as both frame reports print them."""
    delta_type = type_string((2,) * inv.two_rank + (4,) * inv.four_rank)
    return delta_type, {
        "wx_order": str(inv.monomial_order),
        "dx_order": str(inv.sign_order),
        "gd_order": str(inv.miyamoto_order),
        "gc_order": str(inv.pointwise_order),
        "g_cap_t_type": inv.torus_stab_type,
        "g_over_gc_order": str(inv.perm_image_order),
        "g_order": str(inv.full_order),
    }


def _cmd_e8_frames(args):
    lattice_reps = e8_frame_representatives()
    census = classify_e8_frames() if args.census else None
    by_k = {c.four_rank: c for c in census.classes} if census else {}
    rows = []
    checks = []
    e8 = e8_lattice()
    for k in sorted(lattice_reps):
        budget.check()
        inv = frame_invariants(e8, lattice_reps[k])
        l, e, delta, wx, dx, gc, count = E8_TABLE[k]
        delta_type, orders = _invariant_fields(inv)
        rows.append({"k": k, "l": inv.two_rank, "e": inv.sign_log2, "delta_type": delta_type, **orders})
        if census:
            cls = by_k[k]
            rows[-1]["census_count"] = str(cls.count)
            checks += [
                _check(f"k={k} class size", count, cls.count, COMPUTED),
                _check(
                    f"k={k} size times monomial order",
                    W_E8_ORDER,
                    cls.count * inv.monomial_order,
                    COMPUTED,
                ),
            ]
        checks += [
            _check(f"k={k} glue shape", delta, delta_type, REFERENCE),
            _check(f"k={k} glue 2-rank", l, inv.two_rank, REFERENCE),
            _check(f"k={k} sign exponent", e, inv.sign_log2, REFERENCE),
            _check(f"k={k} monomial-image order", wx, inv.monomial_order, REFERENCE),
            _check(f"k={k} sign-part order", dx, inv.sign_order, REFERENCE),
            _check(f"k={k} pointwise-part order", gc, inv.pointwise_order, REFERENCE),
            _check(f"k={k} involution-part order", 2**k, inv.miyamoto_order, DEFINITION),
            _check(
                f"k={k} quotient by pointwise part",
                2**8 * wx // dx,
                inv.perm_image_order,
                COMPUTED,
            ),
            _check(
                f"k={k} torus stabilizer type",
                type_string((2,) * (8 - l - k) + (4,) * l + (8,) * k),
                inv.torus_stab_type,
                COMPUTED,
            ),
        ]
    results = {"ambient_symmetry_order": str(W_E8_ORDER), "rows": rows}
    if census:
        checks.append(_check("total frame count", 382185, census.total, COMPUTED))
        results["total"] = str(census.total)
        results["note"] = census.note
    return _report("e8-frames", {"census": bool(args.census)}, results, checks)


# --- frame-invariants --------------------------------------------------------


def _cmd_frame_invariants(args):
    lattice = load_gram(args.gram)
    frame = load_frame(args.frame, lattice)
    inv = frame_invariants(lattice, frame)
    n, l, k, e = inv.pair_count, inv.two_rank, inv.four_rank, inv.sign_log2
    delta_type, orders = _invariant_fields(inv)
    results = {"delta_type": delta_type, "l": l, "k": k, "e": e, **orders}
    checks = [
        _check("pair count equals rank", lattice.rank, n, DEFINITION),
        _check("glue order is 2^l 4^k", 2**l * 4**k, inv.glue_order, DEFINITION),
        _check("pointwise order is 2^(l+2k+e)", 2 ** (l + 2 * k + e), inv.pointwise_order, DEFINITION),
        _check("involution part is 2^k", 2**k, inv.miyamoto_order, DEFINITION),
        _check(
            "torus stabilizer type",
            type_string((2,) * (n - l - k) + (4,) * l + (8,) * k),
            inv.torus_stab_type,
            DEFINITION,
        ),
        _check(
            "full order factors",
            inv.pointwise_order * inv.perm_image_order,
            inv.full_order,
            DEFINITION,
        ),
        _check("sign part divides monomial image", 0, inv.monomial_order % inv.sign_order, DEFINITION),
    ]
    return _report(
        "frame-invariants", {"gram": args.gram, "frame": args.frame}, results, checks
    )


# --- markings ----------------------------------------------------------------


def _cmd_markings(args):
    code = hamming_code()
    orbits, aut_order = classify_markings(code)
    sizes = [size for _, size in orbits]
    results = {
        "code": args.code,
        "marking_count": str(sum(sizes)),
        "orbit_count": len(orbits),
        "orbit_sizes": [str(s) for s in sizes],
        "representatives": [[list(p) for p in rep.pairs] for rep, _ in orbits],
        "automorphism_order": str(aut_order),
    }
    checks = [
        _check("marking count", 105, sum(sizes), REFERENCE),
        _check("orbit count", 3, len(orbits), REFERENCE),
        _check("automorphism order", 1344, aut_order, REFERENCE),
        _check("orbit sizes partition the markings", 105, sum(sizes), DEFINITION),
        _check(
            "orbit sizes divide the automorphism order",
            True,
            all(aut_order % s == 0 for s in sizes),
            DEFINITION,
        ),
    ]
    return _report("markings", {"code": args.code}, results, checks)


# --- stabilizer-orders -------------------------------------------------------


def _cmd_stabilizer_orders(args):
    ks = [args.k] if args.k else [1, 2, 3, 4, 5]
    rows = []
    checks = []
    for k in ks:
        budget.check()
        g = frame_group_order(k)
        wreath = order_sym_wr_agl(k)
        gc = g // wreath
        rows.append(
            {
                "k": k,
                "gc_order": str(gc),
                "wreath_order": str(wreath),
                "g_order": str(g),
            }
        )
        checks.append(_check(f"k={k} order factors", gc * wreath, g, DEFINITION))
        if k <= 4:
            checks.append(
                _check(f"k={k} pointwise part", E8_TABLE[k][5], gc, REFERENCE)
            )
        if k == 1:
            checks.append(_check("k=1 order is 2^15 16!", 2**15 * factorial(16), g, REFERENCE))
        if k == 5:
            checks.append(_check("k=5 order is 2^9 20160", 2**9 * 20160, g, REFERENCE))
            checks.append(_check("k=5 pointwise part is 2^5", 2**5, gc, DEFINITION))
    return _report("stabilizer-orders", {"k": args.k}, {"rows": rows}, checks)


# --- miyamoto ----------------------------------------------------------------


def _cmd_miyamoto(args):
    ks = [args.k] if args.k else [1, 2, 3, 4, 5]
    rows = []
    checks = []
    for k in ks:
        budget.check()
        invs = miyamoto_involutions(k)
        cols = frame_index_characters(k)
        all_chis = [
            tuple((w >> i) & 1 for i in range(k)) for w in range(1, 1 << k)
        ]
        classes = {chi: involution_class(k, chi) for chi in all_chis}
        minus_dims = sorted({c.minus_dim for c in classes.values()})
        labels = sorted({c.label for c in classes.values()})
        dims = {str(w): weight_one_dim(k, w) for w in (0, 8, 16)}
        rows.append(
            {
                "k": k,
                "involution_count": str(len(invs)),
                "distinct_index_characters": str(len(set(cols))),
                "minus_dims": [str(d) for d in minus_dims],
                "labels": labels,
                "weight_one_dims": {w: str(d) for w, d in dims.items()},
            }
        )
        checks += [
            _check(f"k={k} involution count", 2 ** (k - 1), len(invs), COMPUTED),
            _check(
                f"k={k} affine coset",
                True,
                all(sum(chi) % 2 == 1 for chi in invs),
                DEFINITION,
            ),
            _check(f"k={k} all nontrivial characters give -1-dim 128", [128], minus_dims, REFERENCE),
            _check(f"k={k} single conjugacy type", ["2B"], labels, REFERENCE),
            _check(
                f"k={k} weight-one dims sum to 248",
                248,
                sum(weight_one_dim(k, w.bit_count()) for w in rm1_subcode(k).words()),
                REFERENCE,
            ),
        ]
    return _report("miyamoto", {"k": args.k}, {"rows": rows}, checks)


# --- unimodularize -----------------------------------------------------------


def _embedding_json(over):
    glue = over.glue
    return {"denominator": str(glue.den), "rows": [[str(x) for x in row] for row in glue.basis]}


def _lattice_json(lattice):
    halved = any(x % 2 for row in lattice.gram2 for x in row)
    rows = lattice.gram2 if halved else [[x // 2 for x in row] for row in lattice.gram2]
    return {
        "rank": lattice.rank,
        "scale": "1/2" if halved else "1",
        "gram": [[str(x) for x in row] for row in rows],
    }


def _cmd_unimodularize(args):
    lattice = load_gram(args.gram)
    inputs = {"gram": args.gram, "mode": args.mode, "min_prime": args.min_prime}
    checks = []
    if args.mode == "definite":
        over = unimodularize(lattice)
        checks.append(_check("determinant", 1, abs(over.result.determinant()), DEFINITION))
    elif args.mode == "hyperbolic":
        over = hyperbolic_unimodularize(lattice)
        checks.append(_check("determinant", 1, abs(over.result.determinant()), DEFINITION))
        checks.append(_check("indefinite", False, over.result.is_definite, COMPUTED))
    else:
        s = dirichlet_prime(lattice, args.min_prime)
        over = prime_power_twist(lattice, s)
        inputs["twist_prime"] = str(s)
        checks.append(
            _check("determinant is the twist power", s**lattice.rank, over.result.determinant(), DEFINITION)
        )
    result = over.result
    checks += [
        _check("result is even", True, result.is_even, DEFINITION),
        _check(
            "rank bookkeeping",
            over.diagonal_copies * lattice.rank + over.tail_rank,
            result.rank,
            DEFINITION,
        ),
        _check(
            "first block embeds primitively",
            True,
            first_block_primitive(over, lattice.rank),
            COMPUTED,
        ),
    ]
    if lattice.rank and lattice.is_definite and args.mode != "hyperbolic":
        checks.append(_check("definiteness preserved", True, result.is_definite, COMPUTED))
    if result.rank == 8 and result.is_definite and abs(result.determinant()) == 1:
        checks.append(
            _check(
                "norm-2 vector count",
                240,
                len(short_vectors(result, 2)),
                COMPUTED,
            )
        )
    results = {
        "base": _lattice_json(lattice),
        "result": _lattice_json(result),
        "diagonal_copies": over.diagonal_copies,
        "tail_rank": over.tail_rank,
        "glue_order": str(over.glue.order()),
        "embedding": _embedding_json(over),
    }
    return _report("unimodularize", inputs, results, checks)


# --- f2quad ------------------------------------------------------------------


def _cmd_f2quad(args):
    n = args.n
    if n < 1:
        raise ValueError("n must be positive")
    census = orbit_census(n, args.exhaustive)
    orbits = [
        {
            "j": row.overlap,
            "size": str(row.size),
            "u_order": str(row.unipotent_order),
            "levi": row.levi,
        }
        for row in census
    ]
    results = {
        "n": n,
        "orbits": orbits,
        "nonsingular_count": str(len(nonsingular_vectors(n)) if n <= 8 else nonsingular_count(n)),
        "group_order": str(left_stabilizer_order(n)),
    }
    checks = [
        _check("orbit count", n, len(census), COMPUTED),
        _check("sizes sum to the member count", total_odd_count(n), sum(r.size for r in census), DEFINITION),
        _check(
            "orbit-stabilizer products",
            [left_stabilizer_order(n)] * n,
            [r.size * r.stabilizer_order for r in census],
            DEFINITION,
        ),
        _check(
            "nonsingular vector count",
            2 ** (2 * n - 1) - 2 ** (n - 1),
            int(results["nonsingular_count"]),
            COMPUTED,
        ),
    ]
    if n == 5:
        checks += [
            _check("overlap-0 unipotent order", 2**4, census[0].unipotent_order, REFERENCE),
            _check("overlap-4 unipotent order", 2**14, census[4].unipotent_order, REFERENCE),
            _check(
                "class sizes",
                [31744, 29760, 8680, 930, 31],
                [r.size for r in census],
                COMPUTED,
            ),
        ]
    return _report("f2quad", {"n": n, "exhaustive": bool(args.exhaustive)}, results, checks)


# --- hat-verify --------------------------------------------------------------


def _cmd_hat_verify(args):
    lattice = load_gram(args.gram)
    cocycle = standard_cocycle(lattice)
    n = lattice.rank
    rng = random.Random(0)

    def vec():
        return tuple(rng.randrange(-3, 4) for _ in range(n))

    def hat():
        return HatElement(rng.choice((1, -1)), vec())

    samples = 60
    squares = commutators = bilinear = 0
    for _ in range(samples):
        budget.check()
        x, y, z = vec(), vec(), vec()
        squares += cocycle.epsilon(x, x) == (-1) ** (lattice.norm(x) // 2 % 2)
        commutators += cocycle.epsilon(x, y) * cocycle.epsilon(y, x) == (-1) ** (
            int(lattice.inner(x, y)) % 2
        )
        sx = tuple(a + b for a, b in zip(x, y))
        bilinear += cocycle.epsilon(sx, z) == cocycle.epsilon(x, z) * cocycle.epsilon(y, z)
    checks = [
        _check("square relation on samples", samples, squares, DEFINITION),
        _check("commutator relation on samples", samples, commutators, DEFINITION),
        _check("bilinearity on samples", samples, bilinear, DEFINITION),
    ]
    ident = identity(n)
    neg = tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
    lift_total = lift_ok = 0
    for w in (ident, neg):
        for lift in all_lifts(cocycle, w):
            budget.check()
            lift_total += 1
            lift_ok += all(
                lift.apply(cocycle.product(a, b))
                == cocycle.product(lift.apply(a), lift.apply(b))
                for a, b in [(hat(), hat()) for _ in range(6)]
            )
    checks.append(_check("lifts act as homomorphisms", lift_total, lift_ok, DEFINITION))
    base = lift_automorphism(cocycle, neg)
    round_trip = base.compose(base.inverse())
    inverse_ok = all(round_trip.apply(a) == a for a in [hat() for _ in range(10)])
    checks.append(_check("lift inverse round-trip", True, inverse_ok, DEFINITION))
    results = {
        "rank": n,
        "determinant": str(lattice.determinant()),
        "lift_count_per_isometry": str(2**n),
        "samples": str(samples),
    }
    return _report("hat-verify", {"gram": args.gram}, results, checks)


# --- driver ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vftk",
        description="Exact reports on lattice frames, glue codes, stabilizer "
        "orders, unimodular overlattices, and GF(2) quadratic-space orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("e8-frames", help="classify the rank-8 norm-4 frames and their invariants")
    p.add_argument(
        "--census",
        action="store_true",
        help="also count every frame in the lattice (slower; adds class sizes)",
    )
    p.set_defaults(func=_cmd_e8_frames)

    p = sub.add_parser("frame-invariants", help="invariants of one frame given by files")
    p.add_argument("--gram", required=True, help="Gram file of the even lattice")
    p.add_argument("--frame", required=True, help="frame file (one row per sign pair)")
    p.set_defaults(func=_cmd_frame_invariants)

    p = sub.add_parser("markings", help="coordinate markings of the length-8 Hamming code")
    p.add_argument("--code", choices=["h8"], default="h8")
    p.set_defaults(func=_cmd_markings)

    p = sub.add_parser("stabilizer-orders", help="full stabilizer orders of the nested length-16 frames")
    p.add_argument("--k", type=int, choices=[1, 2, 3, 4, 5], default=None)
    p.set_defaults(func=_cmd_stabilizer_orders)

    p = sub.add_parser("miyamoto", help="involution counts and eigenspace dimensions")
    p.add_argument("--k", type=int, choices=[1, 2, 3, 4, 5], default=None)
    p.set_defaults(func=_cmd_miyamoto)

    p = sub.add_parser("unimodularize", help="even unimodular (or prime-power) overlattice of an even Gram")
    p.add_argument("--gram", required=True)
    p.add_argument("--mode", choices=["definite", "hyperbolic", "prime-power"], default="definite")
    p.add_argument("--min-prime", type=int, default=2, help="lower bound for the twist prime search")
    p.set_defaults(func=_cmd_unimodularize)

    p = sub.add_parser("f2quad", help="orbit census of odd Lagrangians over GF(2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true", help="enumerate and certify every member")
    p.set_defaults(func=_cmd_f2quad)

    p = sub.add_parser("hat-verify", help="sign-cocycle and lift identities for an even Gram")
    p.add_argument("--gram", required=True)
    p.set_defaults(func=_cmd_hat_verify)

    return parser


def run(argv=None):
    """Parse argv, execute, and return (report-or-None, exit code)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return None, (exc.code if isinstance(exc.code, int) else 2)
    try:
        with budget.limit(budget.seconds_from_env()):
            budget.check()
            report = args.func(args)
    except budget.BudgetExceeded as exc:
        return {"schema": 1, "command": args.command, "error": str(exc)}, 4
    except VerificationError as exc:
        return {"schema": 1, "command": args.command, "error": str(exc)}, 1
    except (ParseError, OSError, ValueError) as exc:
        return {"schema": 1, "command": args.command, "error": str(exc)}, 3
    code = 0 if all(c["pass"] for c in report["checks"]) else 1
    return report, code


def main(argv=None):
    report, code = run(argv)
    if report is not None:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
