"""Check each op's report against references pinned here.

An op fails in exactly one class:

* ``timeout``    the benchmark killed it at its per-op timeout;
* ``exception``  an uncaught exception (the CLI would print a traceback);
* ``error_exit`` a non-zero exit with an error report or none (2, 3, 4);
* ``check``      exit 1: a check inside the report failed;
* ``mismatch``   the report disagrees with the benchmark's reference.

A failure is *known* when it matches one of ``KNOWN_DEFECTS``; every other
failure is unexplained and makes the run incorrect.  Known failures still
count as failed ops: they are reported, never filtered out.
"""

import json
from math import prod

from inputs import det, is_positive_definite, transpose

# --- pinned references -------------------------------------------------------

# the paper's E8 frame table, one row per glue class k
E8_ROWS = {
    1: {"l": 6, "e": 7, "delta_type": "2^6 x 4", "wx_order": "5160960", "dx_order": "128",
        "gd_order": "2", "gc_order": "32768", "g_cap_t_type": "2 x 4^6 x 8",
        "g_over_gc_order": "10321920", "g_order": "338228674560"},
    2: {"l": 4, "e": 6, "delta_type": "2^4 x 4^2", "wx_order": "73728", "dx_order": "64",
        "gd_order": "4", "gc_order": "16384", "g_cap_t_type": "2^2 x 4^4 x 8^2",
        "g_over_gc_order": "294912", "g_order": "4831838208"},
    3: {"l": 2, "e": 4, "delta_type": "2^2 x 4^3", "wx_order": "6144", "dx_order": "16",
        "gd_order": "8", "gc_order": "4096", "g_cap_t_type": "2^3 x 4^2 x 8^3",
        "g_over_gc_order": "98304", "g_order": "402653184"},
    4: {"l": 0, "e": 1, "delta_type": "4^4", "wx_order": "2688", "dx_order": "2",
        "gd_order": "16", "gc_order": "512", "g_cap_t_type": "2^4 x 8^4",
        "g_over_gc_order": "344064", "g_order": "176160768"},
}
E8_CLASS_SIZES = {1: 135, 2: 9450, 3: 113400, 4: 259200}
E8_FRAME_TOTAL = 382185
F2QUAD_N5_SIZES = [31744, 29760, 8680, 930, 31]
MARKINGS = {"marking_count": "105", "orbit_count": 3, "orbit_sizes": ["7", "42", "56"],
            "automorphism_order": "1344"}
MIYAMOTO_WEIGHT_ONE = {1: ("120", "128", "128"), 2: ("56", "64", "64"), 3: ("24", "32", "32"),
                       4: ("8", "16", "16"), 5: ("0", "8", "8")}
STABILIZER_K5 = {"k": 5, "gc_order": "32", "wreath_order": "322560", "g_order": "10321920"}

KNOWN_DEFECTS = {
    "unimodularize-definite-assert": (
        "definite unimodularize trips the bare determinant assert in "
        "vftk/unimodular.py unimodularize (e.g. [[4]], [[2,0],[0,4]], A3)"
    ),
    "prime-power-norm2-check": (
        "the CLI applies the '240 norm-2 vectors' check to non-unimodular "
        "rank-8 --mode prime-power results"
    ),
}


class Mismatch(Exception):
    """The report disagrees with the benchmark's reference."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


# --- closed forms computed here, independent of vftk -------------------------


def gaussian_binomial(m, k):
    num = prod(2**m - 2**i for i in range(k))
    den = prod(2**k - 2**i for i in range(k))
    return num // den


def odd_lagrangian_sizes(n):
    """Orbit sizes by left overlap j: [n choose m]_2 2^(m(m-1)/2) (2^m - 1), m = n - j."""
    return [gaussian_binomial(n, n - j) * 2 ** ((n - j) * (n - j - 1) // 2) * (2 ** (n - j) - 1)
            for j in range(n)]


def left_stabilizer_order(n):
    return prod(2**n - 2**i for i in range(n)) * 2 ** (n * (n - 1) // 2)


# --- per-kind report checks --------------------------------------------------


def _e8_census(op, report):
    results = report["results"]
    rows = {r["k"]: r for r in results["rows"]}
    expect(sorted(rows) == [1, 2, 3, 4], "census rows are k = 1..4")
    for k, ref in E8_ROWS.items():
        row = {key: rows[k][key] for key in ref}
        expect(row == ref, f"census row k={k} matches the E8 table")
        expect(rows[k].get("census_count") == str(E8_CLASS_SIZES[k]), f"class size k={k}")
    expect(results.get("total") == str(E8_FRAME_TOTAL), "total frame count")


def _f2quad(op, report):
    results = report["results"]
    n = op.expect["n"]
    sizes = [int(o["size"]) for o in results["orbits"]]
    expect([o["j"] for o in results["orbits"]] == list(range(n)), "one orbit per overlap")
    expect(sizes == odd_lagrangian_sizes(n), "orbit sizes match the closed form")
    if n == 5:
        expect(sizes == F2QUAD_N5_SIZES, "n=5 orbit sizes match the pinned census")
    expect(results["group_order"] == str(left_stabilizer_order(n)), "left stabilizer order")
    expect(results["nonsingular_count"] == str(2 ** (2 * n - 1) - 2 ** (n - 1)), "nonsingular count")


def _frame_invariants(op, report):
    results = report["results"]
    ref = dict(E8_ROWS[op.expect["k"]], k=op.expect["k"])
    got = {key: results.get(key) for key in ref}
    expect(got == ref, f"rotated class-{op.expect['k']} frame reproduces row k={op.expect['k']}")


def _gram2(block):
    """Doubled Gram (2 x inner products) of a report's lattice block."""
    scale = 1 if block["scale"] == "1/2" else 2
    return tuple(tuple(int(x) * scale for x in row) for row in block["gram"])


def _unimodularize(op, report):
    results = report["results"]
    gram, mode = op.expect["gram"], op.expect["mode"]
    r, d = len(gram), det(gram)
    expect(_gram2(results["base"]) == tuple(tuple(2 * x for x in row) for row in gram), "base echoes the input")
    g2 = _gram2(results["result"])
    n = len(g2)
    expect(results["result"]["rank"] == n and all(len(row) == n for row in g2), "result rank")
    expect(g2 == transpose(g2), "result Gram is symmetric")
    expect(all(g2[i][i] % 4 == 0 for i in range(n)), "result is even")
    result_det = det(g2)
    expect(result_det % 2**n == 0, "result Gram is integral")
    result_det //= 2**n
    if mode == "definite":
        expect(n == (4 if d % 2 else 8) * r, "definite rank is 4 or 8 copies")
        expect(abs(result_det) == 1, "definite result is unimodular")
        expect(is_positive_definite(g2), "definite result is positive definite")
    elif mode == "hyperbolic":
        expect(n == 2 * r + 2, "hyperbolic rank is 2 rank + 2")
        expect(abs(result_det) == 1, "hyperbolic result is unimodular")
        expect(not is_positive_definite(g2), "hyperbolic result is indefinite")
    else:
        s = op.expect["twist_prime"]
        expect(n == 2 * r, "prime-power rank is 2 rank")
        expect(report["inputs"]["twist_prime"] == str(s), "twist prime is the smallest admissible prime")
        expect(result_det == s**r, "prime-power determinant is s^rank")
        expect(is_positive_definite(g2), "prime-power result is positive definite")


def _hat_verify(op, report):
    results = report["results"]
    gram = op.expect["gram"]
    r = len(gram)
    expect(results["rank"] == r, "rank")
    expect(results["determinant"] == str(det(gram)), "determinant")
    expect(results["lift_count_per_isometry"] == str(2**r), "lift count 2^rank")


def _markings(op, report):
    results = report["results"]
    got = {key: results.get(key) for key in MARKINGS}
    expect(got == MARKINGS, "marking orbits of the Hamming code")


def _miyamoto(op, report):
    results = report["results"]
    rows = results["rows"]
    expect([row["k"] for row in rows] == [1, 2, 3, 4, 5], "rows k = 1..5")
    for row in rows:
        k = row["k"]
        expect(row["involution_count"] == str(2 ** (k - 1)), f"k={k} involution count")
        expect(row["minus_dims"] == ["128"] and row["labels"] == ["2B"], f"k={k} 2B purity")
        dims = tuple(row["weight_one_dims"][w] for w in ("0", "8", "16"))
        expect(dims == MIYAMOTO_WEIGHT_ONE[k], f"k={k} weight-one dimensions")


def _stabilizer_k5(op, report):
    results = report["results"]
    expect(results["rows"] == [STABILIZER_K5], "k=5 stabilizer order row")


CHECKERS = {
    "e8-census": _e8_census,
    "f2quad": _f2quad,
    "frame-invariants": _frame_invariants,
    "unimodularize": _unimodularize,
    "hat-verify": _hat_verify,
    "markings": _markings,
    "miyamoto": _miyamoto,
    "stabilizer-orders-k5": _stabilizer_k5,
}


# --- classification ----------------------------------------------------------


def _known_exception(op, exception):
    lines = exception.strip().splitlines()
    frames = [ln for ln in lines if ln.lstrip().startswith("File ")]
    if (
        op.kind == "unimodularize"
        and op.expect["mode"] == "definite"
        and lines[-1].startswith("AssertionError")
        and frames
        and "unimodular.py" in frames[-1]
        and frames[-1].rstrip().endswith("in unimodularize")
    ):
        return "unimodularize-definite-assert"
    return None


def _known_check(op, report):
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    if (
        op.kind == "unimodularize"
        and op.expect["mode"] == "prime-power"
        and failing == ["norm-2 vector count"]
        and report["results"]["result"]["rank"] == 8
    ):
        return "prime-power-norm2-check"
    return None


def judge(op, record):
    """(failure class or None, known defect or None, detail) for one op."""
    if record.get("timeout"):
        return "timeout", None, f"killed after {record['op_s']:.1f} s"
    if record.get("exception"):
        return "exception", _known_exception(op, record["exception"]), record["exception"].strip().splitlines()[-1]
    if "exit" not in record:
        return "exception", None, record.get("stderr", "op process wrote no record")[-300:]
    try:
        report = json.loads(record["stdout"]) if record["stdout"].strip() else None
    except json.JSONDecodeError:
        return "mismatch", None, "stdout is not one JSON report"
    code = record["exit"]
    if report is None or "checks" not in report:
        detail = report.get("error") if report else f"exit {code} without a report"
        return ("error_exit" if code else "mismatch"), None, detail
    if code not in (0, 1):
        return "error_exit", None, f"exit {code}"
    if (code == 0) != all(c["pass"] for c in report["checks"]):
        return "mismatch", None, "exit status disagrees with the report's checks"
    known = None
    if code == 1:
        known = _known_check(op, report)
        if known is None:
            failing = [c["name"] for c in report["checks"] if not c["pass"]]
            return "check", None, f"failed checks {failing}"
    try:
        CHECKERS[op.kind](op, report)
    except Mismatch as exc:
        return "mismatch", None, str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return "mismatch", None, f"malformed results: {exc!r}"
    if known:
        return "check", known, "the inapplicable norm-2 check failed; the rest verified"
    return None, None, ""


def comparable(stdout):
    """A report with its timing block (if any) removed, for traced/untraced comparison."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    if isinstance(report, dict):
        report.pop("stats", None)
    return report

