"""Driver-level tests: report shape, check outcomes, exit codes."""

import argparse
import json
import os
import random
import subprocess
import sys
import time

import pytest

import vftk.cli as cli
import vftk.f2quad as f2quad
import vftk.unimodular as unimodular
from oracles import format_frame, format_gram
from vftk.frames import e8_frame_representatives
from vftk.lattices import IntegralLattice, direct_sum, e8_lattice

# E8 in a skewed basis: its discriminant group is trivial, and the Gram of
# E8 + E8(3) in this basis grows to millions of bits under a Smith form
# that eliminates pivot by pivot without reducing the other entries
ROT_E8 = (
    (18, 4, 4, 5, 20, 2, -18, -1),
    (4, 2, 1, 0, 5, 1, -5, 0),
    (4, 1, 2, 1, 5, 0, -4, 0),
    (5, 0, 1, 4, 4, -1, -3, 0),
    (20, 5, 5, 4, 24, 3, -21, -2),
    (2, 1, 0, -1, 3, 2, -3, -1),
    (-18, -5, -4, -3, -21, -3, 20, 1),
    (-1, 0, 0, 0, -2, -1, 1, 2),
)

# a skewed definite even Gram of rank 6 and determinant 4224 = 2^7 * 3 * 11
SKEW6 = (
    (8, 5, 5, -7, 10, -3),
    (5, 38, -12, 7, 6, -25),
    (5, -12, 20, -19, 12, 11),
    (-7, 7, -19, 20, -16, -8),
    (10, 6, 12, -16, 22, -2),
    (-3, -25, 11, -8, -2, 18),
)


def rank24_gram():
    """A seeded symmetric even Gram of rank 24, entries in [-1000, 1000]."""
    rng = random.Random(1)
    g = [[0] * 24 for _ in range(24)]
    for i in range(24):
        for j in range(i + 1):
            v = rng.randint(-1000, 1000)
            if i == j:
                v -= v % 2
            g[i][j] = g[j][i] = v
    return g


@pytest.fixture(scope="module")
def gram_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("grams")
    e8 = d / "e8.gram"
    e8.write_text(format_gram(e8_lattice()))
    a2 = d / "a2.gram"
    a2.write_text(format_gram(IntegralLattice.from_gram([[2, -1], [-1, 2]])))
    frame = d / "k2.frame"
    frame.write_text(format_frame(e8_frame_representatives()[2]))
    odd = d / "odd.gram"
    odd.write_text(format_gram(IntegralLattice.from_gram([[1]])))
    a4 = d / "a4.gram"
    a4.write_text(
        format_gram(
            IntegralLattice.from_gram(
                [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
            )
        )
    )
    paths = {"e8": str(e8), "a2": str(a2), "frame": str(frame), "odd": str(odd), "a4": str(a4)}
    rot_e8 = IntegralLattice.from_gram(ROT_E8)
    grams = {"g8": IntegralLattice.from_gram([[8]]), "g16": IntegralLattice.from_gram([[16]])}
    grams.update(rot_e8=rot_e8, rot_e8_sum=direct_sum(rot_e8, rot_e8.rescale(3)))
    grams.update(
        skew6=IntegralLattice.from_gram(SKEW6),
        a1=IntegralLattice.from_gram([[2]]),
        big_prime=IntegralLattice.from_gram([[2 * (10**9 + 7)]]),
        two_big_primes=IntegralLattice.from_gram([[2 * (10**9 + 7) * (10**9 + 9)]]),
        degenerate=IntegralLattice.from_gram([[2, 2], [2, 2]]),
        rank24=IntegralLattice.from_gram(rank24_gram()),
    )
    for name, lat in grams.items():
        path = d / f"{name}.gram"
        path.write_text(format_gram(lat))
        paths[name] = str(path)
    return paths


def _passing(argv):
    report, code = cli.run(argv)
    assert report is not None
    assert code == 0, [c for c in report["checks"] if not c["pass"]]
    assert report["schema"] == 1
    assert set(report) == {"schema", "command", "inputs", "results", "checks"}
    for c in report["checks"]:
        assert set(c) == {"name", "expected", "actual", "pass", "source"}
        assert c["source"] in ("reference", "definition", "computed")
    # JSON round-trip fixpoint
    assert json.loads(json.dumps(report)) == report
    return report


def test_e8_frames_default_skips_census():
    report = _passing(["e8-frames"])
    rows = report["results"]["rows"]
    assert [r["k"] for r in rows] == [1, 2, 3, 4]
    assert [r["delta_type"] for r in rows] == ["2^6 x 4", "2^4 x 4^2", "2^2 x 4^3", "4^4"]
    assert [r["gc_order"] for r in rows] == [str(2**15), str(2**14), str(2**12), str(2**9)]
    assert report["inputs"] == {"census": False}
    # the counting pass is opt-in, so the fast path reports no class sizes
    assert "total" not in report["results"]
    assert all("census_count" not in r for r in rows)


def test_markings_report():
    report = _passing(["markings"])
    res = report["results"]
    assert res["marking_count"] == "105"
    assert res["orbit_count"] == 3
    assert res["orbit_sizes"] == ["7", "42", "56"]
    assert res["automorphism_order"] == "1344"


def test_stabilizer_orders_all_and_single():
    report = _passing(["stabilizer-orders"])
    rows = report["results"]["rows"]
    assert [r["k"] for r in rows] == [1, 2, 3, 4, 5]
    assert rows[0]["g_order"] == str(2**15 * __import__("math").factorial(16))
    assert rows[4]["g_order"] == "10321920"
    single = _passing(["stabilizer-orders", "--k", "5"])
    assert single["results"]["rows"] == [rows[4]]


def test_miyamoto_report():
    report = _passing(["miyamoto", "--k", "3"])
    row = report["results"]["rows"][0]
    assert row["involution_count"] == "4"
    assert row["minus_dims"] == ["128"]
    assert row["labels"] == ["2B"]


def test_f2quad_reports():
    report = _passing(["f2quad", "--n", "2", "--exhaustive"])
    orbits = report["results"]["orbits"]
    assert [o["j"] for o in orbits] == [0, 1]
    assert [o["size"] for o in orbits] == ["6", "3"]
    report5 = _passing(["f2quad", "--n", "5"])
    orbits5 = report5["results"]["orbits"]
    assert [o["size"] for o in orbits5] == ["31744", "29760", "8680", "930", "31"]
    assert [o["u_order"] for o in orbits5] == ["16", "2048", "32768", "65536", "16384"]
    assert report5["results"]["nonsingular_count"] == "496"


def test_f2quad_refuses_an_n_whose_group_order_cannot_be_printed():
    # |P| at n = 97 has 4,234 digits; at n = 98 it would have 4,321, past
    # the interpreter's limit (4,300 by default), and 10^9 is refused
    # before the order is computed
    limit = sys.get_int_max_str_digits()
    assert cli.run(["f2quad", "--n", "97"])[1] == 0
    for n in (98, 10**9):
        report, code = cli.run(["f2quad", "--n", str(n)])
        assert code == 3
        assert f"n = {n} is too large" in report["error"] and f"more than {limit} digits" in report["error"]


def test_frame_invariants_report(gram_files):
    report = _passing(
        ["frame-invariants", "--gram", gram_files["e8"], "--frame", gram_files["frame"]]
    )
    res = report["results"]
    assert (res["l"], res["k"], res["e"]) == (4, 2, 6)
    assert res["delta_type"] == "2^4 x 4^2"
    assert res["gc_order"] == str(2**14)
    assert res["g_order"] == "4831838208"


def test_unimodularize_modes(gram_files):
    report = _passing(["unimodularize", "--gram", gram_files["a2"]])
    res = report["results"]
    assert res["diagonal_copies"] == 4
    assert res["result"]["rank"] == 8
    emb = res["embedding"]
    assert len(emb["rows"]) == 8 and all(len(r) == 8 for r in emb["rows"])
    hyp = _passing(["unimodularize", "--gram", gram_files["a2"], "--mode", "hyperbolic"])
    assert hyp["results"]["result"]["rank"] == 6
    twist = _passing(
        [
            "unimodularize",
            "--gram",
            gram_files["a2"],
            "--mode",
            "prime-power",
            "--min-prime",
            "7",
        ]
    )
    assert int(twist["inputs"]["twist_prime"]) >= 7


def test_prime_power_rank8_result_skips_norm2_check(gram_files):
    # A4 twists to a rank-8 definite lattice of determinant s^4: not E8, so
    # the "240 norm-2 vectors" check does not apply
    report = _passing(["unimodularize", "--gram", gram_files["a4"], "--mode", "prime-power"])
    assert report["results"]["result"]["rank"] == 8
    assert all(c["name"] != "norm-2 vector count" for c in report["checks"])


@pytest.mark.parametrize("name, glue_order", [("g8", "4096"), ("g16", "65536")])
def test_unimodularize_definite_large_glue(gram_files, name, glue_order):
    # glue of order det^4: found by an index computation, not by listing it
    start = time.monotonic()
    report = _passing(["unimodularize", "--gram", gram_files[name]])
    elapsed = time.monotonic() - start
    res = report["results"]
    assert res["glue_order"] == glue_order
    assert res["diagonal_copies"] == 8 and res["result"]["rank"] == 8
    (norm2,) = [c for c in report["checks"] if c["name"] == "norm-2 vector count"]
    assert norm2["actual"] == "240"
    assert elapsed < 10  # listing the 65536 glue elements took ~57 s


def test_prime_power_on_rotated_e8(gram_files):
    # the glue path runs no Smith form of the rank-16 base E8 + E8(3)
    start = time.monotonic()
    report = _passing(["unimodularize", "--gram", gram_files["rot_e8"], "--mode", "prime-power"])
    elapsed = time.monotonic() - start
    assert report["inputs"]["twist_prime"] == "3"
    res = report["results"]
    assert res["glue_order"] == "1" and res["result"]["rank"] == 16
    eye = [[str(int(i == j)) for j in range(16)] for i in range(16)]
    assert res["embedding"] == {"denominator": "1", "rows": eye}
    assert elapsed < 10  # no result after 60 s while the base's Smith form ran


@pytest.mark.parametrize("mode", ["definite", "hyperbolic", "prime-power"])
@pytest.mark.parametrize("name", ["rot_e8_sum", "skew6"])
def test_unimodularize_all_modes_on_skewed_grams(monkeypatch, gram_files, name, mode):
    # each mode starts with the Smith form of the input's Gram, whose entries
    # must stay reduced; the budget turns entry growth into exit 4, not a hang
    monkeypatch.setenv("VFTK_BUDGET_SECONDS", "20")
    _passing(["unimodularize", "--gram", gram_files[name], "--mode", mode])


@pytest.mark.parametrize("mode", ["definite", "hyperbolic", "prime-power"])
def test_unimodularize_all_modes_on_a_large_prime_determinant(monkeypatch, gram_files, mode):
    # det 2 (10^9 + 7): trial division of the glue order stops at its square
    # root, the square root of -1 - a^2 mod p comes from Euler's criterion,
    # and the norm-2 count of the rank-8 result runs on a pair-reduced basis
    monkeypatch.setenv("VFTK_BUDGET_SECONDS", "20")
    start = time.monotonic()
    _passing(["unimodularize", "--gram", gram_files["big_prime"], "--mode", mode])
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("mode", ["definite", "hyperbolic", "prime-power"])
def test_unimodularize_rejects_degenerate_gram(gram_files, mode):
    # det 0: no discriminant group to glue along, so bad input (exit 3),
    # not a failed self-check or a ZeroDivisionError in the twist prime search
    report, code = cli.run(["unimodularize", "--gram", gram_files["degenerate"], "--mode", mode])
    assert code == 3
    assert report["error"] == "input lattice must be nondegenerate"


def test_hat_verify(gram_files):
    report = _passing(["hat-verify", "--gram", gram_files["a2"]])
    assert report["results"]["rank"] == 2
    assert report["results"]["lift_count_per_isometry"] == "4"


def test_exit_code_bad_flags():
    assert cli.run(["no-such-command"])[1] == 2
    assert cli.run(["unimodularize"])[1] == 2  # missing required --gram
    assert cli.run([])[1] == 2


def test_exit_code_invalid_input(gram_files):
    report, code = cli.run(["unimodularize", "--gram", "/no/such/file"])
    assert code == 3 and "error" in report
    report, code = cli.run(["f2quad", "--n", "0"])
    assert code == 3
    # odd lattice rejected by the cocycle construction
    report, code = cli.run(["hat-verify", "--gram", gram_files["odd"]])
    assert code == 3


def test_exit_code_budget(monkeypatch):
    monkeypatch.setenv("VFTK_BUDGET_SECONDS", "0.01")
    report, code = cli.run(["e8-frames"])
    assert code == 4 and "error" in report


@pytest.mark.parametrize("value", ["abc", "nan", "-1", "-0.5"])
def test_exit_code_bad_budget_value(monkeypatch, value):
    monkeypatch.setenv("VFTK_BUDGET_SECONDS", value)
    report, code = cli.run(["markings"])
    assert code == 3
    assert report["command"] == "markings" and "VFTK_BUDGET_SECONDS" in report["error"]


def _valid_argv(files):
    """One valid invocation of each subcommand, keyed by subcommand."""
    return {
        "e8-frames": ["e8-frames"],
        "frame-invariants": ["frame-invariants", "--gram", files["e8"], "--frame", files["frame"]],
        "markings": ["markings"],
        "stabilizer-orders": ["stabilizer-orders"],
        "miyamoto": ["miyamoto"],
        "unimodularize": ["unimodularize", "--gram", files["a2"]],
        "f2quad": ["f2quad", "--n", "2"],
        "hat-verify": ["hat-verify", "--gram", files["a2"]],
    }


(_SUBCOMMANDS,) = (
    a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
)


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_zero_budget_stops_every_subcommand(monkeypatch, gram_files, command):
    # a budget of 0 has run out before the command starts, however little
    # work the command would do between two polls of its own
    monkeypatch.setenv("VFTK_BUDGET_SECONDS", "0")
    report, code = cli.run(_valid_argv(gram_files)[command])
    assert code == 4
    assert report["command"] == command and "error" in report


def _run_fresh(argv, seconds, timeout=60):
    """(process, elapsed seconds) of argv in a fresh interpreter under a
    budget of `seconds`."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, VFTK_BUDGET_SECONDS=seconds, PYTHONPATH=src)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "vftk.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc, time.monotonic() - start


def _assert_budget_binds(argv, seconds="0.5"):
    """A budget of `seconds` stops argv in a fresh interpreter with exit 4
    in < 1.5 s; it must be well below the command's own run time."""
    proc, elapsed = _run_fresh(argv, seconds)
    assert proc.returncode == 4, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == argv[0] and "error" in report
    assert elapsed < 1.5


def test_budget_binds_on_cold_frame_caches():
    # a fresh interpreter has to build the norm-4 graph under the budget
    _assert_budget_binds(["e8-frames", "--census"])


def test_budget_binds_on_stabilizer_orders():
    # the E8 pointwise orders behind frame_group_order are built under the
    # budget; the command's work takes ~0.4 s on a 2-core x86_64 host, where
    # a 0.5 s budget need not bind
    _assert_budget_binds(["stabilizer-orders"], seconds="0.1")


def test_budget_binds_on_f2quad_exhaustive():
    # the odd-Lagrangian enumeration and its certification poll the budget
    _assert_budget_binds(["f2quad", "--n", "5", "--exhaustive"])


def test_budget_binds_in_twist_prime_search(gram_files):
    # the twist prime of [[2]] is the first prime above 10^18, which takes
    # ~5 * 10^8 trial divisions to certify
    argv = ["unimodularize", "--gram", gram_files["a1"], "--mode", "prime-power"]
    _assert_budget_binds(argv + ["--min-prime", str(10**18)])


def test_budget_binds_factoring_two_large_primes(gram_files):
    # det 2 (10^9 + 7)(10^9 + 9): trial division of the glue order runs to
    # 10^9 + 7, ~5 * 10^8 steps, until a faster factorization replaces it
    _assert_budget_binds(["unimodularize", "--gram", gram_files["two_big_primes"]])


def test_hyperbolic_on_rank24_gram(gram_files):
    # the Smith form of the Gram ran past 12 s under a 3 s budget while hnf
    # cleared each column by Euclid divisions between whole rows, unpolled
    argv = ["unimodularize", "--gram", gram_files["rank24"], "--mode", "hyperbolic"]
    proc, elapsed = _run_fresh(argv, "3", timeout=10)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert checks and all(c["pass"] for c in checks)
    assert elapsed < 2


def test_budget_binds_on_rank24_gram(gram_files):
    # past the Smith form, the definite mode trial-divides the 78-digit
    # determinant, until a faster factorization replaces it
    _assert_budget_binds(["unimodularize", "--gram", gram_files["rank24"]])


def test_exit_code_failed_check(monkeypatch):
    # drive the exit-1 branch by feeding the driver a wrong classification
    class FakeRep:
        pairs = ()

    monkeypatch.setattr(cli, "classify_markings", lambda c: ([(FakeRep, 105)], 999))
    report, code = cli.run(["markings"])
    assert code == 1
    failed = [c for c in report["checks"] if not c["pass"]]
    assert any(c["name"] == "automorphism order" for c in failed)


def test_exit_code_failed_self_check(monkeypatch):
    # a census whose member witnesses fail is an error report with exit 1
    monkeypatch.setattr(f2quad, "_adapted_frame", lambda n, member: f2quad.f2_identity(2 * n))
    report, code = cli.run(["f2quad", "--n", "4", "--exhaustive"])
    assert code == 1
    assert report["command"] == "f2quad" and "witness" in report["error"]


def test_exit_code_failed_glue_check(monkeypatch, gram_files):
    # glue missing a generator fails the closed-form order check: exit 1
    validated = unimodular.isotropic_subgroup
    monkeypatch.setattr(unimodular, "isotropic_subgroup", lambda lat, den, rows: validated(lat, den, rows[:-1]))
    report, code = cli.run(["unimodularize", "--gram", gram_files["a2"]])
    assert code == 1
    assert report["command"] == "unimodularize" and "glue order" in report["error"]


def test_main_prints_json(capsys):
    code = cli.main(["f2quad", "--n", "1"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["command"] == "f2quad"
