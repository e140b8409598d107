"""Golden reports: the stdout and exit code of each listed CLI report and
demo, which tests/test_golden.py and tests/test_demos.py hold byte for byte.

Each tests/golden/<name>.out holds one command: the line "exit <code>",
then its stdout.  The reports that read a file read a Gram or frame file
of tests/golden/ by a path relative to the repository root, which they
echo in their "inputs", so they run from the repository root.

After a deliberate change to a report or a demo, rewrite every golden by
running every command in full (the E8 census and the n = 5 exhaustive
f2quad census included), from any directory:

    python3 tests/golden.py

and list each rewritten golden, with the reason, in CHANGES.md.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Gram files of tests/test_cli.py whose reports take under a second and
# read no clock: rank24 and two_big_primes run into the budget, and so
# does hat-verify on rot_e8_sum
GRAMS = ("e8", "a1", "a2", "a4", "g8", "g16", "odd", "degenerate", "big_prime", "rot_e8", "skew6", "rot_e8_sum")
MODES = ("definite", "hyperbolic", "prime-power")


def _gram(name):
    return f"tests/golden/{name}.gram"


REPORTS = {
    "e8-frames": ["e8-frames"],
    "e8-frames-census": ["e8-frames", "--census"],
    "stabilizer-orders": ["stabilizer-orders"],
    **{f"stabilizer-orders-k{k}": ["stabilizer-orders", "--k", str(k)] for k in range(1, 6)},
    "markings-h8": ["markings", "--code", "h8"],
    "miyamoto": ["miyamoto"],
    **{f"miyamoto-k{k}": ["miyamoto", "--k", str(k)] for k in range(1, 6)},
    **{f"f2quad-n{n}": ["f2quad", "--n", str(n)] for n in range(1, 6)},
    "f2quad-n4-exhaustive": ["f2quad", "--n", "4", "--exhaustive"],
    "f2quad-n5-exhaustive": ["f2quad", "--n", "5", "--exhaustive"],
    "frame-invariants-e8-k2": ["frame-invariants", "--gram", _gram("e8"), "--frame", "tests/golden/k2.frame"],
    **{
        f"unimodularize-{g}-{mode}": ["unimodularize", "--gram", _gram(g), "--mode", mode]
        for g in GRAMS
        for mode in MODES
    },
    **{f"hat-verify-{g}": ["hat-verify", "--gram", _gram(g)] for g in GRAMS if g != "rot_e8_sum"},
}


def render(code, stdout):
    """A golden's text: the exit code line, then stdout."""
    return f"exit {code}\n{stdout}"


def golden_text(name):
    return (GOLDEN / f"{name}.out").read_text()


def run_report(argv):
    """(exit code, stdout) of `vftk argv`, in this process, from the
    repository root."""
    from vftk import cli

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def run_demo(demo):
    """The finished process of one demo script, run against src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)


def rewrite():
    for name, argv in REPORTS.items():
        (GOLDEN / f"{name}.out").write_text(render(*run_report(argv)))
    for demo in DEMOS:
        proc = run_demo(demo)
        (GOLDEN / f"{demo.stem}.out").write_text(render(proc.returncode, proc.stdout))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    rewrite()
