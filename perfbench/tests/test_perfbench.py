"""Tests of the benchmark's own code: generator, verifier and tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import inputs  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402


def _stream(seed, workdir):
    ops = inputs.small_reports_ops(seed, str(workdir))
    files = {}
    for op in ops:
        for arg in op.argv:
            if arg.startswith(str(workdir)):
                with open(arg, encoding="utf-8") as fh:
                    files[os.path.relpath(arg, workdir)] = fh.read()
    argvs = [[os.path.relpath(a, workdir) if a.startswith(str(workdir)) else a for a in op.argv] for op in ops]
    return argvs, files


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    assert _stream(7, a) == _stream(7, b)
    assert _stream(7, a) != _stream(8, c)


def test_generated_inputs_have_the_promised_properties(tmp_path):
    for op in inputs.small_reports_ops(3, str(tmp_path)):
        gram = op.expect.get("gram")
        if gram is None:
            continue
        assert inputs.is_positive_definite(gram)
        assert all(gram[i][i] % 2 == 0 for i in range(len(gram)))
        assert len(gram) == 8 or inputs.glue_order(inputs.det(gram)) <= inputs.GLUE_CAP


def test_rotated_frames_are_frames_of_a_moved_basis():
    import random

    rng = random.Random(5)
    roots = inputs.e8_roots()
    assert len(roots) > 100
    gram, frame = inputs.rotated_frame(rng, roots, 4)
    assert inputs.det(gram) == 1 and gram != inputs.E8_GRAM
    assert all(inputs.inner(gram, x, x) == 4 for x in frame)


def _census_report():
    rows = [dict(row, k=k, census_count=str(verify.E8_CLASS_SIZES[k])) for k, row in verify.E8_ROWS.items()]
    checks = [{"name": "total frame count", "expected": "382185", "actual": "382185", "pass": True, "source": "computed"}]
    return {"schema": 1, "command": "e8-frames", "inputs": {"census": True},
            "results": {"rows": rows, "total": "382185"}, "checks": checks}


def _record(report, code=0):
    return {"exit": code, "stdout": json.dumps(report), "exception": None, "op_s": 1.0}


CENSUS = inputs.Op(["e8-frames", "--census"], "e8-census")


def test_verifier_accepts_the_reference_census():
    assert verify.judge(CENSUS, _record(_census_report())) == (None, None, "")


def test_verifier_rejects_a_census_count_off_by_one():
    report = _census_report()
    report["results"]["rows"][3]["census_count"] = "259201"
    cls, known, _ = verify.judge(CENSUS, _record(report))
    assert (cls, known) == ("mismatch", None)


def test_verifier_rejects_a_flipped_check():
    report = _census_report()
    report["checks"][0]["pass"] = False
    assert verify.judge(CENSUS, _record(report, code=1))[:2] == ("check", None)
    # a failed check with exit 0 is a lie about the exit status
    assert verify.judge(CENSUS, _record(report, code=0))[:2] == ("mismatch", None)


def test_verifier_rejects_crashes_and_timeouts():
    crash = {"exit": 1, "stdout": "", "op_s": 0.1,
             "exception": 'Traceback (most recent call last):\n  File "x.py", line 1, in main\nZeroDivisionError: boom\n'}
    assert verify.judge(CENSUS, crash)[:2] == ("exception", None)
    assert verify.judge(CENSUS, {"op_s": 0.1, "stderr": "Segmentation fault"})[:2] == ("exception", None)
    assert verify.judge(CENSUS, {"timeout": True, "op_s": 150.0})[:2] == ("timeout", None)


def test_known_defect_is_named_only_for_its_own_signature():
    tb = (
        "Traceback (most recent call last):\n"
        '  File "src/vftk/cli.py", line 379, in _cmd_unimodularize\n'
        '  File "src/vftk/unimodular.py", line 279, in unimodularize\n'
        "    assert abs(over.result.determinant()) == 1\n"
        "AssertionError\n"
    )
    record = {"exit": 1, "stdout": "", "exception": tb, "op_s": 0.1}
    definite = inputs.Op(["unimodularize"], "unimodularize", {"gram": ((4,),), "mode": "definite"})
    hyperbolic = inputs.Op(["unimodularize"], "unimodularize", {"gram": ((4,),), "mode": "hyperbolic"})
    assert verify.judge(definite, record)[:2] == ("exception", "unimodularize-definite-assert")
    assert verify.judge(hyperbolic, record)[:2] == ("exception", None)


def test_f2quad_closed_form_matches_the_pinned_census():
    assert verify.odd_lagrangian_sizes(5) == verify.F2QUAD_N5_SIZES
    assert verify.odd_lagrangian_sizes(3) == [56, 42, 7]
    assert verify.left_stabilizer_order(4) == 1290240


def _fake_package(clock):
    """pkg.work with outer -> inner, re-exported by pkg.front."""
    pkg = types.ModuleType("fakepkg")
    work = types.ModuleType("fakepkg.work")
    front = types.ModuleType("fakepkg.front")

    def inner():
        clock.advance(2.0)
        return [1, 2, 3]

    def outer():
        clock.advance(1.0)
        work.inner()
        clock.advance(3.0)
        work.inner()
        return "done"

    work.inner, work.outer = inner, outer
    front.outer = outer
    sys.modules.update({"fakepkg": pkg, "fakepkg.work": work, "fakepkg.front": front})
    return work, front


class _Clock:
    def __init__(self):
        self.now = 0.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


def test_self_time_of_a_nested_call():
    clock = _Clock()
    work, front = _fake_package(clock)
    t = tracer.Tracer(op_id=3, clock=clock)
    try:
        t.install("fakepkg", {"work": ("outer", "inner")})
        assert front.outer() == "done"
    finally:
        t.remove()
        for name in ("fakepkg", "fakepkg.work", "fakepkg.front"):
            sys.modules.pop(name)
    assert [s[0] for s in t.spans] == ["work.outer", "work.inner", "work.inner"]
    assert all(s[4] == 3 for s in t.spans)
    assert t.spans[1][3] == t.spans[2][3] == 0 and t.spans[0][3] == -1
    times = tracer.self_times(t.spans)
    assert times["work.outer"] == [1, 4.0]
    assert times["work.inner"] == [2, 4.0]


def test_self_time_uses_the_union_of_child_intervals():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 3.0, 6.0, 0, 0], ["d", 9.0, 12.0, 0, 0]]
    assert tracer.self_times(spans)["a"] == [1, 10.0 - 5.0 - 1.0]


def test_wrappers_are_removed_cleanly():
    clock = _Clock()
    work, front = _fake_package(clock)
    originals = (work.outer, work.inner, front.outer)
    t = tracer.Tracer(clock=clock)
    try:
        t.install("fakepkg", {"work": ("outer", "inner")})
        assert front.outer is not originals[0] and front.outer.__wrapped__ is originals[0]
        assert work.inner is not originals[1]
        t.remove()
        assert (work.outer, work.inner, front.outer) == originals
        front.outer()
        assert t.spans == []
    finally:
        for name in ("fakepkg", "fakepkg.work", "fakepkg.front"):
            sys.modules.pop(name)


def test_every_listed_layer_function_is_a_metric():
    names = tracer.layer_metric_names()
    assert len(names) == len(set(names)) <= 128
    assert "stabsearch.stabilizer.self_s" in names and "trace.overhead_ratio" in names
    with open(os.path.join(os.path.dirname(HERE), "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == names


def test_real_ops_verify_and_known_defects_are_attributed(tmp_path):
    import time

    import run

    rank1 = tmp_path / "four.gram"
    inputs.write_rows(str(rank1), ((4,),))
    a3 = tmp_path / "a3.gram"
    a3_gram = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    inputs.write_rows(str(a3), a3_gram)
    ops = [
        (inputs.Op(["markings", "--code", "h8"], "markings"), (None, None)),
        (inputs.Op(["unimodularize", "--gram", str(a3), "--mode", "hyperbolic"], "unimodularize",
                   {"gram": a3_gram, "mode": "hyperbolic"}), (None, None)),
        (inputs.Op(["unimodularize", "--gram", str(rank1), "--mode", "definite"], "unimodularize",
                   {"gram": ((4,),), "mode": "definite"}), ("exception", "unimodularize-definite-assert")),
    ]
    runner = run.Runner(str(tmp_path), time.monotonic() + 60)
    for op, want in ops:
        record = runner.spawn(op.argv, trace=True)
        assert verify.judge(op, record)[:2] == want
        assert record["spans"][0][0] == "cli.main"
