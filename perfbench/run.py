"""Benchmark for the `vftk` CLI: fixed workloads, verified reports, layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``inputs.WORKLOADS``, or ``all`` to run
each in turn.  The load is a closed loop with one client: one fresh
interpreter per op, one op at a time, so every op starts with vftk's
``lru_cache``s cold, as a ``vftk`` command does.  A run makes whole passes
over the workload's ops: at least one, and another only while it should
end within S seconds.

Every report is verified (see ``verify.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run runs each op untraced and then
traced, checks that both give the same reports, and reports the tracing
overhead.  The lines before it print every metric with its unit, the op
count, ``fail_ratio`` and each failure with its class.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

from inputs import WORKLOADS
from tracer import layer_metric_names, self_times
from verify import KNOWN_DEFECTS, comparable, judge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 7  # extra set-up-only processes per run, for a steady setup_s median
OP_TIMEOUT = 150.0
RUN_LIMIT = 170.0  # a run must end within 180 s, so no op may run past this
P90_MIN_OPS = 100  # op_p90_s needs at least 10 samples above the 90th percentile

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


class Runner:
    """Starts op processes one at a time and collects their records."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def spawn(self, argv, trace=False):
        self.count += 1
        out = os.path.join(self.workdir, f"record-{self.count}.json")
        env = dict(os.environ)
        env.pop("VFTK_BUDGET_SECONDS", None)
        timeout = max(1.0, min(OP_TIMEOUT, self.deadline - time.monotonic()))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, repr(spawn_t), out, str(int(trace)), str(self.count), *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            cwd=ROOT,
            env=env,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            timed_out = True
        elapsed = time.monotonic() - spawn_t
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        record = {}
        if os.path.exists(out):
            if not timed_out:
                with open(out, encoding="utf-8") as fh:
                    record = json.load(fh)
            os.remove(out)
        if timed_out:
            record = {"timeout": True, "op_s": elapsed}
        elif not record:
            record = {"op_s": elapsed, "stderr": err.decode(errors="replace")}
        record["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return record


def _metric_line(name, value, unit):
    return f"  {name:<44} {value:.6g} {unit}"


def run_workload(name, seed, seconds, trace, out):
    """Run one workload; print its table to out and return the result object."""
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = WORKLOADS[name](seed, workdir)
        runner = Runner(workdir, time.monotonic() + RUN_LIMIT)
        probes = [runner.spawn([]) for _ in range(SETUP_PROBES)]
        if any("setup_s" not in p for p in probes):
            raise RuntimeError("vftk.cli does not import: " + probes[0].get("stderr", "")[-500:])
        passes = []
        start = time.monotonic()
        while True:
            pass_start = time.monotonic()
            plain, traced = [], [] if trace else None
            for op in ops:
                plain.append(runner.spawn(op.argv))
                if trace:  # right after its untraced twin, so both see the same host speed
                    traced.append(runner.spawn(op.argv, trace=True))
            passes.append((plain, traced))
            now = time.monotonic()
            # another pass only if it should end within the measuring window
            if now + (now - pass_start) > min(start + seconds, runner.deadline):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []  # (class, known defect, op argv, detail)
    attempted = 0
    for plain, traced in passes:
        for i, op in enumerate(ops):
            for rec in (plain[i], traced[i]) if traced else (plain[i],):
                attempted += 1
                cls, known, detail = judge(op, rec)
                if cls is None and rec is not plain[i]:
                    if (rec["exit"], comparable(rec["stdout"])) != (plain[i].get("exit"), comparable(plain[i].get("stdout", ""))):
                        cls, detail = "trace_mismatch", "traced report differs from the untraced one"
                if cls is not None:
                    failures.append((cls, known, op.argv, detail))
    unexplained = [f for f in failures if f[1] is None]

    plain_recs = [r for plain, _ in passes for r in plain]
    latencies = [r["op_s"] for r in plain_recs]
    pass_walls = [sum(r["op_s"] for r in plain) for plain, _ in passes]
    e2e = {
        "wall_s": statistics.median(pass_walls),
        "op_p50_s": statistics.median(latencies),
        "setup_s": statistics.median([p["setup_s"] for p in probes] + [r["setup_s"] for r in plain_recs if "setup_s" in r]),
        "cpu_s": statistics.median([sum(r["cpu_s"] for r in plain) for plain, _ in passes]),
        "peak_rss_mb": max(r.get("rss_kb", 0) for r in plain_recs) / 1024,
    }

    print(f"workload {name}  seed {seed}  closed loop, 1 client, 1 op process at a time", file=out)
    print(f"  {len(ops)} ops per pass x {len(passes)} passes{' (each also traced)' if trace else ''}", file=out)
    for metric, value in e2e.items():
        print(_metric_line(metric, value, END_TO_END_UNITS[metric]), file=out)
    if len(latencies) >= P90_MIN_OPS:
        print(_metric_line("op_p90_s", statistics.quantiles(latencies, n=10)[-1], "s"), file=out)
    else:
        print(f"  {'op_p90_s':<44} n/a ({len(latencies)} ops < {P90_MIN_OPS})", file=out)
    print(f"  {'fail_ratio':<44} {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)", file=out)
    for (cls, known), count in sorted(Counter((f[0], f[1] or "UNEXPLAINED") for f in failures).items()):
        print(f"  failed {count} x {cls}: {known}  {KNOWN_DEFECTS.get(known, '')}", file=out)
    for cls, _, argv, detail in unexplained:
        print(f"    {cls}: vftk {' '.join(argv)}: {detail}", file=out)

    if trace:
        metrics = layer_metrics(passes)
        units = {m: _layer_unit(m) for m in metrics}
        for metric, value in metrics.items():
            print(_metric_line(metric, value, units[metric]), file=out)
    else:
        metrics, units = e2e, END_TO_END_UNITS
    return {
        "correct": not unexplained,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def _layer_unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def layer_metrics(passes):
    """Per-pass means of the traced spans and counts, plus the tracing overhead."""
    totals = defaultdict(float)
    for _, traced in passes:
        for rec in traced:
            for fn, (calls, self_s) in self_times(rec.get("spans", [])).items():
                totals[f"{fn}.calls"] += calls
                totals[f"{fn}.self_s"] += self_s
                totals[f"{fn.split('.')[0]}.self_s"] += self_s
            for item, count in rec.get("items", {}).items():
                totals[item] += count
    metrics = {m: totals[m] / len(passes) for m in layer_metric_names()}
    plain_wall = sum(r["op_s"] for plain, _ in passes for r in plain)
    traced_wall = sum(r["op_s"] for _, traced in passes for r in traced)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vftk", "cli.py")):
        print(f"no vftk source tree under {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace, sys.stdout) for n in names]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
