"""Run one `vftk` CLI op in this fresh interpreter and write its record.

    python3 child.py SPAWN_T OUT_JSON TRACE OP_ID [VFTK ARGS...]

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` spans interpreter start plus ``import vftk.cli``.
With no VFTK ARGS the process only measures set-up.  The op latency is
timed around ``cli.main`` and includes the JSON output.  The record is
one JSON object: setup_s, op_s, exit, stdout, exception and, with TRACE
1, the spans and work counts of the tracer.  rss_kb is the process's
peak resident memory when the op ends.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from vftk import cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main():
    spawn_t, out_path, trace, op_id = sys.argv[1:5]
    argv = sys.argv[5:]
    record = {"setup_s": READY - float(spawn_t)}
    if argv:
        tracer = None
        if trace == "1":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer(op_id=int(op_id))
            tracer.install()
        buf = io.StringIO()
        exception = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # an uncaught program exception is a classified op failure
            code = 1
            exception = traceback.format_exc()
        record["op_s"] = time.perf_counter() - start
        record.update(exit=code, stdout=buf.getvalue(), exception=exception)
        record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.remove()
            record["spans"] = tracer.spans
            record["items"] = dict(tracer.items, **tracer.cache_hits())
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
