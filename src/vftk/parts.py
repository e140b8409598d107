"""Run the parts of a split census, each in its own process where it may.

A census that splits its work into parts 0..k-1 hands run_parts a
function of the part index.  Part 0 runs in this process; every other
part runs in a worker made with os.fork, which shares this process's
pages copy-on-write and sends its result back over a pipe as marshal
data.  So a part's result must be marshal-able (ints, strings, tuples,
lists, dicts) and should be small: the work runs in the worker, and only
its summary crosses the pipe.  Where os.fork is missing, or another
thread is alive, the parts run here one after another, so a census's
result never depends on where its parts ran.
"""

import marshal
import os

from . import budget
from .verify import verify

__all__ = ["max_parts", "run_parts"]

_MAX_PROCESSES = 8  # a split census uses at most this many processes


def max_parts():
    """The CPUs this process may use, at most _MAX_PROCESSES."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_PROCESSES)


def run_parts(work, parts):
    """[work(i) for i in range(parts)], with every part but 0 in a worker.

    A worker inherits the budget deadline.  Its BudgetExceeded is raised
    here again; any other failure, an exit without a result included, is a
    VerificationError.  However this returns, no worker outlives it.
    """
    if parts > 1 and _may_fork():
        return _forked_parts(work, parts)
    return [work(i) for i in range(parts)]


def _may_fork():
    """Whether run_parts may fork: os.fork exists and no other thread lives."""
    import threading  # here, not at the top: only a split census needs it

    return hasattr(os, "fork") and threading.active_count() == 1


def _forked_parts(work, parts):
    import signal

    workers = []  # [pid, read end of its result pipe]
    try:
        for part in range(1, parts):
            read, write = os.pipe()
            workers.append([None, read])
            try:
                pid = os.fork()
            except OSError:
                os.close(write)
                raise
            if not pid:
                os.close(read)
                _worker(work, part, write)
            os.close(write)
            workers[-1][0] = pid
        results = [work(0)]
        for worker in workers:
            pid, read = worker
            with open(read, "rb") as pipe:
                worker[1] = None
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            worker[0] = None
            try:
                tag, value = marshal.loads(data)
            except (EOFError, ValueError, TypeError):
                tag, value = "error", f"no result, exit status {os.waitstatus_to_exitcode(status)}"
            if tag == "budget":
                raise budget.BudgetExceeded(value)
            verify(tag == "ok", f"census worker failed: {value}")
            results.append(value)
        return results
    finally:
        for pid, read in workers:
            if read is not None:
                os.close(read)
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)


def _worker(work, part, write):
    """In a forked worker: send (tag, value) for one part, then exit.

    The worker never returns into its parent's stack: whatever happens,
    it leaves through os._exit, and without a result on anything that
    is not an Exception.
    """
    status = 1
    try:
        try:
            outcome = ("ok", work(part))
        except budget.BudgetExceeded as exc:
            outcome = ("budget", str(exc))
        except Exception as exc:
            outcome = ("error", f"{type(exc).__name__}: {exc}")
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps(outcome))
        status = 0
    finally:
        os._exit(status)
