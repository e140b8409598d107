"""Tests for run_parts, the fork primitive of the split censuses."""

import os
import time

import pytest

from vftk import budget, parts
from vftk.budget import BudgetExceeded
from vftk.verify import VerificationError

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="run_parts forks only where os.fork exists")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _summary(i):
    # every marshal-able kind a census sends back
    return {"part": i, "pid": os.getpid(), "rows": [(i, -i)], "first": (1 << 60) + i}


@pytest.mark.parametrize("count", [1, 2, 3])
def test_results_come_back_in_part_order(count):
    results = parts.run_parts(_summary, count)
    assert [r["part"] for r in results] == list(range(count))
    assert [r["first"] for r in results] == [(1 << 60) + i for i in range(count)]
    assert [r["rows"] for r in results] == [[(i, -i)] for i in range(count)]
    assert results[0]["pid"] == os.getpid()
    if parts._may_fork():
        # every other part ran in a worker of its own
        assert len({r["pid"] for r in results}) == count
    _assert_no_child_left()


def test_without_fork_the_parts_run_here_in_order(monkeypatch):
    monkeypatch.setattr(parts, "_may_fork", lambda: False)
    ran = []

    def work(i):
        ran.append(i)
        return os.getpid()

    assert parts.run_parts(work, 3) == [os.getpid()] * 3
    assert ran == [0, 1, 2]


def test_max_parts_is_bounded():
    assert 1 <= parts.max_parts() <= parts._MAX_PROCESSES


@needs_fork
def test_a_failure_here_kills_every_worker():
    # the workers would sleep for a minute; part 0 fails at once
    def work(i):
        if i == 0:
            raise RuntimeError("part 0 fails")
        time.sleep(60)
        return i

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="part 0 fails"):
        parts.run_parts(work, 3)
    assert time.monotonic() - start < 5
    _assert_no_child_left()


@needs_fork
def test_a_budget_stop_here_kills_every_worker():
    # the workers sleep past the deadline; only part 0 polls it
    def work(i):
        if i:
            time.sleep(60)
        while True:
            budget.check()

    start = time.monotonic()
    with pytest.raises(BudgetExceeded), budget.limit(0.2):
        parts.run_parts(work, 2)
    assert time.monotonic() - start < 1
    _assert_no_child_left()


def _in_worker(fail):
    """Work that calls fail() in a worker and returns its part here."""
    parent = os.getpid()

    def work(i):
        if os.getpid() != parent:
            fail()
        return i

    return work


def _raise_runtime_error():
    raise RuntimeError("fails on purpose")


def _raise_budget_exceeded():
    raise BudgetExceeded("worker budget")


@needs_fork
@pytest.mark.parametrize(
    "fail,error,message",
    [
        (_raise_runtime_error, VerificationError, "census worker failed: RuntimeError: fails on purpose"),
        (lambda: os._exit(3), VerificationError, "no result, exit status 3"),
        (_raise_budget_exceeded, BudgetExceeded, "worker budget"),
    ],
    ids=["failing", "no-result", "budget"],
)
def test_a_worker_failure_is_raised_here(fail, error, message):
    assert parts._may_fork()
    with pytest.raises(error, match=message):
        parts.run_parts(_in_worker(fail), 3)
    _assert_no_child_left()
