"""Wall-clock budgets for the long-running searches.

The one rule: every search polls ``check()`` every few thousand nodes,
and check raises BudgetExceeded once the current deadline has passed, so
callers can tell "ran out of time" from a genuine negative result.  The
deadline is a monotonic-clock timestamp held in a context variable, not
passed as an argument: ``with limit(seconds):`` bounds everything called
inside the block, and code outside every limit runs unbounded.  A nested
limit never extends an outer one.
"""

import math
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["BudgetExceeded", "limit", "check", "seconds_from_env"]

ENV_VAR = "VFTK_BUDGET_SECONDS"

_deadline = ContextVar("vftk_budget_deadline", default=None)


class BudgetExceeded(RuntimeError):
    """Raised when a search exceeds its wall-clock budget."""


@contextmanager
def limit(seconds):
    """Run the block with at most `seconds` left; None adds no limit.

    The deadline in force is the earlier of this one and any outer one,
    and the outer deadline comes back when the block exits, however it
    exits.  limit(0) is already expired.
    """
    deadline = _deadline.get()
    if seconds is not None:
        mine = time.monotonic() + seconds
        deadline = mine if deadline is None else min(deadline, mine)
    token = _deadline.set(deadline)
    try:
        yield
    finally:
        _deadline.reset(token)


def seconds_from_env():
    """Seconds from the VFTK_BUDGET_SECONDS env var (None if unset).

    Raises ValueError unless the value is a finite, nonnegative number of
    seconds; 0 is a budget that has already run out.
    """
    raw = os.environ.get(ENV_VAR)
    if raw is None or not raw.strip():
        return None
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(
            f"{ENV_VAR} must be a finite, nonnegative number of seconds, not {raw!r}"
        )
    return seconds


def check():
    """Raise BudgetExceeded if the current deadline has passed."""
    deadline = _deadline.get()
    if deadline is not None and time.monotonic() >= deadline:
        raise BudgetExceeded("search exceeded its time budget")
