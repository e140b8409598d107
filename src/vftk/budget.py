"""Wall-clock budgets for the long-running searches.

A deadline is just a monotonic-clock timestamp (or None for "no limit").
Searches poll ``check(deadline)`` every few thousand nodes and raise
BudgetExceeded when past due, so callers can distinguish "ran out of time"
from a genuine negative result.
"""

import math
import os
import time

__all__ = ["BudgetExceeded", "deadline_from_env", "deadline_in", "check"]

ENV_VAR = "VFTK_BUDGET_SECONDS"


class BudgetExceeded(RuntimeError):
    """Raised when a search exceeds its wall-clock budget."""


def deadline_in(seconds):
    """Deadline `seconds` from now, or None if seconds is None."""
    if seconds is None:
        return None
    return time.monotonic() + float(seconds)


def deadline_from_env():
    """Deadline from the VFTK_BUDGET_SECONDS env var (None if unset).

    Raises ValueError unless the value is a finite number of seconds.
    """
    raw = os.environ.get(ENV_VAR)
    if raw is None or not raw.strip():
        return None
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds):
        raise ValueError(f"{ENV_VAR} must be a finite number of seconds, not {raw!r}")
    return deadline_in(seconds)


def check(deadline):
    """Raise BudgetExceeded if the deadline has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded("search exceeded its time budget")
