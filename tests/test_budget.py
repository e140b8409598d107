"""The ambient time budget: limit() blocks, check() polls, the env var."""

import pytest

from test_intmat import STALLS_PIVOT_SNF
from vftk import budget
from vftk.budget import BudgetExceeded
from vftk.intmat import snf_divisors


def test_no_limit_by_default():
    assert budget._deadline.get() is None
    budget.check()


def test_limit_zero_raises_on_first_check():
    with budget.limit(0):
        with pytest.raises(BudgetExceeded):
            budget.check()


def test_inner_limit_never_extends_outer():
    with budget.limit(0), budget.limit(60):
        with pytest.raises(BudgetExceeded):
            budget.check()


def test_limit_none_keeps_outer_limit():
    with budget.limit(0), budget.limit(None):
        with pytest.raises(BudgetExceeded):
            budget.check()
    with budget.limit(None):
        budget.check()


def test_deadline_restored_after_budget_exceeded():
    with budget.limit(60):
        outer = budget._deadline.get()
        with pytest.raises(BudgetExceeded), budget.limit(0):
            budget.check()
        assert budget._deadline.get() == outer
        budget.check()
    assert budget._deadline.get() is None
    budget.check()


def test_deadline_restored_after_normal_exit():
    with budget.limit(60):
        outer = budget._deadline.get()
        with budget.limit(30):
            assert budget._deadline.get() < outer
        assert budget._deadline.get() == outer
    assert budget._deadline.get() is None


def test_snf_divisors_is_bounded():
    # snf_divisors reaches hnf's per-row poll without passing anything
    with pytest.raises(BudgetExceeded), budget.limit(0):
        snf_divisors(STALLS_PIVOT_SNF)
    assert snf_divisors(STALLS_PIVOT_SNF) == (1, 1, 1, 1, 1, 1940100)


def test_seconds_from_env(monkeypatch):
    monkeypatch.delenv(budget.ENV_VAR, raising=False)
    assert budget.seconds_from_env() is None
    monkeypatch.setenv(budget.ENV_VAR, " ")
    assert budget.seconds_from_env() is None
    monkeypatch.setenv(budget.ENV_VAR, "0")
    assert budget.seconds_from_env() == 0
    monkeypatch.setenv(budget.ENV_VAR, "2.5")
    assert budget.seconds_from_env() == 2.5
    for bad in ("-1", "-0.5", "inf", "nan", "abc"):
        monkeypatch.setenv(budget.ENV_VAR, bad)
        with pytest.raises(ValueError, match=budget.ENV_VAR):
            budget.seconds_from_env()
