"""Unit tests for the supervised execution runtime.

Covers the monotonic :class:`Budget` (the clock regression the
portfolio's cross-process deadline threading depends on), the
deterministic fault-plan parser, and the in-process (inline) paths of
:class:`WorkerSupervisor` — retry, injection, exhaustion, accounting.
Pool-backed crash scenarios live in ``test_fault_tolerance.py``.
"""

import pickle
import time

import pytest

from repro.errors import InjectedFault, ReproError, RetryExhausted
from repro.reasoning.faultinject import (
    NO_FAULT,
    CorruptPayload,
    FaultAction,
    FaultPlan,
    plan_from_env,
)
from repro.reasoning.result import FaultEvent, FaultReport
from repro.reasoning.runtime import Budget, WorkerSupervisor


# Top-level so the pool tests elsewhere can share them; the inline
# tests here call them in-process.
def _double(x):
    return 2 * x


def _always_raises():
    raise ValueError("engine bug")


class TestBudgetMonotonic:
    def test_from_seconds_is_on_the_monotonic_clock(self):
        # Regression for the time.time() -> time.monotonic() switch: a
        # deadline must be an absolute monotonic instant, not wall
        # clock.  The two clocks' epochs differ by decades on any real
        # system, so a mixed comparison would misbehave immediately.
        budget = Budget.from_seconds(5.0)
        assert budget.deadline == pytest.approx(
            time.monotonic() + 5.0, abs=1.0
        )
        assert not budget.expired
        assert 0.0 < budget.remaining() <= 5.0

    def test_unlimited_budget(self):
        budget = Budget()
        assert budget.deadline is None
        assert not budget.expired
        assert budget.remaining() is None

    def test_expiry_and_clamped_remaining(self):
        budget = Budget(deadline=time.monotonic() - 1.0)
        assert budget.expired
        assert budget.remaining() == 0.0

    def test_absolute_deadline_pickles_for_workers(self):
        # The portfolio ships the absolute deadline into pool workers;
        # Linux CLOCK_MONOTONIC is system-wide, so the value survives
        # the process boundary as-is.
        budget = Budget(deadline=12345.0)
        assert pickle.loads(pickle.dumps(budget)) == budget


class TestFaultPlan:
    def test_targeted_spec_roundtrip(self):
        plan = FaultPlan.from_spec("kill:3,delay:2:0.5,corrupt:1,raise:0")
        assert plan.active
        assert plan.action_for(3) == FaultAction("kill")
        assert plan.action_for(2) == FaultAction("delay", 0.5)
        assert plan.action_for(1) == FaultAction("corrupt")
        assert plan.action_for(0) == FaultAction("raise")
        assert plan.action_for(7) is NO_FAULT

    def test_rate_plan_is_deterministic(self):
        plan = FaultPlan.at_rate(0.5, seed=11)
        actions = [plan.action_for(i) for i in range(50)]
        again = [plan.action_for(i) for i in range(50)]
        assert actions == again
        assert any(a.fires for a in actions)
        assert any(not a.fires for a in actions)

    def test_different_seeds_differ(self):
        a = [FaultPlan.at_rate(0.5, seed=1).action_for(i) for i in range(60)]
        b = [FaultPlan.at_rate(0.5, seed=2).action_for(i) for i in range(60)]
        assert a != b

    @pytest.mark.parametrize(
        "spec",
        [
            "kill",
            "kill:x",
            "delay:1",
            "frobnicate:2",
            "rate:1.5",
            "rate",
            "hang:0",
        ],
    )
    def test_malformed_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)

    def test_empty_spec_is_inactive(self):
        plan = FaultPlan.from_spec("")
        assert not plan.active
        assert plan.action_for(0) is NO_FAULT

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT", "kill:2")
        assert plan_from_env().action_for(2) == FaultAction("kill")
        monkeypatch.delenv("REPRO_INJECT")
        assert not plan_from_env().active

    def test_corrupt_payload_cannot_pickle(self):
        with pytest.raises(InjectedFault):
            pickle.dumps(CorruptPayload())


class TestInlineSupervisor:
    def test_inline_submit_is_synchronous_and_poolless(self):
        with WorkerSupervisor(jobs=1) as sup:
            task = sup.submit(_double, 21, engine="demo")
            assert task.settled and task.result() == 42
            assert sup._pool is None
        report = sup.fault_report(answered_by="demo")
        assert report.clean
        assert report.answered_by == "demo"

    def test_exhausted_retries_settle_with_typed_error(self):
        with WorkerSupervisor(jobs=1) as sup:
            task = sup.submit(_always_raises, engine="buggy")
        assert task.failed
        assert isinstance(task.error, RetryExhausted)
        assert isinstance(task.error, ReproError)
        assert isinstance(task.error.__cause__, ValueError)
        report = sup.fault_report()
        assert not report.clean
        assert report.retries == 2
        kinds = [e.kind for e in report.events]
        assert "task-error" in kinds and "retry-exhausted" in kinds

    def test_injected_raise_fires_once_then_recovers(self):
        plan = FaultPlan.from_spec("raise:0")
        with WorkerSupervisor(jobs=1, plan=plan) as sup:
            task = sup.submit(_double, 5, engine="demo")
        # First attempt hits the injected fault; the retry runs clean.
        assert task.result() == 10
        report = sup.fault_report()
        assert report.retries == 1
        assert [e.kind for e in report.events][0] == "injected"

    def test_injected_kill_is_downgraded_in_process(self):
        # An in-process kill must not take the caller down; the
        # injection layer downgrades it to a raise, and the retry
        # recovers the value.
        plan = FaultPlan.from_spec("kill:0")
        with WorkerSupervisor(jobs=1, plan=plan) as sup:
            task = sup.submit(_double, 4, engine="demo")
        assert task.result() == 8

    def test_wait_any_returns_settled_inline_tasks(self):
        with WorkerSupervisor(jobs=1) as sup:
            a = sup.submit(_double, 1, engine="a")
            b = sup.submit(_double, 2, engine="b")
            done = sup.wait_any([a, b])
        assert done == {a, b}

    def test_cancel_marks_task(self):
        with WorkerSupervisor(jobs=1) as sup:
            task = sup.submit(_double, 1, engine="a")
            sup.cancel(task)  # already settled: no-op
            assert task.result() == 2


class TestFaultReport:
    def test_describe_and_to_dict(self):
        report = FaultReport(
            events=(FaultEvent("task-retry", "chase", 1, "boom"),),
            retries=1,
            degradations=0,
            answered_by="chase",
        )
        assert not report.clean
        text = report.describe()
        assert "retries=1" in text and "task-retry@chase#1" in text
        data = report.to_dict()
        assert data["answered_by"] == "chase"
        assert data["events"][0]["kind"] == "task-retry"

    def test_empty_report_is_clean(self):
        assert FaultReport().clean
