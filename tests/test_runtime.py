"""Unit tests for the in-process engine runner.

Covers the monotonic :class:`Budget` (the clock regression the
portfolio's deadline threading depends on), the deterministic
fault-plan parser, and :class:`EngineRunner` — retry, injection,
exhaustion, accounting.  Whole-solve fault scenarios live in
``test_fault_tolerance.py``.
"""

import threading
import time

import pytest

from repro.errors import ReproError, RetryExhausted
from repro.reasoning.faultinject import (
    NO_FAULT,
    FaultAction,
    FaultPlan,
    plan_from_env,
)
from repro.reasoning.result import FaultEvent, FaultReport
from repro.reasoning.runtime import Budget, EngineRunner


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


class TestFaultPlan:
    def test_targeted_spec_roundtrip(self):
        plan = FaultPlan.from_spec("raise:0,delay:1:0.5,raise:3")
        assert plan.active
        assert plan.action_for(0) == FaultAction("raise")
        assert plan.action_for(1) == FaultAction("delay", 0.5)
        assert plan.action_for(3) == FaultAction("raise")
        assert plan.action_for(2) is NO_FAULT
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
            "raise",
            "raise:0:1",
            "kill:1",
            "corrupt:1",
            "oom:0",
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
        monkeypatch.setenv("REPRO_INJECT", "raise:2")
        assert plan_from_env().action_for(2) == FaultAction("raise")
        monkeypatch.delenv("REPRO_INJECT")
        assert not plan_from_env().active


class TestInlineSupervisor:
    def test_inline_submit_is_synchronous_and_poolless(self):
        # The runner calls the engine in the calling thread.
        runner = EngineRunner()
        threads = []

        def engine(x):
            threads.append(threading.current_thread())
            return _double(x)

        assert runner.run("demo", engine, 21) == 42
        assert threads == [threading.current_thread()]
        report = runner.fault_report(answered_by="demo")
        assert report.clean
        assert report.answered_by == "demo"

    def test_exhausted_retries_settle_with_typed_error(self):
        runner = EngineRunner()
        with pytest.raises(RetryExhausted) as caught:
            runner.run("buggy", _always_raises)
        assert isinstance(caught.value, ReproError)
        assert isinstance(caught.value.__cause__, ValueError)
        report = runner.fault_report()
        assert not report.clean
        assert report.retries == 2
        assert [(e.kind, e.attempt) for e in report.events] == [
            ("task-error", 1),
            ("task-retry", 1),
            ("task-error", 2),
            ("task-retry", 2),
            ("task-error", 3),
            ("retry-exhausted", 3),
        ]

    def test_injected_raise_fires_once_then_recovers(self):
        runner = EngineRunner(FaultPlan.from_spec("raise:0"))
        # First attempt hits the injected fault; the retry runs clean.
        assert runner.run("demo", _double, 5) == 10
        report = runner.fault_report()
        assert report.retries == 1
        assert [e.kind for e in report.events][0] == "injected"

    def test_ordinals_count_engine_calls(self):
        # raise:1 targets the second call, and only its first attempt.
        runner = EngineRunner(FaultPlan.from_spec("raise:1"))
        assert runner.run("a", _double, 1) == 2
        assert runner.run("b", _double, 2) == 4
        assert [e.engine for e in runner.events] == ["b"] * 3
        assert runner.retries == 1

    def test_injected_delay_runs_the_engine_late(self):
        runner = EngineRunner(FaultPlan.from_spec("delay:0:0.05"))
        began = time.monotonic()
        assert runner.run("demo", _double, 3) == 6
        assert time.monotonic() - began >= 0.05
        assert runner.retries == 0


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
