"""Unit tests for the portfolio's shared deadline and fault records.

Covers the monotonic :class:`Budget` (the clock regression the
portfolio's deadline threading depends on) and the
:class:`FaultReport` a solve carries.  Whole-solve fault scenarios
live in ``test_fault_tolerance.py``.
"""

import time

import pytest

from repro.reasoning.result import FaultEvent, FaultReport
from repro.reasoning.runtime import Budget


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


class TestFaultReport:
    def test_describe_and_to_dict(self):
        report = FaultReport(
            events=(FaultEvent("task-error", "chase", "ValueError: boom"),),
            answered_by="countermodel",
        )
        assert not report.clean
        text = report.describe()
        assert "answered_by=countermodel" in text
        assert "task-error@chase (ValueError: boom)" in text
        assert report.to_dict() == {
            "answered_by": "countermodel",
            "events": [
                {
                    "kind": "task-error",
                    "engine": "chase",
                    "detail": "ValueError: boom",
                }
            ],
        }

    def test_empty_report_is_clean(self):
        assert FaultReport().clean
