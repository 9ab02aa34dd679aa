"""Retirable solver threads and the ``oom`` fault kind.

The paper's undecidable cells mean a solve may simply never return —
no amount of budget discipline fixes a computation that stops
cooperating.  These tests pin the reclamation primitives and their
one non-negotiable property: reclamation produces honest UNKNOWNs and
restored capacity, never fabricated verdicts.  The daemon's watchdog
itself (one event-loop timer per budgeted solve) is tested over the
wire in ``tests/test_server.py``.

* :class:`RetiringSolverPool` replaces a retired thread so capacity
  survives abandonment, and a retirement that races a completed solve
  is a no-op;
* ``oom`` fault injection raises MemoryError in a real task, the
  supervisor maps a worker's MemoryError onto the existing
  crash-recovery path, and rate plans never draw ``oom``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.errors import HungSolveError
from repro.reasoning import ImplicationProblem, SolveOptions
from repro.reasoning.faultinject import FaultPlan, invoke
from repro.reasoning.portfolio import run_portfolio
from repro.reasoning.runtime import retire_warm_pool
from repro.reasoning.watchdog import RetiringSolverPool
from repro.truth import Trilean

DIVERGENT_SIGMA = "() => K\nK :: () => a.a.a\nK :: a.a.a => ()\na :: a => a"
DIVERGENT_PHI = "K :: a => ()"


def _divergent_problem() -> ImplicationProblem:
    return ImplicationProblem(
        parse_constraints(DIVERGENT_SIGMA), parse_constraint(DIVERGENT_PHI)
    )


@pytest.fixture(autouse=True)
def _cold_warm_pool():
    retire_warm_pool()
    yield
    retire_warm_pool()


def _wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestRetiringSolverPool:
    def test_submit_returns_results(self):
        pool = RetiringSolverPool(2)
        try:
            futures = [pool.submit(lambda i=i: i * i) for i in range(8)]
            assert [f.result(timeout=5) for f in futures] == [
                i * i for i in range(8)
            ]
        finally:
            pool.shutdown()

    def test_task_exception_propagates(self):
        pool = RetiringSolverPool(1)
        try:

            def boom() -> None:
                raise ValueError("task failure")

            with pytest.raises(ValueError, match="task failure"):
                pool.submit(boom).result(timeout=5)
        finally:
            pool.shutdown()

    def test_retire_running_restores_capacity(self):
        pool = RetiringSolverPool(1)
        release = threading.Event()
        try:
            wedged = pool.submit(lambda: release.wait(timeout=30))
            assert _wait_until(lambda: pool.stats()["busy"] == 1)
            assert pool.retire_running(
                wedged, HungSolveError("abandoned by the test")
            )
            with pytest.raises(HungSolveError):
                wedged.result(timeout=5)
            # The replacement thread runs fresh work while the wedged
            # original is still blocked — capacity was reclaimed, not
            # merely accounted for.
            assert pool.submit(lambda: 41 + 1).result(timeout=5) == 42
            stats = pool.stats()
            assert stats["retired"] == 1
            assert stats["spawned"] == 2
        finally:
            release.set()
            pool.shutdown()

    def test_retire_after_completion_is_a_noop(self):
        pool = RetiringSolverPool(1)
        try:
            future = pool.submit(lambda: "done")
            assert future.result(timeout=5) == "done"
            assert not pool.retire_running(
                future, HungSolveError("too late")
            )
            assert future.result() == "done"
            assert pool.stats()["retired"] == 0
        finally:
            pool.shutdown()


class TestHangOomInjection:
    def test_oom_spec_raises_memory_error(self):
        action = FaultPlan.from_spec("oom:0").action_for(0)
        with pytest.raises(MemoryError):
            invoke(action.kind, action.param, True, lambda: None, ())

    def test_rate_plans_never_draw_hang_or_oom(self):
        plan = FaultPlan.from_spec("rate:1.0:17")
        kinds = {plan.action_for(i).kind for i in range(300)}
        assert "oom" not in kinds
        assert kinds <= {"kill", "raise", "delay", "corrupt"}

    def test_injected_oom_rides_the_crash_path(self):
        # oom on both first shards: the supervisor maps MemoryError to
        # the worker-crash respawn path and the verdict still settles.
        result = run_portfolio(
            _divergent_problem(),
            SolveOptions(
                inject=FaultPlan.from_spec("oom:0,oom:1"), execution="pool"
            ),
            jobs=2,
        )
        assert result.answer is Trilean.FALSE
        kinds = {e.kind for e in result.faults.events}
        assert "worker-oom" in kinds
