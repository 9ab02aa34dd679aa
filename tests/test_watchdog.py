"""The hung-solve watchdog layer and the worker memory ceilings.

The paper's undecidable cells mean a solve may simply never return —
no amount of budget discipline fixes a computation that stops
cooperating.  These tests pin the two reclamation mechanisms this PR
adds and their one non-negotiable property: reclamation produces
honest UNKNOWNs and restored capacity, never fabricated verdicts.

* :class:`SolveWatchdog` escalates in two steps (cooperative cancel,
  then thread retirement) and never fires on a closed handle;
* :class:`RetiringSolverPool` replaces a retired thread so capacity
  survives abandonment, and a retirement that races a completed solve
  is a no-op;
* ``hang``/``oom`` fault injection wedges or OOMs real tasks, and
  rate plans never draw either (a randomly drawn infinite hang would
  wedge a fuzz sweep, not test anything);
* the ``RLIMIT_AS`` ceiling maps a worker's MemoryError onto the
  existing crash-recovery path, and the parent-side RSS guard demotes
  pooled execution before forking more memory-hungry workers;
* a pre-tripped cancel flag aborts a portfolio solve into UNKNOWN.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.errors import HungSolveError
from repro.reasoning import Budget, ImplicationProblem, SolveOptions
from repro.reasoning.faultinject import FaultPlan, invoke
from repro.reasoning.portfolio import run_portfolio
from repro.reasoning.runtime import CancelFlag, retire_warm_pool
from repro.reasoning.watchdog import (
    RetiringSolverPool,
    SolveWatchdog,
    current_rss_mb,
    current_vms_mb,
)
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


class TestSolveWatchdog:
    def test_escalates_cancel_then_hang(self):
        fired: list[str] = []
        dog = SolveWatchdog(poll_s=0.01)
        try:
            handle = dog.watch(
                deadline=time.monotonic() + 0.05,
                grace_s=0.05,
                hard_grace_s=0.1,
                on_cancel=lambda: fired.append("cancel"),
                on_hang=lambda: fired.append("hang"),
                label="test",
            )
            assert _wait_until(lambda: fired == ["cancel"])
            assert handle.tripped
            assert not handle.hung
            assert _wait_until(lambda: fired == ["cancel", "hang"])
            assert handle.hung
            # Each callback fires exactly once, ever.
            time.sleep(0.1)
            assert fired == ["cancel", "hang"]
            stats = dog.stats()
            assert stats["cancels"] == 1 and stats["hangs"] == 1
        finally:
            dog.stop()

    def test_closed_handle_never_fires(self):
        fired: list[str] = []
        dog = SolveWatchdog(poll_s=0.01)
        try:
            handle = dog.watch(
                deadline=time.monotonic() + 0.05,
                grace_s=0.05,
                hard_grace_s=0.05,
                on_cancel=lambda: fired.append("cancel"),
                on_hang=lambda: fired.append("hang"),
            )
            handle.close()
            time.sleep(0.3)
            assert fired == []
            assert not handle.tripped
            assert dog.stats()["watching"] == 0
        finally:
            dog.stop()

    def test_callback_exception_does_not_kill_the_watchdog(self):
        fired: list[str] = []

        def explode() -> None:
            raise RuntimeError("watchdog callbacks are fallible")

        dog = SolveWatchdog(poll_s=0.01)
        try:
            dog.watch(
                deadline=time.monotonic(),
                grace_s=0.0,
                hard_grace_s=10.0,
                on_cancel=explode,
                on_hang=lambda: fired.append("never"),
            )
            second = dog.watch(
                deadline=time.monotonic(),
                grace_s=0.0,
                hard_grace_s=10.0,
                on_cancel=lambda: fired.append("cancel"),
                on_hang=lambda: fired.append("never"),
            )
            assert _wait_until(lambda: "cancel" in fired)
            assert second.tripped
        finally:
            dog.stop()


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
    def test_hang_spec_parses_bounded_and_unbounded(self):
        plan = FaultPlan.from_spec("hang:2,hang:3:0.25")
        actions = dict(plan.targeted)
        assert actions[2].kind == "hang" and actions[2].param == 0.0
        assert actions[3].kind == "hang" and actions[3].param == 0.25

    def test_oom_spec_raises_memory_error(self):
        action = FaultPlan.from_spec("oom:0").action_for(0)
        with pytest.raises(MemoryError):
            invoke(action.kind, action.param, True, lambda: None, ())

    def test_bounded_hang_runs_task_afterwards(self):
        action = FaultPlan.from_spec("hang:0:0.05").action_for(0)
        start = time.monotonic()
        assert (
            invoke(action.kind, action.param, True, lambda: "ran", ())
            == "ran"
        )
        assert time.monotonic() - start >= 0.05

    def test_rate_plans_never_draw_hang_or_oom(self):
        plan = FaultPlan.from_spec("rate:1.0:17")
        kinds = {plan.action_for(i).kind for i in range(300)}
        assert "hang" not in kinds and "oom" not in kinds
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

    def test_rss_and_vms_probes_answer(self):
        rss = current_rss_mb()
        vms = current_vms_mb()
        assert rss is not None and rss > 0
        assert vms is not None and vms >= rss * 0.5


class TestMemoryCeilingAndGuard:
    def test_generous_worker_ceiling_still_solves(self):
        # A ceiling far above the worker's needs must be invisible.
        ceiling = int((current_vms_mb() or 1024) * 4 + 2048)
        result = run_portfolio(
            _divergent_problem(),
            SolveOptions(execution="pool", max_worker_mb=ceiling),
            jobs=2,
        )
        assert result.answer is Trilean.FALSE

    def test_memory_guard_demotes_pool_to_inline(self):
        # An RSS guard below the current RSS must veto pooled
        # execution up front — and the verdict must survive the
        # demotion.  The decision records what ran: one in-process
        # worker, not the requested two.
        result = run_portfolio(
            _divergent_problem(),
            SolveOptions(execution="pool", memory_guard_mb=1),
            jobs=2,
        )
        assert result.answer is Trilean.FALSE
        assert result.execution.mode.value == "inline"
        assert result.execution.jobs == 1
        assert any("memory guard" in note for note in result.notes)

    def test_guard_far_above_rss_changes_nothing(self):
        result = run_portfolio(
            _divergent_problem(),
            SolveOptions(execution="pool", memory_guard_mb=1 << 20),
            jobs=2,
        )
        assert result.answer is Trilean.FALSE
        assert result.execution.mode.value == "pool"


class TestCooperativeCancel:
    def test_preset_cancel_aborts_to_unknown(self):
        cancel = CancelFlag.create()
        try:
            cancel.set()
            start = time.monotonic()
            result = run_portfolio(
                _divergent_problem(),
                jobs=1,
                budget=Budget.from_seconds(30.0),
                cancel=cancel,
            )
            assert result.answer is Trilean.UNKNOWN
            assert time.monotonic() - start < 5.0
        finally:
            cancel.release()

    def test_run_never_sets_the_callers_flag(self):
        # One caller flag can watch several solves in turn (a daemon
        # query's sub-solves share its watchdog flag), inline or pooled.
        cancel = CancelFlag.create()
        try:
            for options in (SolveOptions(), SolveOptions(execution="pool")):
                result = run_portfolio(
                    _divergent_problem(), options, jobs=2, cancel=cancel
                )
                assert result.answer is Trilean.FALSE
                assert not cancel.is_set
        finally:
            cancel.release()

    def test_unset_cancel_does_not_disturb_the_solve(self):
        cancel = CancelFlag.create()
        try:
            result = run_portfolio(
                _divergent_problem(), jobs=1, cancel=cancel
            )
            assert result.answer is Trilean.FALSE
        finally:
            cancel.release()
