"""Retirable solver threads.

The paper's undecidable cells mean a solve may simply never return —
no amount of budget discipline fixes a computation that stops
cooperating.  These tests pin the reclamation primitives and their
one non-negotiable property: reclamation produces honest UNKNOWNs and
restored capacity, never fabricated verdicts.  The daemon's watchdog
itself (one event-loop timer per budgeted solve) is tested over the
wire in ``tests/test_server.py``.

* :class:`RetiringSolverPool` replaces a retired thread so capacity
  survives abandonment, and a retirement that races a completed solve
  is a no-op.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import HungSolveError
from repro.reasoning.watchdog import RetiringSolverPool


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
