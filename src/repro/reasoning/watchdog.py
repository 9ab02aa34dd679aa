"""Retirable solver threads for the daemon's hung-solve watchdog.

The implication problem this repo reproduces is undecidable in the
general case, so a solve that simply *never returns* is an intrinsic
hazard of the workload, not a bug to be fixed once.  A wedged solve is
worse than a crashed one: a crash breaks a pool and the supervisor
respawns it, but a hang silently consumes a solver slot forever while
``health`` still answers ``ok``.

:class:`RetiringSolverPool` is a thread pool whose threads can be
*retired while running*.  Python threads cannot be killed, so
"abandon" means: mark the thread retired, detach its future (failing
it with the caller's error, typically
:class:`~repro.errors.HungSolveError`), and start a replacement thread
so capacity is restored immediately.  When the wedged function
eventually returns (or raises), the retired thread discards the
result — a stale verdict must never reach a caller — and exits.  The
daemon's watchdog is one event-loop timer per budgeted solve that
calls :meth:`RetiringSolverPool.retire_running` at deadline + grace.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class _WorkItem:
    fn: Callable[[], Any]
    future: Future = field(default_factory=Future)


def _settle(future: Future, result: Any = None,
            error: Optional[BaseException] = None) -> None:
    """Set a future's outcome, tolerating a lost settle race.

    The watchdog (failing the future with :class:`HungSolveError`) and
    the solver thread (delivering the real outcome) may race; first
    writer wins and the loser must not blow up the worker loop.
    """
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


class RetiringSolverPool:
    """A fixed-capacity thread pool whose threads can be retired.

    Unlike :class:`concurrent.futures.ThreadPoolExecutor`, a thread
    stuck in a non-returning call does not strand a slot forever:
    :meth:`retire_running` detaches the wedged thread (its eventual
    result is discarded) and spawns a replacement, restoring capacity.
    All threads are daemons so wedged ones cannot block process exit.
    """

    def __init__(self, threads: int, name_prefix: str = "repro-solve"):
        self._name_prefix = name_prefix
        self._work: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        #: ident -> Thread for live, non-retired threads.
        self._threads: dict[int, threading.Thread] = {}
        #: ident -> Future currently executing on that thread.
        self._running: dict[int, Future] = {}
        self._retired_idents: set[int] = set()
        self._spawned = 0
        self._retired = 0
        self._shutdown = False
        self.capacity = max(1, int(threads))
        for _ in range(self.capacity):
            self._spawn()

    def _spawn(self) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._spawned += 1
            serial = self._spawned
        thread = threading.Thread(
            target=self._run,
            name=f"{self._name_prefix}-{serial}",
            daemon=True,
        )
        thread.start()

    def _run(self) -> None:
        ident = threading.get_ident()
        with self._lock:
            self._threads[ident] = threading.current_thread()
        try:
            while True:
                item = self._work.get()
                if item is None:
                    return
                if not item.future.set_running_or_notify_cancel():
                    continue
                with self._lock:
                    self._running[ident] = item.future
                try:
                    result = item.fn()
                except BaseException as exc:  # noqa: BLE001 — forwarded
                    outcome_error: Optional[BaseException] = exc
                    result = None
                else:
                    outcome_error = None
                with self._lock:
                    self._running.pop(ident, None)
                    retired = ident in self._retired_idents
                if retired:
                    # The watchdog abandoned this solve while it ran;
                    # a replacement thread already took over the slot.
                    # Discard the late outcome — it must never reach
                    # the caller — and exit.
                    return
                _settle(item.future, result, outcome_error)
        finally:
            with self._lock:
                self._threads.pop(ident, None)
                self._running.pop(ident, None)
                self._retired_idents.discard(ident)

    def submit(self, fn: Callable[[], Any]) -> Future:
        """Queue ``fn`` for execution; returns its future."""
        with self._lock:
            if self._shutdown:
                raise RuntimeError("solver pool is shut down")
        item = _WorkItem(fn)
        self._work.put(item)
        return item.future

    def retire_running(self, future: Future,
                       error: BaseException) -> bool:
        """Abandon the thread currently running ``future``.

        Fails ``future`` with ``error``, marks the thread retired (its
        eventual return value is discarded) and spawns a replacement.
        Returns False when the solve finished in the race window —
        then the genuine outcome stands and nothing is retired.
        """
        with self._lock:
            ident = next(
                (i for i, f in self._running.items() if f is future), None
            )
            if ident is None:
                return False
            self._retired_idents.add(ident)
            self._retired += 1
            self._threads.pop(ident, None)
            self._running.pop(ident, None)
        self._spawn()
        _settle(future, error=error)
        return True

    def shutdown(self) -> None:
        """Stop accepting work and release idle threads.

        Never joins: a wedged (retired or not) thread must not block
        daemon shutdown.  Idle threads drain one sentinel each and
        exit; busy non-retired threads exit after their current item.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            live = len(self._threads)
        for _ in range(live):
            self._work.put(None)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "threads": len(self._threads),
                "busy": len(self._running),
                "spawned": self._spawned,
                "retired": self._retired,
            }

