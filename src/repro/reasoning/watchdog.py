"""Hung-solve watchdog and retirable solver threads.

The implication problem this repo reproduces is undecidable in the
general case, so a solve that simply *never returns* is an intrinsic
hazard of the workload, not a bug to be fixed once.  A wedged solve is
worse than a crashed one: a crash breaks a pool and the supervisor
respawns it (PR 5), but a hang silently consumes a solver slot forever
while ``health`` still answers ``ok``.

This module provides the two primitives the service layer composes to
reclaim wedged capacity:

* :class:`SolveWatchdog` — a single daemon thread polling a registry
  of in-flight solves.  Each watch carries a *deadline*, a *grace*
  (past ``deadline + grace`` the watch fires ``on_cancel``, typically
  tripping the solve's shared-memory
  :class:`~repro.reasoning.runtime.CancelFlag` that ``scan_codes`` /
  ``scan_typed_instances`` / ``chase`` already poll) and a *hard
  grace* (past ``cancelled_at + hard_grace`` it fires ``on_hang`` —
  the solve ignored cooperative cancellation and must be abandoned).

* :class:`RetiringSolverPool` — a thread pool whose threads can be
  *retired while running*.  Python threads cannot be killed, so
  "abandon" means: mark the thread retired, detach its future (failing
  it with the caller's error, typically
  :class:`~repro.errors.HungSolveError`), and start a replacement
  thread so capacity is restored immediately.  When the wedged
  function eventually returns (or raises), the retired thread discards
  the result — a stale verdict must never reach a caller — and exits.

Both are deliberately independent of the daemon so library users and
tests can compose them around any blocking call.

:func:`current_rss_mb` / :func:`current_vms_mb` are the parent-side
memory probes used by the portfolio's pre-spawn memory guard.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class WatchedSolve:
    """One in-flight solve registered with a :class:`SolveWatchdog`.

    The watchdog mutates ``cancelled_at`` / ``hung``; the owner calls
    :meth:`close` when the solve returns (by whatever path).  All
    fields use the ``time.monotonic`` clock.
    """

    deadline: float
    grace_s: float
    hard_grace_s: float
    on_cancel: Callable[[], None]
    on_hang: Callable[[], None]
    label: str = ""
    cancelled_at: Optional[float] = None
    hung: bool = False
    closed: bool = False

    @property
    def tripped(self) -> bool:
        """Whether the watchdog fired ``on_cancel`` for this solve."""
        return self.cancelled_at is not None

    def close(self) -> None:
        """Deregister: the solve returned, stop watching it."""
        self.closed = True


class SolveWatchdog:
    """A lazy single-thread monitor for in-flight solve deadlines.

    The monitor thread starts on the first :meth:`watch` and is a
    daemon, so an embedding process never blocks on it at exit.
    Callbacks run *on the watchdog thread* and must be quick and
    exception-safe; exceptions are swallowed (a broken callback must
    not stop the watchdog from policing every other solve).
    """

    def __init__(self, poll_s: float = 0.05):
        self.poll_s = poll_s
        self._lock = threading.Lock()
        self._watches: list[WatchedSolve] = []
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Number of cooperative-cancel firings (``on_cancel``).
        self.cancels = 0
        #: Number of hard-abandon firings (``on_hang``).
        self.hangs = 0

    def watch(
        self,
        deadline: float,
        grace_s: float,
        hard_grace_s: float,
        on_cancel: Callable[[], None],
        on_hang: Callable[[], None],
        label: str = "",
    ) -> WatchedSolve:
        """Register a solve; returns its handle (``handle.close()``)."""
        handle = WatchedSolve(
            deadline=deadline,
            grace_s=max(0.0, grace_s),
            hard_grace_s=max(0.0, hard_grace_s),
            on_cancel=on_cancel,
            on_hang=on_hang,
            label=label,
        )
        with self._lock:
            if self._stop.is_set():
                raise RuntimeError("watchdog is stopped")
            self._watches.append(handle)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-watchdog", daemon=True
                )
                self._thread.start()
        return handle

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_s):
            now = time.monotonic()
            with self._lock:
                # Prune closed watches; snapshot the live ones so the
                # callbacks below run outside the lock.
                self._watches = [w for w in self._watches if not w.closed]
                pending = list(self._watches)
            for w in pending:
                if w.closed:
                    continue
                if w.cancelled_at is None:
                    if now > w.deadline + w.grace_s:
                        w.cancelled_at = now
                        self.cancels += 1
                        try:
                            w.on_cancel()
                        except Exception:
                            pass
                elif not w.hung and now > w.cancelled_at + w.hard_grace_s:
                    w.hung = True
                    self.hangs += 1
                    try:
                        w.on_hang()
                    except Exception:
                        pass

    def stop(self) -> None:
        """Stop the monitor thread (idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=1.0)

    def stats(self) -> dict[str, int]:
        with self._lock:
            watching = sum(1 for w in self._watches if not w.closed)
        return {
            "watching": watching,
            "cancels": self.cancels,
            "hangs": self.hangs,
        }


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


def _proc_status_kb(key: str) -> Optional[float]:
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return float(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def current_rss_mb() -> Optional[float]:
    """This process's resident set size in MiB (None off-Linux)."""
    pages = _proc_statm_field(1)
    if pages is None:
        kb = _proc_status_kb("VmRSS")
        return None if kb is None else kb / 1024.0
    return pages * os.sysconf("SC_PAGE_SIZE") / float(1 << 20)


def current_vms_mb() -> Optional[float]:
    """This process's virtual memory size in MiB (None off-Linux).

    ``RLIMIT_AS`` is an address-space (virtual) ceiling, so tests
    sizing a worker ceiling relative to the current process should
    start from this, not from RSS.
    """
    kb = _proc_status_kb("VmSize")
    return None if kb is None else kb / 1024.0


def _proc_statm_field(index: int) -> Optional[float]:
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            return float(fh.read().split()[index])
    except (OSError, ValueError, IndexError):
        return None
