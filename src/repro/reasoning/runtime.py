"""Supervised execution runtime: crash-isolated, retryable engine runs.

The portfolio (:mod:`repro.reasoning.portfolio`) races engines across
a ``ProcessPoolExecutor``.  Before this module existed, a single
worker segfault, OOM-kill or pickling failure surfaced as an unhandled
``BrokenProcessPool`` that destroyed the whole ``solve()`` call.  The
paper's own decidable/semi-decidable split says exactly what degraded
operation must preserve: TRUE/FALSE certificates stay sound (they are
independently verifiable objects — an I_r proof or a counter-model),
and UNKNOWN is the only permissible casualty of infrastructure
failure.

:class:`WorkerSupervisor` enforces that contract around every pool
interaction:

* **crash isolation** — a broken pool is caught, the dead generation
  abandoned, and a fresh pool respawned (at most ``MAX_RESPAWNS``
  times, with capped exponential backoff clipped to the remaining
  budget);
* **restartable tasks** — every submission keeps its full call spec,
  so a respawn resubmits exactly the lost work: a typed shard restarts
  its own stride of the instance stream, not the whole scan;
* **graceful degradation** — when respawns are exhausted (or a
  payload provably cannot cross the process boundary) the task runs
  in-process under the surviving absolute deadline.  Tasks observed
  in-flight across repeated pool crashes are *quarantined* instead —
  degrading a genuinely crashing task in-process would take the whole
  solver down with it;
* **typed failures** — nothing below this layer ever leaks
  ``BrokenProcessPool``: a task that fails every attempt settles with
  :class:`~repro.errors.RetryExhausted` (or
  :class:`~repro.errors.WorkerCrashError` for quarantined crashers),
  and callers turn that into an honest UNKNOWN contribution;
* **accounting** — every retry, respawn, degradation and injected
  fault becomes a :class:`~repro.reasoning.result.FaultEvent`,
  surfaced on the :class:`~repro.reasoning.result.ImplicationResult`
  as its ``faults`` record.

The deterministic fault-injection hooks live in
:mod:`repro.reasoning.faultinject`; the supervisor consults the plan
at submission time (task ordinals are assigned by a deterministic
counter), so injected faults are reproducible run-to-run.

Each pool has one shared integer, its *stop word*, which the pool
initializer installs in every worker.  A supervisor writes its run
number into the word of the pool it leases and clears it once the race
is decided and at shutdown; a pooled task polls :func:`stop_hook`
between chunks and stops once the word no longer holds its run.  So a
straggler on a warm pool winds down quickly after its race instead of
occupying a worker into the next ``solve()``.  The word is the only
stop signal besides the deadline that crosses the process boundary;
callers stop a solve with its deadline alone.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import threading
import time
from collections.abc import Iterable
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import RetryExhausted, WorkerCrashError
from repro.reasoning.faultinject import (
    NO_FAULT,
    CorruptPayload,
    FaultAction,
    FaultPlan,
    invoke,
)
from repro.reasoning.result import FaultEvent, FaultReport

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ctypes import c_longlong

#: Retries of a task that raised, before its last in-process attempt.
MAX_TASK_RETRIES = 2

#: Pool respawns after worker crashes, before a run degrades to
#: in-process execution.
MAX_RESPAWNS = 2

#: Respawn backoff: ``BACKOFF_BASE_S * 2**(n - 1)`` seconds before the
#: n-th respawn, capped at ``BACKOFF_CAP_S`` and at the budget left.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 1.0


@dataclass(frozen=True)
class Budget:
    """A wall-clock budget shared by every engine of a portfolio run.

    ``deadline`` is absolute on the ``time.monotonic()`` clock;
    ``None`` means unlimited.  Monotonic time is immune to NTP steps
    and wall-clock jumps, so a deadline can neither silently expire
    nor silently extend; on Linux ``CLOCK_MONOTONIC`` is system-wide,
    so the absolute value remains meaningful in every worker process
    of the pool (the cross-process threading the portfolio relies on).
    The object is immutable and picklable.
    """

    deadline: float | None = None

    @classmethod
    def from_seconds(cls, seconds: float | None) -> "Budget":
        """A budget expiring ``seconds`` from now (``None`` = none)."""
        if seconds is None:
            return cls(deadline=None)
        return cls(deadline=time.monotonic() + seconds)

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())


# ---------------------------------------------------------------------------
# The warm persistent pool.
# ---------------------------------------------------------------------------
#
# Cold ProcessPoolExecutor spawn costs ~0.05s — more than many whole
# scans.  One process-wide pool therefore survives across solve()
# calls: a supervisor *leases* it for the duration of its run and
# returns it on a clean exit instead of terminating the workers.  A
# pool that broke (worker crash), a supervisor that degraded, or an
# exceptional exit never returns the pool — broken or straggler-laden
# pools are abandoned and reaped exactly as before, so the PR 5
# fault-tolerance guarantees are unchanged.  Warm workers also keep
# their per-process caches (permutation tables) across solves.


@dataclass
class _WarmPoolState:
    pool: ProcessPoolExecutor
    word: c_longlong
    jobs: int
    leased: bool = False


_WARM: _WarmPoolState | None = None
_WARM_SPAWNS = 0
_WARM_REUSES = 0

#: Guards the warm slot: a daemon's solver threads lease concurrently,
#: and two runs sharing one pool would share its stop word.
_WARM_LOCK = threading.Lock()

#: This worker's pool stop word (None in the parent).
_STOP_WORD: c_longlong | None = None

#: Run numbers of supervisors; 0 in a stop word means "no run".
_RUNS = itertools.count(1)


def _install_stop_word(word: c_longlong) -> None:
    """Pool initializer: keep the pool's stop word in this worker."""
    global _STOP_WORD
    _STOP_WORD = word


def stop_hook(run: int | None) -> Callable[[], bool] | None:
    """The ``should_stop`` poll for a task of supervisor run ``run``.

    In a pool worker the task stops once the pool's stop word no
    longer holds ``run``: the race was decided, or the run ended and
    the pool went back to the warm slot or to a later run.  In the
    parent (inline and degraded tasks) and for ``run=None`` there is no
    poll, so the task stops at its deadline alone.
    """
    word = _STOP_WORD
    if word is None or run is None:
        return None
    return lambda: word.value != run


def _spawn_pool(jobs: int) -> tuple[ProcessPoolExecutor, c_longlong]:
    """A fresh pool and the stop word its workers poll."""
    # The word's arena file is unlinked as soon as it is created, so
    # it leaves nothing in /dev/shm and needs no resource tracker.
    word = multiprocessing.RawValue("q", 0)
    pool = ProcessPoolExecutor(
        max_workers=jobs, initializer=_install_stop_word, initargs=(word,)
    )
    return pool, word


def _warm_acquire(
    jobs: int,
) -> tuple[ProcessPoolExecutor, c_longlong, bool]:
    """Lease the warm pool (or spawn a tracked replacement).

    Returns ``(pool, word, tracked)``; a ``tracked`` pool should be
    returned via :func:`_warm_return` on clean shutdown.  An untracked
    pool (the warm pool was already leased by another supervisor) is
    the caller's to tear down.
    """
    global _WARM, _WARM_SPAWNS, _WARM_REUSES
    retired = None
    with _WARM_LOCK:
        state = _WARM
        if state is not None and not state.leased:
            broken = getattr(state.pool, "_broken", False)
            if not broken and state.jobs >= jobs:
                state.leased = True
                _WARM_REUSES += 1
                return state.pool, state.word, True
            # Too small or broken: retire and spawn fresh.
            _WARM, retired = None, state.pool
        # No worker starts before the first submission, so spawning
        # under the lock is cheap.
        pool, word = _spawn_pool(jobs)
        tracked = _WARM is None
        if tracked:
            _WARM = _WarmPoolState(
                pool=pool, word=word, jobs=jobs, leased=True
            )
            _WARM_SPAWNS += 1
    if retired is not None:
        _abandon_pool(retired)
    return pool, word, tracked


def _warm_return(pool: ProcessPoolExecutor, healthy: bool) -> None:
    """End a lease: keep a healthy pool warm, abandon anything else."""
    global _WARM
    with _WARM_LOCK:
        state = _WARM
        if state is not None and state.pool is pool:
            if healthy and not getattr(pool, "_broken", False):
                state.leased = False
                return
            _WARM = None
    _abandon_pool(pool)


def _warm_discard(pool: ProcessPoolExecutor) -> None:
    """Forget a pool that broke while leased (caller abandons it)."""
    global _WARM
    with _WARM_LOCK:
        if _WARM is not None and _WARM.pool is pool:
            _WARM = None


def retire_warm_pool() -> None:
    """Shut the warm pool down and reap its workers (never raises).

    Tests assert the no-orphan property through this; it is also the
    interpreter-exit hook.  Safe to call at any time — the next pooled
    solve simply cold-spawns again.
    """
    global _WARM
    with _WARM_LOCK:
        state, _WARM = _WARM, None
    if state is not None:
        _abandon_pool(state.pool)


atexit.register(retire_warm_pool)


def warm_pool_pids() -> tuple[int, ...]:
    """PIDs of the current warm pool's workers (empty when cold)."""
    state = _WARM
    if state is None:
        return ()
    return tuple(sorted(getattr(state.pool, "_processes", None) or {}))


def warm_pool_stats() -> dict:
    """Warm-pool observability: liveness, lease state, reuse counters."""
    state = _WARM
    return {
        "alive": state is not None,
        "leased": bool(state is not None and state.leased),
        "jobs": state.jobs if state is not None else 0,
        "pids": list(warm_pool_pids()),
        "spawns": _WARM_SPAWNS,
        "reuses": _WARM_REUSES,
    }


@dataclass(eq=False)
class SupervisedTask:
    """One engine invocation tracked across retries and pool deaths.

    The ``fn``/``args`` spec is the restart unit: whatever generation
    of the pool runs it (or the supervisor itself, in degraded mode),
    the call is identical, so a typed shard always re-scans exactly
    its assigned stride.
    """

    fn: Callable
    args: tuple
    engine: str
    ordinal: int
    action: FaultAction = NO_FAULT
    future: Future | None = None
    attempts: int = 0
    pool_gen: int = -1
    #: pool generations this task was in flight for when the pool
    #: broke — the quarantine heuristic's evidence.
    crash_exposures: int = 0
    settled: bool = False
    cancelled: bool = False
    inprocess_tried: bool = False
    value: Any = None
    error: BaseException | None = None

    @property
    def failed(self) -> bool:
        return self.settled and self.error is not None

    def result(self) -> Any:
        if not self.settled:
            raise RuntimeError(f"task {self.engine} is not settled")
        if self.cancelled:
            raise RuntimeError(f"task {self.engine} was cancelled")
        if self.error is not None:
            raise self.error
        return self.value

    def _settle(self, value: Any) -> None:
        self.settled, self.value = True, value

    def _settle_failed(self, error: BaseException) -> None:
        self.settled, self.error = True, error

    def _mark_cancelled(self) -> None:
        self.settled, self.cancelled = True, True


class WorkerSupervisor:
    """Fault-tolerant façade over one portfolio run's process pool.

    With ``jobs <= 1`` no pool is ever created: submissions run
    inline, synchronously, in submission order (the seed's sequential
    pipeline), still with injection, retry and fault accounting.

    Use as a context manager; ``__exit__`` tears the pool down on
    every path, including exceptions and ``KeyboardInterrupt``, and
    reaps lingering worker processes so nothing is orphaned.
    """

    def __init__(
        self,
        jobs: int = 1,
        budget: Budget | None = None,
        plan: FaultPlan | None = None,
        keep_warm: bool = True,
    ) -> None:
        self.jobs = max(1, jobs)
        self.inline = jobs <= 1
        self.budget = budget or Budget()
        self.plan = plan or FaultPlan()
        #: lease the process-wide warm pool (and return it on a clean
        #: exit) instead of cold-spawning and terminating per run.
        self.keep_warm = keep_warm
        #: this run's number, written into the stop word of its pool.
        self.run = next(_RUNS)
        self._pool: ProcessPoolExecutor | None = None
        self._word: c_longlong | None = None
        self._pool_tracked = False
        self._pool_gen = 0
        self._respawns = 0
        self._degraded = False
        self._ordinal = 0
        self._tasks: list[SupervisedTask] = []
        self.events: list[FaultEvent] = []
        self.retries = 0
        self.degradations = 0

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        # An exceptional exit (KeyboardInterrupt mid-race) may leave
        # genuinely stuck tasks on the pool; never hand those to the
        # next solve — abandon and reap, exactly the old behavior.
        self.shutdown(abandon=exc_info and exc_info[0] is not None)

    def stop(self) -> None:
        """Clear the pool's stop word: this run's pooled tasks stop at
        their next poll."""
        if self._word is not None:
            self._word.value = 0

    def shutdown(self, abandon: bool = False) -> None:
        """End this run's pool lease; never raises.

        A healthy tracked warm-pool lease is returned with workers
        alive (stragglers see the cleared stop word and idle quickly);
        anything else — untracked, degraded, or ``abandon=True`` — is
        torn down and reaped.
        """
        self.stop()
        pool, self._pool, self._word = self._pool, None, None
        if pool is None:
            return
        if self._pool_tracked and not abandon and not self._degraded:
            _warm_return(pool, healthy=True)
        elif self._pool_tracked:
            _warm_return(pool, healthy=False)
        else:
            _abandon_pool(pool)

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of this run's current pool workers (empty inline)."""
        if self._pool is None:
            return ()
        return tuple(sorted(getattr(self._pool, "_processes", None) or {}))

    # -- accounting ---------------------------------------------------

    def _record(
        self, kind: str, engine: str, attempt: int = 0, detail: str = ""
    ) -> None:
        self.events.append(FaultEvent(kind, engine, attempt, detail[:200]))

    def fault_report(self, answered_by: str = "") -> FaultReport:
        """The run's fault record, for ``ImplicationResult.faults``."""
        return FaultReport(
            events=tuple(self.events),
            retries=self.retries,
            degradations=self.degradations,
            answered_by=answered_by,
        )

    # -- submission ---------------------------------------------------

    def submit(
        self, fn: Callable, *args, engine: str = "task"
    ) -> SupervisedTask:
        """Submit ``fn(*args)`` as a supervised, restartable task."""
        ordinal = self._ordinal
        self._ordinal += 1
        action = self.plan.action_for(ordinal)
        task = SupervisedTask(
            fn=fn, args=args, engine=engine, ordinal=ordinal, action=action
        )
        if action.fires:
            self._record("injected", engine, detail=action.describe())
        self._tasks.append(task)
        if self.inline or self._degraded:
            self._run_in_process(task)
        else:
            self._submit_to_pool(task)
        return task

    def cancel(self, task: SupervisedTask) -> None:
        """Cancel a task the caller no longer needs (never retried)."""
        if task.settled:
            return
        if task.future is not None:
            task.future.cancel()
        task._mark_cancelled()

    # -- waiting ------------------------------------------------------

    def wait_any(
        self,
        tasks: Iterable[SupervisedTask],
        timeout: float | None = None,
    ) -> set[SupervisedTask]:
        """Block until at least one task settles; return all settled.

        Fault handling happens *inside* this call: broken pools are
        respawned, failed attempts retried or degraded, so by the time
        a task is returned it is genuinely settled — with a value, a
        typed error, or a cancellation — never a bare pool exception.
        """
        tasks = list(tasks)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            done = {t for t in tasks if t.settled}
            if done:
                return done
            future_map = {
                t.future: t for t in tasks if t.future is not None
            }
            if not future_map:
                return set()
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            finished, _ = wait(
                set(future_map),
                timeout=remaining,
                return_when=FIRST_COMPLETED,
            )
            if not finished:
                return set()
            for future in finished:
                task = future_map[future]
                if task.settled or future is not task.future:
                    continue  # superseded by a newer attempt
                self._absorb(task, future)

    # -- fault handling (private) -------------------------------------

    def _pool_or_spawn(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self.keep_warm:
                self._pool, self._word, self._pool_tracked = _warm_acquire(
                    self.jobs
                )
            else:
                self._pool, self._word = _spawn_pool(self.jobs)
                self._pool_tracked = False
            self._word.value = self.run
        return self._pool

    def _submit_to_pool(self, task: SupervisedTask) -> None:
        action = task.action if task.attempts == 0 else NO_FAULT
        poison = CorruptPayload() if action.kind == "corrupt" else None
        task.attempts += 1
        task.pool_gen = self._pool_gen
        try:
            task.future = self._pool_or_spawn().submit(
                invoke,
                action.kind,
                action.param,
                False,
                task.fn,
                task.args,
                poison,
            )
        except BrokenExecutor as exc:
            task.future = None
            self._handle_pool_break(task.engine, exc)

    def _absorb(self, task: SupervisedTask, future: Future) -> None:
        if future.cancelled():  # pragma: no cover - defensive
            task._mark_cancelled()
            return
        error = future.exception()
        if error is None:
            task._settle(future.result())
        elif isinstance(error, BrokenExecutor):
            self._handle_pool_break(task.engine, error)
        elif isinstance(error, MemoryError):
            # The worker ran out of memory.  Its heap is untrustworthy
            # even though the process survived, so ride the same
            # respawn/degrade/quarantine path as an abrupt worker death
            # rather than retrying on the bloated pool.
            self._record(
                "worker-oom",
                task.engine,
                task.attempts,
                str(error) or "MemoryError",
            )
            self._handle_pool_break(
                task.engine,
                WorkerCrashError(f"worker out of memory: {error}"),
            )
        else:
            self._task_failure(task, error)

    def _handle_pool_break(
        self, engine: str, exc: BaseException
    ) -> None:
        """A worker died and took the pool generation with it."""
        self._record(
            "worker-crash",
            engine,
            detail=f"{type(exc).__name__}: {exc}",
        )
        pool, self._pool, self._word = self._pool, None, None
        if pool is not None:
            # A broken pool is never kept warm: forget it, then reap.
            _warm_discard(pool)
            _abandon_pool(pool)
        self._pool_gen += 1
        lost = [t for t in self._tasks if not t.settled]
        for task in lost:
            if task.future is not None:
                task.crash_exposures += 1
                task.future = None
        if self._respawns >= MAX_RESPAWNS or self.budget.expired:
            self._degrade(lost)
            return
        self._respawns += 1
        self._backoff(self._respawns)
        self._record(
            "pool-respawn",
            engine,
            attempt=self._respawns,
            detail=f"respawn {self._respawns}/{MAX_RESPAWNS}",
        )
        for task in lost:
            if task.settled or task.future is not None:
                continue  # handled by a nested break/degrade
            self.retries += 1
            self._record("task-retry", task.engine, task.attempts)
            self._submit_to_pool(task)

    def _degrade(self, tasks: list[SupervisedTask]) -> None:
        """Abandon the pool; finish the remaining work in-process."""
        if not self._degraded:
            self._degraded = True
            self._record(
                "pool-degraded",
                "pool",
                attempt=self._respawns,
                detail=f"respawns exhausted ({MAX_RESPAWNS})"
                if not self.budget.expired
                else "budget expired during recovery",
            )
        for task in tasks:
            if task.settled:
                continue
            if task.crash_exposures >= 2:
                # In flight across repeated pool crashes: running it in
                # this process could kill the solver itself.
                self._record(
                    "retry-exhausted",
                    task.engine,
                    task.attempts,
                    "quarantined as a suspected crashing task",
                )
                task._settle_failed(
                    WorkerCrashError(
                        f"task {task.engine!r} was in flight for "
                        f"{task.crash_exposures} pool crashes; quarantined"
                    )
                )
                continue
            self._run_in_process(task)

    def _run_in_process(self, task: SupervisedTask) -> None:
        action = task.action if task.attempts == 0 else NO_FAULT
        task.attempts += 1
        task.inprocess_tried = True
        if not self.inline and self._degraded:
            self.degradations += 1
            self._record("task-degraded", task.engine, task.attempts)
        try:
            value = invoke(
                action.kind, action.param, True, task.fn, task.args
            )
        except Exception as exc:  # noqa: BLE001 - typed at the boundary
            self._task_failure(task, exc)
        else:
            task._settle(value)

    def _task_failure(
        self, task: SupervisedTask, exc: BaseException
    ) -> None:
        """One attempt raised (in a worker, the pickler, or inline)."""
        self._record(
            "task-error",
            task.engine,
            task.attempts,
            f"{type(exc).__name__}: {exc}",
        )
        if task.attempts <= MAX_TASK_RETRIES:
            self.retries += 1
            self._record("task-retry", task.engine, task.attempts)
            if self.inline or self._degraded:
                self._run_in_process(task)
            else:
                self._submit_to_pool(task)
            return
        if not task.inprocess_tried:
            # Final fallback: maybe only the process boundary is broken
            # (an unpicklable payload reproduces forever in the pool
            # and never in-process).
            self.degradations += 1
            self._record("task-degraded", task.engine, task.attempts)
            # One in-process shot, no further retries.
            task.attempts = MAX_TASK_RETRIES + 1
            try:
                task._settle(
                    invoke("none", 0.0, True, task.fn, task.args)
                )
            except Exception as final:  # noqa: BLE001
                self._record(
                    "retry-exhausted",
                    task.engine,
                    task.attempts,
                    f"{type(final).__name__}: {final}",
                )
                wrapped = RetryExhausted(
                    f"task {task.engine!r} failed every attempt "
                    f"({task.attempts}): {final}"
                )
                wrapped.__cause__ = final
                task._settle_failed(wrapped)
            return
        self._record(
            "retry-exhausted",
            task.engine,
            task.attempts,
            f"{type(exc).__name__}: {exc}",
        )
        wrapped = RetryExhausted(
            f"task {task.engine!r} failed every attempt "
            f"({task.attempts}): {exc}"
        )
        wrapped.__cause__ = exc
        task._settle_failed(wrapped)

    def _backoff(self, attempt: int) -> None:
        delay = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** (attempt - 1)))
        remaining = self.budget.remaining()
        if remaining is not None:
            delay = min(delay, remaining)
        if delay > 0:
            time.sleep(delay)


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting, then reap straggler workers.

    ``shutdown(wait=False, cancel_futures=True)`` drops pending work
    but lets an already-running loser finish its current task; a
    crashed pool may also hold zombie workers.  Terminating what is
    left guarantees the no-orphan property the tests assert.
    """
    # Snapshot first: Executor.shutdown() clears the _processes dict
    # even with wait=False, which would leave us nothing to reap.
    processes = dict(getattr(pool, "_processes", None) or {})
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for proc in list(processes.values()):
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:  # pragma: no cover - defensive
            pass
    for proc in list(processes.values()):
        try:
            proc.join(timeout=1.0)
        except Exception:  # pragma: no cover - defensive
            pass
