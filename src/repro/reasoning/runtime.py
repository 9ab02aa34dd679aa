"""In-process engine runs: the shared deadline, retries and fault records.

The semi-decision portfolio (:mod:`repro.reasoning.portfolio`) runs its
engines one after the other in the calling thread.  This module holds
what they share:

* :class:`Budget`, one absolute ``time.monotonic()`` deadline for every
  engine of a run;
* :class:`EngineRunner`, which runs one engine call with the fault
  plan's action for its ordinal (:mod:`repro.reasoning.faultinject`),
  retries an engine that raises up to :data:`MAX_TASK_RETRIES` times,
  and records every injected fault, error and retry as a
  :class:`~repro.reasoning.result.FaultEvent`.

An engine that fails every attempt raises
:class:`~repro.errors.RetryExhausted`, and the portfolio turns that
into an honest UNKNOWN contribution.  Soundness stays structural:
TRUE and FALSE ride on certificates, so a fault can only demote an
answer to UNKNOWN, never flip it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import RetryExhausted
from repro.reasoning.faultinject import FaultPlan, fire
from repro.reasoning.result import FaultEvent, FaultReport

#: Retries of an engine that raised, before it forfeits.
MAX_TASK_RETRIES = 2


@dataclass(frozen=True)
class Budget:
    """A wall-clock budget shared by every engine of a portfolio run.

    ``deadline`` is absolute on the ``time.monotonic()`` clock;
    ``None`` means unlimited.  Monotonic time is immune to NTP steps
    and wall-clock jumps, so a deadline can neither silently expire
    nor silently extend.
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


class EngineRunner:
    """Runs a portfolio's engine calls in this thread, in order.

    Each call takes the next ordinal of ``plan``; an injected action
    fires on the call's first attempt only, modelling a transient
    fault.  An attempt that raises is retried, up to
    :data:`MAX_TASK_RETRIES` times.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self.ordinal = 0
        self.events: list[FaultEvent] = []
        self.retries = 0

    def run(self, engine: str, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)``, or :class:`RetryExhausted` once every attempt
        raised."""
        action = self.plan.action_for(self.ordinal)
        self.ordinal += 1
        if action.fires:
            self._record("injected", engine, detail=action.describe())
        attempt = 0
        while True:
            attempt += 1
            try:
                if attempt == 1:
                    fire(action)
                return fn(*args)
            except Exception as exc:  # noqa: BLE001 - typed at the boundary
                detail = f"{type(exc).__name__}: {exc}"
                self._record("task-error", engine, attempt, detail)
                if attempt > MAX_TASK_RETRIES:
                    self._record("retry-exhausted", engine, attempt, detail)
                    raise RetryExhausted(
                        f"task {engine!r} failed every attempt "
                        f"({attempt}): {exc}"
                    ) from exc
                self.retries += 1
                self._record("task-retry", engine, attempt)

    def _record(
        self, kind: str, engine: str, attempt: int = 0, detail: str = ""
    ) -> None:
        self.events.append(FaultEvent(kind, engine, attempt, detail[:200]))

    def fault_report(self, answered_by: str = "") -> FaultReport:
        """The run's fault record, for ``ImplicationResult.faults``."""
        return FaultReport(
            events=tuple(self.events),
            retries=self.retries,
            answered_by=answered_by,
        )


# ---------------------------------------------------------------------------
# Shims for perfbench v1, which imports both; benchmark v2 deletes them.
# ---------------------------------------------------------------------------


def retire_warm_pool() -> None:
    """Does nothing: there is no process pool to retire."""


def warm_pool_pids() -> tuple[int, ...]:
    """Always empty: no solve starts a worker process."""
    return ()
