"""Deterministic fault injection for the supervised solver runtime.

The fault-tolerance machinery of :mod:`repro.reasoning.runtime` is
only trustworthy if its failure paths are *exercised*, not just
written.  This module makes worker death, payload corruption, shard
delays and mid-task exceptions reproducible on demand:

* a :class:`FaultPlan` maps every *task ordinal* (the deterministic
  submission counter of a :class:`~repro.reasoning.runtime
  .WorkerSupervisor`) to a :class:`FaultAction`;
* targeted plans pin one fault to one ordinal (``kill:3``,
  ``raise:0``, ``delay:2:0.5``, ``corrupt:1``; comma-separated specs
  compose);
* rate plans (``rate:0.3`` or ``rate:0.3:seed``) draw a fault kind
  per ordinal from a seeded PRNG, for fuzzing the fault paths at
  volume;
* :func:`invoke` is the worker-side entry point — the supervisor
  submits it instead of the raw task function, so the action fires
  inside the worker process exactly where a real fault would.

Injected faults fire on a task's *first* attempt only (the supervisor
retries with ``Action.NONE``), modelling transient infrastructure
faults; the acceptance property is that no injected fault may flip a
definite verdict — retried/degraded execution either recovers the
same answer or honestly degrades to UNKNOWN.

Every fault kind:

==========  ============================================================
``kill``    the worker calls ``os._exit(1)`` — the executor observes an
            abrupt worker death and breaks the pool (in-process runs
            downgrade this to a raise: killing the caller would defeat
            the degraded mode the injection is meant to test)
``raise``   :class:`~repro.errors.InjectedFault` is raised mid-task
``delay``   the task sleeps ``param`` seconds before running — long
            enough delays push a shard past the shared deadline
``corrupt`` the submitted payload carries a :class:`CorruptPayload`
            whose ``__reduce__`` raises, so pickling fails in the
            executor's feeder and the future errors without the task
            ever reaching a worker (a no-op in-process: nothing is
            pickled there)
``hang``    the task wedges — it sleeps in small increments, ignoring
            deadlines and cooperative cancellation, forever
            (``hang:ORD``) or for ``param`` seconds (``hang:ORD:SECS``)
            before running; this models the undecidability-induced
            non-returning solve the watchdog layer exists for
``oom``     the task raises :class:`MemoryError`, exactly what a worker
            whose ``RLIMIT_AS`` ceiling is hit observes — exercising
            the OOM → :class:`~repro.errors.WorkerCrashError` mapping
==========  ============================================================

Rate plans (``rate:R``) draw only from the original four transient
kinds; ``hang``/``oom`` fire only when targeted explicitly, because a
randomly drawn infinite hang would wedge an entire fuzz sweep rather
than test anything.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import ClassVar, Self

from repro.errors import InjectedFault

#: Environment variable consulted by :func:`plan_from_env`; holds a
#: spec string in the :meth:`FaultPlan.from_spec` syntax.
ENV_VAR = "REPRO_INJECT"

#: Golden-ratio multiplier decorrelating per-ordinal PRNG streams.
SEED_STRIDE = 0x9E3779B1


@dataclass(frozen=True)
class FaultAction:
    """What (if anything) to do to one task attempt."""

    kind: str = "none"
    param: float = 0.0

    @property
    def fires(self) -> bool:
        return self.kind != "none"

    def describe(self) -> str:
        if self.kind == "delay":
            return f"delay:{self.param}"
        return self.kind


#: The shared no-op action.
NO_FAULT = FaultAction()


@dataclass(frozen=True)
class OrdinalPlan:
    """A deterministic map from ordinal to fault action.

    The grammar: comma-separated clauses, each targeted
    (``KIND:ORDINAL[:PARAM]``) or a rate clause (``rate:R[:SEED]``)
    drawing a kind per ordinal from a seeded PRNG.  Subclasses name
    their kinds: :attr:`KINDS` maps each to the numbers of ``PARAM``
    fields a targeted clause may carry, :attr:`RATE_KINDS` is what a
    rate clause draws from, and :attr:`RATE_DELAY` the ``param`` of a
    drawn ``delay``.
    """

    spec: str = ""
    targeted: tuple[tuple[int, FaultAction], ...] = ()
    rate: float = 0.0
    seed: int = 0

    KINDS: ClassVar[dict[str, tuple[int, ...]]] = {}
    RATE_KINDS: ClassVar[tuple[str, ...]] = ()
    RATE_DELAY: ClassVar[float] = 0.0

    @classmethod
    def from_spec(cls, spec: str) -> Self:
        """Parse ``kill:3,delay:2:0.5,...`` or ``rate:0.3[:seed]``.

        Raises :class:`ValueError` on malformed specs — injection is a
        testing instrument; silently ignoring a typo would mean
        silently not testing what the caller asked for.
        """
        spec = spec.strip()
        targeted: list[tuple[int, FaultAction]] = []
        rate = 0.0
        seed = 0
        for clause in spec.split(",") if spec else ():
            kind, *args = (f.strip() for f in clause.split(":"))
            if kind == "rate":
                if len(args) not in (1, 2):
                    raise ValueError(
                        f"bad rate spec {clause!r}: expected rate:R[:SEED]"
                    )
                rate = float(args[0])
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(f"inject rate {rate} outside [0, 1]")
                seed = int(args[1]) if len(args) == 2 else 0
                continue
            if kind not in cls.KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; "
                    f"have {(*cls.KINDS, 'rate')}"
                )
            if not args or len(args) - 1 not in cls.KINDS[kind]:
                raise ValueError(
                    f"bad {kind} spec {clause!r}: the ordinal is "
                    f"followed by {' or '.join(map(str, cls.KINDS[kind]))} "
                    "parameter(s)"
                )
            param = float(args[1]) if len(args) == 2 else 0.0
            targeted.append((int(args[0]), FaultAction(kind, param)))
        return cls(spec=spec, targeted=tuple(targeted), rate=rate, seed=seed)

    @classmethod
    def at_rate(cls, rate: float, seed: int = 0) -> Self:
        """A pure rate plan (the ``repro fuzz --inject-rate`` mode)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"inject rate {rate} outside [0, 1]")
        return cls(spec=f"rate:{rate}:{seed}", rate=rate, seed=seed)

    @property
    def active(self) -> bool:
        return bool(self.targeted) or self.rate > 0.0

    def action_for(self, ordinal: int) -> FaultAction:
        """The (deterministic) action for ``ordinal``."""
        for target, action in self.targeted:
            if target == ordinal:
                return action
        if self.rate > 0.0:
            rng = random.Random(self.seed * SEED_STRIDE + ordinal)
            if rng.random() < self.rate:
                kind = rng.choice(self.RATE_KINDS)
                return FaultAction(
                    kind, self.RATE_DELAY if kind == "delay" else 0.0
                )
        return NO_FAULT

    def describe(self) -> str:
        return self.spec or "none"


class FaultPlan(OrdinalPlan):
    """The solver's plan: task ordinal to fault action.

    Immutable and picklable — but note the plan is consulted in the
    *submitting* process (the supervisor), never in workers, so the
    injection decision for a task is fixed before the task crosses
    the process boundary.  ``delay`` takes its seconds, ``hang``
    optionally; rate plans draw neither ``hang`` (it would wedge whole
    sweeps) nor ``oom`` (targeted ceiling tests only).
    """

    KINDS = {
        "kill": (0,),
        "raise": (0,),
        "delay": (1,),
        "corrupt": (0,),
        "hang": (0, 1),
        "oom": (0,),
    }
    RATE_KINDS = ("kill", "raise", "delay", "corrupt")
    RATE_DELAY = 0.02


def plan_from_env() -> FaultPlan:
    """The ambient plan from ``$REPRO_INJECT`` (empty plan if unset)."""
    return FaultPlan.from_spec(os.environ.get(ENV_VAR, ""))


class CorruptPayload:
    """An object that cannot cross a process boundary.

    ``__reduce__`` raising makes the executor's pickling of the work
    item fail, which is exactly how a genuinely unpicklable result of
    refactoring (or a corrupted shared buffer) presents: the future
    errors, no worker ever runs the task.
    """

    def __reduce__(self):
        raise InjectedFault("injected pickle corruption")


def invoke(action_kind: str, param: float, in_process: bool, fn, args,
           _poison: object = None):
    """Run ``fn(*args)`` after firing the injected action, if any.

    The supervisor submits *this* function (with the raw task function
    and argument tuple as data) so that ``kill``/``raise``/``delay``
    fire inside the worker process.  ``_poison`` carries the
    :class:`CorruptPayload` for ``corrupt`` actions; it is never
    touched — its only job is to blow up in the pickler.
    """
    if action_kind == "kill":
        if in_process:
            raise InjectedFault(
                "injected worker kill (downgraded to a raise in-process)"
            )
        os._exit(1)
    elif action_kind == "raise":
        raise InjectedFault("injected mid-task fault")
    elif action_kind == "delay":
        time.sleep(param)
    elif action_kind == "hang":
        # Sleep in small increments so a *bounded* hang wakes up on
        # time, but never consult any deadline or cancel flag: a hang
        # is precisely a task that stopped cooperating.
        end = None if param <= 0 else time.monotonic() + param
        while end is None or time.monotonic() < end:
            time.sleep(0.05)
    elif action_kind == "oom":
        raise MemoryError("injected worker memory-ceiling hit")
    return fn(*args)
