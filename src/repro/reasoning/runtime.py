"""The shared deadline of a portfolio run.

The semi-decision portfolio (:mod:`repro.reasoning.portfolio`) runs its
engines one after the other in the calling thread, each once; they
share one :class:`Budget`, an absolute ``time.monotonic()`` deadline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


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


# ---------------------------------------------------------------------------
# Shims for perfbench v1, which imports both; benchmark v2 deletes them.
# ---------------------------------------------------------------------------


def retire_warm_pool() -> None:
    """Does nothing: there is no process pool to retire."""


def warm_pool_pids() -> tuple[int, ...]:
    """Always empty: no solve starts a worker process."""
    return ()
