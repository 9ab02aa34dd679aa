"""Execution dispatch for the portfolio's counter-model searches.

The process-pool portfolio of PR 2 could *lose* to the sequential
pipeline: on a small instance, cold pool spawn plus per-shard pickling
dominates the scan itself (measured on the bench instance:
``jobs=1`` 0.21s vs ``jobs=2`` 0.41s on one CPU).  So ``jobs`` is a
*cap*, not a command, and one rule a reader can check by hand picks
the mode (:class:`ExecMode`):

``inline``
    Every task runs in-process, one after the other.
``pool``
    The supervised, warm process pool of
    :mod:`repro.reasoning.runtime`, the chase racing the search.

**The rule.**  An untyped solve runs ``inline``: its tableau search
(:func:`repro.reasoning.models.scan_codes`) usually settles in
milliseconds, and nothing prices it before it runs.  A typed solve
pools iff ``min(jobs, available CPUs) >= 2`` and its instance limit
exceeds :data:`POOL_MIN_WORK`.  That constant is the measured
cold-pool crossover for 2 workers on the worst case for inline: the
Delta_1 encodings of Theorem 5.2 without a counter-model, where
every candidate is a distinct projection, so the typed scan screens
each of them (63k–110k instances/s on a 2-vCPU host).  Whole solves
there (median, four encodings) read inline against a cold 2-worker
pool 21 vs 29 ms at 2k instances, 43–51 vs 44–48 ms at 4k, 65 vs
60 ms at 5k, 114–127 vs 77–86 ms at 8k and 349 vs 206 ms at 32k.  A
warm pool wins from 2k on (19 ms), but a solve cannot count on one,
and holding it costs two worker processes.  Scans that share screens
run inline faster at every limit: on Example 3.1 schema probes,
inline read 5, 7 and 14 ms at 2k, 8k and 32k against 18–21 ms cold
and 6–16 ms warm.  So the default 2,000-instance scan runs inline at
any ``jobs``.  A pinned ``execution="pool"`` pools either kind.

The decision is returned as an :class:`ExecutionDecision` and recorded
on every :class:`~repro.reasoning.result.ImplicationResult`, so
benchmarks and users can audit which mode a solve used.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

__all__ = [
    "ExecMode",
    "ExecutionDecision",
    "POOL_MIN_WORK",
    "available_cpus",
    "choose_execution",
    "normalize_jobs",
    "validate_jobs",
]


class ExecMode(enum.Enum):
    """How a portfolio solve executes its counter-model search."""

    INLINE = "inline"
    POOL = "pool"


#: Typed scan size (instances) above which two or more workers are
#: used; see the module docstring for the derivation.
POOL_MIN_WORK = {"typed": 4_000}


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# jobs validation.
# ---------------------------------------------------------------------------


def validate_jobs(jobs: object) -> int | str:
    """Validate a ``jobs`` request: a positive int or ``"auto"``.

    Returns the validated value unchanged; raises a clear
    :class:`ValueError` on anything else (``0``, negatives, floats,
    bools, arbitrary strings).
    """
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            return "auto"
        raise ValueError(
            f"jobs must be a positive integer or 'auto', got {jobs!r}"
        )
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(
            f"jobs must be a positive integer or 'auto', got {jobs!r}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def normalize_jobs(jobs: object) -> int:
    """Validate and resolve ``jobs``: ``"auto"`` becomes the CPU count."""
    validated = validate_jobs(jobs)
    if validated == "auto":
        return available_cpus()
    return validated  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# The decision.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionDecision:
    """One solve's execution mode, with the numbers behind it."""

    mode: ExecMode
    #: effective worker count (1 inline).
    jobs: int
    #: instances the typed scan may have to visit (0 untyped).
    estimated_work: int
    cpus: int
    reason: str
    forced: bool = False

    def describe(self) -> str:
        parts = [f"{self.mode.value} jobs={self.jobs}"]
        if self.estimated_work:
            parts.append(f"~{self.estimated_work} work units")
        parts.append(f"{self.cpus} cpu(s)")
        if self.forced:
            parts.append("forced")
        parts.append(self.reason)
        return ", ".join(parts)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "jobs": self.jobs,
            "estimated_work": self.estimated_work,
            "cpus": self.cpus,
            "forced": self.forced,
            "reason": self.reason,
        }


def choose_execution(
    *,
    kind: str,
    work_units: int = 0,
    jobs: int,
    cpus: int | None = None,
    forced: ExecMode | None = None,
) -> ExecutionDecision:
    """Pick the execution mode for one counter-model search.

    ``kind`` is ``"untyped"`` (the tableau search) or ``"typed"`` (the
    ``U_f(Delta)`` instance stream); ``work_units`` the typed scan's
    instance limit; ``jobs`` the caller's worker *cap* (already
    resolved from ``"auto"``).  ``forced`` bypasses the rule (used by
    tests, benchmarks and the fuzz harness to pin a mode); a forced
    ``pool`` still requires ``jobs >= 2``.
    """
    if kind not in ("untyped", *POOL_MIN_WORK):
        raise ValueError(f"unknown search kind {kind!r}")
    cpus = available_cpus() if cpus is None else max(1, cpus)
    work_units = max(0, work_units)

    def decision(mode: ExecMode, eff: int, reason: str) -> ExecutionDecision:
        return ExecutionDecision(
            mode=mode,
            jobs=eff,
            estimated_work=work_units,
            cpus=cpus,
            reason=reason,
            forced=forced is not None,
        )

    if forced is not None:
        if forced is ExecMode.POOL and jobs < 2:
            raise ValueError("execution='pool' requires jobs >= 2")
        eff = jobs if forced is ExecMode.POOL else 1
        return decision(forced, eff, "mode pinned by caller")

    parallelism = min(jobs, cpus)
    if parallelism < 2:
        return decision(
            ExecMode.INLINE,
            1,
            f"no parallelism (jobs cap {jobs}, {cpus} cpu(s))"
            if jobs > 1
            else "sequential requested",
        )
    if kind == "untyped":
        return decision(ExecMode.INLINE, 1, "untyped search runs inline")
    threshold = POOL_MIN_WORK[kind]
    if work_units > threshold:
        return decision(
            ExecMode.POOL, parallelism, f"scan > {threshold} {kind} units"
        )
    return decision(
        ExecMode.INLINE, 1, f"scan <= {threshold} {kind} units"
    )
