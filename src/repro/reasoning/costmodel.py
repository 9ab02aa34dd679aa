"""Execution dispatch for the portfolio's counter-model scans.

The process-pool portfolio of PR 2 could *lose* to the sequential
pipeline: on a small instance, cold pool spawn plus per-shard pickling
dominates the scan itself (measured on the bench instance:
``jobs=1`` 0.21s vs ``jobs=2`` 0.41s on one CPU).  So ``jobs`` is a
*cap*, not a command: the closed-form ``2^(L*n^2)`` size of a
:class:`~repro.reasoning.models.CodeSpace` (or the typed instance
limit) makes the scan work known before any process is spawned, and
one rule a reader can check by hand picks the mode (:class:`ExecMode`):

``inline``
    Every task runs in-process, one scan per enumeration level.
``pool``
    The supervised, warm process pool of
    :mod:`repro.reasoning.runtime`, each level cut into code ranges.

**The rule.**  ``pool`` iff ``min(jobs, available CPUs) >= 2`` and the
scan's size exceeds :data:`POOL_MIN_WORK` for its kind.  The constants
are the cold-pool crossover for 2 workers of the calibrated model this
rule replaced, at that model's default rates: a pool saves
``W / rate * f * (1 - 1/P)`` seconds and had to save more than twice
its 0.05 s cold spawn, so at ``P = 2``

* untyped (170k codes/s, ``f = 1``): ``W / 170_000 / 2 > 0.1`` →
  ``W > 34_000`` codes;
* typed (4.5k instances/s, ``f = 0.5`` because every stride shard
  re-enumerates the whole instance stream): ``W / 4_500 / 4 > 0.1`` →
  ``W > 1_800`` instances.

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
    "estimate_untyped_codes",
    "normalize_jobs",
    "validate_jobs",
    "validate_max_respawns",
]


class ExecMode(enum.Enum):
    """How a portfolio solve executes its counter-model scan."""

    INLINE = "inline"
    POOL = "pool"


#: Scan size (codes untyped, instances typed) above which two or more
#: workers are used; see the module docstring for the derivation.
POOL_MIN_WORK = {"untyped": 34_000, "typed": 1_800}

#: Estimates are capped here — beyond this any strategy is hopeless
#: anyway and exact bigint arithmetic on 2^(L*n^2) buys nothing.
_WORK_CAP = 1 << 62


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def estimate_untyped_codes(label_count: int, max_nodes: int) -> int:
    """Total codes across levels ``1..max_nodes``: sum of 2^(L*n^2).

    The closed form a solve is priced with — no
    :class:`~repro.reasoning.models.CodeSpace` (and no permutation
    tables) is built just to read its size.  Capped at ``2^62``.
    """
    if label_count < 0 or max_nodes < 0:
        raise ValueError("label_count and max_nodes must be >= 0")
    total = 0
    for n in range(1, max_nodes + 1):
        bits = label_count * n * n
        if bits >= 62:
            return _WORK_CAP
        total += 1 << bits
        if total >= _WORK_CAP:
            return _WORK_CAP
    return total


# ---------------------------------------------------------------------------
# jobs / max_respawns validation (dispatcher satellite).
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


def validate_max_respawns(max_respawns: object) -> int:
    """Validate ``max_respawns``: a non-negative int."""
    if isinstance(max_respawns, bool) or not isinstance(max_respawns, int):
        raise ValueError(
            f"max_respawns must be a non-negative integer, "
            f"got {max_respawns!r}"
        )
    if max_respawns < 0:
        raise ValueError(
            f"max_respawns must be >= 0, got {max_respawns}"
        )
    return max_respawns


# ---------------------------------------------------------------------------
# The decision.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionDecision:
    """One solve's execution mode, with the numbers behind it."""

    mode: ExecMode
    #: effective worker count (1 inline).
    jobs: int
    #: codes (untyped) or instances (typed) the scan may have to visit.
    estimated_work: int
    cpus: int
    reason: str
    forced: bool = False

    def describe(self) -> str:
        parts = [f"{self.mode.value} jobs={self.jobs}"]
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
    work_units: int,
    jobs: int,
    cpus: int | None = None,
    forced: ExecMode | None = None,
) -> ExecutionDecision:
    """Pick the execution mode for one counter-model scan.

    ``kind`` is ``"untyped"`` (canonical code scan) or ``"typed"``
    (the ``U_f(Delta)`` instance stream); ``work_units`` the size of
    the scan in that kind's units; ``jobs`` the caller's worker *cap*
    (already resolved from ``"auto"``).  ``forced`` bypasses the rule
    (used by tests and benchmarks to pin a mode); a forced ``pool``
    still requires ``jobs >= 2``.
    """
    if kind not in POOL_MIN_WORK:
        raise ValueError(f"unknown scan kind {kind!r}")
    cpus = available_cpus() if cpus is None else max(1, cpus)
    work_units = max(0, min(work_units, _WORK_CAP))

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
    threshold = POOL_MIN_WORK[kind]
    if parallelism < 2:
        return decision(
            ExecMode.INLINE,
            1,
            f"no parallelism (jobs cap {jobs}, {cpus} cpu(s))"
            if jobs > 1
            else "sequential requested",
        )
    if work_units > threshold:
        return decision(
            ExecMode.POOL, parallelism, f"scan > {threshold} {kind} units"
        )
    return decision(
        ExecMode.INLINE, 1, f"scan <= {threshold} {kind} units"
    )
