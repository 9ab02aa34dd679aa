"""The shared result type for implication queries.

Every decider and semi-decider returns an :class:`ImplicationResult`:
a three-valued answer plus the method that produced it and whatever
certificate is available (an I_r proof, a rewrite derivation, or a
counter-model graph).  Decision procedures for decidable problems
always return a definite answer; semi-deciders may return UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.truth import Trilean

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.structure import Graph
    from repro.reasoning.axioms import IrProof
    from repro.reasoning.dispatcher import ProblemClass


@dataclass(frozen=True)
class EngineStats:
    """Per-engine accounting for a portfolio run.

    ``candidates`` means chase steps for the proof engine and examined
    candidates for the counter-model engines; ``outcome`` is the
    engine's own verdict (``true``/``false``/``unknown`` for the
    chase, ``hit``/``exhausted``/``budget`` for the searches, and
    ``failed`` for either when it raised), independent of which engine
    answered.
    """

    engine: str
    outcome: str
    candidates: int = 0
    elapsed: float = 0.0
    detail: str = ""

    def describe(self) -> str:
        parts = [f"{self.engine}: {self.outcome}"]
        parts.append(f"{self.candidates} candidates")
        parts.append(f"{self.elapsed * 1e3:.1f} ms")
        if self.detail:
            parts.append(self.detail)
        return ", ".join(parts)


@dataclass(frozen=True)
class FaultEvent:
    """One fault observed (and survived) during a solve.

    ``kind`` is a closed vocabulary: ``task-error`` (an engine raised
    and forfeited its verdict) and ``hung_solve``, which the daemon
    adds to the wire record of a solve its watchdog abandoned.
    """

    kind: str
    engine: str
    detail: str = ""

    def describe(self) -> str:
        text = f"{self.kind}@{self.engine}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass(frozen=True)
class FaultReport:
    """Everything that went wrong — and was absorbed — during a solve.

    Attached to every :class:`ImplicationResult` (empty in the common
    clean run).  ``answered_by`` names the engine whose certificate
    ultimately decided the answer (empty for UNKNOWN); it is recorded
    even on clean portfolio runs so callers can audit which engine a
    faulted run trusted.
    """

    events: tuple[FaultEvent, ...] = ()
    answered_by: str = ""

    @property
    def clean(self) -> bool:
        """True when no fault of any kind was observed."""
        return not self.events

    def describe(self) -> str:
        parts = [f"answered_by={self.answered_by}"] if self.answered_by else []
        parts.extend(event.describe() for event in self.events)
        return ", ".join(parts)

    def to_dict(self) -> dict:
        return {
            "answered_by": self.answered_by,
            "events": [
                {"kind": e.kind, "engine": e.engine, "detail": e.detail}
                for e in self.events
            ],
        }


@dataclass
class ImplicationResult:
    """Answer to "does Sigma (finitely) imply phi?" in some context.

    ``answer`` uses :class:`Trilean`; for the decidable problems of
    this library implication and finite implication coincide
    (P_w and local extent untyped, everything over M — Theorems 4.2,
    4.9, 5.1), so one answer covers both.  Semi-deciders document any
    asymmetry in ``notes``.
    """

    answer: Trilean
    method: str
    decidable: bool
    complexity: str | None = None
    proof: "IrProof | None" = None
    countermodel: "Graph | None" = None
    certificate: Any = None
    notes: tuple[str, ...] = field(default_factory=tuple)
    stats: tuple[EngineStats, ...] = field(default_factory=tuple)
    faults: FaultReport = field(default_factory=FaultReport)
    #: :data:`repro.reasoning.portfolio.INLINE_EXECUTION` on portfolio
    #: results, None elsewhere: a shim for perfbench v1, which picks out
    #: portfolio results by it.  Benchmark v2 deletes it.
    execution: Any = None
    #: How the implication cache participated in this solve
    #: (:class:`repro.reasoning.cache.CacheInfo`); None when no cache
    #: was passed to :func:`repro.reasoning.solve`.
    cache: Any = None
    #: The Table 1 fragment :func:`repro.reasoning.solve` classified
    #: the instance into; None for results built outside ``solve()``.
    problem_class: "ProblemClass | None" = None

    @property
    def implied(self) -> bool:
        """Definite yes/no; raises on UNKNOWN."""
        return self.answer.to_bool()

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError(
            "an ImplicationResult is not a boolean; use .implied or .answer"
        )

    def describe(self) -> str:
        parts = [f"answer={self.answer.value}", f"method={self.method}"]
        if self.complexity:
            parts.append(f"complexity={self.complexity}")
        if self.proof is not None:
            parts.append(f"proof={len(self.proof.lines)} lines")
        if self.countermodel is not None:
            parts.append(
                f"countermodel={self.countermodel.node_count()} nodes"
            )
        if self.cache is not None:
            parts.append(f"cache[{self.cache.describe()}]")
        for engine in self.stats:
            parts.append(f"engine[{engine.describe()}]")
        if not self.faults.clean:
            parts.append(f"faults[{self.faults.describe()}]")
        for note in self.notes:
            parts.append(f"note={note}")
        return "; ".join(parts)
