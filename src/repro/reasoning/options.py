"""How a solve runs: one frozen value from every entry point to the race.

The CLI, the daemon, the query layer and the fuzz harness each build
one :class:`SolveOptions` and pass it unchanged through ``solve()``
and ``run_portfolio()``; the ``jobs`` cap, the deadline (a solve's
only stop signal) and the cache stay per-call arguments.  Building a
value costs a few µs, a noticeable share of a fast portfolio solve, so
callers without settings share :data:`DEFAULT_SOLVE_OPTIONS`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reasoning.chase import DEFAULT_CHASE_STEPS
from repro.reasoning.costmodel import ExecMode
from repro.reasoning.faultinject import FaultPlan

__all__ = ["DEFAULT_SOLVE_OPTIONS", "SolveOptions"]

#: ``execution``: the cost model's dispatch rule, or a pinned mode.
_EXECUTIONS = ("auto", "inline", "pool")


@dataclass(frozen=True)
class SolveOptions:
    """The settings that say how a solve runs, validated when built.

    ``allow_semidecision`` lets undecidable cells run the portfolio
    instead of raising :class:`~repro.errors.UndecidableProblemError`.
    ``chase_steps`` bounds the chase, ``countermodel_nodes`` the
    untyped counter-model scan and ``typed_search_limit`` the typed
    one; ``with_proof`` asks decidable routes for an I_r certificate.
    ``inject`` is a deterministic fault plan (None: the
    ``$REPRO_INJECT`` spec, usually empty; a plan also bypasses cache
    lookups); ``execution`` pins ``"inline"`` or ``"pool"`` instead of
    the ``"auto"`` rule — pinning the pool is how the fault-injection
    suite keeps real worker processes on workloads the rule would run
    inline.  Pool respawns are not a setting: see
    :data:`repro.reasoning.runtime.MAX_RESPAWNS`.  Memory is not a
    setting either: an ``RLIMIT_AS`` set on this process (``ulimit -v``)
    is inherited by every pool worker, and ``"inline"`` keeps a solve
    in-process.
    """

    allow_semidecision: bool = True
    chase_steps: int = DEFAULT_CHASE_STEPS
    countermodel_nodes: int = 3
    typed_search_limit: int = 2_000
    with_proof: bool = False
    inject: FaultPlan | None = None
    execution: str = "auto"

    def __post_init__(self) -> None:
        if self.execution not in _EXECUTIONS:
            raise ValueError(
                f"execution must be 'auto', 'inline' or 'pool', "
                f"got {self.execution!r}"
            )

    @property
    def forced_mode(self) -> ExecMode | None:
        """``execution`` as :func:`~repro.reasoning.costmodel
        .choose_execution`'s ``forced`` (None: the dispatch rule)."""
        return None if self.execution == "auto" else ExecMode(self.execution)


#: The shared default, used wherever a caller passes no options.
DEFAULT_SOLVE_OPTIONS = SolveOptions()
