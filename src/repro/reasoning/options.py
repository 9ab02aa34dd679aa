"""How a solve runs: one frozen value from every entry point to the engines.

The CLI, the daemon, the query layer and the fuzz harness each build
one :class:`SolveOptions` and pass it unchanged through ``solve()``
and ``run_portfolio()``; the deadline (a solve's only stop signal) and
the cache stay per-call arguments.  Building a value costs a few µs, a
noticeable share of a fast portfolio solve, so callers without
settings share :data:`DEFAULT_SOLVE_OPTIONS`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reasoning.chase import DEFAULT_CHASE_STEPS

__all__ = ["DEFAULT_SOLVE_OPTIONS", "SolveOptions"]


@dataclass(frozen=True)
class SolveOptions:
    """The settings that say how a solve runs, validated when built.

    ``allow_semidecision`` lets undecidable cells run the portfolio
    instead of raising :class:`~repro.errors.UndecidableProblemError`.
    ``chase_steps`` bounds the chase, ``countermodel_nodes`` the
    untyped counter-model search and ``typed_search_limit`` (at least
    1) the typed scan; ``with_proof`` asks decidable routes for an I_r
    certificate.
    """

    allow_semidecision: bool = True
    chase_steps: int = DEFAULT_CHASE_STEPS
    countermodel_nodes: int = 3
    typed_search_limit: int = 2_000
    with_proof: bool = False

    def __post_init__(self) -> None:
        if self.typed_search_limit < 1:
            raise ValueError(
                f"typed_search_limit must be >= 1, "
                f"got {self.typed_search_limit}"
            )


#: The shared default, used wherever a caller passes no options.
DEFAULT_SOLVE_OPTIONS = SolveOptions()
