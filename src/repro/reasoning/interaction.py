"""The paper's headline, as an API: compare untyped vs typed implication.

``interaction_report(sigma, phi, schema)`` answers the same implication
question in every applicable context and classifies the interaction:

* ``TYPES_HELP`` — the typed context turns an unknown/undecidable or
  negative untyped answer into a definite positive one (the Theorem
  4.2 phenomenon: M adds commutativity);
* ``TYPES_HURT`` — the untyped problem is decidable but the typed cell
  is undecidable (the Theorem 5.2 phenomenon), or the typed side can
  only abstain where the untyped side decided;
* ``NEUTRAL`` — same definite answer on both sides.

This is a convenience layer for exploration and teaching; the
underlying answers come from :func:`repro.reasoning.solve` and carry
all their certificates.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.constraints.ast import PathConstraint
from repro.reasoning.dispatcher import Context, ImplicationProblem, solve
from repro.reasoning.options import DEFAULT_SOLVE_OPTIONS, SolveOptions
from repro.reasoning.result import ImplicationResult
from repro.truth import Trilean
from repro.types.typesys import Schema


class InteractionKind(enum.Enum):
    TYPES_HELP = "types-help"
    TYPES_HURT = "types-hurt"
    NEUTRAL = "neutral"


@dataclass
class InteractionReport:
    """Side-by-side implication answers with a classification."""

    sigma: tuple[PathConstraint, ...]
    phi: PathConstraint
    untyped: ImplicationResult
    typed: ImplicationResult
    typed_context: Context
    kind: InteractionKind

    def describe(self) -> str:
        lines = [
            f"query: {self.phi}",
            f"untyped ({'decidable' if self.untyped.decidable else 'undecidable'}"
            f"{', ' + self.untyped.complexity if self.untyped.complexity else ''}): "
            f"{self.untyped.answer.value}",
            f"over {self.typed_context.value} "
            f"({'decidable' if self.typed.decidable else 'undecidable'}"
            f"{', ' + self.typed.complexity if self.typed.complexity else ''}): "
            f"{self.typed.answer.value}",
            f"interaction: {self.kind.value}",
        ]
        return "\n".join(lines)


def interaction_report(
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    schema: Schema,
    options: SolveOptions = DEFAULT_SOLVE_OPTIONS,
) -> InteractionReport:
    """Solve the instance untyped and over the schema's model, and
    classify the interaction.

    The typed context is M when the schema is an M schema, M+
    otherwise.  Both solves run under ``options``.
    """
    sigma = tuple(sigma)
    typed_context = Context.M if schema.is_m_schema() else Context.M_PLUS

    untyped = solve(
        ImplicationProblem(sigma, phi, Context.SEMISTRUCTURED), options
    )
    typed = solve(
        ImplicationProblem(sigma, phi, typed_context, schema=schema), options
    )

    # Decidability changes dominate (they are the paper's theorems);
    # answer flips within equally-decidable cells come next.
    if untyped.decidable and not typed.decidable:
        kind = InteractionKind.TYPES_HURT
    elif not untyped.decidable and typed.decidable:
        kind = InteractionKind.TYPES_HELP
    elif typed.answer is Trilean.TRUE and untyped.answer is not Trilean.TRUE:
        kind = InteractionKind.TYPES_HELP
    elif untyped.answer.is_definite and not typed.answer.is_definite:
        kind = InteractionKind.TYPES_HURT
    else:
        kind = InteractionKind.NEUTRAL
    return InteractionReport(
        sigma=sigma,
        phi=phi,
        untyped=untyped,
        typed=typed,
        typed_context=typed_context,
        kind=kind,
    )
