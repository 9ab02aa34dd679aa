"""Regular path constraints — the [AV97] comparison language.

Section 1 contrasts P_c with the constraint language of [AV97], "in
which paths are represented by regular expressions": a constraint
``L1 => L2`` asserts that every node reachable from the root by a word
in ``L1`` is reachable by a word in ``L2``.  That language allows more
general path expressions than P_c but cannot capture inverse or
local-database constraints; the paper studies P_c instead and proves
nothing new about the regular language, so this module provides the
*model-checking* side only (satisfaction with witnesses), which the
query engine and validation workflows use — plus containment utilities
on the expression level.

Checking ``G |= (L1 => L2)`` runs two automaton–graph products: the
set of L1-reachable nodes must be contained in the set of
L2-reachable nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.regex import compile_regex
from repro.graph.structure import Graph, Node


@dataclass(frozen=True)
class RegularConstraint:
    """``forall x (L1(r, x) -> L2(r, x))`` with regular L1, L2.

    >>> from repro.graph import figure1_graph
    >>> c = RegularConstraint.parse("book.(ref)*.author => person")
    >>> c.check(figure1_graph()).holds
    True
    """

    lhs: str
    rhs: str

    @classmethod
    def parse(cls, text: str) -> "RegularConstraint":
        if "=>" not in text:
            raise ValueError(f"no '=>' in regular constraint {text!r}")
        lhs, _, rhs = text.partition("=>")
        return cls(lhs.strip(), rhs.strip())

    def check(self, graph: Graph) -> "RegularCheckResult":
        """Evaluate both sides by automaton-graph product and compare."""
        from repro.query.rpq import evaluate_rpq

        lhs_result = evaluate_rpq(graph, self.lhs)
        rhs_result = evaluate_rpq(graph, self.rhs)
        bad = lhs_result.answers - rhs_result.answers
        return RegularCheckResult(
            constraint=self,
            holds=not bad,
            lhs_nodes=lhs_result.answers,
            rhs_nodes=rhs_result.answers,
            violating_nodes=frozenset(bad),
        )

    def language_containment(self, alphabet: set[str]) -> bool:
        """Syntactic sufficient condition: ``L1 subseteq L2`` as
        languages (then the constraint holds on *every* graph).

        The converse fails — containment of reachable sets is weaker —
        which is exactly why these constraints carry information.
        """
        return (
            compile_regex(self.lhs, alphabet).subset_witness(
                compile_regex(self.rhs, alphabet), extra_alphabet=alphabet
            )
            is None
        )

    def __str__(self) -> str:
        return f"{self.lhs} => {self.rhs}"


@dataclass(frozen=True)
class RegularCheckResult:
    """Outcome of checking one regular constraint on one graph."""

    constraint: RegularConstraint
    holds: bool
    lhs_nodes: frozenset[Node]
    rhs_nodes: frozenset[Node]
    violating_nodes: frozenset[Node]

    def __bool__(self) -> bool:
        return self.holds


def check_regular(graph: Graph, text: str) -> RegularCheckResult:
    """One-shot parse + check."""
    return RegularConstraint.parse(text).check(graph)
