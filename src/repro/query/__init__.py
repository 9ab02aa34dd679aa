"""Regular path queries and constraint-aware optimization.

The paper motivates path-constraint implication with query
optimization (Sections 1-2): knowing that ``book.author => person``
lets an engine answer ``book.author``-shaped queries from the
``person`` extent, and implied containments let it prune union
branches.  This package provides the query side:

* :mod:`repro.query.rpq` — regular path query evaluation by
  automaton-graph product;
* :mod:`repro.query.containment` — three-valued containment of
  regular path queries under path constraints (exact on the decidable
  cells of the paper, sound-but-incomplete elsewhere);
* :mod:`repro.query.optimizer` — subsumption pruning and
  equivalent-path rewriting driven by the reasoning dispatcher, plus
  containment-checker-driven pruning of regular-pattern unions.
"""

from repro.query.containment import ContainmentResult, QueryContainmentChecker
from repro.query.optimizer import (
    OptimizationReport,
    RPQOptimizationReport,
    WordQueryOptimizer,
    evaluate_rpq_union,
    optimize_rpq_union,
)
from repro.query.rpq import (
    RPQResult,
    evaluate_nfa,
    evaluate_rpq,
    evaluate_word,
    is_word_pattern,
)

__all__ = [
    "ContainmentResult",
    "QueryContainmentChecker",
    "RPQResult",
    "evaluate_nfa",
    "evaluate_rpq",
    "evaluate_word",
    "evaluate_rpq_union",
    "is_word_pattern",
    "optimize_rpq_union",
    "RPQOptimizationReport",
    "WordQueryOptimizer",
    "OptimizationReport",
]
