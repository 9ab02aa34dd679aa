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


#: Names served on first use: both modules import the reasoning layer,
#: which evaluating a query does not need.
_LAZY = {
    "ContainmentResult": "repro.query.containment",
    "QueryContainmentChecker": "repro.query.containment",
    "OptimizationReport": "repro.query.optimizer",
    "RPQOptimizationReport": "repro.query.optimizer",
    "WordQueryOptimizer": "repro.query.optimizer",
    "evaluate_rpq_union": "repro.query.optimizer",
    "optimize_rpq_union": "repro.query.optimizer",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module 'repro.query' has no attribute {name!r}")
