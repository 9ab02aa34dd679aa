"""Incremental integrity checking under edge insertions.

The validation engine of :mod:`repro.checking.engine` re-evaluates
every constraint from scratch; for the paper's motivating workload —
a database maintaining its integrity constraints while documents are
added — that is wasteful, because a new edge can only affect
constraints whose paths *mention its label*, and only through witness
pairs that *pass through* the edge.

:class:`IncrementalChecker` wraps a graph and a constraint set,
maintains the current violation set, and updates it after each
``add_edge`` by re-evaluating just the affected constraints, seeded
from the endpoints of the new edge:

* for a constraint ``alpha :: beta => gamma`` and a new edge
  ``l(u, v)``, new violations can only arise for prefix witnesses
  ``x`` that reach ``u`` (so the new edge extends an ``alpha`` or
  ``beta`` path) — found by evaluating the relevant path *suffixes*
  backward from ``u``;
* existing violations can only be *repaired* by the new edge if the
  conclusion path uses its label, so repaired pairs are rechecked
  directly.

The result is equivalent to full re-validation (asserted exhaustively
in the test suite) while touching a small neighbourhood per insert.

Each pair is re-checked with
:func:`~repro.checking.satisfaction.conclusion_holds`, which reads one
image from ``y``'s side.  :func:`pairs_through_edge` (the delta rule)
and that probe also drive the chase's repair worklists
(:mod:`repro.reasoning.chase`).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

from repro.checking.satisfaction import conclusion_holds, violations
from repro.constraints.ast import PathConstraint
from repro.graph.structure import Graph, Node
from repro.paths import Path


def pairs_through_edge(
    graph: Graph, constraint: PathConstraint, src: Node, dst: Node, label: str
) -> set[tuple[Node, Node]]:
    """Witness pairs (x, y) whose alpha- or beta-path can traverse the
    new edge ``label(src, dst)``.

    For each occurrence of the label at position i of beta, x must
    reach ``src`` backwards through ``beta[:i]`` (and forwards be a
    prefix witness), and y lies in ``eval(beta[i+1:], dst)``.  For each
    occurrence at position i of alpha, the *new* prefix witnesses are
    ``eval(alpha[i+1:], dst)`` (the prefix is root-anchored, so only
    edges on a root-to-x alpha-path create new x values); for those x
    every beta-image y must be examined — they are genuinely new
    hypothesis witnesses.
    """
    pairs: set[tuple[Node, Node]] = set()
    for before, after in _cuts(constraint.lhs, label):
        xs = graph.eval_path_backward(before, src)
        if xs:
            xs &= graph.eval_path(constraint.prefix)
        if not xs:
            continue
        ys = graph.eval_path(after, start=dst)
        pairs.update((x, y) for x in xs for y in ys)
    for before, after in _cuts(constraint.prefix, label):
        # Is src actually reachable as an alpha[:i] node?  If not the
        # new edge cannot extend a prefix path.
        if src not in graph.eval_path(before):
            continue
        for x in graph.eval_path(after, start=dst):
            for y in graph.eval_path(constraint.lhs, start=x):
                pairs.add((x, y))
    return pairs


@functools.lru_cache(maxsize=1024)
def _cuts(path: Path, label: str) -> tuple[tuple[Path, Path], ...]:
    """``(path[:i], path[i+1:])`` for each position i where ``path``
    reads ``label``.  Memoized: building a :class:`Path` validates
    every label, which would otherwise dominate a small delta."""
    return tuple(
        (path[:i], path[i + 1 :])
        for i, at in enumerate(path.labels)
        if at == label
    )


class IncrementalChecker:
    """Maintains the violation set of (graph, constraints) under
    ``add_edge``.

    >>> from repro.constraints import parse_constraints
    >>> g = Graph(root="r")
    >>> checker = IncrementalChecker(
    ...     g, parse_constraints("book.author => person"))
    >>> checker.ok
    True
    >>> b = g.add_edge("r", "book", "b1")
    >>> checker.notify_edge("r", "book", "b1")
    >>> checker.ok
    True
    >>> _ = g.add_edge("b1", "author", "p1")
    >>> checker.notify_edge("b1", "author", "p1")
    >>> checker.ok
    False
    >>> _ = g.add_edge("r", "person", "p1")
    >>> checker.notify_edge("r", "person", "p1")
    >>> checker.ok
    True
    """

    def __init__(
        self, graph: Graph, constraints: Iterable[PathConstraint]
    ) -> None:
        self._graph = graph
        self._constraints = tuple(constraints)
        self._by_label: dict[str, list[PathConstraint]] = {}
        for constraint in self._constraints:
            for label in constraint.alphabet():
                self._by_label.setdefault(label, []).append(constraint)
        self._violations: dict[PathConstraint, set[tuple[Node, Node]]] = {
            constraint: set(violations(graph, constraint))
            for constraint in self._constraints
        }
        self._rechecks = 0

    # -- state ----------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not any(self._violations.values())

    @property
    def constraints(self) -> tuple[PathConstraint, ...]:
        return self._constraints

    def current_violations(
        self,
    ) -> dict[PathConstraint, frozenset[tuple[Node, Node]]]:
        return {
            constraint: frozenset(pairs)
            for constraint, pairs in self._violations.items()
            if pairs
        }

    @property
    def recheck_count(self) -> int:
        """How many (constraint, witness) re-evaluations have run —
        the work metric full revalidation would dwarf."""
        return self._rechecks

    # -- updates -----------------------------------------------------------

    def add_edge(self, src: Node, label: str, dst: Node) -> None:
        """Insert the edge into the underlying graph and update."""
        self._graph.add_edge(src, label, dst)
        self.notify_edge(src, label, dst)

    def notify_edge(self, src: Node, label: str, dst: Node) -> None:
        """Update after an edge was inserted externally."""
        for constraint in self._by_label.get(label, ()):  # affected only
            self._update_constraint(constraint, src, dst, label)

    def _update_constraint(
        self, constraint: PathConstraint, src: Node, dst: Node, label: str
    ) -> None:
        graph = self._graph
        pairs = self._violations[constraint]

        # 1. Repairs: the new edge can complete conclusion paths.
        if label in constraint.rhs.alphabet() and pairs:
            for x, y in list(pairs):
                self._rechecks += 1
                if conclusion_holds(graph, constraint, x, y):
                    pairs.discard((x, y))

        # 2. New violations: only witness pairs whose alpha/beta paths
        #    can traverse the new edge.
        touched = (
            label in constraint.prefix.alphabet()
            or label in constraint.lhs.alphabet()
        )
        if not touched:
            return
        for x, y in pairs_through_edge(graph, constraint, src, dst, label):
            self._rechecks += 1
            if conclusion_holds(graph, constraint, x, y):
                pairs.discard((x, y))
            else:
                pairs.add((x, y))

    # -- verification ---------------------------------------------------------

    def revalidate(self) -> bool:
        """Recompute everything from scratch and compare (used by the
        tests to prove equivalence; also handy after bulk mutations
        made without notifications)."""
        fresh = {
            constraint: set(violations(self._graph, constraint))
            for constraint in self._constraints
        }
        matches = fresh == self._violations
        self._violations = fresh
        return matches
