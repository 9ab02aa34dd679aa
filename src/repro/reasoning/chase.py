"""A chase for P_c constraints, and chase-based semi-decision.

P_c constraints are tuple-generating dependencies over binary
relations (with an equality-generating special case when the
conclusion path is empty), so the classic chase applies:

* **repair** — while some constraint has a violating witness pair
  ``(x, y)``, add a fresh conclusion path (last edge landing on the
  required node), or merge the two nodes when the conclusion is the
  empty path;
* **implication** — chase the canonical tableau of ``not phi`` (the
  prefix path to ``x`` and the hypothesis path to ``y``) with Sigma.
  If the conclusion holds at any finite stage, Sigma implies phi (the
  chased tableau maps homomorphically into every model of Sigma, and
  the conclusion is positive-existential).  If a fixpoint is reached
  without it, the fixpoint is a *finite* counter-model, refuting both
  implication and finite implication.  Otherwise: UNKNOWN — inevitable
  budget honesty, since untyped P_c implication is undecidable
  (Theorem 4.1).

Because TRUE is final at any stage, :func:`chase_implication` checks
phi's conclusion on the tableau's ``x`` and ``y`` (resolved through
merges) before the first repair and after each one, and stops as soon
as it holds.

Repairs are driven by new edges.  A premise's first turn scans it with
:func:`~repro.checking.satisfaction.violations`, and the violating
pairs seed its worklist.  From then on only the edges a repair adds
feed the worklists, through the delta rule
:func:`~repro.checking.incremental.pairs_through_edge`: adding edges
never breaks a conclusion, so every new violation runs through a new
edge.  Each popped candidate is re-checked with the single-pair probe
:func:`~repro.checking.satisfaction.conclusion_holds` before it is
repaired.  A merge renames the nodes under queued pairs, so it falls
back to full scans.  A fixpoint (and with it a FALSE) is claimed only
after a full ``violations()`` pass over Sigma finds nothing.

Repairs go premise by premise, in Sigma's order: each premise is
repaired until it has no violation, then the next, and passes repeat
until one repairs nothing.  The order is unfair — a premise whose
repairs diverge starves the premises after it, so such an instance
stays UNKNOWN at any budget even where a later premise would force
the conclusion.  It is kept because verdicts at a fixed budget depend
on it: a fair (round-robin) order turns some of those UNKNOWNs into
TRUE, which is a change of results, not of speed.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.checking.incremental import pairs_through_edge
from repro.checking.satisfaction import conclusion_holds, violations
from repro.constraints.ast import PathConstraint
from repro.graph.structure import Graph, Node
from repro.paths import Path
from repro.reasoning.result import ImplicationResult
from repro.truth import Trilean

DEFAULT_CHASE_STEPS = 2_000


@dataclass
class ChaseOutcome:
    """Result of running the chase on a graph."""

    graph: Graph
    fixpoint: bool
    steps: int
    merges: int
    node_map: dict[Node, Node]

    def resolve(self, node: Node) -> Node:
        """Where a pre-chase node ended up (merges may have moved it)."""
        while node in self.node_map and self.node_map[node] != node:
            node = self.node_map[node]
        return node


def chase(
    graph: Graph,
    sigma: Iterable[PathConstraint],
    max_steps: int = DEFAULT_CHASE_STEPS,
    deadline: float | None = None,
) -> ChaseOutcome:
    """Chase a copy of ``graph`` with Sigma until fixpoint or budget.

    Returns the chased graph; ``fixpoint`` is True when no constraint
    has a remaining violation (so the result models Sigma).
    ``deadline`` is an absolute ``time.monotonic()`` value (the portfolio's
    shared budget); expiry behaves like step-budget exhaustion — the
    chase stops early and the fixpoint recheck runs for real.
    """
    return _chase(graph, sigma, max_steps, deadline)


def _chase(
    graph: Graph,
    sigma: Iterable[PathConstraint],
    max_steps: int,
    deadline: float | None,
    goal: "Callable[[ChaseOutcome], bool] | None" = None,
) -> ChaseOutcome:
    """The repair loop behind :func:`chase`.

    ``goal`` is polled on the outcome before the first repair and after
    each one; the chase stops as soon as it holds, with ``fixpoint``
    False (no fixpoint pass ran).
    """
    sigma = list(sigma)
    # copy() carries the fresh-node watermark forward, so repair paths
    # added below can never resurrect a node id that merge_nodes()
    # deleted — node_map entries only ever refer to dead ids.
    work = graph.copy()
    outcome = ChaseOutcome(
        graph=work, fixpoint=False, steps=0, merges=0, node_map={}
    )
    if goal is not None and goal(outcome):
        return outcome

    def out_of_budget() -> bool:
        if outcome.steps >= max_steps:
            return True
        return deadline is not None and time.monotonic() > deadline

    # Per premise, the candidate pairs that may violate it: every
    # violating pair is queued.  None means the premise's next turn
    # starts with a full violations() scan (its first turn, after a
    # merge, and in the closing fixpoint pass), so new edges need not
    # feed it.
    worklists: list[deque | None] = [None] * len(sigma)

    clean_pass = False
    while not out_of_budget():
        progress = False
        scanned_all = True
        for index, constraint in enumerate(sigma):
            if out_of_budget():
                break
            pending = worklists[index]
            if pending is None:
                pending = deque(violations(work, constraint))
                worklists[index] = pending
            else:
                scanned_all = False
            while pending and not out_of_budget():
                x, y = pending.popleft()
                if conclusion_holds(work, constraint, x, y):
                    continue
                outcome.steps += 1
                progress = True
                if constraint.rhs.is_empty():
                    # Equality-generating: the conclusion "epsilon(x,y)"
                    # (forward) or "epsilon(y,x)" (backward) forces x=y.
                    # A merge renames nodes under every queued pair, so
                    # all premises fall back to a full scan.
                    keep, remove = (x, y) if y != work.root else (y, x)
                    work.merge_nodes(keep, remove)
                    outcome.node_map[remove] = keep
                    outcome.merges += 1
                    worklists[:] = [None] * len(sigma)
                    pending = deque(violations(work, constraint))
                    worklists[index] = pending
                else:
                    src, dst = (x, y) if constraint.is_forward() else (y, x)
                    added = _add_path(work, src, constraint.rhs, dst)
                    _feed(work, sigma, worklists, added)
                if goal is not None and goal(outcome):
                    return outcome
        if not progress:
            if scanned_all:
                # A full violations() pass over Sigma found nothing.
                clean_pass = True
                break
            # The worklists ran dry; confirm with one full pass rather
            # than trust the delta rule for a fixpoint claim.
            worklists[:] = [None] * len(sigma)

    # On a budget exit the recheck runs for real.
    outcome.fixpoint = clean_pass or all(
        not violations(work, c, limit=1) for c in sigma
    )
    return outcome


def _add_path(
    graph: Graph, src: Node, path: Path, dst: Node
) -> list[tuple[Node, str, Node]]:
    """Add a fresh ``path`` from ``src`` whose last edge lands on
    ``dst`` (as :meth:`Graph.add_path`); return the new edges."""
    edges = []
    current = src
    for label in path.labels[:-1]:
        nxt = graph.fresh_node()
        graph.add_edge(current, label, nxt)
        edges.append((current, label, nxt))
        current = nxt
    graph.add_edge(current, path.last(), dst)
    edges.append((current, path.last(), dst))
    return edges


def _feed(
    graph: Graph,
    sigma: list[PathConstraint],
    worklists: "list[deque | None]",
    edges: list[tuple[Node, str, Node]],
) -> None:
    """Queue the witness pairs the new ``edges`` create.

    Edges only ever add witnesses and conclusion paths, so a pair that
    holds stays holding and every new violation runs through a new
    edge: the delta rule of :mod:`repro.checking.incremental` finds
    them all.
    """
    for constraint, pending in zip(sigma, worklists):
        if pending is None:
            continue
        lhs, prefix = constraint.lhs.labels, constraint.prefix.labels
        for src, label, dst in edges:
            if label in lhs or label in prefix:
                pending.extend(
                    pairs_through_edge(graph, constraint, src, dst, label)
                )


def tableau_for(phi: PathConstraint) -> tuple[Graph, Node, Node]:
    """The canonical tableau of ``not phi``.

    A fresh path spelling ``pf(phi)`` from the root to ``x`` and a
    fresh path spelling ``phi.lhs`` from ``x`` to ``y``; the constraint
    fails on (x, y) unless the conclusion is forced.
    """
    graph = Graph(root="r")
    x = graph.add_path("r", phi.prefix) if not phi.prefix.is_empty() else "r"
    if phi.lhs.is_empty():
        y = x
    else:
        y = graph.add_path(x, phi.lhs)
    return graph, x, y


def chase_implication(
    sigma: Iterable[PathConstraint],
    phi: PathConstraint,
    max_steps: int = DEFAULT_CHASE_STEPS,
    deadline: float | None = None,
) -> ImplicationResult:
    """Sound three-valued implication test for untyped P_c.

    >>> from repro.constraints import parse_constraints, parse_constraint
    >>> sigma = parse_constraints("a => b")
    >>> chase_implication(sigma, parse_constraint("a.c => b.c")).answer
    <Trilean.TRUE: 'true'>
    >>> result = chase_implication(sigma, parse_constraint("b => a"))
    >>> result.answer
    <Trilean.FALSE: 'false'>
    >>> result.countermodel is not None
    True
    """
    tableau, x, y = tableau_for(phi)

    def concluded(outcome: ChaseOutcome) -> bool:
        return conclusion_holds(
            outcome.graph, phi, outcome.resolve(x), outcome.resolve(y)
        )

    outcome = _chase(tableau, sigma, max_steps, deadline, goal=concluded)
    chased = outcome.graph

    if concluded(outcome):
        return ImplicationResult(
            answer=Trilean.TRUE,
            method="chase",
            decidable=False,
            certificate=outcome,
            notes=(
                "conclusion forced on the canonical tableau; holds for "
                "implication and finite implication",
            ),
        )
    if outcome.fixpoint:
        return ImplicationResult(
            answer=Trilean.FALSE,
            method="chase",
            decidable=False,
            countermodel=chased,
            certificate=outcome,
            notes=(
                "chase fixpoint is a finite model of Sigma violating phi",
            ),
        )
    if outcome.steps < max_steps:
        note = f"deadline stopped the chase after {outcome.steps} steps"
    else:
        note = f"chase budget of {max_steps} steps exhausted"
    return ImplicationResult(
        answer=Trilean.UNKNOWN,
        method="chase",
        decidable=False,
        certificate=outcome,
        notes=(note,),
    )
