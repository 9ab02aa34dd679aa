"""Direct evaluation of ``G |= phi`` (Definition 2.1 semantics).

For a forward constraint ``alpha :: beta => gamma``: for every node
``x`` with ``alpha(r, x)`` and every ``y`` with ``beta(x, y)``, check
``gamma(x, y)``; backward constraints check ``gamma(y, x)``.  The
evaluation is a few breadth-first path images — linear in the touched
edges per witness set — and returns the violating pairs, which the
chase consumes as repair obligations.

Every image is evaluated on the graph when it is read, with no memo:
the chase and the incremental checker mutate the graph between almost
every two reads, so stored images would mostly be read once.  Backward
conclusions are evaluated as *one* backward image
``{ y : gamma(y, x) }`` per witness ``x`` instead of a forward probe
per pair.

:func:`conclusion_holds` is the single-pair probe the delta-driven
consumers (the chase's worklists, the incremental checker) use: it
reads one image from ``y``'s side instead of one from ``x``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.ast import PathConstraint
from repro.graph.structure import Graph, Node


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking one constraint on one graph.

    ``witnesses`` counts the (x, y) pairs the hypothesis produced;
    ``violating_pairs`` lists those that fail the conclusion.
    """

    constraint: PathConstraint
    holds: bool
    witnesses: int
    violating_pairs: tuple[tuple[Node, Node], ...]

    def __bool__(self) -> bool:
        return self.holds


def _conclusion_image(
    graph: Graph, constraint: PathConstraint, x: Node
) -> frozenset:
    """The set of ``y`` satisfying the conclusion at witness ``x``.

    Forward: ``{ y : gamma(x, y) }`` (one forward image).  Backward:
    ``{ y : gamma(y, x) }`` (one backward image — batched, instead of
    a ``satisfies_path`` probe per hypothesis pair).
    """
    if constraint.is_forward():
        return graph.eval_path(constraint.rhs, start=x)
    return graph.eval_path_backward(constraint.rhs, x)


def conclusion_holds(
    graph: Graph,
    constraint: PathConstraint,
    x: Node,
    y: Node,
) -> bool:
    """Does the witness pair ``(x, y)`` satisfy the conclusion?

    Answered from ``y``'s side: forward ``gamma(x, y)`` looks for ``x``
    in the backward image ``{ x' : gamma(x', y) }``, backward
    ``gamma(y, x)`` in the forward image of ``y``.  A witness ``x`` is
    often the root or a prefix node whose fan-out grows with every
    repair, while ``y`` sits at the end of a hypothesis path, so the
    image from ``y`` stays small where the one from ``x`` does not.
    """
    if constraint.is_forward():
        return x in graph.eval_path_backward(constraint.rhs, y)
    return x in graph.eval_path(constraint.rhs, start=y)


def violations(
    graph: Graph, constraint: PathConstraint, limit: int | None = None
) -> list[tuple[Node, Node]]:
    """The (x, y) pairs violating the constraint (up to ``limit``)."""
    out: list[tuple[Node, Node]] = []
    for x in graph.eval_path(constraint.prefix):
        hypothesis_nodes = graph.eval_path(constraint.lhs, start=x)
        if not hypothesis_nodes:
            continue
        conclusion_nodes = _conclusion_image(graph, constraint, x)
        for y in hypothesis_nodes:
            if y not in conclusion_nodes:
                out.append((x, y))
                if limit is not None and len(out) >= limit:
                    return out
    return out


def check(graph: Graph, constraint: PathConstraint) -> CheckResult:
    """Full check with witness accounting, in a single pass: the
    witness count and the violating pairs come from the same traversal
    (images are evaluated once per witness, not twice).

    >>> from repro.graph import figure1_graph
    >>> from repro.constraints import parse_constraint
    >>> g = figure1_graph()
    >>> check(g, parse_constraint("book.author => person")).holds
    True
    """
    witnesses = 0
    bad: list[tuple[Node, Node]] = []
    for x in graph.eval_path(constraint.prefix):
        hypothesis_nodes = graph.eval_path(constraint.lhs, start=x)
        if not hypothesis_nodes:
            continue
        witnesses += len(hypothesis_nodes)
        conclusion_nodes = _conclusion_image(graph, constraint, x)
        bad.extend((x, y) for y in hypothesis_nodes if y not in conclusion_nodes)
    return CheckResult(
        constraint=constraint,
        holds=not bad,
        witnesses=witnesses,
        violating_pairs=tuple(bad),
    )
