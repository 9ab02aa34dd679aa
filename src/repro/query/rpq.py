"""Regular path query evaluation.

A regular path query (RPQ) asks for all nodes reachable from the root
by a path whose label sequence matches a regular expression.  The
standard algorithm runs a breadth-first search over the product of the
graph with the query automaton; the cost is bounded by
``|G| x |A|`` product states, independent of how many paths match.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.automata.nfa import NFA
from repro.automata.regex import compile_regex, tokenize
from repro.graph.structure import Graph, Node
from repro.paths import Path


@dataclass(frozen=True)
class RPQResult:
    """Answer set plus evaluation statistics.

    ``edges_traversed`` counts *distinct graph edges* the product
    search crossed — each ``(node, label, target)`` edge at most once,
    however many automaton states happened to be paired with its
    source node.
    """

    pattern: str
    answers: frozenset[Node]
    product_states_visited: int
    edges_traversed: int


def is_word_pattern(pattern: str) -> bool:
    """Is ``pattern`` a plain word: only labels joined by dots?

    ``|``, ``*``, ``+``, ``?``, parentheses or the ``_`` wildcard make
    it a regular pattern, as :func:`compile_regex` reads it.  The CLI
    and the daemon both route ``optimize`` unions by this rule.

    >>> [is_word_pattern(p) for p in ("first_name", "a.b", "a+", "_")]
    [True, True, False, False]
    """
    return all(
        token.kind == "label" or token.text == "."
        for token in tokenize(pattern)
    )


def evaluate_rpq(
    graph: Graph, pattern: str, start: Node | None = None
) -> RPQResult:
    """Evaluate a regular path query from ``start`` (default: root).

    >>> from repro.graph import figure1_graph
    >>> g = figure1_graph()
    >>> sorted(evaluate_rpq(g, "book.(ref)*.author").answers)
    ['person1', 'person2']
    """
    nfa = compile_regex(pattern, alphabet=graph.labels())
    return evaluate_nfa(graph, nfa, pattern, start)


def evaluate_word(
    graph: Graph, path: Path | str, start: Node | None = None
) -> RPQResult:
    """Evaluate a plain word query (single path) with the same stats."""
    path = Path.coerce(path)
    nfa = NFA.for_word(path.labels)
    return evaluate_nfa(graph, nfa, str(path), start)


def evaluate_nfa(
    graph: Graph, nfa: NFA, pattern: str, start: Node | None = None
) -> RPQResult:
    """Evaluate a pre-built query automaton (the entry point the
    constraint-aware optimizer uses after pruning the automaton)."""
    start_node = graph.root if start is None else start
    initial_states = nfa.epsilon_closure([nfa.initial])
    queue: deque[tuple[Node, object]] = deque(
        (start_node, q) for q in initial_states
    )
    visited: set[tuple[Node, object]] = set(queue)
    answers: set[Node] = set()
    finals = nfa.finals
    edges_seen: set[tuple[Node, str, Node]] = set()
    for node, state in visited:
        if state in finals:
            answers.add(node)
    while queue:
        node, state = queue.popleft()
        for label, target in graph.out_edges(node):
            moved = nfa.step([state], label)
            if not moved:
                continue
            # The edge was crossed in the product; count it once no
            # matter how many automaton states pair with this node.
            edges_seen.add((node, label, target))
            for next_state in moved:
                pair = (target, next_state)
                if pair in visited:
                    continue
                visited.add(pair)
                if next_state in finals:
                    answers.add(target)
                queue.append(pair)
    return RPQResult(
        pattern=pattern,
        answers=frozenset(answers),
        product_states_visited=len(visited),
        edges_traversed=len(edges_seen),
    )


# Backwards-compatible alias (pre-optimizer internal name).
_evaluate_nfa = evaluate_nfa
