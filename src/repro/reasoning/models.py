"""Bounded counter-model search.

Complements the chase on the refutation side of undecidable problems.
An untyped counter-model is grown from the tableau of ¬φ
(:func:`scan_codes`): φ's prefix and hypothesis paths are laid from
the root, and each violated premise is repaired by laying its
conclusion path, every step landing on an existing node or on a fresh
one while the node bound allows.  States are screened by a compiled
bitmask evaluator — path images as integer bitsets, no :class:`Graph`
allocated — and only a hit is materialised as a graph and re-verified
with the Definition 2.1 checker.

Public searches:

* :func:`find_countermodel` — the tableau search for a counter-model
  with at most ``max_nodes`` nodes, fewest nodes first;
* :func:`brute_force_countermodel` — the sequential scan over
  :func:`all_graphs`, kept as an independent oracle and as the
  benchmark baseline;
* :func:`find_typed_countermodel` — search over ``U_f(Delta)``'s
  small typed *instances* under the Lemma 3.1 abstraction, the only
  sound refutation route in the typed M+ context where untyped
  counter-models prove nothing.  :func:`scan_typed_instances` walks
  the instance stream as tuples of value-choice projections and
  screens each distinct one once with the same bitmask evaluator; an
  :class:`Instance` is built only for a screen hit;
* :func:`reference_typed_scan` — the same stream through
  ``to_graph`` and the Definition 2.1 checker on every instance, kept
  as the typed scan's oracle and benchmark baseline.

``repro.reasoning.portfolio`` runs :func:`scan_codes` or
:func:`scan_typed_instances` after the chase, in the same thread.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass

from repro.checking.engine import satisfies_all
from repro.checking.satisfaction import violations
from repro.constraints.ast import PathConstraint
from repro.graph.structure import Graph
from repro.types.instances import (
    Configuration,
    Instance,
    configurations,
    enumerate_instances,
)
from repro.types.siggen import sort_name
from repro.types.typesys import (
    MEMBERSHIP_LABEL,
    AtomicType,
    ClassRef,
    Schema,
    SetType,
    Type,
)


def infer_alphabet(
    sigma: Sequence[PathConstraint], phi: PathConstraint | None = None
) -> tuple[str, ...]:
    """The sorted union of all labels mentioned by ``sigma`` (and
    ``phi``).

    Hoisted out of the individual search functions so a portfolio run
    computes the alphabet once and threads it through every engine,
    instead of each call site re-walking the constraint set.
    """
    alphabet: set[str] = set() if phi is None else set(phi.alphabet())
    for psi in sigma:
        alphabet |= psi.alphabet()
    return tuple(sorted(alphabet))


def _is_countermodel(
    graph: Graph, sigma: Sequence[PathConstraint], phi: PathConstraint
) -> bool:
    if violations(graph, phi, limit=1):
        return satisfies_all(graph, sigma)
    return False


def all_graphs(
    node_count: int, labels: Sequence[str]
) -> Iterable[Graph]:
    """Every rooted graph on nodes ``0..node_count-1`` (root 0).

    There are ``2 ** (len(labels) * node_count**2)`` of them; callers
    keep ``node_count <= 3`` and few labels.
    """
    slots = [
        (src, label, dst)
        for src in range(node_count)
        for label in labels
        for dst in range(node_count)
    ]
    for bits in itertools.product((False, True), repeat=len(slots)):
        graph = Graph(root=0, nodes=range(node_count))
        for chosen, (src, label, dst) in zip(bits, slots):
            if chosen:
                graph.add_edge(src, label, dst)
        yield graph


def brute_force_countermodel(
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    labels: Sequence[str] | None = None,
    max_nodes: int = 3,
) -> Graph | None:
    """The seed sequential search: every labelled graph, no pruning.

    Builds a full :class:`Graph` per candidate and checks it with the
    Definition 2.1 evaluator.  Kept as an independent oracle for the
    tableau search's completeness tests and as the baseline the
    portfolio benchmarks measure speedups against.
    """
    sigma = list(sigma)
    if labels is None:
        labels = infer_alphabet(sigma, phi)
    for node_count in range(1, max_nodes + 1):
        for graph in all_graphs(node_count, labels):
            if _is_countermodel(graph, sigma, phi):
                return graph
    return None


# ---------------------------------------------------------------------------
# Compiled constraint evaluation over bitmask adjacency.
# ---------------------------------------------------------------------------

#: Sentinel label index for labels outside the search alphabet — their
#: path images are empty on every candidate.
_DEAD = -1


@dataclass(frozen=True)
class _CompiledConstraint:
    """A P_c constraint lowered to label-index sequences."""

    prefix: tuple[int, ...]
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    forward: bool
    #: reversed conclusion, for backward constraints evaluated as one
    #: predecessor image per witness x.
    rhs_reversed: tuple[int, ...]


def compile_constraints(
    constraints: Sequence[PathConstraint], labels: Sequence[str]
) -> list[_CompiledConstraint]:
    """Lower constraints onto a label-index alphabet."""
    index = {label: i for i, label in enumerate(labels)}

    def lower(path) -> tuple[int, ...]:
        return tuple(index.get(label, _DEAD) for label in path)

    out = []
    for constraint in constraints:
        rhs = lower(constraint.rhs)
        out.append(
            _CompiledConstraint(
                prefix=lower(constraint.prefix),
                lhs=lower(constraint.lhs),
                rhs=rhs,
                forward=constraint.is_forward(),
                rhs_reversed=tuple(reversed(rhs)),
            )
        )
    return out


def _image(adj: list[list[int]], word: tuple[int, ...], frontier: int) -> int:
    """The bitset image of ``frontier`` under a label-index word."""
    for li in word:
        if li == _DEAD:
            return 0
        row = adj[li]
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= row[low.bit_length() - 1]
            frontier ^= low
        if not nxt:
            return 0
        frontier = nxt
    return frontier


def _violation(
    adj: list[list[int]],
    radj: list[list[int]],
    c: _CompiledConstraint,
) -> tuple[int, int] | None:
    """The first pair ``(x, y)`` violating one compiled constraint."""
    xs = _image(adj, c.prefix, 1)
    while xs:
        low = xs & -xs
        xs ^= low
        hypothesis = _image(adj, c.lhs, low)
        if not hypothesis:
            continue
        if c.forward:
            conclusion = _image(adj, c.rhs, low)
        else:
            conclusion = _image(radj, c.rhs_reversed, low)
        bad = hypothesis & ~conclusion
        if bad:
            return low.bit_length() - 1, (bad & -bad).bit_length() - 1
    return None


def _is_bit_countermodel(
    adj: list[list[int]],
    radj: list[list[int]],
    compiled_sigma: Sequence[_CompiledConstraint],
    compiled_phi: _CompiledConstraint,
) -> bool:
    if _violation(adj, radj, compiled_phi) is None:
        return False
    for c in compiled_sigma:
        if _violation(adj, radj, c) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# The tableau search.
# ---------------------------------------------------------------------------

#: Search states expanded between two polls of the deadline and the
#: stop hook.
_POLL_EVERY = 32


@dataclass
class SearchReport:
    """Outcome of one tableau search up to a node bound."""

    #: a counter-model with the fewest nodes, re-checked; None if none.
    graph: Graph | None
    #: False when the deadline or the stop hook cut the search short.
    exhausted: bool
    #: distinct states visited, summed over the node counts searched.
    states: int
    elapsed: float = 0.0


class _Stopped(Exception):
    """The deadline passed or the stop hook fired mid-search."""


def _paths(
    count: int, bound: int, length: int, target: int | None
) -> Iterable[tuple[int, ...]]:
    """Node sequences of a ``length``-step path laid on ``count`` nodes.

    Each step lands on an existing node, or on the next fresh one
    (node ``count``) while fewer than ``bound`` exist; with a
    ``target`` the last step lands there.
    """
    if length == 0:
        yield ()
    elif length == 1 and target is not None:
        yield (target,)
    else:
        for node in range(min(count + 1, bound)):
            for rest in _paths(
                max(count, node + 1), bound, length - 1, target
            ):
                yield (node, *rest)


class _Tableau:
    """One node bound's search: an adjacency grown through an undo log.

    ``adj[li][src]`` is the bitmask of ``dst`` nodes with
    ``labels[li](src, dst)`` and ``radj`` its transpose; ``code`` holds
    one bit per edge, so ``(code, count, x, y)`` names a state.
    """

    def __init__(
        self,
        sigma: Sequence[_CompiledConstraint],
        phi: _CompiledConstraint,
        label_count: int,
        bound: int,
        stopped: Callable[[], bool],
    ) -> None:
        self.sigma = sigma
        self.phi = phi
        self.label_count = label_count
        self.bound = bound
        self.stopped = stopped
        self.adj = [[0] * bound for _ in range(label_count)]
        self.radj = [[0] * bound for _ in range(label_count)]
        self.count = 1
        self.code = 0
        #: the state's edges in the order they were added.
        self.log: list[tuple[int, int, int]] = []
        self.seen: set[tuple[int, int, int, int]] = set()
        self._ticks = 0

    def _slot(self, src: int, li: int, dst: int) -> int:
        return 1 << ((src * self.label_count + li) * self.bound + dst)

    def _lay(
        self, start: int, word: tuple[int, ...], path: tuple[int, ...]
    ) -> None:
        """Add the edges of ``word`` along ``start, *path``."""
        src = start
        for li, dst in zip(word, path):
            slot = self._slot(src, li, dst)
            if not self.code & slot:
                self.code |= slot
                self.adj[li][src] |= 1 << dst
                self.radj[li][dst] |= 1 << src
                self.log.append((src, li, dst))
            src = dst
        if path:
            self.count = max(self.count, max(path) + 1)

    def _undo(self, mark: int, count: int) -> None:
        """Remove the edges added after log position ``mark``."""
        log = self.log
        while len(log) > mark:
            src, li, dst = log.pop()
            self.code &= ~self._slot(src, li, dst)
            self.adj[li][src] &= ~(1 << dst)
            self.radj[li][dst] &= ~(1 << src)
        self.count = count

    def _expand(self, x: int, y: int):
        """The repairs of the current state, or None if it is a
        counter-model.

        A seen state, or one where φ's conclusion holds on ``(x, y)``,
        has no repairs.  Otherwise the first premise violated at some
        ``(a, b)`` is repaired by laying its conclusion from ``a`` to
        ``b`` (from ``b`` to ``a`` for a backward premise).
        """
        self._ticks += 1
        if self._ticks % _POLL_EVERY == 0 and self.stopped():
            raise _Stopped
        key = (self.code, self.count, x, y)
        if key in self.seen:
            return iter(())
        self.seen.add(key)
        adj, radj, phi = self.adj, self.radj, self.phi
        if phi.forward:
            conclusion = _image(adj, phi.rhs, 1 << x)
        else:
            conclusion = _image(radj, phi.rhs_reversed, 1 << x)
        if conclusion >> y & 1:
            return iter(())
        for c in self.sigma:
            pair = _violation(adj, radj, c)
            if pair is not None:
                break
        else:
            return None
        a, b = pair if c.forward else pair[::-1]
        if not c.rhs or _DEAD in c.rhs:
            # An empty conclusion would identify a != b (an n-node
            # model that does is reached through existing-node
            # choices), and a label outside the alphabet cannot be laid.
            return iter(())
        return (
            (a, c.rhs, path)
            for path in _paths(self.count, self.bound, len(c.rhs), b)
        )

    def _grow(self, x: int, y: int) -> bool:
        """Depth-first repair; True leaves a counter-model in place."""
        moves = self._expand(x, y)
        if moves is None:
            return True
        stack = [(len(self.log), self.count, moves)]
        while stack:
            mark, count, moves = stack[-1]
            self._undo(mark, count)
            move = next(moves, None)
            if move is None:
                stack.pop()
                continue
            self._lay(*move)
            moves = self._expand(x, y)
            if moves is None:
                return True
            stack.append((len(self.log), self.count, moves))
        return False

    def run(self) -> bool:
        """Lay φ's prefix and hypothesis, then grow each layout."""
        phi = self.phi
        word = phi.prefix + phi.lhs
        if _DEAD in word:
            return False
        split = len(phi.prefix)
        for path in _paths(1, self.bound, len(word), None):
            self._lay(0, word, path)
            nodes = (0, *path)
            if self._grow(nodes[split], nodes[-1]):
                return True
            self._undo(0, 1)
        return False

    def graph(self, labels: Sequence[str]) -> Graph:
        graph = Graph(root=0, nodes=range(self.count))
        for src, li, dst in self.log:
            graph.add_edge(src, labels[li], dst)
        return graph


def _recheck(
    graph: Graph, sigma: Sequence[PathConstraint], phi: PathConstraint
) -> Graph:
    """``graph``, once the Definition 2.1 checker confirms it refutes
    ``phi``; a drift between the evaluators raises instead."""
    if not _is_countermodel(graph, list(sigma), phi):
        raise RuntimeError(
            f"counter-model search returned a {graph.node_count()}-node "
            "graph but the reference checker rejects it"
        )
    return graph


def scan_codes(
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    labels: Sequence[str],
    max_nodes: int,
    deadline: float | None = None,
) -> SearchReport:
    """Search for a counter-model with at most ``max_nodes`` nodes.

    The counter-model is grown from the tableau of ¬φ, once per node
    bound ``n = 1..max_nodes``, smallest first, so a hit has the
    fewest nodes.  φ's prefix and hypothesis paths are laid from the
    root; they end at ``x`` and ``y``.  A state dies once φ's
    conclusion holds on ``(x, y)`` (adding edges never undoes that).
    Otherwise the first premise violated at some ``(a, b)`` is repaired
    by laying its conclusion path between them.  A state with no
    violated premise is a counter-model.  Every step of every laid path
    lands on an existing node, or on a fresh one while fewer than ``n``
    exist; the last step of a repair lands on its target.  Each repair
    adds an edge, so every branch ends.

    Completeness: take any counter-model M with at most ``n`` nodes.
    Its violating pair guides one tableau branch, and each repair takes
    M's own nodes, so every state on that branch embeds injectively
    into M.  φ's conclusion therefore never holds on that branch, and
    no repair needs an empty conclusion between distinct nodes (their
    images in M would be equal).  Since each repair adds one of M's
    finitely many edges, the branch ends in a counter-model.  Visited
    states are keyed by ``(edges, node count, x, y)``, which fixes
    everything below them.

    ``deadline`` (an absolute ``time.monotonic()`` value) is polled
    before the first state and every few dozen states after; expiry
    stops the search with ``exhausted=False``.  A hit is re-checked
    with the Definition 2.1 checker before it is returned.
    perfbench's tracer times the search under this name.
    """
    began = time.perf_counter()
    sigma = list(sigma)
    labels = tuple(labels)
    *compiled_sigma, compiled_phi = compile_constraints([*sigma, phi], labels)

    def stopped() -> bool:
        return deadline is not None and time.monotonic() > deadline

    states = 0
    found = False
    exhausted = True
    for bound in range(1, max_nodes + 1):
        tableau = _Tableau(
            compiled_sigma, compiled_phi, len(labels), bound, stopped
        )
        try:
            if stopped():
                raise _Stopped
            found = tableau.run()
        except _Stopped:
            exhausted = False
        states += len(tableau.seen)
        if found or not exhausted:
            break
    graph = _recheck(tableau.graph(labels), sigma, phi) if found else None
    return SearchReport(graph, exhausted, states, time.perf_counter() - began)


def find_countermodel(
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    labels: Sequence[str] | None = None,
    max_nodes: int = 3,
    deadline: float | None = None,
) -> Graph | None:
    """A finite G with ``G |= Sigma`` and ``G |/= phi`` of at most
    ``max_nodes`` nodes, found by :func:`scan_codes`, or None.

    A hit refutes finite implication (and implication).  Exhaustion up
    to the bound proves nothing — this is an oracle for tests, not a
    decider.  Finds a counter-model iff
    :func:`brute_force_countermodel` does, with as few nodes.
    """
    sigma = list(sigma)
    if labels is None:
        labels = infer_alphabet(sigma, phi)
    return scan_codes(sigma, phi, labels, max_nodes, deadline=deadline).graph


def _nests_db_type(schema: Schema) -> bool:
    """Whether a value inside the entry or an oid's value can have a
    type equal to DBtype.  Such a value is the root when it equals the
    entry (:meth:`Instance._node_key`)."""
    db = schema.db_type
    bodies = [db, *(schema.body_of(name) for name in schema.class_names)]
    return any(
        tau == db
        for body in bodies
        for child in body.children()
        for tau in child.walk()
    )


class _TypedScreen:
    """One configuration's candidates, screened by projection.

    A node is an int: 0 the root, ``1..k`` the configuration's oids,
    and each atom, set or record value gets the next int, keyed by its
    extensional identity (every field, read or not), as in
    :meth:`Instance._node_key`.  A node's out-edges over the
    constraint alphabet are ``(label index, child)`` pairs: an oid's
    come from its chosen value, the root's from the entry, and any
    other node's from its identity alone.  Each value choice's edges
    are computed once, and equal edge tuples share one projection id,
    so a candidate's adjacency is fixed by its tuple of per-oid
    projection ids plus the entry's.  :meth:`verdict` runs
    :func:`_is_bit_countermodel` once per distinct tuple.

    Where a DBtype-equal type is nested, a value equal to the entry is
    the root, so the entry's projection also names the entry's own
    node (its alias), which makes it one projection per entry choice.
    Only reachability from the root over the constraint alphabet
    matters: no path image of a constraint leaves that part of the
    Lemma 3.1 graph.
    """

    def __init__(
        self,
        config: Configuration,
        index: dict[str, int],
        nested: bool,
        compiled_sigma: Sequence[_CompiledConstraint],
        compiled_phi: _CompiledConstraint,
    ) -> None:
        self.schema = config.schema
        self.index = index
        self.member = index.get(MEMBERSHIP_LABEL)
        self.compiled_sigma = compiled_sigma
        self.compiled_phi = compiled_phi
        self.nodes: dict[Hashable, int] = {
            ("oid", oid.key): i for i, oid in enumerate(config.oids, 1)
        }
        #: out-edges of every node past the oids; () for the rest.
        self.static: list[tuple[tuple[int, int], ...]] = [()] * (
            len(config.oids) + 1
        )
        #: projection id -> (edges, root alias).
        self.projections: list[tuple[tuple, int | None]] = []
        self._ids: dict[tuple, int] = {}
        self.choice_ids = [
            [self._project(self._edges(value, body), None) for value in values]
            for body, values in zip(config.bodies, config.value_choices)
        ]
        db = self.schema.db_type
        if nested:
            aliases = [self._node(entry, db) for entry in config.entries]
            self.entry_ids = [
                self._project(self.static[alias], alias) for alias in aliases
            ]
        else:
            self.entry_ids = [
                self._project(self._edges(entry, db), None)
                for entry in config.entries
            ]

    def _project(self, edges: tuple, alias: int | None) -> int:
        key = (edges, alias)
        pid = self._ids.get(key)
        if pid is None:
            pid = self._ids[key] = len(self.projections)
            self.projections.append(key)
        return pid

    def _children(
        self, value: object, tau: Type, read_only: bool
    ) -> list[tuple[str, int]]:
        """``(label, child node)`` pairs of a set or record value; with
        ``read_only``, only those on labels some constraint reads."""
        if isinstance(tau, SetType):
            if read_only and self.member is None:
                return []
            element = tau.element
            return [(MEMBERSHIP_LABEL, self._node(m, element)) for m in value]
        return [
            (label, self._node(value[label], tau.field(label)))
            for label in tau.labels
            if not read_only or label in self.index
        ]

    def _edges(self, value: object, tau: Type) -> tuple:
        """The out-edges of an oid's value or of the entry."""
        return self._arcs(self._children(value, tau, read_only=True))

    def _arcs(self, children: list[tuple[str, int]]) -> tuple:
        """Sorted ``(label index, child)`` pairs on the alphabet."""
        index = self.index
        return tuple(
            sorted(
                {
                    (index[label], child)
                    for label, child in children
                    if label in index
                }
            )
        )

    def _node(self, value: object, tau: Type) -> int:
        """The node of ``value`` at ``tau``, interned on first sight."""
        if isinstance(tau, ClassRef):
            return self.nodes[("oid", value.key)]
        if isinstance(tau, AtomicType):
            key: Hashable = ("atom", tau.name, value)
            edges: tuple = ()
        else:
            children = self._children(value, tau, read_only=False)
            name = sort_name(self.schema, tau)
            if isinstance(tau, SetType):
                key = ("set", name, frozenset(c for _, c in children))
            else:
                key = ("rec", name, tuple(sorted(children)))
            edges = self._arcs(children)
        nid = self.nodes.get(key)
        if nid is None:
            nid = self.nodes[key] = len(self.static)
            self.static.append(edges)
        return nid

    def verdict(self, key: tuple[int, ...]) -> bool:
        """Whether the candidate with projection ids ``key`` screens as
        a counter-model: rows built by a walk from the root."""
        projections, static = self.projections, self.static
        oids = len(key) - 1
        root_edges, alias = projections[key[-1]]
        ids = {0: 0}
        todo = [0]
        arcs = []
        for node in todo:
            if node == 0:
                edges = root_edges
            elif node <= oids:
                edges = projections[key[node - 1]][0]
            else:
                edges = static[node]
            src = ids[node]
            for li, child in edges:
                if child == alias:
                    child = 0
                dst = ids.get(child)
                if dst is None:
                    dst = ids[child] = len(todo)
                    todo.append(child)
                arcs.append((src, li, dst))
        count = len(todo)
        adj = [[0] * count for _ in self.index]
        radj = [[0] * count for _ in self.index]
        for src, li, dst in arcs:
            adj[li][src] |= 1 << dst
            radj[li][dst] |= 1 << src
        return _is_bit_countermodel(
            adj, radj, self.compiled_sigma, self.compiled_phi
        )


@dataclass
class TypedScanReport:
    """Outcome of scanning the typed instance stream."""

    #: stream index of the hit: the first counter-model in stream order.
    hit_index: int | None
    instance: Instance | None
    graph: Graph | None
    #: stream indices covered.
    examined: int
    exhausted: bool
    elapsed: float = 0.0
    #: distinct projection tuples screened.
    screens: int = 0


def scan_typed_instances(
    schema: Schema,
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    max_oids: int = 2,
    max_set_size: int = 2,
    limit: int = 5_000,
    deadline: float | None = None,
    check_every: int = 32,
) -> TypedScanReport:
    """Scan ``U_f(Delta)``'s small-instance stream for a counter-model.

    The stream is :func:`~repro.types.instances.enumerate_instances`'
    order, up to ``limit``; the scan stops at the first counter-model.

    The stream is walked as tuples of projection ids, one
    configuration at a time (:class:`_TypedScreen`), so no
    :class:`Instance` is built for a candidate that the screen
    rejects, and each distinct projection tuple is screened once.  A
    screen hit is built as an instance at its stream index and
    re-verified with :meth:`Instance.to_graph` and the Definition 2.1
    checker; should the checker reject it, the scan goes on.
    ``deadline`` is polled every ``check_every`` stream indices.
    perfbench's tracer times the scan under this name.
    """
    began = time.perf_counter()
    sigma = list(sigma)
    labels = infer_alphabet(sigma, phi)
    index = {label: i for i, label in enumerate(labels)}
    *compiled_sigma, compiled_phi = compile_constraints([*sigma, phi], labels)
    nested = _nests_db_type(schema)
    examined = screens = 0

    def report(exhausted, hit_index=None, instance=None, graph=None):
        return TypedScanReport(
            hit_index, instance, graph, examined, exhausted,
            time.perf_counter() - began, screens,
        )

    base = 0
    for config in configurations(
        schema, max_oids=max_oids, max_set_size=max_set_size
    ):
        if base >= limit:
            break
        size = min(config.size, limit - base)
        screen = _TypedScreen(
            config, index, nested, compiled_sigma, compiled_phi
        )
        verdicts: dict[tuple[int, ...], bool] = {}
        for position, key in enumerate(
            itertools.islice(
                itertools.product(*screen.choice_ids, screen.entry_ids),
                size,
            )
        ):
            if (
                examined % check_every == 0
                and deadline is not None
                and time.monotonic() > deadline
            ):
                return report(False)
            examined += 1
            hit = verdicts.get(key)
            if hit is None:
                hit = verdicts[key] = screen.verdict(key)
                screens += 1
            if hit:
                instance = config.instance(position)
                graph = instance.to_graph()
                if _is_countermodel(graph, sigma, phi):
                    return report(True, base + position, instance, graph)
        base += config.size
    return report(True)


def reference_typed_scan(
    schema: Schema,
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    max_oids: int = 2,
    max_set_size: int = 2,
    limit: int = 5_000,
) -> TypedScanReport:
    """The per-instance reference loop over the same stream.

    Every instance :func:`enumerate_instances` yields is abstracted
    with :meth:`Instance.to_graph` and checked with the Definition 2.1
    checker.  Kept as the independent oracle for
    :func:`scan_typed_instances` and as the benchmark baseline.
    """
    began = time.perf_counter()
    sigma = list(sigma)
    examined = 0
    stream = enumerate_instances(
        schema, max_oids=max_oids, max_set_size=max_set_size, limit=limit
    )
    for index, instance in enumerate(stream):
        examined += 1
        graph = instance.to_graph()
        if _is_countermodel(graph, sigma, phi):
            return TypedScanReport(
                index, instance, graph, examined, True,
                time.perf_counter() - began,
            )
    return TypedScanReport(
        None, None, None, examined, True, time.perf_counter() - began
    )


def find_typed_countermodel(
    schema: Schema,
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    max_oids: int = 2,
    max_set_size: int = 2,
    limit: int = 5_000,
    deadline: float | None = None,
) -> tuple[Instance, Graph] | None:
    """Search ``U_f(Delta)`` for a counter-model, via small instances.

    Every yield of :func:`enumerate_instances` abstracts (Lemma 3.1) to
    a graph satisfying ``Phi(Delta)``, so a hit refutes ``Sigma
    |=_(f,Delta) phi`` — the sound refutation route for the
    undecidable typed cells of Table 1.
    """
    report = scan_typed_instances(
        schema,
        sigma,
        phi,
        max_oids=max_oids,
        max_set_size=max_set_size,
        limit=limit,
        deadline=deadline,
    )
    if report.hit_index is None:
        return None
    assert report.instance is not None and report.graph is not None
    return report.instance, report.graph
