"""Mutable sigma-structures: rooted, edge-labeled, directed graphs.

:class:`Graph` is the data substrate for everything else in the
library: path constraints are *checked* against graphs, the chase
*mutates* graphs, the reductions *construct* graphs, and typed
instances *abstract* to graphs (Lemma 3.1).

Design notes
------------
* Nodes are arbitrary hashable identifiers (ints and strings in
  practice).  Fresh nodes come from :meth:`Graph.fresh_node`, which
  never reissues an integer identifier the graph (or any graph it was
  copied from) has ever used — the chase relies on merged-away nodes
  staying dead.
* Edges are triples ``(src, label, dst)``; parallel edges with the same
  label are impossible (the relations are sets), parallel edges with
  different labels are fine.
* The adjacency representation is a two-level dict,
  ``src -> label -> set(dst)``, plus a mirrored reverse index, so both
  forward and backward path evaluation are linear in edges touched.
* A graph may carry an optional *sort assignment* mapping nodes to
  unary-relation names — this is how the typed abstraction of
  Section 3.2.2 records the ``T(Delta)`` relations.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from repro.errors import GraphError, UnknownNodeError
from repro.graph.signature import Signature
from repro.paths import Path

Node = Hashable


class Graph:
    """A rooted edge-labeled directed graph (a sigma-structure).

    >>> g = Graph(root="r")
    >>> b = g.add_edge("r", "book", g.fresh_node())
    >>> p = g.add_edge("r", "person", g.fresh_node())
    >>> _ = g.add_edge(b, "author", p)
    >>> sorted(g.eval_path("book.author"))  # nodes reached from the root
    [1]
    """

    def __init__(self, root: Node = "r", nodes: Iterable[Node] = ()) -> None:
        self._succ: dict[Node, dict[str, set[Node]]] = {}
        self._pred: dict[Node, dict[str, set[Node]]] = {}
        self._sorts: dict[Node, str] = {}
        self._next_fresh = 0
        self._root = root
        self._ensure_node(root)
        for node in nodes:
            self._ensure_node(node)

    # -- node management ----------------------------------------------

    @property
    def root(self) -> Node:
        """The distinguished root node (the constant ``r``)."""
        return self._root

    def _ensure_node(self, node: Node) -> Node:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
            # Keep the fresh-node watermark above every integer id ever
            # present, so fresh_node() cannot resurrect a node that a
            # later merge_nodes()/quotient() removed.
            if type(node) is int and node >= self._next_fresh:
                self._next_fresh = node + 1
        return node

    def add_node(self, node: Node | None = None, sort: str | None = None) -> Node:
        """Add a node (creating a fresh identifier if none is given).

        ``sort`` optionally records a unary relation (type) for the
        node, as used by the typed abstraction of Section 3.2.2.
        """
        if node is None:
            node = self.fresh_node()
        self._ensure_node(node)
        if sort is not None:
            self._sorts[node] = sort
        return node

    def fresh_node(self) -> Node:
        """A node identifier the graph has never used.

        The watermark only moves forward and survives ``copy()`` /
        ``rerooted()`` / ``quotient()``, so an id deleted by
        ``merge_nodes`` is never reissued — chase node maps stay
        injective on live nodes.
        """
        while True:
            candidate = self._next_fresh
            self._next_fresh += 1
            if candidate not in self._succ:
                return candidate

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def _require_node(self, node: Node) -> Node:
        if node not in self._succ:
            raise UnknownNodeError(node)
        return node

    @property
    def nodes(self) -> frozenset[Node]:
        return frozenset(self._succ)

    def node_count(self) -> int:
        return len(self._succ)

    # -- sorts (unary relations / types) -------------------------------

    def set_sort(self, node: Node, sort: str) -> None:
        """Assign the unary relation (type name) of ``node``."""
        self._require_node(node)
        self._sorts[node] = sort

    def sort_of(self, node: Node) -> str | None:
        """The unary relation of ``node``, or None if unsorted."""
        self._require_node(node)
        return self._sorts.get(node)

    def nodes_of_sort(self, sort: str) -> frozenset[Node]:
        return frozenset(n for n, s in self._sorts.items() if s == sort)

    @property
    def sorts(self) -> dict[Node, str]:
        """A copy of the node -> sort assignment."""
        return dict(self._sorts)

    # -- edge management -----------------------------------------------

    def add_edge(self, src: Node, label: str, dst: Node) -> Node:
        """Add ``label(src, dst)``; creates missing endpoints.

        Returns ``dst`` so construction code can chain naturally.
        """
        Path.single(label)  # validate the label
        self._ensure_node(src)
        self._ensure_node(dst)
        self._succ[src].setdefault(label, set()).add(dst)
        self._pred[dst].setdefault(label, set()).add(src)
        return dst

    def add_path(self, src: Node, path: Path | str, dst: Node | None = None) -> Node:
        """Add a fresh chain of edges spelling ``path`` from ``src``.

        Intermediate nodes are fresh.  If ``dst`` is given, the *last*
        edge targets it (the shape the chase needs); otherwise the final
        node is fresh too.  For the empty path, ``dst`` must be ``src``
        or ``None``; returns the endpoint.
        """
        path = Path.coerce(path)
        self._require_node(src)
        if path.is_empty():
            if dst is not None and dst != src:
                raise GraphError(
                    "cannot add an empty path between two distinct nodes"
                )
            return src
        current = src
        for label in path.labels[:-1]:
            current = self.add_edge(current, label, self.fresh_node())
        if dst is None:
            dst = self.fresh_node()
        return self.add_edge(current, path.last(), dst)

    def remove_edge(self, src: Node, label: str, dst: Node) -> None:
        try:
            self._succ[src][label].remove(dst)
            self._pred[dst][label].remove(src)
        except KeyError as exc:
            raise GraphError(f"edge {label}({src!r}, {dst!r}) not present") from exc
        if not self._succ[src][label]:
            del self._succ[src][label]
        if not self._pred[dst][label]:
            del self._pred[dst][label]

    def has_edge(self, src: Node, label: str, dst: Node) -> bool:
        return dst in self._succ.get(src, {}).get(label, ())

    def edges(self) -> Iterator[tuple[Node, str, Node]]:
        """Iterate all edges as ``(src, label, dst)`` triples."""
        for src, by_label in self._succ.items():
            for label, dsts in by_label.items():
                for dst in dsts:
                    yield (src, label, dst)

    def edge_count(self) -> int:
        return sum(
            len(dsts) for by_label in self._succ.values() for dsts in by_label.values()
        )

    def labels(self) -> frozenset[str]:
        """The set of labels actually used by some edge."""
        out: set[str] = set()
        for by_label in self._succ.values():
            out.update(label for label, dststs in by_label.items() if dststs)
        return frozenset(out)

    def signature(self, extra_labels: Iterable[str] = ()) -> Signature:
        """The smallest signature this graph is a structure of."""
        return Signature(self.labels() | set(extra_labels))

    # -- navigation -----------------------------------------------------

    def successors(self, node: Node, label: str) -> frozenset[Node]:
        """All ``y`` with ``label(node, y)``."""
        self._require_node(node)
        return frozenset(self._succ[node].get(label, ()))

    def predecessors(self, node: Node, label: str) -> frozenset[Node]:
        """All ``x`` with ``label(x, node)``."""
        self._require_node(node)
        return frozenset(self._pred[node].get(label, ()))

    def out_labels(self, node: Node) -> frozenset[str]:
        self._require_node(node)
        return frozenset(
            label for label, dsts in self._succ[node].items() if dsts
        )

    def out_degree(self, node: Node) -> int:
        """Total number of outgoing edges (over all labels)."""
        self._require_node(node)
        return sum(len(dsts) for dsts in self._succ[node].values())

    def out_edges(self, node: Node) -> Iterator[tuple[str, Node]]:
        self._require_node(node)
        for label, dsts in self._succ[node].items():
            for dst in dsts:
                yield (label, dst)

    # -- path evaluation -------------------------------------------------

    def eval_path(
        self, path: Path | str, start: Node | None = None
    ) -> frozenset[Node]:
        """The set ``{ y : path(start, y) }``; ``start`` defaults to the
        root, matching the paper's ``rho(r, x)`` idiom."""
        path = Path.coerce(path)
        start = self._root if start is None else self._require_node(start)
        frontier = {start}
        for label in path:
            nxt: set[Node] = set()
            for node in frontier:
                nxt |= self._succ[node].get(label, set())
            if not nxt:
                return frozenset()
            frontier = nxt
        return frozenset(frontier)

    def eval_path_from_set(
        self, path: Path | str, starts: Iterable[Node]
    ) -> frozenset[Node]:
        """Image of a node set under a path."""
        path = Path.coerce(path)
        frontier = set(starts)
        for label in path:
            nxt: set[Node] = set()
            for node in frontier:
                nxt |= self._succ.get(node, {}).get(label, set())
            frontier = nxt
            if not frontier:
                break
        return frozenset(frontier)

    def eval_path_backward(
        self, path: Path | str, end: Node
    ) -> frozenset[Node]:
        """The set ``{ x : path(x, end) }``."""
        path = Path.coerce(path)
        self._require_node(end)
        frontier = {end}
        for label in reversed(path.labels):
            prv: set[Node] = set()
            for node in frontier:
                prv |= self._pred[node].get(label, set())
            if not prv:
                return frozenset()
            frontier = prv
        return frozenset(frontier)

    def satisfies_path(
        self, path: Path | str, src: Node, dst: Node
    ) -> bool:
        """Does ``path(src, dst)`` hold?"""
        return dst in self.eval_path(path, start=src)

    def reachable(self, start: Node | None = None) -> frozenset[Node]:
        """All nodes reachable from ``start`` (default: root) by any
        label sequence, including ``start`` itself."""
        start = self._root if start is None else self._require_node(start)
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for dsts in self._succ[node].values():
                for dst in dsts:
                    if dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
        return frozenset(seen)

    # -- structural operations ---------------------------------------------

    def _carry_state_to(self, out: "Graph") -> "Graph":
        """Carry the fresh-node watermark to a derived graph.

        The watermark must survive derivation: resetting it
        would let ``fresh_node`` on the copy reissue an id that a merge
        deleted, resurrecting a dead node and corrupting any external
        node map (the chase's ``resolve`` chains, notably).
        """
        out._next_fresh = max(out._next_fresh, self._next_fresh)
        return out

    def copy(self) -> "Graph":
        """A structure-preserving deep copy (shares node identifiers)."""
        out = Graph(root=self._root)
        for node in self._succ:
            out._ensure_node(node)
        for src, label, dst in self.edges():
            out.add_edge(src, label, dst)
        out._sorts = dict(self._sorts)
        return self._carry_state_to(out)

    def rerooted(self, new_root: Node) -> "Graph":
        """The same graph with a different distinguished root."""
        self._require_node(new_root)
        out = Graph(root=new_root)
        for node in self._succ:
            out._ensure_node(node)
        for src, label, dst in self.edges():
            out.add_edge(src, label, dst)
        out._sorts = dict(self._sorts)
        return self._carry_state_to(out)

    def quotient(self, classes: Iterable[Iterable[Node]]) -> "Graph":
        """Quotient by a partition (given as an iterable of blocks).

        Nodes absent from every block stay singletons.  The image of a
        block is its canonical representative (its minimum under string
        ordering of ``repr``, for determinism).  Edges and sorts are
        pushed forward; conflicting sorts raise :class:`GraphError`.
        """
        rep: dict[Node, Node] = {}
        for block in classes:
            block = list(block)
            if not block:
                continue
            canon = min(block, key=repr)
            for node in block:
                self._require_node(node)
                if node in rep and rep[node] != canon:
                    raise GraphError(f"node {node!r} occurs in two blocks")
                rep[node] = canon

        def image(node: Node) -> Node:
            return rep.get(node, node)

        out = Graph(root=image(self._root))
        for node in self._succ:
            out._ensure_node(image(node))
        for src, label, dst in self.edges():
            out.add_edge(image(src), label, image(dst))
        for node, sort in self._sorts.items():
            existing = out._sorts.get(image(node))
            if existing is not None and existing != sort:
                raise GraphError(
                    f"quotient merges nodes of different sorts "
                    f"({existing!r} vs {sort!r})"
                )
            out._sorts[image(node)] = sort
        return self._carry_state_to(out)

    def merge_nodes(self, keep: Node, remove: Node) -> None:
        """Identify two nodes in place: ``remove``'s edges move to
        ``keep`` and ``remove`` disappears.

        Used by the chase to satisfy equality-generating constraints
        (conclusion path epsilon).  The root cannot be removed — pass
        it as ``keep``.  Merging nodes with conflicting sorts raises
        :class:`GraphError`.
        """
        self._require_node(keep)
        self._require_node(remove)
        if keep == remove:
            return
        if remove == self._root:
            raise GraphError("cannot remove the root; swap the arguments")
        keep_sort = self._sorts.get(keep)
        remove_sort = self._sorts.pop(remove, None)
        if keep_sort is not None and remove_sort is not None:
            if keep_sort != remove_sort:
                raise GraphError(
                    f"cannot merge nodes of different sorts "
                    f"({keep_sort!r} vs {remove_sort!r})"
                )
        elif remove_sort is not None:
            self._sorts[keep] = remove_sort
        for label, dsts in list(self._succ[remove].items()):
            for dst in list(dsts):
                self.remove_edge(remove, label, dst)
                self.add_edge(keep, label, keep if dst == remove else dst)
        for label, srcs in list(self._pred[remove].items()):
            for src in list(srcs):
                self.remove_edge(src, label, remove)
                self.add_edge(keep if src == remove else src, label, keep)
        del self._succ[remove]
        del self._pred[remove]

    def is_deterministic(self) -> bool:
        """True when every (node, label) has at most one successor."""
        return all(
            len(dsts) <= 1
            for by_label in self._succ.values()
            for dsts in by_label.values()
        )

    # -- comparison ---------------------------------------------------------

    def same_structure(self, other: "Graph") -> bool:
        """Equality of node sets, roots, edges and sorts (not up to
        isomorphism — identifiers must match)."""
        return (
            self._root == other._root
            and self.nodes == other.nodes
            and set(self.edges()) == set(other.edges())
            and self._sorts == other._sorts
        )

    def __repr__(self) -> str:
        return (
            f"<Graph root={self._root!r} nodes={self.node_count()} "
            f"edges={self.edge_count()}>"
        )
