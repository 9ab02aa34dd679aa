"""Bounded counter-model search.

Complements the chase on the refutation side of undecidable problems.
The enumeration core is a *canonical bitcode* layer: a rooted graph on
nodes ``0..n-1`` over ``L`` labels is an integer of ``L * n**2`` bits
(one per potential edge), the root-fixing permutations of ``1..n-1``
act on those bits, and :meth:`CodeSpace.canonical_codes` emits exactly
one representative per isomorphism class (the minimal code of each
orbit).  Candidates are screened by a compiled bitmask evaluator —
path images as integer bitsets, no :class:`Graph` allocated — and only
a confirmed hit is materialised as a graph and re-verified with the
Definition 2.1 checker.

Public searches:

* :func:`find_countermodel` — exhaustive canonical search over all
  rooted graphs with at most ``max_nodes`` nodes;
* :func:`brute_force_countermodel` — the pre-canonical sequential scan
  over :func:`all_graphs`, kept verbatim as an independent oracle and
  as the benchmark baseline;
* :func:`random_countermodel` — randomized search, useful as a cheap
  first pass on larger candidate sizes;
* :func:`find_typed_countermodel` — search over ``U_f(Delta)`` by
  enumerating small typed *instances* and abstracting them (Lemma 3.1),
  the only sound refutation route in the typed M+ context where
  untyped counter-models prove nothing.  Accepts a shard stride so the
  portfolio can spread the instance stream across workers.

``repro.reasoning.portfolio`` shards :func:`scan_codes` ranges across
a process pool by bit-prefix; everything here stays import-safe and
picklable for that purpose.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass

from repro.checking.engine import satisfies_all
from repro.checking.satisfaction import violations
from repro.constraints.ast import PathConstraint
from repro.graph.structure import Graph
from repro.types.instances import Instance, enumerate_instances
from repro.types.typesys import (
    MEMBERSHIP_LABEL,
    ClassRef,
    RecordType,
    Schema,
    SetType,
)


def infer_alphabet(
    sigma: Sequence[PathConstraint], phi: PathConstraint | None = None
) -> tuple[str, ...]:
    """The sorted union of all labels mentioned by ``sigma`` (and
    ``phi``).

    Hoisted out of the individual search functions so a portfolio run
    computes the alphabet once and threads it through every engine and
    shard, instead of each call site re-walking the constraint set.
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
    canonical layer's correctness tests and as the baseline the
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
# The canonical bitcode layer.
# ---------------------------------------------------------------------------


class CodeSpace:
    """The bitcode space of rooted labelled digraphs on ``0..n-1``.

    Bit ``(src * L + li) * n + dst`` of a code records the edge
    ``labels[li](src, dst)``, so a code's numeric value orders graphs
    edge-lexicographically with root-adjacent slots least significant.
    The root-fixing permutation group (all permutations of ``1..n-1``)
    acts by permuting bit positions; the *canonical* member of an
    orbit is its minimal code.  Permutations are applied through
    per-byte lookup tables, so a canonicity test costs a handful of
    table reads rather than a per-bit loop.
    """

    def __init__(self, node_count: int, labels: Sequence[str]) -> None:
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        self.node_count = node_count
        self.labels = tuple(labels)
        self.label_count = len(self.labels)
        self.bits = self.label_count * node_count * node_count
        self.total = 1 << self.bits
        self._byte_count = (self.bits + 7) // 8
        self._perm_tables = self._build_perm_tables()

    @staticmethod
    def size(node_count: int, label_count: int) -> int:
        """Closed-form space size ``2^(L*n^2)`` — no tables built.

        The cost model prices a scan with this before deciding how to
        execute it; constructing a :class:`CodeSpace` just to read
        ``total`` would pay for the permutation tables up front.
        """
        if node_count < 1 or label_count < 0:
            raise ValueError("need node_count >= 1 and label_count >= 0")
        return 1 << (label_count * node_count * node_count)

    # -- permutation machinery -----------------------------------------

    def _slot(self, src: int, label_index: int, dst: int) -> int:
        return (src * self.label_count + label_index) * self.node_count + dst

    def _build_perm_tables(self) -> list[list[list[int]]]:
        """One byte-table per non-identity root-fixing permutation.

        ``tables[b][v]`` is the permuted-bit contribution of byte value
        ``v`` at byte position ``b``, so applying a permutation to a
        code is an OR over ``byte_count`` lookups.
        """
        n, L = self.node_count, self.label_count
        out: list[list[list[int]]] = []
        for perm in itertools.permutations(range(1, n)):
            mapping = (0, *perm)
            if mapping == tuple(range(n)):
                continue
            slot_map = [
                self._slot(mapping[src], li, mapping[dst])
                for src in range(n)
                for li in range(L)
                for dst in range(n)
            ]
            tables: list[list[int]] = []
            for byte_pos in range(self._byte_count):
                base = byte_pos * 8
                table = [0] * 256
                for value in range(256):
                    acc = 0
                    v = value
                    while v:
                        low = v & -v
                        bit = base + low.bit_length() - 1
                        if bit < self.bits:
                            acc |= 1 << slot_map[bit]
                        v ^= low
                    table[value] = acc
                tables.append(table)
            out.append(tables)
        return out

    def _apply(self, tables: list[list[int]], code: int) -> int:
        acc = 0
        for byte_pos in range(self._byte_count):
            acc |= tables[byte_pos][(code >> (byte_pos * 8)) & 0xFF]
        return acc

    def is_canonical(self, code: int) -> bool:
        """Is ``code`` the minimal member of its isomorphism orbit?"""
        for tables in self._perm_tables:
            if self._apply(tables, code) < code:
                return False
        return True

    def orbit(self, code: int) -> frozenset[int]:
        """All codes isomorphic to ``code`` (root-fixing action)."""
        return frozenset(
            [code] + [self._apply(t, code) for t in self._perm_tables]
        )

    def canonical_form(self, code: int) -> int:
        """The minimal code isomorphic to ``code``."""
        return min(self.orbit(code))

    def canonical_codes(self) -> Iterable[int]:
        """Every canonical representative, in ascending code order."""
        for code in range(self.total):
            if self.is_canonical(code):
                yield code

    def canonical_classes(self) -> Iterable[tuple[int, int]]:
        """``(representative, orbit size)`` per isomorphism class.

        The orbit sizes partition the full space:
        ``sum(size for _, size in canonical_classes()) == self.total``
        — the completeness reconciliation the tests check for
        ``n <= 3``.
        """
        for code in self.canonical_codes():
            yield code, len(self.orbit(code))

    # -- decoding ------------------------------------------------------

    def adjacency(self, code: int) -> tuple[list[list[int]], list[list[int]]]:
        """Decode to ``(adj, radj)`` bitmask matrices.

        ``adj[li][src]`` is the bitmask of ``dst`` nodes with
        ``labels[li](src, dst)``; ``radj`` is the transpose (for
        backward-constraint conclusions).
        """
        n, L = self.node_count, self.label_count
        adj = [[0] * n for _ in range(L)]
        radj = [[0] * n for _ in range(L)]
        rem = code
        while rem:
            low = rem & -rem
            slot = low.bit_length() - 1
            rem ^= low
            src_li, dst = divmod(slot, n)
            src, li = divmod(src_li, L)
            adj[li][src] |= 1 << dst
            radj[li][dst] |= 1 << src
        return adj, radj

    def all_reachable(self, adj: list[list[int]]) -> bool:
        """Is every node reachable from the root (node 0)?

        Searching level-by-level, a counter-model with an unreachable
        node restricts to a smaller counter-model (P_c satisfaction
        only reads the root-reachable part), so levels may require full
        reachability without losing completeness.
        """
        n = self.node_count
        full = (1 << n) - 1
        reach = 1
        for _ in range(n):
            frontier = reach
            nxt = reach
            while frontier:
                low = frontier & -frontier
                src = low.bit_length() - 1
                frontier ^= low
                for row in adj:
                    nxt |= row[src]
            if nxt == reach:
                break
            reach = nxt
            if reach == full:
                return True
        return reach == full

    def to_graph(self, code: int) -> Graph:
        """Materialise a code as a :class:`Graph` (root 0)."""
        graph = Graph(root=0, nodes=range(self.node_count))
        n, L = self.node_count, self.label_count
        rem = code
        while rem:
            low = rem & -rem
            slot = low.bit_length() - 1
            rem ^= low
            src_li, dst = divmod(slot, n)
            src, li = divmod(src_li, L)
            graph.add_edge(src, self.labels[li], dst)
        return graph


# ---------------------------------------------------------------------------
# Compiled constraint evaluation over bitmask adjacency.
# ---------------------------------------------------------------------------

#: Sentinel label index for labels outside the enumeration alphabet —
#: their path images are empty on every candidate.
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


def _constraint_ok(
    adj: list[list[int]],
    radj: list[list[int]],
    c: _CompiledConstraint,
) -> bool:
    """Does the candidate satisfy one compiled constraint?"""
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
        if hypothesis & ~conclusion:
            return False
    return True


def _code_is_countermodel(
    adj: list[list[int]],
    radj: list[list[int]],
    compiled_sigma: Sequence[_CompiledConstraint],
    compiled_phi: _CompiledConstraint,
) -> bool:
    if _constraint_ok(adj, radj, compiled_phi):
        return False
    for c in compiled_sigma:
        if not _constraint_ok(adj, radj, c):
            return False
    return True


# ---------------------------------------------------------------------------
# Shard scanning (the unit of work the portfolio distributes).
# ---------------------------------------------------------------------------


@dataclass
class ShardReport:
    """Outcome of scanning one code range at one node count."""

    node_count: int
    start: int
    stop: int
    hit: int | None
    examined: int
    canonical: int
    exhausted: bool
    elapsed: float = 0.0


def scan_codes(
    space: CodeSpace,
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    start: int = 0,
    stop: int | None = None,
    deadline: float | None = None,
    require_reachable: bool = True,
    check_every: int = 4096,
    should_stop: "Callable[[], bool] | None" = None,
    compiled_sigma: "Sequence[_CompiledConstraint] | None" = None,
    compiled_phi: "_CompiledConstraint | None" = None,
) -> ShardReport:
    """Scan ``[start, stop)`` for the first canonical counter-model.

    Non-canonical codes are skipped before decoding; with
    ``require_reachable`` (the level-search default) codes with
    root-unreachable nodes are skipped after decoding.  ``deadline``
    is an absolute ``time.monotonic()`` value checked every ``check_every``
    codes, as is ``should_stop`` (the cooperative cancellation hook
    :func:`~repro.reasoning.runtime.stop_hook` gives a pool worker);
    either stops the scan with ``exhausted=False``.  Callers that
    already compiled the constraints against ``space.labels`` (the
    portfolio compiles once per solve and ships the result to every
    shard) pass ``compiled_sigma``/``compiled_phi`` to skip
    recompilation.
    Deterministic: the hit is the smallest counter-model code in
    range, independent of sharding.
    """
    began = time.perf_counter()
    stop = space.total if stop is None else min(stop, space.total)
    if compiled_sigma is None:
        compiled_sigma = compile_constraints(list(sigma), space.labels)
    if compiled_phi is None:
        (compiled_phi,) = compile_constraints([phi], space.labels)
    is_canonical = space.is_canonical
    adjacency = space.adjacency
    examined = 0
    canonical = 0
    for code in range(start, stop):
        if examined % check_every == 0 and (
            (deadline is not None and time.monotonic() > deadline)
            or (should_stop is not None and should_stop())
        ):
            return ShardReport(
                node_count=space.node_count,
                start=start,
                stop=stop,
                hit=None,
                examined=examined,
                canonical=canonical,
                exhausted=False,
                elapsed=time.perf_counter() - began,
            )
        examined += 1
        if not is_canonical(code):
            continue
        canonical += 1
        adj, radj = adjacency(code)
        if require_reachable and not space.all_reachable(adj):
            continue
        if _code_is_countermodel(adj, radj, compiled_sigma, compiled_phi):
            return ShardReport(
                node_count=space.node_count,
                start=start,
                stop=stop,
                hit=code,
                examined=examined,
                canonical=canonical,
                exhausted=True,
                elapsed=time.perf_counter() - began,
            )
    return ShardReport(
        node_count=space.node_count,
        start=start,
        stop=stop,
        hit=None,
        examined=examined,
        canonical=canonical,
        exhausted=True,
        elapsed=time.perf_counter() - began,
    )


def _materialise_hit(
    space: CodeSpace,
    code: int,
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
) -> Graph:
    """Build the hit graph and re-verify it with the reference checker.

    The bit evaluator and the Definition 2.1 evaluator are tested
    equivalent, but a hit is rare enough that double-checking it is
    free insurance against a drift between the two.
    """
    graph = space.to_graph(code)
    if not _is_countermodel(graph, list(sigma), phi):
        raise RuntimeError(
            f"bitcode checker accepted code {code} at n={space.node_count} "
            "but the reference checker rejects it"
        )
    return graph


def find_countermodel(
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    labels: Sequence[str] | None = None,
    max_nodes: int = 3,
    deadline: float | None = None,
) -> Graph | None:
    """Exhaustive search for a finite G with ``G |= Sigma`` and
    ``G |/= phi``.

    A hit refutes finite implication (and implication).  Exhaustion up
    to the bound proves nothing — this is an oracle for tests, not a
    decider.  Enumerates canonical isomorphism-class representatives
    only (per node count, smallest first), so it visits a fraction of
    what :func:`brute_force_countermodel` does while finding a
    counter-model iff the brute force does.
    """
    sigma = list(sigma)
    if labels is None:
        labels = infer_alphabet(sigma, phi)
    for node_count in range(1, max_nodes + 1):
        space = CodeSpace(node_count, labels)
        report = scan_codes(space, sigma, phi, deadline=deadline)
        if report.hit is not None:
            return _materialise_hit(space, report.hit, sigma, phi)
        if not report.exhausted:
            return None
    return None


def random_countermodel(
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    labels: Sequence[str],
    node_count: int,
    tries: int = 200,
    edge_probability: float = 0.3,
    seed: int = 0,
) -> Graph | None:
    """Randomized counter-model search at a fixed size.

    Samples codes from the canonical layer's bit layout (one
    ``rng.random()`` draw per slot, in slot order, so results are
    reproducible by seed) and screens them with the compiled bitmask
    checker; only a hit is materialised as a graph.
    """
    sigma = list(sigma)
    rng = random.Random(seed)
    space = CodeSpace(node_count, list(labels))
    compiled_sigma = compile_constraints(sigma, space.labels)
    (compiled_phi,) = compile_constraints([phi], space.labels)
    for _ in range(tries):
        code = 0
        for slot in range(space.bits):
            if rng.random() < edge_probability:
                code |= 1 << slot
        adj, radj = space.adjacency(code)
        if _code_is_countermodel(adj, radj, compiled_sigma, compiled_phi):
            return _materialise_hit(space, code, sigma, phi)
    return None


class _TypedScanPlan:
    """Compiled machinery for the typed fast-path scan.

    Converts each enumerated instance straight to bitmask adjacency
    over the *constraint alphabet* and screens it with the compiled
    evaluator — no :class:`Graph`, sorts, or path caches allocated per
    candidate.  Node identity is exactly the Lemma 3.1 abstraction's
    (``Instance._node_key``, extensional dedup included), and the
    traversal only follows labels the constraints mention: nodes that
    the reference graph reaches solely through other labels can never
    enter a path image starting at the root, so forward and backward
    images — and hence every constraint verdict — agree with the
    reference checker.  A screen hit is still re-verified against the
    reference checker before it is reported.
    """

    def __init__(
        self,
        schema: Schema,
        sigma: Sequence[PathConstraint],
        phi: PathConstraint,
    ) -> None:
        self.schema = schema
        self.labels = infer_alphabet(list(sigma), phi)
        self._index = {label: i for i, label in enumerate(self.labels)}
        self.compiled_sigma = compile_constraints(list(sigma), self.labels)
        (self.compiled_phi,) = compile_constraints([phi], self.labels)
        # (id(value), id(tau)) -> (value, tau, key).  The enumeration
        # reuses value and type objects across yielded instances; the
        # strong references pin those ids so the memo cannot go stale
        # through GC id reuse.
        self._key_memo: dict[
            tuple[int, int], tuple[object, object, Hashable]
        ] = {}
        self._db_eq: dict[int, bool] = {}
        self._tau_refs: list[object] = []
        self._memo_safe = not self._db_type_nested()

    def _db_type_nested(self) -> bool:
        # ``_node_key`` special-cases ``tau == db_type and value ==
        # entry``, and the entry differs per instance — memoised keys
        # would go stale across instances if a *nested* position could
        # carry a type structurally equal to db_type.  No realistic
        # schema does this; detect it once and fall back to the
        # reference keys when it happens.
        db = self.schema.db_type
        for tau in db.walk():
            if tau is not db and tau == db:
                return True
        for name in self.schema.class_names:
            body = self.schema.resolve(ClassRef(name))
            for tau in body.walk():
                if tau == db:
                    return True
        return False

    def _key(self, inst: Instance, value: object, tau: object) -> Hashable:
        if not self._memo_safe:
            return inst._node_key(value, tau)
        tid = id(tau)
        is_db = self._db_eq.get(tid)
        if is_db is None:
            is_db = tau == self.schema.db_type
            self._db_eq[tid] = is_db
            self._tau_refs.append(tau)
        if is_db and value == inst.entry:
            return "r"
        memo_key = (id(value), tid)
        hit = self._key_memo.get(memo_key)
        if hit is not None:
            return hit[2]
        key = inst._node_key(value, tau)
        self._key_memo[memo_key] = (value, tau, key)
        return key

    def bitmasks(
        self, inst: Instance
    ) -> tuple[list[list[int]], list[list[int]]]:
        """``(adj, radj)`` rows over ``self.labels`` for one instance."""
        label_count = len(self.labels)
        index = self._index
        schema = self.schema
        member_li = index.get(MEMBERSHIP_LABEL)
        rows: list[list[int]] = [[] for _ in range(label_count)]
        nodes: dict[Hashable, int] = {}

        def new_node(key: Hashable) -> int:
            nid = len(nodes)
            nodes[key] = nid
            for row in rows:
                row.append(0)
            return nid

        def visit(nid: int, value: object, tau: object) -> None:
            body = schema.resolve(tau)
            if isinstance(tau, ClassRef):
                value = inst.value_of(value)
            if isinstance(body, SetType):
                if member_li is None:
                    return
                element = body.element
                mask = 0
                for member in value:
                    mask |= 1 << attach(member, element)
                rows[member_li][nid] |= mask
            elif isinstance(body, RecordType):
                for label in body.labels:
                    li = index.get(label)
                    if li is None:
                        continue
                    child = attach(value[label], body.field(label))
                    rows[li][nid] |= 1 << child

        def attach(value: object, tau: object) -> int:
            key = self._key(inst, value, tau)
            nid = nodes.get(key)
            if nid is None:
                nid = new_node(key)
                visit(nid, value, tau)
            return nid

        new_node("r")
        visit(0, inst.entry, schema.db_type)
        node_count = len(nodes)
        radj: list[list[int]] = [[0] * node_count for _ in range(label_count)]
        for li in range(label_count):
            row = rows[li]
            rrow = radj[li]
            for src in range(node_count):
                mask = row[src]
                while mask:
                    low = mask & -mask
                    rrow[low.bit_length() - 1] |= 1 << src
                    mask ^= low
        return rows, radj


@dataclass
class TypedShardReport:
    """Outcome of scanning one stride of the typed instance stream."""

    shard_index: int
    shard_count: int
    #: stream index of the hit (for deterministic cross-shard combine:
    #: the globally first hit is the minimal index over all strides).
    hit_index: int | None
    instance: Instance | None
    graph: Graph | None
    examined: int
    exhausted: bool
    elapsed: float = 0.0


def scan_typed_instances(
    schema: Schema,
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    max_oids: int = 2,
    max_set_size: int = 2,
    limit: int = 5_000,
    shard_index: int = 0,
    shard_count: int = 1,
    deadline: float | None = None,
    compiled: bool = False,
    should_stop: Callable[[], bool] | None = None,
    check_every: int = 32,
) -> TypedShardReport:
    """Scan one stride of ``U_f(Delta)``'s small-instance stream.

    Worker ``k`` of ``shard_count`` checks instances ``k,
    k + shard_count, ...`` of the deterministic enumeration order and
    stops at its first counter-model; combining shards by minimal
    ``hit_index`` reproduces the sequential result exactly.

    With ``compiled`` each candidate is screened by the bitmask fast
    path (:class:`_TypedScanPlan`) and only screen hits pay for the
    reference graph + checker — same hits, a fraction of the work.
    ``deadline`` and ``should_stop`` are polled every ``check_every``
    scanned instances.
    """
    began = time.perf_counter()
    sigma = list(sigma)
    plan = _TypedScanPlan(schema, sigma, phi) if compiled else None
    examined = 0
    for index, instance in enumerate(
        enumerate_instances(
            schema, max_oids=max_oids, max_set_size=max_set_size, limit=limit
        )
    ):
        if index % shard_count != shard_index:
            continue
        if examined % check_every == 0 and (
            (deadline is not None and time.monotonic() > deadline)
            or (should_stop is not None and should_stop())
        ):
            return TypedShardReport(
                shard_index=shard_index,
                shard_count=shard_count,
                hit_index=None,
                instance=None,
                graph=None,
                examined=examined,
                exhausted=False,
                elapsed=time.perf_counter() - began,
            )
        examined += 1
        if plan is not None:
            adj, radj = plan.bitmasks(instance)
            if not _code_is_countermodel(
                adj, radj, plan.compiled_sigma, plan.compiled_phi
            ):
                continue
        graph = instance.to_graph()
        if _is_countermodel(graph, sigma, phi):
            return TypedShardReport(
                shard_index=shard_index,
                shard_count=shard_count,
                hit_index=index,
                instance=instance,
                graph=graph,
                examined=examined,
                exhausted=True,
                elapsed=time.perf_counter() - began,
            )
    return TypedShardReport(
        shard_index=shard_index,
        shard_count=shard_count,
        hit_index=None,
        instance=None,
        graph=None,
        examined=examined,
        exhausted=True,
        elapsed=time.perf_counter() - began,
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
