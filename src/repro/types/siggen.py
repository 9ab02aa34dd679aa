"""From a schema to its signature and Paths(Delta) (Section 3.2.2).

A schema ``Delta`` determines:

* ``E(Delta)`` — the binary relation symbols: record labels reachable
  from DBtype plus the distinguished membership relation when a set
  type is reachable;
* ``T(Delta)`` — the unary relation symbols: one sort per reachable
  type (DBtype, classes, atomic types, set and record types);
* the *type graph* — a deterministic transition system on sorts, whose
  language from DBtype is exactly ``Paths(Delta)``, the set of label
  sequences realizable in some structure of ``U(Delta)``.

Because the type graph is deterministic, every path in
``Paths(Delta)`` has a well-defined *type*: the sort it lands on.  The
typed-M decider leans on this (Lemma 4.6: over M, every valid path
reaches exactly one node in every structure of ``U(Delta)``).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.automata.nfa import NFA
from repro.errors import PathNotInSchemaError
from repro.paths import Path
from repro.types.typesys import (
    MEMBERSHIP_LABEL,
    ClassRef,
    Schema,
    SetType,
    Type,
)


def sort_name(schema: Schema, state: Type) -> str:
    """The display name of a sort in T(Delta): ``DBtype`` for any type
    equal to the schema's DBtype, the class name for a class, and the
    type's own rendering otherwise.

    It reads nothing but DBtype, so typed instances name their nodes'
    sorts without exploring the type graph.
    """
    if state == schema.db_type:
        return "DBtype"
    if isinstance(state, ClassRef):
        return state.name
    return repr(state)


class SchemaSignature:
    """The derived signature ``sigma(Delta) = (r, E(Delta), T(Delta))``.

    States of the type graph are :class:`Type` values; class references
    are kept as states in their own right (so sorts line up with class
    names), and their transitions come from their bodies.
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._transitions: dict[tuple[Type, str], Type] = {}
        self._states: set[Type] = set()
        self._explore()

    def _successors(self, state: Type) -> Iterator[tuple[str, Type]]:
        body = self._schema.resolve(state)
        if isinstance(body, SetType):
            yield (MEMBERSHIP_LABEL, body.element)
        elif body.is_record():
            for label, tau in body.fields:  # type: ignore[attr-defined]
                yield (label, tau)
        # atomic types have no outgoing edges

    def _explore(self) -> None:
        start = self._schema.db_type
        stack = [start]
        self._states.add(start)
        while stack:
            state = stack.pop()
            for label, target in self._successors(state):
                self._transitions[(state, label)] = target
                if target not in self._states:
                    self._states.add(target)
                    stack.append(target)

    # -- signature components ---------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def root_type(self) -> Type:
        return self._schema.db_type

    @property
    def edge_labels(self) -> frozenset[str]:
        """E(Delta): the labels usable in paths over this schema."""
        return frozenset(label for (_, label) in self._transitions)

    @property
    def states(self) -> frozenset[Type]:
        """The reachable sorts (as Type values)."""
        return frozenset(self._states)

    def sort_name(self, state: Type) -> str:
        """The display name of a sort in T(Delta)."""
        return sort_name(self._schema, state)

    @property
    def type_names(self) -> frozenset[str]:
        """T(Delta) as display names."""
        return frozenset(self.sort_name(s) for s in self._states)

    # -- the Paths(Delta) automaton ------------------------------------------

    def transition(self, state: Type, label: str) -> Type | None:
        return self._transitions.get((state, label))

    def paths_nfa(self) -> NFA:
        """The Paths(Delta) automaton: the type graph on sort names,
        every state accepting.  It is deterministic, and ready for
        products with query automata and the ``post*`` saturation
        engine."""
        nfa = NFA(initial=self.sort_name(self.root_type))
        for (src, label), dst in self._transitions.items():
            nfa.add_transition(
                self.sort_name(src), label, self.sort_name(dst)
            )
        for state in self._states:
            nfa.add_final(self.sort_name(state))
        return nfa

    def type_of_path(self, path: Path | str) -> Type | None:
        """The sort a valid path lands on; None when the path is not in
        Paths(Delta)."""
        path = Path.coerce(path)
        state = self.root_type
        for label in path:
            nxt = self._transitions.get((state, label))
            if nxt is None:
                return None
            state = nxt
        return state

    def is_valid_path(self, path: Path | str) -> bool:
        """Membership in Paths(Delta)."""
        return self.type_of_path(path) is not None

    def require_valid_path(self, path: Path | str) -> Type:
        """Type of a path, raising :class:`PathNotInSchemaError` when
        the path is not in Paths(Delta)."""
        path = Path.coerce(path)
        state = self.type_of_path(path)
        if state is None:
            raise PathNotInSchemaError(
                f"path {path} is not in Paths(Delta) for this schema"
            )
        return state

    def sample_paths(self, max_length: int) -> Iterator[Path]:
        """All members of Paths(Delta) up to a length bound, shortlex
        (workload generation for the typed benchmarks)."""
        frontier: list[tuple[tuple[str, ...], Type]] = [((), self.root_type)]
        yield Path.empty()
        for _ in range(max_length):
            nxt: list[tuple[tuple[str, ...], Type]] = []
            for word, state in frontier:
                for label in sorted(
                    lab for (st, lab) in self._transitions if st == state
                ):
                    target = self._transitions[(state, label)]
                    extended = word + (label,)
                    yield Path(extended)
                    nxt.append((extended, target))
            frontier = nxt

    def __repr__(self) -> str:
        return (
            f"<SchemaSignature sorts={len(self._states)} "
            f"labels={sorted(self.edge_labels)}>"
        )
