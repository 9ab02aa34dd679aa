"""Typed database instances ``I = (pi, nu, d)`` (Section 3.2.1).

An instance of a schema assigns each class a finite set of oids, each
oid a value of its class body type, and fixes an entry-point value of
``DBtype``.  Values are modelled as:

* atoms — Python ``int``/``str`` (per the default atomic types);
* oids — :class:`Oid` wrappers (so a string atom can never be confused
  with an object identity);
* sets — ``frozenset`` of values;
* records — ``dict`` label -> value.

:meth:`Instance.to_graph` is the Lemma 3.1 abstraction: the instance
becomes a finite ``sigma(Delta)``-structure satisfying the type
constraint ``Phi(Delta)``, with set/record values deduplicated
extensionally and every node tagged with its sort.  The instance also
evaluates paths *directly* over values, so tests can confirm the
lemma's satisfaction-equivalence mechanically.  Sort names come from
:func:`repro.types.siggen.sort_name`, which reads only DBtype, so an
instance never explores the type graph.

:func:`enumerate_instances` is the bounded stream behind the typed
counter-model search.  It walks :func:`configurations` — one per
choice of oid counts per class, each with its oids' value choices and
its entry choices — and the typed scan walks the same tables as
tuples of choice indices, building an instance only where it needs
one (:meth:`Configuration.instance`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass

from repro.constraints.ast import PathConstraint
from repro.errors import InstanceError
from repro.graph.structure import Graph
from repro.paths import Path
from repro.types.siggen import sort_name
from repro.types.typesys import (
    MEMBERSHIP_LABEL,
    AtomicType,
    ClassRef,
    RecordType,
    Schema,
    SetType,
    Type,
)

Value = object  # atoms, Oid, frozenset, Mapping


class Oid:
    """An object identity: equal only to itself (by key)."""

    __slots__ = ("key",)

    def __init__(self, key: Hashable) -> None:
        object.__setattr__(self, "key", key)

    def __setattr__(self, *args) -> None:
        raise AttributeError("Oid is immutable")

    def __eq__(self, other):
        return isinstance(other, Oid) and other.key == self.key

    def __hash__(self):
        return hash(("oid", self.key))

    def __repr__(self):
        return f"Oid({self.key!r})"


_ATOM_PYTYPES = {"int": int, "string": str}


class Instance:
    """A database instance of an M+ (or M) schema.

    >>> from repro.types.examples import example_3_1_schema
    >>> schema = example_3_1_schema()
    >>> b = Oid("b1")
    >>> inst = Instance(
    ...     schema,
    ...     oids={"Book": {b}, "Person": set()},
    ...     values={b: {"title": "t", "ISBN": "i", "year": frozenset(),
    ...                 "ref": frozenset(), "author": frozenset()}},
    ...     entry={"person": frozenset(), "book": frozenset({b})},
    ... )
    >>> inst.validate()
    """

    def __init__(
        self,
        schema: Schema,
        oids: Mapping[str, Iterable[Oid]],
        values: Mapping[Oid, Value],
        entry: Value,
    ) -> None:
        self._schema = schema
        self._oids = {name: frozenset(members) for name, members in oids.items()}
        for name in schema.class_names:
            self._oids.setdefault(name, frozenset())
        self._values = dict(values)
        self._entry = entry

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def entry(self) -> Value:
        return self._entry

    def oids_of(self, class_name: str) -> frozenset[Oid]:
        return self._oids.get(class_name, frozenset())

    def value_of(self, oid: Oid) -> Value:
        try:
            return self._values[oid]
        except KeyError as exc:
            raise InstanceError(f"oid {oid!r} has no value") from exc

    def class_of(self, oid: Oid) -> str:
        for name, members in self._oids.items():
            if oid in members:
                return name
        raise InstanceError(f"oid {oid!r} belongs to no class")

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`InstanceError` unless this is a legal instance."""
        seen: dict[Oid, str] = {}
        for name, members in self._oids.items():
            if name not in self._schema.class_names:
                raise InstanceError(f"unknown class {name!r} in oid assignment")
            for oid in members:
                if oid in seen:
                    raise InstanceError(
                        f"oid {oid!r} assigned to both {seen[oid]!r} and {name!r}"
                    )
                seen[oid] = name
        for oid, class_name in seen.items():
            if oid not in self._values:
                raise InstanceError(f"oid {oid!r} has no value")
            self._check_value(
                self._values[oid], self._schema.body_of(class_name), f"nu({oid!r})"
            )
        for oid in self._values:
            if oid not in seen:
                raise InstanceError(f"value for unassigned oid {oid!r}")
        self._check_value(self._entry, self._schema.db_type, "entry point")

    def _check_value(self, value: Value, tau: Type, where: str) -> None:
        if isinstance(tau, AtomicType):
            pytype = _ATOM_PYTYPES.get(tau.name)
            ok = pytype is not None and isinstance(value, pytype)
            if isinstance(value, bool):  # bool is an int subtype; reject
                ok = False
            if not ok:
                raise InstanceError(f"{where}: {value!r} is not a {tau!r}")
        elif isinstance(tau, ClassRef):
            if not isinstance(value, Oid) or value not in self.oids_of(tau.name):
                raise InstanceError(
                    f"{where}: {value!r} is not an oid of class {tau.name}"
                )
        elif isinstance(tau, SetType):
            if not isinstance(value, (set, frozenset)):
                raise InstanceError(f"{where}: {value!r} is not a set")
            for member in value:
                self._check_value(member, tau.element, f"{where} member")
        elif isinstance(tau, RecordType):
            if not isinstance(value, Mapping):
                raise InstanceError(f"{where}: {value!r} is not a record")
            if set(value.keys()) != set(tau.labels):
                raise InstanceError(
                    f"{where}: record labels {sorted(value.keys())} do not "
                    f"match {sorted(tau.labels)}"
                )
            for label, field in value.items():
                self._check_value(field, tau.field(label), f"{where}.{label}")
        else:  # pragma: no cover - exhaustive over the AST
            raise InstanceError(f"unknown type {tau!r}")

    # -- the Lemma 3.1 abstraction ------------------------------------------

    def _node_key(self, value: Value, tau: Type) -> Hashable:
        """The canonical graph node for a value at a type.

        Oids keep their identity; set and record values are
        deduplicated extensionally *per type*, mirroring the
        extensionality clauses of Phi(Delta).  The entry-point value at
        DBtype is always the root node, so a nested value that happens
        to equal the entry point coincides with it extensionally.
        """
        if tau == self._schema.db_type and value == self._entry:
            return "r"
        if isinstance(tau, ClassRef):
            return ("oid", value.key)  # type: ignore[union-attr]
        if isinstance(tau, AtomicType):
            return ("atom", tau.name, value)
        name = sort_name(self._schema, tau)
        if isinstance(tau, SetType):
            members = frozenset(
                self._node_key(member, tau.element) for member in value  # type: ignore[union-attr]
            )
            return ("set", name, members)
        if isinstance(tau, RecordType):
            fields = tuple(
                sorted(
                    (label, self._node_key(value[label], tau.field(label)))  # type: ignore[index]
                    for label in tau.labels
                )
            )
            return ("rec", name, fields)
        raise InstanceError(f"unknown type {tau!r}")

    def to_graph(self) -> Graph:
        """The finite sigma(Delta)-structure of Lemma 3.1.

        The entry point becomes the root; every oid, atom, set value
        and record value becomes a node tagged with its sort; record
        fields become labeled edges and set members become edges with
        the membership label.
        """
        graph = Graph(root="r")
        graph.set_sort("r", sort_name(self._schema, self._schema.db_type))
        done: set[Hashable] = set()

        def visit(node: Hashable, value: Value, tau: Type) -> None:
            if node in done:
                return
            done.add(node)
            body = self._schema.resolve(tau)
            if isinstance(tau, ClassRef):
                value = self.value_of(value)  # type: ignore[arg-type]
            if isinstance(body, AtomicType):
                return
            if isinstance(body, SetType):
                for member in value:  # type: ignore[union-attr]
                    child = attach(member, body.element)
                    graph.add_edge(node, MEMBERSHIP_LABEL, child)
            elif isinstance(body, RecordType):
                for label in body.labels:
                    child = attach(value[label], body.field(label))  # type: ignore[index]
                    graph.add_edge(node, label, child)

        def attach(value: Value, tau: Type) -> Hashable:
            node = self._node_key(value, tau)
            if node not in done:
                graph.add_node(node, sort=sort_name(self._schema, tau))
                visit(node, value, tau)
            return node

        # Root first (under its own name), then any oids not reachable
        # from the entry point (they are still elements of |G|).
        visit("r", self._entry, self._schema.db_type)
        for class_name in sorted(self._schema.class_names):
            for oid in sorted(self.oids_of(class_name), key=lambda o: repr(o.key)):
                attach(oid, ClassRef(class_name))
        return graph

    # -- direct path evaluation (used to verify Lemma 3.1 in tests) ----------

    def eval_path(self, path: Path | str) -> frozenset[Hashable]:
        """Evaluate a path over *values*, returning canonical node keys.

        Semantically identical to ``self.to_graph().eval_path(path)``
        but computed without building the graph; the agreement of the
        two is the checkable content of Lemma 3.1.
        """
        path = Path.coerce(path)
        frontier: list[tuple[Value, Type]] = [(self._entry, self._schema.db_type)]
        for label in path:
            nxt: list[tuple[Value, Type]] = []
            for value, tau in frontier:
                body = self._schema.resolve(tau)
                if isinstance(tau, ClassRef):
                    value = self.value_of(value)  # type: ignore[arg-type]
                if isinstance(body, SetType) and label == MEMBERSHIP_LABEL:
                    nxt.extend((member, body.element) for member in value)  # type: ignore[union-attr]
                elif isinstance(body, RecordType) and label in body:
                    nxt.append((value[label], body.field(label)))  # type: ignore[index]
            frontier = nxt
            if not frontier:
                break
        return frozenset(self._node_key(value, tau) for value, tau in frontier)

    def satisfies(self, constraint: PathConstraint) -> bool:
        """Constraint satisfaction evaluated directly on the instance.

        Defined through the canonical graph (the paper defines
        ``I |= phi`` via the abstraction; see [10]); exposed here for
        convenience and exercised against direct path evaluation in the
        test suite.
        """
        from repro.checking.satisfaction import check

        return check(self.to_graph(), constraint).holds


# -- bounded instance enumeration (typed countermodel search) --------------


def _enumerate_values(
    tau: Type,
    oid_pool: Mapping[str, tuple[Oid, ...]],
    atom_pool: Mapping[str, tuple[Value, ...]],
    max_set_size: int,
) -> Iterator[Value]:
    if isinstance(tau, AtomicType):
        yield from atom_pool.get(tau.name, ())
    elif isinstance(tau, ClassRef):
        yield from oid_pool.get(tau.name, ())
    elif isinstance(tau, SetType):
        members = list(
            _enumerate_values(tau.element, oid_pool, atom_pool, max_set_size)
        )
        for size in range(min(max_set_size, len(members)) + 1):
            for combo in itertools.combinations(members, size):
                yield frozenset(combo)
    elif isinstance(tau, RecordType):
        per_field = [
            list(
                _enumerate_values(
                    tau.field(label), oid_pool, atom_pool, max_set_size
                )
            )
            for label in tau.labels
        ]
        for combo in itertools.product(*per_field):
            yield dict(zip(tau.labels, combo))


@dataclass(frozen=True)
class Configuration:
    """One choice of oid counts per class, with its value tables.

    Its instances are the product of one value choice per oid (in
    :attr:`oids` order) and one entry choice, the entry varying
    fastest; :meth:`instance` builds the one at a given position of
    that product.
    """

    schema: Schema
    #: the oids of each class.
    pool: Mapping[str, tuple[Oid, ...]]
    #: every oid, classes in sorted order.
    oids: tuple[Oid, ...]
    #: the class body each oid's value has.
    bodies: tuple[Type, ...]
    #: each oid's candidate values.
    value_choices: tuple[tuple[Value, ...], ...]
    #: the candidate entry-point values.
    entries: tuple[Value, ...]

    @property
    def size(self) -> int:
        """How many instances the configuration has."""
        return math.prod(map(len, self.value_choices)) * len(self.entries)

    def instance(self, position: int) -> Instance:
        """The instance at ``position`` of the configuration's order."""
        position, entry = divmod(position, len(self.entries))
        picks = []
        for choices in reversed(self.value_choices):
            position, choice = divmod(position, len(choices))
            picks.append(choices[choice])
        picks.reverse()
        return Instance(
            self.schema,
            oids=self.pool,
            values=dict(zip(self.oids, picks)),
            entry=self.entries[entry],
        )


def configurations(
    schema: Schema,
    max_oids: int = 1,
    atom_pool: Mapping[str, tuple[Value, ...]] | None = None,
    max_set_size: int = 2,
) -> Iterator[Configuration]:
    """The configurations of :func:`enumerate_instances`, in its order.

    Oid counts run over ``0..max_oids`` per class, classes sorted by
    name, the last class's count varying fastest.  Oids of one class
    share one tuple of value choices.
    """
    if atom_pool is None:
        atom_pool = {"int": (0,), "string": ("s",)}
    class_names = sorted(schema.class_names)
    for counts in itertools.product(
        range(max_oids + 1), repeat=len(class_names)
    ):
        pool = {
            name: tuple(Oid(f"{name}#{i}") for i in range(count))
            for name, count in zip(class_names, counts)
        }
        choices = {
            name: tuple(
                _enumerate_values(
                    schema.body_of(name), pool, atom_pool, max_set_size
                )
            )
            for name in class_names
            if pool[name]
        }
        owners = [name for name in class_names for _ in pool[name]]
        yield Configuration(
            schema,
            pool,
            tuple(oid for name in class_names for oid in pool[name]),
            tuple(schema.body_of(name) for name in owners),
            tuple(choices[name] for name in owners),
            tuple(
                _enumerate_values(
                    schema.db_type, pool, atom_pool, max_set_size
                )
            ),
        )


def enumerate_instances(
    schema: Schema,
    max_oids: int = 1,
    atom_pool: Mapping[str, tuple[Value, ...]] | None = None,
    max_set_size: int = 2,
    limit: int | None = None,
) -> Iterator[Instance]:
    """Enumerate small instances of a schema (a bounded model finder).

    For every assignment of up to ``max_oids`` oids per class and every
    combination of values for oids and the entry point (atoms drawn
    from ``atom_pool``, sets capped at ``max_set_size``), yield the
    instance, configuration by configuration (:func:`configurations`).
    The count grows combinatorially — callers pass a ``limit``; the
    first instance is yielded before the limit is read.  Instances are
    well-typed by construction.
    """
    emitted = 0
    for config in configurations(schema, max_oids, atom_pool, max_set_size):
        for assignment in itertools.product(*config.value_choices):
            values = dict(zip(config.oids, assignment))
            for entry in config.entries:
                yield Instance(
                    schema, oids=config.pool, values=values, entry=entry
                )
                emitted += 1
                if limit is not None and emitted >= limit:
                    return
