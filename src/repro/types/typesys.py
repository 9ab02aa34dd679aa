"""Type ASTs and schemas for the models M+ and M (Section 3.2/3.3).

Types over a class set C::

    tau ::= b | C | {tau} | [l1: tau1, ..., ln: taun]        (M+)

    t   ::= b | C
    tau ::= t | [l1: t1, ..., ln: tn]                        (M)

A schema is ``Delta = (C, nu, DBtype)`` where ``nu`` maps every class
to a type that is neither atomic nor a bare class, and ``DBtype`` is
likewise a proper structural type (the type of the persistent entry
point).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.errors import ModelRestrictionError, SchemaError
from repro.paths import Path

#: The distinguished edge label for set membership (the paper uses the
#: symbol for set membership as a binary relation).
MEMBERSHIP_LABEL = "member"

#: Atomic types available by default (the paper's examples use these).
DEFAULT_ATOMIC_TYPES = ("int", "string")


class Type:
    """Base class of the type AST.  Instances are immutable/hashable."""

    __slots__ = ()

    def is_atomic(self) -> bool:
        return isinstance(self, AtomicType)

    def is_class(self) -> bool:
        return isinstance(self, ClassRef)

    def is_set(self) -> bool:
        return isinstance(self, SetType)

    def is_record(self) -> bool:
        return isinstance(self, RecordType)

    def children(self) -> Iterator["Type"]:
        """Immediate component types."""
        return iter(())

    def walk(self) -> Iterator["Type"]:
        """This type and all structural components (not through class
        references — those are resolved by the schema)."""
        yield self
        for child in self.children():
            yield from child.walk()


class AtomicType(Type):
    """A base type such as ``int`` or ``string``."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __setattr__(self, *args) -> None:  # immutability
        raise AttributeError("AtomicType is immutable")

    def __eq__(self, other):
        return isinstance(other, AtomicType) and other.name == self.name

    def __hash__(self):
        return hash(("atomic", self.name))

    def __repr__(self):
        return self.name


class ClassRef(Type):
    """A reference to a named class."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __setattr__(self, *args) -> None:
        raise AttributeError("ClassRef is immutable")

    def __eq__(self, other):
        return isinstance(other, ClassRef) and other.name == self.name

    def __hash__(self):
        return hash(("class", self.name))

    def __repr__(self):
        return self.name


class SetType(Type):
    """The set type ``{element}`` (M+ only)."""

    __slots__ = ("element",)

    def __init__(self, element: Type) -> None:
        if not isinstance(element, Type):
            raise SchemaError(f"set element must be a Type, got {element!r}")
        object.__setattr__(self, "element", element)

    def __setattr__(self, *args) -> None:
        raise AttributeError("SetType is immutable")

    def children(self) -> Iterator[Type]:
        yield self.element

    def __eq__(self, other):
        return isinstance(other, SetType) and other.element == self.element

    def __hash__(self):
        return hash(("set", self.element))

    def __repr__(self):
        return "{" + repr(self.element) + "}"


class RecordType(Type):
    """The record type ``[l1: tau1, ..., ln: taun]``.

    Field order is preserved for display but irrelevant to equality
    (records are compared as label -> type maps, like the paper's
    value semantics).
    """

    __slots__ = ("fields", "_map")

    def __init__(self, fields: Mapping[str, Type] | Iterable[tuple[str, Type]]):
        if isinstance(fields, Mapping):
            items = tuple(fields.items())
        else:
            items = tuple(fields)
        seen: set[str] = set()
        for label, tau in items:
            Path.single(label)  # labels must be valid edge labels
            if label == MEMBERSHIP_LABEL:
                raise SchemaError(
                    f"record label {label!r} collides with the membership "
                    "relation"
                )
            if label in seen:
                raise SchemaError(f"duplicate record label {label!r}")
            if not isinstance(tau, Type):
                raise SchemaError(f"field {label!r} must map to a Type")
            seen.add(label)
        object.__setattr__(self, "fields", items)
        object.__setattr__(self, "_map", dict(items))

    def __setattr__(self, *args) -> None:
        raise AttributeError("RecordType is immutable")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.fields)

    def field(self, label: str) -> Type:
        return self._map[label]

    def __contains__(self, label: str) -> bool:
        return label in self._map

    def children(self) -> Iterator[Type]:
        for _, tau in self.fields:
            yield tau

    def __eq__(self, other):
        return isinstance(other, RecordType) and other._map == self._map

    def __hash__(self):
        return hash(("record", frozenset(self._map.items())))

    def __repr__(self):
        inner = ", ".join(f"{label}: {tau!r}" for label, tau in self.fields)
        return f"[{inner}]"


def _is_m_component(tau: Type) -> bool:
    """An M record field: atomic or class only."""
    return tau.is_atomic() or tau.is_class()


class Schema:
    """A schema ``Delta = (C, nu, DBtype)`` of M+ (or M).

    >>> book = RecordType([("title", AtomicType("string")),
    ...                    ("author", SetType(ClassRef("Person")))])
    >>> person = RecordType([("name", AtomicType("string")),
    ...                      ("wrote", SetType(ClassRef("Book")))])
    >>> delta = Schema({"Book": book, "Person": person},
    ...                RecordType([("book", SetType(ClassRef("Book"))),
    ...                            ("person", SetType(ClassRef("Person")))]))
    >>> delta.is_m_schema()
    False
    """

    def __init__(
        self,
        classes: Mapping[str, Type],
        db_type: Type,
        atomic_types: Iterable[str] = DEFAULT_ATOMIC_TYPES,
    ) -> None:
        self._classes = dict(classes)
        self._db_type = db_type
        self._atomic_names = frozenset(atomic_types)
        self._validate()

    def _validate(self) -> None:
        if self._db_type.is_atomic() or self._db_type.is_class():
            raise SchemaError(
                "DBtype must be a set or record type (Section 3.2.1)"
            )
        for name, body in self._classes.items():
            if body.is_atomic() or body.is_class():
                raise SchemaError(
                    f"nu({name}) must be a set or record type, got {body!r}"
                )
        for tau in self.all_types():
            if tau.is_class() and tau.name not in self._classes:  # type: ignore[attr-defined]
                raise SchemaError(f"dangling class reference {tau!r}")
            if tau.is_atomic() and tau.name not in self._atomic_names:  # type: ignore[attr-defined]
                raise SchemaError(f"unknown atomic type {tau!r}")

    # -- accessors ----------------------------------------------------

    @property
    def classes(self) -> dict[str, Type]:
        """The class map nu (a copy)."""
        return dict(self._classes)

    @property
    def class_names(self) -> frozenset[str]:
        return frozenset(self._classes)

    @property
    def db_type(self) -> Type:
        return self._db_type

    @property
    def atomic_names(self) -> frozenset[str]:
        return self._atomic_names

    def body_of(self, name: str) -> Type:
        """nu(C) for a class name."""
        try:
            return self._classes[name]
        except KeyError as exc:
            raise SchemaError(f"unknown class {name!r}") from exc

    def resolve(self, tau: Type) -> Type:
        """Resolve a bare class reference to its body; other types pass
        through.  One level only (bodies cannot be bare classes)."""
        if isinstance(tau, ClassRef):
            return self.body_of(tau.name)
        return tau

    def all_types(self) -> Iterator[Type]:
        """Every type expression occurring in the schema."""
        yield from self._db_type.walk()
        for body in self._classes.values():
            yield from body.walk()

    # -- model restrictions --------------------------------------------

    def is_m_schema(self) -> bool:
        """Membership in the restricted model M (Section 3.3): no set
        types, and record fields hold only atomics/classes."""
        for tau in self.all_types():
            if tau.is_set():
                return False
            if tau.is_record():
                if not all(_is_m_component(f) for f in tau.children()):
                    return False
        # DBtype and class bodies must be records (tau ::= t | [l:t...],
        # and bodies/DBtype cannot be bare t).
        if not self._db_type.is_record():
            return False
        return all(body.is_record() for body in self._classes.values())

    def require_m(self) -> "Schema":
        """Raise unless this is an M schema; returns self for chaining."""
        if not self.is_m_schema():
            raise ModelRestrictionError(
                "schema uses set types or non-flat records and therefore "
                "is not a schema of the restricted model M"
            )
        return self

    def __repr__(self) -> str:
        classes = ", ".join(sorted(self._classes))
        return f"<Schema classes=[{classes}] db_type={self._db_type!r}>"
