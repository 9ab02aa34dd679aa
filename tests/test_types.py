"""Tests for type ASTs, schemas, signatures and Paths(Delta)."""

from __future__ import annotations

import pytest

from repro.errors import ModelRestrictionError, PathNotInSchemaError, SchemaError
from repro.paths import Path
from repro.types import (
    AtomicType,
    ClassRef,
    MEMBERSHIP_LABEL,
    RecordType,
    Schema,
    SchemaSignature,
    SetType,
)
from repro.types.examples import (
    chain_m_schema,
    delta1_schema,
    example_3_1_schema,
    feature_structure_schema,
    random_m_schema,
)

STRING = AtomicType("string")
INT = AtomicType("int")


class TestTypeAst:
    def test_equality(self):
        assert AtomicType("int") == AtomicType("int")
        assert AtomicType("int") != AtomicType("string")
        assert ClassRef("C") != AtomicType("C")
        assert SetType(ClassRef("C")) == SetType(ClassRef("C"))

    def test_record_field_order_irrelevant(self):
        r1 = RecordType([("a", STRING), ("b", INT)])
        r2 = RecordType([("b", INT), ("a", STRING)])
        assert r1 == r2
        assert hash(r1) == hash(r2)

    def test_record_duplicate_label(self):
        with pytest.raises(SchemaError):
            RecordType([("a", STRING), ("a", INT)])

    def test_record_membership_label_reserved(self):
        with pytest.raises(SchemaError):
            RecordType([(MEMBERSHIP_LABEL, STRING)])

    def test_record_field_lookup(self):
        record = RecordType([("a", STRING)])
        assert record.field("a") == STRING
        assert "a" in record and "b" not in record

    def test_walk(self):
        tau = RecordType([("s", SetType(ClassRef("C")))])
        kinds = [type(t).__name__ for t in tau.walk()]
        assert kinds == ["RecordType", "SetType", "ClassRef"]

    def test_immutability(self):
        with pytest.raises(AttributeError):
            AtomicType("int").name = "string"  # type: ignore[misc]


class TestSchemaValidation:
    def test_class_body_must_be_structural(self):
        with pytest.raises(SchemaError):
            Schema({"C": STRING}, RecordType([("x", ClassRef("C"))]))
        with pytest.raises(SchemaError):
            Schema({"C": ClassRef("C")}, RecordType([("x", ClassRef("C"))]))

    def test_db_type_must_be_structural(self):
        with pytest.raises(SchemaError):
            Schema({}, STRING)

    def test_dangling_class(self):
        with pytest.raises(SchemaError):
            Schema({}, RecordType([("x", ClassRef("Ghost"))]))

    def test_unknown_atomic(self):
        with pytest.raises(SchemaError):
            Schema({}, RecordType([("x", AtomicType("float"))]))

    def test_body_of(self, bib_schema):
        assert bib_schema.body_of("Book").is_record()
        with pytest.raises(SchemaError):
            bib_schema.body_of("Ghost")

    def test_resolve(self, bib_schema):
        assert bib_schema.resolve(ClassRef("Book")) == bib_schema.body_of("Book")
        assert bib_schema.resolve(STRING) == STRING


class TestModelMRestriction:
    def test_example_3_1_is_m_plus_only(self, bib_schema):
        assert not bib_schema.is_m_schema()
        with pytest.raises(ModelRestrictionError):
            bib_schema.require_m()

    def test_feature_structures_are_m(self, fs_schema):
        assert fs_schema.is_m_schema()
        assert fs_schema.require_m() is fs_schema

    def test_nested_record_not_m(self):
        inner = RecordType([("x", STRING)])
        schema = Schema({"C": RecordType([("r", inner)])},
                        RecordType([("c", ClassRef("C"))]),)
        assert not schema.is_m_schema()

    def test_generated_m_schemas_are_m(self):
        assert chain_m_schema(4).is_m_schema()
        assert random_m_schema(5, 3, seed=1).is_m_schema()

    def test_delta1_is_m_plus_only(self, gadget_schema):
        assert not gadget_schema.is_m_schema()


class TestSignature:
    def test_example_3_1_signature(self, bib_schema):
        sig = SchemaSignature(bib_schema)
        # E(Delta) per Section 3.2.2's example, with membership added.
        assert sig.edge_labels == frozenset(
            {
                "person", "book", "name", "SSN", "wrote", "age", "title",
                "ISBN", "year", "ref", "author", MEMBERSHIP_LABEL,
            }
        )
        # T(Delta): DBtype, classes, atomics and the reachable set types.
        assert {"Person", "Book", "string", "DBtype"} <= sig.type_names
        assert any(name.startswith("{") for name in sig.type_names)

    def test_paths_validity(self, bib_schema):
        sig = SchemaSignature(bib_schema)
        member = MEMBERSHIP_LABEL
        assert sig.is_valid_path(f"book.{member}.author.{member}.name")
        assert sig.is_valid_path("")
        assert not sig.is_valid_path("book.author")  # needs membership hop
        assert not sig.is_valid_path(f"book.{member}.name")

    def test_type_of_path(self, fs_schema):
        sig = SchemaSignature(fs_schema)
        assert sig.type_of_path("sentence") == ClassRef("Cat")
        assert sig.type_of_path("sentence.head.head") == ClassRef("Cat")
        assert sig.type_of_path("sentence.agreement.number") == STRING
        assert sig.type_of_path("sentence.bogus") is None

    def test_require_valid_path(self, fs_schema):
        sig = SchemaSignature(fs_schema)
        with pytest.raises(PathNotInSchemaError):
            sig.require_valid_path("sentence.bogus")

    def test_paths_nfa_agrees_with_type_of_path(self, bib_schema):
        sig = SchemaSignature(bib_schema)
        nfa = sig.paths_nfa()
        for path in sig.sample_paths(3):
            assert nfa.accepts(path.labels) == sig.is_valid_path(path)
        assert not nfa.accepts(["book", "author"])

    def test_sample_paths_are_valid_and_complete(self, fs_schema):
        sig = SchemaSignature(fs_schema)
        sampled = set(sig.sample_paths(2))
        assert Path.parse("sentence.head") in sampled
        assert all(sig.is_valid_path(p) for p in sampled)
        # Completeness at depth 2: DBtype(2 fields) -> Cat(3 fields).
        assert len([p for p in sampled if len(p) == 2]) == 6

    def test_delta1_signature(self, gadget_schema):
        sig = SchemaSignature(gadget_schema)
        assert sig.edge_labels == frozenset(
            {"l", "a", "b", "K", "u", "v", MEMBERSHIP_LABEL}
        )
        assert sig.is_valid_path("l.K.K.K.a.u.v")
        assert sig.is_valid_path(f"l.b.{MEMBERSHIP_LABEL}.u")
        assert not sig.is_valid_path("l.a.a")

    def test_delta1_reserved_labels(self):
        with pytest.raises(ValueError):
            delta1_schema(["a", "x"])

    def test_root_type_name(self, bib_schema):
        sig = SchemaSignature(bib_schema)
        assert sig.sort_name(sig.root_type) == "DBtype"

    def test_chain_schema_paths(self):
        schema = chain_m_schema(3)
        sig = SchemaSignature(schema)
        assert sig.is_valid_path("f1.f2.f3.back.f2")
        assert not sig.is_valid_path("f2")
