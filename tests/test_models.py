"""Tests for bounded counter-model search."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checking import check
from repro.checking.engine import satisfies_all
from repro.constraints import parse_constraint, parse_constraints
from repro.constraints.ast import (
    Direction,
    PathConstraint,
    backward,
    forward,
)
from repro.diffcheck.generators import generate_instance
from repro.monoids.presentation import MonoidPresentation
from repro.reasoning import ImplicationProblem, solve
from repro.paths import Path
from repro.reasoning.models import (
    _is_countermodel,
    all_graphs,
    brute_force_countermodel,
    find_countermodel,
    find_typed_countermodel,
    infer_alphabet,
    reference_typed_scan,
    scan_codes,
    scan_typed_instances,
)
from repro.reductions.monoid_to_mplus import encode_mplus
from repro.reductions.monoid_to_pwk import encode_pwk
from repro.truth import Trilean
from repro.types.examples import example_3_1_schema
from repro.types.instances import enumerate_instances
from repro.types.siggen import SchemaSignature
from repro.types.typecheck import check_type_constraint
from repro.types.typesys import (
    AtomicType,
    ClassRef,
    RecordType,
    Schema,
    SetType,
)


def _one_label_constraints():
    """Constraints over the alphabet {a}: paths a^0..a^2."""
    path = st.integers(0, 2).map(lambda k: ".".join("a" * k))
    return st.builds(
        PathConstraint,
        path,
        path,
        path,
        st.sampled_from(list(Direction)),
    )


class TestInferAlphabet:
    def test_union_of_sigma_and_phi_labels(self):
        sigma = parse_constraints("a => b\nK :: c ~> a")
        phi = parse_constraint("d => a")
        assert infer_alphabet(sigma, phi) == ("K", "a", "b", "c", "d")

    def test_sorted_and_deduplicated(self):
        sigma = parse_constraints("b => a\na => b")
        assert infer_alphabet(sigma) == ("a", "b")

    def test_phi_optional(self):
        assert infer_alphabet(parse_constraints("x => y")) == ("x", "y")


class TestExhaustiveSearch:
    def test_all_graphs_count(self):
        # 2 labels, 2 nodes: 2^(2*4) = 256 graphs.
        assert sum(1 for _ in all_graphs(2, ["a", "b"])) == 256

    def test_finds_countermodel(self):
        sigma = parse_constraints("a => b")
        phi = parse_constraint("b => a")
        graph = find_countermodel(sigma, phi, max_nodes=2)
        assert graph is not None
        assert satisfies_all(graph, sigma)
        assert not check(graph, phi).holds

    def test_none_for_implied(self):
        sigma = parse_constraints("a => b")
        phi = parse_constraint("a.c => b.c")
        assert find_countermodel(sigma, phi, max_nodes=2) is None

    def test_labels_inferred(self):
        sigma = parse_constraints("a => b")
        graph = find_countermodel(sigma, parse_constraint("b => c"))
        assert graph is not None
        assert graph.labels() <= {"a", "b", "c"}

    def test_backward_constraint_countermodel(self):
        sigma = []
        phi = parse_constraint("p :: a ~> w")
        graph = find_countermodel(sigma, phi, max_nodes=2)
        assert graph is not None
        assert not check(graph, phi).holds


class TestBruteForceOracle:
    def test_agrees_with_canonical_search_on_hit(self):
        sigma = parse_constraints("a => b")
        phi = parse_constraint("b => a")
        brute = brute_force_countermodel(sigma, phi, max_nodes=2)
        fast = find_countermodel(sigma, phi, max_nodes=2)
        assert brute is not None and fast is not None
        for graph in (brute, fast):
            assert satisfies_all(graph, sigma)
            assert not check(graph, phi).holds

    def test_agrees_with_canonical_search_on_implied(self):
        sigma = parse_constraints("a => b")
        phi = parse_constraint("a.c => b.c")
        assert brute_force_countermodel(sigma, phi, max_nodes=2) is None
        assert find_countermodel(sigma, phi, max_nodes=2) is None


class TestTableauCompleteness:
    """The tableau search finds a counter-model iff the brute-force
    oracle does, and one with as few nodes."""

    @pytest.mark.parametrize(
        "fragment", ["P_w", "P_w+egd", "P_w(K)", "local-extent", "P_c"]
    )
    def test_agrees_with_oracle_on_fuzz_instances(self, fragment):
        for seed in range(3):
            for index in range(12):
                inst = generate_instance(fragment, seed, index)
                fast = find_countermodel(inst.sigma, inst.phi, max_nodes=2)
                brute = brute_force_countermodel(
                    inst.sigma, inst.phi, max_nodes=2
                )
                assert (fast is None) == (brute is None), (seed, index)
                if fast is not None:
                    assert fast.node_count() == brute.node_count()

    @settings(max_examples=60, deadline=None)
    @given(
        sigma=st.lists(_one_label_constraints(), max_size=3),
        phi=_one_label_constraints(),
    )
    def test_agrees_with_oracle_on_one_label_at_three_nodes(
        self, sigma, phi
    ):
        # One label keeps the oracle at 2 + 2^4 + 2^9 graphs.
        fast = find_countermodel(sigma, phi, labels=("a",), max_nodes=3)
        brute = brute_force_countermodel(
            sigma, phi, labels=("a",), max_nodes=3
        )
        assert (fast is None) == (brute is None)
        if fast is not None:
            assert fast.node_count() == brute.node_count()

    @pytest.mark.parametrize(
        "sigma_text,phi_text,nodes",
        [
            # The semidecide benchmark's five race templates.
            ("K :: a => a.a\nK :: a => a", "K :: a => a", None),
            ("b :: a => a.a\nb ~> a", "b ~> a", None),
            ("a :: b => b.b", "a :: b ~> a", 2),
            ("K :: a => a.a", "K :: a => K", 2),
            ("a => a.b\na ~> b", "a ~> b", None),
            # The portfolio benchmark's and the cache benchmark's
            # instances: only a 3-node model refutes them.
            (
                "() => K\nK :: () => a.a.a\nK :: a.a.a => ()\na :: a => a",
                "K :: a => ()",
                3,
            ),
            ("b => b.a\nb :: a.a ~> b", "b.b => b.b.b", 3),
        ],
    )
    def test_known_answers_at_three_nodes(self, sigma_text, phi_text, nodes):
        sigma = parse_constraints(sigma_text)
        phi = parse_constraint(phi_text)
        report = scan_codes(sigma, phi, infer_alphabet(sigma, phi), 3)
        assert report.exhausted
        if nodes is None:
            assert report.graph is None
        else:
            assert report.graph.node_count() == nodes
            assert satisfies_all(report.graph, sigma)
            assert not check(report.graph, phi).holds

    def test_search_ends_where_the_code_scan_could_not(self):
        # Idempotent's equal pair via Theorem 4.3, over labels K, u, v:
        # 2^27 labelled graphs at 3 nodes, so only a search that does
        # not enumerate them can exhaust the bound within the deadline.
        encoding = encode_pwk(
            MonoidPresentation("uv", [("u.u", "u"), ("v.v", "v")])
        )
        phi, _ = encoding.test_constraints("u.u.v.v", "u.v")
        result = solve(ImplicationProblem(encoding.sigma, phi), deadline=5)
        assert result.answer is Trilean.UNKNOWN
        search = next(s for s in result.stats if s.engine == "countermodel")
        assert search.outcome == "exhausted"


class TestTypedSearch:
    def test_typed_countermodel_is_typed(self, fs_schema):
        sigma = parse_constraints("sentence.head => subject")
        phi = parse_constraint("sentence => subject")
        hit = find_typed_countermodel(fs_schema, sigma, phi, max_oids=2)
        assert hit is not None
        instance, graph = hit
        assert check_type_constraint(fs_schema, graph).ok
        assert satisfies_all(graph, sigma)
        assert not check(graph, phi).holds

    def test_typed_search_respects_m_semantics(self, fs_schema):
        # subject => sentence.head IS implied over M by sentence.head
        # => subject, so no typed counter-model can exist.
        sigma = parse_constraints("sentence.head => subject")
        phi = parse_constraint("subject => sentence.head")
        assert (
            find_typed_countermodel(
                fs_schema, sigma, phi, max_oids=2, limit=3000
            )
            is None
        )


# ---------------------------------------------------------------------------
# The typed scan against the per-instance reference loop.
# ---------------------------------------------------------------------------

#: Monoid presentations with a provably equal and a provably unequal
#: pair; each pair in both orders gives four Delta_1 encodings.
_MONOIDS = [
    (MonoidPresentation("uv", [("u.v", "v.u")]), ("u.v.u", "u.u.v"), ("u.v", "v.v")),
    (MonoidPresentation("u", [("u.u.u", "")]), ("u.u.u.u", "u"), ("u.u", "u")),
    (
        MonoidPresentation("uv", [("u.u", "u"), ("v.v", "v")]),
        ("u.u.v.v", "u.v"),
        ("u.v", "v.u"),
    ),
    (MonoidPresentation("uv", []), ("u.v", "u.v"), ("u.v", "v.u")),
    (
        MonoidPresentation("uv", [("u.v", "u"), ("v.u", "u")]),
        ("u.v.v.v", "u"),
        ("u", "v"),
    ),
]

#: Example 3.1 constraints that read no ``member``, drawn 2-4 at a
#: time with the last as the query, as the semidecide benchmark does.
_NO_MEMBER_CONSTRAINTS = [
    "book.author => person",
    "person.wrote => book",
    "book.ref => book",
    "book :: author ~> wrote",
    "person :: wrote ~> author",
    "book :: ref ~> ref",
    "book.author.wrote => book",
    "book.ref.author => person",
    "person.wrote.author => person",
    "person.wrote.ref => book",
    "book :: ref.author => author",
    "person :: wrote.ref => wrote",
]


def _delta1_cases():
    for pres, equal, unequal in _MONOIDS:
        encoding = encode_mplus(pres)
        for alpha, beta in (equal, equal[::-1], unequal, unequal[::-1]):
            yield (
                encoding.schema,
                list(encoding.sigma),
                encoding.test_constraint(alpha, beta),
            )


def _valid_draw(rng: random.Random, paths: list[Path]):
    """Random P_c constraints whose paths are all in Paths(Delta); the
    last one is the query."""

    def one():
        p = rng.choice(paths)
        if rng.random() < 0.35:
            i, j = sorted(rng.sample(range(len(p) + 1), 2))
            return backward(
                Path(p.labels[:i]), Path(p.labels[i:j]), Path(p.labels[j:])
            )
        cut = rng.randrange(len(p))
        alpha = Path(p.labels[:cut])
        extensions = [
            q.strip_prefix(alpha) for q in paths if alpha.is_prefix_of(q)
        ]
        return forward(
            alpha,
            Path(p.labels[cut:]),
            rng.choice(extensions + [Path.empty()]),
        )

    drawn = [one() for _ in range(rng.randint(2, 4))]
    return drawn[:-1], drawn[-1]


def _nested_schema() -> Schema:
    """A schema whose class body nests a record equal to DBtype; the
    ``z`` field is read by no constraint below, so entries that differ
    only there share their out-edges but not their identity."""

    def db_like() -> RecordType:
        return RecordType(
            [("a", SetType(ClassRef("C"))), ("z", SetType(ClassRef("C")))]
        )

    body = RecordType([("next", db_like()), ("tag", AtomicType("string"))])
    return Schema({"C": body}, db_like())


def _edges(graph):
    return None if graph is None else sorted(map(repr, graph.edges()))


def _summary(report):
    return (
        report.hit_index,
        report.examined,
        report.exhausted,
        _edges(report.graph),
    )


def _expected(schema, sigma, phi, limit):
    """The scan's report, derived from the reference verdict of each
    stream index (``to_graph`` and the Definition 2.1 checker on each
    :func:`enumerate_instances` yield): the first hit in stream order,
    or none after ``limit`` instances."""
    covered = 0
    for index, instance in enumerate(
        enumerate_instances(schema, max_oids=2, limit=limit)
    ):
        covered = index + 1
        graph = instance.to_graph()
        if _is_countermodel(graph, sigma, phi):
            return (index, covered, True, _edges(graph))
    return (None, covered, True, None)


def _assert_same_stream(schema, sigma, phi, limit=2_000):
    expected = _expected(schema, sigma, phi, limit)
    report = scan_typed_instances(schema, sigma, phi, limit=limit)
    assert _summary(report) == expected
    if report.instance is not None:
        assert _edges(report.instance.to_graph()) == expected[3]
    return expected


class TestTypedScanDifferential:
    """:func:`scan_typed_instances` walks projection ids; the reference
    loop builds every instance.  Both must agree on the hit index (the
    first in stream order), ``examined``, ``exhausted`` and the
    certificate."""

    def test_delta1_encodings(self):
        hits = 0
        for schema, sigma, phi in _delta1_cases():
            expected = _assert_same_stream(schema, sigma, phi)
            hits += expected[0] is not None
        assert hits == 8  # the unequal pairs but cyclic-3's

    def test_example_3_1_probe(self, bib_schema):
        sigma = parse_constraints(
            "person.member :: wrote.member ~> author.member"
        )
        phi = parse_constraint(
            "book.member.author.member.wrote.member => book.member"
        )
        expected = _assert_same_stream(bib_schema, sigma, phi)
        assert expected[0] is None
        report = scan_typed_instances(bib_schema, sigma, phi, limit=2_000)
        assert report.examined == 2_000
        assert report.screens < report.examined

    def test_draws_that_read_no_member(self, bib_schema):
        rng = random.Random("typed-scan:no-member")
        for _ in range(8):
            picked = rng.sample(_NO_MEMBER_CONSTRAINTS, rng.randint(2, 4))
            sigma = parse_constraints("\n".join(picked[:-1]))
            _assert_same_stream(bib_schema, sigma, parse_constraint(picked[-1]))

    def test_paths_valid_draws(self, bib_schema):
        paths = [
            p
            for p in SchemaSignature(bib_schema).sample_paths(4)
            if not p.is_empty()
        ]
        rng = random.Random("typed-scan:paths-valid")
        hits = 0
        for _ in range(40):
            sigma, phi = _valid_draw(rng, paths)
            expected = _assert_same_stream(bib_schema, sigma, phi, limit=600)
            hits += expected[0] is not None
        assert 0 < hits < 40

    def test_nested_db_type(self):
        schema = _nested_schema()
        cases = [
            # Only an oid whose ``next`` equals the entry, which makes
            # that record the root, satisfies these premises.
            ("a.member.next => ()", "a.member => ()"),
            ("() => a.member.next", "a.member => ()"),
        ]
        for sigma_text, phi_text in cases:
            expected = _assert_same_stream(
                schema,
                parse_constraints(sigma_text),
                parse_constraint(phi_text),
                limit=600,
            )
            assert expected[0] is not None
        paths = [
            p
            for p in SchemaSignature(schema).sample_paths(5)
            if not p.is_empty() and "z" not in p.labels
        ]
        rng = random.Random("typed-scan:nested")
        for _ in range(12):
            sigma, phi = _valid_draw(rng, paths)
            _assert_same_stream(schema, sigma, phi, limit=600)

    def test_reference_loop_matches_its_derivation(self, bib_schema):
        sigma = parse_constraints("book.ref => book")
        phi = parse_constraint("book.member.ref => book.member")
        expected = _expected(bib_schema, sigma, phi, 600)
        report = reference_typed_scan(bib_schema, sigma, phi, limit=600)
        assert _summary(report) == expected

    def test_limit_caps_the_stream_exactly(self, bib_schema):
        sigma = parse_constraints(
            "person.member :: wrote.member ~> author.member"
        )
        phi = parse_constraint(
            "book.member.author.member.wrote.member => book.member"
        )
        for limit in (1, 7, 600):
            report = scan_typed_instances(bib_schema, sigma, phi, limit=limit)
            assert (report.examined, report.hit_index) == (limit, None)

    def test_stops_on_the_deadline(self, bib_schema):
        sigma = parse_constraints("book :: member ~> ()")
        phi = parse_constraint("book.member => person")
        report = scan_typed_instances(
            bib_schema, sigma, phi, limit=2_000, deadline=0.0
        )
        assert not report.exhausted
        assert report.examined == 0


def test_enumerate_instances_builds_one_signature_at_most(monkeypatch):
    built = []
    original = SchemaSignature.__init__

    def counting(self, schema):
        built.append(schema)
        original(self, schema)

    monkeypatch.setattr(SchemaSignature, "__init__", counting)
    stream = enumerate_instances(example_3_1_schema(), max_oids=2, limit=50)
    for instance in stream:
        instance.to_graph()
    assert len(built) <= 1
