"""Tests for bounded counter-model search."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checking import check
from repro.checking.engine import satisfies_all
from repro.constraints import parse_constraint, parse_constraints
from repro.constraints.ast import Direction, PathConstraint
from repro.diffcheck.generators import generate_instance
from repro.monoids.presentation import MonoidPresentation
from repro.reasoning import ImplicationProblem, solve
from repro.reasoning.models import (
    all_graphs,
    brute_force_countermodel,
    find_countermodel,
    find_typed_countermodel,
    infer_alphabet,
    scan_codes,
)
from repro.reductions.monoid_to_pwk import encode_pwk
from repro.truth import Trilean
from repro.types.typecheck import check_type_constraint


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
