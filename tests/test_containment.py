"""Tests for RPQ containment under constraints and the RPQ-union
optimizer built on it."""

from __future__ import annotations

import pytest

from repro.constraints import parse_constraints
from repro.graph import figure1_graph
from repro.paths import Path
from repro.query import (
    QueryContainmentChecker,
    evaluate_rpq,
    evaluate_rpq_union,
    optimize_rpq_union,
)
from repro.reasoning.cache import ImplicationCache
from repro.truth import Trilean
from repro.types.examples import feature_structure_schema


def word_sigma():
    return parse_constraints(
        """
        book.author => person
        person.wrote => book
        book.ref => book
        """
    )


class TestExactWordCell:
    """EGD-free P_w: [AV97] completeness — both verdicts definite."""

    def test_true_with_proof_note(self):
        checker = QueryContainmentChecker(word_sigma())
        result = checker.contains("book.author", "person")
        assert result.verdict is Trilean.TRUE
        assert result.decidable
        assert result.method == "word-prestar-product"

    def test_false_with_witness(self):
        checker = QueryContainmentChecker(word_sigma())
        result = checker.contains("person", "book.author")
        assert result.verdict is Trilean.FALSE
        assert result.witness == Path.parse("person")

    def test_union_left_side(self):
        checker = QueryContainmentChecker(word_sigma())
        assert checker.contains(
            "book.author.wrote | person.wrote", "book"
        ).holds

    def test_star_containment_under_ref_collapse(self):
        # book.ref => book collapses ref-chains, so the starred form
        # is contained in the two-step unrolling.
        sigma = parse_constraints("book.ref => book")
        checker = QueryContainmentChecker(sigma)
        result = checker.contains(
            "book.(ref)*.author", "book.author | book.ref.author"
        )
        assert result.verdict is Trilean.TRUE

    def test_star_not_contained_without_constraint(self):
        checker = QueryContainmentChecker(())
        result = checker.contains(
            "book.(ref)*.author", "book.author | book.ref.author"
        )
        assert result.verdict is Trilean.FALSE
        # Shortest counterexample: two refs deep.
        assert result.witness == Path.parse("book.ref.ref.author")

    def test_equivalence_is_kleene_and(self):
        sigma = parse_constraints("a => b\nb => a")
        checker = QueryContainmentChecker(sigma)
        assert checker.equivalence("a", "b") is Trilean.TRUE
        assert checker.equivalence("a", "a.b") is Trilean.FALSE

    def test_verdicts_match_bruteforce_on_figure1(self):
        """Definite verdicts agree with answer-set inclusion on a
        graph satisfying Sigma (figure 1 satisfies the inverse pair)."""
        sigma = parse_constraints(
            "book.author => person\nperson.wrote => book"
        )
        checker = QueryContainmentChecker(sigma)
        g = figure1_graph()
        for left, right in [
            ("book.author", "person"),
            ("person", "book.author"),
            ("book.author.wrote", "book"),
            ("book", "person"),
        ]:
            result = checker.contains(left, right)
            assert result.verdict.is_definite
            la = evaluate_rpq(g, left).answers
            ra = evaluate_rpq(g, right).answers
            if result.verdict is Trilean.TRUE:
                assert la <= ra

    def test_cache_hits_counted(self, tmp_path):
        cache = ImplicationCache(cache_dir=str(tmp_path))
        sigma = parse_constraints("a => a.a\nb.b => ()")
        for expected_more in (False, True):
            checker = QueryContainmentChecker(
                sigma, cache=cache, deadline=0.5
            )
            checker.contains("a.b", "c")
            if expected_more:
                assert checker.stats["solve_calls"] > 0


class TestFallbackCell:
    """EGDs / guarded constraints: sound three-valued, never crashing."""

    def test_egd_sigma_never_crashes(self):
        sigma = parse_constraints("a.b => ()\nc => d")
        checker = QueryContainmentChecker(sigma)
        result = checker.contains("a.b.c", "e")
        assert result.verdict in (Trilean.FALSE, Trilean.UNKNOWN)
        assert not result.decidable

    def test_egd_rule_is_sound(self):
        # u => () gives the sound rule u.z => z: anything reached
        # through u is reached from the root again.
        sigma = parse_constraints("a.b => ()")
        checker = QueryContainmentChecker(sigma)
        result = checker.contains("a.b.c", "c")
        assert result.verdict is Trilean.TRUE
        assert result.method == "sound-word-saturation"

    def test_guarded_forward_word_image_is_sound(self):
        from repro.constraints import forward

        sigma = (forward("a", "b", "c"),)
        checker = QueryContainmentChecker(sigma)
        assert checker.contains("a.b", "a.c").verdict is Trilean.TRUE

    def test_backward_constraint_lands_in_residue_note(self):
        from repro.constraints import backward

        sigma = (backward("a", "b", "c"),)
        checker = QueryContainmentChecker(sigma)
        result = checker.contains("a.b", "a.c")
        assert result.verdict is not Trilean.TRUE
        assert any("backward" in note for note in result.notes)

    def test_chase_witness_gives_definite_false(self):
        sigma = parse_constraints("a.b => ()\nc => d")
        checker = QueryContainmentChecker(sigma)
        result = checker.contains("a", "b")
        assert result.verdict is Trilean.FALSE
        assert result.method == "chase-witness"
        assert result.witness == Path.parse("a")

    def test_never_lies_definite(self):
        """Every definite fallback verdict survives a brute check on
        the chased witness/sampled graphs (spot check)."""
        sigma = parse_constraints("a.b => ()")
        checker = QueryContainmentChecker(sigma)
        # TRUE direction is the sound saturation; FALSE carries its
        # own verified countermodel.  UNKNOWN asserts nothing.
        assert checker.contains("a.b.c", "c").holds
        refuted = checker.contains("c", "a")
        if refuted.verdict is Trilean.FALSE:
            assert refuted.witness is not None


class TestTypedM:
    def test_symmetric_word_image_true(self):
        schema = feature_structure_schema()
        sigma = parse_constraints("sentence => subject")
        checker = QueryContainmentChecker(
            sigma, context="M", schema=schema
        )
        result = checker.contains("sentence.head", "subject.head")
        assert result.verdict is Trilean.TRUE
        assert result.decidable
        # Over M the image system is symmetric: the reverse holds too.
        assert checker.contains("subject.head", "sentence.head").holds

    def test_false_with_witness(self):
        schema = feature_structure_schema()
        checker = QueryContainmentChecker((), context="M", schema=schema)
        result = checker.contains("sentence", "subject")
        assert result.verdict is Trilean.FALSE
        assert result.witness == Path.parse("sentence")

    def test_vacuous_when_premise_sorts_differ(self):
        schema = feature_structure_schema()
        sigma = parse_constraints("sentence => sentence.agreement")
        checker = QueryContainmentChecker(
            sigma, context="M", schema=schema
        )
        result = checker.contains("sentence", "subject")
        assert result.verdict is Trilean.TRUE
        assert any("vacuous" in note for note in result.notes)

    def test_patterns_restricted_to_paths_delta(self):
        schema = feature_structure_schema()
        checker = QueryContainmentChecker((), context="M", schema=schema)
        # 'bogus' is not in Paths(Delta): its language over the schema
        # is empty, so it is contained in everything.
        assert checker.contains("bogus", "sentence").holds
        assert checker.provably_empty("bogus")
        assert not checker.provably_empty("sentence.(head)*")

    def test_typed_context_requires_schema(self):
        with pytest.raises(ValueError):
            QueryContainmentChecker((), context="M")


class TestRPQUnionOptimizer:
    def test_prunes_subsumed_and_empty(self):
        schema = feature_structure_schema()
        checker = QueryContainmentChecker((), context="M", schema=schema)
        report = optimize_rpq_union(
            ["sentence.(head)*", "sentence", "bogus"], checker
        )
        assert report.optimized == ("sentence.(head)*",)
        assert report.emptied == ("bogus",)
        assert ("sentence", "sentence.(head)*") in report.pruned

    def test_duplicates_recorded(self):
        checker = QueryContainmentChecker(())
        report = optimize_rpq_union(["a", "a", "b"], checker)
        assert ("a", "a") in report.pruned
        assert report.branches_saved == 1

    def test_unknowns_keep_branches(self):
        sigma = parse_constraints("a.b => ()\nc => d")
        checker = QueryContainmentChecker(sigma)
        report = optimize_rpq_union(["a.(b)*", "c.(d)*"], checker)
        assert set(report.optimized) == {"a.(b)*", "c.(d)*"}

    def test_evaluate_rpq_union_answers_preserved(self):
        sigma = parse_constraints("book.ref => book")
        from repro.reasoning.chase import chase

        g = chase(figure1_graph(), list(sigma), max_steps=10_000).graph
        checker = QueryContainmentChecker(sigma)
        branches = [
            "book.(ref)*.author",
            "book.author",
            "book.ref.author",
        ]
        optimized, _, report = evaluate_rpq_union(g, branches, checker)
        plain, _, _ = evaluate_rpq_union(g, branches, None)
        assert optimized == plain
        assert report is not None and report.branches_saved >= 1


class TestWholeQueryDeadline:
    """A query's ``deadline`` starts when the checker or optimizer is
    built and bounds every solve it makes, instead of granting each
    solve a fresh full budget."""

    @staticmethod
    def _spy_budgets(monkeypatch, module) -> list:
        original = module.solve
        budgets: list = []

        def spy(problem, *args, **kwargs):
            budgets.append(kwargs["deadline"])
            return original(problem, *args, **kwargs)

        monkeypatch.setattr(module, "solve", spy)
        return budgets

    @staticmethod
    def _shrinking(budgets: list, granted: float) -> None:
        assert len(budgets) >= 2, budgets
        assert budgets[0] <= granted
        for earlier, later in zip(budgets, budgets[1:]):
            assert later < earlier, budgets

    def test_containment_fallback_shares_one_budget(self, monkeypatch):
        from repro.query import containment

        budgets = self._spy_budgets(monkeypatch, containment)
        # The EGD keeps the cell off the exact word route, and the
        # uncovered word a.b is tried against both right candidates.
        checker = QueryContainmentChecker(
            parse_constraints("a => a.a\nb.b => ()"), deadline=30.0
        )
        checker.contains("a.b", "c|d")
        assert checker.stats["solve_calls"] == len(budgets)
        self._shrinking(budgets, 30.0)

    def test_word_optimizer_shares_one_budget(self, monkeypatch):
        from repro.query import WordQueryOptimizer, optimizer

        budgets = self._spy_budgets(monkeypatch, optimizer)
        words = WordQueryOptimizer(
            parse_constraints("a => b\nb => c"), deadline=30.0
        )
        words.optimize_union(["a", "b", "c"], rewrite=False)
        self._shrinking(budgets, 30.0)

    def test_spent_budget_gives_unknown_not_a_fresh_budget(
        self, monkeypatch
    ):
        from repro.query import containment

        budgets = self._spy_budgets(monkeypatch, containment)
        checker = QueryContainmentChecker(
            parse_constraints("a => a.a\nb.b => ()"), deadline=0.0
        )
        result = checker.contains("a.b", "c|d")
        assert budgets and all(b == 0.0 for b in budgets)
        assert result.verdict is not Trilean.TRUE

