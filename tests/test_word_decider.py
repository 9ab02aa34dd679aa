"""Tests for the untyped P_w decision procedure, cross-validated
against the chase and brute-force counter-model search."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import parse_constraint, parse_constraints, word
from repro.paths import Path
from repro.reasoning import WordImplicationDecider, implies_word
from repro.reasoning.axioms import UNIVERSALLY_SOUND_RULES, check_proof
from repro.reasoning.chase import chase_implication
from repro.reasoning.models import find_countermodel
from repro.truth import Trilean

words_st = st.lists(st.sampled_from(["a", "b"]), min_size=0, max_size=3).map(Path)
word_constraints = st.builds(word, words_st, words_st)


class TestDecider:
    def test_rejects_non_word_constraints(self):
        with pytest.raises(ValueError):
            WordImplicationDecider([parse_constraint("K :: a => b")])
        decider = WordImplicationDecider([])
        with pytest.raises(ValueError):
            decider.implies(parse_constraint("K :: a => b"))

    def test_reflexivity(self):
        decider = WordImplicationDecider([])
        assert decider.implies(word("a.b", "a.b"))

    def test_bibliography_consequences(self):
        sigma = parse_constraints(
            """
            book.author => person
            person.wrote => book
            book.ref => book
            """
        )
        decider = WordImplicationDecider(sigma)
        assert decider.implies(parse_constraint("book.author.wrote => book"))
        assert decider.implies(
            parse_constraint("book.ref.ref.author => person")
        )
        assert decider.implies(
            parse_constraint("book.author.wrote.author => person")
        )
        assert not decider.implies(parse_constraint("person => book"))
        assert not decider.implies(
            parse_constraint("book.author => book")
        )

    def test_right_congruence_consequence(self):
        decider = WordImplicationDecider(parse_constraints("a => b"))
        assert decider.implies(parse_constraint("a.x.y => b.x.y"))

    def test_not_left_congruent(self):
        decider = WordImplicationDecider(parse_constraints("a => b"))
        assert not decider.implies(parse_constraint("x.a => x.b"))

    def test_consequences_enumeration(self):
        decider = WordImplicationDecider(
            parse_constraints("a => b\nb.c => d")
        )
        out = decider.consequences("a.c", max_length=3)
        assert Path.parse("b.c") in out
        assert Path.parse("d") in out


class TestProofs:
    def test_proof_extracted_and_verified(self):
        sigma = parse_constraints(
            "book.author => person\nperson.wrote => book"
        )
        result = implies_word(
            sigma, parse_constraint("book.author.wrote => book"),
            with_proof=True,
        )
        assert result.implied
        assert result.proof is not None
        assert check_proof(result.proof) == parse_constraint(
            "book.author.wrote => book"
        )
        # Untyped proofs use only the universally sound rules.
        assert result.proof.rules_used() <= UNIVERSALLY_SOUND_RULES

    def test_no_proof_when_not_implied(self):
        decider = WordImplicationDecider(parse_constraints("a => b"))
        assert decider.prove(parse_constraint("b => a")) is None

    def test_trivial_proof(self):
        decider = WordImplicationDecider([])
        proof = decider.prove(word("x", "x"))
        assert proof is not None and len(proof.lines) == 1


class TestAgainstOracles:
    """The decider, the chase and brute-force search must agree."""

    @staticmethod
    def _implies_or_none(sigma, phi):
        """Decide, treating the documented escape hatch as abstention."""
        from repro.errors import IncompleteFragmentError

        try:
            return WordImplicationDecider(sigma).implies(phi)
        except IncompleteFragmentError:
            return None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(word_constraints, max_size=3), word_constraints)
    def test_agrees_with_chase(self, sigma, phi):
        decider_answer = self._implies_or_none(sigma, phi)
        if decider_answer is None:
            return
        chase_answer = chase_implication(sigma, phi, max_steps=400)
        if chase_answer.answer.is_definite:
            assert chase_answer.answer.to_bool() == decider_answer, (
                f"sigma={list(map(str, sigma))}, phi={phi}"
            )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(word_constraints, max_size=2), word_constraints)
    def test_no_countermodel_when_implied(self, sigma, phi):
        if self._implies_or_none(sigma, phi):
            assert find_countermodel(sigma, phi, max_nodes=2) is None

    @settings(max_examples=20, deadline=None)
    @given(st.lists(word_constraints, max_size=2), word_constraints)
    def test_countermodel_confirms_non_implication(self, sigma, phi):
        graph = find_countermodel(sigma, phi, max_nodes=2)
        if graph is not None:
            assert self._implies_or_none(sigma, phi) is not True


class TestEmptyConclusionFragment:
    """Equality-generating word constraints (empty conclusions) —
    outside [AV97]'s three-rule completeness; the decider layers a
    sound closure and a chase fallback (see the module docstring)."""

    def test_root_loop_consequence(self):
        # {a => ()} |= a => a.a: the a-node IS the root, so the root
        # has an a-loop and a.a(r, r) holds.
        decider = WordImplicationDecider(parse_constraints("a => ()"))
        assert decider.implies(parse_constraint("a => a.a"))
        assert decider.implies(parse_constraint("a.b => a.a.b"))
        assert not decider.implies(parse_constraint("b => a"))

    def test_congruent_loop_propagation(self):
        # b => a and a => () make the b-node the root too, so b is a
        # root loop: b => b.a follows (via the chase fallback).
        sigma = parse_constraints("b.a => a\nb => a\na => ()")
        decider = WordImplicationDecider(sigma)
        assert decider.implies(parse_constraint("b => b.a"))

    def test_no_three_rule_proof_for_closure_facts(self):
        decider = WordImplicationDecider(parse_constraints("a => ()"))
        phi = parse_constraint("a => a.a")
        assert decider.implies(phi)
        assert decider.prove(phi) is None  # honest: no I_r derivation

    def test_escape_hatch_raises(self):
        from repro.errors import IncompleteFragmentError

        # A divergent chase plus an EGD the closure cannot settle.
        sigma = parse_constraints("a => a.a\nb.b => ()")
        with pytest.raises(IncompleteFragmentError):
            WordImplicationDecider(sigma).implies(
                parse_constraint("a => b")
            )


class TestPaperSection41Fragment:
    """The P_w(K) encoding's *word* part behaves as expected before the
    guarded constraints enter (those make the problem undecidable)."""

    def test_k_tagging_rules(self):
        # () => K and K.l => K (the first two constraint families of
        # the Theorem 4.3 encoding) are plain word constraints: every
        # node is K-tagged.
        sigma = parse_constraints(
            """
            () => K
            K.a => K
            K.b => K
            """
        )
        decider = WordImplicationDecider(sigma)
        assert decider.implies(parse_constraint("a => K.a"))
        assert decider.implies(parse_constraint("a.b.a => K.a.b.a"))
        assert decider.implies(parse_constraint("K.a.b => K"))
        assert not decider.implies(parse_constraint("K => K.a"))

    def test_implication_equals_finite_implication_note(self):
        result = implies_word(
            parse_constraints("a => b"), parse_constraint("a.c => b.c")
        )
        assert result.answer is Trilean.TRUE
        assert result.decidable
        assert result.complexity == "PTIME"
        assert any("finite implication" in n for n in result.notes)


class TestChaseFallbackBudget:
    """The EGD chase fallback must honor caller-supplied budgets — it
    used to hardcode max_steps=4000 and ignore what the dispatcher
    threaded through."""

    #: closure cannot settle this (needs the chase), and the chase
    #: refutes it in a couple of steps.
    SIGMA = "a => ()\nb => a.b"
    PHI = "b => a"

    def test_default_budget_settles(self):
        result = implies_word(
            parse_constraints(self.SIGMA), parse_constraint(self.PHI)
        )
        assert result.answer is Trilean.FALSE

    def test_tiny_budget_raises_instead_of_guessing(self):
        from repro.errors import IncompleteFragmentError

        with pytest.raises(IncompleteFragmentError) as err:
            implies_word(
                parse_constraints(self.SIGMA),
                parse_constraint(self.PHI),
                chase_steps=1,
            )
        assert "chase_steps=1" in str(err.value)

    def test_decider_method_accepts_budget(self):
        decider = WordImplicationDecider(parse_constraints(self.SIGMA))
        assert decider.implies(parse_constraint(self.PHI)) is False
        from repro.errors import IncompleteFragmentError

        with pytest.raises(IncompleteFragmentError):
            decider.implies(parse_constraint(self.PHI), chase_steps=1)

    def test_dispatcher_threads_chase_steps(self):
        from repro.errors import IncompleteFragmentError
        from repro.reasoning import ImplicationProblem, SolveOptions, solve

        problem = ImplicationProblem(
            parse_constraints(self.SIGMA), parse_constraint(self.PHI)
        )
        assert solve(problem).answer is Trilean.FALSE
        with pytest.raises(IncompleteFragmentError):
            solve(problem, SolveOptions(chase_steps=1))

    def test_expired_deadline_raises(self):
        # Deadlines are absolute time.monotonic() values (a wall-clock
        # time.time() instant would sit decades in the monotonic
        # future and never expire).
        import time

        from repro.errors import IncompleteFragmentError

        with pytest.raises(IncompleteFragmentError):
            implies_word(
                parse_constraints(self.SIGMA),
                parse_constraint(self.PHI),
                deadline=time.monotonic() - 1,
            )
