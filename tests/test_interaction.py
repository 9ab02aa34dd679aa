"""Tests for the interaction-report API (the paper's headline as code)."""

from __future__ import annotations

from repro.constraints import parse_constraint, parse_constraints
from repro.reasoning import InteractionKind, SolveOptions, interaction_report
from repro.reductions import encode_mplus
from repro.monoids import MonoidPresentation
from repro.truth import Trilean


class TestTypesHelp:
    def test_commutativity_flip(self, fs_schema):
        report = interaction_report(
            parse_constraints("sentence.head => subject"),
            parse_constraint("subject => sentence.head"),
            fs_schema,
        )
        assert report.typed_context.value == "M"
        assert report.untyped.answer is Trilean.FALSE
        assert report.typed.answer is Trilean.TRUE
        assert report.kind is InteractionKind.TYPES_HELP
        assert "types-help" in report.describe()

    def test_undecidable_becomes_cubic(self, fs_schema):
        # A general P_c instance: undecidable untyped, cubic over M.
        sigma = parse_constraints("sentence :: head ~> head")
        phi = parse_constraint("sentence :: head.head => ()")
        report = interaction_report(sigma, phi, fs_schema)
        assert report.typed.decidable
        assert not report.untyped.decidable
        assert report.kind is InteractionKind.TYPES_HELP

    def test_neutral_when_same_answer(self, fs_schema):
        sigma = parse_constraints("sentence => subject")
        phi = parse_constraint("sentence.head => subject.head")
        report = interaction_report(sigma, phi, fs_schema)
        # Both sides say yes (right-congruence is untyped-sound).
        assert report.untyped.answer is Trilean.TRUE
        assert report.typed.answer is Trilean.TRUE
        assert report.kind is InteractionKind.NEUTRAL


class TestTypesHurt:
    def test_delta1_instance(self):
        pres = MonoidPresentation("uv", [("u.v", "v.u")])
        enc = encode_mplus(pres)
        phi = enc.test_constraint("u.v", "v.u")
        report = interaction_report(
            list(enc.sigma),
            phi,
            enc.schema,
            SolveOptions(typed_search_limit=200),
        )
        assert report.typed_context.value == "M+"
        # Untyped: decidable (local extent), answer FALSE.
        assert report.untyped.decidable
        assert report.untyped.answer is Trilean.FALSE
        # Typed: the cell is undecidable; no typed counter-model exists
        # for this equal pair, so the semi-decision abstains (or, if the
        # chase happens to confirm, answers TRUE — either way the cell
        # itself is undecidable and the interaction is "hurt").
        assert not report.typed.decidable
        assert report.kind is InteractionKind.TYPES_HURT
