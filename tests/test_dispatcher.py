"""Tests for problem classification and Table-1 routing."""

from __future__ import annotations

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.errors import UndecidableProblemError
from repro.reasoning import (
    Context,
    ImplicationProblem,
    ProblemClass,
    SolveOptions,
    classify,
    solve,
    table1_cell,
)
from repro.truth import Trilean


class TestClassification:
    def test_word(self):
        sigma = parse_constraints("a => b")
        assert classify(sigma, parse_constraint("a.c => b.c")) is ProblemClass.WORD

    def test_pw_k(self):
        sigma = parse_constraints("() => K\nK :: a => b")
        phi = parse_constraint("a => b")
        assert classify(sigma, phi) is ProblemClass.PW_K

    def test_pw_k_needs_single_guard(self):
        sigma = parse_constraints("K :: a => b\nJ :: a => b")
        assert classify(sigma, parse_constraint("a => b")) is ProblemClass.GENERAL

    def test_local_extent(self):
        sigma = parse_constraints(
            """
            MIT :: book.author => person
            Warner.book :: author ~> wrote
            """
        )
        phi = parse_constraint("MIT :: book.ref => book")
        assert classify(sigma, phi) is ProblemClass.LOCAL_EXTENT

    def test_general(self):
        sigma = parse_constraints("book :: author ~> wrote")
        phi = parse_constraint("person :: wrote ~> author")
        assert classify(sigma, phi) is ProblemClass.GENERAL

    def test_guarded_not_local_extent_when_query_word(self):
        # A P_w(K) instance where the query is a word constraint cannot
        # be a Definition 2.4 instance (the query must be bounded).
        sigma = parse_constraints("K :: a => b")
        phi = parse_constraint("a => b")
        assert classify(sigma, phi) is ProblemClass.PW_K


class TestTable1:
    @pytest.mark.parametrize(
        "klass,context,decidable,complexity",
        [
            (ProblemClass.WORD, Context.SEMISTRUCTURED, True, "PTIME"),
            (ProblemClass.PW_K, Context.SEMISTRUCTURED, False, None),
            (ProblemClass.LOCAL_EXTENT, Context.SEMISTRUCTURED, True, "PTIME"),
            (ProblemClass.GENERAL, Context.SEMISTRUCTURED, False, None),
            (ProblemClass.WORD, Context.M, True, "cubic"),
            (ProblemClass.PW_K, Context.M, True, "cubic"),
            (ProblemClass.LOCAL_EXTENT, Context.M, True, "cubic"),
            (ProblemClass.GENERAL, Context.M, True, "cubic"),
            (ProblemClass.PW_K, Context.M_PLUS, False, None),
            (ProblemClass.LOCAL_EXTENT, Context.M_PLUS, False, None),
            (ProblemClass.GENERAL, Context.M_PLUS, False, None),
            (ProblemClass.PW_K, Context.M_PLUS_FINITE, False, None),
            (ProblemClass.LOCAL_EXTENT, Context.M_PLUS_FINITE, False, None),
            (ProblemClass.GENERAL, Context.M_PLUS_FINITE, False, None),
        ],
    )
    def test_cells_match_paper(self, klass, context, decidable, complexity):
        assert table1_cell(klass, context) == (decidable, complexity)


class TestProblemConstruction:
    def test_typed_context_needs_schema(self):
        with pytest.raises(ValueError):
            ImplicationProblem(
                parse_constraints("a => b"),
                parse_constraint("a => b"),
                context=Context.M,
            )

    def test_string_context_coerced(self):
        problem = ImplicationProblem(
            parse_constraints("a => b"),
            parse_constraint("a => b"),
            context="semistructured",
        )
        assert problem.context is Context.SEMISTRUCTURED


class TestRouting:
    def test_word_routed_to_ptime(self):
        problem = ImplicationProblem(
            parse_constraints("a => b"), parse_constraint("a.c => b.c")
        )
        result = solve(problem)
        assert result.answer is Trilean.TRUE
        assert result.method == "word-prefix-rewriting"

    def test_local_extent_routed(self):
        problem = ImplicationProblem(
            parse_constraints(
                "MIT :: book.author => person\nWarner.book :: author ~> wrote"
            ),
            parse_constraint("MIT :: book.author => person"),
        )
        result = solve(problem)
        assert result.answer is Trilean.TRUE
        assert result.method == "local-extent-g1-g2-reduction"

    def test_m_routed_to_typed_decider(self, fs_schema):
        problem = ImplicationProblem(
            parse_constraints("sentence.head => subject"),
            parse_constraint("subject => sentence.head"),
            context=Context.M,
            schema=fs_schema,
        )
        result = solve(problem)
        assert result.answer is Trilean.TRUE
        assert result.complexity == "cubic"

    def test_undecidable_without_semidecision_raises(self):
        problem = ImplicationProblem(
            parse_constraints("book :: author ~> wrote"),
            parse_constraint("person :: wrote ~> author"),
        )
        with pytest.raises(UndecidableProblemError):
            solve(problem, SolveOptions(allow_semidecision=False))

    def test_undecidable_semidecision_chase_true(self):
        sigma = parse_constraints("() => K\nK :: a => b")
        # K(r, r) by the first constraint; then a => b at the root...
        problem = ImplicationProblem(sigma, parse_constraint("a => b"))
        result = solve(problem)
        assert result.answer is Trilean.TRUE
        assert "chase" in result.method

    def test_undecidable_semidecision_countermodel(self):
        problem = ImplicationProblem(
            parse_constraints("book :: author ~> wrote"),
            parse_constraint("person :: wrote ~> author"),
        )
        result = solve(problem)
        assert result.answer is Trilean.FALSE
        assert result.countermodel is not None

    def test_m_plus_chase_true_transfers(self, bib_schema):
        # An untyped consequence holds a fortiori over U(Delta).
        sigma = parse_constraints("book.member.author => person")
        phi = parse_constraint("book.member.author.x => person.x")
        # x is not a schema path, so craft a real one instead:
        phi = parse_constraint(
            "book.member.author.member => person.member"
        )
        problem = ImplicationProblem(
            sigma, phi, context=Context.M_PLUS, schema=bib_schema
        )
        result = solve(problem)
        assert result.answer is Trilean.TRUE

    def test_m_plus_typed_countermodel(self, bib_schema):
        sigma = parse_constraints("book.member.author => person")
        phi = parse_constraint("person => book.member.author")
        problem = ImplicationProblem(
            sigma, phi, context=Context.M_PLUS, schema=bib_schema
        )
        result = solve(problem, SolveOptions(typed_search_limit=2000))
        assert result.answer is Trilean.FALSE
        assert result.countermodel is not None

    def test_notes_mention_undecidability(self):
        problem = ImplicationProblem(
            parse_constraints("book :: author ~> wrote"),
            parse_constraint("person :: wrote ~> author"),
        )
        result = solve(problem)
        assert any("undecidable" in note for note in result.notes)


class TestWithProofUniformity:
    """The with_proof flag must reach every decidable route — the
    local-extent cell used to drop it silently."""

    def test_local_extent_threads_with_proof(self):
        problem = ImplicationProblem(
            parse_constraints(
                "MIT :: book.author => person\nWarner.book :: author ~> wrote"
            ),
            parse_constraint("MIT :: book.author => person"),
        )
        result = solve(problem, SolveOptions(with_proof=True))
        assert result.answer is Trilean.TRUE
        assert result.method == "local-extent-g1-g2-reduction"
        assert result.proof is not None
        assert any("reduced word instance" in note for note in result.notes)

    def test_local_extent_no_proof_when_not_requested(self):
        problem = ImplicationProblem(
            parse_constraints(
                "MIT :: book.author => person\nWarner.book :: author ~> wrote"
            ),
            parse_constraint("MIT :: book.author => person"),
        )
        assert solve(problem, SolveOptions(with_proof=False)).proof is None

    def test_word_route_still_threads_with_proof(self):
        problem = ImplicationProblem(
            parse_constraints("a => b"), parse_constraint("a.c => b.c")
        )
        assert solve(problem, SolveOptions(with_proof=True)).proof is not None


class TestTable1Reconciliation:
    """solve() must hand back results whose decidable/complexity agree
    with table1_cell — each route is checked, and a lying procedure is
    an AssertionError, not a silently wrong report."""

    @pytest.mark.parametrize(
        "context",
        [Context.SEMISTRUCTURED, Context.M, Context.M_PLUS,
         Context.M_PLUS_FINITE],
    )
    def test_result_matches_cell_in_every_context(self, context, fs_schema):
        sigma = parse_constraints("sentence => sentence")
        phi = parse_constraint("sentence => sentence")
        schema = None if context is Context.SEMISTRUCTURED else fs_schema
        problem = ImplicationProblem(sigma, phi, context, schema=schema)
        result = solve(problem, deadline=10)
        decidable, complexity = table1_cell(
            classify(sigma, phi), context
        )
        assert result.decidable == decidable
        if decidable:
            assert result.complexity == complexity

    def test_word_route_complexity_normalized(self):
        problem = ImplicationProblem(
            parse_constraints("a => b"), parse_constraint("a.c => b.c")
        )
        result = solve(problem)
        assert result.decidable is True
        assert result.complexity == "PTIME"

    def test_m_route_reports_cubic(self, fs_schema):
        problem = ImplicationProblem(
            parse_constraints("sentence => sentence"),
            parse_constraint("sentence => sentence"),
            Context.M,
            schema=fs_schema,
        )
        result = solve(problem)
        assert result.decidable is True
        assert result.complexity == "cubic"

    def test_undecidable_route_reports_undecidable(self):
        problem = ImplicationProblem(
            parse_constraints("book :: author ~> wrote"),
            parse_constraint("person :: wrote ~> author"),
        )
        result = solve(problem, deadline=10)
        assert result.decidable is False
        assert result.complexity is None

    def test_lying_procedure_caught(self, monkeypatch):
        from repro.reasoning import dispatcher as mod
        from repro.reasoning.result import ImplicationResult

        def lying_decider(sigma, phi, with_proof=False, **kwargs):
            return ImplicationResult(
                answer=Trilean.TRUE,
                method="liar",
                decidable=False,  # contradicts the (P_w, ss) cell
            )

        monkeypatch.setattr(mod, "implies_word", lying_decider)
        problem = ImplicationProblem(
            parse_constraints("a => b"), parse_constraint("a => b")
        )
        with pytest.raises(AssertionError, match="Table 1"):
            mod.solve(problem)

    def test_portfolio_solve_classifies_once(self, monkeypatch):
        # solve() classifies; the portfolio it runs must not again.
        from repro.reasoning import dispatcher as mod

        original = mod.classify
        calls: list = []

        def spy(sigma, phi):
            calls.append(phi)
            return original(sigma, phi)

        monkeypatch.setattr(mod, "classify", spy)
        problem = ImplicationProblem(
            parse_constraints("a :: b => b.b"), parse_constraint("a :: b ~> a")
        )
        result = mod.solve(problem, jobs=1)
        assert result.problem_class is ProblemClass.GENERAL
        assert len(calls) == 1, calls
