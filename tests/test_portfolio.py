"""Tests for the counter-model search and the portfolio solver.

Two families:

* **search** — the tableau search of :mod:`repro.reasoning.models`
  screens states with a compiled bitmask evaluator that must agree
  with the Definition 2.1 evaluator, and finds a counter-model iff
  the brute-force oracle does;
* **portfolio** — the in-process pipeline returns the counter-model
  the search finds on its own, at any ``jobs``; budgets expire into
  honest UNKNOWNs, and per-engine stats are attached to every result.
"""

from __future__ import annotations

import pytest

from repro.checking import check
from repro.checking.engine import satisfies_all
from repro.constraints import parse_constraint, parse_constraints
from repro.graph.structure import Graph
from repro.reasoning import (
    Budget,
    ImplicationProblem,
    SolveOptions,
    run_portfolio,
    solve,
)
from repro.reasoning.models import (
    SearchReport,
    _is_countermodel,
    all_graphs,
    brute_force_countermodel,
    find_countermodel,
    infer_alphabet,
    reference_typed_scan,
)
from repro.reasoning.portfolio import TYPED_CHASE_FALSE_NOTE
from repro.truth import Trilean

# A refutable P_c instance whose smallest counter-model has 3 nodes
# (the `a :: a => a` tautology keeps two distinct guards => GENERAL
# without widening the alphabet beyond {K, a}).
DIVERGENT_SIGMA = "() => K\nK :: () => a.a.a\nK :: a.a.a => ()\na :: a => a"
DIVERGENT_PHI = "K :: a => ()"


def _divergent_problem() -> ImplicationProblem:
    return ImplicationProblem(
        parse_constraints(DIVERGENT_SIGMA), parse_constraint(DIVERGENT_PHI)
    )


def _edge_set(graph):
    return sorted(graph.edges())


class TestCanonicalCompleteness:
    def test_bit_checker_agrees_with_reference_checker(self):
        # The compiled bitmask evaluator and the Definition 2.1
        # evaluator must classify every 2-node candidate identically.
        from repro.reasoning.models import (
            _is_bit_countermodel,
            compile_constraints,
        )

        sigma = parse_constraints("a :: b ~> b")
        phi = parse_constraint("b :: a ~> b")
        labels = infer_alphabet(sigma, phi)
        compiled_sigma = compile_constraints(sigma, labels)
        (compiled_phi,) = compile_constraints([phi], labels)
        hits = 0
        for graph in all_graphs(2, labels):
            adj = [[0, 0] for _ in labels]
            radj = [[0, 0] for _ in labels]
            for src, label, dst in graph.edges():
                adj[labels.index(label)][src] |= 1 << dst
                radj[labels.index(label)][dst] |= 1 << src
            fast = _is_bit_countermodel(
                adj, radj, compiled_sigma, compiled_phi
            )
            slow = _is_countermodel(graph, sigma, phi)
            assert fast == slow, f"checker drift on {_edge_set(graph)}"
            hits += slow
        assert hits > 0  # the instance is genuinely refutable

    def test_scan_matches_brute_force_verdict(self):
        cases = [
            ("a => b", "b => a", False),        # refutable
            ("a => b", "a.c => b.c", True),     # implied
            ("", "p :: a ~> w", False),         # backward refutable
        ]
        for sigma_text, phi_text, implied in cases:
            sigma = parse_constraints(sigma_text)
            phi = parse_constraint(phi_text)
            brute = brute_force_countermodel(sigma, phi, max_nodes=2)
            fast = find_countermodel(sigma, phi, max_nodes=2)
            assert (brute is None) == implied
            assert (fast is None) == (brute is None)
            if fast is not None:
                assert satisfies_all(fast, sigma)
                assert not check(fast, phi).holds


class TestPortfolioDeterminism:
    def test_same_countermodel_any_jobs(self):
        # A starved chase leaves the search to decide; the portfolio
        # must return the counter-model the search finds on its own.
        sigma = parse_constraints(DIVERGENT_SIGMA)
        phi = parse_constraint(DIVERGENT_PHI)
        sequential = find_countermodel(sigma, phi)
        assert sequential is not None
        assert sequential.node_count() == 3
        portfolio = run_portfolio(
            _divergent_problem(), SolveOptions(chase_steps=2)
        )
        assert portfolio.execution.mode.value == "inline"
        assert portfolio.countermodel is not None
        assert _edge_set(sequential) == _edge_set(portfolio.countermodel)

    def test_solve_identical_at_jobs_1_and_4(self):
        # Starve the chase so the counter-model engine decides in both
        # modes; answer, method and counter-model must coincide.
        results = [
            solve(_divergent_problem(), SolveOptions(chase_steps=2), jobs=jobs)
            for jobs in (1, 4)
        ]
        assert all(r.answer is Trilean.FALSE for r in results)
        assert {r.method for r in results} == {"bounded-countermodel"}
        seq, par = results
        assert _edge_set(seq.countermodel) == _edge_set(par.countermodel)

    def test_countermodel_is_genuine(self):
        result = solve(
            _divergent_problem(), SolveOptions(chase_steps=2), jobs=2
        )
        sigma = parse_constraints(DIVERGENT_SIGMA)
        phi = parse_constraint(DIVERGENT_PHI)
        assert satisfies_all(result.countermodel, sigma)
        assert not check(result.countermodel, phi).holds

    def test_scan_hit_is_rechecked_before_false(self, monkeypatch):
        # A search that reports the empty 1-node graph, which violates
        # `() => K`, must not become a FALSE: the portfolio re-checks
        # every hit with the Definition 2.1 checker.
        from repro.reasoning import portfolio

        def lying_scan(*args, **kwargs):
            empty = Graph(root=0, nodes=[0])
            return SearchReport(graph=empty, exhausted=True, states=1)

        monkeypatch.setattr(portfolio, "scan_codes", lying_scan)
        with pytest.raises(RuntimeError, match="reference checker rejects"):
            portfolio.run_portfolio(
                _divergent_problem(), SolveOptions(chase_steps=1)
            )


class TestPortfolioBudgets:
    def test_expired_budget_is_unknown(self):
        result = solve(
            _divergent_problem(), SolveOptions(chase_steps=2), deadline=0.0
        )
        assert result.answer is Trilean.UNKNOWN
        assert any("budget" in note for note in result.notes)

    def test_expired_budget_is_unknown_parallel(self):
        result = solve(
            _divergent_problem(),
            SolveOptions(chase_steps=2),
            deadline=0.0,
            jobs=2,
        )
        assert result.answer is Trilean.UNKNOWN

    def test_budget_from_seconds(self):
        assert Budget.from_seconds(None).deadline is None
        assert Budget.from_seconds(None).remaining() is None
        assert not Budget.from_seconds(None).expired
        tight = Budget.from_seconds(0.0)
        assert tight.expired
        assert tight.remaining() == 0.0
        loose = Budget.from_seconds(3600.0)
        assert not loose.expired
        assert loose.remaining() > 3000.0


class TestPortfolioStats:
    def test_stats_present_sequential(self):
        result = solve(_divergent_problem(), SolveOptions(chase_steps=2))
        engines = {s.engine for s in result.stats}
        assert engines == {"chase", "countermodel"}
        chase_stats = next(s for s in result.stats if s.engine == "chase")
        assert chase_stats.outcome == "unknown"
        search = next(s for s in result.stats if s.engine == "countermodel")
        assert search.outcome == "hit"
        assert search.candidates > 0
        assert "engine[" in result.describe()

    def test_stats_present_parallel(self):
        result = solve(
            _divergent_problem(), SolveOptions(chase_steps=2), jobs=4
        )
        engines = {s.engine for s in result.stats}
        assert engines == {"chase", "countermodel"}

    def test_chase_win_keeps_portfolio_notes(self):
        problem = ImplicationProblem(
            parse_constraints("() => K\nK :: a => b"),
            parse_constraint("a => b"),
        )
        result = solve(problem, jobs=1)
        assert result.answer is Trilean.TRUE
        assert "chase" in result.method
        assert any("undecidable" in note for note in result.notes)
        assert any(s.engine == "chase" for s in result.stats)


class TestTypedPortfolio:
    def test_typed_countermodel_same_any_jobs(self, bib_schema):
        # The hit is the first counter-model in stream order, whatever
        # the jobs value.
        sigma = parse_constraints("book.member.author => person")
        phi = parse_constraint("person => book.member.author")
        results = [
            solve(
                ImplicationProblem(
                    sigma, phi, context="M+", schema=bib_schema
                ),
                SolveOptions(typed_search_limit=2000),
                jobs=jobs,
            )
            for jobs in (1, 4)
        ]
        assert all(r.answer is Trilean.FALSE for r in results)
        seq, par = results
        assert _edge_set(seq.countermodel) == _edge_set(par.countermodel)
        first = reference_typed_scan(
            bib_schema, sigma, phi, max_oids=2, limit=2000
        )
        assert first.hit_index is not None
        assert _edge_set(seq.countermodel) == _edge_set(first.graph)
        assert _edge_set(seq.certificate.to_graph()) == _edge_set(first.graph)

    def test_typed_unknown_keeps_no_untyped_fixpoint_note(self, bib_schema):
        # The chase reaches an untyped fixpoint violating phi, and no
        # small instance refutes phi: the fixpoint is no U_f(Delta)
        # instance, so the UNKNOWN must not call it a model.
        sigma = parse_constraints("book :: member ~> ()")
        phi = parse_constraint("book.member => person")
        result = solve(
            ImplicationProblem(sigma, phi, context="M+", schema=bib_schema)
        )
        assert result.answer is Trilean.UNKNOWN
        chase = next(s for s in result.stats if s.engine == "chase")
        assert chase.outcome == "false"
        assert TYPED_CHASE_FALSE_NOTE in result.notes
        assert not any("fixpoint is a finite model" in n for n in result.notes)
        search = next(
            s for s in result.stats if s.engine == "typed-countermodel"
        )
        assert "screens=" in search.detail

    def test_chase_true_transfers_parallel(self, bib_schema):
        sigma = parse_constraints("book.member.author => person")
        phi = parse_constraint("book.member.author.member => person.member")
        result = solve(
            ImplicationProblem(sigma, phi, context="M+", schema=bib_schema),
            jobs=4,
        )
        assert result.answer is Trilean.TRUE
        assert result.method == "chase(untyped, transfers)"
