"""Tests for the canonical enumeration layer and the portfolio solver.

Two families:

* **canonical layer** — the isomorphism-pruned code enumeration of
  :mod:`repro.reasoning.models` must be provably complete: orbit sizes
  over canonical representatives reconcile with the full space
  ``2^(L*n^2)``, the bit-level constraint checker agrees with the
  Definition 2.1 evaluator, and every brute-force counter-model is
  reachable through its canonical form;
* **portfolio** — racing engines must not cost determinism: the same
  counter-model comes back at any ``jobs``, budgets expire into honest
  UNKNOWNs, and per-engine stats are attached to every result.
"""

from __future__ import annotations

import pickle

import pytest

from repro.checking import check
from repro.checking.engine import satisfies_all
from repro.constraints import parse_constraint, parse_constraints
from repro.reasoning import (
    Budget,
    ImplicationProblem,
    SolveOptions,
    parallel_countermodel_search,
    solve,
)
from repro.reasoning.models import (
    CodeSpace,
    ShardReport,
    _is_countermodel,
    all_graphs,
    brute_force_countermodel,
    find_countermodel,
    infer_alphabet,
    scan_codes,
)
from repro.reasoning.portfolio import _plan_shards
from repro.truth import Trilean

# A refutable P_c instance whose smallest counter-model has 3 nodes
# (the `a :: a => a` tautology keeps two distinct guards => GENERAL
# without touching the alphabet, so the code space stays 2^(2*n^2)).
DIVERGENT_SIGMA = "() => K\nK :: () => a.a.a\nK :: a.a.a => ()\na :: a => a"
DIVERGENT_PHI = "K :: a => ()"


def _divergent_problem() -> ImplicationProblem:
    return ImplicationProblem(
        parse_constraints(DIVERGENT_SIGMA), parse_constraint(DIVERGENT_PHI)
    )


def _edge_set(graph):
    return sorted(graph.edges())


class TestCanonicalCompleteness:
    @pytest.mark.parametrize(
        "node_count,labels",
        [
            (1, ("a",)),
            (2, ("a",)),
            (3, ("a",)),
            (1, ("a", "b")),
            (2, ("a", "b")),
            (3, ("a", "b")),
        ],
    )
    def test_orbit_sizes_cover_whole_space(self, node_count, labels):
        # Burnside bookkeeping: one representative per isomorphism
        # class, orbit sizes summing to 2^(L*n^2) — no graph is lost
        # and none is double-counted.
        space = CodeSpace(node_count, labels)
        classes = list(space.canonical_classes())
        assert sum(size for _, size in classes) == space.total
        assert len({code for code, _ in classes}) == len(classes)
        assert all(space.is_canonical(code) for code, _ in classes)

    def test_canonical_form_is_orbit_minimum(self):
        space = CodeSpace(3, ("a",))
        for code in range(space.total):
            canon = space.canonical_form(code)
            assert canon == min(space.orbit(code))
            assert space.is_canonical(canon)

    def test_orbits_partition_the_space(self):
        space = CodeSpace(3, ("a",))
        seen: set[int] = set()
        for code, size in space.canonical_classes():
            orbit = space.orbit(code)
            assert len(orbit) == size
            assert not (orbit & seen)
            seen |= orbit
        assert len(seen) == space.total

    def test_every_brute_force_countermodel_has_canonical_hit(self):
        # Soundness of pruning: for every counter-model found by the
        # unpruned seed enumeration, its canonical form must itself be
        # a counter-model (isomorphism preserves P_c satisfaction), so
        # the canonical scan cannot miss a refutation.
        sigma = parse_constraints("a :: b ~> b")
        phi = parse_constraint("b :: a ~> b")
        labels = infer_alphabet(sigma, phi)
        space = CodeSpace(2, labels)
        hits = 0
        for code in range(space.total):
            graph = space.to_graph(code)
            if _is_countermodel(graph, sigma, phi):
                hits += 1
                canon = space.canonical_form(code)
                assert _is_countermodel(space.to_graph(canon), sigma, phi)
                assert space.is_canonical(canon)
        assert hits > 0  # the instance is genuinely refutable

    def test_bit_checker_agrees_with_reference_checker(self):
        # The compiled bitmask evaluator and the Definition 2.1
        # evaluator must classify every 2-node candidate identically.
        sigma = parse_constraints("a :: b ~> b")
        phi = parse_constraint("b :: a ~> b")
        labels = infer_alphabet(sigma, phi)
        space = CodeSpace(2, labels)
        report = scan_codes(
            space, sigma, phi, require_reachable=False
        )
        from repro.reasoning.models import (
            _code_is_countermodel,
            compile_constraints,
        )

        compiled_sigma = compile_constraints(sigma, space.labels)
        (compiled_phi,) = compile_constraints([phi], space.labels)
        for code in range(space.total):
            adj, radj = space.adjacency(code)
            fast = _code_is_countermodel(adj, radj, compiled_sigma, compiled_phi)
            slow = _is_countermodel(space.to_graph(code), sigma, phi)
            assert fast == slow, f"checker drift at code {code}"
        assert report.hit is not None

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


class TestShardPlanning:
    def test_ranges_are_contiguous_and_cover(self):
        for total, shards in [(10, 3), (16, 4), (5, 8), (1, 1), (7, 7)]:
            ranges = _plan_shards(total, shards)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == total
            for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                assert stop == start
            assert all(start < stop for start, stop in ranges)

    def test_shard_union_equals_sequential_scan(self):
        sigma = parse_constraints(DIVERGENT_SIGMA)
        phi = parse_constraint(DIVERGENT_PHI)
        labels = infer_alphabet(sigma, phi)
        space = CodeSpace(3, labels)
        whole = scan_codes(space, sigma, phi)
        assert whole.hit is not None
        # Scanning the same space in 8 contiguous shards and taking the
        # first hit (all earlier shards exhausted hitless) must land on
        # the identical code.
        first_hit = None
        for start, stop in _plan_shards(space.total, 8):
            part = scan_codes(space, sigma, phi, start, stop)
            assert part.exhausted
            if part.hit is not None:
                first_hit = part.hit
                break
        assert first_hit == whole.hit


class TestPortfolioDeterminism:
    def test_same_countermodel_any_jobs(self):
        sigma = parse_constraints(DIVERGENT_SIGMA)
        phi = parse_constraint(DIVERGENT_PHI)
        sequential = parallel_countermodel_search(sigma, phi, jobs=1).graph
        assert sequential is not None
        assert sequential.node_count() == 3
        parallel = parallel_countermodel_search(sigma, phi, jobs=4).graph
        assert parallel is not None
        assert _edge_set(sequential) == _edge_set(parallel)

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
        # A scan that reports the empty 1-node graph, which violates
        # `() => K`, must not become a FALSE: the portfolio re-checks
        # every hit with the Definition 2.1 checker.
        from repro.reasoning import portfolio

        def lying_scan(space, sigma, phi, start, stop, **kwargs):
            return ShardReport(
                node_count=space.node_count,
                start=start,
                stop=stop,
                hit=0,
                examined=1,
                canonical=1,
                exhausted=True,
            )

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

    def test_chase_true_transfers_parallel(self, bib_schema):
        sigma = parse_constraints("book.member.author => person")
        phi = parse_constraint("book.member.author.member => person.member")
        result = solve(
            ImplicationProblem(sigma, phi, context="M+", schema=bib_schema),
            jobs=4,
        )
        assert result.answer is Trilean.TRUE
        assert result.method == "chase(untyped, transfers)"


class TestWorkerPayloadPickling:
    """Everything crossing the process boundary must pickle."""

    def test_constraints_and_graphs(self):
        sigma = parse_constraints(DIVERGENT_SIGMA)
        phi = parse_constraint(DIVERGENT_PHI)
        assert pickle.loads(pickle.dumps(sigma)) == sigma
        assert pickle.loads(pickle.dumps(phi)) == phi
        graph = parallel_countermodel_search(sigma, phi, jobs=1).graph
        clone = pickle.loads(pickle.dumps(graph))
        assert _edge_set(clone) == _edge_set(graph)

    def test_schema_roundtrip(self, bib_schema):
        clone = pickle.loads(pickle.dumps(bib_schema))
        assert clone.class_names == bib_schema.class_names
        assert clone.db_type == bib_schema.db_type

    def test_budget_roundtrip(self):
        budget = Budget(deadline=12345.0)
        assert pickle.loads(pickle.dumps(budget)) == budget
