"""Tests for constraint satisfaction (G |= phi) and batch validation."""

from __future__ import annotations

from repro.checking import check, check_all, violations
from repro.checking.engine import satisfies_all
from repro.constraints import backward, forward, parse_constraint, word
from repro.graph import Graph
from repro.graph.builders import figure1_graph


class TestFigure1Semantics:
    """Every Section 1 constraint against the Figure 1 graph."""

    def test_extent_constraints_hold(self, fig1):
        assert check(fig1, parse_constraint("book.author => person")).holds
        assert check(fig1, parse_constraint("person.wrote => book")).holds
        assert check(fig1, parse_constraint("book.ref => book")).holds

    def test_inverse_constraints_hold(self, fig1):
        assert check(fig1, parse_constraint("book :: author ~> wrote")).holds
        assert check(fig1, parse_constraint("person :: wrote ~> author")).holds

    def test_section1_set_holds(self, penn_bib, section1_constraints):
        report = check_all(penn_bib, section1_constraints)
        assert report.ok, report.summary()

    def test_local_inverse_on_mit(self, penn_bib):
        assert check(
            penn_bib, parse_constraint("MIT.book :: author ~> wrote")
        ).holds

    def test_violation_detected_with_witness(self, fig1):
        fig1.add_edge("r", "book", "rogue")
        fig1.add_edge("rogue", "author", "stranger")
        phi = parse_constraint("book.author => person")
        result = check(fig1, phi)
        assert not result.holds
        assert ("r", "stranger") in result.violating_pairs

    def test_backward_violation_witness(self, fig1):
        fig1.add_edge("book1", "author", "lonely")
        phi = parse_constraint("book :: author ~> wrote")
        result = check(fig1, phi)
        assert not result.holds
        assert ("book1", "lonely") in result.violating_pairs


class TestSemanticsEdgeCases:
    def test_vacuous_when_prefix_empty_image(self):
        g = Graph(root="r")
        assert check(g, forward("ghost", "a", "b")).holds

    def test_vacuous_when_hypothesis_empty(self):
        g = Graph(root="r")
        g.add_edge("r", "p", "x")
        assert check(g, forward("p", "a", "b")).holds

    def test_empty_prefix_means_root(self):
        g = Graph(root="r")
        g.add_edge("r", "a", "x")
        # word(a, b): a(r, x) holds, b(r, x) doesn't.
        assert not check(g, word("a", "b")).holds
        g.add_edge("r", "b", "x")
        assert check(g, word("a", "b")).holds

    def test_empty_hypothesis_path(self):
        # p :: () => q means q(x, x) for every p-node x.
        g = Graph(root="r")
        g.add_edge("r", "p", "x")
        phi = forward("p", "", "q")
        assert not check(g, phi).holds
        g.add_edge("x", "q", "x")
        assert check(g, phi).holds

    def test_empty_conclusion_forward(self):
        # p :: a => () means every a-successor of x is x itself.
        g = Graph(root="r")
        g.add_edge("r", "p", "x")
        g.add_edge("x", "a", "x")
        phi = forward("p", "a", "")
        assert check(g, phi).holds
        g.add_edge("x", "a", "other")
        assert not check(g, phi).holds

    def test_empty_conclusion_backward(self):
        # Backward with empty conclusion: epsilon(y, x), i.e. x == y.
        g = Graph(root="r")
        g.add_edge("r", "p", "x")
        g.add_edge("x", "a", "x")
        assert check(g, backward("p", "a", "")).holds

    def test_backward_direction_really_reversed(self):
        g = Graph(root="r")
        g.add_edge("r", "p", "x")
        g.add_edge("x", "a", "y")
        g.add_edge("x", "w", "y")  # forward direction only
        assert check(g, forward("p", "a", "w")).holds
        assert not check(g, backward("p", "a", "w")).holds
        g.add_edge("y", "w", "x")
        assert check(g, backward("p", "a", "w")).holds

    def test_multiple_prefix_witnesses(self):
        g = Graph(root="r")
        for i in (1, 2):
            g.add_edge("r", "p", f"x{i}")
            g.add_edge(f"x{i}", "a", f"y{i}")
        g.add_edge("x1", "b", "y1")  # only x1 satisfies the conclusion
        phi = forward("p", "a", "b")
        result = check(g, phi)
        assert not result.holds
        assert result.violating_pairs == (("x2", "y2"),)
        assert result.witnesses == 2

    def test_violations_limit(self):
        g = Graph(root="r")
        for i in range(5):
            g.add_edge("r", "a", f"x{i}")
        out = violations(g, word("a", "b"), limit=2)
        assert len(out) == 2


class TestBatchEngine:
    def test_report_aggregates(self, fig1):
        from repro.constraints import parse_constraints

        constraints = parse_constraints(
            """
            book.author => person
            book.title => person
            """
        )
        report = check_all(fig1, constraints)
        assert not report.ok
        assert len(report.failed) == 1
        assert report.total_witnesses > 0
        assert "FAIL" in report.summary()

    def test_satisfies_all_short_circuit(self, fig1):
        from repro.constraints import parse_constraints

        good = parse_constraints("book.author => person")
        bad = parse_constraints("book.title => person\nbook.author => person")
        assert satisfies_all(fig1, good)
        assert not satisfies_all(fig1, bad)

    def test_empty_constraint_set(self, fig1):
        assert check_all(fig1, []).ok


class TestSinglePassCheck:
    def test_check_counts_and_violations_consistent(self):
        from repro.checking.satisfaction import check
        from repro.constraints import parse_constraint

        g = figure1_graph()
        phi = parse_constraint("book.author => person")
        result = check(g, phi)
        assert result.holds
        # Empty prefix: the sole witness source is the root, so the
        # count is the size of the hypothesis image.
        assert result.witnesses == len(g.eval_path("book.author"))

    def test_backward_conclusion_batched_matches_per_pair(self):
        from repro.constraints.ast import backward

        g = figure1_graph()
        phi = backward("book", "author", "wrote")
        batched = set(violations(g, phi))
        per_pair = set()
        for x in g.eval_path("book"):
            for y in g.eval_path("author", start=x):
                if not g.satisfies_path("wrote", y, x):
                    per_pair.add((x, y))
        assert batched == per_pair
