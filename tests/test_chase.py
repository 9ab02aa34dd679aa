"""Tests for the P_c chase and chase-based semi-decision."""

from __future__ import annotations

import importlib

import pytest

from repro.checking import check, violations
from repro.checking.engine import satisfies_all
from repro.constraints import backward, forward, parse_constraint, parse_constraints, word
from repro.diffcheck.generators import generate_instance
from repro.graph import Graph
from repro.reasoning import ImplicationProblem, chase, chase_implication, solve
from repro.reasoning.chase import DEFAULT_CHASE_STEPS, ChaseOutcome, tableau_for
from repro.truth import Trilean


class TestTableau:
    def test_forward_shape(self):
        phi = parse_constraint("p.q :: a.b => c")
        graph, x, y = tableau_for(phi)
        assert graph.eval_path("p.q") == frozenset({x})
        assert graph.eval_path("a.b", start=x) == frozenset({y})

    def test_word_constraint_tableau(self):
        phi = parse_constraint("a => b")
        graph, x, y = tableau_for(phi)
        assert x == graph.root
        assert graph.eval_path("a") == frozenset({y})

    def test_empty_hypothesis(self):
        phi = parse_constraint("p :: () => q")
        graph, x, y = tableau_for(phi)
        assert x == y


class TestChaseRepair:
    def test_repairs_word_constraint(self, fig1):
        sigma = parse_constraints("book.title => official")
        outcome = chase(fig1, sigma, max_steps=100)
        assert outcome.fixpoint
        assert satisfies_all(outcome.graph, sigma)
        # Original graph untouched.
        assert not satisfies_all(fig1, sigma)

    def test_repairs_inverse_constraints(self):
        g = Graph(root="r")
        g.add_edge("r", "book", "b")
        g.add_edge("b", "author", "p")
        sigma = [backward("book", "author", "wrote")]
        outcome = chase(g, sigma, max_steps=10)
        assert outcome.fixpoint
        assert outcome.graph.has_edge("p", "wrote", "b")

    def test_merge_on_empty_conclusion(self):
        g = Graph(root="r")
        g.add_edge("r", "p", "x")
        g.add_edge("x", "a", "y")
        sigma = [forward("p", "a", "")]  # a-successors collapse into x
        outcome = chase(g, sigma, max_steps=10)
        assert outcome.fixpoint
        assert outcome.merges == 1
        assert outcome.resolve("y") == outcome.resolve("x")
        assert check(outcome.graph, sigma[0]).holds

    def test_divergent_chase_hits_budget(self):
        # x => x.a forces an infinite a-chain.
        sigma = [word("a", "a.a")]
        g = Graph(root="r")
        g.add_edge("r", "a", "n")
        outcome = chase(g, sigma, max_steps=25)
        assert not outcome.fixpoint
        assert outcome.steps == 25

    def test_chase_counts_steps(self, fig1):
        outcome = chase(fig1, parse_constraints("book.title => t2"), max_steps=50)
        assert outcome.steps == 3  # one repair per title leaf


class TestChaseImplication:
    def test_positive_word(self):
        sigma = parse_constraints("a => b\nb.c => d")
        result = chase_implication(sigma, parse_constraint("a.c => d"))
        assert result.answer is Trilean.TRUE

    def test_positive_with_inverse(self):
        sigma = parse_constraints("book :: author ~> wrote")
        # If y is an author of book x, then x is reachable from y:
        # author.wrote from x comes back to x... phrased as forward:
        phi = parse_constraint("book :: author.wrote => ()")
        # Chase: tableau book-x, author-y; sigma adds wrote(y, x); now
        # author.wrote from x reaches x: conclusion epsilon... but also
        # other wrote edges may exist; here implication DOES NOT hold in
        # general (y could write several books).  The chase must say
        # FALSE with a counter-model or UNKNOWN, never TRUE.
        result = chase_implication(sigma, phi)
        assert result.answer is not Trilean.TRUE

    def test_negative_with_countermodel(self):
        sigma = parse_constraints("a => b")
        result = chase_implication(sigma, parse_constraint("b => a"))
        assert result.answer is Trilean.FALSE
        assert result.countermodel is not None
        assert satisfies_all(result.countermodel, sigma)
        assert not check(
            result.countermodel, parse_constraint("b => a")
        ).holds

    def test_unknown_on_divergence(self):
        sigma = parse_constraints("a => a.a\na.a => b")
        # The chase on the tableau of any query about `a` diverges.
        result = chase_implication(
            sigma, parse_constraint("a => c"), max_steps=30
        )
        assert result.answer is Trilean.UNKNOWN

    def test_egd_merging_proves_equality_consequence(self):
        # p :: a => () and p :: b => () force a- and b-successors to
        # coincide with x, hence with each other.
        sigma = parse_constraints("p :: a => ()\np :: b => ()")
        result = chase_implication(sigma, parse_constraint("p :: a => b"))
        # After merging, b(x, y) holds iff b(x, x): needs b-edge; the
        # tableau has an a-path only, so the hypothesis b never fires...
        # test the sharper query with both paths present:
        result = chase_implication(sigma, parse_constraint("p :: () => ()"))
        assert result.answer is Trilean.TRUE

    def test_backward_query_positive(self):
        sigma = parse_constraints("book :: author ~> wrote")
        result = chase_implication(
            sigma, parse_constraint("book :: author ~> wrote")
        )
        assert result.answer is Trilean.TRUE

    def test_certificate_carries_outcome(self):
        sigma = parse_constraints("a => b")
        result = chase_implication(sigma, parse_constraint("a.c => b.c"))
        assert result.certificate is not None
        assert result.certificate.graph is not None


class TestNodeIdentityRegression:
    """Regression for the copy/fresh-counter resurrection bug: a chase
    that merges away an integer node and then allocates fresh nodes
    must not rebirth the merged id, or ``ChaseOutcome.resolve`` would
    silently redirect a live node."""

    @staticmethod
    def _merge_then_allocate_outcome():
        g = Graph(root="r")
        n_a = g.fresh_node()  # 0 — will be merged into the root
        n_b = g.fresh_node()  # 1 — target of the generated path
        g.add_edge("r", "a", n_a)
        g.add_edge("r", "b", n_b)
        sigma = [
            forward("", "a", ""),     # EGD: every a-successor equals r
            forward("", "b", "c.d"),  # TGD: allocates a fresh midpoint
        ]
        return chase(g, sigma, max_steps=100), n_a

    def test_merged_ids_stay_dead(self):
        outcome, n_a = self._merge_then_allocate_outcome()
        assert outcome.fixpoint
        assert outcome.merges >= 1
        assert n_a in outcome.node_map
        # The heart of the bug: a node id recorded as merged away must
        # not reappear in the chased graph as a fresh allocation.
        reborn = set(outcome.node_map) & set(outcome.graph.nodes)
        assert not reborn, f"merged ids resurrected: {reborn}"

    def test_resolve_targets_are_live(self):
        outcome, n_a = self._merge_then_allocate_outcome()
        assert outcome.resolve(n_a) == "r"
        for node in outcome.node_map:
            assert outcome.graph.has_node(outcome.resolve(node))


# perfbench's race shapes (``HEAVY_TEMPLATES``), un-renamed; the
# chase-true ones with the repair at which the conclusion holds.
CHASE_TRUE_SHAPES = [
    (["K :: a => a.a", "K :: a => a"], "K :: a => a", 0),
    (["b :: a => a.a", "b ~> a"], "b ~> a", 1),
]
UNSETTLED_SHAPES = [
    (["a :: b => b.b"], "a :: b ~> a"),  # countermodel
    (["K :: a => a.a"], "K :: a => K"),  # countermodel
    (["a => a.b", "a ~> b"], "a ~> b"),  # exhaustive
]


def _shape(sigma_lines, phi_line):
    return [parse_constraint(line) for line in sigma_lines], parse_constraint(
        phi_line
    )


class TestGoalCheckedChase:
    """The conclusion is checked before the first repair and after
    each one; divergent shapes still spend exactly their budget."""

    @pytest.mark.parametrize("sigma_lines,phi_line,repairs", CHASE_TRUE_SHAPES)
    def test_chase_true_shapes_settle_within_one_repair(
        self, sigma_lines, phi_line, repairs
    ):
        sigma, phi = _shape(sigma_lines, phi_line)
        result = chase_implication(sigma, phi)
        assert result.answer is Trilean.TRUE
        assert result.certificate.steps == repairs

    @pytest.mark.parametrize("sigma_lines,phi_line", UNSETTLED_SHAPES)
    def test_unsettled_shapes_spend_the_whole_budget(
        self, sigma_lines, phi_line
    ):
        sigma, phi = _shape(sigma_lines, phi_line)
        result = chase_implication(sigma, phi)
        assert result.answer is Trilean.UNKNOWN
        assert result.certificate.steps == DEFAULT_CHASE_STEPS
        assert not result.certificate.fixpoint

    def test_portfolio_verdicts_on_unsettled_shapes(self):
        answers = [
            solve(ImplicationProblem(*_shape(s, p)), jobs=1).answer
            for s, p in UNSETTLED_SHAPES
        ]
        assert answers == [Trilean.FALSE, Trilean.FALSE, Trilean.UNKNOWN]

    def test_goal_reads_x_and_y_through_merges(self):
        # The EGD merges the tableau's y (the a-successor of x = r)
        # away; the conclusion epsilon(x, y) then holds at the merged
        # node, and only there.
        phi = parse_constraint("a => ()")
        _, _, y = tableau_for(phi)
        result = chase_implication(parse_constraints("a => ()"), phi)
        assert result.answer is Trilean.TRUE
        assert (result.certificate.steps, result.certificate.merges) == (1, 1)
        assert result.certificate.resolve(y) == "r"
        # Two repairs: b => a adds the a-edge, then a => () merges.
        sigma = parse_constraints("a => ()\nb => a")
        result = chase_implication(sigma, parse_constraint("b => ()"))
        assert result.answer is Trilean.TRUE
        assert (result.certificate.steps, result.certificate.merges) == (2, 1)

    def test_divergent_chase_repairs_from_new_edges_only(self, monkeypatch):
        # One full scan seeds the worklist; the 2000 repairs after it
        # are fed by their own edges, and only the budget-exit recheck
        # scans again.
        scans = _count_scans(monkeypatch)
        sigma, phi = _shape(*UNSETTLED_SHAPES[2])
        result = chase_implication(sigma, phi)
        assert result.certificate.steps == DEFAULT_CHASE_STEPS
        assert len(scans) == 2

    def test_repairs_feed_earlier_premises(self, monkeypatch):
        # The second premise's repair adds the b-edge that violates the
        # first, which was already scanned clean: only its worklist can
        # carry the new pair into the next pass.  The fixpoint is
        # claimed after a closing pass of full scans, not on the
        # worklists' word.
        scans = _count_scans(monkeypatch)
        g = Graph(root="r")
        g.add_edge("r", "a", "n")
        sigma = parse_constraints("b => c\na => b")
        outcome = chase(g, sigma, max_steps=10)
        assert outcome.fixpoint
        assert outcome.steps == 2
        assert outcome.graph.has_edge("r", "c", "n")
        assert satisfies_all(outcome.graph, sigma)
        assert len(scans) == 2 * len(sigma)  # first pass + closing pass


    def test_fed_pairs_are_rechecked_before_repair(self):
        # a => b's repair feeds (r, n) to b => a, whose conclusion
        # a(r, n) already holds: the probe drops it, no repair follows.
        g = Graph(root="r")
        g.add_edge("r", "a", "n")
        outcome = chase(g, parse_constraints("b => a\na => b"), max_steps=10)
        assert outcome.fixpoint
        assert outcome.steps == 1


def _count_scans(monkeypatch) -> list:
    """Record every violations() scan the chase makes.  (The package
    re-exports the function chase under the module's name, hence the
    import by path.)"""
    chase_module = importlib.import_module("repro.reasoning.chase")
    scans: list = []

    def counting(graph, constraint, limit=None):
        scans.append(constraint)
        return violations(graph, constraint, limit=limit)

    monkeypatch.setattr(chase_module, "violations", counting)
    return scans


# ---------------------------------------------------------------------------
# Differential test against a reference chase that rescans the premise
# from the root after every repair and reads the conclusion only once
# the chase has stopped.  Same repair order (premise by premise), so it
# is the oracle the worklist chase must agree with.
# ---------------------------------------------------------------------------


def _reference_chase(graph, sigma, max_steps):
    sigma = list(sigma)
    work = graph.copy()
    node_map = {}
    steps = 0
    merges = 0
    progress = True
    clean_pass = False
    while progress and steps < max_steps:
        progress = False
        for constraint in sigma:
            if steps >= max_steps:
                break
            bad = violations(work, constraint, limit=1)
            while bad and steps < max_steps:
                x, y = bad[0]
                steps += 1
                progress = True
                if constraint.rhs.is_empty():
                    keep, remove = (x, y) if y != work.root else (y, x)
                    if keep != remove:
                        work.merge_nodes(keep, remove)
                        node_map[remove] = keep
                        merges += 1
                elif constraint.is_forward():
                    work.add_path(x, constraint.rhs, dst=y)
                else:
                    work.add_path(y, constraint.rhs, dst=x)
                bad = violations(work, constraint, limit=1)
        if not progress:
            clean_pass = True
    fixpoint = clean_pass or all(
        not violations(work, c, limit=1) for c in sigma
    )
    return ChaseOutcome(work, fixpoint, steps, merges, node_map)


def _reference_verdict(sigma, phi, max_steps):
    tableau, x, y = tableau_for(phi)
    outcome = _reference_chase(tableau, sigma, max_steps)
    x, y = outcome.resolve(x), outcome.resolve(y)
    if phi.is_forward():
        holds = outcome.graph.satisfies_path(phi.rhs, x, y)
    else:
        holds = outcome.graph.satisfies_path(phi.rhs, y, x)
    if holds:
        return Trilean.TRUE
    return Trilean.FALSE if outcome.fixpoint else Trilean.UNKNOWN


DIFFERENTIAL_FRAGMENTS = ("P_c", "P_w(K)", "P_w+egd")
DIFFERENTIAL_BUDGETS = (40, 400)


@pytest.mark.parametrize("fragment", DIFFERENTIAL_FRAGMENTS)
@pytest.mark.parametrize("max_steps", DIFFERENTIAL_BUDGETS)
def test_worklist_chase_agrees_with_the_reference(fragment, max_steps):
    """No definite answer contradicts the reference loop; where every
    conclusion has at most one label (no fresh nodes, so the fixpoint
    does not depend on repair order) the verdicts and the fixpoint's
    node and edge counts match exactly.  Without merges each such
    repair adds one edge of that fixpoint, so the repair counts match
    too."""
    single_label = 0
    for index in range(40):
        instance = generate_instance(fragment, seed=3, index=index)
        sigma, phi = list(instance.sigma), instance.phi
        reference = _reference_verdict(sigma, phi, max_steps)
        result = chase_implication(sigma, phi, max_steps=max_steps)
        if result.answer.is_definite and reference.is_definite:
            assert result.answer is reference, (fragment, index)
        if result.answer is Trilean.FALSE:
            assert satisfies_all(result.countermodel, sigma)
            assert not check(result.countermodel, phi).holds
        if all(len(c.rhs) <= 1 for c in sigma):
            single_label += 1
            assert result.answer is reference, (fragment, index)
            tableau, _, _ = tableau_for(phi)
            ours = chase(tableau, sigma, max_steps=max_steps)
            theirs = _reference_chase(tableau, sigma, max_steps)
            assert ours.fixpoint == theirs.fixpoint, (fragment, index)
            if ours.fixpoint:
                assert ours.graph.node_count() == theirs.graph.node_count()
                assert ours.graph.edge_count() == theirs.graph.edge_count()
                if not any(c.rhs.is_empty() for c in sigma):
                    assert ours.steps == theirs.steps, (fragment, index)
    assert single_label  # the exact comparison actually ran
