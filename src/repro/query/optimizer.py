"""Constraint-aware optimization of path queries.

Two classical uses of implied word constraints (Section 2.2 calls
implication "useful for, among other things, query optimization"):

* **subsumption pruning** — in a union of word queries, a branch whose
  answers are provably contained in another branch's contributes
  nothing and is dropped (``Sigma |- p => q`` gives
  ``answers(p) c answers(q)`` in every database satisfying Sigma);
* **equivalent rewriting** — a word query may be replaced by any
  provably *equivalent* word (derivable in both directions); picking
  the shortlex-least equivalent, e.g. rewriting ``book.author.wrote``
  to ``book`` under inverse constraints, turns long navigations into
  extent scans.

Both are sound only on databases that satisfy Sigma; the optimizer is
deliberately decoupled from evaluation so callers choose when to trust
their constraints.

Every implication question is routed through
:func:`repro.reasoning.dispatcher.solve`, so the optimizer inherits
the cross-request cache and the deadline.  Implications the solver
cannot settle (Sigma with equality-generating word constraints can
defeat both the sound closure and the chase) are treated as *not
proven*: the branch is kept conservatively and the unsettled question
lands in ``OptimizationReport.notes`` — a legal query plus a legal
Sigma never crashes the optimizer.

For full regular patterns (not just unions of words),
:func:`optimize_rpq_union` prunes subsumed and provably-empty branches
through a :class:`~repro.query.containment.QueryContainmentChecker`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TypeVar

from repro.constraints.ast import PathConstraint
from repro.constraints.ast import word as word_constraint
from repro.errors import IncompleteFragmentError
from repro.graph.structure import Graph, Node
from repro.paths import Path
from repro.query.containment import QueryContainmentChecker
from repro.query.rpq import RPQResult, evaluate_nfa, evaluate_word
from repro.reasoning.cache import ImplicationCache
from repro.reasoning.dispatcher import ImplicationProblem, solve
from repro.reasoning.options import DEFAULT_SOLVE_OPTIONS, SolveOptions
from repro.reasoning.runtime import Budget
from repro.reasoning.word import WordImplicationDecider
from repro.truth import Trilean


_Branch = TypeVar("_Branch", Path, str)


def _prune_union(
    branches: Iterable[_Branch],
    subsumption: Callable[[_Branch, _Branch], Trilean],
    empty: Callable[[_Branch], bool] = lambda branch: False,
) -> tuple[list[_Branch], list[tuple[_Branch, _Branch]], list[_Branch], int]:
    """The union-pruning loop of both optimizers.

    Visits the branches in sorted order.  A repeated branch is recorded
    as absorbing itself, a branch ``empty`` accepts is set aside, and a
    branch that ``subsumption`` proves contained in another is dropped;
    under mutual subsumption the least one stays.  Returns the kept
    branches, the (dropped, absorbed-by) pairs, the empty branches and
    the number of UNKNOWN subsumption answers.
    """
    pruned: list[tuple[_Branch, _Branch]] = []
    emptied: list[_Branch] = []
    ordered: list[_Branch] = []
    seen: set[_Branch] = set()
    for branch in sorted(branches):
        if branch in seen:
            pruned.append((branch, branch))
            continue
        seen.add(branch)
        if empty(branch):
            emptied.append(branch)
        else:
            ordered.append(branch)

    kept: list[_Branch] = []
    unknowns = 0
    for candidate in ordered:
        absorbed_by = None
        for other in ordered:
            if other == candidate:
                continue
            verdict = subsumption(candidate, other)
            if verdict is Trilean.UNKNOWN:
                unknowns += 1
                continue
            if verdict is Trilean.TRUE:
                if (
                    subsumption(other, candidate) is Trilean.TRUE
                    and candidate < other
                ):
                    continue
                absorbed_by = other
                break
        if absorbed_by is None:
            kept.append(candidate)
        else:
            pruned.append((candidate, absorbed_by))
    return kept, pruned, emptied, unknowns


@dataclass
class OptimizationReport:
    """What the optimizer did to a union-of-words query.

    ``pruned`` accounts for every dropped occurrence — subsumed
    branches, duplicate inputs (recorded as self-absorptions) and
    rewrite collisions — so ``len(pruned) == branches_saved`` always
    holds.
    """

    original: tuple[Path, ...]
    optimized: tuple[Path, ...]
    pruned: tuple[tuple[Path, Path], ...] = ()  # (dropped, absorbed-by)
    rewrites: tuple[tuple[Path, Path], ...] = ()  # (from, to)
    notes: list[str] = field(default_factory=list)

    @property
    def branches_saved(self) -> int:
        return len(self.original) - len(self.optimized)

    @property
    def labels_saved(self) -> int:
        return sum(len(p) for p in self.original) - sum(
            len(p) for p in self.optimized
        )


class WordQueryOptimizer:
    """Optimizes word queries under a set of word constraints.

    Subsumption questions go through ``solve()`` with ``options`` and
    ``cache``; ``deadline`` (seconds) starts when the optimizer is
    built and bounds all of them together.

    >>> from repro.constraints import parse_constraints
    >>> sigma = parse_constraints('''
    ...     book.author => person
    ...     book.author.wrote => book
    ... ''')
    >>> optimizer = WordQueryOptimizer(sigma)
    >>> report = optimizer.optimize_union(
    ...     ["book.author", "person", "book.author.wrote"])
    >>> sorted(str(p) for p in report.optimized)
    ['book.author.wrote', 'person']
    """

    def __init__(
        self,
        sigma: Iterable[PathConstraint],
        cache: ImplicationCache | None = None,
        deadline: float | None = None,
        options: SolveOptions = DEFAULT_SOLVE_OPTIONS,
    ) -> None:
        self._sigma = tuple(sigma)
        # The rewrite decider only speaks P_w; with guarded constraints
        # in Sigma it saturates over the word subset (sound: word rules
        # stay valid in every context), while subsumption checks see the
        # full Sigma through the dispatcher.
        word_sigma = tuple(
            c for c in self._sigma if c.is_word_constraint()
        )
        self._decider = WordImplicationDecider(word_sigma)
        self._rewrites_restricted = len(word_sigma) < len(self._sigma)
        self._cache = cache
        self._budget = Budget.from_seconds(deadline)
        self._options = options
        self._subsumption_memo: dict[tuple[Path, Path], Trilean] = {}
        self._unsettled: list[str] = []
        #: Dispatcher traffic (the query benchmarks report these).
        self.stats = {"solve_calls": 0, "cache_hits": 0}

    @property
    def decider(self) -> WordImplicationDecider:
        return self._decider

    def subsumption(self, narrow: Path | str, wide: Path | str) -> Trilean:
        """Three-valued ``answers(narrow) c answers(wide)`` under Sigma.

        Routed through the dispatcher (cache, budgets).
        UNKNOWN means the solver could not settle the implication
        within budget — with equality-generating word constraints in
        Sigma that is a legal outcome, not an error.
        """
        narrow = Path.coerce(narrow)
        wide = Path.coerce(wide)
        if narrow == wide:
            return Trilean.TRUE
        memoized = self._subsumption_memo.get((narrow, wide))
        if memoized is not None:
            return memoized
        problem = ImplicationProblem(
            self._sigma, word_constraint(narrow, wide)
        )
        self.stats["solve_calls"] += 1
        try:
            result = solve(
                problem,
                self._options,
                deadline=self._budget.remaining(),
                cache=self._cache,
            )
            answer = result.answer
            if result.cache is not None and result.cache.status == "hit":
                self.stats["cache_hits"] += 1
        except IncompleteFragmentError:
            answer = Trilean.UNKNOWN
            self._unsettled.append(
                f"unsettled implication {narrow} => {wide}: "
                "treated as not proven; branch kept"
            )
        self._subsumption_memo[(narrow, wide)] = answer
        return answer

    def subsumes(self, narrow: Path | str, wide: Path | str) -> bool:
        """Is ``answers(narrow) c answers(wide)`` *proved*?"""
        return self.subsumption(narrow, wide) is Trilean.TRUE

    def equivalent(self, left: Path | str, right: Path | str) -> bool:
        """Provable equality of answer sets under Sigma."""
        return self.subsumes(left, right) and self.subsumes(right, left)

    def shortest_equivalent(
        self, path: Path | str, max_extra_length: int = 0
    ) -> Path:
        """The shortlex-least word provably equivalent to ``path``.

        Candidates are drawn from the ``post*`` language of the query
        word (everything it is contained in), filtered by reverse
        containment.  ``max_extra_length`` widens the candidate length
        bound beyond the original length.
        """
        path = Path.coerce(path)
        best = path
        for candidate in self._decider.consequences(
            path, max_length=len(path) + max_extra_length
        ):
            if candidate < best and self.subsumes(candidate, path):
                best = candidate
        return best

    def optimize_union(
        self, branches: Sequence[Path | str], rewrite: bool = True
    ) -> OptimizationReport:
        """Prune subsumed branches, then rewrite survivors.

        Pruning keeps the shortlex-least member of each mutual-
        subsumption clique, so the result is deterministic.  Duplicate
        input branches are recorded as self-absorptions; branches that
        rewrite onto the same word are recorded as absorbed by the
        branch that claimed the rewrite first.
        """
        original = tuple(Path.coerce(b) for b in branches)
        unsettled_before = len(self._unsettled)
        kept, pruned_pairs, _, _ = _prune_union(original, self.subsumption)
        duplicates = len(original) - len(set(original))
        subsumed = len(pruned_pairs) - duplicates

        rewrites: list[tuple[Path, Path]] = []
        merged = 0
        if rewrite:
            targets: list[tuple[Path, Path]] = []
            for branch in kept:
                best = self.shortest_equivalent(branch)
                if best != branch:
                    rewrites.append((branch, best))
                targets.append((branch, best))
            kept = []
            claimed: dict[Path, Path] = {}
            for branch, best in sorted(targets, key=lambda t: t[1]):
                if best in claimed:
                    pruned_pairs.append((branch, best))
                    merged += 1
                    continue
                claimed[best] = branch
                kept.append(best)

        report = OptimizationReport(
            original=original,
            optimized=tuple(kept),
            pruned=tuple(pruned_pairs),
            rewrites=tuple(rewrites),
        )
        if duplicates:
            report.notes.append(
                f"dropped {duplicates} duplicate branch(es) "
                "(recorded as self-absorptions)"
            )
        if subsumed:
            report.notes.append(
                f"pruned {subsumed} subsumed branch(es)"
            )
        if merged:
            report.notes.append(
                f"merged {merged} branch(es) rewriting onto the same word"
            )
        if rewrite and self._rewrites_restricted:
            report.notes.append(
                "rewrites saturated over the word subset of Sigma "
                "(guarded constraints join subsumption checks only)"
            )
        report.notes.extend(self._unsettled[unsettled_before:])
        return report

    def evaluate_union(
        self, graph: Graph, branches: Sequence[Path | str], optimize: bool = True
    ) -> tuple[frozenset[Node], list[RPQResult], OptimizationReport | None]:
        """Evaluate a union query, optionally optimized first.

        Returns (answers, per-branch results, report).  Correctness
        requires the graph to satisfy Sigma — the guarantee the
        integrity-checking engine provides.
        """
        report = self.optimize_union(branches) if optimize else None
        plan = report.optimized if report is not None else [
            Path.coerce(b) for b in branches
        ]
        results = [evaluate_word(graph, branch) for branch in plan]
        answers: set[Node] = set()
        for result in results:
            answers |= result.answers
        return frozenset(answers), results, report


# ---------------------------------------------------------------------------
# Full regular patterns: containment-checker-driven union optimization.
# ---------------------------------------------------------------------------


@dataclass
class RPQOptimizationReport:
    """What :func:`optimize_rpq_union` did to a union of patterns."""

    original: tuple[str, ...]
    optimized: tuple[str, ...]
    pruned: tuple[tuple[str, str], ...] = ()  # (dropped, absorbed-by)
    emptied: tuple[str, ...] = ()  # provably-empty branches dropped
    notes: list[str] = field(default_factory=list)

    @property
    def branches_saved(self) -> int:
        return len(self.original) - len(self.optimized)


def optimize_rpq_union(
    branches: Sequence[str],
    checker: QueryContainmentChecker,
) -> RPQOptimizationReport:
    """Prune a union of regular patterns under the checker's Sigma.

    A branch is dropped when it is *provably* empty over the schema or
    provably contained in another branch; UNKNOWN containments keep
    the branch (sound either way — dropping needs proof).  Mutual
    containment keeps the lexicographically-least pattern string.
    """
    original = tuple(str(b) for b in branches)
    kept, pruned, emptied, unknowns = _prune_union(
        original,
        lambda narrow, wide: checker.contains(narrow, wide).verdict,
        checker.provably_empty,
    )
    notes: list[str] = []
    if emptied:
        notes.append(
            f"dropped {len(emptied)} branch(es) whose language misses "
            "Paths(Delta) entirely"
        )
    if unknowns:
        notes.append(
            f"{unknowns} containment question(s) unsettled; branches "
            "kept conservatively"
        )
    return RPQOptimizationReport(
        original=original,
        optimized=tuple(kept),
        pruned=tuple(pruned),
        emptied=tuple(emptied),
        notes=notes,
    )


def evaluate_rpq_union(
    graph: Graph,
    branches: Sequence[str],
    checker: QueryContainmentChecker | None = None,
    start: Node | None = None,
) -> tuple[frozenset[Node], list[RPQResult], RPQOptimizationReport | None]:
    """Evaluate a union of regular patterns, optimized when a checker
    is supplied.

    Each surviving branch is compiled through the checker (wildcard
    resolution + ``Paths(Delta)`` restriction in typed contexts) and
    trimmed to its useful states before the product search runs.
    """
    report = (
        optimize_rpq_union(branches, checker)
        if checker is not None
        else None
    )
    plan = (
        report.optimized
        if report is not None
        else tuple(str(b) for b in branches)
    )
    results = []
    for pattern in plan:
        if checker is not None:
            nfa = checker.compile(pattern).trim()
        else:
            from repro.automata.regex import compile_regex

            nfa = compile_regex(pattern, alphabet=graph.labels())
        results.append(evaluate_nfa(graph, nfa, pattern, start))
    answers: set[Node] = set()
    for result in results:
        answers |= result.answers
    return frozenset(answers), results, report
