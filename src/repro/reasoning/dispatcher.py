"""Routing implication problems to the right procedure — Table 1 as code.

:func:`classify` finds the most specific fragment an instance lives in
(P_w subset of P_w(K) subset of P_c; local-extent instances are
recognized by Definitions 2.3/2.4).  :func:`table1_cell` reports the
paper's decidability/complexity verdict for a (fragment, context)
pair, and :func:`solve` runs the matching procedure:

* decidable cells run the complete decision procedure;
* undecidable cells raise :class:`UndecidableProblemError` unless the
  caller opts into semi-decision, in which case a sound chase /
  counter-model pipeline runs with explicit budgets.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.constraints.ast import PathConstraint
from repro.constraints.classes import (
    infer_bounds,
    is_in_pw_k,
    is_prefix_bounded_set,
)
from repro.errors import GraphError, UndecidableProblemError
from repro.graph.serialize import from_dict as graph_from_dict
from repro.graph.serialize import to_dict as graph_to_dict
from repro.reasoning.cache import CacheInfo, ImplicationCache, make_entry
from repro.reasoning.canonical import (
    CanonicalForm,
    canonicalize_problem,
    rename_graph,
)
from repro.reasoning.local_extent import implies_local_extent
from repro.reasoning.options import DEFAULT_SOLVE_OPTIONS, SolveOptions
from repro.reasoning.portfolio import Budget, run_portfolio
from repro.reasoning.result import ImplicationResult
from repro.reasoning.typed_m import implies_typed_m
from repro.reasoning.word import implies_word
from repro.truth import Trilean
from repro.types.typesys import Schema


class Context(enum.Enum):
    """The data model the implication is interpreted over."""

    SEMISTRUCTURED = "semistructured"
    M = "M"
    M_PLUS = "M+"
    M_PLUS_FINITE = "M+f"


class ProblemClass(enum.Enum):
    """The constraint fragment an instance belongs to."""

    WORD = "P_w"
    PW_K = "P_w(K)"
    LOCAL_EXTENT = "local extent"
    GENERAL = "P_c"


#: (problem class, context) -> (decidable, complexity or None).
#: The P_w row is the [AV97] substrate; the other three rows are the
#: paper's Table 1.
TABLE1: dict[tuple[ProblemClass, Context], tuple[bool, str | None]] = {
    (ProblemClass.WORD, Context.SEMISTRUCTURED): (True, "PTIME"),
    (ProblemClass.PW_K, Context.SEMISTRUCTURED): (False, None),
    (ProblemClass.LOCAL_EXTENT, Context.SEMISTRUCTURED): (True, "PTIME"),
    (ProblemClass.GENERAL, Context.SEMISTRUCTURED): (False, None),
    **{
        (klass, Context.M): (True, "cubic")
        for klass in ProblemClass
    },
    # Over M+ and M+f the paper proves P_w(rho), local extent and P_c
    # undecidable (Theorems 5.2, 6.1, 6.2).  It leaves pure P_w over
    # M+ unresolved; we conservatively route it to semi-decision too.
    **{
        (klass, ctx): (False, None)
        for klass in ProblemClass
        for ctx in (Context.M_PLUS, Context.M_PLUS_FINITE)
    },
}


def table1_cell(
    problem_class: ProblemClass, context: Context
) -> tuple[bool, str | None]:
    """The paper's verdict for a Table 1 cell: (decidable, complexity)."""
    return TABLE1[(problem_class, context)]


@dataclass
class ImplicationProblem:
    """A fully specified implication instance.

    ``schema`` is required for the typed contexts and ignored for the
    semistructured one.
    """

    sigma: Sequence[PathConstraint]
    phi: PathConstraint
    context: Context = Context.SEMISTRUCTURED
    schema: Schema | None = None

    def __post_init__(self) -> None:
        self.sigma = tuple(self.sigma)
        if isinstance(self.context, str):
            self.context = Context(self.context)
        if self.context is not Context.SEMISTRUCTURED and self.schema is None:
            raise ValueError(f"context {self.context.value} needs a schema")


def classify(
    sigma: Sequence[PathConstraint], phi: PathConstraint
) -> ProblemClass:
    """The most specific fragment containing Sigma and phi."""
    everything = list(sigma) + [phi]
    if all(psi.is_word_constraint() for psi in everything):
        return ProblemClass.WORD

    # P_w(K): all constraints word or guarded by one shared label K.
    guards = {
        psi.prefix.first()
        for psi in everything
        if not psi.prefix.is_empty()
    }
    if len(guards) == 1:
        guard = next(iter(guards))
        if all(is_in_pw_k(psi, guard) for psi in everything):
            return ProblemClass.PW_K

    # Local extent: the query is bounded and the whole set is
    # prefix-bounded by the query's (rho, K).
    try:
        rho, guard = infer_bounds(phi)
    except ValueError:
        return ProblemClass.GENERAL
    if is_prefix_bounded_set(everything, rho, guard):
        return ProblemClass.LOCAL_EXTENT
    return ProblemClass.GENERAL


def _reconcile_with_table1(
    result: ImplicationResult,
    problem_class: ProblemClass,
    context: Context,
) -> ImplicationResult:
    """Normalize a procedure's result against the Table 1 verdict.

    The result object of every route must agree with
    :func:`table1_cell` on decidability and complexity — a decider
    claiming a different complexity class than the paper's cell (or a
    semi-decider claiming decidability) is a routing bug, not a
    stylistic difference.  Conflicts raise; a missing complexity on a
    decidable cell is filled in from the table, and the result keeps
    its ``problem_class`` so callers need not classify again.
    """
    result.problem_class = problem_class
    decidable, complexity = table1_cell(problem_class, context)
    if result.decidable != decidable:
        raise AssertionError(
            f"procedure returned decidable={result.decidable} for the "
            f"({problem_class.value}, {context.value}) cell, but Table 1 "
            f"says decidable={decidable}"
        )
    if decidable:
        if result.complexity is not None and result.complexity != complexity:
            raise AssertionError(
                f"procedure claims complexity {result.complexity!r} for the "
                f"({problem_class.value}, {context.value}) cell, but Table 1 "
                f"says {complexity!r}"
            )
        result.complexity = complexity
    return result


def _replay_cached(
    entry: dict, form: CanonicalForm, info: CacheInfo
) -> ImplicationResult:
    """Rebuild an :class:`ImplicationResult` from a cache entry.

    The stored counter-model (if any) lives in the canonical alphabet;
    it is renamed back through the *current* instance's inverse maps,
    so an alpha-renamed repeat query gets a certificate over its own
    labels — re-verifiable by the Definition 2.1 checker like any
    fresh refutation.
    """
    countermodel = None
    if entry["countermodel"] is not None:
        countermodel = rename_graph(
            graph_from_dict(entry["countermodel"]),
            form.inverse_label_map(),
            form.inverse_class_map(),
        )
    notes = tuple(entry["notes"])
    notes += (f"cache: replayed verdict from {info.tier} tier",)
    if entry["certificate"] == "proof":
        notes += ("cache: original run carried a proof (not stored); "
                  "re-solve with with_proof=True to rebuild it",)
    return ImplicationResult(
        answer=Trilean(entry["answer"]),
        method=entry["method"],
        decidable=entry["decidable"],
        complexity=entry["complexity"],
        countermodel=countermodel,
        notes=notes,
        cache=info,
    )


def _store_fresh(
    cache: ImplicationCache,
    form: CanonicalForm,
    result: ImplicationResult,
) -> CacheInfo:
    """Cache a freshly solved result if it is cacheable.

    Only definite answers from clean (fault-free) runs are stored —
    UNKNOWN is a budget artifact, not a fact about the instance, and a
    degraded run's answer should not outlive the run that produced it.
    Counter-models are stored in the canonical alphabet so any
    alpha-equivalent instance can replay them.
    """
    if not result.answer.is_definite:
        return CacheInfo(
            "miss", key=form.key, detail="UNKNOWN answers are never cached"
        )
    if not result.faults.clean:
        return CacheInfo(
            "miss", key=form.key, detail="fault-degraded run not cached"
        )
    certificate = "none"
    countermodel = None
    if result.proof is not None:
        certificate = "proof"
    if result.countermodel is not None:
        certificate = "countermodel"
        try:
            countermodel = graph_to_dict(
                rename_graph(
                    result.countermodel, form.label_map, form.class_map
                )
            )
        except GraphError:
            # Typed counter-models can carry non-serializable node
            # ids; keep the verdict, drop the replayable certificate.
            countermodel = None
    tier = cache.store(
        form.key,
        make_entry(
            answer=result.answer.value,
            method=result.method,
            decidable=result.decidable,
            complexity=result.complexity,
            certificate=certificate,
            countermodel=countermodel,
            notes=result.notes,
        ),
    )
    detail = "fallback-key" if form.fallback else ""
    return CacheInfo("store", key=form.key, tier=tier, detail=detail)


def solve(
    problem: ImplicationProblem,
    options: SolveOptions = DEFAULT_SOLVE_OPTIONS,
    jobs: object = None,  # perfbench v1 shim, never read
    deadline: float | None = None,
    cache: "ImplicationCache | None" = None,
) -> ImplicationResult:
    """Decide or semi-decide an implication problem.

    For decidable (fragment, context) cells the answer is definite.
    Undecidable cells raise :class:`UndecidableProblemError` unless
    ``options.allow_semidecision``; then a portfolio of semi-deciders
    runs: the chase (sound both ways, untyped) and the tableau
    counter-model search; in typed contexts an untyped chase TRUE
    transfers (``U(Delta)`` is a subclass of all structures) while
    refutation uses typed counter-models only.  ``options`` (see
    :class:`~repro.reasoning.options.SolveOptions`) says how the
    solve runs; the other arguments are per call.

    Every solve runs in the calling thread.  ``jobs`` is accepted and
    never read, a shim for perfbench v1 like
    ``runtime.retire_warm_pool``; benchmark v2 deletes it.
    ``deadline`` is a wall-clock budget in seconds shared by every
    engine, and the only stop signal a caller gives the solve.  Every
    result carries a ``faults`` record.

    ``cache`` plugs in a cross-request
    :class:`~repro.reasoning.cache.ImplicationCache`: a hit replays
    the stored verdict (certificate renamed into this instance's
    alphabet) instead of solving, and fresh definite answers from
    clean runs are stored under the instance's alpha-invariant
    canonical key.  The key deliberately excludes every budget — a
    definite answer is a fact about the instance, not about the
    budget that found it.  Lookups are skipped when ``with_proof``
    asks for a certificate the entry cannot replay; UNKNOWN and
    fault-degraded results are never stored.
    ``result.cache`` records what happened.
    """
    problem_class = classify(problem.sigma, problem.phi)
    decidable, _complexity = table1_cell(problem_class, problem.context)
    budget = Budget.from_seconds(deadline)

    # Strict mode must raise whether or not the answer is cached: a
    # cached semi-decision verdict does not make the cell decidable.
    if not decidable and not options.allow_semidecision:
        raise UndecidableProblemError(
            f"the (finite) implication problem for {problem_class.value} in "
            f"the {problem.context.value} context is undecidable "
            "(Table 1); pass allow_semidecision=True for a sound "
            "three-valued attempt"
        )

    form: CanonicalForm | None = None
    if cache is not None:
        form = canonicalize_problem(problem)
        if not options.with_proof:
            # Proof requests skip the lookup (entries store the
            # certificate kind, not the proof object) but still store
            # their definite answer below.
            found = cache.lookup(form.key)
            if found is not None:
                entry, tier = found
                result = _replay_cached(
                    entry, form, CacheInfo("hit", key=form.key, tier=tier)
                )
                return _reconcile_with_table1(
                    result, problem_class, problem.context
                )

    if problem.context is Context.M:
        assert problem.schema is not None
        result = implies_typed_m(
            problem.schema,
            problem.sigma,
            problem.phi,
            with_proof=options.with_proof,
        )
    elif problem.context is Context.SEMISTRUCTURED and decidable:
        if problem_class is ProblemClass.WORD:
            result = implies_word(
                problem.sigma,
                problem.phi,
                with_proof=options.with_proof,
                chase_steps=options.chase_steps,
                deadline=budget.deadline,
            )
        else:
            result = implies_local_extent(
                list(problem.sigma), problem.phi, with_proof=options.with_proof
            )
    else:
        # Undecidable cell: run the portfolio of semi-deciders.
        result = run_portfolio(problem, options, budget=budget)

    if form is not None and cache is not None:
        result.cache = _store_fresh(cache, form, result)
    return _reconcile_with_table1(result, problem_class, problem.context)
