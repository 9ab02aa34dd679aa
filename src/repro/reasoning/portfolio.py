"""Semi-decision portfolio: the chase, then a bounded counter-model search.

The undecidable cells of Table 1 are served by semi-decision: the
chase (sound for TRUE, and for FALSE when it reaches a fixpoint) and a
bounded counter-model search (sound for FALSE).  :func:`run_portfolio`
runs the two engines one after the other in the calling thread:

* the chase runs first; a definite verdict settles the run, except in
  typed contexts, where only its TRUE transfers;
* otherwise the counter-model search runs: the tableau search of
  :func:`repro.reasoning.models.scan_codes` untyped, or the
  ``U_f(Delta)`` instance scan of
  :func:`repro.reasoning.models.scan_typed_instances` typed, whose hit
  is the first counter-model in stream order;
* per-engine statistics (candidates examined, elapsed time, outcome)
  are surfaced on the returned :class:`ImplicationResult`.

Each engine runs through an
:class:`~repro.reasoning.runtime.EngineRunner`: an injected fault
fires on the engine's first attempt, an engine that raises is
retried, and one that fails every attempt forfeits its verdict.  Every
event is recorded in the result's ``faults`` field.  Soundness is
structural: TRUE/FALSE always rides on an independently verifiable
certificate, and every counter-model a search reports is re-checked
with the Definition 2.1 checker before FALSE is answered, so a fault
can only ever demote an answer to UNKNOWN, never flip it.  The answer
is a function of the instance and the budgets alone.

Budgets: a :class:`Budget` carries one absolute ``time.monotonic()``
deadline shared by both engines; expiry turns whichever engine is
running into an honest UNKNOWN contribution.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from repro.constraints.ast import PathConstraint
from repro.errors import RetryExhausted
from repro.graph.structure import Graph
from repro.reasoning.chase import chase_implication
from repro.reasoning.faultinject import plan_from_env
from repro.reasoning.models import (
    _recheck,
    infer_alphabet,
    scan_codes,
    scan_typed_instances,
)
from repro.reasoning.options import DEFAULT_SOLVE_OPTIONS, SolveOptions
from repro.reasoning.result import EngineStats, ImplicationResult
from repro.reasoning.runtime import Budget, EngineRunner
from repro.truth import Trilean

__all__ = ["Budget", "run_portfolio"]

#: What a typed UNKNOWN says of an untyped chase fixpoint.
TYPED_CHASE_FALSE_NOTE = (
    "untyped chase FALSE does not transfer to the typed context"
)

#: Bounds of the typed scan's ``U_f(Delta)`` instances: object ids per
#: class and members per set value.
TYPED_MAX_OIDS = 2
TYPED_MAX_SET_SIZE = 2

#: ``result.execution`` of every portfolio result: a shim for
#: perfbench v1, which picks out portfolio results by it and reads
#: ``execution.mode.value``.  Benchmark v2 deletes it.
INLINE_EXECUTION = SimpleNamespace(mode=SimpleNamespace(value="inline"))


def _chase_engine(
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    max_steps: int,
    deadline: float | None,
) -> tuple[ImplicationResult, float]:
    began = time.perf_counter()
    result = chase_implication(
        sigma, phi, max_steps=max_steps, deadline=deadline
    )
    return result, time.perf_counter() - began


def run_portfolio(
    problem,
    options: SolveOptions = DEFAULT_SOLVE_OPTIONS,
    budget: Budget | None = None,
) -> ImplicationResult:
    """Semi-decide an undecidable-cell implication with a portfolio.

    ``problem`` is an :class:`repro.reasoning.dispatcher
    .ImplicationProblem` in an undecidable (fragment, context) cell;
    ``options`` sets the engines' budgets and the fault plan (see
    :class:`~repro.reasoning.options.SolveOptions`).  The chase runs,
    then, unless it settled the answer, the counter-model search.
    Every returned result carries per-engine :class:`EngineStats` and
    a :class:`~repro.reasoning.result.FaultReport`.  The budget's
    deadline is the only stop signal a caller gives the run; both
    engines poll it.
    """
    # Imported here: dispatcher imports this module's Budget/run_portfolio.
    from repro.reasoning.dispatcher import Context

    budget = budget or Budget()
    plan = options.inject if options.inject is not None else plan_from_env()
    sigma = tuple(problem.sigma)
    phi = problem.phi
    untyped = problem.context is Context.SEMISTRUCTURED
    notes = [
        f"undecidable problem class over {problem.context.value}; "
        "semi-decision with explicit budgets",
        "portfolio: "
        + (
            f"deadline in {budget.remaining():.3f}s"
            if budget.deadline is not None
            else "no deadline"
        ),
    ]
    if plan.active:
        notes.append(f"fault injection active: {plan.describe()}")
    runner = EngineRunner(plan)

    chased, chase_stats = _chase(runner, sigma, phi, options, budget)
    if chased is not None and (
        chased.answer is Trilean.TRUE
        or (untyped and chased.answer.is_definite)
    ):
        result = _chase_win(chased, untyped, notes)
        result.stats = (chase_stats,)
        result.faults = runner.fault_report(answered_by="chase")
    else:
        graph, certificate, search = _search(
            runner, problem, sigma, phi, options, budget, untyped
        )
        if graph is not None:
            result = ImplicationResult(
                answer=Trilean.FALSE,
                method="bounded-countermodel"
                if untyped
                else "typed-instance-countermodel",
                decidable=False,
                countermodel=graph,
                certificate=certificate,
                notes=tuple(notes),
                faults=runner.fault_report(answered_by=search.engine),
            )
        else:
            result = _unknown(chased, search, untyped, notes, options)
            result.faults = runner.fault_report()
        result.stats = (chase_stats, search)
    result.execution = INLINE_EXECUTION
    return result


def _chase(
    runner: EngineRunner,
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    options: SolveOptions,
    budget: Budget,
) -> tuple[ImplicationResult | None, EngineStats]:
    """The chase's verdict (None if it failed every attempt) and stats."""
    try:
        chased, elapsed = runner.run(
            "chase",
            _chase_engine,
            sigma,
            phi,
            options.chase_steps,
            budget.deadline,
        )
    except RetryExhausted as exc:
        return None, EngineStats(
            engine="chase", outcome="failed", detail=type(exc).__name__
        )
    return chased, EngineStats(
        engine="chase",
        outcome=chased.answer.value,
        candidates=getattr(chased.certificate, "steps", 0),
        elapsed=elapsed,
    )


def _search(
    runner: EngineRunner,
    problem,
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    options: SolveOptions,
    budget: Budget,
    untyped: bool,
) -> tuple[Graph | None, object, EngineStats]:
    """The counter-model search: its graph (None without a hit), the
    typed hit's instance, and its stats."""
    began = time.perf_counter()
    engine = "countermodel" if untyped else "typed-countermodel"
    graph = instance = None
    try:
        if untyped:
            report = runner.run(
                engine,
                scan_codes,
                sigma,
                phi,
                infer_alphabet(sigma, phi),
                options.countermodel_nodes,
                budget.deadline,
            )
            examined, detail = report.states, f"states={report.states}"
            if report.graph is not None:
                graph = _recheck(report.graph, sigma, phi)
        else:
            report = runner.run(
                engine,
                scan_typed_instances,
                problem.schema,
                sigma,
                phi,
                TYPED_MAX_OIDS,
                TYPED_MAX_SET_SIZE,
                options.typed_search_limit,
                budget.deadline,
            )
            examined, detail = report.examined, f"screens={report.screens}"
            graph, instance = report.graph, report.instance
    except RetryExhausted:
        # The search is unexplored: the same honest UNKNOWN as budget
        # expiry, with the fault recorded by the runner.
        outcome, examined = "faulted", 0
        detail = "states=0" if untyped else "screens=0"
    else:
        if graph is not None:
            outcome = "hit"
        else:
            outcome = "exhausted" if report.exhausted else "budget"
    stats = EngineStats(
        engine=engine,
        outcome=outcome,
        candidates=examined,
        elapsed=time.perf_counter() - began,
        detail=detail,
    )
    return graph, instance, stats


def _chase_win(
    chased: ImplicationResult, untyped: bool, notes: list[str]
) -> ImplicationResult:
    if untyped:
        chased.notes = tuple(notes) + chased.notes
        return chased
    # Typed context: only TRUE lands here, and it transfers because
    # U(Delta) is a subclass of all structures.
    return ImplicationResult(
        answer=Trilean.TRUE,
        method="chase(untyped, transfers)",
        decidable=False,
        certificate=chased.certificate,
        notes=tuple(notes),
    )


def _unknown(
    chased: ImplicationResult | None,
    search: EngineStats,
    untyped: bool,
    notes: list[str],
    options: SolveOptions,
) -> ImplicationResult:
    if search.outcome == "faulted":
        notes.append(
            "countermodel search failed every attempt; the unexplored "
            "region is treated like budget expiry"
        )
    elif untyped and search.outcome == "budget":
        notes.append(
            f"countermodel search stopped by budget before exhausting "
            f"{options.countermodel_nodes}-node bound"
        )
    if chased is None:
        notes.append(
            "chase engine failed every attempt; its verdict is forfeit"
        )
        extra: tuple[str, ...] = ()
    elif not untyped and chased.answer is Trilean.FALSE:
        # The fixpoint is an untyped model, no U_f(Delta) instance.
        extra = (TYPED_CHASE_FALSE_NOTE,)
    else:
        extra = chased.notes
    return ImplicationResult(
        answer=Trilean.UNKNOWN,
        method="chase+bounded-countermodel"
        if untyped
        else "chase+typed-countermodel",
        decidable=False,
        notes=tuple(notes) + extra,
    )
