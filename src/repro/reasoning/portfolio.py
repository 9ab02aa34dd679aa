"""Parallel portfolio semi-decision: proof search races refutation.

The undecidable cells of Table 1 are served by semi-decision — the
chase (sound for TRUE, and for FALSE when it reaches a fixpoint) races
bounded counter-model search (sound for FALSE).  This module runs the
two engines as a *portfolio*:

* the chase runs as one task;
* untyped counter-model search is one task too: the tableau search of
  :func:`repro.reasoning.models.scan_codes`;
* typed contexts shard the ``U_f(Delta)`` instance stream by stride
  instead (one shard inline, one per worker in the pool);
* the first engine to produce a *definite* certificate wins, pending
  work is cancelled, running pool tasks stop at their next poll of the
  pool's stop word (:func:`repro.reasoning.runtime.stop_hook`), and
  per-engine statistics (candidates examined, elapsed time, outcome)
  are surfaced on the returned :class:`ImplicationResult`.

Inline and pooled execution run the same two scan loops
(:func:`_scan_untyped`, :func:`_scan_typed`) against a
:class:`~repro.reasoning.runtime.WorkerSupervisor`; an inline
supervisor runs each submission synchronously, so the chase has
settled before the search task is submitted and the race
degenerates to the sequential pipeline.  Which mode a solve gets is
decided by :func:`repro.reasoning.costmodel.choose_execution`.

Every pool interaction goes through the supervisor: a worker crash
(segfault, OOM-kill, ``os._exit``), a payload that cannot pickle, or
a task that raises mid-engine never surfaces as a bare
``BrokenProcessPool``.  The supervisor respawns the pool with capped
backoff, resubmits lost tasks, degrades to in-process execution when
respawns are exhausted, and records every event in the result's
``faults`` field.  Soundness is structural: TRUE/FALSE always rides on
an independently verifiable certificate, and every counter-model a
search reports is re-checked in this process with the Definition 2.1
checker before FALSE is answered, so infrastructure failure can only
ever demote an answer to UNKNOWN, never flip it.

Determinism: the counter-model engine's answer is a function of the
instance alone, not of scheduling.  The untyped search is one
deterministic task, and typed shards combine by minimal hit index,
which is exactly the sequential scan order.  So ``--jobs 1`` and
``--jobs 4`` return the same counter-model (deadline expiry and worker
faults aside — a budget stop or a degraded-and-still-failing task is
reported as UNKNOWN either way).

Budgets: a :class:`Budget` carries one absolute ``time.monotonic()``
deadline shared by every engine and shard; expiry turns whichever
searches are still running into honest UNKNOWN contributions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.constraints.ast import PathConstraint
from repro.graph.structure import Graph
from repro.reasoning.chase import chase_implication
from repro.reasoning.costmodel import choose_execution, normalize_jobs
from repro.reasoning.faultinject import plan_from_env
from repro.reasoning.models import (
    SearchReport,
    TypedScanReport,
    _recheck,
    infer_alphabet,
    scan_codes,
    scan_typed_instances,
)
from repro.reasoning.options import DEFAULT_SOLVE_OPTIONS, SolveOptions
from repro.reasoning.result import EngineStats, ImplicationResult
from repro.reasoning.runtime import (
    Budget,
    SupervisedTask,
    WorkerSupervisor,
    stop_hook,
)
from repro.truth import Trilean
from repro.types.typesys import Schema

__all__ = ["Budget", "CountermodelOutcome", "run_portfolio"]

#: What a typed UNKNOWN says of an untyped chase fixpoint.
TYPED_CHASE_FALSE_NOTE = (
    "untyped chase FALSE does not transfer to the typed context"
)

#: Bounds of the typed scan's ``U_f(Delta)`` instances: object ids per
#: class and members per set value.
TYPED_MAX_OIDS = 2
TYPED_MAX_SET_SIZE = 2


@dataclass
class CountermodelOutcome:
    """Aggregate of an (un)typed counter-model search run."""

    graph: Graph | None = None
    certificate: object = None
    examined: int = 0
    exhausted: bool = True
    elapsed: float = 0.0
    #: distinct projection tuples the typed scan screened.
    screens: int = 0
    #: True when the scan was truncated by an unrecoverable worker
    #: fault rather than by the budget — same UNKNOWN semantics, but
    #: callers report it differently.
    fault_stop: bool = False

    @property
    def outcome_label(self) -> str:
        if self.graph is not None:
            return "hit"
        if self.fault_stop:
            return "faulted"
        return "exhausted" if self.exhausted else "budget"


# ---------------------------------------------------------------------------
# Tasks (top-level, picklable).  A task's ``run`` is its supervisor's
# run number, which :func:`stop_hook` turns into the worker's stop poll.
# ---------------------------------------------------------------------------


def _chase_task(
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    max_steps: int,
    deadline: float | None,
    run: int | None = None,
) -> tuple[ImplicationResult, float]:
    began = time.perf_counter()
    result = chase_implication(
        sigma,
        phi,
        max_steps=max_steps,
        deadline=deadline,
        should_stop=stop_hook(run),
    )
    return result, time.perf_counter() - began


def _search_task(
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    labels: tuple[str, ...],
    max_nodes: int,
    deadline: float | None,
    run: int | None = None,
) -> SearchReport:
    return scan_codes(sigma, phi, labels, max_nodes, deadline, stop_hook(run))


def _typed_shard_task(
    schema: Schema,
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    max_oids: int,
    max_set_size: int,
    limit: int,
    shard_index: int,
    shard_count: int,
    deadline: float | None,
    run: int | None = None,
) -> TypedScanReport:
    return scan_typed_instances(
        schema,
        sigma,
        phi,
        max_oids=max_oids,
        max_set_size=max_set_size,
        limit=limit,
        shard_index=shard_index,
        shard_count=shard_count,
        deadline=deadline,
        should_stop=stop_hook(run),
    )


# ---------------------------------------------------------------------------
# The race: the chase against one of two scan loops.
# ---------------------------------------------------------------------------


class _ChaseWon(Exception):
    """Raised inside a scan loop when the chase decides the race."""


@dataclass
class _Chase:
    """The proof-search engine's task in a race, and its verdict.

    A settled chase decides the race when its answer is definite,
    except in typed contexts: there only TRUE transfers (``U(Delta)``
    is a subclass of all structures), while FALSE from an untyped
    fixpoint proves nothing over ``U_f(Delta)``.
    """

    task: SupervisedTask
    untyped: bool
    result: ImplicationResult | None = None
    stats: EngineStats | None = None
    failed: bool = False

    @property
    def running(self) -> bool:
        return not self.task.settled

    def check(self) -> None:
        """Absorb the settled chase task; raise :class:`_ChaseWon` if
        its verdict decides the race."""
        task = self.task
        if not task.settled or task.cancelled or self.stats is not None:
            return
        if task.failed:
            # Failed every attempt: the chase contributes nothing.
            self.failed = True
            self.stats = EngineStats(
                engine="chase",
                outcome="failed",
                detail=type(task.error).__name__,
            )
            return
        self.result, elapsed = task.result()
        answer = self.result.answer
        self.stats = EngineStats(
            engine="chase",
            outcome=answer.value,
            candidates=getattr(self.result.certificate, "steps", 0),
            elapsed=elapsed,
        )
        if answer is Trilean.TRUE or (self.untyped and answer.is_definite):
            raise _ChaseWon

    def wait(
        self, supervisor: WorkerSupervisor, tasks: list[SupervisedTask]
    ) -> None:
        """Block until one of ``tasks`` or the chase settles."""
        watch = {t for t in tasks if not t.settled}
        if self.running:
            watch.add(self.task)
        supervisor.wait_any(watch)


def _stop(supervisor: WorkerSupervisor, tasks: list[SupervisedTask]) -> None:
    """Cancel ``tasks``; clear the run's stop word so running ones wind
    down."""
    supervisor.stop()
    for task in tasks:
        supervisor.cancel(task)


def _race(
    supervisor: WorkerSupervisor,
    tasks: list[SupervisedTask],
    chase: _Chase,
) -> None:
    """Wait until every task settles, racing ``chase``.

    Raises :class:`_ChaseWon` (after stopping the tasks) as soon as the
    chase decides.  All waiting goes through the supervisor, so worker
    crashes, respawns and degraded re-runs are invisible here: a task
    is either settled with a report, settled failed (a typed error),
    or cancelled.
    """
    try:
        chase.check()
        while not all(t.settled for t in tasks):
            chase.wait(supervisor, tasks)
            chase.check()
    except _ChaseWon:
        _stop(supervisor, tasks)
        raise


def _scan_untyped(
    supervisor: WorkerSupervisor,
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    labels: tuple[str, ...],
    max_nodes: int,
    deadline: float | None,
    chase: _Chase,
) -> CountermodelOutcome:
    """The tableau search up to ``max_nodes`` nodes, racing ``chase``.

    A hit crossed a pickle boundary when the search ran pooled, so it
    is re-checked here with the Definition 2.1 checker before it
    becomes the outcome's graph.
    """
    began = time.perf_counter()
    task = supervisor.submit(
        _search_task,
        sigma,
        phi,
        labels,
        max_nodes,
        deadline,
        supervisor.run,
        engine="countermodel",
    )
    _race(supervisor, [task], chase)
    if task.failed:
        # The search is unexplored and unexplorable: same
        # honest-UNKNOWN semantics as budget expiry, with the fault
        # recorded by the supervisor.
        out = CountermodelOutcome(exhausted=False, fault_stop=True)
    else:
        report = task.result()
        out = CountermodelOutcome(
            examined=report.states, exhausted=report.exhausted
        )
        if report.graph is not None:
            out.graph = _recheck(report.graph, sigma, phi)
    out.elapsed = time.perf_counter() - began
    return out


def _scan_typed(
    supervisor: WorkerSupervisor,
    schema: Schema,
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    limit: int,
    deadline: float | None,
    chase: _Chase,
) -> CountermodelOutcome:
    """Stride-sharded ``U_f(Delta)`` scan racing ``chase``.

    One shard per worker (one inline).  Strides interleave, so every
    shard must finish before the minimal hit index is known; shards
    early-exit at their own first hit.  A shard that fails every
    attempt forfeits only exhaustion — a hit found by a surviving
    shard is still a sound FALSE certificate.
    """
    began = time.perf_counter()
    shards = supervisor.jobs
    tasks = [
        supervisor.submit(
            _typed_shard_task,
            schema,
            sigma,
            phi,
            TYPED_MAX_OIDS,
            TYPED_MAX_SET_SIZE,
            limit,
            shard_index,
            shards,
            deadline,
            supervisor.run,
            engine=f"typed-countermodel[{shard_index}/{shards}]",
        )
        for shard_index in range(shards)
    ]
    _race(supervisor, tasks, chase)
    reports = [t.result() for t in tasks if not t.failed]
    failed = len(tasks) - len(reports)
    out = CountermodelOutcome(
        examined=sum(r.examined for r in reports),
        screens=sum(r.screens for r in reports),
        exhausted=failed == 0 and all(r.exhausted for r in reports),
        fault_stop=failed > 0,
    )
    hits = [r for r in reports if r.hit_index is not None]
    if hits:
        best = min(hits, key=lambda r: r.hit_index)
        out.graph = best.graph
        out.certificate = best.instance
    out.elapsed = time.perf_counter() - began
    return out


# ---------------------------------------------------------------------------
# Public API.
# ---------------------------------------------------------------------------


def run_portfolio(
    problem,
    options: SolveOptions = DEFAULT_SOLVE_OPTIONS,
    jobs: int | str = 1,
    budget: Budget | None = None,
) -> ImplicationResult:
    """Semi-decide an undecidable-cell implication with a portfolio.

    ``problem`` is an :class:`repro.reasoning.dispatcher
    .ImplicationProblem` in an undecidable (fragment, context) cell;
    ``options`` sets the engines' budgets and the pool runtime (see
    :class:`~repro.reasoning.options.SolveOptions`).  ``jobs`` caps the
    parallelism (``"auto"`` means the CPU count).  A typed scan runs
    in a supervised process pool, racing the chase with first-winner
    cancellation, when at least two CPUs are usable and its instance
    limit passes the threshold of
    :func:`~repro.reasoning.costmodel.choose_execution`; otherwise,
    and for every untyped search unless ``options.execution`` pins the
    pool, the engines run sequentially in-process, so ``jobs > 1``
    does not pay pool overhead a small search cannot amortise.  Every
    returned result carries per-engine :class:`EngineStats`, a
    :class:`~repro.reasoning.result.FaultReport`, and the
    :class:`~repro.reasoning.costmodel.ExecutionDecision` on
    ``result.execution``.  The budget's deadline is the only stop
    signal a caller gives the run; every engine polls it.
    """
    # Imported here: dispatcher imports this module's Budget/run_portfolio.
    from repro.reasoning.dispatcher import Context

    requested = normalize_jobs(jobs)
    budget = budget or Budget()
    plan = options.inject if options.inject is not None else plan_from_env()
    sigma = tuple(problem.sigma)
    phi = problem.phi
    context = problem.context
    labels = infer_alphabet(sigma, phi)
    untyped = context is Context.SEMISTRUCTURED
    decision = choose_execution(
        kind="untyped" if untyped else "typed",
        work_units=0 if untyped else options.typed_search_limit,
        jobs=requested,
        forced=options.forced_mode,
    )
    notes = [
        f"undecidable problem class over {context.value}; semi-decision "
        "with explicit budgets",
        f"portfolio: jobs={requested}, "
        + (
            f"deadline in {budget.remaining():.3f}s"
            if budget.deadline is not None
            else "no deadline"
        ),
        f"execution: {decision.describe()}",
    ]
    if plan.active:
        notes.append(f"fault injection active: {plan.describe()}")

    with WorkerSupervisor(
        jobs=decision.jobs, budget=budget, plan=plan
    ) as supervisor:
        result = _portfolio_race(
            problem,
            supervisor,
            sigma,
            phi,
            labels,
            untyped,
            budget,
            options,
            notes,
        )
    result.execution = decision
    return result


def _portfolio_race(
    problem,
    supervisor: WorkerSupervisor,
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    labels: tuple[str, ...],
    untyped: bool,
    budget: Budget,
    options: SolveOptions,
    notes: list[str],
) -> ImplicationResult:
    """The race itself, inside an already-configured supervisor."""
    chase = _Chase(
        supervisor.submit(
            _chase_task,
            sigma,
            phi,
            options.chase_steps,
            budget.deadline,
            supervisor.run,
            engine="chase",
        ),
        untyped,
    )
    try:
        # Inline the chase has already run, and may settle the race
        # before anything is compiled or submitted.
        chase.check()
        if untyped:
            search = _scan_untyped(
                supervisor,
                sigma,
                phi,
                labels,
                options.countermodel_nodes,
                budget.deadline,
                chase,
            )
        else:
            search = _scan_typed(
                supervisor,
                problem.schema,
                sigma,
                phi,
                options.typed_search_limit,
                budget.deadline,
                chase,
            )
        if search.graph is not None:
            # Refutation certificate in hand; the chase can stop.
            _stop(supervisor, [chase.task])
        elif chase.running:
            # Search exhausted/budgeted/faulted without the chase
            # finishing: its verdict is the only hope left, so wait.
            supervisor.wait_any({chase.task})
            chase.check()
    except _ChaseWon:
        return _finish_chase_win(chase, notes, supervisor)
    return _combine(
        chase, search, notes, options.countermodel_nodes, supervisor
    )


def _chase_stats(chase: _Chase) -> EngineStats:
    return chase.stats or EngineStats(engine="chase", outcome="cancelled")


def _finish_chase_win(
    chase: _Chase, notes: list[str], supervisor: WorkerSupervisor
) -> ImplicationResult:
    chased = chase.result
    stats = (_chase_stats(chase),)
    faults = supervisor.fault_report(answered_by="chase")
    if chase.untyped:
        chased.notes = tuple(notes) + chased.notes
        chased.stats = stats
        chased.faults = faults
        return chased
    # Typed context: only TRUE lands here, and it transfers because
    # U(Delta) is a subclass of all structures.
    return ImplicationResult(
        answer=Trilean.TRUE,
        method="chase(untyped, transfers)",
        decidable=False,
        certificate=chased.certificate,
        notes=tuple(notes),
        stats=stats,
        faults=faults,
    )


def _combine(
    chase: _Chase,
    search: CountermodelOutcome,
    notes: list[str],
    countermodel_nodes: int,
    supervisor: WorkerSupervisor,
) -> ImplicationResult:
    untyped = chase.untyped
    detail = f"jobs={supervisor.jobs}"
    if untyped:
        detail += f", states={search.examined}"
    else:
        detail += f", screens={search.screens}"
    search_stats = EngineStats(
        engine="countermodel" if untyped else "typed-countermodel",
        outcome=search.outcome_label,
        candidates=search.examined,
        elapsed=search.elapsed,
        detail=detail,
    )
    stats = (_chase_stats(chase), search_stats)
    if search.graph is not None:
        return ImplicationResult(
            answer=Trilean.FALSE,
            method="bounded-countermodel"
            if untyped
            else "typed-instance-countermodel",
            decidable=False,
            countermodel=search.graph,
            certificate=search.certificate,
            notes=tuple(notes),
            stats=stats,
            faults=supervisor.fault_report(answered_by=search_stats.engine),
        )
    if search.fault_stop:
        notes = notes + [
            "countermodel search truncated by an unrecoverable worker "
            "fault; the unexplored region is treated like budget expiry"
        ]
    elif untyped and not search.exhausted:
        notes = notes + [
            f"countermodel search stopped by budget before exhausting "
            f"{countermodel_nodes}-node bound"
        ]
    if chase.failed:
        notes = notes + [
            "chase engine failed every attempt; its verdict is forfeit"
        ]
    chased = chase.result
    extra = chased.notes if chased is not None else ()
    if not untyped and chased is not None and chased.answer is Trilean.FALSE:
        # The fixpoint is an untyped model, no U_f(Delta) instance.
        extra = (TYPED_CHASE_FALSE_NOTE,)
    method = (
        "chase+bounded-countermodel" if untyped else "chase+typed-countermodel"
    )
    return ImplicationResult(
        answer=Trilean.UNKNOWN,
        method=method,
        decidable=False,
        notes=tuple(notes) + tuple(extra),
        stats=stats,
        faults=supervisor.fault_report(),
    )
