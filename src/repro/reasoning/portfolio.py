"""Parallel portfolio semi-decision: proof search races refutation.

The undecidable cells of Table 1 are served by semi-decision — the
chase (sound for TRUE, and for FALSE when it reaches a fixpoint) races
bounded counter-model search (sound for FALSE).  This module runs the
two engines as a *portfolio*:

* the chase runs as one task;
* counter-model search scans the canonical code space of
  :mod:`repro.reasoning.models` level by node count, each level one
  task inline or, in a process pool, cut into contiguous code ranges;
* typed contexts shard the ``U_f(Delta)`` instance stream by stride
  instead (one shard inline, one per worker in the pool);
* the first engine to produce a *definite* certificate wins, pending
  work is cancelled, and per-engine statistics (candidates examined,
  elapsed time, outcome) are surfaced on the returned
  :class:`ImplicationResult`.

Inline and pooled execution run the same two scan loops
(:func:`_scan_levels`, :func:`_scan_typed`) against a
:class:`~repro.reasoning.runtime.WorkerSupervisor`; an inline
supervisor runs each submission synchronously, so the chase has
settled before the first scan task is submitted and the race
degenerates to the sequential pipeline.  Which mode a solve gets is
decided by :func:`repro.reasoning.costmodel.choose_execution`.

Every pool interaction goes through the supervisor: a worker crash
(segfault, OOM-kill, ``os._exit``), a payload that cannot pickle, or
a task that raises mid-engine never surfaces as a bare
``BrokenProcessPool``.  The supervisor respawns the pool with capped
backoff, resubmits lost shards from their ``(start, stop)`` ranges,
degrades to in-process execution when respawns are exhausted, and
records every event in the result's ``faults`` field.  Soundness is
structural: TRUE/FALSE always rides on an independently verifiable
certificate, so infrastructure failure can only ever demote an answer
to UNKNOWN, never flip it.

Determinism: the counter-model engine's answer is a function of the
instance alone, not of scheduling.  Shards report the smallest hit in
their range; the combiner takes the hit of the lowest range whose
predecessors exhausted hitless, which is exactly the sequential scan
order.  So ``--jobs 1`` and ``--jobs 4`` return the same counter-model
(deadline expiry and worker faults aside — a budget stop or a
degraded-and-still-failing shard is reported as UNKNOWN either way,
but *which* candidates were reached may differ).

Budgets: a :class:`Budget` carries one absolute ``time.monotonic()``
deadline shared by every engine and shard; expiry turns whichever
scans are still running into honest UNKNOWN contributions.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.constraints.ast import PathConstraint
from repro.graph.structure import Graph
from repro.reasoning.chase import chase_implication
from repro.reasoning.costmodel import (
    ExecMode,
    ExecutionDecision,
    choose_execution,
    estimate_untyped_codes,
    normalize_jobs,
)
from repro.reasoning.faultinject import FaultPlan, plan_from_env
from repro.reasoning.models import (
    CodeSpace,
    ShardReport,
    TypedShardReport,
    compile_constraints,
    infer_alphabet,
    scan_codes,
    scan_typed_instances,
)
from repro.reasoning.options import DEFAULT_SOLVE_OPTIONS, SolveOptions
from repro.reasoning.result import EngineStats, ImplicationResult
from repro.reasoning.runtime import (
    Budget,
    CancelFlag,
    SupervisedTask,
    WorkerSupervisor,
)
from repro.reasoning.watchdog import current_rss_mb
from repro.truth import Trilean
from repro.types.typesys import Schema

__all__ = [
    "Budget",
    "CountermodelOutcome",
    "parallel_countermodel_search",
    "run_portfolio",
]

#: Pool shards per enumeration level, as a multiple of the worker
#: count — finer than the pool so a winner can cancel still-pending
#: ranges.
SHARD_FACTOR = 4

#: A level this small is scanned as a single shard (pool overhead
#: would dominate).
MIN_SHARDED_SPACE = 4096

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
    canonical: int = 0
    exhausted: bool = True
    elapsed: float = 0.0
    levels: tuple[int, ...] = ()
    #: True when the scan was truncated by an unrecoverable worker
    #: fault rather than by the budget — same UNKNOWN semantics, but
    #: callers report it differently.
    fault_stop: bool = False
    #: The execution decision this search ran under (None when driven
    #: by :func:`run_portfolio`, which records it on the result).
    decision: ExecutionDecision | None = None

    @property
    def outcome_label(self) -> str:
        if self.graph is not None:
            return "hit"
        if self.fault_stop:
            return "faulted"
        return "exhausted" if self.exhausted else "budget"


# ---------------------------------------------------------------------------
# Tasks (top-level, picklable) and their process-local caches.
#
# A warm pool survives across solve() calls, so workers amortise the
# per-payload state: cancel-flag attachments and the CodeSpace
# permutation tables.  The caches are tiny LRUs; the parent's copy
# serves inline scans and the decoding of hits.
# ---------------------------------------------------------------------------

_CANCEL_FLAGS: OrderedDict[str, CancelFlag] = OrderedDict()
_CODE_SPACES: OrderedDict[tuple, CodeSpace] = OrderedDict()


def _attached(name: str) -> CancelFlag:
    flag = _CANCEL_FLAGS.get(name)
    if flag is None:
        flag = CancelFlag.attach(name)
        _CANCEL_FLAGS[name] = flag
        while len(_CANCEL_FLAGS) > 4:
            _, old = _CANCEL_FLAGS.popitem(last=False)
            old.close()
    else:
        _CANCEL_FLAGS.move_to_end(name)
    return flag


def _stop_hook(cancel_name: str | None):
    """The ``should_stop`` poll for the run's named cancel flag (or
    None when the run has no flag)."""
    if cancel_name is None:
        return None
    flag = _attached(cancel_name)
    return lambda: flag.is_set


def _code_space(node_count: int, labels: tuple[str, ...]) -> CodeSpace:
    key = (node_count, labels)
    space = _CODE_SPACES.get(key)
    if space is None:
        space = CodeSpace(node_count, labels)
        _CODE_SPACES[key] = space
        while len(_CODE_SPACES) > 8:
            _CODE_SPACES.popitem(last=False)
    else:
        _CODE_SPACES.move_to_end(key)
    return space


def _chase_task(
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    max_steps: int,
    deadline: float | None,
    cancel_name: str | None = None,
) -> tuple[ImplicationResult, float]:
    began = time.perf_counter()
    result = chase_implication(
        sigma,
        phi,
        max_steps=max_steps,
        deadline=deadline,
        should_stop=_stop_hook(cancel_name),
    )
    return result, time.perf_counter() - began


def _shard_task(
    node_count: int,
    labels: tuple[str, ...],
    programs: tuple,
    start: int,
    stop: int,
    deadline: float | None,
    cancel_name: str | None = None,
) -> ShardReport:
    """Scan codes ``[start, stop)`` of one level.

    ``programs`` is ``(compiled sigma, compiled phi)`` over ``labels``,
    compiled once per solve by :func:`_compile`.
    """
    compiled_sigma, compiled_phi = programs
    return scan_codes(
        _code_space(node_count, labels),
        (),
        None,
        start,
        stop,
        deadline=deadline,
        should_stop=_stop_hook(cancel_name),
        compiled_sigma=compiled_sigma,
        compiled_phi=compiled_phi,
    )


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
    compiled: bool = False,
    cancel_name: str | None = None,
) -> TypedShardReport:
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
        compiled=compiled,
        should_stop=_stop_hook(cancel_name),
    )


def _compile(
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    labels: tuple[str, ...],
) -> tuple:
    """``(compiled sigma, compiled phi)`` for :func:`_shard_task`."""
    compiled = compile_constraints([*sigma, phi], labels)
    return tuple(compiled[:-1]), compiled[-1]


def _plan_shards(total: int, shard_count: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into contiguous bit-prefix ranges."""
    shard_count = max(1, min(shard_count, total))
    width, remainder = divmod(total, shard_count)
    ranges = []
    start = 0
    for i in range(shard_count):
        stop = start + width + (1 if i < remainder else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


@contextmanager
def _supervised(
    decision: ExecutionDecision,
    budget: Budget,
    plan: FaultPlan | None,
    options: SolveOptions,
) -> Iterator[tuple[WorkerSupervisor, CancelFlag | None]]:
    """The run's supervisor and, in a pool, its own cancel flag.

    Pool tasks poll the flag, the one stop signal besides the deadline
    that crosses the process boundary.  The run raises it once the
    race is decided, and on exit so warm-pool stragglers wind down.
    Inline tasks stop at the deadline alone.
    """
    cancel = CancelFlag.create() if decision.mode is ExecMode.POOL else None
    try:
        with WorkerSupervisor(
            jobs=decision.jobs,
            budget=budget,
            plan=plan,
            max_respawns=options.max_respawns,
            max_worker_mb=options.max_worker_mb,
        ) as supervisor:
            try:
                yield supervisor, cancel
            finally:
                if cancel is not None:
                    cancel.set()
    finally:
        if cancel is not None:
            cancel.release()


def _flag_name(cancel: CancelFlag | None) -> str | None:
    """What a task needs to attach to the run's flag."""
    return None if cancel is None else cancel.name


# ---------------------------------------------------------------------------
# The race: the chase against one of two scan loops.
# ---------------------------------------------------------------------------


class _ChaseWon(Exception):
    """Raised inside a scan loop when the chase decides the race."""


@dataclass
class _Chase:
    """The proof-search engine's task in a race, and its verdict.

    ``task`` is None for a bare counter-model search.  A settled chase
    decides the race when its answer is definite, except in typed
    contexts: there only TRUE transfers (``U(Delta)`` is a subclass of
    all structures), while FALSE from an untyped fixpoint proves
    nothing over ``U_f(Delta)``.
    """

    task: SupervisedTask | None = None
    untyped: bool = True
    result: ImplicationResult | None = None
    stats: EngineStats | None = None
    failed: bool = False

    @property
    def running(self) -> bool:
        return self.task is not None and not self.task.settled

    def check(self) -> None:
        """Absorb the settled chase task; raise :class:`_ChaseWon` if
        its verdict decides the race."""
        task = self.task
        if (
            task is None
            or not task.settled
            or task.cancelled
            or self.stats is not None
        ):
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


def _stop(
    supervisor: WorkerSupervisor,
    cancel: CancelFlag | None,
    tasks: list[SupervisedTask],
) -> None:
    """Cancel ``tasks``; raise the run's flag so running ones wind
    down."""
    if cancel is not None:
        cancel.set()
    for task in tasks:
        supervisor.cancel(task)


def _scan_levels(
    supervisor: WorkerSupervisor,
    labels: tuple[str, ...],
    programs: tuple,
    max_nodes: int,
    deadline: float | None,
    cancel: CancelFlag | None,
    chase: _Chase,
) -> CountermodelOutcome:
    """Canonical scan of levels ``1..max_nodes``, racing ``chase``.

    A level is one task inline; in the pool it is cut into
    ``jobs * SHARD_FACTOR`` code ranges once it exceeds
    :data:`MIN_SHARDED_SPACE`.  Ranges resolve in order: the winner is
    the hit of the lowest range whose predecessors exhausted hitless —
    the sequential scan order, whatever the completion order.  Raises
    :class:`_ChaseWon` (after stopping pending shards) as soon as the
    chase decides.  All waiting goes through the supervisor, so worker
    crashes, respawns and degraded re-runs are invisible here: a task
    is either settled with a report, settled failed (a typed error),
    or cancelled.
    """
    began = time.perf_counter()
    out = CountermodelOutcome(levels=tuple(range(1, max_nodes + 1)))
    for node_count in range(1, max_nodes + 1):
        total = CodeSpace.size(node_count, len(labels))
        shards = 1
        if not supervisor.inline and total > MIN_SHARDED_SPACE:
            shards = supervisor.jobs * SHARD_FACTOR
        tasks = [
            supervisor.submit(
                _shard_task,
                node_count,
                labels,
                programs,
                start,
                stop,
                deadline,
                _flag_name(cancel),
                engine=f"countermodel[n={node_count} {start}:{stop}]",
            )
            for start, stop in _plan_shards(total, shards)
        ]
        for index, task in enumerate(tasks):
            try:
                chase.check()
                while not task.settled:
                    chase.wait(supervisor, tasks[index:])
                    chase.check()
            except _ChaseWon:
                _stop(supervisor, cancel, tasks[index:])
                raise
            if task.failed:
                # The range is unexplored and unexplorable: same
                # honest-UNKNOWN semantics as budget expiry, with the
                # fault recorded by the supervisor.
                out.exhausted = False
                out.fault_stop = True
            else:
                report = task.result()
                out.examined += report.examined
                out.canonical += report.canonical
                if report.hit is not None:
                    space = _code_space(node_count, labels)
                    out.graph = space.to_graph(report.hit)
                elif not report.exhausted:
                    # Budget expired inside this range: everything
                    # beyond it is unexplored.
                    out.exhausted = False
                else:
                    continue
            _stop(supervisor, cancel, tasks[index + 1 :])
            out.elapsed = time.perf_counter() - began
            return out
    out.elapsed = time.perf_counter() - began
    return out


def _scan_typed(
    supervisor: WorkerSupervisor,
    schema: Schema,
    sigma: tuple[PathConstraint, ...],
    phi: PathConstraint,
    limit: int,
    deadline: float | None,
    cancel: CancelFlag | None,
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
            True,
            _flag_name(cancel),
            engine=f"typed-countermodel[{shard_index}/{shards}]",
        )
        for shard_index in range(shards)
    ]
    try:
        chase.check()
        while not all(t.settled for t in tasks):
            chase.wait(supervisor, tasks)
            chase.check()
    except _ChaseWon:
        _stop(supervisor, cancel, tasks)
        raise
    reports = [t.result() for t in tasks if not t.failed]
    failed = len(tasks) - len(reports)
    out = CountermodelOutcome(
        examined=sum(r.examined for r in reports),
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


def parallel_countermodel_search(
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    labels: Sequence[str] | None = None,
    options: SolveOptions = DEFAULT_SOLVE_OPTIONS,
    jobs: int | str = 1,
    budget: Budget | None = None,
) -> CountermodelOutcome:
    """Canonical counter-model search under execution dispatch.

    Scans up to ``options.countermodel_nodes`` nodes.  ``jobs`` is a
    cap (or ``"auto"`` for the CPU count); the dispatch rule picks
    inline or pooled execution from the closed-form scan size —
    ``options.execution`` forces a mode instead, and
    ``options.inject`` is the fault plan (None: no faults).
    Deterministic: returns the same counter-model as the sequential
    canonical scan for any ``jobs`` and mode (budget expiry and
    unrecoverable worker faults aside).
    """
    requested = normalize_jobs(jobs)
    sigma = tuple(sigma)
    budget = budget or Budget()
    if labels is None:
        labels = infer_alphabet(sigma, phi)
    labels = tuple(labels)
    max_nodes = options.countermodel_nodes
    decision = choose_execution(
        kind="untyped",
        work_units=estimate_untyped_codes(len(labels), max_nodes),
        jobs=requested,
        forced=options.forced_mode,
    )
    with _supervised(decision, budget, options.inject, options) as (
        supervisor,
        cancel,
    ):
        out = _scan_levels(
            supervisor,
            labels,
            _compile(sigma, phi, labels),
            max_nodes,
            budget.deadline,
            cancel,
            _Chase(),
        )
    out.decision = decision
    return out


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
    parallelism (``"auto"`` means the CPU count).  The scan runs in a
    supervised process pool, racing the chase with first-winner
    cancellation, when at least two CPUs are usable and its
    closed-form size (``CodeSpace`` codes, or the typed instance
    limit) passes the threshold of
    :func:`~repro.reasoning.costmodel.choose_execution`; otherwise the
    engines run sequentially in-process, so ``jobs > 1`` does not pay
    pool overhead a small scan cannot amortise.  When this process's
    RSS is already past ``options.memory_guard_mb``, pooled execution
    (which would fork more memory-hungry workers) is demoted to inline.
    Every returned result carries per-engine :class:`EngineStats`, a
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
    if untyped:
        kind = "untyped"
        work = estimate_untyped_codes(len(labels), options.countermodel_nodes)
    else:
        kind, work = "typed", options.typed_search_limit
    decision = choose_execution(
        kind=kind, work_units=work, jobs=requested, forced=options.forced_mode
    )
    guard = options.memory_guard_mb
    guard_note = None
    if guard is not None and decision.mode is ExecMode.POOL:
        rss = current_rss_mb()
        if rss is not None and rss >= guard:
            # Forking pool workers duplicates this process's footprint;
            # past the guard that risks swapping the whole box.  The
            # inline scan costs no extra resident memory.
            guard_note = (
                f"memory guard: parent rss {rss:.0f} MiB >= "
                f"{guard} MiB; pooled execution demoted to "
                "inline"
            )
            decision = replace(
                decision,
                mode=ExecMode.INLINE,
                jobs=1,
                reason=guard_note,
                forced=True,
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
    if guard_note is not None:
        notes.append(guard_note)
    if plan.active:
        notes.append(f"fault injection active: {plan.describe()}")

    with _supervised(decision, budget, plan, options) as (
        supervisor,
        cancel,
    ):
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
            cancel,
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
    cancel: CancelFlag | None,
) -> ImplicationResult:
    """The race itself, inside an already-configured supervisor."""
    chase = _Chase(
        supervisor.submit(
            _chase_task,
            sigma,
            phi,
            options.chase_steps,
            budget.deadline,
            _flag_name(cancel),
            engine="chase",
        ),
        untyped,
    )
    try:
        # Inline the chase has already run, and may settle the race
        # before anything is compiled or submitted.
        chase.check()
        if untyped:
            search = _scan_levels(
                supervisor,
                labels,
                _compile(sigma, phi, labels),
                options.countermodel_nodes,
                budget.deadline,
                cancel,
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
                cancel,
                chase,
            )
        if search.graph is not None:
            # Refutation certificate in hand; the chase can stop.
            _stop(supervisor, cancel, [chase.task])
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


def _collect_stats(
    chase: _Chase, search_stats: EngineStats | None
) -> tuple[EngineStats, ...]:
    stats = [chase.stats or EngineStats(engine="chase", outcome="cancelled")]
    if search_stats is not None:
        stats.append(search_stats)
    return tuple(stats)


def _finish_chase_win(
    chase: _Chase, notes: list[str], supervisor: WorkerSupervisor
) -> ImplicationResult:
    chased = chase.result
    stats = _collect_stats(chase, None)
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
        detail += f", canonical={search.canonical}"
    search_stats = EngineStats(
        engine="countermodel" if untyped else "typed-countermodel",
        outcome=search.outcome_label,
        candidates=search.examined,
        elapsed=search.elapsed,
        detail=detail,
    )
    stats = _collect_stats(chase, search_stats)
    if search.graph is not None:
        faults = supervisor.fault_report(answered_by=search_stats.engine)
        if untyped:
            return ImplicationResult(
                answer=Trilean.FALSE,
                method="bounded-countermodel",
                decidable=False,
                countermodel=search.graph,
                notes=tuple(notes),
                stats=stats,
                faults=faults,
            )
        return ImplicationResult(
            answer=Trilean.FALSE,
            method="typed-instance-countermodel",
            decidable=False,
            countermodel=search.graph,
            certificate=search.certificate,
            notes=tuple(notes),
            stats=stats,
            faults=faults,
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
