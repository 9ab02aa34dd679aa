"""Decision and semi-decision procedures for P_c implication.

The paper's Table 1, as code:

=====================  ==============  ===========  ============
problem                semistructured  model M      model M+/M+f
=====================  ==============  ===========  ============
P_w (substrate)        PTIME           cubic        undecidable
P_w(K)                 undecidable     cubic        undecidable
local extent           PTIME           cubic        undecidable
P_c                    undecidable     cubic        undecidable
=====================  ==============  ===========  ============

Decidable cells are implemented as complete decision procedures;
undecidable cells are served by sound semi-deciders (chase, proof
search, bounded counter-model search).  :func:`solve` routes a problem
to the right procedure and annotates the answer with the cell's status;
one :class:`SolveOptions` value says how it runs.
"""

from repro.reasoning.result import ImplicationResult
from repro.reasoning.cache import (
    CacheInfo,
    ImplicationCache,
    resolve_cache_dir,
)
from repro.reasoning.canonical import (
    CanonicalForm,
    canonicalize_instance,
    canonicalize_problem,
)
from repro.reasoning.word import WordImplicationDecider, implies_word
from repro.reasoning.typed_m import TypedImplicationDecider, implies_typed_m
from repro.reasoning.local_extent import implies_local_extent
from repro.reasoning.chase import ChaseOutcome, chase, chase_implication
from repro.reasoning.axioms import IrProof, ProofLine, check_proof
from repro.reasoning.interaction import (
    InteractionKind,
    InteractionReport,
    interaction_report,
)
from repro.reasoning.dispatcher import (
    Context,
    ImplicationProblem,
    ProblemClass,
    classify,
    solve,
    table1_cell,
)
from repro.reasoning.portfolio import (
    Budget,
    parallel_countermodel_search,
    run_portfolio,
)
from repro.reasoning.options import DEFAULT_SOLVE_OPTIONS, SolveOptions
from repro.reasoning.costmodel import (
    ExecMode,
    ExecutionDecision,
    choose_execution,
)
from repro.reasoning.faultinject import FaultPlan
from repro.reasoning.runtime import (
    WorkerSupervisor,
    retire_warm_pool,
    warm_pool_pids,
    warm_pool_stats,
)
from repro.reasoning.result import EngineStats, FaultEvent, FaultReport

__all__ = [
    "Budget",
    "CacheInfo",
    "CanonicalForm",
    "DEFAULT_SOLVE_OPTIONS",
    "EngineStats",
    "ExecMode",
    "ExecutionDecision",
    "FaultEvent",
    "FaultPlan",
    "FaultReport",
    "ImplicationCache",
    "ImplicationResult",
    "SolveOptions",
    "WorkerSupervisor",
    "canonicalize_instance",
    "canonicalize_problem",
    "choose_execution",
    "resolve_cache_dir",
    "parallel_countermodel_search",
    "retire_warm_pool",
    "run_portfolio",
    "warm_pool_pids",
    "warm_pool_stats",
    "WordImplicationDecider",
    "implies_word",
    "TypedImplicationDecider",
    "implies_typed_m",
    "implies_local_extent",
    "ChaseOutcome",
    "chase",
    "chase_implication",
    "IrProof",
    "ProofLine",
    "check_proof",
    "Context",
    "ImplicationProblem",
    "ProblemClass",
    "classify",
    "solve",
    "table1_cell",
    "InteractionKind",
    "InteractionReport",
    "interaction_report",
]
