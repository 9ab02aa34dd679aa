"""Portfolio benchmarks: execution dispatch, pruning, typed scaling.

Two workloads, matching the two halves of the parallel-slower-than-
serial fix:

* **small untyped** — the PR 2 acceptance instance (smallest counter-
  model: 3 nodes, a 262144-code top level).  The seed sequential
  search is the honest baseline; each job count then runs through the
  dispatch rule (``execution="auto"``), which is exactly what a user
  gets.  The regression being locked out: ``jobs=2`` used to pay cold
  pool spawn + per-shard pickling on a scan far too small to amortise
  it (measured 0.84s vs 0.20s at ``jobs=1`` on one CPU) — now one CPU
  never pools, and ``jobs=2`` must land within 10% (plus 50 ms) of
  ``jobs=1``.  Each job count is timed as the median of
  ``REPETITIONS`` interleaved cold-pool runs, because one sample per
  job count let host noise decide the gate.
* **large typed** — a full 2000-instance ``U_f(Delta)`` scan over the
  Example 3.1 schema.  The legacy driver (PR 2's cold stride-sharded
  pool, reference evaluator) is raced against the shipped auto path
  (dispatch rule + compiled bitmask screen); the new path must win by
  >= 4x.

The per-solve execution decision (mode, jobs, estimate, reason) is
recorded in ``BENCH_portfolio.json`` next to every timing, so a
regression in dispatch policy shows up as a mode flip in the diff, not
just as a mysterious slowdown.
"""

from __future__ import annotations

import statistics
import time

import pytest

from _report import print_table, write_bench_json
from repro.constraints import parse_constraint, parse_constraints
from repro.reasoning import Context, ImplicationProblem, SolveOptions
from repro.reasoning.models import (
    CodeSpace,
    brute_force_countermodel,
    infer_alphabet,
    scan_codes,
)
from repro.reasoning.portfolio import (
    _typed_shard_task,
    parallel_countermodel_search,
    run_portfolio,
)
from repro.reasoning.runtime import WorkerSupervisor, retire_warm_pool
from repro.truth import Trilean
from repro.types.examples import example_3_1_schema

pytestmark = pytest.mark.bench

# The PR 2 acceptance instance: refutable, smallest counter-model has
# 3 nodes, alphabet {K, a} (the `a :: a => a` tautology forces the
# GENERAL fragment without widening the alphabet).
SIGMA_TEXT = "() => K\nK :: () => a.a.a\nK :: a.a.a => ()\na :: a => a"
PHI_TEXT = "K :: a => ()"

# The typed workload: no counter-model exists inside the enumeration
# bounds and untyped-chase FALSE does not transfer to M+, so every
# driver must grind through the full instance stream — the worst case
# the typed fast path was built for.
TYPED_SIGMA_TEXT = "book :: member ~> ()"
TYPED_PHI_TEXT = "book.member => person"
TYPED_LIMIT = 2000
TYPED_JOBS = 8

JOB_COUNTS = (1, 2, 4, 8)

#: Interleaved timed runs per job count; the gate reads their median.
REPETITIONS = 5

_BENCH: dict = {}


def _instance():
    return parse_constraints(SIGMA_TEXT), parse_constraint(PHI_TEXT)


def test_small_untyped_cost_model_dispatch():
    sigma, phi = _instance()
    retire_warm_pool()

    began = time.perf_counter()
    baseline_graph = brute_force_countermodel(sigma, phi, max_nodes=3)
    baseline = time.perf_counter() - began
    assert baseline_graph is not None
    assert baseline_graph.node_count() == 3

    rows = [["seed sequential", "-", "-", f"{baseline:.3f}", "1.00x"]]
    speedups: dict[str, float] = {}
    timings: dict[str, float] = {"seed_sequential": baseline}
    samples: dict[str, list[float]] = {f"jobs_{j}": [] for j in JOB_COUNTS}
    modes: dict[str, dict] = {}
    reference_edges = None
    for _ in range(REPETITIONS):
        for jobs in JOB_COUNTS:
            # Every repetition pays the cold pool spawn the gate is about.
            retire_warm_pool()
            began = time.perf_counter()
            out = parallel_countermodel_search(
                sigma,
                phi,
                options=SolveOptions(countermodel_nodes=3),
                jobs=jobs,
            )
            elapsed = time.perf_counter() - began
            assert out.graph is not None
            edges = sorted(out.graph.edges())
            if reference_edges is None:
                reference_edges = edges
            assert edges == reference_edges  # determinism across jobs
            samples[f"jobs_{jobs}"].append(elapsed)
            modes[f"jobs_{jobs}"] = out.decision.to_dict()
    for jobs in JOB_COUNTS:
        elapsed = statistics.median(samples[f"jobs_{jobs}"])
        speedups[str(jobs)] = baseline / elapsed
        timings[f"jobs_{jobs}"] = elapsed
        rows.append(
            [
                f"portfolio jobs={jobs}",
                str(jobs),
                modes[f"jobs_{jobs}"]["mode"],
                f"{elapsed:.3f}",
                f"{baseline / elapsed:.2f}x",
            ]
        )

    print_table(
        "cost-model portfolio vs seed sequential "
        f"(sigma: {SIGMA_TEXT!r}, phi: {PHI_TEXT!r}; "
        f"median of {REPETITIONS} runs per job count)",
        ["engine", "jobs", "mode", "seconds", "speedup"],
        rows,
    )

    _BENCH["small_untyped"] = {
        "instance": {"sigma": SIGMA_TEXT, "phi": PHI_TEXT},
        "countermodel_nodes": baseline_graph.node_count(),
        "timings_seconds": timings,
        "repetitions_seconds": samples,
        "speedup": speedups,
        "modes": modes,
    }
    _BENCH["pruning"] = _pruning_rows(sigma, phi)

    # Extra jobs must never cost more than they buy.  10% tolerance
    # plus a 50ms absolute floor for timer noise on sub-second scans,
    # on the medians.
    assert timings["jobs_2"] <= 1.1 * timings["jobs_1"] + 0.05, (
        f"jobs=2 ({timings['jobs_2']:.3f}s) lost to "
        f"jobs=1 ({timings['jobs_1']:.3f}s)"
    )
    # PR 2 acceptance, carried forward against the honest baseline:
    # the canonical engine beats the seed >= 4x at every job count.
    for jobs in JOB_COUNTS:
        assert speedups[str(jobs)] >= 4.0, (
            f"jobs={jobs} only {speedups[str(jobs)]:.2f}x over seed"
        )


def _legacy_typed_pool_seconds(schema, sigma, phi) -> float:
    """PR 2's typed driver: cold pool, stride shards, reference
    evaluator — the configuration the cost model replaced."""
    began = time.perf_counter()
    with WorkerSupervisor(jobs=TYPED_JOBS, keep_warm=False) as sup:
        tasks = [
            sup.submit(
                _typed_shard_task,
                schema,
                sigma,
                phi,
                2,  # max_oids
                2,  # max_set_size
                TYPED_LIMIT,
                shard,
                TYPED_JOBS,
                None,  # deadline
                engine=f"legacy-typed {shard}/{TYPED_JOBS}",
            )
            for shard in range(TYPED_JOBS)
        ]
        pending = set(tasks)
        while pending:
            for task in sup.wait_any(pending):
                pending.discard(task)
        assert all(t.settled and not t.failed for t in tasks)
        assert sum(t.result().examined for t in tasks) >= TYPED_LIMIT
    return time.perf_counter() - began


def test_large_typed_scan_vs_legacy_pool():
    schema = example_3_1_schema()
    sigma = parse_constraints(TYPED_SIGMA_TEXT)
    phi = parse_constraint(TYPED_PHI_TEXT)
    retire_warm_pool()

    legacy = _legacy_typed_pool_seconds(schema, tuple(sigma), phi)

    problem = ImplicationProblem(
        sigma, phi, Context.M_PLUS, schema=schema
    )
    began = time.perf_counter()
    result = run_portfolio(
        problem, SolveOptions(typed_search_limit=TYPED_LIMIT), jobs=TYPED_JOBS
    )
    auto = time.perf_counter() - began
    assert result.answer is Trilean.UNKNOWN  # full-scan worst case
    assert result.execution is not None

    speedup = legacy / auto
    print_table(
        "typed U_f(Delta) full scan, legacy cold pool vs cost-model "
        f"auto (sigma: {TYPED_SIGMA_TEXT!r}, phi: {TYPED_PHI_TEXT!r}, "
        f"limit {TYPED_LIMIT})",
        ["driver", "jobs", "mode", "seconds", "speedup"],
        [
            [
                "legacy stride pool",
                str(TYPED_JOBS),
                "pool (cold)",
                f"{legacy:.3f}",
                "1.00x",
            ],
            [
                "cost-model auto",
                str(TYPED_JOBS),
                result.execution.mode.value,
                f"{auto:.3f}",
                f"{speedup:.2f}x",
            ],
        ],
    )

    _BENCH["large_typed"] = {
        "instance": {
            "sigma": TYPED_SIGMA_TEXT,
            "phi": TYPED_PHI_TEXT,
            "schema": "example_3_1",
            "limit": TYPED_LIMIT,
        },
        "timings_seconds": {
            f"legacy_pool_jobs_{TYPED_JOBS}": legacy,
            f"auto_jobs_{TYPED_JOBS}": auto,
        },
        "speedup_vs_legacy": speedup,
        "mode": result.execution.to_dict(),
    }
    write_bench_json("portfolio", _BENCH)

    # Tentpole acceptance: the shipped jobs=8 path beats the PR 2
    # jobs=8 driver >= 4x on the large typed scan.
    assert speedup >= 4.0, (
        f"auto path only {speedup:.2f}x over the legacy pool "
        f"({auto:.3f}s vs {legacy:.3f}s)"
    )


def _pruning_rows(sigma, phi) -> dict[str, dict[str, int]]:
    labels = infer_alphabet(sigma, phi)
    pruning: dict[str, dict[str, int]] = {}
    rows = []
    for node_count in (1, 2, 3):
        space = CodeSpace(node_count, labels)
        canonical = sum(1 for _ in space.canonical_codes())
        report = scan_codes(space, sigma, phi)
        pruning[str(node_count)] = {
            "total_codes": space.total,
            "canonical_codes": canonical,
            "scanned_candidates": report.examined,
        }
        rows.append(
            [
                str(node_count),
                str(space.total),
                str(canonical),
                str(report.examined),
                f"{space.total / max(1, report.examined):.2f}x",
            ]
        )
    print_table(
        f"isomorphism + reachability pruning (labels={list(labels)})",
        ["nodes", "codes", "canonical", "scanned", "reduction"],
        rows,
    )
    return pruning
