"""Portfolio benchmarks: the untyped search, typed scaling.

Two workloads:

* **small untyped** — the PR 2 acceptance instance (smallest counter-
  model: 3 nodes).  The seed sequential search (every labelled graph,
  no pruning) is the honest baseline; the tableau search of
  :func:`~repro.reasoning.models.find_countermodel` must find a
  counter-model with as few nodes and beat the seed >= 100x, timed as
  the median of ``REPETITIONS`` runs.  The ``exhaustive`` shape of
  the semidecide benchmark, which has no counter-model within 3 nodes,
  records how long the search takes to exhaust that bound.
* **large typed** — a full 2000-instance ``U_f(Delta)`` scan over the
  Example 3.1 schema.  The legacy baseline (a cold stride-sharded
  pool running the per-instance reference loop) is raced against the
  shipped auto path (dispatch rule + projection screen); the new path
  must win by >= 4x.

The per-solve execution decision (mode, jobs, estimate, reason) is
recorded in ``BENCH_portfolio.json`` next to the typed timing, so a
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
    brute_force_countermodel,
    find_countermodel,
    infer_alphabet,
    reference_typed_scan,
    scan_codes,
)
from repro.reasoning.portfolio import run_portfolio
from repro.reasoning.runtime import WorkerSupervisor, retire_warm_pool
from repro.truth import Trilean
from repro.types.examples import example_3_1_schema

pytestmark = pytest.mark.bench

# The PR 2 acceptance instance: refutable, smallest counter-model has
# 3 nodes, alphabet {K, a} (the `a :: a => a` tautology forces the
# GENERAL fragment without widening the alphabet).
SIGMA_TEXT = "() => K\nK :: () => a.a.a\nK :: a.a.a => ()\na :: a => a"
PHI_TEXT = "K :: a => ()"

# The semidecide benchmark's `exhaustive` race template: implied, and
# the chase diverges, so the search must exhaust its 3-node bound.
EXHAUSTIVE_SIGMA_TEXT = "a => a.b\na ~> b"
EXHAUSTIVE_PHI_TEXT = "a ~> b"

# The typed workload: no counter-model exists inside the enumeration
# bounds and untyped-chase FALSE does not transfer to M+, so every
# driver must grind through the full instance stream — the worst case
# the typed fast path was built for.
TYPED_SIGMA_TEXT = "book :: member ~> ()"
TYPED_PHI_TEXT = "book.member => person"
TYPED_LIMIT = 2000
TYPED_JOBS = 8

#: Timed runs of the search; the gate reads their median.
REPETITIONS = 5

_BENCH: dict = {}


def _instance():
    return parse_constraints(SIGMA_TEXT), parse_constraint(PHI_TEXT)


def _median_seconds(fn) -> tuple[float, list[float], object]:
    samples, value = [], None
    for _ in range(REPETITIONS):
        began = time.perf_counter()
        value = fn()
        samples.append(time.perf_counter() - began)
    return statistics.median(samples), samples, value


def test_small_untyped_search_vs_seed():
    sigma, phi = _instance()

    began = time.perf_counter()
    baseline_graph = brute_force_countermodel(sigma, phi, max_nodes=3)
    baseline = time.perf_counter() - began
    assert baseline_graph is not None
    assert baseline_graph.node_count() == 3

    search, samples, graph = _median_seconds(
        lambda: find_countermodel(sigma, phi, max_nodes=3)
    )
    assert graph is not None
    assert graph.node_count() == baseline_graph.node_count()
    speedup = baseline / search

    ex_sigma = parse_constraints(EXHAUSTIVE_SIGMA_TEXT)
    ex_phi = parse_constraint(EXHAUSTIVE_PHI_TEXT)
    ex_labels = infer_alphabet(ex_sigma, ex_phi)
    exhaust, ex_samples, report = _median_seconds(
        lambda: scan_codes(ex_sigma, ex_phi, ex_labels, 3)
    )
    assert report.exhausted and report.graph is None

    print_table(
        "tableau search vs seed sequential "
        f"(sigma: {SIGMA_TEXT!r}, phi: {PHI_TEXT!r}; "
        f"search: median of {REPETITIONS} runs)",
        ["engine", "seconds", "speedup"],
        [
            ["seed sequential", f"{baseline:.3f}", "1.00x"],
            ["tableau search", f"{search:.6f}", f"{speedup:.0f}x"],
            [
                f"exhaust 3 nodes ({report.states} states)",
                f"{exhaust:.6f}",
                "-",
            ],
        ],
    )

    _BENCH["small_untyped"] = {
        "instance": {"sigma": SIGMA_TEXT, "phi": PHI_TEXT},
        "countermodel_nodes": graph.node_count(),
        "timings_seconds": {"seed_sequential": baseline, "search": search},
        "repetitions_seconds": {"search": samples},
        "speedup": speedup,
    }
    _BENCH["exhaustive"] = {
        "instance": {
            "sigma": EXHAUSTIVE_SIGMA_TEXT,
            "phi": EXHAUSTIVE_PHI_TEXT,
        },
        "max_nodes": 3,
        "states": report.states,
        "seconds": exhaust,
        "repetitions_seconds": ex_samples,
    }

    # PR 2 acceptance, raised from >= 4x with the tableau search: the
    # search beats the seed >= 100x.
    assert speedup >= 100.0, f"search only {speedup:.1f}x over seed"


def _legacy_typed_pool_seconds(schema, sigma, phi) -> float:
    """PR 2's typed driver: cold pool, stride shards, reference
    evaluator — the configuration the cost model replaced."""
    began = time.perf_counter()
    with WorkerSupervisor(jobs=TYPED_JOBS, keep_warm=False) as sup:
        tasks = [
            sup.submit(
                reference_typed_scan,
                schema,
                sigma,
                phi,
                2,  # max_oids
                2,  # max_set_size
                TYPED_LIMIT,
                shard,
                TYPED_JOBS,
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
