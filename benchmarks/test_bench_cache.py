"""Implication-cache benchmarks: cold vs warm latency, hit rates.

Three workloads, matching the cache's acceptance criteria:

* **cold vs warm** — a P_c instance only a 3-node counter-model
  refutes (tens of milliseconds of genuine portfolio work at
  ``jobs=1``: the chase runs its whole budget, then the tableau search
  finds the model) is solved cold, then an *alpha-renamed* copy is
  served from the warmed cache.  The warm hit
  must be >= 100x faster: the whole point of canonical keys is that a
  renamed repeat costs one canonicalization + one lookup, not a
  re-solve.
* **repeated+renamed sweep** — every seeded diffcheck instance is
  solved three times through one shared cache (once cold, twice under
  fresh random alphabets).  The measured hit rate must be >= 30%; in
  practice it is bounded by the generators' UNKNOWN rate (UNKNOWN is
  never cached) and lands near 2/3 of the definite fraction.
* **differential guard** — a ``fuzz --cache-check`` sweep must report
  zero verdict flips; the flip count is recorded in the JSON so CI
  diffs catch a regression even if the sweep's own exit code is lost.

Everything lands in ``BENCH_cache.json`` for ``scripts/bench.sh`` to
re-gate.
"""

from __future__ import annotations

import random
import time

import pytest

from _report import print_table, write_bench_json
from repro.constraints import parse_constraint, parse_constraints
from repro.errors import ReproError
from repro.diffcheck.generators import FRAGMENT_GENERATORS, generate_instance
from repro.diffcheck.runner import fuzz
from repro.reasoning import (
    ImplicationCache,
    ImplicationProblem,
    SolveOptions,
    solve,
)
from repro.reasoning.canonical import rename_constraint
from repro.truth import Trilean

pytestmark = pytest.mark.bench

# A refutation nothing shortcuts: the chase diverges (UNKNOWN after its
# whole budget, the conclusion never forced), and the smallest
# counter-model has 3 nodes, so the search must try every smaller
# bound first — the expensive-definite workload the cache exists for.
SIGMA_TEXT = "b => b.a\nb :: a.a ~> b"
PHI_TEXT = "b.b => b.b.b"

#: Alpha-renaming applied to the warm queries; the canonicalizer must
#: send renamed copies to the cold instance's key.
RENAMING = {"a": "hop", "b": "step"}

WARM_REPEATS = 20
SWEEP_SEEDS = (0, 1)
SWEEP_PER_FRAGMENT = 8
RENAMED_PASSES = 2

_BENCH: dict = {}


def _expensive_problem(mapping=None):
    sigma = parse_constraints(SIGMA_TEXT)
    phi = parse_constraint(PHI_TEXT)
    if mapping:
        sigma = [rename_constraint(psi, mapping) for psi in sigma]
        phi = rename_constraint(phi, mapping)
    return ImplicationProblem(sigma, phi)


def test_cold_vs_warm_hit_latency():
    cache = ImplicationCache()

    began = time.perf_counter()
    cold = solve(_expensive_problem(), jobs=1, cache=cache)
    cold_s = time.perf_counter() - began
    assert cold.answer is Trilean.FALSE
    assert cold.cache.status == "store"

    warm_times = []
    for _ in range(WARM_REPEATS):
        began = time.perf_counter()
        warm = solve(_expensive_problem(RENAMING), jobs=1, cache=cache)
        warm_times.append(time.perf_counter() - began)
        assert warm.cache.status == "hit"
        assert warm.answer is Trilean.FALSE
    warm_s = sorted(warm_times)[len(warm_times) // 2]  # median

    speedup = cold_s / warm_s
    _BENCH["cold_vs_warm"] = {
        "cold_ms": round(cold_s * 1e3, 3),
        "warm_hit_ms": round(warm_s * 1e3, 3),
        "speedup": round(speedup, 1),
        "warm_repeats": WARM_REPEATS,
    }
    print_table(
        "cache: cold solve vs alpha-renamed warm hit",
        ["phase", "latency (ms)"],
        [
            ["cold portfolio solve", f"{cold_s * 1e3:.1f}"],
            ["warm hit (median)", f"{warm_s * 1e3:.3f}"],
            ["speedup", f"{speedup:.0f}x"],
        ],
    )
    assert speedup >= 100, (
        f"warm alpha-renamed hit only {speedup:.1f}x faster than cold "
        f"(cold {cold_s * 1e3:.1f}ms, warm {warm_s * 1e3:.3f}ms)"
    )


def test_repeat_workload_hit_rate():
    """One cold pass + RENAMED_PASSES renamed passes over the seeded
    diffcheck stream, one shared cache."""
    cache = ImplicationCache()
    rng = random.Random(42)
    instances = [
        generate_instance(fragment, seed, index)
        for fragment in sorted(FRAGMENT_GENERATORS)
        for seed in SWEEP_SEEDS
        for index in range(SWEEP_PER_FRAGMENT)
    ]

    options = SolveOptions(
        chase_steps=400, countermodel_nodes=2, typed_search_limit=400
    )

    def _solve(problem):
        return solve(problem, options, jobs=1, cache=cache)

    lookups = hits = skipped = 0
    for sweep in range(1 + RENAMED_PASSES):
        for inst in instances:
            if sweep == 0:
                problem = ImplicationProblem(
                    inst.sigma, inst.phi, inst.context, schema=inst.schema
                )
            else:
                labels = set(inst.phi.alphabet())
                for psi in inst.sigma:
                    labels |= psi.alphabet()
                labels.discard("member")
                mapping = {
                    label: f"r{sweep}_{i}_{rng.randint(0, 99)}"
                    for i, label in enumerate(sorted(labels))
                }
                problem = ImplicationProblem(
                    [rename_constraint(psi, mapping) for psi in inst.sigma],
                    rename_constraint(inst.phi, mapping),
                    inst.context,
                    schema=inst.schema,
                )
            try:
                result = _solve(problem)
            except ReproError:
                # A few generated instances exhaust the fragment
                # budget and raise instead of answering (the oracle
                # matrix would abstain); they contribute no lookup.
                skipped += 1
                continue
            lookups += 1
            if result.cache.status == "hit":
                hits += 1

    rate = hits / lookups
    _BENCH["repeat_workload"] = {
        "instances": len(instances),
        "passes": 1 + RENAMED_PASSES,
        "lookups": lookups,
        "hits": hits,
        "skipped": skipped,
        "hit_rate": round(rate, 3),
    }
    print_table(
        "cache: seeded diffcheck repeat workload",
        ["metric", "value"],
        [
            ["instances", len(instances)],
            ["passes (1 cold + renamed)", 1 + RENAMED_PASSES],
            ["lookups", lookups],
            ["hits", hits],
            ["skipped (budget raise)", skipped],
            ["hit rate", f"{rate:.0%}"],
        ],
    )
    assert rate >= 0.30, f"hit rate {rate:.1%} below the 30% acceptance bar"


def test_cache_check_differential_zero_flips():
    report = fuzz(seed=0, per_fragment=10, cache_check=True)
    _BENCH["cache_check"] = {
        "instances": report.cache_checks,
        "lookups": report.cache_lookups,
        "hits": report.cache_hits,
        "flips": report.cache_flips,
        "disagreements": len(report.disagreements),
    }
    print_table(
        "cache: differential guard (fuzz --cache-check)",
        ["metric", "value"],
        [
            ["instances", report.cache_checks],
            ["cache hits", report.cache_hits],
            ["verdict flips", report.cache_flips],
        ],
    )
    assert report.cache_flips == 0
    assert report.ok


def test_zz_write_report():
    """Runs last (name-ordered): persist everything the suite measured."""
    assert _BENCH, "benchmarks did not run"
    write_bench_json("cache", _BENCH)
