"""Measured growth exponents of the three rewriting-backed deciders.

The paper claims PTIME for untyped P_w (the [AV97] substrate) and for
local extent (Lemma 5.3 reduces it to P_w), and cubic time for P_c
over M (Theorem 4.2).  All three run on one prefix-rewriting ``post*``
saturation kernel.  This benchmark sweeps the premise count |Sigma|
from 16 to 256 for one family per decider:

* P_w: random word constraints over three labels (``random_word_constraints``);
* typed-M: random equivalences over a random M schema whose class
  count grows with the premises (``typed_m_workload``, |Sigma|/4 classes);
* local extent: the fixed MIT core plus |Sigma| decoy constraints on
  other sites (``local_extent_workload``).

Each point is the best of three runs of building the decider and
deciding a fixed batch of queries.  A least-squares fit of log(time)
against log(|Sigma|) gives each family's growth exponent; the times and
exponents go to ``BENCH_kernels.json``, and ``scripts/bench.sh`` gates
on the typed-M exponent staying at most 3.

The same sweep times the instance's cache key, ``canonicalize_instance``
on the premises and the first query (best of three), so the JSON sets
key cost against kernel cost per size (``canon_times_ms`` and a fitted
``canon_exponent`` per family).  ``scripts/bench.sh`` gates each key
exponent at most 2: a per-premise quadratic in the key would show.
"""

from __future__ import annotations

import math
import time

import pytest

from _report import print_table, write_bench_json
from _workloads import (
    local_extent_workload,
    random_word_constraints,
    typed_m_workload,
)
from repro.reasoning import (
    Context,
    TypedImplicationDecider,
    WordImplicationDecider,
    canonicalize_instance,
    implies_local_extent,
)

pytestmark = pytest.mark.bench

SIZES = [16, 32, 64, 128, 256]
QUERIES = 5
REPEATS = 3
#: Theorem 4.2's cubic bound on the typed-M cell.
TYPED_M_EXPONENT_BOUND = 3.0
#: Keys must stay at most quadratic in |Sigma| (they are near linear).
CANON_EXPONENT_BOUND = 2.0


def _p_w(size: int):
    """(decide, key) thunks for one P_w instance of ``size`` premises."""
    sigma = random_word_constraints(size, max_len=4, seed=size)
    queries = random_word_constraints(QUERIES, max_len=5, seed=size + 999)
    return (
        lambda: [WordImplicationDecider(sigma).implies(q) for q in queries],
        lambda: canonicalize_instance(sigma, queries[0]),
    )


def _typed_m(size: int):
    schema, sigma, queries = typed_m_workload(size // 4, size, seed=size)
    queries = queries[:QUERIES]
    return (
        lambda: [
            TypedImplicationDecider(schema, sigma).implies(q) for q in queries
        ],
        lambda: canonicalize_instance(
            sigma, queries[0], Context.M.value, schema
        ),
    )


def _local_extent(size: int):
    core, decoys, queries = local_extent_workload(size, seed=size)
    sigma = core + decoys
    return (
        lambda: [implies_local_extent(sigma, q).answer for q in queries],
        lambda: canonicalize_instance(sigma, queries[0]),
    )


FAMILIES = {"P_w": _p_w, "typed-M": _typed_m, "local-extent": _local_extent}


def _best_seconds(decide) -> float:
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        decide()
        best = min(best, time.perf_counter() - start)
    return best


def fit_exponent(sizes: list[int], seconds: list[float]) -> float:
    """The least-squares slope of log(seconds) against log(size).

    >>> round(fit_exponent([1, 2, 4], [3.0, 24.0, 192.0]), 6)
    3.0
    """
    xs = [math.log(size) for size in sizes]
    ys = [math.log(value) for value in seconds]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return covariance / sum((x - mean_x) ** 2 for x in xs)


@pytest.mark.benchmark(group="kernels")
def test_kernel_growth_exponents(benchmark):
    families = {}
    for name, build in FAMILIES.items():
        thunks = [build(size) for size in SIZES]
        seconds = [_best_seconds(decide) for decide, _ in thunks]
        keys = [_best_seconds(key) for _, key in thunks]
        families[name] = {
            "ms": [round(value * 1e3, 3) for value in seconds],
            "exponent": round(fit_exponent(SIZES, seconds), 3),
            "canon_times_ms": [round(value * 1e3, 3) for value in keys],
            "canon_exponent": round(fit_exponent(SIZES, keys), 3),
        }
    print_table(
        f"Decider time for {QUERIES} queries (3 for local extent) "
        "and key time vs premise count, best of 3",
        [
            "|Sigma|",
            *(head for name in FAMILIES for head in (name, f"{name} key")),
        ],
        [
            [
                size,
                *(
                    f"{families[name][field][i]:.2f} ms"
                    for name in FAMILIES
                    for field in ("ms", "canon_times_ms")
                ),
            ]
            for i, size in enumerate(SIZES)
        ]
        + [
            [
                "exponent",
                *(
                    families[name][field]
                    for name in FAMILIES
                    for field in ("exponent", "canon_exponent")
                ),
            ]
        ],
    )
    write_bench_json(
        "kernels",
        {
            "sizes": SIZES,
            "queries": QUERIES,
            "repeats": REPEATS,
            "typed_m_exponent_bound": TYPED_M_EXPONENT_BOUND,
            "canon_exponent_bound": CANON_EXPONENT_BOUND,
            "families": families,
        },
    )
    assert families["typed-M"]["exponent"] <= TYPED_M_EXPONENT_BOUND
    for name in FAMILIES:
        assert families[name]["canon_exponent"] <= CANON_EXPONENT_BOUND

    decide, _ = _typed_m(128)
    benchmark(decide)
