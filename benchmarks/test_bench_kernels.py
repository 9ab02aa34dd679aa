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
    TypedImplicationDecider,
    WordImplicationDecider,
    implies_local_extent,
)

pytestmark = pytest.mark.bench

SIZES = [16, 32, 64, 128, 256]
QUERIES = 5
REPEATS = 3
#: Theorem 4.2's cubic bound on the typed-M cell.
TYPED_M_EXPONENT_BOUND = 3.0


def _p_w(size: int):
    sigma = random_word_constraints(size, max_len=4, seed=size)
    queries = random_word_constraints(QUERIES, max_len=5, seed=size + 999)
    return lambda: [WordImplicationDecider(sigma).implies(q) for q in queries]


def _typed_m(size: int):
    schema, sigma, queries = typed_m_workload(size // 4, size, seed=size)
    queries = queries[:QUERIES]
    return lambda: [
        TypedImplicationDecider(schema, sigma).implies(q) for q in queries
    ]


def _local_extent(size: int):
    core, decoys, queries = local_extent_workload(size, seed=size)
    sigma = core + decoys
    return lambda: [implies_local_extent(sigma, q).answer for q in queries]


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
        seconds = [_best_seconds(build(size)) for size in SIZES]
        families[name] = {
            "ms": [round(value * 1e3, 3) for value in seconds],
            "exponent": round(fit_exponent(SIZES, seconds), 3),
        }
    print_table(
        f"Decider time for {QUERIES} queries (3 for local extent) "
        "vs premise count, best of 3",
        ["|Sigma|", *FAMILIES],
        [
            [size, *(f"{families[name]['ms'][i]:.2f} ms" for name in FAMILIES)]
            for i, size in enumerate(SIZES)
        ]
        + [["exponent", *(families[name]["exponent"] for name in FAMILIES)]],
    )
    write_bench_json(
        "kernels",
        {
            "sizes": SIZES,
            "queries": QUERIES,
            "repeats": REPEATS,
            "typed_m_exponent_bound": TYPED_M_EXPONENT_BOUND,
            "families": families,
        },
    )
    assert families["typed-M"]["exponent"] <= TYPED_M_EXPONENT_BOUND

    benchmark(_typed_m(128))
