"""Path-cache effectiveness on the chase and incremental workloads.

Counter-based, not wall-clock: ``CacheStats.misses`` counts raw
adjacency-dict traversals (every miss is exactly one), so running the
identical workload with the cache enabled (default LRU) and disabled
(``maxsize=0`` pass-through) compares *path evaluations performed*.
The cache cannot change any result — the workloads assert their
outcomes match — it can only collapse repeated evaluations between
mutations, and these numbers show by how much.
"""

from __future__ import annotations

import time

import pytest

from _report import print_table
from _workloads import REPAIR_SIGMA, bibliography_edge_stream, broken_bibliography
from repro.checking import IncrementalChecker
from repro.constraints import parse_constraints
from repro.graph import Graph
from repro.reasoning.chase import chase

pytestmark = pytest.mark.bench

INCREMENTAL_SIGMA = parse_constraints(
    """
    book :: author ~> wrote
    person :: wrote ~> author
    book.author => person
    person.wrote => book
    """
)


def _chase_workload(books: int, maxsize: int):
    """Run the chase-repair workload; returns (outcome, stats)."""
    graph, _ = broken_bibliography(books, seed=books)
    graph.configure_path_cache(maxsize=maxsize)
    outcome = chase(graph, REPAIR_SIGMA, max_steps=1_000_000)
    # chase() copies the input; the copy inherits the cache setting and
    # is returned as outcome.graph, so its stats cover the whole run.
    return outcome, outcome.graph.cache_stats()


def _incremental_workload(books: int, maxsize: int):
    """Stream the insertion trace through IncrementalChecker."""
    edges = list(bibliography_edge_stream(books, books // 3, seed=books))
    graph = Graph(root="r")
    graph.configure_path_cache(maxsize=maxsize)
    checker = IncrementalChecker(graph, INCREMENTAL_SIGMA)
    for src, label, dst in edges:
        checker.add_edge(src, label, dst)
    return checker, graph.cache_stats()


@pytest.mark.benchmark(group="path-cache")
@pytest.mark.parametrize("books", [50, 150])
def test_chase_workload_fewer_evaluations(benchmark, books):
    cached_outcome, cached = _chase_workload(books, Graph.DEFAULT_CACHE_MAXSIZE)
    uncached_outcome, uncached = _chase_workload(books, 0)

    # Identical behaviour: caching must not change the chase.
    assert cached_outcome.fixpoint and uncached_outcome.fixpoint
    assert cached_outcome.steps == uncached_outcome.steps
    assert cached_outcome.graph.same_structure(uncached_outcome.graph)

    # The counters that matter: same requests, strictly fewer raw
    # traversals, nonzero hits.
    assert uncached.hits == 0
    assert cached.hits > 0
    assert cached.misses < uncached.misses
    print_table(
        f"Chase repair, {books} books: path evaluations",
        ["variant", "requests", "raw evaluations", "hits", "hit rate"],
        [
            ["uncached", uncached.requests, uncached.misses, 0, "0%"],
            ["cached", cached.requests, cached.misses, cached.hits,
             f"{cached.hit_rate:.0%}"],
        ],
    )

    benchmark(lambda: _chase_workload(books, Graph.DEFAULT_CACHE_MAXSIZE)[0].fixpoint)


@pytest.mark.benchmark(group="path-cache")
@pytest.mark.parametrize("books", [100, 300])
def test_incremental_workload_fewer_evaluations(benchmark, books):
    cached_checker, cached = _incremental_workload(
        books, Graph.DEFAULT_CACHE_MAXSIZE
    )
    uncached_checker, uncached = _incremental_workload(books, 0)

    # Identical behaviour, and both agree with from-scratch truth.
    assert cached_checker.current_violations() == (
        uncached_checker.current_violations()
    )
    assert cached_checker.revalidate()
    assert uncached_checker.revalidate()

    assert uncached.hits == 0
    assert cached.hits > 0
    assert cached.misses < uncached.misses
    print_table(
        f"Incremental integrity, {books} books: path evaluations",
        ["variant", "requests", "raw evaluations", "hits", "hit rate"],
        [
            ["uncached", uncached.requests, uncached.misses, 0, "0%"],
            ["cached", cached.requests, cached.misses, cached.hits,
             f"{cached.hit_rate:.0%}"],
        ],
    )

    benchmark(
        lambda: _incremental_workload(books, Graph.DEFAULT_CACHE_MAXSIZE)[0].ok
    )


@pytest.mark.benchmark(group="path-cache")
def test_cache_overhead_and_speedup_report(benchmark):
    """Wall-clock sanity table (informational; assertions stay on the
    counters above)."""
    rows = []
    for books in (50, 150):
        start = time.perf_counter()
        _chase_workload(books, Graph.DEFAULT_CACHE_MAXSIZE)
        cached_s = time.perf_counter() - start
        start = time.perf_counter()
        _chase_workload(books, 0)
        uncached_s = time.perf_counter() - start
        rows.append(
            [
                f"chase {books} books",
                f"{cached_s * 1e3:.1f} ms",
                f"{uncached_s * 1e3:.1f} ms",
                f"x{uncached_s / max(cached_s, 1e-9):.2f}",
            ]
        )
    print_table(
        "Path cache wall clock (informational)",
        ["workload", "cached", "uncached", "speedup"],
        rows,
    )
    benchmark(lambda: _chase_workload(50, Graph.DEFAULT_CACHE_MAXSIZE)[0].steps)
