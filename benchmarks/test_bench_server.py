"""Server daemon benchmark: latency under load.

**Closed-loop load** — N concurrent clients (N in 1, 4, 8) each issue
a burst of imply requests over real sockets against one daemon.  We
record p50/p99 latency and aggregate throughput per concurrency level;
the p99 at the highest concurrency is gated (a generous bound — the
point is catching a 10x dispatch regression, not micro-benchmarking
the event loop).

Everything lands in ``BENCH_server.json`` for ``scripts/bench.sh``
to re-gate.
"""

from __future__ import annotations

import threading
import time

import pytest

from _report import print_table, write_bench_json
from repro.server import ServerClient, ServerConfig
from repro.server.chaos import EmbeddedServer, percentile

pytestmark = pytest.mark.bench

# Cheap decidable P_w chain: the load workload measures dispatch and
# transport, so the solve itself should be microseconds.
WORD_SIGMA = ["a => b", "b => c"]
WORD_PHI = "a => c"

CONCURRENCIES = (1, 4, 8)
REQUESTS_PER_CLIENT = 25
P99_BOUND_MS = 500.0

_BENCH: dict = {}


def test_closed_loop_latency_and_throughput():
    levels = []
    config = ServerConfig(solver_threads=4, max_queue=256)
    with EmbeddedServer(config) as harness:
        for clients in CONCURRENCIES:
            latencies: list[float] = []
            lock = threading.Lock()
            errors: list[BaseException] = []

            def burst():
                try:
                    with ServerClient("127.0.0.1", harness.port) as client:
                        mine = []
                        for _ in range(REQUESTS_PER_CLIENT):
                            start = time.perf_counter()
                            response = client.imply(WORD_SIGMA, WORD_PHI)
                            mine.append(
                                (time.perf_counter() - start) * 1e3
                            )
                            assert response["answer"] == "true"
                    with lock:
                        latencies.extend(mine)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=burst) for _ in range(clients)
            ]
            wall_start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            wall = time.perf_counter() - wall_start
            assert not errors, errors
            total = clients * REQUESTS_PER_CLIENT
            assert len(latencies) == total
            levels.append(
                {
                    "clients": clients,
                    "requests": total,
                    "p50_ms": round(percentile(latencies, 0.50), 3),
                    "p99_ms": round(percentile(latencies, 0.99), 3),
                    "throughput_rps": round(total / wall, 1),
                }
            )

    _BENCH["load"] = {"levels": levels, "p99_bound_ms": P99_BOUND_MS}
    print_table(
        "server: closed-loop load (imply over sockets)",
        ["clients", "requests", "p50 ms", "p99 ms", "req/s"],
        [
            [
                lv["clients"],
                lv["requests"],
                lv["p50_ms"],
                lv["p99_ms"],
                lv["throughput_rps"],
            ]
            for lv in levels
        ],
    )
    worst_p99 = max(lv["p99_ms"] for lv in levels)
    assert worst_p99 < P99_BOUND_MS, (
        f"p99 {worst_p99:.1f}ms above the {P99_BOUND_MS:.0f}ms bound"
    )


def test_zz_write_report():
    """Runs last (name-ordered): persist everything the suite measured."""
    assert _BENCH, "benchmarks did not run"
    write_bench_json("server", _BENCH)
