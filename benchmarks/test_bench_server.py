"""Server daemon benchmarks: latency under load, fault safety.

Two workloads:

* **closed-loop load** — N concurrent clients (N in 1, 4, 8) each
  issue a burst of imply requests over real sockets against one
  daemon.  We record p50/p99 latency and aggregate throughput per
  concurrency level; the p99 at the highest concurrency is gated (a
  generous bound — the point is catching a 10x dispatch regression,
  not micro-benchmarking the event loop).
* **fault-injection no-flip** — the same instance mix is answered by
  a clean daemon (ground truth) and then by a daemon running with
  ``rate:0.3`` injection for 100 requests.  Faults may demote a
  definite answer to UNKNOWN, but a TRUE↔FALSE flip is an answer
  integrity violation and fails the run.

Everything lands in ``BENCH_server.json`` for ``scripts/bench.sh``
to re-gate.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from _report import print_table, write_bench_json
from repro.reasoning import SolveOptions
from repro.reasoning.faultinject import FaultPlan
from repro.reasoning.runtime import retire_warm_pool
from repro.server import ImplicationServer, ServerClient, ServerConfig
from repro.server.chaos import percentile

pytestmark = pytest.mark.bench

# Cheap decidable P_w chain: the load workload measures dispatch and
# transport, so the solve itself should be microseconds.
WORD_SIGMA = ["a => b", "b => c"]
WORD_PHI = "a => c"

# Divergent-chase FALSE instance (undecidable cell, counter-model in
# ~1ms).
BASE_SIGMA = ["() => K", "K :: () => a.a.a", "K :: a.a.a => ()", "a :: a => a"]
BASE_PHI = "K :: a => ()"

# Instance mix for the no-flip workload: one TRUE, one FALSE, one
# guarded FALSE — every definite clean answer is a flip candidate.
FLIP_INSTANCES = [
    (WORD_SIGMA, WORD_PHI),
    (BASE_SIGMA, BASE_PHI),
    (["K :: a => b"], "K :: b => a"),
]

CONCURRENCIES = (1, 4, 8)
REQUESTS_PER_CLIENT = 25
INJECT_REQUESTS = 100
P99_BOUND_MS = 500.0

_BENCH: dict = {}


class _Harness:
    """An :class:`ImplicationServer` on a background-thread loop."""

    def __init__(self, **config_kwargs) -> None:
        config_kwargs.setdefault("port", 0)
        self.server = ImplicationServer(ServerConfig(**config_kwargs))
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "_Harness":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(timeout=10), "server failed to start"
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.client(retries=0).shutdown()
        except Exception:
            pass
        assert self._thread is not None
        self._thread.join(timeout=30)

    def _run(self) -> None:
        async def main() -> None:
            await self.server.start()
            self._ready.set()
            await self.server.wait_drained()
            await self.server.stop()

        asyncio.run(main())

    def client(self, **kwargs) -> ServerClient:
        assert self.server.port is not None
        return ServerClient("127.0.0.1", self.server.port, **kwargs)


@pytest.fixture(autouse=True)
def _cold_pool():
    retire_warm_pool()
    yield
    retire_warm_pool()


def test_closed_loop_latency_and_throughput():
    levels = []
    with _Harness(solver_threads=4, max_queue=256) as harness:
        for clients in CONCURRENCIES:
            latencies: list[float] = []
            lock = threading.Lock()
            errors: list[BaseException] = []

            def burst():
                try:
                    with harness.client() as client:
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


def test_fault_injection_never_flips():
    # Ground truth from a clean daemon.
    clean: list[str] = []
    with _Harness() as harness:
        with harness.client() as client:
            for sigma, phi in FLIP_INSTANCES:
                clean.append(client.imply(sigma, phi)["answer"])
    assert set(clean) <= {"true", "false"}, (
        f"ground truth must be definite, got {clean}"
    )

    flips = 0
    demotions = 0
    faulted_runs = 0
    # The rate plan is deterministic per task ordinal, and a serial
    # portfolio solve on these small instances finishes at ordinal 0 —
    # so the seed must be one whose draw fires at ordinal 0 (seed 7
    # does; seeds 0-2 would deterministically never inject here).
    with _Harness(
        solve=SolveOptions(inject=FaultPlan.from_spec("rate:0.3:7")),
        solver_threads=2,
    ) as harness:
        lock = threading.Lock()
        errors: list[BaseException] = []

        def worker(offset):
            nonlocal flips, demotions, faulted_runs
            try:
                with harness.client() as client:
                    for i in range(INJECT_REQUESTS // 4):
                        index = (offset + i) % len(FLIP_INSTANCES)
                        sigma, phi = FLIP_INSTANCES[index]
                        response = client.imply(sigma, phi, jobs=2)
                        answer = response["answer"]
                        with lock:
                            if response["faults"]["events"]:
                                faulted_runs += 1
                            if answer == "unknown":
                                demotions += 1
                            elif answer != clean[index]:
                                flips += 1
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors

    _BENCH["inject"] = {
        "requests": INJECT_REQUESTS,
        "rate": 0.3,
        "faulted_runs": faulted_runs,
        "demotions_to_unknown": demotions,
        "flips": flips,
    }
    print_table(
        "server: fault injection (rate:0.3, 100 requests)",
        ["metric", "value"],
        [
            ["requests", INJECT_REQUESTS],
            ["runs with observed faults", faulted_runs],
            ["demotions to UNKNOWN", demotions],
            ["TRUE<->FALSE flips", flips],
        ],
    )
    assert flips == 0, f"{flips} verdict flips under injection"
    assert faulted_runs > 0, "injection at rate 0.3 never fired"


def test_zz_write_report():
    """Runs last (name-ordered): persist everything the suite measured."""
    assert _BENCH, "benchmarks did not run"
    write_bench_json("server", _BENCH)
