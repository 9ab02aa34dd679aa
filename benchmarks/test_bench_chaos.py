"""Wire-chaos benchmarks: availability, answer integrity, reclaim.

The service-layer counterpart of the solver's forfeit sweep
(``tests/test_fault_tolerance.py``): a 3-seed
:func:`repro.server.chaos.run_chaos_sweep` at a 30% connection fault
rate, gated on the chaos-hardening acceptance criteria:

* **availability** — with the failover client retrying through the
  fault-perpetrating proxy, at least 99% of requests must still
  receive an honest answer;
* **zero flips** — wire faults may cost retries or demote an answer
  to UNKNOWN, but a TRUE<->FALSE flip is an answer-integrity
  violation and fails the run outright;
* **bounded reclaim** — a wedged (non-cooperating) solve must be
  abandoned, answered UNKNOWN with a ``hung_solve`` fault, and its
  solver thread's capacity restored, all within twice the watchdog
  grace;
* **clean drain** — every daemon the sweep starts must end in
  ``stopped``; chaos never leaves a wedged server behind.

p99 latency under chaos is recorded per seed (not gated — it is
dominated by the deterministic retry backoff, so the interesting
signal is the trend across commits, which ``BENCH_chaos.json``
preserves for ``scripts/bench.sh`` to re-gate).
"""

from __future__ import annotations

import pytest

from _report import print_table, write_bench_json
from repro.server.chaos import run_chaos_sweep

pytestmark = pytest.mark.bench

SEEDS = (0, 1, 2)
REQUESTS = 40
FAULT_RATE = 0.3
GRACE_MS = 500

_BENCH: dict = {}


def test_chaos_sweep_three_seeds():
    runs = []
    for seed in SEEDS:
        report = run_chaos_sweep(
            seed=seed,
            requests=REQUESTS,
            fault_rate=FAULT_RATE,
            watchdog_grace_ms=GRACE_MS,
        )
        runs.append(report)

    rows = []
    for report in runs:
        wire = report["wire"]
        rows.append(
            [
                report["seed"],
                f"{wire['availability']:.2%}",
                wire["flips"],
                wire["demoted"],
                wire["unavailable"],
                f"{wire['p99_ms']:.1f}",
                f"{report['reclaim']['reclaim_ms']:.0f}",
                report["failover"]["after_status"],
            ]
        )
    print_table(
        f"server: wire chaos ({REQUESTS} requests/seed, "
        f"fault rate {FAULT_RATE})",
        [
            "seed",
            "availability",
            "flips",
            "demoted",
            "unavailable",
            "p99 ms",
            "reclaim ms",
            "failover",
        ],
        rows,
    )

    _BENCH["chaos"] = {
        "seeds": list(SEEDS),
        "requests_per_seed": REQUESTS,
        "fault_rate": FAULT_RATE,
        "watchdog_grace_ms": GRACE_MS,
        "reclaim_bound_ms": 2 * GRACE_MS,
        "availability_floor": 0.99,
        "runs": [
            {
                "seed": report["seed"],
                "availability": report["wire"]["availability"],
                "flips": report["wire"]["flips"],
                "demoted": report["wire"]["demoted"],
                "unavailable": report["wire"]["unavailable"],
                "p99_ms": report["wire"]["p99_ms"],
                "reclaim_ms": report["reclaim"]["reclaim_ms"],
                "threads_retired": report["reclaim"]["threads_retired"],
                "failover_recovered": report["failover"]["after_status"]
                == "ok",
                "drains": [
                    report["wire"]["drain_state"],
                    report["reclaim"]["drain_state"],
                    report["failover"]["drain_state"],
                ],
                "failures": report["failures"],
                "pass": report["pass"],
            }
            for report in runs
        ],
    }

    for report in runs:
        seed = report["seed"]
        assert report["wire"]["flips"] == 0, (
            f"seed {seed}: {report['wire']['flips']} verdict flip(s) "
            "under wire chaos"
        )
        assert report["wire"]["availability"] >= 0.99, (
            f"seed {seed}: availability "
            f"{report['wire']['availability']:.3f} below 0.99"
        )
        assert report["reclaim"]["reclaim_ms"] < 2 * GRACE_MS, (
            f"seed {seed}: reclaim took "
            f"{report['reclaim']['reclaim_ms']:.0f} ms, bound "
            f"{2 * GRACE_MS} ms"
        )
        assert report["pass"], f"seed {seed}: {report['failures']}"


def test_zz_write_report():
    """Runs last (name-ordered): persist everything the suite measured."""
    assert _BENCH, "benchmarks did not run"
    write_bench_json("chaos", _BENCH)
