"""Wire-level chaos: the seeded TCP proxy and the acceptance sweep.

The proxy's faults are real socket behavior — dropped accepts,
half-frames, injected garbage, slow-loris trickle — perpetrated
between a production client and a production daemon, so both ends'
error paths (reconnect, resync, retry, hostile-input rejection) run
for real.  The invariant under every fault is the same one the solver
runtime promises under injected worker faults: a definite verdict may
be delayed or demoted to UNKNOWN, never flipped.
"""

from __future__ import annotations

import time

import pytest

from repro.server import ServerConfig
from repro.server.chaos import (
    CHAOS_KINDS,
    ChaosPlan,
    ChaosProxy,
    EmbeddedServer,
    run_chaos_sweep,
    sweep_instances,
)
from repro.server.client import ServerClient

SIGMA = ["() => K", "K :: () => a.a.a", "K :: a.a.a => ()", "a :: a => a"]
PHI = "K :: a => ()"


class TestChaosPlan:
    def test_targeted_clauses_parse(self):
        plan = ChaosPlan.from_spec("drop:0,partial:2,delay:1:0.5")
        assert plan.action_for(0).kind == "drop"
        assert plan.action_for(1).kind == "delay"
        assert plan.action_for(1).param == 0.5
        assert plan.action_for(2).kind == "partial"
        assert not plan.action_for(3).fires

    def test_rate_plan_is_deterministic_and_calibrated(self):
        plan = ChaosPlan.from_spec("rate:0.3:42")
        draws = [plan.action_for(i) for i in range(400)]
        again = [plan.action_for(i) for i in range(400)]
        assert draws == again
        fired = [a for a in draws if a.fires]
        assert 0.2 < len(fired) / 400 < 0.4
        assert {a.kind for a in fired} <= set(CHAOS_KINDS)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan.from_spec("explode:0")
        with pytest.raises(ValueError):
            ChaosPlan.from_spec("rate:1.5")
        with pytest.raises(ValueError):
            ChaosPlan.from_spec("drop")

    def test_sweep_instances_are_distinct(self):
        pool = sweep_instances()
        assert len({(tuple(s), p) for s, p in pool}) == len(pool)


def _proxied_client(proxy: ChaosProxy, **kwargs) -> ServerClient:
    kwargs.setdefault("timeout", 15.0)
    kwargs.setdefault("retries", 4)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("backoff_cap", 0.1)
    kwargs.setdefault("jitter_seed", 0)
    assert proxy.port is not None
    return ServerClient("127.0.0.1", proxy.port, **kwargs)


class TestChaosProxy:
    def test_transparent_pass_through(self):
        with EmbeddedServer(ServerConfig(solver_threads=1)) as embedded:
            with ChaosProxy(
                "127.0.0.1", embedded.port, ChaosPlan.from_spec("")
            ) as proxy:
                with _proxied_client(proxy) as client:
                    response = client.imply(SIGMA, PHI, jobs=1)
        assert response["status"] == "ok"
        assert response["answer"] == "false"
        assert proxy.counters["connections"] == 1
        assert all(proxy.counters[kind] == 0 for kind in CHAOS_KINDS)

    @pytest.mark.parametrize(
        "spec",
        ["drop:0", "close:0", "partial:0", "garbage:0", "delay:0:0.2"],
    )
    def test_each_fault_kind_survives_via_retry(self, spec):
        kind = spec.split(":")[0]
        with EmbeddedServer(ServerConfig(solver_threads=1)) as embedded:
            with ChaosProxy(
                "127.0.0.1", embedded.port, ChaosPlan.from_spec(spec)
            ) as proxy:
                with _proxied_client(proxy) as client:
                    response = client.imply(SIGMA, PHI, jobs=1)
                assert proxy.counters[kind] == 1
        # The one planned fault costs at most a retry; the verdict is
        # the clean one, never a flip and never garbage parsed as an
        # answer.
        assert response["status"] == "ok"
        assert response["answer"] == "false"

    def test_slow_loris_delay_is_survived_in_band(self):
        # delay trickles the request; a patient server answers on the
        # same connection, no retry needed.
        with EmbeddedServer(ServerConfig(solver_threads=1)) as embedded:
            with ChaosProxy(
                "127.0.0.1", embedded.port, ChaosPlan.from_spec("delay:0:0.3")
            ) as proxy:
                with _proxied_client(proxy) as client:
                    start = time.monotonic()
                    response = client.imply(SIGMA, PHI, jobs=1)
                    elapsed = time.monotonic() - start
        assert response["status"] == "ok"
        assert elapsed >= 0.25
        assert proxy.counters["connections"] == 1


class TestChaosSweep:
    def test_small_sweep_passes_every_gate(self):
        report = run_chaos_sweep(
            seed=3, requests=12, fault_rate=0.4, watchdog_grace_ms=300
        )
        assert report["failures"] == []
        assert report["pass"] is True
        assert report["wire"]["flips"] == 0
        assert report["wire"]["availability"] >= 0.99
        assert report["wire"]["drain_state"] == "stopped"
        assert report["reclaim"]["wedged_answer"] == "unknown"
        assert "hung_solve" in report["reclaim"]["fault_events"]
        assert report["reclaim"]["reclaim_ms"] < 2 * 300
        assert report["reclaim"]["drain_state"] == "stopped"
        assert report["failover"]["after_status"] == "ok"
        assert report["failover"]["drain_state"] == "stopped"

    def test_sweep_is_seed_deterministic_in_shape(self):
        # The fault plan and instance sequence are pure functions of
        # the seed; wall-clock metrics vary, outcomes must not.
        first = run_chaos_sweep(
            seed=7, requests=10, fault_rate=0.3, watchdog_grace_ms=300
        )
        second = run_chaos_sweep(
            seed=7, requests=10, fault_rate=0.3, watchdog_grace_ms=300
        )
        keys = ("ok_match", "demoted", "flips", "unavailable")
        assert {k: first["wire"][k] for k in keys} == {
            k: second["wire"][k] for k in keys
        }
