"""The implication server daemon: protocol, admission, replay, drain.

The daemon composes every robustness layer of the library under
concurrent load, so these tests exercise exactly the guarantees the
layers promise individually:

* admission control sheds instead of buffering, and a client budget
  that dies in the queue yields an honest UNKNOWN/rejected — never a
  stale definite answer;
* concurrent alpha-renamed queries each get a certificate in their own
  alphabet, fresh or replayed from the shared cache (re-verified
  against the Definition 2.1 checker), and each request is
  canonicalized once, on a solver thread;
* graceful drain finishes admitted work, refuses new work with a
  drain status, and exits 0 (checked end-to-end over SIGTERM in a
  subprocess).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.checking import check_all
from repro.constraints import parse_constraints
from repro.errors import ProtocolError, ServerUnavailable
from repro.graph.builders import figure1_graph
from repro.graph.serialize import from_dict, to_dict
from repro.reasoning import SolveOptions
from repro.reasoning.cache import ImplicationCache
from repro.reasoning.faultinject import FaultPlan
from repro.server import (
    ImplicationServer,
    ServerClient,
    ServerConfig,
    parse_host_port,
)
from repro.server import protocol

# The divergent-chase instance of the fault-injection suites: FALSE on
# an undecidable cell, so the portfolio genuinely runs.
SIGMA = ["() => K", "K :: () => a.a.a", "K :: a.a.a => ()", "a :: a => a"]
PHI = "K :: a => ()"
# The same instance under the renaming a->b, K->L: alpha-equivalent,
# so the cache answers it from SIGMA/PHI's entry.
SIGMA_RENAMED = [
    "() => L",
    "L :: () => b.b.b",
    "L :: b.b.b => ()",
    "b :: b => b",
]
PHI_RENAMED = "L :: b => ()"

# A decidable P_w chain (complete PTIME word decider, TRUE).
WORD_SIGMA = ["a => b", "b => c"]
WORD_PHI = "a => c"


class ServerHarness:
    """Run an :class:`ImplicationServer` on a background-thread loop."""

    def __init__(self, **config_kwargs) -> None:
        self.server = ImplicationServer(ServerConfig(**config_kwargs))
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    def __enter__(self) -> "ServerHarness":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError(f"server failed to start: {self._error}")
        return self

    def __exit__(self, *exc_info) -> None:
        if self.server.state in ("serving", "draining"):
            try:
                self.client(retries=0).shutdown()
            except (ServerUnavailable, OSError):
                pass
        assert self._thread is not None
        self._thread.join(timeout=20)
        assert not self._thread.is_alive(), "server thread failed to stop"

    def _run(self) -> None:
        async def main() -> None:
            await self.server.start()
            self._ready.set()
            await self.server.wait_drained()
            await self.server.stop()

        try:
            asyncio.run(main())
        except BaseException as exc:  # pragma: no cover - surfaced above
            self._error = exc
            self._ready.set()

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def client(self, **kwargs) -> ServerClient:
        kwargs.setdefault("timeout", 30.0)
        return ServerClient("127.0.0.1", self.port, **kwargs)


def _verify_countermodel(cm_dict, sigma_lines, phi_line):
    """A wire counter-model must satisfy Sigma and violate phi in the
    *requester's* alphabet — re-verifiable like any fresh refutation."""
    graph = from_dict(cm_dict)
    sigma = parse_constraints("\n".join(sigma_lines))
    phi = parse_constraints(phi_line)[0]
    assert check_all(graph, sigma).ok
    assert not check_all(graph, [phi]).ok


class TestProtocol:
    def test_request_roundtrip(self):
        frame = protocol.encode(
            {"v": 1, "op": "health", "id": "x"}
        )
        assert frame.endswith(b"\n")
        parsed = protocol.parse_request(frame)
        assert parsed["op"] == "health"

    def test_rejects_wrong_version(self):
        with pytest.raises(ProtocolError, match="protocol version"):
            protocol.parse_request(b'{"v": 99, "op": "health"}')
        with pytest.raises(ProtocolError, match="protocol version"):
            protocol.parse_request(b'{"op": "health"}')

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown operation"):
            protocol.parse_request(b'{"v": 1, "op": "solve"}')

    def test_rejects_non_json_and_non_object(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            protocol.parse_request(b"imply please\n")
        with pytest.raises(ProtocolError, match="not a JSON object"):
            protocol.parse_request(b"[1, 2]\n")

    def test_rejects_oversized_frame(self):
        big = b'{"v": 1, "op": "health", "pad": "' + b"x" * (
            protocol.MAX_LINE_BYTES
        ) + b'"}'
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.parse_request(big)

    def test_response_validation(self):
        ok = protocol.encode(protocol.ok_response("id1", answer="true"))
        assert protocol.parse_response(ok)["status"] == "ok"
        with pytest.raises(ProtocolError, match="status"):
            protocol.parse_response(b'{"v": 1, "status": "maybe"}')

    def test_parse_host_port(self):
        assert parse_host_port("localhost:8747") == ("localhost", 8747)
        for bad in ("localhost", ":80", "host:notaport", "host:0"):
            with pytest.raises(ValueError):
                parse_host_port(bad)


class TestImplyOverTheWire:
    def test_decidable_word_instance(self):
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                response = client.imply(WORD_SIGMA, WORD_PHI)
        assert response["status"] == "ok"
        assert response["answer"] == "true"
        assert response["fragment"] == "P_w"
        assert response["decidable"] is True
        assert response["faults"]["events"] == []

    def test_undecidable_cell_with_countermodel(self):
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                response = client.imply(SIGMA, PHI)
        assert response["status"] == "ok"
        assert response["answer"] == "false"
        assert response["decidable"] is False
        _verify_countermodel(response["countermodel"], SIGMA, PHI)

    def test_bad_request_is_an_error_not_a_crash(self):
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                bad = client.imply(["this is not a constraint"], PHI)
                assert bad["status"] == "error"
                assert "bad imply request" in bad["error"]
                # The connection and server both survive.
                good = client.imply(WORD_SIGMA, WORD_PHI)
                assert good["status"] == "ok"

    def test_malformed_frames_survive_the_connection(self):
        with ServerHarness(port=0) as harness:
            with socket.create_connection(
                ("127.0.0.1", harness.port), timeout=10
            ) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"not json at all\n")
                first = json.loads(reader.readline())
                assert first["status"] == "error"
                sock.sendall(b'{"v": 1, "op": "nope"}\n')
                second = json.loads(reader.readline())
                assert second["status"] == "error"
                sock.sendall(
                    protocol.encode({"v": 1, "op": "health", "id": 7})
                )
                third = json.loads(reader.readline())
                assert third["status"] == "ok" and third["id"] == 7

    def test_check_op(self):
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                response = client.check(
                    to_dict(figure1_graph()),
                    ["book.author => person"],
                )
        assert response["status"] == "ok"
        assert response["ok"] is True
        assert response["checked"] == 1

    def test_cache_shared_across_connections(self, tmp_path):
        cache = ImplicationCache(cache_dir=tmp_path / "cache")
        with ServerHarness(port=0, cache=cache) as harness:
            with harness.client() as first:
                stored = first.imply(SIGMA, PHI)
            with harness.client() as second:
                hit = second.imply(SIGMA, PHI)
            with harness.client() as renamed:
                alpha = renamed.imply(SIGMA_RENAMED, PHI_RENAMED)
        assert stored["cache"]["status"] == "store"
        assert hit["cache"]["status"] == "hit"
        # An alpha-renamed repeat is a hit too, and its replayed
        # certificate re-verifies in the renamed alphabet.
        assert alpha["cache"]["status"] == "hit"
        _verify_countermodel(
            alpha["countermodel"], SIGMA_RENAMED, PHI_RENAMED
        )

    def test_faults_travel_over_the_wire(self):
        with ServerHarness(
            port=0,
            solve=SolveOptions(inject=FaultPlan.from_spec("raise:0,raise:1")),
        ) as harness:
            with harness.client() as client:
                response = client.imply(SIGMA, PHI, jobs=2)
        assert response["status"] == "ok"
        # Faults may demote to UNKNOWN but never flip: the clean
        # answer is FALSE, so TRUE is the one forbidden outcome.
        assert response["answer"] in ("false", "unknown")
        kinds = {e["kind"] for e in response["faults"]["events"]}
        assert "injected" in kinds


class TestConcurrentRenamedRequests:
    def _concurrent_imply(self, harness, specs):
        """Fire imply requests concurrently; returns responses in
        ``specs`` order.  Each spec is (sigma, phi, extra_kwargs)."""
        responses: dict[int, dict] = {}
        errors: list[BaseException] = []

        def ask(index, sigma, phi, kwargs):
            try:
                with harness.client() as client:
                    responses[index] = client.imply(sigma, phi, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=ask, args=(i, s, p, k))
            for i, (s, p, k) in enumerate(specs)
        ]
        threads[0].start()
        time.sleep(0.15)  # let the first request enter the solver
        for thread in threads[1:]:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        return [responses[i] for i in range(len(specs))]

    def test_alpha_renamed_requests_each_verify(self, tmp_path):
        # One solver thread runs the three in turn: the first solve
        # stores, and the cache replays the others, renaming the
        # stored counter-model into each requester's alphabet.
        cache = ImplicationCache(cache_dir=tmp_path / "cache")
        with ServerHarness(
            port=0, solver_threads=1, allow_delay=True, cache=cache
        ) as harness:
            specs = [
                (SIGMA, PHI, {"delay_ms": 400}),
                (SIGMA, PHI, {}),
                (SIGMA_RENAMED, PHI_RENAMED, {}),
            ]
            responses = self._concurrent_imply(harness, specs)
        assert [r["answer"] for r in responses] == ["false"] * 3
        assert sorted(r["cache"]["status"] for r in responses) == [
            "hit", "hit", "store",
        ]
        _verify_countermodel(responses[0]["countermodel"], SIGMA, PHI)
        _verify_countermodel(responses[1]["countermodel"], SIGMA, PHI)
        _verify_countermodel(
            responses[2]["countermodel"], SIGMA_RENAMED, PHI_RENAMED
        )

    def test_cached_imply_canonicalizes_once_off_the_loop(
        self, tmp_path, monkeypatch
    ):
        from repro.reasoning import canonical

        original = canonical.canonicalize_problem
        callers: list[threading.Thread] = []

        def spy(problem):
            callers.append(threading.current_thread())
            return original(problem)

        # Every module that imported the function by name calls it
        # through its own binding, so replace each one.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                vars(module).get("canonicalize_problem") is original
            ):
                monkeypatch.setattr(module, "canonicalize_problem", spy)
        cache = ImplicationCache(cache_dir=tmp_path / "cache")
        with ServerHarness(port=0, cache=cache) as harness:
            loop_thread = harness._thread
            with harness.client() as client:
                for sigma, phi, status in (
                    (SIGMA, PHI, "store"),
                    (SIGMA_RENAMED, PHI_RENAMED, "hit"),
                ):
                    callers.clear()
                    response = client.imply(sigma, phi)
                    assert response["cache"]["status"] == status
                    assert len(callers) == 1, callers
                    assert callers[0] is not loop_thread

    def test_imply_classifies_once(self, tmp_path, monkeypatch):
        # The wire payload's fragment comes from the class solve()
        # already computed, for a fresh solve and a cache replay alike.
        from repro.reasoning import dispatcher

        original = dispatcher.classify
        calls: list = []

        def spy(sigma, phi):
            calls.append(phi)
            return original(sigma, phi)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                vars(module).get("classify") is original
            ):
                monkeypatch.setattr(module, "classify", spy)
        cache = ImplicationCache(cache_dir=tmp_path / "cache")
        with ServerHarness(port=0, cache=cache) as harness:
            with harness.client() as client:
                for sigma, phi, status in (
                    (WORD_SIGMA, WORD_PHI, "store"),
                    (["x => y", "y => z"], "x => z", "hit"),
                ):
                    calls.clear()
                    response = client.imply(sigma, phi)
                    assert response["cache"]["status"] == status
                    assert response["fragment"] == "P_w"
                    assert len(calls) == 1, calls


class TestAdmissionControl:
    def test_queue_full_sheds_with_retry_hint(self):
        with ServerHarness(
            port=0, solver_threads=1, max_queue=1, allow_delay=True
        ) as harness:
            statuses: list[str] = []
            lock = threading.Lock()

            def ask(delay):
                try:
                    with harness.client(retries=0) as client:
                        response = client.imply(SIGMA, PHI, delay_ms=delay)
                    status = response["status"]
                except ServerUnavailable as exc:
                    assert exc.retry_after_ms is None or (
                        exc.retry_after_ms >= 1
                    )
                    status = "overloaded"
                with lock:
                    statuses.append(status)

            slow = threading.Thread(target=ask, args=(500,))
            slow.start()
            time.sleep(0.15)
            rest = [
                threading.Thread(target=ask, args=(0,)) for _ in range(4)
            ]
            for thread in rest:
                thread.start()
            for thread in [slow, *rest]:
                thread.join(timeout=30)
        # 1 in-flight + 1 queued get through; the rest are shed.
        assert statuses.count("ok") == 2
        assert statuses.count("overloaded") == 3

    def test_client_retry_eventually_admits(self):
        with ServerHarness(
            port=0, solver_threads=1, max_queue=1, allow_delay=True
        ) as harness:
            blocker = threading.Thread(
                target=lambda: harness.client().imply(
                    SIGMA, PHI, delay_ms=400
                )
            )
            filler = threading.Thread(
                target=lambda: harness.client().imply(
                    SIGMA, PHI, delay_ms=200
                )
            )
            blocker.start()
            time.sleep(0.1)
            filler.start()
            time.sleep(0.05)
            # Queue is now full; a retrying client must get through
            # once the blocker finishes.
            with harness.client(
                retries=8, backoff_base=0.1, jitter_seed=7
            ) as client:
                response = client.imply(SIGMA, PHI)
            blocker.join(timeout=30)
            filler.join(timeout=30)
        assert response["status"] == "ok"

    def test_deadline_exceeded_while_queued_rejects(self):
        """Satellite: a request admitted with a 50ms budget that waits
        ~300ms in the queue must come back UNKNOWN/rejected — never a
        stale definite answer."""
        with ServerHarness(
            port=0, solver_threads=1, allow_delay=True
        ) as harness:
            blocker = threading.Thread(
                target=lambda: harness.client().imply(
                    SIGMA, PHI, delay_ms=300
                )
            )
            blocker.start()
            time.sleep(0.1)
            with harness.client() as client:
                response = client.imply(
                    SIGMA_RENAMED,
                    PHI_RENAMED,
                    budget_ms=50,
                )
            blocker.join(timeout=30)
            with harness.client() as client:
                stats = client.stats()
        assert response["status"] == "rejected"
        assert response["answer"] == "unknown"
        assert "while queued" in response["reason"]
        assert "countermodel" not in response
        assert stats["counters"]["rejected_deadline"] == 1

    def test_budget_propagates_to_solver(self):
        # The injected delay eats the whole budget before the solve
        # starts, so the honest outcome is rejected/UNKNOWN — the
        # server must never spend a dead budget on a definite answer.
        with ServerHarness(port=0, allow_delay=True) as harness:
            with harness.client() as client:
                response = client.imply(
                    SIGMA,
                    PHI,
                    budget_ms=50,
                    delay_ms=300,
                )
        assert response["status"] == "rejected"
        assert response["answer"] == "unknown"
        assert "before the solve started" in response["reason"]

    def test_check_gets_the_default_budget(self):
        # A check without budget_ms gets the daemon's default budget,
        # like an imply, so it expires in the queue behind a slow solve.
        with ServerHarness(
            port=0,
            solver_threads=1,
            allow_delay=True,
            default_budget_ms=100,
        ) as harness:

            def block():
                with harness.client() as client:
                    client.imply(SIGMA, PHI, budget_ms=30_000, delay_ms=400)

            blocker = threading.Thread(target=block)
            blocker.start()
            time.sleep(0.1)
            with harness.client() as client:
                response = client.check(
                    to_dict(figure1_graph()), ["book.author => person"]
                )
            blocker.join(timeout=30)
            assert not blocker.is_alive()
        assert response["status"] == "rejected"
        assert response["answer"] == "unknown"
        assert "while queued" in response["reason"]

    def test_generous_budget_still_solves(self):
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                response = client.imply(SIGMA, PHI, budget_ms=30_000)
        assert response["status"] == "ok"
        assert response["answer"] == "false"


class TestServerConfig:
    @pytest.mark.parametrize(
        "field,least",
        [
            ("solver_threads", 1),
            ("max_queue", 1),
            ("watchdog_grace_ms", 0),
            ("default_budget_ms", 0),
        ],
    )
    def test_rejects_values_that_break_the_daemon(self, field, least):
        ServerConfig(**{field: least})
        with pytest.raises(ValueError, match=field):
            ServerConfig(**{field: least - 1})


class TestHealthStatsDrain:
    def test_health_and_stats(self):
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                health = client.health()
                client.imply(WORD_SIGMA, WORD_PHI)
                stats = client.stats()
        assert health["status"] == "ok"
        assert health["state"] == "serving"
        assert health["uptime_ms"] >= 0
        assert stats["counters"]["imply"] == 1
        assert stats["counters"]["solved"] == 1
        assert stats["queue"]["max"] == 64
        assert stats["ewma_solve_ms"] is not None

    def test_shutdown_drains_and_refuses_new_work(self):
        with ServerHarness(
            port=0, solver_threads=1, allow_delay=True
        ) as harness:
            inflight_response: dict = {}

            def slow():
                with harness.client() as client:
                    inflight_response.update(
                        client.imply(SIGMA, PHI, delay_ms=500)
                    )

            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.15)
            with harness.client() as client:
                ack = client.shutdown()
                assert ack["state"] == "draining"
                refused = client.imply(WORD_SIGMA, WORD_PHI)
                health = client.health()
            thread.join(timeout=30)
        # The in-flight solve completed and was answered.
        assert inflight_response["status"] == "ok"
        assert inflight_response["answer"] == "false"
        # New work was refused while health stayed answerable.
        assert refused["status"] == "draining"
        assert health["status"] == "ok"
        assert health["state"] == "draining"


class TestClientRobustness:
    def test_connection_refused_raises_server_unavailable(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        client = ServerClient(
            "127.0.0.1", free_port, retries=1, backoff_base=0.01
        )
        with pytest.raises(ServerUnavailable, match="failed after 2"):
            client.health()

    def test_client_reconnects_after_server_restart(self):
        with ServerHarness(port=0) as harness:
            port = harness.port
            client = ServerClient(
                "127.0.0.1", port, retries=4, backoff_base=0.05
            )
            assert client.health()["status"] == "ok"
            client.shutdown()
        # Server gone: the same client object now fails honestly.
        with pytest.raises(ServerUnavailable):
            client.imply(WORD_SIGMA, WORD_PHI)
        client.close()


@pytest.mark.stress
class TestSigtermDrainSubprocess:
    def test_sigterm_mid_flight_drains_cleanly(self, tmp_path):
        """SIGTERM during an in-flight solve: the solve completes and
        is answered, new work gets the drain status, the process exits
        0 (the CLI exit-code contract for a clean drain)."""
        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--port-file",
                str(port_file),
                "--solver-threads",
                "1",
                "--allow-delay",
                "--no-cache",
            ],
            env={
                **os.environ,
                "PYTHONPATH": "src",
                "REPRO_CACHE_DIR": str(tmp_path / "cache"),
            },
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 15
            while not port_file.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            port = int(port_file.read_text())

            inflight: dict = {}

            def slow():
                with ServerClient("127.0.0.1", port, timeout=30) as c:
                    inflight.update(c.imply(SIGMA, PHI, delay_ms=800))

            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.1)
            # While draining, new work is refused but answered.
            with ServerClient("127.0.0.1", port, timeout=30) as c:
                refused = c.imply(WORD_SIGMA, WORD_PHI)
            thread.join(timeout=30)
            returncode = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=10)
        assert inflight["status"] == "ok"
        assert inflight["answer"] == "false"
        assert refused["status"] == "draining"
        assert returncode == 0


class TestQueryOverTheWire:
    def test_contains_word_cell(self):
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                response = client.query_contains(
                    WORD_SIGMA, "a", "c"
                )
                assert response["status"] == "ok"
                assert response["verdict"] == "true"
                assert response["method"] == "word-prestar-product"
                assert response["decidable"] is True

                refuted = client.query_contains(WORD_SIGMA, "c", "a")
                assert refuted["verdict"] == "false"
                assert refuted["witness"] == "c"

    def test_optimize_word_union(self):
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                response = client.query_optimize(
                    WORD_SIGMA, ["a", "a", "b", "c"]
                )
                assert response["status"] == "ok"
                assert response["branches_saved"] >= 1
                assert len(response["pruned"]) == response[
                    "branches_saved"
                ]
                assert "c" in response["optimized"]

    def test_optimize_rpq_branches(self):
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                response = client.query_optimize(
                    ["book.ref => book"],
                    ["book.(ref)*.author", "book.author"],
                )
                assert response["status"] == "ok"
                assert response["optimized"] == ["book.(ref)*.author"]
                assert response["branches_saved"] == 1

    def test_optimize_routes_branches_like_the_cli(self):
        # One rule decides whether a branch is a regular pattern (the
        # containment checker's report carries "emptied") or a word
        # (the word optimizer's carries "rewrites"), so ``a+`` is
        # one-or-more here too and absorbs ``a``.
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                for branch in ("a+", "a?", "_", "(a)"):
                    response = client.query_optimize(["a => a"], [branch])
                    assert response["status"] == "ok", response
                    assert "emptied" in response, branch
                for branch in ("first_name", "a.b"):
                    response = client.query_optimize(["a => a"], [branch])
                    assert response["status"] == "ok", response
                    assert "rewrites" in response, branch
                probe = client.query_optimize(["a => a"], ["a+", "a"])
                assert probe["optimized"] == ["a+"]

    def test_query_solves_under_the_daemons_options(self, monkeypatch):
        # imply and query alike reach the portfolio with the daemon's
        # SolveOptions and, when budgeted, the request's deadline.
        import inspect

        from repro.reasoning import dispatcher

        original = dispatcher.run_portfolio
        calls: list = []

        def spy(*args, **kwargs):
            bound = inspect.signature(original).bind(*args, **kwargs)
            calls.append(bound.arguments)
            return original(*args, **kwargs)

        monkeypatch.setattr(dispatcher, "run_portfolio", spy)
        options = SolveOptions(inject=FaultPlan.from_spec("delay:0:0.01"))
        with ServerHarness(port=0, solve=options) as harness:
            with harness.client() as client:
                imply = client.imply(SIGMA, PHI, budget_ms=30_000)
                assert imply["status"] == "ok", imply
                assert len(calls) == 1
                query = client.query_contains(
                    SIGMA, "b", "c|d", budget_ms=30_000
                )
                assert query["status"] == "ok", query
        assert len(calls) == 3
        for arguments in calls:
            assert arguments["options"] is options
            assert arguments["budget"].deadline is not None

    def test_bad_action_is_error_not_disconnect(self):
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                response = client.request(
                    "query", action="teleport", sigma=[], left="a",
                    right="b",
                )
                assert response["status"] == "error"
                # The connection survives a bad request.
                assert client.health()["status"] == "ok"

    def test_counter_and_budget(self):
        with ServerHarness(port=0) as harness:
            with harness.client() as client:
                client.query_contains(WORD_SIGMA, "a", "c")
                client.query_optimize(WORD_SIGMA, ["a", "b"])
                stats = client.stats()
                assert stats["counters"]["query"] == 2
                # An over-tight budget degrades to unknown, not error.
                response = client.query_contains(
                    ["a => a.a", "b.b => ()"], "a.b", "c", budget_ms=1
                )
                assert response["status"] in ("ok", "rejected")
                if response["status"] == "ok":
                    assert response["verdict"] == "unknown"


# ---------------------------------------------------------------------------
# Hostile wire input, straight at the daemon (no proxy in between)
# ---------------------------------------------------------------------------


def _frame(**fields) -> bytes:
    fields.setdefault("v", protocol.PROTOCOL_VERSION)
    return json.dumps(fields).encode() + b"\n"


class TestHostileWire:
    def test_mid_frame_disconnect_does_not_wedge_the_daemon(self):
        with ServerHarness(port=0) as harness:
            payload = _frame(op="imply", sigma=SIGMA, phi=PHI, id=1)
            with socket.create_connection(
                ("127.0.0.1", harness.port), timeout=5
            ) as sock:
                sock.sendall(payload[: len(payload) // 2])
            # The half-frame connection is gone; a fresh client must
            # be served as if nothing happened.
            with harness.client() as client:
                assert client.health()["status"] == "ok"
                response = client.imply(SIGMA, PHI, jobs=1)
                assert response["answer"] == "false"

    def test_slow_loris_request_is_answered(self):
        with ServerHarness(port=0) as harness:
            payload = _frame(op="health", id=7)
            with socket.create_connection(
                ("127.0.0.1", harness.port), timeout=10
            ) as sock:
                for offset in range(0, len(payload), 3):
                    sock.sendall(payload[offset : offset + 3])
                    time.sleep(0.02)
                reply = sock.makefile("rb").readline()
            response = protocol.parse_response(reply)
            assert response["status"] == "ok" and response["id"] == 7

    def test_malformed_fields_answer_error_on_one_connection(self):
        imply = {"op": "imply", "sigma": WORD_SIGMA, "phi": WORD_PHI}
        query = {
            "op": "query", "action": "contains", "sigma": WORD_SIGMA,
            "left": "a", "right": "c",
        }
        check = {"op": "check", "graph": to_dict(figure1_graph())}
        bad = [
            {**imply, "budget_ms": "soon"},
            {**imply, "budget_ms": [1]},
            {**imply, "budget_ms": True},
            {**imply, "budget_ms": -5},
            {**imply, "budget_ms": float("nan")},
            {**imply, "budget_ms": float("inf")},
            {**imply, "budget_ms": 10**400},
            {**imply, "delay_ms": "soon"},
            {**imply, "delay_ms": [1]},
            {**query, "budget_ms": "soon"},
            {**check, "budget_ms": [1]},
        ]
        with ServerHarness(port=0) as harness:
            with socket.create_connection(
                ("127.0.0.1", harness.port), timeout=10
            ) as sock:
                reader = sock.makefile("rb")
                for number, fields in enumerate(bad):
                    sock.sendall(_frame(id=number, **fields))
                    response = protocol.parse_response(reader.readline())
                    assert response["status"] == "error", fields
                    assert response["id"] == number
                # An integer too long to parse is a malformed frame too.
                sock.sendall(
                    b'{"v": 1, "op": "health", "id": 1' + b"0" * 5000 + b"}\n"
                )
                response = protocol.parse_response(reader.readline())
                assert response["status"] == "error"
                sock.sendall(_frame(op="health", id=99))
                response = protocol.parse_response(reader.readline())
                assert response["status"] == "ok" and response["id"] == 99

    def test_garbage_then_valid_frame_on_one_connection(self):
        with ServerHarness(port=0) as harness:
            with socket.create_connection(
                ("127.0.0.1", harness.port), timeout=10
            ) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"\xff\xfe this is not a frame\n")
                error = protocol.parse_response(reader.readline())
                assert error["status"] == "error"
                # Keep-alive survives the hostile line: the next valid
                # frame on the same connection is answered normally.
                sock.sendall(_frame(op="health", id=9))
                response = protocol.parse_response(reader.readline())
                assert response["status"] == "ok" and response["id"] == 9
            stats_client = harness.client()
            with stats_client:
                stats = stats_client.stats()
            assert stats["counters"]["protocol_errors"] >= 1


# ---------------------------------------------------------------------------
# The hung-solve watchdog over the wire
# ---------------------------------------------------------------------------


class TestHungSolveWatchdog:
    def test_wedged_solves_answer_unknown_and_capacity_recovers(self):
        # The PR's acceptance scenario: wedge as many consecutive
        # solves as there are solver threads; each must come back an
        # honest UNKNOWN carrying a hung_solve fault event, and a
        # subsequent clean solve must be answered at full capacity.
        threads = 2
        with ServerHarness(
            port=0,
            solver_threads=threads,
            allow_delay=True,
            watchdog_grace_ms=200,
        ) as harness:
            with harness.client(retries=0) as client:
                for _ in range(threads):
                    wedged = client.imply(
                        SIGMA, PHI, jobs=1, budget_ms=100, wedge=True
                    )
                    assert wedged["status"] == "rejected"
                    assert wedged["answer"] == "unknown"
                    kinds = [
                        event["kind"]
                        for event in wedged["faults"]["events"]
                    ]
                    assert "hung_solve" in kinds
                fresh = client.imply(SIGMA, PHI, jobs=1)
                assert fresh["status"] == "ok"
                assert fresh["answer"] == "false"
                stats = client.stats()
                assert stats["counters"]["hung_solves"] == threads
                pool = stats["solver_pool"]
                assert pool["retired"] == threads
                assert pool["threads"] == threads

    def test_wedge_is_refused_without_allow_delay(self):
        # Without the testing instrument enabled, a wedge field is
        # inert: the solve runs normally.
        with ServerHarness(
            port=0, solver_threads=1, watchdog_grace_ms=200
        ) as harness:
            with harness.client(retries=0) as client:
                response = client.imply(SIGMA, PHI, jobs=1, wedge=True)
                assert response["status"] == "ok"
                assert response["answer"] == "false"

    def test_delay_stops_at_its_deadline(self):
        # A delayed (cooperative) solve stops at its own deadline, long
        # before deadline + grace: an honest rejection, not a hang, and
        # no thread needs to be retired for it.
        with ServerHarness(
            port=0,
            solver_threads=1,
            allow_delay=True,
            watchdog_grace_ms=5_000,
        ) as harness:
            with harness.client(retries=0) as client:
                start = time.monotonic()
                response = client.imply(
                    SIGMA, PHI, jobs=1, budget_ms=100, delay_ms=30_000
                )
                elapsed = time.monotonic() - start
                assert response["status"] == "rejected"
                assert response["answer"] == "unknown"
                assert response["reason"].endswith(
                    "before the solve started"
                ), response
                assert "faults" not in response
                assert elapsed < 2.5
                stats = client.stats()
                assert stats["counters"]["hung_solves"] == 0
                assert stats["solver_pool"]["retired"] == 0

    def test_watchdog_disabled_keeps_legacy_behavior(self):
        with ServerHarness(
            port=0, solver_threads=1, watchdog_grace_ms=0
        ) as harness:
            with harness.client(retries=0) as client:
                response = client.imply(
                    SIGMA, PHI, jobs=1, budget_ms=30_000
                )
                assert response["status"] == "ok"
                assert response["answer"] == "false"
                stats = client.stats()
                assert stats["solver_pool"]["retired"] == 0

    def test_decidable_traffic_creates_no_shared_memory(self):
        # A budgeted solve stops at its deadline, so a decidable imply
        # and a query on a daemon with the default watchdog leave no
        # entry in /dev/shm.
        def shm_entries():
            if not os.path.isdir("/dev/shm"):  # pragma: no cover
                return set()
            return set(os.listdir("/dev/shm"))

        before = shm_entries()
        with ServerHarness(port=0) as harness:
            with harness.client(retries=0) as client:
                imply = client.imply(WORD_SIGMA, WORD_PHI, budget_ms=30_000)
                assert imply["status"] == "ok", imply
                assert imply["answer"] == "true"
                query = client.query_contains(
                    WORD_SIGMA, "a", "c", budget_ms=30_000
                )
                assert query["status"] == "ok", query
                assert query["verdict"] == "true"
        assert shm_entries() - before == set()


# ---------------------------------------------------------------------------
# Client failover, frame cap, retry_after carry
# ---------------------------------------------------------------------------


class _ScriptedServer:
    """A hand-rolled one-thread server for client-side edge cases.

    ``script`` is a list of callables, one per accepted connection;
    each receives the connected socket and does whatever hostile or
    degenerate thing the test needs.
    """

    def __init__(self, script) -> None:
        self.script = list(script)
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.accepted = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "_ScriptedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5)

    def _serve(self) -> None:
        for act in self.script:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            try:
                act(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass


def _read_request(conn) -> dict:
    data = conn.makefile("rb").readline()
    return json.loads(data)


class TestClientFailoverAndFraming:
    def test_failover_to_second_endpoint_after_kill(self):
        with ServerHarness(port=0, solver_threads=1) as first, \
                ServerHarness(port=0, solver_threads=1) as second:
            client = ServerClient(
                endpoints=[
                    ("127.0.0.1", first.port),
                    ("127.0.0.1", second.port),
                ],
                retries=4,
                backoff_base=0.01,
                backoff_cap=0.1,
                jitter_seed=0,
                failure_threshold=1,
                cooldown_s=0.5,
            )
            with client:
                assert client.imply(WORD_SIGMA, WORD_PHI)["answer"] == "true"
                assert client.port == first.port
                first.client(retries=0).shutdown()
                deadline = time.monotonic() + 10
                while (
                    first.server.state != "stopped"
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                response = client.imply(WORD_SIGMA, WORD_PHI)
                assert response["status"] == "ok"
                assert response["answer"] == "true"
                assert client.port == second.port
                states = client.endpoint_states()
                assert states[0]["open"] is True
                assert states[1]["open"] is False

    def test_circuit_breaker_half_opens_after_cooldown(self):
        # Endpoint A is dead from the start; after the cool-down the
        # client probes it again (half-open) rather than never
        # returning — a revived A must be rediscovered.
        with ServerHarness(port=0, solver_threads=1) as alive:
            dead = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            dead.bind(("127.0.0.1", 0))
            dead_port = dead.getsockname()[1]
            dead.close()  # nothing listens here
            client = ServerClient(
                endpoints=[
                    ("127.0.0.1", dead_port),
                    ("127.0.0.1", alive.port),
                ],
                retries=3,
                backoff_base=0.01,
                backoff_cap=0.05,
                jitter_seed=1,
                failure_threshold=1,
                cooldown_s=0.05,
            )
            with client:
                assert client.health()["status"] == "ok"
                assert client.port == alive.port
                time.sleep(0.1)
                # Past the cool-down the breaker is half-open again.
                states = client.endpoint_states()
                assert states[0]["open"] is False

    def test_oversize_response_frame_is_protocol_error(self):
        def huge(conn):
            _read_request(conn)
            conn.sendall(b"x" * (protocol.MAX_LINE_BYTES + 64) + b"\n")

        with _ScriptedServer([huge]) as server:
            client = ServerClient(
                "127.0.0.1", server.port, retries=0, timeout=10
            )
            with client:
                with pytest.raises(ServerUnavailable) as excinfo:
                    client.health()
            assert "exceeds" in str(excinfo.value)

    def test_mismatched_response_id_is_desync_not_an_answer(self):
        def wrong_id(conn):
            request = _read_request(conn)
            frame = {
                "v": protocol.PROTOCOL_VERSION,
                "status": "ok",
                "id": request["id"] + 1000,
                "answer": "true",
            }
            conn.sendall(json.dumps(frame).encode() + b"\n")

        with _ScriptedServer([wrong_id]) as server:
            client = ServerClient(
                "127.0.0.1", server.port, retries=0, timeout=10
            )
            with client:
                with pytest.raises(ServerUnavailable) as excinfo:
                    client.health()
            assert "desynchronized" in str(excinfo.value)

    def test_retry_after_hint_survives_final_transport_failure(self):
        # Attempt 1 gets an overloaded response with a hint; attempt 2
        # dies on transport.  The final ServerUnavailable must still
        # carry the hint — it is the only pacing signal the caller
        # has.
        def overloaded(conn):
            request = _read_request(conn)
            frame = {
                "v": protocol.PROTOCOL_VERSION,
                "status": "overloaded",
                "id": request["id"],
                "retry_after_ms": 1234,
            }
            conn.sendall(json.dumps(frame).encode() + b"\n")

        def slam(conn):
            _read_request(conn)

        with _ScriptedServer([overloaded, slam]) as server:
            client = ServerClient(
                "127.0.0.1",
                server.port,
                retries=1,
                backoff_base=0.01,
                backoff_cap=0.02,
                jitter_seed=0,
                timeout=10,
            )
            with client:
                with pytest.raises(ServerUnavailable) as excinfo:
                    client.health()
            assert excinfo.value.retry_after_ms == 1234

    def test_parse_endpoints_grammar(self):
        from repro.server import parse_endpoints

        assert parse_endpoints("h:1") == [("h", 1)]
        assert parse_endpoints("h1:1, h2:2") == [("h1", 1), ("h2", 2)]
        with pytest.raises(ValueError):
            parse_endpoints("")
        with pytest.raises(ValueError):
            parse_endpoints("h1:1,nonsense")
