"""Deterministic wire-level chaos for the implication service.

:mod:`repro.reasoning.faultinject` exercises the *solver*'s fault
paths; this module does the same for the *service* layer — the
socket, the framing, the client's retry/failover loop, the daemon's
hostile-input handling — with the same discipline: every fault is
seeded and replayable, and the acceptance property is identical (a
fault may demote an answer to UNKNOWN or cost a retry, but may never
flip a definite verdict).

Three pieces:

* :class:`ChaosPlan` — the spec grammar and seeded draw of
  :class:`~repro.reasoning.faultinject.FaultPlan`, mapping *connection
  ordinals* (accept order) to wire faults: targeted clauses like
  ``drop:3`` or ``delay:2:0.5``, and rate clauses ``rate:0.3[:seed]``
  drawing a fault kind per ordinal from a seeded PRNG.
* :class:`ChaosProxy` — a threaded TCP proxy between a real client
  and a real daemon that perpetrates the planned fault on each
  connection.  Faults live on the wire, not in mocks, so both ends'
  production error paths run.
* :func:`run_chaos_sweep` — the ``repro chaos`` driver: a seeded
  request sweep through the proxy scored against a clean in-process
  oracle (availability, demotions, verdict flips, p99 latency), a
  watchdog-reclaim measurement (a wedged solve must be abandoned and
  its thread's capacity restored within bounded time), and a
  two-daemon failover exercise.  After every phase the daemon must
  drain cleanly — chaos must never leave a wedged server behind.

Fault kinds (per connection, by accept ordinal):

===========  ==========================================================
``drop``     accept, then close immediately — the client's connect
             succeeds but its first read dies
``close``    forward *half* of the client's first frame upstream, then
             close both sides — the daemon reads a mid-frame disconnect
``partial``  forward the request intact, then send the client only
             half of the first response chunk before closing — the
             client reads a truncated frame
``garbage``  inject a seeded non-protocol line ahead of the first real
             response — the client must reject it and resync by
             reconnecting, never parse it as an answer
``delay``    trickle the request bytes upstream a few at a time
             (slow-loris, ``param`` seconds total), then pump
             transparently — exercises read patience on both ends
===========  ==========================================================
"""

from __future__ import annotations

import random
import socket
import threading
import time

from repro.reasoning.faultinject import SEED_STRIDE, FaultAction, OrdinalPlan
from repro.server.daemon import ImplicationServer, ServerConfig

#: All wire fault kinds; rate plans draw from all of them (unlike
#: solver-side rate plans, none of these can wedge a sweep — every
#: kind resolves in bounded time).
CHAOS_KINDS = ("drop", "close", "partial", "garbage", "delay")


class ChaosPlan(OrdinalPlan):
    """A deterministic map from connection ordinal to wire fault.

    The :class:`~repro.reasoning.faultinject.FaultPlan` grammar and
    seeded draw over the wire kinds: comma-separated clauses, each
    ``KIND:ORDINAL[:PARAM]`` or ``rate:R[:SEED]``; a rate-drawn
    ``delay`` trickles for 0.1 s.
    """

    KINDS = {kind: (0, 1) for kind in CHAOS_KINDS}
    RATE_KINDS = CHAOS_KINDS
    RATE_DELAY = 0.1


class ChaosProxy:
    """A TCP proxy that perpetrates one planned fault per connection.

    Threaded and synchronous on purpose: the proxy must be a separate
    actor from the daemon's event loop, so a fault that wedges one
    would be visible on the other — exactly like a real middlebox.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: ChaosPlan,
        host: str = "127.0.0.1",
    ) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.plan = plan
        self.host = host
        self.port: int | None = None
        self.counters: dict[str, int] = {"connections": 0}
        for kind in CHAOS_KINDS:
            self.counters[kind] = 0
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "ChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(64)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            stale = list(self._open)
        for sock in stale:
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the wire -----------------------------------------------------

    def _track(self, sock: socket.socket) -> None:
        with self._lock:
            self._open.add(sock)

    def _untrack_close(self, *socks: socket.socket) -> None:
        for sock in socks:
            with self._lock:
                self._open.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    def _accept_loop(self) -> None:
        assert self._listener is not None
        ordinal = 0
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            self.counters["connections"] += 1
            action = self.plan.action_for(ordinal)
            if action.fires:
                self.counters[action.kind] += 1
            handler = threading.Thread(
                target=self._handle,
                args=(conn, action),
                name=f"chaos-conn-{ordinal}",
                daemon=True,
            )
            ordinal += 1
            handler.start()

    def _handle(self, client: socket.socket, action: FaultAction) -> None:
        self._track(client)
        if action.kind == "drop":
            self._untrack_close(client)
            return
        try:
            upstream = socket.create_connection(self.upstream, timeout=5.0)
        except OSError:
            self._untrack_close(client)
            return
        self._track(upstream)
        try:
            if action.kind == "close":
                chunk = client.recv(65536)
                if chunk:
                    upstream.sendall(chunk[: max(1, len(chunk) // 2)])
                return
            if action.kind == "delay":
                chunk = client.recv(65536)
                if not chunk:
                    return
                total = max(action.param, 0.01)
                step = max(1, len(chunk) // 8)
                pause = total / max(1, (len(chunk) + step - 1) // step)
                for start in range(0, len(chunk), step):
                    if self._stopping.is_set():
                        return
                    upstream.sendall(chunk[start : start + step])
                    time.sleep(pause)
                self._pump_bidirectional(client, upstream)
                return
            if action.kind == "garbage":
                chunk = client.recv(65536)
                if not chunk:
                    return
                upstream.sendall(chunk)
                noise = random.Random(
                    sum(chunk) * SEED_STRIDE
                ).getrandbits(64)
                client.sendall(b"\xff\xfechaos-%016x\n" % noise)
                self._pump_bidirectional(client, upstream)
                return
            if action.kind == "partial":
                chunk = client.recv(65536)
                if not chunk:
                    return
                upstream.sendall(chunk)
                reply = upstream.recv(65536)
                if reply:
                    client.sendall(reply[: max(1, len(reply) // 2)])
                return
            self._pump_bidirectional(client, upstream)
        except OSError:
            pass
        finally:
            self._untrack_close(client, upstream)

    def _pump_bidirectional(
        self, client: socket.socket, upstream: socket.socket
    ) -> None:
        """Transparent relay until either side closes."""
        done = threading.Event()

        def pump(src: socket.socket, dst: socket.socket) -> None:
            try:
                while not self._stopping.is_set():
                    data = src.recv(65536)
                    if not data:
                        break
                    dst.sendall(data)
            except OSError:
                pass
            finally:
                done.set()
                for sock in (src, dst):
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass

        back = threading.Thread(
            target=pump, args=(upstream, client), daemon=True
        )
        back.start()
        pump(client, upstream)
        done.wait(timeout=5.0)


class EmbeddedServer:
    """A real :class:`ImplicationServer` on a background thread.

    The harness the sweep, the tests and the benchmarks all share:
    starts the daemon with its own event loop, exposes the bound
    port, and stops it through the *thread-safe* drain path so the
    clean-drain assertion means what it says.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.server = ImplicationServer(config)
        self._loop: "object | None" = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    def start(self) -> "EmbeddedServer":
        import asyncio

        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                await self.server.start()
            except BaseException as exc:
                self._error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.server.wait_drained()
            await self.server.stop()

        def run() -> None:
            try:
                asyncio.run(main())
            except BaseException as exc:  # noqa: BLE001 - surfaced in stop()
                self._error = exc

        self._thread = threading.Thread(
            target=run, name="chaos-daemon", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("embedded server did not start in time")
        if self._error is not None:
            raise RuntimeError(
                f"embedded server failed to start: {self._error}"
            )
        return self

    @property
    def port(self) -> int:
        port = self.server.port
        assert port is not None
        return port

    def stop(self, timeout: float = 15.0) -> str:
        """Drain and join; returns the daemon's final state."""
        if self._loop is not None:
            loop = self._loop
            try:
                loop.call_soon_threadsafe(  # type: ignore[attr-defined]
                    self.server.initiate_drain
                )
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        return self.server.state

    def __enter__(self) -> "EmbeddedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

#: Base instances for the sweep, all definite at ``jobs=1``; label
#: renamings multiply them into distinct requests, each scored against
#: its own in-process oracle verdict.
_BASE_INSTANCES: tuple[tuple[tuple[str, ...], str], ...] = (
    (
        (
            "() => K",
            "K :: () => a.a.a",
            "K :: a.a.a => ()",
            "a :: a => a",
        ),
        "K :: a => ()",
    ),
    (
        (
            "() => K",
            "K :: () => a.a.a",
            "K :: a.a.a => ()",
            "a :: a => a",
        ),
        "K :: () => a.a.a",
    ),
    (
        ("() => A", "A :: () => b.b", "b :: b => b"),
        "A :: () => b.b",
    ),
)

_RENAMINGS: tuple[tuple[tuple[str, str], ...], ...] = (
    (),
    (("a", "c"), ("b", "d"), ("K", "L"), ("A", "B")),
    (("a", "e"), ("b", "f"), ("K", "M"), ("A", "C")),
)


def sweep_instances() -> list[tuple[list[str], str]]:
    """The deterministic instance pool the sweep draws from."""
    out: list[tuple[list[str], str]] = []
    for renaming in _RENAMINGS:
        for sigma, phi in _BASE_INSTANCES:
            lines = list(sigma)
            goal = phi
            for old, new in renaming:
                lines = [
                    line.replace(old, new) for line in lines
                ]
                goal = goal.replace(old, new)
            out.append((lines, goal))
    return out


def _oracle(instances: list[tuple[list[str], str]]) -> list[str]:
    """Clean in-process verdicts — the sweep's ground truth."""
    from repro.constraints import parse_constraint, parse_constraints
    from repro.reasoning import ImplicationProblem
    from repro.reasoning.dispatcher import solve

    verdicts = []
    for sigma_lines, phi_line in instances:
        problem = ImplicationProblem(
            parse_constraints("\n".join(sigma_lines)),
            parse_constraint(phi_line),
            "semistructured",
        )
        verdicts.append(solve(problem, jobs=1).answer.value)
    return verdicts


def percentile(values: list[float], q: float) -> float:
    """The sample at rank ``round(q * (n - 1))`` of ``values`` sorted
    (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def run_chaos_sweep(
    seed: int = 0,
    requests: int = 40,
    fault_rate: float = 0.3,
    watchdog_grace_ms: int = 500,
    retries: int = 4,
) -> dict:
    """The full chaos exercise; returns a JSON-serializable report.

    Three phases, each followed by a clean-drain assertion:

    1. **wire** — ``requests`` seeded solves through a
       :class:`ChaosProxy` at ``fault_rate``, scored against the
       in-process oracle.  A definite answer that contradicts the
       oracle is a *flip* (the one unforgivable outcome); an UNKNOWN
       where the oracle is definite is a *demotion* (honest);
       exhausted retries are *unavailable*.
    2. **reclaim** — a wedged solve (``wedge`` instrument) with a
       small budget must come back UNKNOWN with a ``hung_solve``
       fault, and the time past its budget must stay under twice the
       watchdog grace (the retire-and-respawn bound).
    3. **failover** — two daemons, kill the first mid-sweep; a
       client holding both endpoints must keep answering.

    ``report["pass"]`` is the conjunction of every gate;
    ``report["failures"]`` names each violated one.
    """
    from repro.server.client import ServerClient

    report: dict = {
        "seed": seed,
        "requests": requests,
        "fault_rate": fault_rate,
        "watchdog_grace_ms": watchdog_grace_ms,
    }
    failures: list[str] = []
    instances = sweep_instances()
    oracle = _oracle(instances)
    rng = random.Random(seed)

    # -- phase 1: wire chaos ------------------------------------------
    plan = ChaosPlan.from_spec(f"rate:{fault_rate}:{seed}")
    counts = {
        "ok_match": 0,
        "demoted": 0,
        "flips": 0,
        "unavailable": 0,
        "other": 0,
    }
    latencies_ms: list[float] = []
    grace = watchdog_grace_ms
    embedded = EmbeddedServer(
        ServerConfig(
            solver_threads=2,
            allow_delay=True,
            watchdog_grace_ms=grace,
        )
    ).start()
    proxy = ChaosProxy("127.0.0.1", embedded.port, plan).start()
    try:
        client = ServerClient(
            endpoints=[("127.0.0.1", proxy.port)],
            timeout=10.0,
            retries=retries,
            backoff_base=0.01,
            backoff_cap=0.2,
            jitter_seed=seed,
            failure_threshold=3,
            cooldown_s=0.05,
        )
        with client:
            for _ in range(requests):
                pick = rng.randrange(len(instances))
                sigma, phi = instances[pick]
                expected = oracle[pick]
                start = time.monotonic()
                try:
                    response = client.imply(sigma, phi, jobs=1)
                except Exception:  # noqa: BLE001 - chaos exhausts retries
                    counts["unavailable"] += 1
                    continue
                finally:
                    # One connection per request: chaos is planned by
                    # connection ordinal, so keep-alive pipelining
                    # would let one lucky socket dodge the whole plan.
                    client.close()
                latencies_ms.append((time.monotonic() - start) * 1e3)
                status = response.get("status")
                answer = response.get("answer")
                if status == "ok" and answer == expected:
                    counts["ok_match"] += 1
                elif status == "ok" and answer in ("true", "false"):
                    counts["flips"] += 1
                elif answer == "unknown" or status in (
                    "rejected",
                    "draining",
                ):
                    counts["demoted"] += 1
                else:
                    counts["other"] += 1
    finally:
        proxy.stop()
        wire_state = embedded.stop()
    answered = counts["ok_match"] + counts["demoted"]
    availability = answered / requests if requests else 1.0
    report["wire"] = {
        **counts,
        "availability": round(availability, 4),
        "p99_ms": round(percentile(latencies_ms, 0.99), 3),
        "proxy": dict(proxy.counters),
        "drain_state": wire_state,
    }
    if counts["flips"]:
        failures.append(f"wire: {counts['flips']} verdict flip(s)")
    if availability < 0.99:
        failures.append(
            f"wire: availability {availability:.3f} below 0.99"
        )
    if wire_state != "stopped":
        failures.append(f"wire: daemon drain ended in {wire_state!r}")

    # -- phase 2: watchdog reclaim ------------------------------------
    budget_ms = 150
    embedded = EmbeddedServer(
        ServerConfig(
            solver_threads=2,
            allow_delay=True,
            watchdog_grace_ms=grace,
        )
    ).start()
    try:
        client = ServerClient(
            "127.0.0.1",
            embedded.port,
            timeout=10.0 + 4 * grace / 1e3,
            retries=0,
            jitter_seed=seed,
        )
        with client:
            start = time.monotonic()
            wedged = client.imply(
                *instances[0], jobs=1, budget_ms=budget_ms, wedge=True
            )
            wall_ms = (time.monotonic() - start) * 1e3
            reclaim_ms = max(0.0, wall_ms - budget_ms)
            after = client.imply(*instances[0], jobs=1)
            stats = client.stats()
    finally:
        reclaim_state = embedded.stop()
    hung_events = [
        event["kind"]
        for event in wedged.get("faults", {}).get("events", [])
    ]
    retired = (
        stats.get("solver_pool", {}).get("retired", 0)
        if isinstance(stats, dict)
        else 0
    )
    report["reclaim"] = {
        "budget_ms": budget_ms,
        "wall_ms": round(wall_ms, 1),
        "reclaim_ms": round(reclaim_ms, 1),
        "bound_ms": 2 * grace,
        "wedged_answer": wedged.get("answer"),
        "fault_events": hung_events,
        "after_status": after.get("status"),
        "after_answer": after.get("answer"),
        "threads_retired": retired,
        "drain_state": reclaim_state,
    }
    if wedged.get("answer") != "unknown":
        failures.append(
            f"reclaim: wedged solve answered "
            f"{wedged.get('answer')!r}, not unknown"
        )
    if "hung_solve" not in hung_events:
        failures.append("reclaim: no hung_solve fault event on the wire")
    if reclaim_ms >= 2 * grace:
        failures.append(
            f"reclaim: {reclaim_ms:.0f} ms exceeds bound {2 * grace} ms"
        )
    if after.get("status") != "ok" or after.get("answer") != oracle[0]:
        failures.append("reclaim: post-wedge solve did not recover")
    if retired < 1:
        failures.append("reclaim: no solver thread was retired")
    if reclaim_state != "stopped":
        failures.append(
            f"reclaim: daemon drain ended in {reclaim_state!r}"
        )

    # -- phase 3: endpoint failover -----------------------------------
    first = EmbeddedServer(ServerConfig(solver_threads=1)).start()
    second = EmbeddedServer(ServerConfig(solver_threads=1)).start()
    killed_state = after_kill = None
    try:
        client = ServerClient(
            endpoints=[
                ("127.0.0.1", first.port),
                ("127.0.0.1", second.port),
            ],
            timeout=10.0,
            retries=retries,
            backoff_base=0.01,
            backoff_cap=0.2,
            jitter_seed=seed,
            failure_threshold=1,
            cooldown_s=0.5,
        )
        with client:
            before = client.imply(*instances[0], jobs=1)
            killed_state = first.stop()
            after_kill = client.imply(*instances[1], jobs=1)
            survivor_port = client.port
    finally:
        failover_state = second.stop()
    report["failover"] = {
        "before_status": before.get("status"),
        "killed_state": killed_state,
        "after_status": (after_kill or {}).get("status"),
        "after_answer": (after_kill or {}).get("answer"),
        "survivor_is_second": survivor_port == second.port,
        "drain_state": failover_state,
    }
    if (after_kill or {}).get("status") != "ok" or (
        after_kill or {}
    ).get("answer") != oracle[1]:
        failures.append("failover: client did not recover on endpoint B")
    if failover_state != "stopped":
        failures.append(
            f"failover: daemon drain ended in {failover_state!r}"
        )

    report["failures"] = failures
    report["pass"] = not failures
    return report
