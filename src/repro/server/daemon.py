"""The asyncio implication daemon: ``repro serve``.

One process, one event loop, a bounded admission queue, a small pool
of solver threads, and the process-wide warm worker pool underneath —
the composition point where the library's robustness machinery
(supervised pools, monotonic budgets, the cross-request cache) meets
concurrent load.  The design follows EdgeDB's server discipline
(bounded queues and explicit shedding instead of unbounded buffering;
drain-then-exit) and Twisted's one-reactor service idiom.

Robustness properties, in order of the request path:

* **Admission control.**  ``imply``/``query``/``check`` work enters a
  bounded queue; when it is full the request is *shed* with an
  explicit ``overloaded`` response carrying ``retry_after_ms`` — the
  daemon never buffers unboundedly.  A client budget (``budget_ms``,
  else ``ServerConfig.default_budget_ms``) becomes an absolute
  monotonic deadline at admission: a request whose budget provably
  cannot survive the estimated queue wait is rejected up front, and one
  whose deadline expires *while queued* is rejected at dequeue with an
  honest UNKNOWN — never solved against a dead budget, never answered
  with a stale definite verdict.
* **One path per request.**  Every solver op is parsed on the event
  loop, admitted, and run on a solver thread.  Canonicalization happens
  there too, inside ``solve()``, once per request and only for the
  cache key; a cache hit's counter-model comes back renamed into the
  requester's alphabet by the cache replay.
* **Hung-solve watchdog.**  A solve stops at its deadline by itself:
  every engine polls it.  For one that does not, a timer on the event
  loop retires its solver thread at deadline + ``watchdog_grace_ms``,
  starts a replacement, and answers UNKNOWN with a ``hung_solve``
  fault.
* **Graceful drain.**  SIGTERM, SIGINT or a ``shutdown`` request moves
  the server to ``draining``: admitted work (queued and in-flight)
  completes and is answered, new work is refused with a ``draining``
  status, ``health``/``stats`` keep answering, and once the queue is
  empty the daemon retires the warm pool, flushes cache counters, and
  exits 0 under the established exit-code contract.

Faults never hide: ``result.faults`` (including injected ones) travels
over the wire verbatim, so a degraded answer is as auditable remotely
as locally.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import math
import os
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.checking import check_all
from repro.constraints import parse_constraint, parse_constraints
from repro.errors import (
    GraphError,
    HungSolveError,
    ProtocolError,
    ReproError,
)
from repro.graph.serialize import from_dict as graph_from_dict
from repro.graph.serialize import to_dict as graph_to_dict
from repro.query import (
    QueryContainmentChecker,
    WordQueryOptimizer,
    is_word_pattern,
    optimize_rpq_union,
)
from repro.reasoning import ImplicationProblem, solve
from repro.reasoning.cache import ImplicationCache
from repro.reasoning.options import DEFAULT_SOLVE_OPTIONS, SolveOptions
from repro.reasoning.runtime import retire_warm_pool, warm_pool_stats
from repro.reasoning.watchdog import RetiringSolverPool
from repro.server import protocol

#: Prior for the queue-wait estimator before any solve has completed.
#: Deliberately small: an idle server should not shed its first
#: requests on a pessimistic guess.
_EWMA_PRIOR_S = 0.02

#: Exponential-moving-average weight of the newest solve time.
_EWMA_ALPHA = 0.2

#: How long ``stop()`` waits for connection handlers to flush their
#: final responses before cancelling them.
_FLUSH_GRACE_S = 0.25


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can tune, checked when built."""

    host: str = "127.0.0.1"
    port: int = 0
    max_queue: int = 64
    solver_threads: int = 2
    #: How every solve runs — ``imply`` and ``query`` alike: fault
    #: injection (``inject`` also disables cache lookups) among them.
    solve: SolveOptions = DEFAULT_SOLVE_OPTIONS
    #: Per-solve parallelism cap; an ``imply`` request may override it.
    jobs: int | str = "auto"
    #: Default per-request budget applied when the client sends none
    #: (``None`` = unlimited, the library default).
    default_budget_ms: int | None = None
    cache: ImplicationCache | None = None
    #: Honor the ``delay_ms`` and ``wedge`` request fields (testing
    #: instruments for queue/drain/watchdog behavior, like
    #: ``--inject`` is for fault paths).  ``delay_ms`` sleeps until it
    #: ends or the deadline passes, as a solve polling its deadline
    #: would; ``wedge`` ignores the deadline, modelling a solve that
    #: stopped cooperating.
    allow_delay: bool = False
    #: Write the bound port here after startup (atomic), for smoke
    #: tests and supervisors that start the daemon on port 0.
    port_file: str | None = None
    #: Grace past a solve's deadline before the watchdog retires its
    #: solver thread and answers UNKNOWN.  0 disables the watchdog.
    #: Only solves with a deadline are watched; ``default_budget_ms``
    #: gives one to requests that send no budget.
    watchdog_grace_ms: int = 5000

    def __post_init__(self) -> None:
        # Each bound keeps a daemon from starting broken: no solver
        # workers, an unbounded queue, a watchdog switched off by its
        # sign, or every unbudgeted request shed as already expired.
        least = {"solver_threads": 1, "max_queue": 1, "watchdog_grace_ms": 0}
        if self.default_budget_ms is not None:
            least["default_budget_ms"] = 0
        for name, bound in least.items():
            value = getattr(self, name)
            if value < bound:
                raise ValueError(f"{name} must be >= {bound}, got {value!r}")


@dataclass
class FlightOutcome:
    """What one admitted request produced.

    ``kind`` is a closed vocabulary: ``solved`` (the solver ran;
    ``wire`` holds the ``ok`` response's payload), ``rejected`` (the
    deadline expired before the solve started — the only honest
    payload is UNKNOWN), ``error`` (the request was admitted but the
    solver raised), ``hung`` (the watchdog abandoned the solve — same
    honest UNKNOWN as ``rejected``, plus an auditable ``hung_solve``
    fault on the wire).
    """

    kind: str
    wire: dict | None = None
    reason: str = ""
    error: str = ""
    elapsed_ms: float = 0.0


@dataclass
class _Admitted:
    """One unit of solver work: built by a ``_prepare_*`` parser, then
    queued by ``_admit``."""

    op: str
    solve_fn: Callable[[], FlightOutcome]
    deadline: float | None = None
    future: "asyncio.Future[FlightOutcome] | None" = None
    admitted_at: float = 0.0


def _milliseconds(request: dict, name: str) -> float | None:
    """The request's ``name`` field as a finite number >= 0, or None
    when absent.  Anything else (a string, a list, a bool, NaN, a
    negative or unrepresentably large number) raises ``ValueError``."""
    value = request.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not 0 <= number < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return number


def _budgeted(
    start: float,
    deadline: float | None,
    run: Callable[[float | None], FlightOutcome],
) -> FlightOutcome:
    """Run ``run(remaining_seconds)`` on a solver thread; never raises.

    A budget already spent (in the queue, or by the ``delay_ms``
    instrument) is rejected before ``run`` starts; solver errors become
    ``error`` outcomes.  ``elapsed_ms`` counts from ``start``.
    """
    remaining = None
    if deadline is not None:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return FlightOutcome(
                kind="rejected",
                reason="deadline expired before the solve started",
            )
    try:
        outcome = run(remaining)
    except (ReproError, ValueError) as exc:
        return FlightOutcome(
            kind="error", error=f"{type(exc).__name__}: {exc}"
        )
    outcome.elapsed_ms = (time.monotonic() - start) * 1e3
    return outcome


def _parse_sigma(request: dict) -> list:
    sigma_lines = request.get("sigma")
    if not isinstance(sigma_lines, list) or not all(
        isinstance(line, str) for line in sigma_lines
    ):
        raise ValueError("sigma must be a list of constraint lines")
    return parse_constraints("\n".join(sigma_lines))


def _parse_schema(request: dict) -> Any:
    schema_text = request.get("schema")
    if schema_text is None:
        return None
    from repro.xml import schema_from_xml_data

    return schema_from_xml_data(schema_text)


class ImplicationServer:
    """The daemon.  ``run()`` is the blocking entry point; ``start``/
    ``stop`` are the asyncio lifecycle for embedding (tests run it in
    a background thread with its own loop)."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.state = "idle"  # idle -> serving -> draining -> stopped
        self.port: int | None = None
        self._started_at = 0.0
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue[_Admitted] | None = None
        self._workers: list[asyncio.Task] = []
        self._connections: set[asyncio.Task] = set()
        self._drain_event: asyncio.Event | None = None
        self._solver_pool: RetiringSolverPool | None = None
        self._ewma_solve_s: float | None = None
        self.counters = {
            "requests": 0,
            "imply": 0,
            "check": 0,
            "query": 0,
            "health": 0,
            "stats": 0,
            "shutdown": 0,
            "solved": 0,
            "errors": 0,
            "shed": 0,
            "rejected_upfront": 0,
            "rejected_deadline": 0,
            "drain_refusals": 0,
            "protocol_errors": 0,
            "hung_solves": 0,
        }

    # -- lifecycle ----------------------------------------------------

    def run(self, announce: Callable[[str], None] | None = None) -> int:
        """Start, serve until drained, stop.  Returns the exit code
        (0 = clean drain) under the CLI's exit-code contract."""
        return asyncio.run(self._amain(announce))

    async def _amain(self, announce: Callable[[str], None] | None) -> int:
        await self.start()
        if announce is not None:
            announce(
                f"repro-server listening on "
                f"{self.config.host}:{self.port} (pid {os.getpid()})"
            )
        try:
            await self.wait_drained()
        finally:
            await self.stop()
        return 0

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._drain_event = asyncio.Event()
        self._solver_pool = RetiringSolverPool(self.config.solver_threads)
        self._workers = [
            loop.create_task(self._worker())
            for _ in range(self.config.solver_threads)
        ]
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self.state = "serving"
        for signum in (signal.SIGTERM, signal.SIGINT):
            # In a background-thread loop (tests) signal handlers are
            # unavailable; drain is then driven by the shutdown op.
            with contextlib.suppress(
                NotImplementedError, RuntimeError, ValueError
            ):
                loop.add_signal_handler(signum, self.initiate_drain)
        if self.config.port_file:
            self._write_port_file(self.config.port_file, self.port)

    @staticmethod
    def _write_port_file(path: str, port: int) -> None:
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".repro-port-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(f"{port}\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def initiate_drain(self) -> None:
        """Move to draining (idempotent; SIGTERM/SIGINT/shutdown op)."""
        if self.state == "serving":
            self.state = "draining"
        if self._drain_event is not None:
            self._drain_event.set()

    async def wait_drained(self) -> None:
        """Block until a drain is requested and admitted work finishes."""
        assert self._drain_event is not None and self._queue is not None
        await self._drain_event.wait()
        # Everything admitted before the drain completes and is
        # answered; new work is refused in _dispatch meanwhile.
        await self._queue.join()

    async def stop(self) -> None:
        """Tear down: listener, connections, workers, warm pool."""
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        # Give handlers awaiting already-resolved flights a moment to
        # write their final frames, then close the stragglers (idle
        # keep-alive connections block in readline() forever).
        deadline = time.monotonic() + _FLUSH_GRACE_S
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._solver_pool is not None:
            # Never joins: a wedged solver thread (the very thing the
            # watchdog exists for) must not block a clean drain.
            self._solver_pool.shutdown()
            self._solver_pool = None
        if self.config.cache is not None:
            self.config.cache.flush_counters()
        # The long-lived process owns the warm pool; retire it here so
        # a drained daemon leaves no workers behind.  The atexit
        # backstop (repro.reasoning.runtime) makes this idempotent.
        retire_warm_pool()
        self.state = "stopped"

    # -- connections --------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Oversized frame: the stream cannot be resynced.
                    self.counters["protocol_errors"] += 1
                    writer.write(
                        protocol.encode(
                            protocol.error_response(
                                None,
                                f"frame exceeds "
                                f"{protocol.MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = protocol.parse_request(line)
                except ProtocolError as exc:
                    self.counters["protocol_errors"] += 1
                    response = protocol.error_response(None, str(exc))
                else:
                    response = await self._dispatch(request)
                writer.write(protocol.encode(response))
                await writer.drain()
        except asyncio.CancelledError:
            pass
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # -- dispatch -----------------------------------------------------

    async def _dispatch(self, request: dict) -> dict:
        op = request["op"]
        request_id = request.get("id")
        self.counters["requests"] += 1
        self.counters[op] += 1
        if op == "health":
            return self._health_response(request_id)
        if op == "stats":
            return self._stats_response(request_id)
        if op == "shutdown":
            self.initiate_drain()
            return protocol.ok_response(request_id, state=self.state)
        if self.state != "serving":
            self.counters["drain_refusals"] += 1
            return protocol.draining_response(request_id)
        return await self._solve_op(request)

    def _health_response(self, request_id: Any) -> dict:
        return protocol.ok_response(
            request_id,
            state=self.state,
            uptime_ms=round((time.monotonic() - self._started_at) * 1e3, 1),
        )

    def _stats_response(self, request_id: Any) -> dict:
        stats: dict = {
            "state": self.state,
            "uptime_ms": round(
                (time.monotonic() - self._started_at) * 1e3, 1
            ),
            "queue": {
                "depth": self._queue.qsize() if self._queue else 0,
                "max": self.config.max_queue,
            },
            "ewma_solve_ms": (
                None
                if self._ewma_solve_s is None
                else round(self._ewma_solve_s * 1e3, 3)
            ),
            "counters": dict(self.counters),
            "warm_pool": warm_pool_stats(),
        }
        if self._solver_pool is not None:
            stats["solver_pool"] = self._solver_pool.stats()
        if self.config.cache is not None:
            stats["cache"] = self.config.cache.stats()
        return protocol.ok_response(request_id, **stats)

    # -- the solver ops: imply, query, check --------------------------

    async def _solve_op(self, request: dict) -> dict:
        """Parse on the loop, admit, solve on a solver thread, answer.

        ``imply``, ``query`` and ``check`` differ only in how they parse
        and what their solver thread runs; the budget, the admission and
        the mapping from outcome to response status are this one path.
        A malformed request is answered with ``error``, and the
        connection survives it.
        """
        op = request["op"]
        request_id = request.get("id")
        try:
            deadline, delay_ms = self._deadline(request)
            if op == "imply":
                item = self._prepare_imply(request, deadline, delay_ms)
            elif op == "query":
                item = self._prepare_query(request, deadline)
            else:
                item = self._prepare_check(request, deadline)
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            self.counters["errors"] += 1
            return protocol.error_response(
                request_id, f"bad {op} request: {exc}"
            )
        item.future = asyncio.get_running_loop().create_future()
        rejection = self._admit(item, request_id)
        if rejection is not None:
            return rejection
        outcome = await asyncio.shield(item.future)
        if outcome.kind == "rejected":
            return protocol.rejected_response(request_id, outcome.reason)
        if outcome.kind == "hung":
            return protocol.hung_response(request_id, outcome.reason)
        if outcome.kind == "error":
            return protocol.error_response(request_id, outcome.error)
        response = protocol.ok_response(request_id, **(outcome.wire or {}))
        response["elapsed_ms"] = round(outcome.elapsed_ms, 3)
        return response

    def _deadline(self, request: dict) -> tuple[float | None, float]:
        """The request's absolute deadline and its ``delay_ms``.

        ``budget_ms`` falls back to ``ServerConfig.default_budget_ms``
        for every op; both fields are validated by :func:`_milliseconds`.
        """
        budget_ms = _milliseconds(request, "budget_ms")
        if budget_ms is None:
            budget_ms = self.config.default_budget_ms
        deadline = (
            None
            if budget_ms is None
            else time.monotonic() + budget_ms / 1e3
        )
        return deadline, _milliseconds(request, "delay_ms") or 0.0

    def _prepare_imply(
        self, request: dict, deadline: float | None, delay_ms: float
    ) -> _Admitted:
        phi_line = request.get("phi")
        if not isinstance(phi_line, str):
            raise ValueError("phi must be a constraint line")
        problem = ImplicationProblem(
            _parse_sigma(request),
            parse_constraint(phi_line),
            request.get("context", "semistructured"),
            schema=_parse_schema(request),
        )
        return _Admitted(
            op="imply",
            solve_fn=functools.partial(
                self._solve_blocking,
                problem,
                deadline,
                delay_ms,
                None,
                request,
            ),
            deadline=deadline,
        )

    # -- admission control --------------------------------------------

    def _admit(self, item: _Admitted, request_id: Any) -> dict | None:
        """Admit ``item`` to the bounded queue, or answer why not.

        Returns ``None`` on admission, else the shed/reject response.
        """
        assert self._queue is not None
        depth = self._queue.qsize()
        wait_estimate = depth * (self._ewma_solve_s or _EWMA_PRIOR_S)
        if item.deadline is not None:
            remaining = item.deadline - time.monotonic()
            if remaining <= wait_estimate:
                # The budget cannot survive the queue: reject up front
                # instead of letting the deadline die in line.
                self.counters["rejected_upfront"] += 1
                return protocol.overloaded_response(
                    request_id, retry_after_ms=int(wait_estimate * 1e3) + 1
                )
        item.admitted_at = time.monotonic()
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.counters["shed"] += 1
            retry = (self._ewma_solve_s or _EWMA_PRIOR_S) * max(1, depth)
            return protocol.overloaded_response(
                request_id, retry_after_ms=int(retry * 1e3) + 1
            )
        return None

    # -- the solver workers -------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            try:
                if (
                    item.deadline is not None
                    and time.monotonic() > item.deadline
                ):
                    # Admitted, but the client budget died in line:
                    # answering from a stale solve would be a lie, so
                    # the only honest payload is UNKNOWN/rejected.
                    self.counters["rejected_deadline"] += 1
                    waited_ms = (
                        time.monotonic() - item.admitted_at
                    ) * 1e3
                    outcome = FlightOutcome(
                        kind="rejected",
                        reason=(
                            "deadline expired while queued "
                            f"(waited {waited_ms:.0f} ms)"
                        ),
                    )
                else:
                    outcome = await self._run_solve(item)
                    if outcome.kind == "solved":
                        self.counters["solved"] += 1
                        elapsed_s = outcome.elapsed_ms / 1e3
                        self._ewma_solve_s = (
                            elapsed_s
                            if self._ewma_solve_s is None
                            else (1 - _EWMA_ALPHA) * self._ewma_solve_s
                            + _EWMA_ALPHA * elapsed_s
                        )
                    elif outcome.kind == "error":
                        self.counters["errors"] += 1
                self._resolve(item, outcome)
            except asyncio.CancelledError:
                self._resolve(
                    item,
                    FlightOutcome(
                        kind="error", error="server shutting down"
                    ),
                )
                raise
            except Exception as exc:  # noqa: BLE001 - daemon must survive
                self.counters["errors"] += 1
                self._resolve(
                    item,
                    FlightOutcome(
                        kind="error",
                        error=f"{type(exc).__name__}: {exc}",
                    ),
                )
            finally:
                self._queue.task_done()

    async def _run_solve(self, item: _Admitted) -> FlightOutcome:
        """Run one admitted item on the solver pool, watched.

        The solve's deadline is its only stop signal, and every engine
        polls it.  A solve still running at deadline +
        ``watchdog_grace_ms`` ignored it: one timer on this loop then
        retires its solver thread — the pool spawns a replacement, so
        capacity is restored — and fails the future with
        :class:`HungSolveError`, answered as an honest UNKNOWN.
        """
        assert self._solver_pool is not None
        pool = self._solver_pool
        future = pool.submit(item.solve_fn)
        grace_s = self.config.watchdog_grace_ms / 1e3
        timer = None
        if item.deadline is not None and grace_s > 0:
            timer = asyncio.get_running_loop().call_later(
                item.deadline + grace_s - time.monotonic(),
                pool.retire_running,
                future,
                HungSolveError(
                    "solve ran past its deadline and grace and was "
                    "abandoned; the solver thread was retired and replaced"
                ),
            )
        try:
            return await asyncio.wrap_future(future)
        except HungSolveError as exc:
            self.counters["hung_solves"] += 1
            return FlightOutcome(kind="hung", reason=str(exc))
        finally:
            if timer is not None:
                timer.cancel()

    @staticmethod
    def _resolve(item: _Admitted, outcome: FlightOutcome) -> None:
        if item.future is not None and not item.future.done():
            item.future.set_result(outcome)

    def _solve_blocking(
        self,
        problem: ImplicationProblem,
        deadline: float | None,
        delay_ms: float,
        form: None,
        request: dict,
        cancel: None = None,
    ) -> FlightOutcome:
        """Solve one ``imply`` request on a solver thread; never raises.

        ``solve()`` computes the request's only canonical form, for the
        cache key, and a cache hit's counter-model comes back already
        renamed into this request's alphabet.  So ``form`` is always
        None, and so is ``cancel``: the deadline is the solve's only
        stop signal.  Both stay in the signature because perfbench's
        launcher wraps this method and passes its arguments by
        position.
        """
        start = time.monotonic()
        if self.config.allow_delay and request.get("wedge"):
            # Testing instrument: a solve that stopped cooperating —
            # it ignores its deadline, so only the watchdog (thread
            # retirement) can reclaim the capacity it occupies.
            # Bounded by daemon lifetime so a stopped test server never
            # leaks a spinning thread.
            while self.state != "stopped":
                time.sleep(0.05)
            return FlightOutcome(kind="rejected", reason="server stopped")
        if delay_ms > 0 and self.config.allow_delay:
            # Cooperative counterpart of ``wedge``: sleeps until the
            # delay ends or the deadline passes, whichever is first, as
            # a solve polling its deadline would.  ``_budgeted`` then
            # rejects a spent budget.
            end = time.monotonic() + delay_ms / 1e3
            if deadline is not None:
                end = min(end, deadline)
            time.sleep(max(0.0, end - time.monotonic()))

        def run(remaining: float | None) -> FlightOutcome:
            result = solve(
                problem,
                self.config.solve,
                jobs=request.get("jobs", self.config.jobs),
                deadline=remaining,
                cache=self.config.cache,
            )
            countermodel = None
            if (
                request.get("want_countermodel", True)
                and result.countermodel is not None
            ):
                with contextlib.suppress(GraphError):
                    countermodel = graph_to_dict(result.countermodel)
            return FlightOutcome(
                kind="solved",
                wire=protocol.result_to_wire(
                    result,
                    result.problem_class.value,
                    str(request.get("context", "semistructured")),
                    countermodel=countermodel,
                ),
            )

        return _budgeted(start, deadline, run)

    # -- query --------------------------------------------------------

    def _prepare_query(
        self, request: dict, deadline: float | None
    ) -> _Admitted:
        """Constraint-aware query ops: ``contains`` and ``optimize``.

        Rides the same admission queue and solver threads as
        ``imply``/``check``, solves under the same options, and shares
        the daemon's implication cache, so repeated containment
        questions across requests replay stored verdicts.  The
        request's budget bounds the whole query, however many
        implications it asks.
        """
        action = request.get("action")
        if action not in ("contains", "optimize"):
            raise ValueError(
                f"action must be 'contains' or 'optimize', got {action!r}"
            )
        sigma = _parse_sigma(request)
        context = str(request.get("context", "semistructured"))
        schema = _parse_schema(request)
        if action == "contains":
            left = request["left"]
            right = request["right"]
            if not isinstance(left, str) or not isinstance(right, str):
                raise ValueError("left/right must be pattern strings")
            branches = None
        else:
            branches = request.get("branches")
            if not isinstance(branches, list) or not all(
                isinstance(b, str) for b in branches
            ) or not branches:
                raise ValueError(
                    "branches must be a non-empty list of patterns"
                )
            left = right = None

        def run(remaining: float | None) -> FlightOutcome:
            solving = dict(
                cache=self.config.cache,
                jobs=self.config.jobs,
                deadline=remaining,
                options=self.config.solve,
            )
            if action == "contains":
                checker = QueryContainmentChecker(
                    sigma, context=context, schema=schema, **solving
                )
                result = checker.contains(left, right)
                wire = {
                    "action": "contains",
                    "verdict": result.verdict.value,
                    "method": result.method,
                    "decidable": result.decidable,
                    "witness": (
                        None
                        if result.witness is None
                        else str(result.witness)
                    ),
                    "notes": list(result.notes),
                    "stats": dict(checker.stats),
                }
            elif not all(is_word_pattern(b) for b in branches):
                checker = QueryContainmentChecker(
                    sigma, context=context, schema=schema, **solving
                )
                report = optimize_rpq_union(branches, checker)
                wire = {
                    "action": "optimize",
                    "original": list(report.original),
                    "optimized": list(report.optimized),
                    "pruned": [list(pair) for pair in report.pruned],
                    "emptied": list(report.emptied),
                    "branches_saved": report.branches_saved,
                    "notes": list(report.notes),
                    "stats": dict(checker.stats),
                }
            else:
                optimizer = WordQueryOptimizer(sigma, **solving)
                report = optimizer.optimize_union(branches)
                wire = {
                    "action": "optimize",
                    "original": [str(b) for b in report.original],
                    "optimized": [str(b) for b in report.optimized],
                    "pruned": [[str(a), str(b)] for a, b in report.pruned],
                    "rewrites": [
                        [str(a), str(b)] for a, b in report.rewrites
                    ],
                    "branches_saved": report.branches_saved,
                    "labels_saved": report.labels_saved,
                    "notes": list(report.notes),
                    "stats": dict(optimizer.stats),
                }
            return FlightOutcome(kind="solved", wire=wire)

        return _Admitted(
            op="query",
            solve_fn=lambda: _budgeted(time.monotonic(), deadline, run),
            deadline=deadline,
        )

    # -- check --------------------------------------------------------

    def _prepare_check(
        self, request: dict, deadline: float | None
    ) -> _Admitted:
        graph = graph_from_dict(request["graph"])
        constraints = parse_constraints(
            "\n".join(request.get("constraints", []))
        )

        def run(_remaining: float | None) -> FlightOutcome:
            report = check_all(graph, constraints)
            return FlightOutcome(
                kind="solved",
                wire={
                    "ok": report.ok,
                    "checked": len(report.results),
                    "failed": len(report.failed),
                    "summary": report.summary(),
                },
            )

        return _Admitted(
            op="check",
            solve_fn=lambda: _budgeted(time.monotonic(), deadline, run),
            deadline=deadline,
        )
