"""Blocking client for the implication server.

One socket, JSON lines, request/response in lockstep.  The client is
deliberately boring — a handful of sockets calls any language could
replicate — with the robustness knobs a production caller needs:

* **timeouts** on connect and on every response read (a wedged server
  can never hang the caller);
* **capped exponential retry with jitter** on connection failures and
  ``overloaded`` responses (honoring the server's ``retry_after_ms``
  hint when it is larger than the local backoff);
* **multi-endpoint failover**: the client accepts a list of
  ``(host, port)`` endpoints and rotates away from one that keeps
  failing.  A per-endpoint circuit breaker opens after
  ``failure_threshold`` *consecutive* transport failures and stays
  open for ``cooldown_s`` seconds; after the cool-down the endpoint is
  half-open and the next request probes it.  When every circuit is
  open the client probes the one that reopens soonest rather than
  failing without trying — an open circuit is a preference, never a
  promise that the server is down;
* **bounded frames**: a response line is read with a hard cap of
  :data:`repro.server.protocol.MAX_LINE_BYTES`, mirroring the
  server's own cap — a misbehaving server cannot balloon the client's
  memory.  An oversize frame is a :class:`ProtocolError` and tears
  down the connection (the stream cannot be resynced);
* **strict correlation**: every response must echo the request's
  ``id``.  A mismatch means the stream desynchronized (a half frame,
  an injected line); the client closes and retries rather than hand
  the caller an answer meant for another question;
* **honest surfacing**: ``draining``/``rejected``/``error`` responses
  are returned (or raised) as-is, and a solved answer's ``faults``
  record travels through untouched — a degraded UNKNOWN looks exactly
  as suspicious remotely as it does locally.  When every attempt
  fails, the raised :class:`ServerUnavailable` carries the most
  recent ``retry_after_ms`` the server sent, even when the *final*
  attempt died on transport — the overload hint is the best pacing
  signal the caller has, and dropping it because a later packet was
  lost would discard exactly the information a backoff loop needs.

Jitter uses a dedicated :class:`random.Random` (optionally seeded) so
retry storms decorrelate in production while tests stay reproducible.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import ProtocolError, ServerUnavailable
from repro.server import protocol


def parse_host_port(text: str) -> tuple[str, int]:
    """``HOST:PORT`` for ``--server``; raises ``ValueError``."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"--server expects HOST:PORT, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"--server port must be an integer, got {port_text!r}"
        ) from None
    if not 0 < port < 65536:
        raise ValueError(f"--server port {port} out of range")
    return host, port


def parse_endpoints(text: str) -> list[tuple[str, int]]:
    """``HOST:PORT[,HOST:PORT...]`` for ``--server``.

    The CLI accepts a comma-separated endpoint list so a caller can
    hand the client its whole replica set in one flag; order is the
    client's initial preference order.
    """
    endpoints = [
        parse_host_port(part.strip())
        for part in text.split(",")
        if part.strip()
    ]
    if not endpoints:
        raise ValueError(f"--server expects HOST:PORT, got {text!r}")
    return endpoints


@dataclass
class _Endpoint:
    """One server address plus its circuit-breaker state."""

    host: str
    port: int
    index: int = 0
    #: Consecutive transport failures since the last success.
    failures: int = 0
    #: Monotonic instant the circuit half-opens (0 = closed/healthy).
    open_until: float = 0.0

    def describe(self) -> str:
        return f"{self.host}:{self.port}"


class ServerClient:
    """A connection to one implication server replica set.

    Reusable and reconnecting: the socket is opened lazily, kept for
    request pipelining, and torn down + retried on any transport
    error — possibly against a different endpoint when more than one
    was given.  Not thread-safe; use one client per thread (the load
    generator in ``benchmarks/test_bench_server.py`` does exactly
    that).

    Accepts the historical ``ServerClient(host, port)`` form or an
    endpoint list: ``ServerClient(endpoints=[("h1", p1), ("h2", p2)])``.
    """

    def __init__(
        self,
        host: str | None = None,
        port: int | None = None,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        jitter_seed: int | None = None,
        endpoints: list[tuple[str, int]] | None = None,
        failure_threshold: int = 2,
        cooldown_s: float = 1.0,
    ) -> None:
        if endpoints:
            pairs = list(endpoints)
        elif host is not None and port is not None:
            pairs = [(host, int(port))]
        else:
            raise ValueError(
                "ServerClient needs (host, port) or endpoints=[...]"
            )
        self._endpoints = [
            _Endpoint(host=h, port=p, index=i)
            for i, (h, p) in enumerate(pairs)
        ]
        self._active = 0
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown_s = float(cooldown_s)
        self._rng = random.Random(jitter_seed)
        self._sock: socket.socket | None = None
        self._file = None
        self._connected: _Endpoint | None = None
        self._next_id = 0

    # -- back-compat accessors ----------------------------------------

    @property
    def host(self) -> str:
        """The currently-preferred endpoint's host (back-compat)."""
        return self._endpoints[self._active].host

    @property
    def port(self) -> int:
        """The currently-preferred endpoint's port (back-compat)."""
        return self._endpoints[self._active].port

    @property
    def endpoints(self) -> list[tuple[str, int]]:
        return [(ep.host, ep.port) for ep in self._endpoints]

    def endpoint_states(self) -> list[dict]:
        """Circuit-breaker introspection (tests, diagnostics)."""
        now = time.monotonic()
        return [
            {
                "endpoint": ep.describe(),
                "failures": ep.failures,
                "open": ep.failures >= self.failure_threshold
                and now < ep.open_until,
            }
            for ep in self._endpoints
        ]

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._connected = None

    # -- endpoint selection -------------------------------------------

    def _pick(self) -> _Endpoint:
        """The next endpoint to try, circuit breakers respected.

        Scans round-robin from the active index for a closed or
        half-open circuit; if *every* circuit is open, probes the one
        that reopens soonest instead of giving up unprobed.
        """
        now = time.monotonic()
        count = len(self._endpoints)
        for step in range(count):
            ep = self._endpoints[(self._active + step) % count]
            if ep.failures < self.failure_threshold or now >= ep.open_until:
                self._active = ep.index
                return ep
        ep = min(self._endpoints, key=lambda e: e.open_until)
        self._active = ep.index
        return ep

    def _mark_failure(self, ep: _Endpoint | None) -> None:
        if ep is None:
            return
        ep.failures += 1
        if ep.failures >= self.failure_threshold:
            ep.open_until = time.monotonic() + self.cooldown_s
            # Rotate preference so the next attempt starts elsewhere.
            self._active = (ep.index + 1) % len(self._endpoints)

    @staticmethod
    def _mark_success(ep: _Endpoint) -> None:
        ep.failures = 0
        ep.open_until = 0.0

    def _ensure_connected(self) -> _Endpoint:
        if self._sock is not None and self._connected is not None:
            return self._connected
        ep = self._pick()
        # Recorded before the connect so a refused connection is
        # attributed to the endpoint that refused it.
        self._connected = ep
        self._sock = socket.create_connection(
            (ep.host, ep.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rb")
        return ep

    # -- the request loop ---------------------------------------------

    def _backoff(self, attempt: int, floor_ms: int | None = None) -> None:
        delay = min(
            self.backoff_cap, self.backoff_base * (2**attempt)
        )
        # Full jitter on the exponential term decorrelates retry
        # storms; the server's retry_after hint acts as a floor.
        delay *= 0.5 + self._rng.random() / 2
        if floor_ms is not None:
            delay = max(delay, floor_ms / 1e3)
        time.sleep(delay)

    def _read_response(self, request_id: int) -> dict:
        """One frame, capped and correlated; raises to force a retry."""
        assert self._file is not None
        line = self._file.readline(protocol.MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        if len(line) > protocol.MAX_LINE_BYTES:
            raise ProtocolError(
                f"response frame exceeds the "
                f"{protocol.MAX_LINE_BYTES}-byte limit"
            )
        response = protocol.parse_response(line)
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}; stream desynchronized"
            )
        return response

    def request(self, op: str, **fields: Any) -> dict:
        """One round trip; returns the response frame as a dict.

        Transport failures and ``overloaded`` responses are retried
        (capped exponential backoff with jitter, rotating endpoints as
        circuits open); anything else — including ``draining``,
        ``rejected`` and ``error`` — is returned to the caller, whose
        policy it is.  Raises :class:`ServerUnavailable` when every
        attempt failed, carrying the most recent ``retry_after_ms``
        hint seen on *any* attempt.
        """
        self._next_id += 1
        request_id = self._next_id
        frame = {
            "v": protocol.PROTOCOL_VERSION,
            "op": op,
            "id": request_id,
        }
        frame.update(
            {k: v for k, v in fields.items() if v is not None}
        )
        payload = protocol.encode(frame)
        last_error: Exception | None = None
        #: Most recent overload hint, carried into the final raise
        #: even when later attempts die on transport.
        last_retry_after: int | None = None
        #: Per-attempt backoff floor; reset after it is consumed.
        floor: int | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._backoff(attempt - 1, floor_ms=floor)
                floor = None
            ep: _Endpoint | None = None
            try:
                ep = self._ensure_connected()
                assert self._sock is not None
                self._sock.sendall(payload)
                response = self._read_response(request_id)
            except (OSError, ProtocolError, ConnectionError) as exc:
                last_error = exc
                self._mark_failure(ep if ep is not None else self._connected)
                self.close()
                continue
            if response["status"] == "overloaded":
                hint = response.get("retry_after_ms")
                last_error = ServerUnavailable(
                    "server overloaded", retry_after_ms=hint
                )
                last_retry_after = hint
                floor = hint
                continue
            self._mark_success(ep)
            return response
        targets = ",".join(ep.describe() for ep in self._endpoints)
        raise ServerUnavailable(
            f"{op} request to {targets} failed after "
            f"{self.retries + 1} attempt(s): {last_error}",
            retry_after_ms=last_retry_after,
        )

    # -- typed helpers ------------------------------------------------

    def imply(
        self,
        sigma: list[str],
        phi: str,
        context: str = "semistructured",
        schema: str | None = None,
        budget_ms: int | None = None,
        delay_ms: int | None = None,
        wedge: bool = False,
    ) -> dict:
        return self.request(
            "imply",
            sigma=list(sigma),
            phi=phi,
            context=context,
            schema=schema,
            budget_ms=budget_ms,
            delay_ms=delay_ms,
            wedge=wedge or None,
        )

    def check(self, graph: dict, constraints: list[str]) -> dict:
        return self.request(
            "check", graph=graph, constraints=list(constraints)
        )

    def query_contains(
        self,
        sigma: list[str],
        left: str,
        right: str,
        context: str = "semistructured",
        schema: str | None = None,
        budget_ms: int | None = None,
    ) -> dict:
        """Three-valued RPQ containment, solved server-side."""
        return self.request(
            "query",
            action="contains",
            sigma=list(sigma),
            left=left,
            right=right,
            context=context,
            schema=schema,
            budget_ms=budget_ms,
        )

    def query_optimize(
        self,
        sigma: list[str],
        branches: list[str],
        context: str = "semistructured",
        schema: str | None = None,
        budget_ms: int | None = None,
    ) -> dict:
        """Constraint-aware union optimization, solved server-side."""
        return self.request(
            "query",
            action="optimize",
            sigma=list(sigma),
            branches=list(branches),
            context=context,
            schema=schema,
            budget_ms=budget_ms,
        )

    def health(self) -> dict:
        return self.request("health")

    def stats(self) -> dict:
        return self.request("stats")

    def shutdown(self) -> dict:
        """Ask the server to drain (the remote SIGTERM)."""
        return self.request("shutdown")
