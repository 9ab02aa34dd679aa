"""The versioned JSON-lines wire protocol of the implication server.

One request or response per line, UTF-8 JSON objects, newline
terminated.  Every frame carries the protocol version under ``"v"``;
requests name their operation under ``"op"`` and may carry a client
correlation ``"id"`` that is echoed back verbatim.  The format is
deliberately self-describing and order-free so clients in any language
can speak it with a JSON library and a socket.

Operations
----------
``imply``
    ``sigma`` (list of constraint lines), ``phi`` (one constraint
    line), optional ``context`` (``semistructured``/``M``/``M+``/
    ``M+f``), ``schema`` (XML-Data text, required for typed contexts),
    ``budget_ms`` (client deadline, propagated into the solver's
    ``Budget`` and enforced while queued), ``jobs``, ``delay_ms``
    (testing instrument; honored only when the daemon allows it).
    ``budget_ms`` and ``delay_ms`` must be finite numbers >= 0; the
    daemon's default budget applies when ``budget_ms`` is absent, to
    ``query`` and ``check`` as well.
``check``
    ``graph`` (the ``repro.graph.serialize`` dict format) +
    ``constraints`` (list of lines), optional ``budget_ms``; returns
    the validation summary.
``query``
    constraint-aware query operations.  ``action`` picks one:
    ``contains`` (``sigma`` lines, ``left``/``right`` patterns,
    optional ``context``/``schema``) returns the three-valued
    containment verdict, method and witness; ``optimize`` (``sigma``
    lines + ``branches`` list) returns the optimized union with
    pruning/rewriting accounting.
``health``
    liveness + lifecycle state (``serving``/``draining``).
``stats``
    server counters, queue depth, solver-thread and cache statistics.
``shutdown``
    initiates a graceful drain (same path as SIGTERM).

Response statuses
-----------------
``ok``
    the operation ran; payload depends on the op.
``overloaded``
    admission control shed the request (bounded queue full, or the
    client budget provably cannot survive the current queue wait);
    carries ``retry_after_ms``.
``draining``
    the server is shutting down and refuses new work.
``rejected``
    the request was admitted but its deadline expired while queued —
    the answer is honestly ``unknown``, never a stale definite verdict.
``error``
    the request was malformed or the solver raised; carries ``error``.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ProtocolError

#: Bump on incompatible wire-format changes; both ends check it.
PROTOCOL_VERSION = 1

#: Hard cap on a single frame — a client streaming an unbounded line
#: must not be able to balloon the daemon's memory.
MAX_LINE_BYTES = 8 << 20

#: The closed set of request operations.
OPS = ("imply", "check", "query", "health", "stats", "shutdown")

#: Response statuses (closed vocabulary; clients switch on these).
STATUSES = ("ok", "overloaded", "draining", "rejected", "error")


def encode(message: dict) -> bytes:
    """One wire frame: compact JSON + newline."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def parse_request(line: bytes | str) -> dict:
    """Validate one request frame; raises :class:`ProtocolError`.

    Only the envelope is validated here (shape, version, operation);
    per-op payload errors surface later as ``error`` responses so the
    connection survives a bad request.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"frame of {len(line)} bytes exceeds the "
                f"{MAX_LINE_BYTES}-byte limit"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not UTF-8: {exc}") from None
    try:
        message = json.loads(line)
    except ValueError as exc:  # also an integer past the digit limit
        raise ProtocolError(f"frame is not JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})"
        )
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown operation {op!r} (expected one of {', '.join(OPS)})"
        )
    request_id = message.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError("request id must be a string or int")
    return message


def parse_response(line: bytes | str) -> dict:
    """Client-side frame validation; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"response is not UTF-8: {exc}") from None
    try:
        message = json.loads(line)
    except ValueError as exc:  # also an integer past the digit limit
        raise ProtocolError(f"response is not JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("response is not a JSON object")
    if message.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported response version {message.get('v')!r}"
        )
    if message.get("status") not in STATUSES:
        raise ProtocolError(
            f"unknown response status {message.get('status')!r}"
        )
    return message


# ---------------------------------------------------------------------------
# Response builders (the daemon's only way to emit frames, so every
# response carries the version and echoes the correlation id).
# ---------------------------------------------------------------------------


def _base(status: str, request_id: Any) -> dict:
    out: dict = {"v": PROTOCOL_VERSION, "status": status}
    if request_id is not None:
        out["id"] = request_id
    return out


def ok_response(request_id: Any, **fields: Any) -> dict:
    out = _base("ok", request_id)
    out.update(fields)
    return out


def error_response(request_id: Any, message: str) -> dict:
    out = _base("error", request_id)
    out["error"] = message
    return out


def overloaded_response(request_id: Any, retry_after_ms: int) -> dict:
    out = _base("overloaded", request_id)
    out["retry_after_ms"] = max(1, int(retry_after_ms))
    return out


def draining_response(request_id: Any) -> dict:
    out = _base("draining", request_id)
    out["error"] = "server is draining; no new work accepted"
    return out


def rejected_response(request_id: Any, reason: str) -> dict:
    out = _base("rejected", request_id)
    out["answer"] = "unknown"
    out["reason"] = reason
    return out


def hung_response(request_id: Any, reason: str) -> dict:
    """The honest answer for a solve the watchdog had to abandon.

    Same ``rejected``/UNKNOWN shape as a dead-budget rejection — a
    hung solve proves nothing about the instance — plus a ``faults``
    record carrying the ``hung_solve`` event (the wire shape of
    :meth:`repro.reasoning.result.FaultReport.to_dict`), so the
    abandonment is as auditable remotely as an engine fault is.
    """
    out = rejected_response(request_id, reason)
    out["faults"] = {
        "retries": 0,
        "degradations": 0,
        "answered_by": "",
        "events": [
            {
                "kind": "hung_solve",
                "engine": "watchdog",
                "attempt": 0,
                "detail": reason[:200],
            }
        ],
    }
    return out


def result_to_wire(
    result: Any,
    fragment: str,
    context: str,
    countermodel: dict | None = None,
) -> dict:
    """The serializable payload of a solved ``imply`` request.

    ``countermodel`` is passed explicitly, already serialized, or
    None when the requester asked for none; it is in the requester's
    alphabet, as a cache replay renames it.  Faults and cache
    participation travel verbatim so a degraded or replayed answer is
    exactly as auditable remotely as locally.
    """
    payload: dict = {
        "answer": result.answer.value,
        "method": result.method,
        "decidable": result.decidable,
        "complexity": result.complexity,
        "fragment": fragment,
        "context": context,
        "notes": list(result.notes),
        "faults": result.faults.to_dict(),
    }
    if result.cache is not None:
        payload["cache"] = result.cache.to_dict()
    if countermodel is not None:
        payload["countermodel"] = countermodel
    return payload
