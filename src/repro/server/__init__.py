"""The constraint-implication server: a long-lived daemon multiplexing
implication queries onto the solver.

The ROADMAP's production-scale north star needs more than a fast
``solve()`` — it needs the robustness machinery (monotonic budgets,
fault accounting, the cross-request cache) to compose under
*concurrent* load.  This package provides that composition point:

* :mod:`repro.server.protocol` — the versioned JSON-lines wire format
  (``imply``/``check``/``query``/``health``/``stats``/``shutdown``
  requests);
* :mod:`repro.server.daemon` — the asyncio server itself: bounded
  admission queue with explicit load-shedding, client-budget deadline
  propagation, graceful SIGTERM drain, cache sharing across
  connections;
* :mod:`repro.server.client` — a blocking client library with
  timeouts, capped-exponential retry with jitter, multi-endpoint
  failover behind per-endpoint circuit breakers, and honest fault
  surfacing (``result.faults`` travels over the wire);
* :mod:`repro.server.chaos` — deterministic wire-level chaos: a
  seeded fault-perpetrating TCP proxy, an embedded-daemon harness,
  and the ``repro chaos`` acceptance sweep (no fault may flip a
  definite verdict; wedged solves are reclaimed in bounded time).

The connection/drain discipline follows EdgeDB's server (bounded
queues, drain-then-exit) and Twisted's service idioms (one reactor,
explicit lifecycle).  Repeated and alpha-renamed requests are served by
the shared implication cache, which leans on the
containment-under-constraints observation (Calvanese-De
Giacomo-Lenzerini) that an implication verdict is a pure function of
the instance's structure.
"""

from repro.server.client import (
    ServerClient,
    parse_endpoints,
    parse_host_port,
)
from repro.server.daemon import ImplicationServer, ServerConfig
from repro.server.protocol import PROTOCOL_VERSION

__all__ = [
    "ImplicationServer",
    "PROTOCOL_VERSION",
    "ServerClient",
    "ServerConfig",
    "parse_endpoints",
    "parse_host_port",
]
