"""Summary statistics shared by every workload (stdlib only)."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with this many samples beyond it.
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    """Median; a failed op (``inf``) counts as infinitely slow."""
    return statistics.median(values) if values else math.nan


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> dict:
    """The highest percentile with at least ``beyond`` samples above it.

    With ``n`` sorted samples this is the nearest-rank value at rank
    ``n - beyond``, i.e. the ``100 * (n - beyond) / n`` percentile.
    Below ``beyond + 1`` samples no such percentile exists and the
    maximum is reported with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": math.nan, "percentile": math.nan, "samples": 0}
    if n <= beyond:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n}
    rank = n - beyond
    return {
        "value": ordered[rank - 1],
        "percentile": 100.0 * rank / n,
        "samples": n,
    }


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def finite(value: float) -> float:
    """JSON-safe number: an infinite latency is written as 1e300."""
    if math.isinf(value):
        return 1e300
    return value
