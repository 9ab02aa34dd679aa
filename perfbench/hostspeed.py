"""Host-speed adjustment of the benchmark's timings.

The benchmark host alternates fast and slow phases lasting seconds,
which moves raw in-process timings by 10-18% from run to run.  The
load generator therefore times a fixed pure-Python loop every few ops
(only between ops, never while one is in flight) and scales each op's
time by ``NOMINAL_LOOP_S / median(nearest loop samples)``: an op that
ran while the loop ran 20% slow is reported 20% faster.

The open-loop wire workload cannot sample between ops: its requests
overlap and the daemon's CPU is not the generator's.  There the loop
runs instead in one lowest-priority spinner process per CPU
(``python3 perfbench/hostspeed.py``), each run timed on the
spinner's own CPU clock, so the time the daemon preempts it is not
counted and the sample reads host speed, not load.

This module imports nothing from the program under test, and the loop
runs with the garbage collector off over preallocated data, so the
program's heap cannot slow it.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import sys
import time

#: Loop iterations per sample (about 1 ms on the reference host).
LOOP_ITERATIONS = 8000

#: Median loop time on the reference host (2-vCPU VM, Python 3.11),
#: frozen with the benchmark: adjusted times read as if every op ran
#: at this speed.
NOMINAL_LOOP_S = 0.00097

#: Minimum gap between two samples.
SAMPLE_INTERVAL_S = 0.025

#: Samples whose median scales one op (the nearest in time).
NEAREST = 5

#: The same for spinner samples, which come about 600 per second per
#: CPU while the wire mix runs: 101 span about 80 ms.
SPIN_NEAREST = 101

_TABLE = list(range(256))
_KEYS = {i: (i * 7) & 0xFF for i in range(64)}


def loop_seconds(clock=time.perf_counter) -> float:
    """Time one run of the fixed calibration loop on ``clock``."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        table = _TABLE
        keys = _KEYS
        acc = 0
        start = clock()
        for i in range(LOOP_ITERATIONS):
            acc = (acc * 31 + table[i & 255] + keys[i & 63]) & 0xFFFFF
        return clock() - start
    finally:
        if was_enabled:
            gc.enable()


def spin() -> None:
    """Print ``ready``, run the loop until SIGTERM, then print one JSON
    object: each run's midpoint (``perf_counter``, comparable across
    processes) and its CPU seconds."""
    times: list[float] = []
    samples: list[float] = []
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(0))
    print("ready", flush=True)
    try:
        while True:
            began = time.perf_counter()
            seconds = loop_seconds(time.thread_time)
            times.append((began + time.perf_counter()) / 2)
            samples.append(seconds)
    finally:
        print(json.dumps({"times": times, "samples": samples}), flush=True)


class HostSpeed:
    """Calibration samples, and the op-time scaler."""

    def __init__(self, nominal: float = NOMINAL_LOOP_S, nearest: int = NEAREST) -> None:
        self.nominal = nominal
        self.nearest = nearest
        self.times: list[float] = []
        self.samples: list[float] = []
        self._last = float("-inf")

    def maybe_sample(self) -> None:
        """Sample unless one was taken within ``SAMPLE_INTERVAL_S``."""
        now = time.perf_counter()
        if now - self._last >= SAMPLE_INTERVAL_S:
            self.add(now, loop_seconds())
            self._last = time.perf_counter()

    def add(self, at: float, seconds: float) -> None:
        """Record a sample taken at ``at`` (perf_counter seconds)."""
        index = bisect.bisect(self.times, at)
        self.times.insert(index, at)
        self.samples.insert(index, seconds)

    def extend(self, times: list[float], samples: list[float]) -> None:
        """Record many samples at once."""
        merged = sorted([*zip(self.times, self.samples), *zip(times, samples)])
        self.times = [at for at, _seconds in merged]
        self.samples = [seconds for _at, seconds in merged]

    def factor(self, at: float) -> float:
        """Scale for an op whose midpoint is ``at``: nominal over the
        median of the ``nearest`` samples closest in time."""
        if not self.samples:
            return 1.0
        index = bisect.bisect(self.times, at)
        lo, hi = index - 1, index
        picked: list[float] = []
        while len(picked) < self.nearest and (lo >= 0 or hi < len(self.times)):
            take_lo = hi >= len(self.times) or (
                lo >= 0 and at - self.times[lo] <= self.times[hi] - at
            )
            if take_lo:
                picked.append(self.samples[lo])
                lo -= 1
            else:
                picked.append(self.samples[hi])
                hi += 1
        return self.nominal / statistics.median(picked)

    def summary(self) -> dict:
        if not self.samples:
            return {"samples": 0}
        ordered = sorted(self.samples)
        return {
            "samples": len(ordered),
            "loop_ms_median": statistics.median(ordered) * 1e3,
            "loop_ms_min": ordered[0] * 1e3,
            "loop_ms_max": ordered[-1] * 1e3,
            "nominal_loop_ms": self.nominal * 1e3,
        }


if __name__ == "__main__":
    spin()
