"""The three in-process closed-loop workloads.

``decide-cold`` solves distinct decidable instances through a fresh
on-disk cache (every op a miss plus a store); ``semidecide-serial`` and
``semidecide-pool`` run one list of undecidable-cell instances through
the portfolio at ``jobs=1`` and ``jobs=2``.  One caller sends the next
op when the previous one returns.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import procs
import stats
from hostspeed import HostSpeed, loop_seconds
from tracing import Tracer, by_name, layer_metrics, share

from repro.reasoning import ImplicationCache, dispatcher
from repro.reasoning.runtime import retire_warm_pool, warm_pool_pids


@dataclass
class Sample:
    index: int
    start: float
    end: float
    cpu: float
    answer: str = ""
    error: str = ""
    result: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Segment:
    """One measured closed loop."""

    samples: list[Sample] = field(default_factory=list)
    host: HostSpeed = field(default_factory=HostSpeed)
    worker_cpu_s: float = 0.0
    worker_rss_mb: float = 0.0
    #: Per block run: (first sample, end sample, worker CPU seconds).
    blocks: list[tuple[int, int, float]] = field(default_factory=list)
    wall_s: float = 0.0
    spans: list = field(default_factory=list)

    def adjusted(self, sample: Sample) -> float:
        return sample.seconds * self.host.factor((sample.start + sample.end) / 2)


#: Host-adjusted seconds one block takes on the reference host (a
#: block of 30 ops for decide-cold, the whole 99-op pass for
#: semidecide), frozen with the benchmark like the nominal loop time.
NOMINAL_BLOCK_S = {
    "decide-cold": 0.306,
    "semidecide-serial": 3.2,
    "semidecide-pool": 2.0,
}


class Workload:
    """Op list, runner and checks of one in-process workload."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.jobs = 2 if name == "semidecide-pool" else 1
        texts = []
        if name == "decide-cold":
            self.blocks, pools = inputs.decide_cold_ops(seed)
            self.warmup = inputs.decide_cold_warmup(seed)
            texts.append(pools)
        else:
            self.blocks = [inputs.semidecide_ops(seed)]
            self.warmup = inputs.semidecide_warmup(seed)
        self.ops = [op for block in self.blocks for op in block]
        self.digest = inputs.digest(texts + [op.text for op in self.ops])
        self.cache: ImplicationCache | None = None
        self.cache_dirs = 0
        self.cache_counts = {"misses": 0, "stores": 0}

    # -- running ------------------------------------------------------

    def new_pass(self) -> None:
        """decide-cold: a fresh cache directory, so every op misses."""
        if self.name != "decide-cold":
            return
        self.close_cache()
        self.cache_dirs += 1
        self.cache = ImplicationCache(cache_dir=self.workdir / f"cache{self.cache_dirs}")

    def close_cache(self) -> None:
        if self.cache is not None:
            self.cache_counts["misses"] += self.cache.misses
            self.cache_counts["stores"] += self.cache.stores
            self.cache = None

    def solve(self, op, jobs: int | None = None):
        if self.name == "decide-cold":
            return dispatcher.solve(op.problem, cache=self.cache)
        return dispatcher.solve(op.problem, jobs=self.jobs if jobs is None else jobs)

    def warm_up(self) -> None:
        self.new_pass()
        for op in self.warmup:
            self.solve(op)
        self.close_cache()
        self.cache_counts = {"misses": 0, "stores": 0}

    def block_count(self, seconds: float) -> int:
        """Blocks one run measures: ``seconds`` of work at the nominal
        host speed.  A fixed count, not a clock, ends the loop, so every
        run of a seed measures the same ops and the tail rank lands on
        the same op class whatever the host's phase."""
        return max(1, math.ceil(seconds / NOMINAL_BLOCK_S[self.name]))

    def run(self, seconds: float, tracer: Tracer | None = None) -> Segment:
        seg = Segment()
        meter = procs.CpuMeter()
        meter.observe(warm_pool_pids(), starting=True)
        first_span = len(tracer.spans) if tracer else 0
        offsets = [0]
        for block in self.blocks:
            offsets.append(offsets[-1] + len(block))
        began = time.perf_counter()
        for count in range(self.block_count(seconds)):
            block_no = count % len(self.blocks)
            if block_no == 0:
                self.new_pass()
            first = len(seg.samples)
            worker_before = meter.total()
            for position, op in enumerate(self.blocks[block_no]):
                seg.host.maybe_sample()
                if tracer is not None:
                    tracer.op = len(seg.samples)
                sample = Sample(offsets[block_no] + position, 0.0, 0.0, 0.0)
                cpu0 = time.process_time()
                sample.start = time.perf_counter()
                try:
                    result = self.solve(op)
                except Exception as exc:  # noqa: BLE001 - a failed op is data
                    sample.end = time.perf_counter()
                    sample.error = f"{type(exc).__name__}: {exc}"
                else:
                    sample.end = time.perf_counter()
                    sample.answer = result.answer.value
                    sample.result = result
                sample.cpu = time.process_time() - cpu0
                seg.samples.append(sample)
            meter.observe(warm_pool_pids())
            seg.blocks.append((first, len(seg.samples), meter.total() - worker_before))
        seg.wall_s = time.perf_counter() - began
        seg.host.add(time.perf_counter(), loop_seconds())
        meter.observe(warm_pool_pids())
        seg.worker_cpu_s = meter.total()
        seg.worker_rss_mb = sum(procs.peak_rss_mb(pid) for pid in warm_pool_pids())
        self.close_cache()
        if tracer is not None:
            seg.spans = tracer.spans[first_span:]
        return seg

    # -- checks -------------------------------------------------------

    def check(self, segments: list[Segment]) -> list[str]:
        """Verify every answer; failing samples get ``error`` set."""
        problems: list[str] = []
        verdicts = checks.Verdicts()
        letters: dict[int, str] = {}
        for seg in segments:
            for sample in seg.samples:
                if sample.error:
                    problems.append(f"op {sample.index}: {sample.error}")
                    continue
                op = self.ops[sample.index]
                if not verdicts.add(sample.index, sample.answer, "repeat"):
                    sample.error = "verdict differs across repeats"
                countermodel = sample.result.countermodel
                if countermodel is not None and not checks.countermodel_ok(
                    op.problem.sigma, op.problem.phi, countermodel
                ):
                    sample.error = "countermodel fails the independent re-check"
                if self.name != "decide-cold" and sample.answer == "false" and countermodel is None:
                    sample.error = "portfolio FALSE without a countermodel"
                letters[sample.index] = checks.LETTER[sample.answer]
                if sample.error:
                    problems.append(f"op {sample.index}: {sample.error}")
        problems += verdicts.flips
        if self.name == "decide-cold":
            attempted = sum(len(seg.samples) for seg in segments)
            for key in ("misses", "stores"):
                if self.cache_counts[key] != attempted:
                    problems.append(
                        f"cache {key} {self.cache_counts[key]} != {attempted} ops"
                    )
        else:
            problems += self._cross_check(verdicts)
        if self.seed == 0:
            key = "semidecide" if self.name.startswith("semidecide") else self.name
            mismatches = checks.compare_expected(key, self.digest, letters)
            problems += mismatches
            bad = {int(m.split()[1].rstrip(":")) for m in mismatches if m.startswith("op ")}
            for seg in segments:
                for sample in seg.samples:
                    if sample.index in bad and not sample.error:
                        sample.error = "verdict differs from the expected file"
        self.letters = letters
        return problems

    def _cross_check(self, verdicts: checks.Verdicts) -> list[str]:
        """Serial and pool must agree: solve every op once the other way."""
        other = 1 if self.jobs == 2 else 2
        problems = []
        for index, op in enumerate(self.ops):
            result = self.solve(op, jobs=other)
            if not verdicts.add(index, result.answer.value, f"jobs={other}"):
                problems.append(f"op {index}: jobs={self.jobs} vs jobs={other} disagree")
            if result.countermodel is not None and not checks.countermodel_ok(
                op.problem.sigma, op.problem.phi, result.countermodel
            ):
                problems.append(f"op {index}: jobs={other} countermodel fails re-check")
        retire_warm_pool()
        return problems


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def end_to_end(seg: Segment, adjust: bool = True) -> dict:
    """The closed-loop end-to-end metrics of one segment.

    Throughput and CPU per op are medians over the blocks run (a block
    is a balanced slice of the op list), so one slow phase of the host
    moves one block, not the result; latencies pool every sample.
    """
    samples = seg.samples
    n = len(samples)
    raw = [s.seconds for s in samples]
    adj = [seg.adjusted(s) for s in samples] if adjust else raw
    failed = [bool(s.error) for s in samples]
    lat = [math.inf if bad else t for t, bad in zip(adj, failed)]
    rates, cpus = [], []
    for first, end, worker_cpu in seg.blocks:
        block_adj = sum(adj[first:end])
        ratio = block_adj / sum(raw[first:end])
        ok = sum(1 for bad in failed[first:end] if not bad)
        rates.append(ok / block_adj)
        cpu = sum(s.cpu for s in samples[first:end]) + worker_cpu
        cpus.append(cpu * ratio / (end - first))
    definite = sum(1 for s, bad in zip(samples, failed) if not bad and s.answer in ("true", "false"))
    tail = stats.tail(lat)
    return {
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": stats.median(lat) * 1e3,
        "latency_tail_ms": tail["value"] * 1e3,
        "tail_percentile": tail["percentile"],
        "tail_samples": tail["samples"],
        "decided_share": definite / n,
        "answered_share": (n - sum(failed)) / n,
        "cpu_ms_per_op": statistics.median(cpus) * 1e3,
        "blocks": len(seg.blocks),
        "attempted": n,
        "failed": sum(failed),
    }


def per_layer(seg: Segment, untraced: Segment) -> dict:
    """Per-layer metrics of a traced in-process segment."""
    n = len(seg.samples)
    names = by_name(seg.spans)
    out = layer_metrics(seg.spans, names, n)
    results = [s.result for s in seg.samples if s.result is not None]
    portfolio = [r for r in results if r.execution is not None]
    chase = [e for r in portfolio for e in r.stats if e.engine == "chase"]
    scans = [e for r in portfolio for e in r.stats
             if e.engine != "chase" and e.outcome != "cancelled"]
    decided = [r for r in portfolio if r.answer.is_definite]
    codes = sum(e.candidates for e in scans)
    scan_s = sum(e.elapsed for e in scans)
    out.update({
        "reasoning.portfolio.pool_share": share(
            sum(1 for r in portfolio if r.execution.mode.value == "pool"), len(portfolio)),
        "reasoning.portfolio.chase_win_ratio": share(
            sum(1 for r in decided if r.faults.answered_by == "chase"), len(decided)),
        "reasoning.chase.ms_per_op": sum(e.elapsed for e in chase) / n * 1e3,
        "reasoning.chase.steps_per_op": sum(e.candidates for e in chase) / n,
        "reasoning.models.codes_per_op": codes / n,
        "reasoning.models.codes_per_s": codes / scan_s if scan_s else 0.0,
        "reasoning.models.found_ratio": share(
            sum(1 for e in scans if e.outcome == "hit"), len(scans)),
        "reasoning.runtime.worker_cpu_ms_per_op": seg.worker_cpu_s / n * 1e3,
        "reasoning.runtime.respawns_per_op": sum(
            1 for r in results for e in r.faults.events if e.kind == "pool-respawn") / n,
    })
    mean_traced = statistics.fmean(s.seconds for s in seg.samples)
    out["trace.unaccounted_ms_per_op"] = mean_traced * 1e3 - sum(
        entry["self_s"] for entry in names.values()) / n * 1e3
    out["trace.overhead_ratio"] = (
        statistics.fmean(seg.adjusted(s) for s in seg.samples)
        / statistics.fmean(untraced.adjusted(s) for s in untraced.samples) - 1.0
    )
    return out
