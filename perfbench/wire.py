"""The open-loop wire workload against a real ``repro serve``.

A single-process asyncio generator sends a seeded Poisson schedule at
a fixed rate over two connections and times each request from its
*intended* send time, so a stall is charged to every request it
delays.  The daemon runs with its default configuration and a fresh
cache directory inside the benchmark's work directory.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import hostspeed
import inputs
import procs
import stats
from tracing import by_name, layer_metrics

from repro.query import QueryContainmentChecker
from repro.reasoning import dispatcher

#: Offered load and latency limit; see README.md for the knee sweep
#: they were derived from.
RATE_PER_S = 75.0
LATENCY_LIMIT_MS = 100.0
CONNECTIONS = 2
#: A run whose generator sent more than 1% of requests later than
#: this is invalid: the schedule, not the daemon, was being measured.
MAX_LAG_MS = 20.0
#: Bound on waiting for the daemon to start, answer, or drain.
TIMEOUT_S = 60.0
#: Fewer spinner samples than this leave the latencies unadjustable
#: (a 10-s run takes over 10 000).
MIN_HOST_SAMPLES = 1000

HERE = Path(__file__).resolve().parent


@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int
    workdir: Path
    spans_file: Path | None = None


@dataclass
class WireRun:
    sent: list[float] = field(default_factory=list)
    intended: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    responses: list[dict | None] = field(default_factory=list)
    daemon_cpu_s: float = 0.0
    daemon_rss_mb: float = 0.0
    stats: dict = field(default_factory=dict)
    stats_before: dict = field(default_factory=dict)
    #: perf_counter bounds of the measured exchange.
    window: tuple[float, float] = (0.0, 0.0)
    spans: dict = field(default_factory=dict)
    exit_code: int | None = None
    leftover: list[int] = field(default_factory=list)
    letters: dict = field(default_factory=dict)
    #: Host-speed samples the spinners took around the exchange.
    host: hostspeed.HostSpeed = field(default_factory=hostspeed.HostSpeed)

    def latency(self, index: int) -> float:
        """Seconds from intended send to answer (inf if unanswered)."""
        return self.done[index] - self.intended[index]


def schedule(seed: int, count: int, seconds: float) -> list[float]:
    """Poisson arrival offsets, normalised to span exactly ``seconds``."""
    rng = random.Random(f"wire-schedule:{seed}")
    gaps = [rng.expovariate(1.0) for _ in range(count)]
    scale = seconds / sum(gaps)
    offsets, at = [], 0.0
    for gap in gaps:
        at += gap * scale
        offsets.append(at)
    return offsets


def spawn(root: Path, workdir: Path, traced: bool) -> Daemon:
    """Start a daemon and wait until it listens."""
    workdir.mkdir(parents=True, exist_ok=True)
    port_file = workdir / "port"
    port_file.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env.pop("REPRO_INJECT", None)
    serve = ["serve", "--port", "0", "--port-file", str(port_file),
             "--cache-dir", str(workdir / "cache")]
    spans_file = None
    if traced:
        spans_file = workdir / "spans.json"
        argv = [sys.executable, str(HERE / "launcher.py"), str(spans_file), *serve]
    else:
        argv = [sys.executable, "-m", "repro", *serve]
    with open(workdir / "stderr.txt", "w") as stderr:
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
    deadline = time.monotonic() + TIMEOUT_S
    while not port_file.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"daemon failed to start: {(workdir / 'stderr.txt').read_text()[-2000:]}")
        time.sleep(0.005)
    port = int(port_file.read_text())
    return Daemon(proc, port, workdir, spans_file)


async def _exchange(port: int, frames: list[bytes], offsets: list[float] | None,
                    run: WireRun, timeout: float) -> None:
    """Send ``frames`` (on a schedule when ``offsets`` is given, else
    back to back) and collect the responses, matched by index id."""
    conns = [await asyncio.open_connection("127.0.0.1", port, limit=16 << 20)
             for _ in range(CONNECTIONS)]
    n = len(frames)
    remaining = [n]
    finished = asyncio.Event()

    async def reader(stream: asyncio.StreamReader) -> None:
        while True:
            line = await stream.readline()
            if not line:
                return
            now = time.perf_counter()
            message = json.loads(line)
            index = message.get("id")
            if isinstance(index, int) and 0 <= index < n and run.responses[index] is None:
                run.done[index] = now
                run.responses[index] = message
                remaining[0] -= 1
                if remaining[0] == 0:
                    finished.set()

    readers = [asyncio.create_task(reader(r)) for r, _w in conns]
    start = time.perf_counter() + 0.02
    for index, frame in enumerate(frames):
        if offsets is not None:
            intended = start + offsets[index]
            delay = intended - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        else:
            intended = time.perf_counter()
        run.intended[index] = intended
        run.sent[index] = time.perf_counter()
        writer = conns[index % CONNECTIONS][1]
        writer.write(frame)
        if offsets is None:
            await writer.drain()
    try:
        await asyncio.wait_for(finished.wait(), timeout)
    except asyncio.TimeoutError:
        pass
    for _r, writer in conns:
        writer.close()
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _r, writer in conns:
        try:
            await writer.wait_closed()
        except OSError:
            pass


def exchange(port: int, requests: list[dict], offsets: list[float] | None = None) -> WireRun:
    frames = []
    for index, request in enumerate(requests):
        framed = dict(request, id=index)
        frames.append(json.dumps(framed, separators=(",", ":")).encode() + b"\n")
    n = len(frames)
    run = WireRun(sent=[0.0] * n, intended=[0.0] * n, done=[math.inf] * n, responses=[None] * n)
    asyncio.run(_exchange(port, frames, offsets, run, TIMEOUT_S))
    return run


def control(port: int, op: str) -> dict:
    run = exchange(port, [{"v": 1, "op": op}])
    return run.responses[0] or {}


def start_primed(root: Path, workdir: Path, mix: inputs.WireMix, traced: bool) -> Daemon:
    """Spawn a daemon and prime its cache with the working set."""
    daemon = spawn(root, workdir, traced)
    primed = exchange(daemon.port, [op.request for op in mix.primes])
    bad = [i for i, r in enumerate(primed.responses) if not r or r.get("status") != "ok"]
    if bad:
        stop(daemon)
        raise RuntimeError(f"priming failed for working-set members {bad}")
    return daemon


def stop(daemon: Daemon) -> tuple[int | None, list[int]]:
    """Drain the daemon; return its exit code and any surviving children."""
    kids = procs.children(daemon.proc.pid)
    try:
        control(daemon.port, "shutdown")
        code = daemon.proc.wait(timeout=TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        daemon.proc.kill()
        code = daemon.proc.wait()
    return code, procs.wait_gone(kids)


def _lowest_priority() -> None:
    os.nice(19)


def start_spinners() -> list[subprocess.Popen]:
    """One lowest-priority calibration loop per CPU, once all run.

    On a VM host an idle vCPU pays a wake-up delay from the hypervisor
    each time a request arrives; in some periods that alone doubled the
    median latency while the calibration loop did not move.  A nice-19
    spinner keeps every vCPU running and yields at once to the daemon
    or the generator, so the wake-up is the guest's, not the host's.
    On four interleaved seeds the median latency's spread fell from 36%
    without spinners to 8% with them.  What each spinner loops over is
    the calibration loop, timed on its own CPU clock: the host-speed
    samples for the open loop (see hostspeed.py).
    """
    spinners = []
    try:
        for _ in range(os.cpu_count() or 1):
            spinners.append(subprocess.Popen([sys.executable, str(HERE / "hostspeed.py")],
                                             stdout=subprocess.PIPE, text=True,
                                             preexec_fn=_lowest_priority))
        for spinner in spinners:
            if spinner.stdout.readline().strip() != "ready":
                raise RuntimeError("a calibration spinner failed to start")
    except BaseException:
        stop_spinners(spinners)
        raise
    return spinners


def stop_spinners(spinners: list[subprocess.Popen]) -> hostspeed.HostSpeed:
    """Stop the spinners and gather their samples."""
    host = hostspeed.HostSpeed(nearest=hostspeed.SPIN_NEAREST)
    for spinner in spinners:
        spinner.terminate()
    for spinner in spinners:
        try:
            out, _err = spinner.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            spinner.kill()
            out, _err = spinner.communicate()
        try:
            dumped = json.loads(out)
        except ValueError:
            continue
        host.extend(dumped["times"], dumped["samples"])
    return host


def measure(daemon: Daemon, mix: inputs.WireMix, offsets: list[float]) -> WireRun:
    meter = procs.CpuMeter()
    pid = daemon.proc.pid
    stats_before = control(daemon.port, "stats")
    spinners = start_spinners()
    try:
        meter.observe([pid, *procs.children(pid)], starting=True)
        began = time.perf_counter()
        run = exchange(daemon.port, [op.request for op in mix.ops], offsets)
        run.window = (began, time.perf_counter())
        meter.observe([pid, *procs.children(pid)])
    finally:
        host = stop_spinners(spinners)
    run.host = host
    run.stats_before = stats_before
    run.daemon_cpu_s = meter.total()
    run.daemon_rss_mb = procs.peak_rss_mb(pid) + sum(
        procs.peak_rss_mb(child) for child in procs.children(pid))
    run.stats = control(daemon.port, "stats")
    run.exit_code, run.leftover = stop(daemon)
    if daemon.spans_file is not None and daemon.spans_file.exists():
        dumped = json.loads(daemon.spans_file.read_text())
        began, ended = run.window
        run.spans = {
            "spans": [s for s in dumped["spans"] if began <= s[3] and s[4] <= ended],
            "events": [e for e in dumped["events"] if began <= e[2] <= ended],
        }
    return run


# ---------------------------------------------------------------------------
# Checks and metrics.
# ---------------------------------------------------------------------------


def in_process_answers(mix: inputs.WireMix) -> dict[str, str]:
    """The in-process verdict of every base instance the mix used."""
    used = {op.base for op in mix.ops} | {op.base for op in mix.primes}
    answers = {}
    for key in sorted(used):
        base = mix.bases[key]
        if isinstance(base, tuple):
            sigma, left, right = base
            answers[key] = QueryContainmentChecker(sigma, jobs=1).contains(left, right).verdict.value
        else:
            answers[key] = dispatcher.solve(base).answer.value
    return answers


def check(run: WireRun, mix: inputs.WireMix, answers: dict[str, str], seed: int) -> tuple[list[bool], list[str]]:
    """Per-request failure flags and the problems found."""
    from repro.constraints import parse_constraint, parse_constraints

    failed, problems, letters = [], [], {}
    for index, (op, response) in enumerate(zip(mix.ops, run.responses)):
        problem = None
        if response is None:
            problem = "no response (transport failure or timeout)"
        elif response.get("status") != "ok":
            problem = f"status {response.get('status')}: {response.get('error') or response.get('reason')}"
        else:
            verdict = response.get("verdict") if op.kind == "query" else response.get("answer")
            letters[index] = checks.LETTER.get(verdict, "?")
            if verdict != answers[op.base]:
                problem = f"wire answered {verdict}, in-process {answers[op.base]}"
            elif response.get("countermodel") is not None and not checks.countermodel_ok(
                parse_constraints("\n".join(op.sigma)), parse_constraint(op.phi), response["countermodel"]
            ):
                problem = "countermodel fails the independent re-check"
        failed.append(problem is not None)
        if problem:
            problems.append(f"request {index} ({op.kind}): {problem}")
    if seed == 0:
        # Kept for the benchmark's own run length only (the mix grows
        # with --seconds).
        problems += checks.compare_expected(
            f"wire-mix:{len(mix.ops)}", mix.digest(), letters, required=False)
    lateness = [s - i for s, i in zip(run.sent, run.intended)]
    late = sum(1 for value in lateness if value > MAX_LAG_MS / 1e3)
    if late > 0.01 * len(lateness):
        problems.append(f"generator ran late: {late} sends over {MAX_LAG_MS} ms behind schedule")
    if len(run.host.samples) < MIN_HOST_SAMPLES:
        problems.append(f"only {len(run.host.samples)} host-speed samples from the spinners")
    if run.exit_code != 0:
        problems.append(f"daemon exited with {run.exit_code} after drain")
    if run.leftover:
        problems.append(f"daemon children left running: {run.leftover}")
    run.letters = letters
    return failed, problems


def end_to_end(run: WireRun, failed: list[bool], adjust: bool = True) -> dict:
    """Latencies and CPU per op at the nominal host speed (or raw).

    Each latency is scaled by the spinner samples nearest its midpoint;
    the daemon's CPU by the mean of those scales.  ``ops_per_s`` stays
    raw: whether a request met the limit is a fact of the schedule.
    """
    n = len(run.responses)
    # The schedule as it ran: first intended send to last answer.
    span_s = max(d for d in run.done if math.isfinite(d)) - run.intended[0]
    raw = [math.inf if bad else run.latency(i) for i, bad in enumerate(failed)]
    in_limit = sum(1 for value in raw if value <= LATENCY_LIMIT_MS / 1e3)
    factors = [run.host.factor((intended + min(done, run.window[1])) / 2) if adjust else 1.0
               for intended, done in zip(run.intended, run.done)]
    lat = [value * factor for value, factor in zip(raw, factors)]
    definite = 0
    for bad, response in zip(failed, run.responses):
        if not bad:
            verdict = response.get("verdict", response.get("answer"))
            definite += verdict in ("true", "false")
    tail = stats.tail(lat)
    lateness = sorted(s - i for s, i in zip(run.sent, run.intended))
    return {
        "ops_per_s": in_limit / span_s,
        "latency_p50_ms": stats.median(lat) * 1e3,
        "latency_tail_ms": tail["value"] * 1e3,
        "tail_percentile": tail["percentile"],
        "tail_samples": tail["samples"],
        "decided_share": definite / n,
        "answered_share": (n - sum(failed)) / n,
        "cpu_ms_per_op": run.daemon_cpu_s / n * 1e3 * statistics.fmean(factors),
        "peak_rss_mb": run.daemon_rss_mb,
        "attempted": n,
        "failed": sum(failed),
        "generator_lag_ms_p99": stats.quantile(lateness, 0.99) * 1e3,
        "generator_lag_ms_max": lateness[-1] * 1e3,
    }


def per_layer(run: WireRun, untraced: WireRun, mix: inputs.WireMix, failed: list[bool]) -> dict:
    n = len(mix.ops)
    spans = [tuple(span) for span in run.spans.get("spans", [])]
    names = by_name(spans)
    out = layer_metrics(spans, names, n)
    waits = [event[1] for event in run.spans.get("events", []) if event[0] == "queue_wait"]
    solves = [span[4] - span[3] for span in spans if span[2] == "ImplicationServer._solve_blocking"]
    dedup = {key: run.stats.get("dedup", {}).get(key, 0) - run.stats_before.get("dedup", {}).get(key, 0)
             for key in ("led", "coalesced")}
    queries = [r for op, r in zip(mix.ops, run.responses) if op.kind == "query" and r]
    out.update({
        "server.daemon.queue_wait_ms_p50": (stats.median(waits) if waits else 0.0) * 1e3,
        "server.daemon.queue_wait_ms_p99": (stats.quantile(waits, 0.99) if waits else 0.0) * 1e3,
        "server.daemon.solve_ms_p50": (stats.median(solves) if solves else 0.0) * 1e3,
        "server.daemon.cpu_ms_per_op": run.daemon_cpu_s / n * 1e3,
        "server.singleflight.coalesced_ratio": dedup["coalesced"] / max(
            1, dedup["coalesced"] + dedup["led"]),
        "query.containment.solve_calls_per_op": sum(
            r.get("stats", {}).get("solve_calls", 0) for r in queries) / n,
    })
    ok = [done - intended for bad, done, intended in zip(failed, run.done, run.intended) if not bad]
    base = [done - intended for done, intended in zip(untraced.done, untraced.intended)
            if math.isfinite(done)]
    out["trace.unaccounted_ms_per_op"] = statistics.fmean(ok) * 1e3 - sum(
        entry["self_s"] for entry in names.values()) / n * 1e3
    # Medians: a few slow requests would swing a ratio of means.
    out["trace.overhead_ratio"] = statistics.median(ok) / statistics.median(base) - 1.0
    return out
