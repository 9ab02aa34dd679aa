"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide-cold --seed 0 --seconds 10 --trace 0

Run from the repository root.  With ``--trace 0`` the last stdout line
is a JSON object carrying the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run (preceded by an untraced
run of the same length, for the tracing overhead).  The full report,
including raw (unadjusted) values and the host block, is written to
``perfbench/results/``.  See README.md for the workloads.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("decide-cold", "semidecide-serial", "semidecide-pool", "wire-mix")
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_share": "ratio",
    "answered_share": "ratio",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
#: Set-up repetitions whose median is reported as ``setup_s``.
SETUP_PROBES = 5
WIRE_SETUPS = 5


def per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def host_block(root: Path) -> dict:
    """cpus, Python and numpy versions, and the code measured: the git
    sha in a git checkout, always a digest of ``src/``."""
    import hashlib

    import numpy

    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "cpus": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the pool path started,
    so the run leaves no child process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def timed_setup(start) -> tuple[float, float]:
    """Raw and host-adjusted seconds of one set-up ``start()``.

    The parent is idle meanwhile, so it samples the calibration loop
    just before and after and scales by the median of those samples.
    """
    import hostspeed

    before = [hostspeed.loop_seconds() for _ in range(3)]
    began = time.perf_counter()
    start()
    elapsed = time.perf_counter() - began
    after = [hostspeed.loop_seconds() for _ in range(3)]
    return elapsed, elapsed * hostspeed.NOMINAL_LOOP_S / statistics.median(before + after)


def probe_setup(argv: list[str]) -> None:
    """One fresh set-up: spawn until the probe process says 'ready'."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    proc.stdout.read()
    code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")


def run_inprocess(args, root: Path, workdir: Path, report: dict) -> tuple[dict, list[str], int, int]:
    import inproc
    import procs
    from tracing import Tracer

    from repro.reasoning.runtime import retire_warm_pool

    workload = inproc.Workload(args.workload, args.seed, workdir)
    workload.warm_up()
    report["setup_main_s"] = time.perf_counter() - T_START
    if args.probe:
        print("ready", flush=True)
        retire_warm_pool()
        return {}, [], 0, 0
    report["op_digest"] = workload.digest
    report["ops_in_list"] = len(workload.ops)
    segments = [workload.run(args.seconds)]
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            segments.append(workload.run(args.seconds, tracer))
        finally:
            tracer.uninstall()
    problems = workload.check(segments)
    retire_warm_pool()
    stop_resource_tracker()
    leftover = procs.wait_gone(procs.children(os.getpid()))
    if leftover:
        problems.append(f"pool workers left running: {leftover}")
    main = segments[-1]
    adjusted = inproc.end_to_end(main)
    rss = procs.self_peak_rss_mb()
    report["segments"] = [
        {"adjusted": inproc.end_to_end(seg), "raw": inproc.end_to_end(seg, adjust=False),
         "wall_s": seg.wall_s, "host_speed": seg.host.summary()}
        for seg in segments
    ]
    report["verdicts"] = "".join(workload.letters.get(i, ".") for i in range(len(workload.ops)))
    if args.trace:
        metrics = inproc.per_layer(segments[1], segments[0])
    else:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--probe"]
        setups = [timed_setup(lambda: probe_setup(argv)) for _ in range(SETUP_PROBES)]
        report["setup_runs_s"] = {"raw": [raw for raw, _adj in setups],
                                  "adjusted": [adj for _raw, adj in setups]}
        metrics = {name: adjusted[name] for name in END_TO_END if name in adjusted}
        metrics["peak_rss_mb"] = rss + main.worker_rss_mb
        metrics["setup_s"] = statistics.median(adj for _raw, adj in setups)
        report["tail"] = {"percentile": adjusted["tail_percentile"], "samples": adjusted["tail_samples"]}
    return metrics, problems, len(main.samples), adjusted["failed"]


def run_wire(args, root: Path, workdir: Path, report: dict) -> tuple[dict, list[str], int, int]:
    import inputs
    import wire

    count = int(round(wire.RATE_PER_S * args.seconds))
    mix = inputs.wire_mix(args.seed, count)
    offsets = wire.schedule(args.seed, count, args.seconds)
    report["op_digest"] = mix.digest()
    report["rate_per_s"] = wire.RATE_PER_S
    report["latency_limit_ms"] = wire.LATENCY_LIMIT_MS
    answers = wire.in_process_answers(mix)
    runs, problems, setups, started = [], [], [], []
    try:
        for traced in [False, True] if args.trace else [False]:
            daemons = 1 if args.trace else WIRE_SETUPS
            for attempt in range(daemons):
                workdir_n = workdir / f"daemon-{int(traced)}-{attempt}"
                setups.append(timed_setup(
                    lambda: started.append(wire.start_primed(root, workdir_n, mix, traced))))
                if attempt < daemons - 1:
                    code, leftover = wire.stop(started[-1])
                    if code != 0 or leftover:
                        problems.append(f"set-up daemon exit {code}, leftover {leftover}")
            run = wire.measure(started[-1], mix, offsets)
            failed, found = wire.check(run, mix, answers, args.seed)
            problems += found
            runs.append((run, failed))
    finally:
        # Normally every daemon has drained by now; this only reaps
        # what an exception left behind.
        for daemon in started:
            if daemon.proc.poll() is None:
                daemon.proc.kill()
                daemon.proc.wait()
    run, failed = runs[-1]
    e2e = wire.end_to_end(run, failed)
    report["segments"] = [
        {"adjusted": wire.end_to_end(r, f), "raw": wire.end_to_end(r, f, adjust=False),
         "host_speed": r.host.summary()}
        for r, f in runs
    ]
    report["setup_runs_s"] = {"raw": [raw for raw, _adj in setups],
                              "adjusted": [adj for _raw, adj in setups]}
    report["verdicts"] = "".join(run.letters.get(i, ".") for i in range(count))
    report["stats"] = run.stats
    if args.trace:
        metrics = wire.per_layer(run, runs[0][0], mix, failed)
    else:
        metrics = {name: e2e[name] for name in END_TO_END if name in e2e}
        metrics["setup_s"] = statistics.median(adj for _raw, adj in setups)
        report["tail"] = {"percentile": e2e["tail_percentile"], "samples": e2e["tail_samples"]}
        report["generator_lag_ms"] = {"p99": e2e["generator_lag_ms_p99"], "max": e2e["generator_lag_ms_max"]}
    return metrics, problems, e2e["attempted"], e2e["failed"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} has no src/repro; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("REPRO_INJECT", None)

    import procs
    import stats

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    shm_before = procs.shm_segments()
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}
    try:
        runner = run_wire if args.workload == "wire-mix" else run_inprocess
        metrics, problems, attempted, failed = runner(args, root, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.probe:
        return 0
    leaked = sorted(procs.shm_segments() - shm_before)
    if leaked:
        problems.append(f"leaked /dev/shm segments: {leaked}")
    report["host"] = host_block(root)
    report["problems"] = problems
    if args.trace:
        units = per_layer_units()
        # A layer the workload bypasses did no work: it reads 0.
        report["layers_not_exercised"] = [name for name in units if name not in metrics]
    else:
        units = END_TO_END
        missing = [name for name in units if name not in metrics]
        if missing:
            problems.append(f"metrics not produced: {missing}")
    out_metrics = {name: {"value": stats.finite(metrics.get(name, 0.0)), "unit": unit}
                   for name, unit in units.items()}
    report["metrics"] = out_metrics
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    target = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    target.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(f"report: {target.relative_to(root)}")
    line = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": out_metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
