"""Report rendering for the benchmark harness.

Every benchmark prints paper-style rows via :func:`print_table`, so a
``pytest benchmarks/ --benchmark-only -s`` run regenerates the paper's
tables and figures as text alongside the timing statistics.
Benchmarks with machine-readable outputs additionally call
:func:`write_bench_json`, which drops a ``BENCH_<name>.json`` file at
the repository root for tooling to diff across commits, stamped with
the host and code that produced it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def print_table(title: str, headers: list[str], rows: list[list[object]]) -> None:
    """Render an aligned text table to stdout (shown with ``-s`` and
    captured in benchmark logs)."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered))
        if rendered
        else len(headers[i])
        for i in range(len(headers))
    ]

    def line(cells: list[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    out = sys.stdout
    out.write(f"\n=== {title} ===\n")
    out.write(line(headers) + "\n")
    out.write(line(["-" * w for w in widths]) + "\n")
    for row in rendered:
        out.write(line(row) + "\n")
    out.flush()


def host_block() -> dict:
    """CPU counts, Python version and the git commit measured (with a
    ``-dirty`` suffix for uncommitted changes; None outside git)."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpus": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
    }


def write_bench_json(name: str, payload: dict) -> Path:
    """Write ``payload`` plus a ``host`` block (:func:`host_block`) to
    ``BENCH_<name>.json`` at the repo root.

    Returns the path written.  Keys should be stable across runs so the
    files diff cleanly; volatile data (timings) belongs under clearly
    named keys that downstream tooling knows to tolerate.
    """
    target = ROOT / f"BENCH_{name}.json"
    payload = {**payload, "host": host_block()}
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {target}")
    return target
