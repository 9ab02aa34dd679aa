"""Run ``repro serve`` with the benchmark's spans installed.

Usage: ``python3 perfbench/launcher.py SPANS_FILE serve [serve args]``.
The daemon is the unmodified CLI entry point; this launcher only wraps
the traced functions first (see ``tracing.py``), records each queued
item's wait at dequeue, and writes the spans to ``SPANS_FILE`` once the
daemon has drained.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_file, serve_args = argv[0], argv[1:]
    from repro import cli
    from repro.server import daemon

    tracer = Tracer()
    tracer.install()

    run_solve = daemon.ImplicationServer._run_solve

    @functools.wraps(run_solve)
    async def timed_run_solve(self, item):
        tracer.events.append(("queue_wait", time.monotonic() - item.admitted_at, time.perf_counter()))
        return await run_solve(self, item)

    daemon.ImplicationServer._run_solve = timed_run_solve

    solve_blocking = daemon.ImplicationServer._solve_blocking

    @functools.wraps(solve_blocking)
    def tagged_solve_blocking(self, problem, deadline, delay_ms, form, request, cancel=None):
        tracer.set_thread_op(request.get("id"))
        try:
            return solve_blocking(self, problem, deadline, delay_ms, form, request, cancel)
        finally:
            tracer.set_thread_op(None)

    daemon.ImplicationServer._solve_blocking = tagged_solve_blocking
    try:
        return cli.main(serve_args)
    finally:
        tmp = spans_file + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"spans": tracer.spans, "events": tracer.events}, handle)
        os.replace(tmp, spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
