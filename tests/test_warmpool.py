"""Warm persistent pool + shared-memory cancel flags: reuse and cleanup.

* two consecutive pooled solves must reuse the same worker processes
  (the warm pool survives across ``solve()`` calls — no respawn tax on
  the second solve);
* a worker crash mid-shard must not leak a single shared-memory
  segment, because the parent owns every cancel flag and unlinks it
  in a ``finally`` around the race.

Pool execution is forced (``execution="pool"``) throughout: on a small
instance the dispatch rule would otherwise — correctly — refuse to
spawn processes at all.
"""

import glob
import os

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.reasoning import Context, ImplicationProblem
from repro.reasoning.costmodel import ExecMode
from repro.reasoning.faultinject import FaultPlan
from repro.reasoning.portfolio import run_portfolio
from repro.reasoning.runtime import (
    active_owned_segments,
    retire_warm_pool,
    warm_pool_pids,
    warm_pool_stats,
)
from repro.truth import Trilean

# Same divergent-chase instance as the fault-tolerance suite: the
# counter-model engines must actually run (FALSE via a 3-node model).
SIGMA = (
    "() => K\n"
    "K :: () => a.a.a\n"
    "K :: a.a.a => ()\n"
    "a :: a => a"
)
PHI = "K :: a => ()"


def _problem():
    return ImplicationProblem(
        parse_constraints(SIGMA),
        parse_constraint(PHI),
        Context.SEMISTRUCTURED,
    )


def _pooled_solve(**kwargs):
    return run_portfolio(_problem(), jobs=2, execution="pool", **kwargs)


def _shm_leftovers():
    """repro-owned names still present in the kernel's shm namespace."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return glob.glob("/dev/shm/repro-cancel-*")


@pytest.fixture(autouse=True)
def _cold_start():
    retire_warm_pool()
    yield
    retire_warm_pool()


class TestWarmReuse:
    def test_two_solves_reuse_the_same_workers(self):
        first = _pooled_solve()
        pids_after_first = warm_pool_pids()
        stats_first = warm_pool_stats()
        second = _pooled_solve()
        pids_after_second = warm_pool_pids()
        stats_second = warm_pool_stats()

        assert first.answer is Trilean.FALSE
        assert second.answer is Trilean.FALSE
        assert first.execution.mode is ExecMode.POOL

        # The pool survived the first solve and served the second.
        assert pids_after_first, "warm pool empty after a pooled solve"
        assert pids_after_first == pids_after_second
        assert stats_first["alive"] and not stats_first["leased"]
        # Exactly one lease reused the pool, and nothing respawned.
        assert stats_second["reuses"] == stats_first["reuses"] + 1
        assert stats_second["spawns"] == stats_first["spawns"]

    def test_retire_reaps_the_workers(self):
        _pooled_solve()
        pids = warm_pool_pids()
        assert pids
        retire_warm_pool()
        assert warm_pool_pids() == ()
        assert not warm_pool_stats()["alive"]
        for pid in pids:
            # A reaped child is gone (or a zombie about to be joined);
            # os.kill(pid, 0) on a live unrelated reuse of the pid is
            # astronomically unlikely within this window.
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue

    def test_no_segments_survive_a_clean_solve(self):
        _pooled_solve()
        assert active_owned_segments() == ()
        assert _shm_leftovers() == []


class TestAtexitBackstop:
    """The interpreter-exit backstop for long-lived processes.

    ``repro.reasoning.runtime`` registers :func:`retire_warm_pool`
    with ``atexit`` at import time, so a daemon, REPL user or crashed
    script that never retires explicitly still cannot leak worker
    processes.  Explicit retirement must compose with the backstop:
    retiring twice (or the atexit hook firing after a clean drain
    already retired) is a no-op, never an error.
    """

    def test_retire_is_idempotent(self):
        _pooled_solve()
        assert warm_pool_pids()
        retire_warm_pool()
        stats_after_first = warm_pool_stats()
        # The backstop firing later (atexit calls the same function)
        # finds nothing to do and must not raise.
        retire_warm_pool()
        retire_warm_pool()
        assert warm_pool_pids() == ()
        assert warm_pool_stats() == stats_after_first

    def test_retire_on_cold_process_is_a_noop(self):
        retire_warm_pool()
        retire_warm_pool()
        assert not warm_pool_stats()["alive"]

    def test_atexit_backstop_reaps_on_unclean_exit(self, tmp_path):
        # A child process warms the pool and exits WITHOUT retiring;
        # the atexit registration must reap the workers anyway.
        import subprocess
        import sys
        import time

        script = (
            "import sys\n"
            "from repro.constraints import parse_constraint, "
            "parse_constraints\n"
            "from repro.reasoning import Context, ImplicationProblem\n"
            "from repro.reasoning.portfolio import run_portfolio\n"
            "from repro.reasoning.runtime import warm_pool_pids\n"
            f"sigma = parse_constraints({SIGMA!r})\n"
            f"phi = parse_constraint({PHI!r})\n"
            "problem = ImplicationProblem(sigma, phi, "
            "Context.SEMISTRUCTURED)\n"
            "run_portfolio(problem, jobs=2, execution='pool')\n"
            "pids = warm_pool_pids()\n"
            "assert pids, 'no warm pool to leak'\n"
            "print(' '.join(map(str, pids)))\n"
            # no retire_warm_pool(): the atexit backstop is on trial
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={
                **__import__("os").environ,
                "PYTHONPATH": "src",
                "REPRO_CACHE_DIR": str(tmp_path / "cache"),
            },
        )
        assert proc.returncode == 0, proc.stderr
        pids = [int(p) for p in proc.stdout.split()]
        assert pids
        # The child has exited; its workers must be gone too (allow a
        # short grace for the OS to finish reaping).
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            alive = []
            for pid in pids:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    continue
                alive.append(pid)
            if not alive:
                break
            time.sleep(0.05)
        assert not alive, f"atexit backstop leaked workers: {alive}"


@pytest.mark.stress
class TestCrashCleanup:
    def test_os_exit_crash_mid_shard_leaks_no_segments(self):
        # kill:1 takes out a worker while shards are in flight; the
        # supervisor respawns and the verdict survives — and every
        # parent-owned segment is unlinked on the way out.
        result = _pooled_solve(fault_plan=FaultPlan.from_spec("kill:1"))
        assert result.answer is Trilean.FALSE
        assert not result.faults.clean
        assert active_owned_segments() == ()
        assert _shm_leftovers() == []

    def test_repeated_crashes_still_leak_nothing(self):
        for spec in ("kill:0", "kill:0,kill:1", "raise:0,kill:2"):
            result = _pooled_solve(fault_plan=FaultPlan.from_spec(spec))
            assert result.answer in (Trilean.FALSE, Trilean.UNKNOWN)
            assert active_owned_segments() == ()
            assert _shm_leftovers() == []
