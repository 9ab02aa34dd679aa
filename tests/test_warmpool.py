"""Warm persistent pool + its stop word: reuse, stopping and cleanup.

* two consecutive pooled solves must reuse the same worker processes
  (the warm pool survives across ``solve()`` calls — no respawn tax on
  the second solve);
* a straggler stops soon after its supervisor clears the pool's stop
  word, and neither the next run on the same workers nor a concurrent
  run on another pool reads as stopped;
* concurrent threads never lease the warm pool twice, since two runs
  on one pool would share its stop word;
* a pooled solve, clean or through worker crashes, leaves nothing in
  ``/dev/shm``: the stop word's arena file is unlinked as soon as it is
  created.

Pool execution is forced (``execution="pool"``) throughout: on a small
instance the dispatch rule would otherwise — correctly — refuse to
spawn processes at all.
"""

import os
import sys
import threading
import time

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.reasoning import Context, ImplicationProblem, SolveOptions
from repro.reasoning.costmodel import ExecMode
from repro.reasoning.faultinject import FaultPlan
from repro.reasoning import runtime
from repro.reasoning.portfolio import run_portfolio
from repro.reasoning.runtime import (
    WorkerSupervisor,
    retire_warm_pool,
    stop_hook,
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
    options = SolveOptions(execution="pool", **kwargs)
    return run_portfolio(_problem(), options, jobs=2)


def _shm_entries():
    """The names in the kernel's shm namespace (empty off Linux)."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return set(os.listdir("/dev/shm"))


def _straggler(run):
    """A pool task that polls its stop hook for up to 30 s; returns
    the seconds it ran (None when it got no hook)."""
    should_stop = stop_hook(run)
    if should_stop is None:
        return None
    began = time.monotonic()
    while not should_stop() and time.monotonic() - began < 30.0:
        time.sleep(0.01)
    return time.monotonic() - began


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
        before = _shm_entries()
        _pooled_solve()
        assert _shm_entries() - before == set()


class TestStopWord:
    def test_straggler_stops_soon_after_stop(self):
        with WorkerSupervisor(jobs=2) as supervisor:
            task = supervisor.submit(
                _straggler, supervisor.run, engine="straggler"
            )
            # Still polling: nothing but the stop word ends it early.
            assert supervisor.wait_any({task}, timeout=0.5) == set()
            stopped = time.monotonic()
            supervisor.stop()
            assert supervisor.wait_any({task}, timeout=10) == {task}
            assert time.monotonic() - stopped < 2.0
        assert task.result() is not None

    def test_next_run_on_the_same_workers_is_not_stopped(self):
        with WorkerSupervisor(jobs=2) as first:
            first.submit(_straggler, first.run, engine="first")
        pids = warm_pool_pids()
        assert pids
        with WorkerSupervisor(jobs=2) as second:
            task = second.submit(_straggler, second.run, engine="second")
            assert second.worker_pids() == pids
            assert second.wait_any({task}, timeout=0.5) == set()
            second.stop()
            assert second.wait_any({task}, timeout=10) == {task}
        assert task.result() is not None

    def test_stop_leaves_a_concurrent_untracked_pool_alone(self):
        with WorkerSupervisor(jobs=2) as first:
            first_task = first.submit(_straggler, first.run, engine="first")
            with WorkerSupervisor(jobs=2) as second:
                # The warm pool is leased, so this run spawns its own.
                second_task = second.submit(
                    _straggler, second.run, engine="second"
                )
                assert set(second.worker_pids()).isdisjoint(
                    first.worker_pids()
                )
                first.stop()
                assert first.wait_any({first_task}, timeout=10) == {
                    first_task
                }
                assert second.wait_any({second_task}, timeout=0.5) == set()
                second.stop()
                assert second.wait_any({second_task}, timeout=10) == {
                    second_task
                }


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
            "from repro.reasoning import Context, ImplicationProblem, "
            "SolveOptions\n"
            "from repro.reasoning.portfolio import run_portfolio\n"
            "from repro.reasoning.runtime import warm_pool_pids\n"
            f"sigma = parse_constraints({SIGMA!r})\n"
            f"phi = parse_constraint({PHI!r})\n"
            "problem = ImplicationProblem(sigma, phi, "
            "Context.SEMISTRUCTURED)\n"
            "run_portfolio(problem, SolveOptions(execution='pool'), "
            "jobs=2)\n"
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


class _FakePool:
    @property
    def _broken(self):
        # Read inside the lease check: yielding here lets another
        # thread in wherever that check is not atomic.
        time.sleep(0.0005)
        return False


class TestConcurrentLeases:
    def test_the_warm_pool_is_leased_once(self, monkeypatch):
        # A daemon's solver threads lease concurrently, and two runs on
        # one pool would stop each other through its stop word.  Fake
        # pools keep the rounds cheap; more threads than cores and a
        # tiny switch interval widen any check-then-act window.
        monkeypatch.setattr(
            runtime, "_spawn_pool", lambda jobs: (_FakePool(), None)
        )
        monkeypatch.setattr(runtime, "_abandon_pool", lambda pool: None)
        monkeypatch.setattr(runtime, "_WARM", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                warm = _FakePool()
                runtime._WARM = runtime._WarmPoolState(warm, None, jobs=2)
                leases = []
                barrier = threading.Barrier(4)

                def lease():
                    barrier.wait(timeout=10)
                    leases.append(runtime._warm_acquire(2))

                threads = [threading.Thread(target=lease) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert [pool is warm for pool, _, _ in leases].count(True) == 1
                assert [tracked for _, _, tracked in leases].count(True) == 1
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.stress
class TestCrashCleanup:
    def test_os_exit_crash_mid_shard_leaks_no_segments(self):
        # kill:1 takes out a worker while shards are in flight; the
        # supervisor respawns and the verdict survives — and neither
        # pool generation leaves an entry in /dev/shm.
        before = _shm_entries()
        result = _pooled_solve(inject=FaultPlan.from_spec("kill:1"))
        assert result.answer is Trilean.FALSE
        assert not result.faults.clean
        assert _shm_entries() - before == set()

    def test_repeated_crashes_still_leak_nothing(self):
        before = _shm_entries()
        for spec in ("kill:0", "kill:0,kill:1", "raise:0,kill:2"):
            result = _pooled_solve(inject=FaultPlan.from_spec(spec))
            assert result.answer in (Trilean.FALSE, Trilean.UNKNOWN)
            assert _shm_entries() - before == set()
