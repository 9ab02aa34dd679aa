"""Fault-tolerance stress tests: real pools, real worker deaths.

The acceptance properties of the supervised runtime, exercised
end-to-end:

* a worker calling ``os._exit(1)`` mid-shard never surfaces as a bare
  ``BrokenProcessPool`` — the pool respawns and the race still returns
  the correct verdict;
* a payload that raises in ``__reduce__`` (unpicklable) is degraded to
  an in-process run and still produces a value;
* ``KeyboardInterrupt`` during a race tears the pool down without
  orphaning worker processes;
* injected faults can demote definite answers to UNKNOWN but never
  flip them, and every degraded solve carries a populated ``faults``
  record.

All tests are ``stress``-marked (``scripts/bench.sh`` selects the
marker explicitly); they are kept fast enough to also run in tier-1.
"""

import multiprocessing
import time

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.errors import ReproError
from repro.reasoning import Context, ImplicationProblem, SolveOptions
from repro.reasoning.faultinject import FaultPlan
from repro.reasoning.portfolio import (
    Budget,
    parallel_countermodel_search,
    run_portfolio,
)
from repro.reasoning import runtime
from repro.reasoning.runtime import WorkerSupervisor, retire_warm_pool
from repro.truth import Trilean

pytestmark = pytest.mark.stress

# The chase diverges on this instance (fresh nodes forever), but a
# 3-node counter-model exists, so the portfolio's answer is FALSE and
# must survive any injected infrastructure failure.
DIVERGENT_SIGMA = (
    "() => K\n"
    "K :: () => a.a.a\n"
    "K :: a.a.a => ()\n"
    "a :: a => a"
)
DIVERGENT_PHI = "K :: a => ()"


def _divergent_problem():
    return ImplicationProblem(
        parse_constraints(DIVERGENT_SIGMA),
        parse_constraint(DIVERGENT_PHI),
        Context.SEMISTRUCTURED,
    )


def _assert_no_orphans(deadline=10.0):
    """Every pool worker must be reaped shortly after teardown.

    Warm-pool workers legitimately outlive a solve now, so retire the
    pool first — what must never survive is a worker the supervisor
    lost track of.
    """
    retire_warm_pool()
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        children = [
            p for p in multiprocessing.active_children()
            if "Process" in type(p).__name__
        ]
        if not children:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphan worker processes: {children}")


def _typename(payload):
    return type(payload).__name__


def _sleep_forever():
    time.sleep(3600)


class _RaisesInReduce:
    """Unpicklable on purpose — a genuine payload bug, not an injected
    one, so the supervisor must handle it without the injection layer."""

    def __reduce__(self):
        raise ValueError("cannot cross the process boundary")


class TestWorkerDeath:
    def test_os_exit_mid_shard_keeps_the_verdict(self):
        # kill:1 murders the first counter-model shard's worker; the
        # supervisor respawns the pool, resubmits the shard from its
        # (start, stop) range, and the race still settles FALSE.
        # execution="pool" bypasses the cost model (which would route
        # this small instance inline) so injection hits real workers.
        result = run_portfolio(
            _divergent_problem(),
            SolveOptions(
                inject=FaultPlan.from_spec("kill:1"), execution="pool"
            ),
            jobs=2,
        )
        assert result.answer is Trilean.FALSE
        assert not result.faults.clean
        kinds = {e.kind for e in result.faults.events}
        assert "injected" in kinds
        _assert_no_orphans()

    def test_killed_worker_mid_race_within_deadline(self):
        # Acceptance: a killed worker mid-race still returns the
        # correct verdict under the original deadline semantics.
        began = time.monotonic()
        result = run_portfolio(
            _divergent_problem(),
            SolveOptions(
                inject=FaultPlan.from_spec("kill:0,kill:1"), execution="pool"
            ),
            jobs=2,
            budget=Budget.from_seconds(60.0),
        )
        assert result.answer is Trilean.FALSE
        assert time.monotonic() - began < 60.0
        assert result.faults.answered_by in {"chase", "countermodel"}
        _assert_no_orphans()

    def test_shard_restart_preserves_determinism(self):
        sigma = parse_constraints(DIVERGENT_SIGMA)
        phi = parse_constraint(DIVERGENT_PHI)
        clean = parallel_countermodel_search(
            sigma, phi, options=SolveOptions(countermodel_nodes=3), jobs=1
        )
        shaken = parallel_countermodel_search(
            sigma,
            phi,
            options=SolveOptions(
                countermodel_nodes=3,
                inject=FaultPlan.from_spec("kill:0"),
                execution="pool",
            ),
            jobs=2,
        )
        assert clean.graph is not None and shaken.graph is not None
        assert clean.graph.node_count() == shaken.graph.node_count()
        _assert_no_orphans()

    def test_respawns_exhausted_degrades_and_reports(self, monkeypatch):
        # With no respawns left the first crash forces in-process
        # degradation; the value survives and the fault report says
        # how it was obtained.  (Driven through the supervisor
        # directly so the crash cannot be raced away by a fast
        # winning engine.)
        monkeypatch.setattr(runtime, "MAX_RESPAWNS", 0)
        plan = FaultPlan.from_spec("kill:0")
        with WorkerSupervisor(jobs=2, plan=plan) as sup:
            task = sup.submit(_typename, 7, engine="victim")
            sup.wait_any([task])
        assert task.result() == "int"
        kinds = {e.kind for e in sup.events}
        assert "worker-crash" in kinds and "pool-degraded" in kinds
        assert "task-degraded" in kinds
        assert sup.fault_report().degradations >= 1
        _assert_no_orphans()


class TestUnpicklablePayload:
    def test_reduce_raising_payload_degrades_in_process(self):
        with WorkerSupervisor(jobs=2) as sup:
            task = sup.submit(_typename, _RaisesInReduce(), engine="demo")
            sup.wait_any([task])
        assert task.settled and not task.failed
        assert task.result() == "_RaisesInReduce"
        report = sup.fault_report()
        assert report.degradations >= 1
        assert "task-degraded" in {e.kind for e in report.events}
        _assert_no_orphans()

    def test_injected_corrupt_payload_recovers(self):
        result = run_portfolio(
            _divergent_problem(),
            SolveOptions(
                inject=FaultPlan.from_spec("corrupt:0,corrupt:1"),
                execution="pool",
            ),
            jobs=2,
        )
        assert result.answer is Trilean.FALSE
        assert not result.faults.clean
        _assert_no_orphans()


class TestInterruptAndTeardown:
    def test_keyboard_interrupt_reaps_all_workers(self):
        # Satellite (c): the pool is torn down on *every* exception
        # path; after a KeyboardInterrupt mid-race no child processes
        # survive.
        with pytest.raises(KeyboardInterrupt):
            with WorkerSupervisor(jobs=2) as sup:
                sup.submit(_sleep_forever, engine="straggler")
                raise KeyboardInterrupt
        _assert_no_orphans()

    def test_fuzz_absorbs_keyboard_interrupt_into_aborted_report(self):
        from repro.diffcheck import fuzz

        calls = {"n": 0}

        def interrupting_engine(inst, cfg):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            return None

        sink = {}
        report = fuzz(
            seed=0,
            per_fragment=2,
            fragments=["P_w"],
            shrink=False,
            extra={"interrupter": interrupting_engine},
            report_sink=sink,
        )
        assert report.aborted
        assert sink["report"] is report
        # Partial tallies up to the interrupt survive.
        assert report.fragments["P_w"].instances >= 1


class TestInjectionSoundness:
    def test_injected_faults_never_flip_the_fuzzer(self):
        from repro.diffcheck import fuzz
        from repro.diffcheck.oracles import OracleConfig

        report = fuzz(
            seed=5,
            per_fragment=3,
            fragments=["P_c"],
            config=OracleConfig(portfolio_jobs=(1, 2)),
            shrink=False,
            inject_rate=0.4,
            inject_seed=5,
        )
        assert report.injected_runs > 0
        flips = [
            d for d in report.disagreements
            if d.kind in {"injected-flip", "unrecorded-fault"}
        ]
        assert not flips, [d.to_dict() for d in flips]
        _assert_no_orphans()

    def test_imply_with_injection_never_leaks_pool_errors(self):
        # A hostile targeted plan across the first six ordinals: every
        # outcome must be a clean ImplicationResult or a typed
        # ReproError — never a bare BrokenProcessPool.
        plan = FaultPlan.from_spec(
            "kill:0,raise:1,corrupt:2,kill:3,delay:4:0.05,raise:5"
        )
        try:
            result = run_portfolio(
                _divergent_problem(),
                SolveOptions(inject=plan, execution="pool"),
                jobs=2,
            )
        except ReproError:
            pass  # typed failure is an acceptable outcome
        else:
            assert result.answer in (
                Trilean.FALSE,
                Trilean.UNKNOWN,
            )
            if result.answer is Trilean.FALSE:
                assert result.countermodel is not None or (
                    result.certificate is not None
                    or result.faults.answered_by == "chase"
                )
        _assert_no_orphans()


class TestAtomicReport:
    def test_json_out_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main(
            [
                "fuzz",
                "--seed",
                "1",
                "--per-fragment",
                "1",
                "--fragment",
                "P_w",
                "--portfolio-jobs",
                "1",
                "--no-shrink",
                "--json-out",
                str(out),
            ]
        )
        assert code == 0
        import json

        data = json.loads(out.read_text())
        assert data["ok"] is True
        assert data["aborted"] is False
        leftovers = [
            p for p in tmp_path.iterdir() if p.name != "report.json"
        ]
        assert not leftovers

    def test_atomic_writer_replaces_not_truncates(self, tmp_path):
        from repro.cli import _write_json_atomic

        target = tmp_path / "r.json"
        target.write_text("old")
        _write_json_atomic(str(target), "new")
        assert target.read_text() == "new"
        assert list(tmp_path.iterdir()) == [target]
