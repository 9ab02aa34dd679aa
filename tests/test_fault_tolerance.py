"""Fault-tolerance stress tests: injected faults on real solves.

The acceptance properties of the portfolio's fault handling,
exercised end-to-end:

* injected faults can demote definite answers to UNKNOWN but never
  flip them, and every degraded solve carries a populated ``faults``
  record;
* a hostile fault plan surfaces as a clean result or a typed
  :class:`~repro.errors.ReproError`, never a bare exception;
* ``KeyboardInterrupt`` mid-sweep still yields the partial fuzz
  report, written atomically.

All tests are ``stress``-marked (``scripts/bench.sh`` selects the
marker explicitly); they are kept fast enough to also run in tier-1.
"""

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.errors import ReproError
from repro.reasoning import Context, ImplicationProblem, SolveOptions
from repro.reasoning.faultinject import FaultPlan
from repro.reasoning.portfolio import run_portfolio
from repro.truth import Trilean

pytestmark = pytest.mark.stress

# The chase reaches a fixpoint on this instance after 3 repairs, and a
# 3-node counter-model exists, so the portfolio answers FALSE through
# either engine and must keep that answer under any injected fault.
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


class TestInterruptAndTeardown:
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

        report = fuzz(
            seed=5,
            per_fragment=3,
            fragments=["P_c"],
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

    def test_imply_with_injection_never_leaks_pool_errors(self):
        # A hostile plan on both engines: every outcome must be a clean
        # ImplicationResult or a typed ReproError — never a bare one.
        plan = FaultPlan.from_spec("raise:0,delay:1:0.05")
        try:
            result = run_portfolio(
                _divergent_problem(), SolveOptions(inject=plan)
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
            assert "injected" in {e.kind for e in result.faults.events}


class TestEngineFailure:
    """An engine that raises on every attempt forfeits its verdict."""

    def test_failing_search_ends_as_unknown(self, monkeypatch):
        from repro.reasoning import portfolio

        def broken_scan(*args):
            raise ValueError("engine bug")

        monkeypatch.setattr(portfolio, "scan_codes", broken_scan)
        result = run_portfolio(
            _divergent_problem(), SolveOptions(chase_steps=1)
        )
        assert result.answer is Trilean.UNKNOWN
        search = next(s for s in result.stats if s.engine == "countermodel")
        assert search.outcome == "faulted"
        kinds = [e.kind for e in result.faults.events]
        assert kinds.count("task-error") == 3
        assert kinds[-1] == "retry-exhausted"
        assert result.faults.retries == 2
        assert any("failed every attempt" in n for n in result.notes)

    def test_failing_chase_leaves_the_search_to_answer(self, monkeypatch):
        from repro.reasoning import portfolio

        def broken_chase(*args, **kwargs):
            raise ValueError("engine bug")

        monkeypatch.setattr(portfolio, "chase_implication", broken_chase)
        result = run_portfolio(_divergent_problem())
        assert result.answer is Trilean.FALSE
        assert result.faults.answered_by == "countermodel"
        chase = next(s for s in result.stats if s.engine == "chase")
        assert chase.outcome == "failed"
        assert chase.detail == "RetryExhausted"


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
