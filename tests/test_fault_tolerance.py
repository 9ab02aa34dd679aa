"""Fault-tolerance stress tests: engines that raise, on real solves.

The acceptance properties of the portfolio's fault handling,
exercised end-to-end by monkeypatching an engine to raise:

* an engine that raises is called once and forfeits its verdict; the
  fault can demote a definite answer to UNKNOWN but never flip it,
  and every demotion carries a ``task-error`` event (the forfeit
  sweep over the fuzz instances and the Section 5.2 monoid images);
* raising engines surface as a clean result, never a bare exception;
* ``KeyboardInterrupt`` mid-sweep still yields the partial fuzz
  report, written atomically.

All tests are ``stress``-marked (``scripts/bench.sh`` selects the
marker explicitly); they are kept fast enough to also run in tier-1.
"""

import importlib.util
import threading
from pathlib import Path

import pytest

from repro.constraints import parse_constraint, parse_constraints
from repro.diffcheck.generators import FRAGMENT_GENERATORS, generate_instance
from repro.diffcheck.oracles import SOLVE_OPTIONS, verify_countermodel
from repro.reasoning import Context, ImplicationProblem, SolveOptions
from repro.reasoning import portfolio
from repro.reasoning.portfolio import run_portfolio
from repro.reductions import encode_mplus
from repro.truth import Trilean

pytestmark = pytest.mark.stress

# The chase reaches a fixpoint on this instance after 3 repairs, and a
# 3-node counter-model exists, so the portfolio answers FALSE through
# either engine and must keep that answer when either one raises.
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


def _broken(*args, **kwargs):
    raise ValueError("engine bug")


class TestInterruptAndTeardown:
    def test_fuzz_absorbs_keyboard_interrupt_into_aborted_report(self):
        from repro.diffcheck import fuzz

        calls = {"n": 0}

        def interrupting_engine(inst, deadline):
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
    def test_imply_with_injection_never_leaks_pool_errors(
        self, monkeypatch
    ):
        # Both engines raise: the outcome is a clean UNKNOWN with both
        # faults recorded — never a bare exception.
        monkeypatch.setattr(portfolio, "chase_implication", _broken)
        monkeypatch.setattr(portfolio, "scan_codes", _broken)
        result = run_portfolio(_divergent_problem())
        assert result.answer is Trilean.UNKNOWN
        assert [(e.kind, e.engine) for e in result.faults.events] == [
            ("task-error", "chase"),
            ("task-error", "countermodel"),
        ]
        assert [s.outcome for s in result.stats] == ["failed", "failed"]


class TestEngineFailure:
    """An engine that raises forfeits its verdict."""

    @pytest.mark.parametrize("engine", ["chase_implication", "scan_codes"])
    def test_raising_engine_is_called_once(self, engine, monkeypatch):
        calls: list[threading.Thread] = []

        def counting(*args, **kwargs):
            calls.append(threading.current_thread())
            raise ValueError("engine bug")

        monkeypatch.setattr(portfolio, engine, counting)
        result = run_portfolio(
            _divergent_problem(), SolveOptions(chase_steps=1)
        )
        assert calls == [threading.current_thread()]
        assert [e.kind for e in result.faults.events] == ["task-error"]

    def test_failing_search_ends_as_unknown(self, monkeypatch):
        monkeypatch.setattr(portfolio, "scan_codes", _broken)
        result = run_portfolio(
            _divergent_problem(), SolveOptions(chase_steps=1)
        )
        assert result.answer is Trilean.UNKNOWN
        search = next(s for s in result.stats if s.engine == "countermodel")
        assert search.outcome == "failed"
        assert search.detail == "ValueError"
        assert result.faults.events[0].describe() == (
            "task-error@countermodel (ValueError: engine bug)"
        )
        assert len(result.faults.events) == 1
        assert any("countermodel search raised" in n for n in result.notes)

    def test_failing_chase_leaves_the_search_to_answer(self, monkeypatch):
        monkeypatch.setattr(portfolio, "chase_implication", _broken)
        result = run_portfolio(_divergent_problem())
        assert result.answer is Trilean.FALSE
        assert result.faults.answered_by == "countermodel"
        chase = next(s for s in result.stats if s.engine == "chase")
        assert chase.outcome == "failed"
        assert chase.detail == "ValueError"


def _semistructured_problems(seed: int, per_fragment: int = 30):
    """Every semistructured instance of ``repro fuzz --seed SEED
    --per-fragment 30``, decidable cells included."""
    for fragment in FRAGMENT_GENERATORS:
        for index in range(per_fragment):
            instance = generate_instance(fragment, seed, index)
            if instance.context is Context.SEMISTRUCTURED:
                yield ImplicationProblem(instance.sigma, instance.phi), (
                    lambda graph, i=instance: verify_countermodel(
                        graph, i.sigma, i.phi
                    )
                )


def _monoid_corpus():
    """``MONOID_CORPUS`` of ``benchmarks/_workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "_workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MONOID_CORPUS


def _monoid_image_problems():
    """The Section 5.2 images of both test pairs of every corpus
    presentation, both directions, in M+ and M+_f."""
    for _name, presentation, equal, unequal in _monoid_corpus():
        encoding = encode_mplus(presentation)
        for left, right in (equal, unequal):
            for alpha, beta in ((left, right), (right, left)):
                for context in (Context.M_PLUS, Context.M_PLUS_FINITE):
                    yield ImplicationProblem(
                        encoding.sigma,
                        encoding.test_constraint(alpha, beta),
                        context,
                        schema=encoding.schema,
                    ), (
                        lambda graph, e=encoding, a=alpha, b=beta: (
                            e.verify_countermodel(graph, a, b)
                        )
                    )


def _forfeit_sweep(problems, engines, options, monkeypatch) -> dict:
    """Solve each problem clean, then with each engine raising in turn.

    Asserts that no fault flips a definite answer, that every FALSE
    carries a counter-model that re-verifies, and that every demotion
    to UNKNOWN carries a ``task-error`` event; returns the demotions
    per broken engine.
    """
    demotions = dict.fromkeys(engines, 0)
    for problem, verifies in problems:
        clean = run_portfolio(problem, options)
        for engine in engines:
            with monkeypatch.context() as patch:
                patch.setattr(portfolio, engine, _broken)
                broken = run_portfolio(problem, options)
            where = f"{engine} broken on {problem.phi} ({problem.context})"
            if broken.answer.is_definite:
                assert broken.answer is clean.answer, where
            if broken.answer is Trilean.FALSE:
                assert broken.countermodel is not None, where
                assert verifies(broken.countermodel), where
            if clean.answer.is_definite and not broken.answer.is_definite:
                demotions[engine] += 1
                kinds = [e.kind for e in broken.faults.events]
                assert kinds == ["task-error"], where
    return demotions


class TestForfeitSweep:
    """A raising engine only ever demotes: the fuzz instances and the
    monoid images, with each engine broken in turn."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzz_instances_never_flip(self, seed, monkeypatch):
        demotions = _forfeit_sweep(
            _semistructured_problems(seed),
            ("chase_implication", "scan_codes"),
            SOLVE_OPTIONS,
            monkeypatch,
        )
        assert all(demotions.values()), demotions

    def test_monoid_images_never_flip(self, monkeypatch):
        demotions = _forfeit_sweep(
            _monoid_image_problems(),
            ("chase_implication", "scan_typed_instances"),
            SolveOptions(),
            monkeypatch,
        )
        assert all(demotions.values()), demotions


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
        from repro.fileio import write_atomic

        target = tmp_path / "r.json"
        target.write_text("old")
        write_atomic(str(target), "new")
        assert target.read_text() == "new"
        assert list(tmp_path.iterdir()) == [target]

    def test_atomic_writer_removes_its_temp_file_on_failure(self, tmp_path):
        from repro.fileio import write_atomic

        # The rename onto a directory fails after the temp file exists.
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            write_atomic(target, "new")
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []
