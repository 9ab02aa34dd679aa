"""The ``repro fuzz`` driver: generate, cross-check, shrink, report.

One :func:`fuzz` call sweeps every fragment generator, runs each
instance through the engine matrix, and — for every disagreement —
builds a *reproducer* predicate (the exact engine pair re-run on the
candidate) and hands it to the delta-debugging shrinker.  The result
is a :class:`FuzzReport` that is JSON-serializable for CI and carries
a ready-to-paste regression test per (shrunk) disagreement.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.constraints.ast import PathConstraint
from repro.errors import ReproError
from repro.reasoning.cache import ImplicationCache
from repro.reasoning.dispatcher import Context, ImplicationProblem, solve
from repro.reasoning.faultinject import FaultPlan
from repro.reasoning.portfolio import Budget, run_portfolio
from repro.truth import Trilean

from repro.diffcheck.generators import (
    FRAGMENT_GENERATORS,
    FragmentInstance,
    generate_instance,
)
from repro.diffcheck.oracles import (
    Disagreement,
    EngineVerdict,
    OracleConfig,
    find_disagreements,
    run_engines,
    run_named_engine,
    verify_countermodel,
    with_deadline,
)
from repro.diffcheck.shrink import emit_regression_test, shrink_instance


@dataclass
class DisagreementRecord:
    """One fuzz hit: the original instance, its shrunk core, the test."""

    fragment: str
    seed: int
    index: int
    kind: str
    engines: tuple[str, ...]
    answers: tuple[str, ...]
    detail: str
    original_sigma: tuple[str, ...]
    original_phi: str
    shrunk_sigma: tuple[str, ...]
    shrunk_phi: str
    regression_test: str

    def to_dict(self) -> dict:
        return {
            "fragment": self.fragment,
            "seed": self.seed,
            "index": self.index,
            "kind": self.kind,
            "engines": list(self.engines),
            "answers": list(self.answers),
            "detail": self.detail,
            "original": {
                "sigma": list(self.original_sigma),
                "phi": self.original_phi,
            },
            "shrunk": {
                "sigma": list(self.shrunk_sigma),
                "phi": self.shrunk_phi,
            },
            "regression_test": self.regression_test,
        }


@dataclass
class FragmentStats:
    """Per-fragment tallies for the report."""

    instances: int = 0
    engine_runs: int = 0
    definite_true: int = 0
    definite_false: int = 0
    unknown: int = 0
    disagreements: int = 0
    injected_runs: int = 0
    injected_demotions: int = 0

    def to_dict(self) -> dict:
        return {
            "instances": self.instances,
            "engine_runs": self.engine_runs,
            "definite_true": self.definite_true,
            "definite_false": self.definite_false,
            "unknown": self.unknown,
            "disagreements": self.disagreements,
            "injected_runs": self.injected_runs,
            "injected_demotions": self.injected_demotions,
        }


@dataclass
class FuzzReport:
    """Everything one fuzz sweep learned, machine-readable."""

    seed: int
    per_fragment: int
    fragments: dict[str, FragmentStats] = field(default_factory=dict)
    disagreements: list[DisagreementRecord] = field(default_factory=list)
    elapsed: float = 0.0
    deadline_hit: bool = False
    #: fault-injection sweep settings and tallies (rate 0 = disabled).
    inject_rate: float = 0.0
    inject_seed: int = 0
    injected_runs: int = 0
    injected_demotions: int = 0
    #: cache differential settings and tallies (see ``fuzz(cache_check=)``).
    cache_check: bool = False
    cache_checks: int = 0
    cache_lookups: int = 0
    cache_hits: int = 0
    cache_flips: int = 0
    #: True when the sweep was cut short (KeyboardInterrupt or crash);
    #: all tallies up to the cut are valid.
    aborted: bool = False

    @property
    def ok(self) -> bool:
        """True when the sweep found zero disagreements."""
        return not self.disagreements

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "per_fragment": self.per_fragment,
            "ok": self.ok,
            "elapsed": round(self.elapsed, 3),
            "deadline_hit": self.deadline_hit,
            "inject_rate": self.inject_rate,
            "inject_seed": self.inject_seed,
            "injected_runs": self.injected_runs,
            "injected_demotions": self.injected_demotions,
            "cache_check": self.cache_check,
            "cache_checks": self.cache_checks,
            "cache_lookups": self.cache_lookups,
            "cache_hits": self.cache_hits,
            "cache_flips": self.cache_flips,
            "aborted": self.aborted,
            "fragments": {
                name: stats.to_dict()
                for name, stats in self.fragments.items()
            },
            "disagreements": [d.to_dict() for d in self.disagreements],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """A short human-readable verdict for the CLI."""
        total = sum(s.instances for s in self.fragments.values())
        runs = sum(s.engine_runs for s in self.fragments.values())
        lines = [
            f"fuzz seed={self.seed}: {total} instances, {runs} engine runs, "
            f"{len(self.disagreements)} disagreement(s) "
            f"in {self.elapsed:.1f}s"
            + (" [deadline hit]" if self.deadline_hit else "")
            + (" [ABORTED]" if self.aborted else "")
        ]
        if self.inject_rate > 0.0:
            lines.append(
                f"  fault injection: rate={self.inject_rate} "
                f"seed={self.inject_seed} runs={self.injected_runs} "
                f"demotions={self.injected_demotions} "
                f"(definite verdicts must survive or demote, never flip)"
            )
        if self.cache_check:
            rate = (
                self.cache_hits / self.cache_lookups
                if self.cache_lookups
                else 0.0
            )
            lines.append(
                f"  cache check: instances={self.cache_checks} "
                f"lookups={self.cache_lookups} hits={self.cache_hits} "
                f"(rate {rate:.0%}) flips={self.cache_flips} "
                f"(cold and cached verdicts must agree)"
            )
        for name, stats in self.fragments.items():
            lines.append(
                f"  {name:<12} n={stats.instances:<4} "
                f"T={stats.definite_true:<4} F={stats.definite_false:<4} "
                f"?={stats.unknown:<4} disagreements={stats.disagreements}"
            )
        return "\n".join(lines)


def make_reproducer(
    instance: FragmentInstance,
    disagreement: Disagreement,
    config: OracleConfig,
    extra=None,
) -> Callable[[tuple[PathConstraint, ...], PathConstraint], bool]:
    """A shrink predicate replaying exactly the disagreeing engines.

    For a definite conflict the candidate must make the *same* engine
    pair contradict again (any definite-vs-definite flavour counts, so
    the shrinker may legitimately simplify TRUE-vs-FALSE into
    FALSE-vs-TRUE); for a bad certificate the same engine must produce
    a failing certificate again.
    """
    schema = instance.schema

    def reproduces(
        sigma: tuple[PathConstraint, ...], phi: PathConstraint
    ) -> bool:
        verdicts = [
            run_named_engine(
                name, sigma, phi, schema=schema, config=config, extra=extra
            )
            for name in disagreement.engines
        ]
        if disagreement.kind == "bad-certificate":
            return any(v.certificate_ok is False for v in verdicts)
        definite = [v for v in verdicts if v.answer.is_definite]
        return any(
            a.answer is not b.answer
            for i, a in enumerate(definite)
            for b in definite[i + 1:]
        )

    return reproduces


def _strs(sigma: Sequence[PathConstraint]) -> tuple[str, ...]:
    return tuple(str(psi) for psi in sigma)


def fuzz(
    seed: int = 0,
    per_fragment: int = 10,
    deadline: float | None = None,
    fragments: Sequence[str] | None = None,
    config: OracleConfig | None = None,
    shrink: bool = True,
    extra=None,
    inject_rate: float = 0.0,
    inject_seed: int = 0,
    cache_check: bool = False,
    report_sink: dict | None = None,
) -> FuzzReport:
    """Run one differential sweep.

    ``deadline`` is a *relative* budget in seconds for the whole sweep
    (converted to an absolute ``time.monotonic()`` value internally and
    threaded into every engine); instances past it are skipped and the
    report says so.  ``fragments`` restricts the sweep to named
    generators; ``extra`` injects additional engines (the tests use
    this to plant a deliberately broken decider and watch the pipeline
    catch it).

    With ``inject_rate > 0`` every semistructured instance additionally
    re-runs the portfolio engine under a deterministic fault plan
    (seeded from ``inject_seed``, the sweep seed and the instance
    index) and cross-checks the injected verdict against
    the clean one: a definite verdict may survive or demote to UNKNOWN,
    but a TRUE<->FALSE flip is recorded as a disagreement — the
    soundness contract of the portfolio's fault handling.

    With ``cache_check=True`` every instance is additionally solved
    cold (no cache) and again through an in-process implication cache
    shared by the whole sweep — warmed by every instance before it,
    so alpha-equivalent repeats replay stored verdicts.  A definite
    cold verdict and a definite cached verdict that differ are
    recorded as a ``cache-flip`` disagreement, and every replayed
    counter-model is re-verified against the instance: the cache may
    skip work, never change an answer.

    A ``KeyboardInterrupt`` mid-sweep does not lose the report: the
    partial report is returned with ``aborted=True`` (and is reachable
    even on a hard crash via ``report_sink``, a dict the in-progress
    report is published into under the ``"report"`` key).
    """
    began = time.monotonic()
    absolute = None if deadline is None else began + deadline
    config = with_deadline(config or OracleConfig(), absolute)
    names = list(fragments) if fragments is not None else list(
        FRAGMENT_GENERATORS
    )
    unknown = [n for n in names if n not in FRAGMENT_GENERATORS]
    if unknown:
        raise ValueError(
            f"unknown fragment(s) {unknown}; "
            f"have {sorted(FRAGMENT_GENERATORS)}"
        )
    if not 0.0 <= inject_rate <= 1.0:
        raise ValueError(f"inject rate {inject_rate} outside [0, 1]")

    report = FuzzReport(
        seed=seed,
        per_fragment=per_fragment,
        inject_rate=inject_rate,
        inject_seed=inject_seed,
        cache_check=cache_check,
    )
    warm_cache = ImplicationCache() if cache_check else None
    if report_sink is not None:
        report_sink["report"] = report
    try:
        for name in names:
            stats = report.fragments.setdefault(name, FragmentStats())
            for index in range(per_fragment):
                if absolute is not None and time.monotonic() > absolute:
                    report.deadline_hit = True
                    break
                instance = generate_instance(name, seed, index)
                verdicts = run_engines(instance, config, extra=extra)
                stats.instances += 1
                stats.engine_runs += len(verdicts)
                for v in verdicts:
                    if v.answer is Trilean.TRUE:
                        stats.definite_true += 1
                    elif v.answer is Trilean.FALSE:
                        stats.definite_false += 1
                    else:
                        stats.unknown += 1
                for disagreement in find_disagreements(verdicts):
                    stats.disagreements += 1
                    report.disagreements.append(
                        _record(
                            instance,
                            disagreement,
                            seed,
                            index,
                            config,
                            shrink,
                            extra,
                        )
                    )
                if inject_rate > 0.0:
                    _injected_pass(
                        report,
                        stats,
                        instance,
                        verdicts,
                        config,
                        seed,
                        index,
                        inject_rate,
                        inject_seed,
                    )
                if warm_cache is not None:
                    _cache_check_pass(
                        report, stats, instance, config, seed, index,
                        warm_cache,
                    )
            if report.deadline_hit:
                break
    except KeyboardInterrupt:
        report.aborted = True
    report.elapsed = time.monotonic() - began
    return report


def _injected_pass(
    report: FuzzReport,
    stats: FragmentStats,
    instance: FragmentInstance,
    verdicts: Sequence[EngineVerdict],
    config: OracleConfig,
    seed: int,
    index: int,
    rate: float,
    inject_seed: int,
) -> None:
    """Re-run the portfolio engine under injected faults and compare.

    The clean matrix already agreed with itself (any conflict was
    recorded above), so the clean portfolio verdict stands in for the
    oracle.  Acceptance: injected faults never flip a definite answer
    — they may only demote it to UNKNOWN, and every demotion must be
    accounted for by a recorded fault (or the sweep deadline).
    """
    if instance.context is not Context.SEMISTRUCTURED:
        return  # injection targets the portfolio's engines
    clean = next((v for v in verdicts if v.engine == "portfolio"), None)
    if clean is None:
        return
    problem = ImplicationProblem(
        instance.sigma, instance.phi, instance.context, schema=instance.schema
    )
    plan = FaultPlan.at_rate(
        rate, inject_seed * 1_000_003 + seed * 10_007 + index * 101
    )
    result = run_portfolio(
        problem,
        config.solve_options(inject=plan),
        budget=Budget(deadline=config.deadline),
    )
    report.injected_runs += 1
    stats.injected_runs += 1
    engines = ("portfolio", "portfolio+inject")
    answers = (clean.answer.value, result.answer.value)
    detail = f"plan={plan.describe()}; faults[{result.faults.describe()}]"
    if (
        clean.answer.is_definite
        and result.answer.is_definite
        and result.answer is not clean.answer
    ):
        kind = "injected-flip"
    elif (
        result.answer is Trilean.FALSE
        and result.countermodel is not None
        and not verify_countermodel(
            result.countermodel, instance.sigma, instance.phi
        )
    ):
        kind = "injected-bad-certificate"
    elif clean.answer.is_definite and result.answer is Trilean.UNKNOWN:
        report.injected_demotions += 1
        stats.injected_demotions += 1
        if not result.faults.clean or config.deadline is not None:
            return
        # A demotion with neither a recorded fault nor a deadline
        # means the fault accounting lost an event.
        kind = "unrecorded-fault"
    else:
        return
    stats.disagreements += 1
    report.disagreements.append(
        _injected_record(
            instance, kind, engines, answers, detail, seed, index
        )
    )


def _cache_check_pass(
    report: FuzzReport,
    stats: FragmentStats,
    instance: FragmentInstance,
    config: OracleConfig,
    seed: int,
    index: int,
    warm_cache: ImplicationCache,
) -> None:
    """Solve cold, then through the sweep-warmed cache, and compare.

    Three solves per instance, identical budgets: cold (no cache),
    warm (first sight stores; an alpha-equivalent repeat of an earlier
    instance replays), and replay (guaranteed to exercise the hit path
    for whatever the warm pass left behind).  Any definite-vs-definite
    difference is a ``cache-flip`` disagreement; a replayed
    counter-model that fails independent re-verification is a
    ``cache-bad-certificate``.
    """
    remaining = None
    if config.deadline is not None:
        remaining = max(0.05, config.deadline - time.monotonic())
    problem = ImplicationProblem(
        instance.sigma, instance.phi, instance.context, schema=instance.schema
    )
    options = config.solve_options()

    def _solve(cache):
        return solve(problem, options, jobs=1, deadline=remaining, cache=cache)

    try:
        cold = _solve(None)
        runs = [("cached-warm", _solve(warm_cache))]
        runs.append(("cached-replay", _solve(warm_cache)))
    except ReproError:
        # The oracle matrix wraps every engine call and turns a
        # budget-starved fragment raise into an UNKNOWN abstention; the
        # direct dispatcher path used here has no such wrapper.  With
        # no cold verdict to compare against there is nothing to
        # check, so skip the instance (UNKNOWN is never cached, so the
        # warm cache cannot have been poisoned either).
        return
    report.cache_checks += 1
    stats.engine_runs += 3
    for name, run in runs:
        info = run.cache
        report.cache_lookups += 1
        if info is not None and info.status == "hit":
            report.cache_hits += 1
        if (
            cold.answer.is_definite
            and run.answer.is_definite
            and run.answer is not cold.answer
        ):
            report.cache_flips += 1
            stats.disagreements += 1
            report.disagreements.append(
                _cache_record(
                    instance, "cache-flip", name, cold, run, seed, index
                )
            )
            continue
        if (
            info is not None
            and info.status == "hit"
            and run.countermodel is not None
            and not verify_countermodel(
                run.countermodel, instance.sigma, instance.phi
            )
        ):
            report.cache_flips += 1
            stats.disagreements += 1
            report.disagreements.append(
                _cache_record(
                    instance,
                    "cache-bad-certificate",
                    name,
                    cold,
                    run,
                    seed,
                    index,
                )
            )


def _cache_record(
    instance: FragmentInstance,
    kind: str,
    engine: str,
    cold,
    cached,
    seed: int,
    index: int,
) -> DisagreementRecord:
    """A disagreement record for a cache finding (never shrunk — the
    hit depends on the sweep's warming order, which ``detail`` names)."""
    sigma = _strs(instance.sigma)
    info = cached.cache
    detail = (
        f"cache={info.describe() if info is not None else 'none'}; "
        f"cold method={cold.method}; cached method={cached.method}"
    )
    test = (
        f"# {kind}: cold solve vs {engine} disagreed\n"
        f"# fragment={instance.fragment} seed={seed} index={index}\n"
        f"# {detail}\n"
        f"# sigma={list(sigma)!r}\n"
        f"# phi={str(instance.phi)!r}\n"
    )
    return DisagreementRecord(
        fragment=instance.fragment,
        seed=seed,
        index=index,
        kind=kind,
        engines=("cold-solve", engine),
        answers=(cold.answer.value, cached.answer.value),
        detail=detail,
        original_sigma=sigma,
        original_phi=str(instance.phi),
        shrunk_sigma=sigma,
        shrunk_phi=str(instance.phi),
        regression_test=test,
    )


def _injected_record(
    instance: FragmentInstance,
    kind: str,
    engines: tuple[str, ...],
    answers: tuple[str, ...],
    detail: str,
    seed: int,
    index: int,
) -> DisagreementRecord:
    """A disagreement record for an injection finding (never shrunk —
    reproduction needs the exact fault plan, which ``detail`` names)."""
    sigma = _strs(instance.sigma)
    test = (
        f"# {kind}: reproduce with REPRO_INJECT='{detail.split(';')[0][5:]}'\n"
        f"# fragment={instance.fragment} seed={seed} index={index}\n"
        f"# sigma={list(sigma)!r}\n"
        f"# phi={str(instance.phi)!r}\n"
    )
    return DisagreementRecord(
        fragment=instance.fragment,
        seed=seed,
        index=index,
        kind=kind,
        engines=engines,
        answers=answers,
        detail=detail,
        original_sigma=sigma,
        original_phi=str(instance.phi),
        shrunk_sigma=sigma,
        shrunk_phi=str(instance.phi),
        regression_test=test,
    )


def _record(
    instance: FragmentInstance,
    disagreement: Disagreement,
    seed: int,
    index: int,
    config: OracleConfig,
    shrink: bool,
    extra,
) -> DisagreementRecord:
    shrunk_sigma, shrunk_phi = instance.sigma, instance.phi
    if shrink:
        reproduces = make_reproducer(instance, disagreement, config, extra)
        shrunk_sigma, shrunk_phi = shrink_instance(
            instance.sigma, instance.phi, reproduces
        )
    test = emit_regression_test(
        shrunk_sigma,
        shrunk_phi,
        disagreement.engines,
        disagreement.answers,
        schema=instance.schema,
        kind=disagreement.kind,
        seed_note=f"fragment={instance.fragment} seed={seed} index={index}",
    )
    return DisagreementRecord(
        fragment=instance.fragment,
        seed=seed,
        index=index,
        kind=disagreement.kind,
        engines=disagreement.engines,
        answers=disagreement.answers,
        detail=disagreement.detail,
        original_sigma=_strs(instance.sigma),
        original_phi=str(instance.phi),
        shrunk_sigma=_strs(shrunk_sigma),
        shrunk_phi=str(shrunk_phi),
        regression_test=test,
    )
