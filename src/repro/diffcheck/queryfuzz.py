"""Differential fuzzing of the query layer.

The optimizer and the containment checker both promise *soundness on
Sigma-models*: an optimized union must return exactly the answers of
the original union on every database satisfying Sigma, and a definite
containment verdict must agree with brute-force answer-set inclusion.
This module hunts for violations of those promises on thousands of
small random instances:

* random word-constraint Sigmas (equality-generating conclusions
  included — the fragment that used to crash the optimizer);
* random unions of word queries, optimized and then evaluated against
  unoptimized on random graphs *chased to a Sigma-model* (non-fixpoint
  chases are skipped — the promise only covers Sigma-models);
* random regular-pattern pairs, whose three-valued containment verdict
  is cross-checked directionally: TRUE must hold on every sampled
  Sigma-model, FALSE must be confirmed by an explicit chased witness
  countermodel on decidable cells, UNKNOWN asserts nothing;
* a typed-M cell: a random M schema and Sigma over ``Paths(Delta)``
  (the ``typed-M`` fuzz fragment's generator), containment pairs over
  ``Paths(Delta)`` and unions over the schema's labels, checked on
  every ``U_f(Delta)`` member with at most two objects per class that
  models Sigma — a typed TRUE must hold on each, and the
  ``Paths(Delta)``-pruned union must keep its answers;
* every hit is delta-debugged down to a minimal Sigma (and branch
  list) that still reproduces, and rendered as a paste-ready
  regression comment.

Exit contract mirrors :mod:`repro.diffcheck.runner`: a clean sweep is
the CI gate the query benchmarks sit on.
"""

from __future__ import annotations

import json
import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.checking.engine import satisfies_all
from repro.constraints.ast import PathConstraint
from repro.constraints.ast import word as word_constraint
from repro.diffcheck.generators import gen_typed_m
from repro.graph.builders import random_graph
from repro.graph.structure import Graph
from repro.paths import Path
from repro.query.containment import QueryContainmentChecker
from repro.query.optimizer import WordQueryOptimizer, optimize_rpq_union
from repro.query.rpq import evaluate_rpq, evaluate_word
from repro.reasoning.chase import chase
from repro.reasoning.dispatcher import Context
from repro.truth import Trilean
from repro.types.enumerate_m import enumerate_m_structures
from repro.types.siggen import SchemaSignature

#: Chase budget per sampled graph; non-fixpoint chases are skipped.
MODEL_CHASE_STEPS = 300

#: Containment pairs the typed-M cell draws per round.
TYPED_PAIRS = 4


@dataclass
class QueryDisagreementRecord:
    """One query-layer fuzz hit, shrunk and rendered."""

    kind: str
    seed: int
    index: int
    detail: str
    sigma: tuple[str, ...]
    query: str
    shrunk_sigma: tuple[str, ...]
    shrunk_query: str
    regression_test: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "index": self.index,
            "detail": self.detail,
            "sigma": list(self.sigma),
            "query": self.query,
            "shrunk": {
                "sigma": list(self.shrunk_sigma),
                "query": self.shrunk_query,
            },
            "regression_test": self.regression_test,
        }


@dataclass
class QueryFuzzReport:
    """Everything one query-fuzz sweep learned, machine-readable."""

    seed: int
    rounds: int
    optimizer_checks: int = 0
    containment_checks: int = 0
    models_checked: int = 0
    models_skipped: int = 0
    verdict_true: int = 0
    verdict_false: int = 0
    verdict_unknown: int = 0
    branches_saved: int = 0
    #: The typed-M cell's tallies.
    typed_containment_checks: int = 0
    typed_union_checks: int = 0
    typed_models_checked: int = 0
    typed_verdicts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(("true", "false", "unknown"), 0)
    )
    typed_branches_pruned: int = 0
    typed_branches_emptied: int = 0
    disagreements: list[QueryDisagreementRecord] = field(
        default_factory=list
    )
    elapsed: float = 0.0
    deadline_hit: bool = False
    aborted: bool = False

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "ok": self.ok,
            "elapsed": round(self.elapsed, 3),
            "deadline_hit": self.deadline_hit,
            "aborted": self.aborted,
            "optimizer_checks": self.optimizer_checks,
            "containment_checks": self.containment_checks,
            "models_checked": self.models_checked,
            "models_skipped": self.models_skipped,
            "verdicts": {
                "true": self.verdict_true,
                "false": self.verdict_false,
                "unknown": self.verdict_unknown,
            },
            "branches_saved": self.branches_saved,
            "typed_m": {
                "containment_checks": self.typed_containment_checks,
                "union_checks": self.typed_union_checks,
                "models_checked": self.typed_models_checked,
                "verdicts": dict(self.typed_verdicts),
                "branches_pruned": self.typed_branches_pruned,
                "branches_emptied": self.typed_branches_emptied,
            },
            "disagreements": [d.to_dict() for d in self.disagreements],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        lines = [
            f"query fuzz seed={self.seed}: {self.rounds} rounds, "
            f"{self.optimizer_checks} union checks, "
            f"{self.containment_checks} containment checks, "
            f"{self.models_checked} Sigma-models "
            f"({self.models_skipped} skipped), "
            f"{len(self.disagreements)} disagreement(s) "
            f"in {self.elapsed:.1f}s"
            + (" [deadline hit]" if self.deadline_hit else "")
            + (" [ABORTED]" if self.aborted else "")
        ]
        lines.append(
            f"  verdicts: T={self.verdict_true} F={self.verdict_false} "
            f"?={self.verdict_unknown}; "
            f"branches saved by optimization: {self.branches_saved}"
        )
        typed = self.typed_verdicts
        lines.append(
            f"  typed-M: {self.typed_containment_checks} containment "
            f"checks (T={typed['true']} F={typed['false']} "
            f"?={typed['unknown']}), {self.typed_union_checks} union "
            f"checks ({self.typed_branches_pruned} pruned, "
            f"{self.typed_branches_emptied} emptied), "
            f"{self.typed_models_checked} U_f(Delta) models"
        )
        for record in self.disagreements:
            lines.append(f"  HIT {record.kind}: {record.detail}")
        return "\n".join(lines)


# -- generation ------------------------------------------------------------


def _random_word(rng: random.Random, labels: Sequence[str]) -> Path:
    return Path(
        tuple(rng.choice(labels) for _ in range(rng.randint(1, 3)))
    )


def _random_sigma(
    rng: random.Random, labels: Sequence[str], allow_egds: bool
) -> tuple[PathConstraint, ...]:
    sigma = []
    for _ in range(rng.randint(1, 4)):
        lhs = _random_word(rng, labels)
        if allow_egds and rng.random() < 0.3:
            sigma.append(word_constraint(lhs, Path.empty()))
        else:
            sigma.append(word_constraint(lhs, _random_word(rng, labels)))
    return tuple(sigma)


def _random_branches(
    rng: random.Random, labels: Sequence[str]
) -> tuple[Path, ...]:
    branches = [
        _random_word(rng, labels) for _ in range(rng.randint(2, 5))
    ]
    if len(branches) > 1 and rng.random() < 0.3:
        branches.append(rng.choice(branches))  # deliberate duplicate
    return tuple(branches)


def _random_pattern(rng: random.Random, labels: Sequence[str]) -> str:
    shape = rng.random()
    if shape < 0.4:
        return str(_random_word(rng, labels))
    if shape < 0.7:
        return (
            f"{_random_word(rng, labels)} | {_random_word(rng, labels)}"
        )
    prefix = _random_word(rng, labels)
    starred = rng.choice(labels)
    suffix = rng.choice(labels)
    return f"{prefix}.({starred})*.{suffix}"


def _random_pair(
    rng: random.Random, labels: Sequence[str]
) -> tuple[str, str]:
    """A containment question; sometimes syntactically related so TRUE
    verdicts (left c left | extra) get exercised, not just FALSE."""
    left = _random_pattern(rng, labels)
    if rng.random() < 0.35:
        return left, f"{left} | {_random_word(rng, labels)}"
    return left, _random_pattern(rng, labels)


def _sigma_models(
    rng: random.Random,
    sigma: Sequence[PathConstraint],
    labels: Sequence[str],
    report: QueryFuzzReport,
    count: int = 2,
) -> list[Graph]:
    """Random graphs chased to a Sigma-fixpoint (skipping the rest)."""
    models = []
    for _ in range(count):
        g = random_graph(
            node_count=rng.randint(3, 6),
            labels=list(labels),
            edge_probability=0.25,
            seed=rng.randrange(2**30),
        )
        outcome = chase(g, list(sigma), max_steps=MODEL_CHASE_STEPS)
        if outcome.fixpoint:
            models.append(outcome.graph)
            report.models_checked += 1
        else:
            report.models_skipped += 1
    return models


# -- oracles ---------------------------------------------------------------


def _union_answers(
    graph: Graph, branches: Sequence, evaluate=evaluate_word
) -> frozenset:
    answers = set()
    for branch in branches:
        answers |= evaluate(graph, branch).answers
    return frozenset(answers)


def _union_mismatch(
    sigma: Sequence[PathConstraint],
    branches: Sequence[Path],
    models: Sequence[Graph],
):
    """Run the optimizer and compare answer sets.

    Returns ``(detail, report)`` — detail is None when clean.  Also
    enforces the accounting invariant
    ``len(report.pruned) == report.branches_saved``.  The deadline
    bounds the whole optimization, keeping equality-generating chase
    fallbacks cheap; a solve cut short answers UNKNOWN, which the
    optimizer must treat as "keep the branch" (exactly the
    conservatism under test).
    """
    optimizer = WordQueryOptimizer(sigma, deadline=0.25)
    try:
        report = optimizer.optimize_union(branches)
    except Exception as exc:  # a legal union + legal Sigma must not raise
        return f"optimize_union raised {type(exc).__name__}: {exc}", None
    if len(report.pruned) != report.branches_saved:
        return (
            f"accounting broken: {len(report.pruned)} pruned pairs vs "
            f"branches_saved={report.branches_saved}"
        ), report
    for model in models:
        before = _union_answers(model, list(report.original))
        after = _union_answers(model, list(report.optimized))
        if before != after:
            return (
                f"optimized union changed answers on a Sigma-model: "
                f"{sorted(map(repr, before))} != "
                f"{sorted(map(repr, after))} "
                f"(plan {[str(p) for p in report.optimized]})"
            ), report
    return None, report


def _containment_mismatch(
    sigma: Sequence[PathConstraint],
    left: str,
    right: str,
    models: Sequence[Graph],
    report: QueryFuzzReport | None = None,
) -> str | None:
    """Directional cross-check of one containment verdict.

    TRUE must hold on every sampled Sigma-model; FALSE on a decidable
    cell must be confirmed by its own chased witness countermodel
    (where the chase terminates); UNKNOWN asserts nothing.
    """
    checker = QueryContainmentChecker(
        sigma, deadline=0.25, enumeration_count=16
    )
    result = checker.contains(left, right)
    if report is not None:
        if result.verdict is Trilean.TRUE:
            report.verdict_true += 1
        elif result.verdict is Trilean.FALSE:
            report.verdict_false += 1
        else:
            report.verdict_unknown += 1
    if result.verdict is Trilean.TRUE:
        for model in models:
            la = evaluate_rpq(model, left).answers
            ra = evaluate_rpq(model, right).answers
            if not la <= ra:
                return (
                    f"TRUE verdict ({result.method}) but answers leak "
                    f"on a Sigma-model: {sorted(map(repr, la - ra))} "
                    f"match only the left side"
                )
    elif result.verdict is Trilean.FALSE and result.decidable:
        witness = result.witness
        if witness is None:
            return f"FALSE verdict ({result.method}) carries no witness"
        from repro.graph.builders import line_graph

        outcome = chase(
            line_graph(witness.labels), list(sigma),
            max_steps=MODEL_CHASE_STEPS,
        )
        if outcome.fixpoint:
            la = evaluate_rpq(outcome.graph, left).answers
            ra = evaluate_rpq(outcome.graph, right).answers
            if la <= ra:
                return (
                    f"FALSE verdict ({result.method}) with witness "
                    f"{witness}, but the chased witness tableau "
                    f"satisfies the containment"
                )
    return None


def _typed_m_cell(
    rng: random.Random, report: QueryFuzzReport, seed: int, index: int
) -> None:
    """One round of the typed-M cell; its hits land in ``report``
    unshrunk (the oracle's models depend on Sigma, so a smaller Sigma
    would be checked on other models).

    Sigma and its M schema come from the ``typed-M`` fuzz generator.
    Containment pairs are drawn over ``Paths(Delta)``; union branches
    over the schema's labels, so some miss ``Paths(Delta)`` and are
    pruned as empty.  The oracle is every ``U_f(Delta)`` member with
    at most two objects per class that models Sigma.
    """
    instance = gen_typed_m(rng)
    sigma, schema = instance.sigma, instance.schema
    signature = SchemaSignature(schema)
    paths = [str(p) for p in signature.sample_paths(3) if not p.is_empty()]
    labels = sorted(signature.edge_labels)
    models = [
        graph
        for graph in enumerate_m_structures(schema, max_per_class=2)
        if satisfies_all(graph, list(sigma))
    ]
    report.typed_models_checked += len(models)
    checker = QueryContainmentChecker(sigma, context=Context.M, schema=schema)

    def hit(kind: str, query: str, detail: str) -> None:
        report.disagreements.append(
            _record(kind, seed, index, detail, sigma, query, sigma, query)
        )

    for _ in range(TYPED_PAIRS):
        left = rng.choice(paths)
        if rng.random() < 0.5:
            left = f"{left} | {rng.choice(paths)}"
        right = rng.choice(paths)
        if rng.random() < 0.35:
            right = f"{left} | {right}"
        elif rng.random() < 0.3:
            right = f"{right}.({rng.choice(labels)})*"
        report.typed_containment_checks += 1
        query = f"{left} c {right}"
        try:
            result = checker.contains(left, right)
        except Exception as exc:  # a legal query must not raise
            detail = f"contains raised {type(exc).__name__}: {exc}"
            hit("typed-containment-wrong", query, detail)
            continue
        report.typed_verdicts[result.verdict.value] += 1
        if result.verdict is not Trilean.TRUE:
            continue
        for model in models:
            leak = (
                evaluate_rpq(model, left).answers
                - evaluate_rpq(model, right).answers
            )
            if leak:
                detail = (
                    f"typed TRUE verdict ({result.method}) but answers "
                    f"leak on a Sigma-model: {sorted(map(repr, leak))}"
                )
                hit("typed-containment-wrong", query, detail)
                break
    branches = [
        rng.choice(paths)
        if rng.random() < 0.5
        else str(_random_word(rng, labels))
        for _ in range(rng.randint(2, 5))
    ]
    report.typed_union_checks += 1
    union = " | ".join(branches)
    try:
        optimized = optimize_rpq_union(branches, checker)
    except Exception as exc:  # a legal union must not raise
        detail = f"optimize_rpq_union raised {type(exc).__name__}: {exc}"
        hit("typed-union-answers-changed", union, detail)
        return
    report.typed_branches_pruned += len(optimized.pruned)
    report.typed_branches_emptied += len(optimized.emptied)
    for model in models:
        before = _union_answers(model, optimized.original, evaluate_rpq)
        after = _union_answers(model, optimized.optimized, evaluate_rpq)
        if before != after:
            detail = (
                f"typed union changed answers on a Sigma-model: "
                f"{sorted(map(repr, before))} != {sorted(map(repr, after))} "
                f"(plan {list(optimized.optimized)})"
            )
            hit("typed-union-answers-changed", union, detail)
            break


# -- shrinking -------------------------------------------------------------


def _ddmin(
    items: tuple, reproduces: Callable[[tuple], bool]
) -> tuple:
    """Greedy one-at-a-time delta debugging (instances are tiny)."""
    current = items
    progress = True
    while progress:
        progress = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            try:
                hit = reproduces(candidate)
            except Exception:
                hit = True  # a crash during replay is still the bug
            if hit:
                current = candidate
                progress = True
                break
    return current


def _record(
    kind: str,
    seed: int,
    index: int,
    detail: str,
    sigma: Sequence[PathConstraint],
    query: str,
    shrunk_sigma: Sequence[PathConstraint],
    shrunk_query: str,
) -> QueryDisagreementRecord:
    """A hit, with a paste-ready regression comment for its shrunk core."""
    shrunk = [str(psi) for psi in shrunk_sigma]
    return QueryDisagreementRecord(
        kind=kind,
        seed=seed,
        index=index,
        detail=detail,
        sigma=tuple(str(psi) for psi in sigma),
        query=query,
        shrunk_sigma=tuple(shrunk),
        shrunk_query=shrunk_query,
        regression_test=(
            f"# query-fuzz {kind}: seed={seed} index={index}\n"
            f"# sigma = {shrunk!r}\n"
            f"# query = {shrunk_query!r}\n"
            f"# {detail}\n"
        ),
    )


# -- the driver ------------------------------------------------------------


def fuzz_queries(
    seed: int = 0,
    rounds: int = 25,
    labels: Sequence[str] = ("a", "b"),
    deadline: float | None = None,
    shrink: bool = True,
    allow_egds: bool = True,
) -> QueryFuzzReport:
    """Run one query-layer differential sweep.

    Each round draws a Sigma (optionally with equality-generating
    conclusions), a union of word queries and a regular-pattern pair,
    samples Sigma-models, and cross-checks the optimizer and the
    containment checker against brute-force evaluation; then it runs
    the typed-M cell.  ``deadline`` is a relative budget in seconds
    for the whole sweep.
    """
    began = time.monotonic()
    absolute = None if deadline is None else began + deadline
    report = QueryFuzzReport(seed=seed, rounds=rounds)
    try:
        for index in range(rounds):
            if absolute is not None and time.monotonic() > absolute:
                report.deadline_hit = True
                break
            rng = random.Random(seed * 1_000_003 + index)
            sigma = _random_sigma(rng, labels, allow_egds)
            models = _sigma_models(rng, sigma, labels, report)

            branches = _random_branches(rng, labels)
            report.optimizer_checks += 1
            detail, opt_report = _union_mismatch(sigma, branches, models)
            if opt_report is not None:
                report.branches_saved += opt_report.branches_saved
            if detail is not None:
                query = " | ".join(str(b) for b in branches)
                shrunk_sigma, shrunk_branches = sigma, branches
                if shrink:
                    shrunk_sigma = _ddmin(
                        sigma,
                        lambda s: _union_mismatch(s, shrunk_branches, models)[0]
                        is not None,
                    )
                    shrunk_branches = _ddmin(
                        branches,
                        lambda b: len(b) > 0
                        and _union_mismatch(shrunk_sigma, b, models)[0]
                        is not None,
                    )
                report.disagreements.append(
                    _record(
                        "union-answers-changed", seed, index, detail,
                        sigma, query, shrunk_sigma,
                        " | ".join(str(b) for b in shrunk_branches),
                    )
                )

            left, right = _random_pair(rng, labels)
            report.containment_checks += 1
            detail = _containment_mismatch(
                sigma, left, right, models, report
            )
            if detail is not None:
                query = f"{left} c {right}"
                shrunk_sigma = sigma
                if shrink:
                    shrunk_sigma = _ddmin(
                        sigma,
                        lambda s: _containment_mismatch(
                            s, left, right, models
                        )
                        is not None,
                    )
                report.disagreements.append(
                    _record(
                        "containment-verdict-wrong", seed, index, detail,
                        sigma, query, shrunk_sigma, query,
                    )
                )

            _typed_m_cell(rng, report, seed, index)
    except KeyboardInterrupt:
        report.aborted = True
    # Honest accounting: rounds records what actually ran, which a
    # deadline or an interrupt may have cut short.
    report.rounds = report.optimizer_checks
    report.elapsed = time.monotonic() - began
    return report
