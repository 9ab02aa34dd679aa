"""The engine/oracle matrix and three-valued disagreement detection.

Every generated instance runs through every *applicable* engine:

==================  =========================================================
engine              answers
==================  =========================================================
``word``            complete P_w decider (:func:`implies_word`); UNKNOWN when
                    the EGD fragment's honest escape hatch fires
``local-extent``    complete Definition 2.4 decider
``typed-M``         complete cubic decider over M (:func:`implies_typed_m`)
``chase``           sound both ways on untyped instances; over a typed
                    context only its TRUE transfers (U(Delta) is a subclass
                    of all structures), so a typed chase FALSE is demoted to
                    UNKNOWN
``countermodel``    tableau counter-model search — FALSE on a hit, else
                    UNKNOWN
``brute-force``     the oracle scan over every labelled graph, run when the
                    candidate space is small enough to enumerate
``portfolio``       :func:`run_portfolio`: the chase, then the counter-model
                    search
``enumerate-M``     the ``U_f(Delta)`` instance enumerator — FALSE on a
                    typed counter-model, else UNKNOWN
==================  =========================================================

Verdicts are *three-valued-aware*: an engine that cannot answer
returns UNKNOWN, never a guess, so a disagreement is either two
definite answers that contradict each other, or a definite answer
whose certificate (an I_r proof or a counter-model graph) fails
independent re-verification via :func:`check_proof` / the Definition
2.1 checker.  Unsound-direction answers are demoted to UNKNOWN at the
verdict boundary, so the conflict test itself stays a one-liner.

The matrix is *cache-bypassed by construction*: every engine here
calls its decision procedure directly (never ``solve(cache=...)``),
so the oracle verdicts are always freshly computed — which is exactly
what lets the ``fuzz --cache-check`` differential (and the cache unit
tests) reuse :func:`verify_countermodel` to independently cross-check
a replayed cache hit against an uncached ground truth.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import combinations

from repro.checking import check_all
from repro.checking.satisfaction import violations
from repro.constraints.ast import PathConstraint
from repro.errors import ReproError
from repro.graph.structure import Graph
from repro.reasoning.axioms import check_proof
from repro.reasoning.chase import chase_implication
from repro.reasoning.dispatcher import (
    Context,
    ImplicationProblem,
    ProblemClass,
    classify,
)
from repro.reasoning.local_extent import (
    implies_local_extent,
    reduce_to_word_problem,
)
from repro.constraints.classes import infer_bounds
from repro.reasoning.models import (
    brute_force_countermodel,
    find_countermodel,
    infer_alphabet,
)
from repro.reasoning.options import SolveOptions
from repro.reasoning.portfolio import (
    TYPED_CHASE_FALSE_NOTE,
    Budget,
    run_portfolio,
)
from repro.reasoning.typed_m import implies_typed_m
from repro.reasoning.word import implies_word
from repro.truth import Trilean
from repro.types.enumerate_m import find_m_countermodel
from repro.types.typesys import Schema

from repro.diffcheck.generators import FragmentInstance


@dataclass(frozen=True)
class OracleConfig:
    """Budgets for one pass of the engine matrix over one instance.

    Defaults are tuned so a full matrix run on a generated instance
    takes milliseconds-to-tens-of-milliseconds: the generators keep
    alphabets at <= 3 labels, so two-node counter-model search and the
    brute-force oracle stay tiny.
    """

    chase_steps: int = 400
    countermodel_nodes: int = 2
    brute_max_nodes: int = 2
    #: the brute-force oracle enumerates ``sum 2^(L*n^2)`` graphs; it
    #: is skipped (not silently — the verdict says so) above this cap.
    brute_space_cap: int = 5_000
    typed_limit: int = 400
    typed_max_per_class: int = 2
    #: absolute ``time.monotonic()`` deadline shared by the whole pass.
    deadline: float | None = None

    def solve_options(self, **settings) -> SolveOptions:
        """These budgets as :class:`SolveOptions`, plus ``settings``."""
        return SolveOptions(
            chase_steps=self.chase_steps,
            countermodel_nodes=self.countermodel_nodes,
            typed_search_limit=self.typed_limit,
            **settings,
        )


@dataclass(frozen=True)
class EngineVerdict:
    """One engine's (possibly abstaining) answer on one instance."""

    engine: str
    answer: Trilean
    elapsed: float = 0.0
    #: True/False when the engine produced a re-verifiable certificate
    #: (I_r proof or counter-model) and it passed/failed; None when the
    #: answer carries no independently checkable certificate.
    certificate_ok: bool | None = None
    note: str = ""

    def describe(self) -> str:
        parts = [f"{self.engine}: {self.answer.value}"]
        if self.certificate_ok is not None:
            parts.append(
                "certificate ok" if self.certificate_ok else "CERTIFICATE BAD"
            )
        if self.note:
            parts.append(self.note)
        return ", ".join(parts)


@dataclass(frozen=True)
class Disagreement:
    """A cross-engine contradiction or a failed certificate."""

    kind: str  # "definite-conflict" | "bad-certificate"
    engines: tuple[str, ...]
    answers: tuple[str, ...]
    detail: str = ""

    def describe(self) -> str:
        pairing = " vs ".join(
            f"{e}={a}" for e, a in zip(self.engines, self.answers)
        )
        text = f"{self.kind}: {pairing}"
        return f"{text} ({self.detail})" if self.detail else text


# ---------------------------------------------------------------------------
# Certificate re-verification (independent of the engines).
# ---------------------------------------------------------------------------


def verify_countermodel(
    graph: Graph, sigma: Sequence[PathConstraint], phi: PathConstraint
) -> bool:
    """Is ``graph`` a genuine counter-model?  (Definition 2.1 checker.)"""
    return bool(violations(graph, phi, limit=1)) and check_all(
        graph, list(sigma)
    ).ok


def _verify_proof(proof, sigma: Sequence[PathConstraint], phi) -> bool:
    try:
        conclusion = check_proof(proof)
    except ReproError:
        return False
    return conclusion == phi and set(proof.assumptions) <= set(sigma)


def _certificate_status(
    result, sigma: Sequence[PathConstraint], phi: PathConstraint
) -> tuple[bool | None, str]:
    """Re-verify whatever certificate an ImplicationResult carries."""
    if result.proof is not None:
        ok = _verify_proof(result.proof, sigma, phi)
        return ok, "" if ok else "I_r proof failed independent check_proof"
    if result.answer is Trilean.FALSE and result.countermodel is not None:
        ok = verify_countermodel(result.countermodel, sigma, phi)
        return ok, "" if ok else "countermodel failed Definition 2.1 recheck"
    return None, ""


# ---------------------------------------------------------------------------
# Engines.  Each takes (instance, config) and returns a verdict, or
# None when it does not apply to the instance.
# ---------------------------------------------------------------------------


def _timed(
    engine: str, body: Callable[[], tuple[Trilean, bool | None, str]]
) -> EngineVerdict:
    began = time.perf_counter()
    try:
        answer, cert_ok, note = body()
    except ReproError as exc:
        answer, cert_ok = Trilean.UNKNOWN, None
        note = f"abstained: {type(exc).__name__}: {exc}"
    return EngineVerdict(
        engine=engine,
        answer=answer,
        elapsed=time.perf_counter() - began,
        certificate_ok=cert_ok,
        note=note[:200],
    )


def _engine_word(
    inst: FragmentInstance, cfg: OracleConfig
) -> EngineVerdict | None:
    if inst.context is not Context.SEMISTRUCTURED:
        return None
    if not all(c.is_word_constraint() for c in inst.sigma) or not (
        inst.phi.is_word_constraint()
    ):
        return None

    def body():
        result = implies_word(
            inst.sigma,
            inst.phi,
            with_proof=True,
            chase_steps=cfg.chase_steps,
            deadline=cfg.deadline,
        )
        cert_ok, note = _certificate_status(result, inst.sigma, inst.phi)
        return result.answer, cert_ok, note

    return _timed("word", body)


def _engine_local_extent(
    inst: FragmentInstance, cfg: OracleConfig
) -> EngineVerdict | None:
    if inst.context is not Context.SEMISTRUCTURED:
        return None
    if classify(inst.sigma, inst.phi) is not ProblemClass.LOCAL_EXTENT:
        return None

    def body():
        result = implies_local_extent(
            list(inst.sigma), inst.phi, with_proof=True
        )
        if result.proof is not None:
            # Lemma 5.3: the certificate proves the *reduced* word
            # instance (Sigma^2_K |- phi^2), so re-verify against it.
            rho, guard = infer_bounds(inst.phi)
            words, phi2 = reduce_to_word_problem(
                inst.sigma, inst.phi, rho, guard
            )
            ok = _verify_proof(result.proof, words, phi2)
            note = (
                ""
                if ok
                else "reduced-instance proof failed independent check_proof"
            )
            return result.answer, ok, note
        cert_ok, note = _certificate_status(result, inst.sigma, inst.phi)
        return result.answer, cert_ok, note

    return _timed("local-extent", body)


def _engine_typed_m(
    inst: FragmentInstance, cfg: OracleConfig
) -> EngineVerdict | None:
    if inst.context is not Context.M or inst.schema is None:
        return None

    def body():
        result = implies_typed_m(
            inst.schema, inst.sigma, inst.phi, with_proof=True
        )
        cert_ok, note = _certificate_status(result, inst.sigma, inst.phi)
        return result.answer, cert_ok, note

    return _timed("typed-M", body)


def _engine_chase(
    inst: FragmentInstance, cfg: OracleConfig
) -> EngineVerdict | None:
    typed = inst.context is not Context.SEMISTRUCTURED

    def body():
        result = chase_implication(
            list(inst.sigma),
            inst.phi,
            max_steps=cfg.chase_steps,
            deadline=cfg.deadline,
        )
        if typed and result.answer is Trilean.FALSE:
            # An untyped fixpoint counter-model proves nothing about
            # U(Delta): only the TRUE direction transfers.
            return Trilean.UNKNOWN, None, TYPED_CHASE_FALSE_NOTE
        cert_ok, note = _certificate_status(result, inst.sigma, inst.phi)
        return result.answer, cert_ok, note

    return _timed("chase", body)


def _engine_countermodel(
    inst: FragmentInstance, cfg: OracleConfig
) -> EngineVerdict | None:
    if inst.context is not Context.SEMISTRUCTURED:
        return None

    def body():
        graph = find_countermodel(
            inst.sigma,
            inst.phi,
            max_nodes=cfg.countermodel_nodes,
            deadline=cfg.deadline,
        )
        if graph is None:
            return (
                Trilean.UNKNOWN,
                None,
                f"no counter-model within {cfg.countermodel_nodes} nodes",
            )
        ok = verify_countermodel(graph, inst.sigma, inst.phi)
        return Trilean.FALSE, ok, "" if ok else "hit failed recheck"

    return _timed("countermodel", body)


def _brute_space(labels: int, max_nodes: int) -> int:
    return sum(2 ** (labels * n * n) for n in range(1, max_nodes + 1))


def _engine_brute_force(
    inst: FragmentInstance, cfg: OracleConfig
) -> EngineVerdict | None:
    if inst.context is not Context.SEMISTRUCTURED:
        return None
    labels = infer_alphabet(inst.sigma, inst.phi)
    if _brute_space(len(labels), cfg.brute_max_nodes) > cfg.brute_space_cap:
        return None  # recorded by absence; the report counts engine runs

    def body():
        graph = brute_force_countermodel(
            inst.sigma, inst.phi, max_nodes=cfg.brute_max_nodes
        )
        if graph is None:
            return (
                Trilean.UNKNOWN,
                None,
                f"no counter-model within {cfg.brute_max_nodes} nodes",
            )
        ok = verify_countermodel(graph, inst.sigma, inst.phi)
        return Trilean.FALSE, ok, "" if ok else "hit failed recheck"

    return _timed("brute-force", body)


def _engine_portfolio(
    inst: FragmentInstance, cfg: OracleConfig
) -> EngineVerdict | None:
    if inst.context is not Context.SEMISTRUCTURED:
        return None

    def body():
        problem = ImplicationProblem(
            inst.sigma, inst.phi, inst.context, schema=inst.schema
        )
        result = run_portfolio(
            problem,
            cfg.solve_options(),
            budget=Budget(deadline=cfg.deadline),
        )
        cert_ok, note = _certificate_status(result, inst.sigma, inst.phi)
        return result.answer, cert_ok, note

    return _timed("portfolio", body)


def _engine_enumerate_m(
    inst: FragmentInstance, cfg: OracleConfig
) -> EngineVerdict | None:
    if inst.context is not Context.M or inst.schema is None:
        return None

    def body():
        graph = find_m_countermodel(
            inst.schema,
            inst.sigma,
            inst.phi,
            max_per_class=cfg.typed_max_per_class,
            limit=cfg.typed_limit,
        )
        if graph is None:
            return (
                Trilean.UNKNOWN,
                None,
                f"no counter-model in the first {cfg.typed_limit} members "
                "of U_f(Delta)",
            )
        ok = verify_countermodel(graph, inst.sigma, inst.phi)
        return Trilean.FALSE, ok, "" if ok else "hit failed recheck"

    return _timed("enumerate-M", body)


#: Engine name -> engine function, in matrix order.
_ENGINES: dict[
    str, Callable[[FragmentInstance, OracleConfig], EngineVerdict | None]
] = {
    "word": _engine_word,
    "local-extent": _engine_local_extent,
    "typed-M": _engine_typed_m,
    "chase": _engine_chase,
    "countermodel": _engine_countermodel,
    "brute-force": _engine_brute_force,
    "enumerate-M": _engine_enumerate_m,
    "portfolio": _engine_portfolio,
}


def _engine_table(
    extra: Mapping[
        str, Callable[[FragmentInstance, OracleConfig], EngineVerdict | None]
    ]
    | None = None,
) -> dict[str, Callable]:
    table = dict(_ENGINES)
    if extra:
        table.update(extra)
    return table


def run_engines(
    instance: FragmentInstance,
    config: OracleConfig | None = None,
    extra: Mapping[
        str, Callable[[FragmentInstance, OracleConfig], EngineVerdict | None]
    ]
    | None = None,
) -> list[EngineVerdict]:
    """Run the full applicable engine matrix on one instance.

    ``extra`` engines (used by the shrinker tests to inject a
    deliberately broken decider) participate in the matrix on equal
    terms.
    """
    config = config or OracleConfig()
    verdicts = []
    for engine in _engine_table(extra).values():
        verdict = engine(instance, config)
        if verdict is not None:
            verdicts.append(verdict)
    return verdicts


def run_named_engine(
    name: str,
    sigma: Sequence[PathConstraint],
    phi: PathConstraint,
    schema: Schema | None = None,
    config: OracleConfig | None = None,
    extra: Mapping[
        str, Callable[[FragmentInstance, OracleConfig], EngineVerdict | None]
    ]
    | None = None,
) -> EngineVerdict:
    """Run one engine by name on a bare (sigma, phi) instance.

    The handle the shrinker's reproducers and the emitted regression
    tests call: engine names are exactly the matrix names.
    """
    config = config or OracleConfig()
    context = Context.M if schema is not None else Context.SEMISTRUCTURED
    instance = FragmentInstance(
        fragment="ad-hoc",
        sigma=tuple(sigma),
        phi=phi,
        context=context,
        schema=schema,
    )
    table = _engine_table(extra)
    if name not in table:
        raise KeyError(f"unknown engine {name!r}; have {sorted(table)}")
    verdict = table[name](instance, config)
    if verdict is None:
        return EngineVerdict(
            engine=name,
            answer=Trilean.UNKNOWN,
            note="engine not applicable to this instance",
        )
    return verdict


def find_disagreements(
    verdicts: Sequence[EngineVerdict],
) -> list[Disagreement]:
    """Three-valued-aware disagreement detection.

    UNKNOWN never disagrees with anything; two *definite* answers that
    differ always do, because every engine's definite answers are
    (soundness-filtered) ground truth claims.  A failed certificate is
    a disagreement of an engine with its own evidence.
    """
    out = []
    definite = [v for v in verdicts if v.answer.is_definite]
    for a, b in combinations(definite, 2):
        if a.answer is not b.answer:
            out.append(
                Disagreement(
                    kind="definite-conflict",
                    engines=(a.engine, b.engine),
                    answers=(a.answer.value, b.answer.value),
                )
            )
    for v in verdicts:
        if v.certificate_ok is False:
            out.append(
                Disagreement(
                    kind="bad-certificate",
                    engines=(v.engine,),
                    answers=(v.answer.value,),
                    detail=v.note,
                )
            )
    return out


def with_deadline(config: OracleConfig, deadline: float | None) -> OracleConfig:
    """A copy of ``config`` carrying an absolute deadline."""
    return replace(config, deadline=deadline)
