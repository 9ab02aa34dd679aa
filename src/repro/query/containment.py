"""Containment of regular path queries under path constraints.

``P c Q`` under Sigma means ``answers(P) c answers(Q)`` in every
database satisfying Sigma.  The reduction to implication is the
classical one (Calvanese-De Giacomo-Lenzerini for DL constraints;
Section 2.2 of the paper for the word-constraint engine behind it):

    ``P c Q``  iff  ``L(P)  c  pre*(L(Q))``

where ``pre*`` is taken under the prefix-rewriting system of Sigma's
word images — every word of ``P`` must be provably contained in *some*
word of ``Q``.  Soundness of that reduction needs only the soundness
of the three word-constraint inference rules, so it holds in every
context; *completeness* needs a canonical model, which the paper
supplies exactly on the decidable cells:

* **semistructured, EGD-free P_w** ([AV97], restated in Section 4.2):
  derivability is complete, and the chased word tableau is a canonical
  countermodel, so both TRUE and FALSE are definite;
* **M with a schema** (Lemmas 4.7/4.8, Theorem 4.9): constraints
  word-image into a *symmetric* system, both query languages are
  restricted to ``Paths(Delta)``, and the quotient of the path
  unfolding decides both directions;
* **everything else** (EGD word constraints, guarded/backward
  constraints over semistructured data, M+ contexts): undecidable or
  outside the complete fragment.  The checker then answers
  three-valued: TRUE when a sound saturation or a
  :func:`repro.reasoning.dispatcher.solve`-backed per-word coverage
  proves it, FALSE when a chased witness instance explicitly violates
  the containment, honest UNKNOWN otherwise — never a guess, never a
  crash.

The product construction is on-the-fly (no explicit powerset), so
query automata of the sizes real queries produce are cheap; a
``max_product_pairs`` valve turns a pathological blow-up into UNKNOWN
instead of an OOM.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.automata.nfa import NFA
from repro.automata.regex import compile_regex
from repro.constraints.ast import PathConstraint, word as word_constraint
from repro.errors import ReproError
from repro.paths import Path
from repro.reasoning.cache import ImplicationCache
from repro.reasoning.dispatcher import Context, ImplicationProblem, solve
from repro.reasoning.options import DEFAULT_SOLVE_OPTIONS, SolveOptions
from repro.reasoning.runtime import Budget
from repro.rewriting.prefix import PrefixRewriteSystem
from repro.truth import Trilean
from repro.types.siggen import SchemaSignature
from repro.types.typesys import Schema


@dataclass(frozen=True)
class ContainmentResult:
    """The three-valued outcome of one containment question."""

    left: str
    right: str
    verdict: Trilean
    method: str
    decidable: bool
    #: A word of ``L(left)`` not provably covered by ``right``.  On
    #: decidable cells this is a genuine counterexample word; on
    #: UNKNOWN verdicts it is the unsettled candidate.
    witness: Path | None = None
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        """True iff containment is *proved* (UNKNOWN is not proof)."""
        return self.verdict is Trilean.TRUE

    def describe(self) -> str:
        head = f"{self.left} c {self.right}: {self.verdict.value}"
        if self.witness is not None:
            head += f" (witness {self.witness})"
        return f"{head} [{self.method}]"


def _word_rules(
    sigma: Iterable[PathConstraint],
) -> tuple[list[tuple[Path, Path]], list[PathConstraint]]:
    """The prefix-rewrite rules Sigma soundly justifies, plus the
    residue it does not.

    Word constraints rewrite directly (``u => v`` gives
    ``answers(u.z) c answers(v.z)`` by right-congruence, sound in
    every context, EGDs included).  A *forward* guarded constraint
    soundly contributes its word image ``prefix.lhs => prefix.rhs``
    (any witness of the prefix relays the conclusion).  Backward
    constraints have no sound word image outside M — Lemma 4.8 needs
    M's totality — so they land in the residue.
    """
    rules: list[tuple[Path, Path]] = []
    residue: list[PathConstraint] = []
    for psi in sigma:
        if psi.is_forward():
            rules.append(
                (psi.prefix.concat(psi.lhs), psi.prefix.concat(psi.rhs))
            )
        else:
            residue.append(psi)
    return rules, residue


class QueryContainmentChecker:
    """Decides (or soundly semi-decides) RPQ containment under Sigma.

    The fallback's per-word implications go through ``solve()`` with
    ``options``, ``jobs`` and ``cache``.  ``deadline`` (seconds)
    starts when the checker is built and bounds all of them: each
    solve gets only the time left, and a spent budget answers UNKNOWN.

    >>> from repro.constraints import parse_constraints
    >>> sigma = parse_constraints('''
    ...     book.author => person
    ...     person.wrote => book
    ... ''')
    >>> checker = QueryContainmentChecker(sigma)
    >>> checker.contains("book.author", "person").verdict.value
    'true'
    >>> checker.contains("person", "book.author").verdict.value
    'false'
    >>> checker.contains("book.author.wrote | person.wrote",
    ...                  "book").verdict.value
    'true'
    """

    def __init__(
        self,
        sigma: Iterable[PathConstraint],
        context: Context | str = Context.SEMISTRUCTURED,
        schema: Schema | None = None,
        cache: ImplicationCache | None = None,
        jobs: int | str = "auto",
        deadline: float | None = None,
        options: SolveOptions = DEFAULT_SOLVE_OPTIONS,
        chase_steps: int = 400,
        enumeration_count: int = 64,
        max_product_pairs: int = 200_000,
    ) -> None:
        self._sigma = tuple(sigma)
        self._context = (
            Context(context) if isinstance(context, str) else context
        )
        if self._context is not Context.SEMISTRUCTURED and schema is None:
            raise ValueError(
                f"context {self._context.value} needs a schema"
            )
        self._schema = schema
        self._signature = (
            SchemaSignature(schema) if schema is not None else None
        )
        self._cache = cache
        self._jobs = jobs
        self._budget = Budget.from_seconds(deadline)
        self._options = options
        self._chase_steps = chase_steps
        self._enumeration_count = enumeration_count
        self._max_product_pairs = max_product_pairs
        #: Dispatcher traffic of the fallback path (benchmark fodder).
        self.stats = {"solve_calls": 0, "cache_hits": 0}
        self._alphabet = set()
        for psi in self._sigma:
            self._alphabet |= psi.alphabet()
        if self._signature is not None:
            self._alphabet |= self._signature.edge_labels
        self._covered_memo: dict[str, NFA] = {}

    @property
    def sigma(self) -> tuple[PathConstraint, ...]:
        return self._sigma

    @property
    def context(self) -> Context:
        return self._context

    # -- pattern compilation -------------------------------------------

    def compile(self, pattern: str) -> NFA:
        """The query automaton of ``pattern``.

        The ``_`` wildcard ranges over Sigma's and the schema's labels;
        in typed contexts the language is additionally intersected with
        ``Paths(Delta)`` (paths outside it reach no node in any typed
        structure, so the restriction never changes answer sets).
        """
        nfa = compile_regex(pattern, alphabet=frozenset(self._alphabet))
        if self._signature is not None:
            nfa = nfa.intersect(self._signature.paths_nfa())
        return nfa

    # -- the decision --------------------------------------------------

    def contains(
        self, left: str | Path, right: str | Path
    ) -> ContainmentResult:
        """Three-valued ``answers(left) c answers(right)`` under Sigma."""
        left, right = str(left), str(right)
        left_nfa = self.compile(left)
        if self._context is Context.M:
            return self._contains_typed_m(left, right, left_nfa)
        if self._context is Context.SEMISTRUCTURED and self._exact_word_cell():
            return self._contains_exact_word(left, right, left_nfa)
        return self._contains_fallback(left, right, left_nfa)

    def equivalence(self, left: str | Path, right: str | Path) -> Trilean:
        """Kleene conjunction of both containment directions."""
        return (
            self.contains(left, right).verdict
            & self.contains(right, left).verdict
        )

    def provably_empty(self, pattern: str) -> bool:
        """Is ``answers(pattern)`` empty in *every* model over the
        schema?  (Only the typed contexts can prove emptiness: a
        pattern whose language misses ``Paths(Delta)`` entirely reaches
        no node anywhere.)"""
        if self._signature is None:
            return False
        return self.compile(pattern).is_empty()

    # -- exact cells ---------------------------------------------------

    def _exact_word_cell(self) -> bool:
        """All-word, EGD-free Sigma: [AV97] derivability is complete."""
        return all(psi.is_word_constraint() for psi in self._sigma) and not any(
            psi.rhs.is_empty() and not psi.lhs.is_empty()
            for psi in self._sigma
        )

    def _covered_automaton(self, right: str, builder) -> NFA:
        cached = self._covered_memo.get(right)
        if cached is None:
            cached = builder()
            self._covered_memo[right] = cached
        return cached

    def _contains_exact_word(
        self, left: str, right: str, left_nfa: NFA
    ) -> ContainmentResult:
        system = PrefixRewriteSystem(
            [(psi.lhs, psi.rhs) for psi in self._sigma]
        )
        covered = self._covered_automaton(
            right, lambda: system.pre_star_of_nfa(self.compile(right))
        )
        try:
            witness = left_nfa.subset_witness(
                covered,
                extra_alphabet=self._alphabet,
                max_pairs=self._max_product_pairs,
            )
        except RuntimeError as exc:
            return ContainmentResult(
                left, right, Trilean.UNKNOWN,
                method="word-prestar-product",
                decidable=True,
                notes=(f"product budget exhausted: {exc}",),
            )
        if witness is None:
            return ContainmentResult(
                left, right, Trilean.TRUE,
                method="word-prestar-product",
                decidable=True,
                notes=("L(left) c pre*(L(right)) under Sigma's rules; "
                       "complete for EGD-free P_w [AV97]",),
            )
        return ContainmentResult(
            left, right, Trilean.FALSE,
            method="word-prestar-product",
            decidable=True,
            witness=Path(witness),
            notes=("witness word matches left but derives into no word "
                   "of right; the chased witness tableau is a "
                   "countermodel",),
        )

    def _contains_typed_m(
        self, left: str, right: str, left_nfa: NFA
    ) -> ContainmentResult:
        assert self._signature is not None
        images: list[tuple[Path, Path]] = []
        unsatisfiable = False
        for psi in self._sigma:
            from repro.reasoning.typed_m import word_image

            self._signature.require_valid_path(psi.prefix)
            self._signature.require_valid_path(psi.prefix.concat(psi.lhs))
            img_left, img_right = word_image(psi)
            self._signature.require_valid_path(img_left)
            self._signature.require_valid_path(img_right)
            images.append((img_left, img_right))
            if self._signature.type_of_path(
                img_left
            ) != self._signature.type_of_path(img_right):
                unsatisfiable = True
        if unsatisfiable:
            return ContainmentResult(
                left, right, Trilean.TRUE,
                method="typed-M-word-image-product",
                decidable=True,
                notes=("premises unsatisfiable over U(Delta); "
                       "vacuously contained",),
            )
        system = PrefixRewriteSystem(images, symmetric=True)
        covered = self._covered_automaton(
            right, lambda: system.post_star_of_nfa(self.compile(right))
        )
        try:
            witness = left_nfa.subset_witness(
                covered,
                extra_alphabet=self._alphabet,
                max_pairs=self._max_product_pairs,
            )
        except RuntimeError as exc:
            return ContainmentResult(
                left, right, Trilean.UNKNOWN,
                method="typed-M-word-image-product",
                decidable=True,
                notes=(f"product budget exhausted: {exc}",),
            )
        if witness is None:
            return ContainmentResult(
                left, right, Trilean.TRUE,
                method="typed-M-word-image-product",
                decidable=True,
                notes=("every valid left word is image-equivalent to a "
                       "valid right word (Lemmas 4.7/4.8; complete by "
                       "the Theorem 4.9 canonical quotient)",),
            )
        return ContainmentResult(
            left, right, Trilean.FALSE,
            method="typed-M-word-image-product",
            decidable=True,
            witness=Path(witness),
            notes=("witness is a valid path equivalent to no valid "
                   "right word; the U(Delta) quotient separates it",),
        )

    # -- the sound three-valued fallback --------------------------------

    def _solve_word(self, lhs: Path, rhs: Path) -> Trilean:
        """One dispatcher-routed implication, never raising."""
        problem = ImplicationProblem(
            self._sigma,
            word_constraint(lhs, rhs),
            self._context,
            schema=self._schema,
        )
        self.stats["solve_calls"] += 1
        try:
            result = solve(
                problem,
                self._options,
                jobs=self._jobs,
                deadline=self._budget.remaining(),
                cache=self._cache,
            )
        except ReproError:
            return Trilean.UNKNOWN
        if result.cache is not None and result.cache.status == "hit":
            self.stats["cache_hits"] += 1
        return result.answer

    def _verify_witness_semistructured(
        self, left: str, right: str, witness: Path
    ) -> bool:
        """Try to turn an unproved witness into a definite refutation.

        Chase the witness word's line graph under Sigma; if the chase
        reaches a fixpoint (a genuine Sigma-model) and the containment
        fails on it, the witness is real.  Typed contexts skip this —
        the chased graph is not a structure of ``U(Delta)``.
        """
        from repro.graph.builders import line_graph
        from repro.query.rpq import evaluate_rpq
        from repro.reasoning.chase import chase

        outcome = chase(
            line_graph(witness.labels),
            list(self._sigma),
            max_steps=self._chase_steps,
        )
        if not outcome.fixpoint:
            return False
        model = outcome.graph
        left_answers = evaluate_rpq(model, left).answers
        right_answers = evaluate_rpq(model, right).answers
        return not left_answers <= right_answers

    def _contains_fallback(
        self, left: str, right: str, left_nfa: NFA
    ) -> ContainmentResult:
        rules, residue = _word_rules(self._sigma)
        system = PrefixRewriteSystem(rules)
        notes: list[str] = []
        if residue:
            notes.append(
                f"{len(residue)} backward constraint(s) contribute no "
                "sound word rule outside M; verdicts stay sound but "
                "incomplete"
            )
        covered = self._covered_automaton(
            right, lambda: system.pre_star_of_nfa(self.compile(right))
        )
        try:
            witness = left_nfa.subset_witness(
                covered,
                extra_alphabet=self._alphabet,
                max_pairs=self._max_product_pairs,
            )
        except RuntimeError as exc:
            return ContainmentResult(
                left, right, Trilean.UNKNOWN,
                method="sound-word-saturation",
                decidable=False,
                notes=tuple(notes) + (f"product budget exhausted: {exc}",),
            )
        if witness is None:
            return ContainmentResult(
                left, right, Trilean.TRUE,
                method="sound-word-saturation",
                decidable=False,
                notes=tuple(notes)
                + ("proved by saturation over Sigma's sound word rules",),
            )

        # The saturation missed at least one word.  When the left
        # language is finite, route every uncovered word through the
        # dispatcher (cache, cost model, budgets) against enumerated
        # right candidates — TRUE stays sound.
        if not left_nfa.has_cycle_on_live_path():
            max_len = max(len(left_nfa.states), 1)
            unsettled: Path | None = None
            right_nfa = self.compile(right)
            candidates = [
                Path(w)
                for w in right_nfa.enumerate_words(
                    max_len + max(
                        (len(r) for _, r in system.rules), default=0
                    ) + 2,
                    self._enumeration_count,
                )
            ]
            for labels in left_nfa.enumerate_words(
                max_len, self._enumeration_count
            ):
                if covered.accepts(labels):
                    continue
                w = Path(labels)
                if any(
                    self._solve_word(w, v) is Trilean.TRUE
                    for v in candidates
                ):
                    continue
                unsettled = w
                break
            if unsettled is None:
                return ContainmentResult(
                    left, right, Trilean.TRUE,
                    method="dispatcher-word-coverage",
                    decidable=False,
                    notes=tuple(notes)
                    + ("every left word dispatcher-proved contained in "
                       "some right word",),
                )
            witness_path = unsettled
        else:
            witness_path = Path(witness)
            notes.append(
                "left language is infinite; enumeration-based coverage "
                "skipped"
            )

        if (
            self._context is Context.SEMISTRUCTURED
            and self._verify_witness_semistructured(
                left, right, witness_path
            )
        ):
            return ContainmentResult(
                left, right, Trilean.FALSE,
                method="chase-witness",
                decidable=False,
                witness=witness_path,
                notes=tuple(notes)
                + ("the chased witness line graph is an explicit "
                   "Sigma-model violating the containment",),
            )
        return ContainmentResult(
            left, right, Trilean.UNKNOWN,
            method="sound-word-saturation",
            decidable=False,
            witness=witness_path,
            notes=tuple(notes)
            + ("unproved and unrefuted within budget; answering "
               "UNKNOWN instead of guessing",),
        )
