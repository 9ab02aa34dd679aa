"""P_c implication over the model M — decidable, finitely axiomatizable.

Theorem 4.2 / 4.9: over an M schema, implication and finite
implication for P_c coincide, are decidable in cubic time, and are
axiomatized by I_r.  The decision procedure here follows the structure
of the paper's proofs:

1. **Word images** (Lemmas 4.6-4.8): over M every valid path reaches a
   unique node, so a forward constraint ``alpha :: beta => gamma`` is
   equivalent to the word constraint ``alpha.beta => alpha.gamma`` and
   a backward one to ``alpha => alpha.beta.gamma``.
2. **Symmetry** (commutativity): word constraints over M assert node
   *equality*, so the rewrite relation is symmetric.
3. **Decision**: Sigma implies phi iff phi's word image is reachable
   from itself... precisely, iff the two sides of phi's image are
   connected under symmetric prefix rewriting by the images of Sigma —
   a polynomial ``post*`` reachability query.

Two schema-level guards keep this faithful:

* every path mentioned must lie in ``Paths(Delta)`` (the paper assumes
  constraints are defined over Paths(Delta); we raise otherwise);
* a premise whose two image sides have *different* sorts in the
  (deterministic) type graph is unsatisfiable over ``U(Delta)`` —
  a node would need two types — so the premise set has no models and
  implication holds vacuously; this is detected up front and flagged.
  Conversely a type-consistent premise set is always satisfiable over
  ``U(Delta)`` (the quotient of the path unfolding by the induced
  congruence models it), so a type-inconsistent *query* is then simply
  not implied.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.constraints.ast import PathConstraint, word
from repro.paths import Path
from repro.reasoning.axioms import IrProof, ProofBuilder, check_proof
from repro.reasoning.result import ImplicationResult
from repro.rewriting.prefix import PrefixRewriteSystem
from repro.truth import Trilean
from repro.types.siggen import SchemaSignature
from repro.types.typesys import Schema


def word_image(phi: PathConstraint) -> tuple[Path, Path]:
    """The word-constraint image of a P_c constraint over M.

    Forward ``alpha :: beta => gamma`` maps to
    ``(alpha.beta, alpha.gamma)`` (Lemma 4.7); backward
    ``alpha :: beta ~> gamma`` maps to ``(alpha,
    alpha.beta.gamma)`` (Lemma 4.8).  Word constraints are their own
    image.
    """
    if phi.is_forward():
        return (phi.prefix.concat(phi.lhs), phi.prefix.concat(phi.rhs))
    return (phi.prefix, phi.prefix.concat(phi.lhs).concat(phi.rhs))


class TypedImplicationDecider:
    """Decides ``Sigma |=_Delta phi`` (== ``Sigma |=_(f,Delta) phi``).

    >>> from repro.types.examples import feature_structure_schema
    >>> from repro.constraints import parse_constraints, parse_constraint
    >>> schema = feature_structure_schema()
    >>> sigma = parse_constraints("sentence.head => subject")
    >>> decider = TypedImplicationDecider(schema, sigma)
    >>> decider.implies(parse_constraint("subject => sentence.head"))
    True
    >>> decider.implies(
    ...     parse_constraint("sentence.head.agreement => subject.agreement"))
    True
    >>> decider.implies(parse_constraint("sentence => subject"))
    False
    """

    def __init__(self, schema: Schema, sigma: Iterable[PathConstraint]) -> None:
        self._schema = schema.require_m()
        self._signature = SchemaSignature(schema)
        self._sigma = tuple(sigma)
        self._image_memo: dict[PathConstraint, tuple[Path, Path]] = {}
        self._images: list[tuple[Path, Path]] = []
        self._unsatisfiable_premises: list[PathConstraint] = []
        for phi in self._sigma:
            left, right = self._validated_image(phi)
            self._images.append((left, right))
            if self._signature.type_of_path(left) != self._signature.type_of_path(
                right
            ):
                self._unsatisfiable_premises.append(phi)
        self._system = PrefixRewriteSystem(self._images, symmetric=True)

    def _validated_image(self, phi: PathConstraint) -> tuple[Path, Path]:
        """Word image, with every constituent path checked against
        Paths(Delta).

        Memoized per constraint: ``implies`` followed by ``prove`` (and
        repeated queries in search loops) validate each fixed prefix
        image exactly once instead of re-walking the type graph.
        """
        cached = self._image_memo.get(phi)
        if cached is not None:
            return cached
        self._signature.require_valid_path(phi.prefix)
        self._signature.require_valid_path(phi.prefix.concat(phi.lhs))
        left, right = word_image(phi)
        self._signature.require_valid_path(left)
        self._signature.require_valid_path(right)
        self._image_memo[phi] = (left, right)
        return (left, right)

    # -- introspection ------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def sigma(self) -> tuple[PathConstraint, ...]:
        return self._sigma

    @property
    def system(self) -> PrefixRewriteSystem:
        """The symmetric system of Sigma's word images."""
        return self._system

    @property
    def premises_satisfiable(self) -> bool:
        """False when some premise forces a node to carry two sorts
        (then no structure in U(Delta) models Sigma)."""
        return not self._unsatisfiable_premises

    # -- decision --------------------------------------------------------------

    def implies(self, phi: PathConstraint) -> bool:
        left, right = self._validated_image(phi)
        if self._unsatisfiable_premises:
            return True  # vacuous: U(Delta) has no model of Sigma
        if self._signature.type_of_path(left) != self._signature.type_of_path(
            right
        ):
            # Sigma is satisfiable but phi cannot hold in any structure
            # of U(Delta), so it is certainly not implied.
            return False
        return self._system.derives(left, right)

    def prove(self, phi: PathConstraint) -> IrProof | None:
        """An I_r proof of phi from Sigma (Theorem 4.9's completeness,
        made concrete), verified by the independent checker.

        Returns None when phi is not implied, when implication is
        vacuous (unsatisfiable premises have no I_r derivation — the
        axiomatization presumes type-consistent premise sets), or when
        the certificate search exhausts its budget.
        """
        left, right = self._validated_image(phi)
        if self._unsatisfiable_premises:
            return None
        steps = self._system.find_derivation(left, right)
        if steps is None:
            return None

        builder = ProofBuilder(self._sigma)
        # Derive each premise's word image once, by its conversion rule.
        image_lines: dict[int, int] = {}
        for index, premise in enumerate(self._sigma):
            axiom_line = builder.axiom(premise)
            if premise.is_word_constraint():
                image_lines[index] = axiom_line
            elif premise.is_forward():
                image_lines[index] = builder.forward_to_word(axiom_line)
            else:
                image_lines[index] = builder.backward_to_word(axiom_line)

        current = builder.reflexivity(left)
        for step in steps:
            base = image_lines[step.rule_index]
            if step.inverted:
                base = builder.commutativity(base)
            congruent = builder.right_congruence(base, step.suffix)
            current = builder.transitivity(current, congruent)

        # Convert the accumulated word constraint back into phi's form.
        if phi.is_word_constraint():
            final = current
        elif phi.is_forward():
            final = builder.word_to_forward(current, phi)
        else:
            final = builder.word_to_backward(current, phi)
        if builder.line_constraint(final) != phi:
            raise AssertionError("proof does not conclude with the query")
        proof = builder.build()
        check_proof(proof)
        return proof

    def equivalent_paths(
        self, path: Path | str, max_length: int, max_count: int | None = None
    ) -> list[Path]:
        """All valid paths provably reaching the same node as ``path``
        in every model of Sigma over the schema (query optimization
        fodder)."""
        path = Path.coerce(path)
        self._signature.require_valid_path(path)
        return [
            candidate
            for candidate in self._system.derivable_words(
                path, max_length, max_count
            )
            if self._signature.is_valid_path(candidate)
        ]


def implies_typed_m(
    schema: Schema,
    sigma: Iterable[PathConstraint],
    phi: PathConstraint,
    with_proof: bool = False,
) -> ImplicationResult:
    """One-shot convenience wrapper for the typed-M decider."""
    decider = TypedImplicationDecider(schema, sigma)
    answer = decider.implies(phi)
    notes = ["implication and finite implication coincide over M (Thm 4.9)"]
    if not decider.premises_satisfiable:
        notes.append("premises unsatisfiable over U(Delta); vacuously implied")
    proof = decider.prove(phi) if (with_proof and answer) else None
    return ImplicationResult(
        answer=Trilean.of(answer),
        method="typed-M-symmetric-rewriting",
        decidable=True,
        complexity="cubic",
        proof=proof,
        notes=tuple(notes),
    )
