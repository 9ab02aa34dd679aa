"""Seeded random instance generators, one per Table 1 fragment.

Each generator draws a small implication instance — a premise set
Sigma and a query phi, plus a random M schema for the typed fragment —
from a :class:`random.Random` stream, so a fixed seed reproduces the
exact instance sequence on any machine.  Design choices that keep the
downstream oracle matrix honest *and* fast:

* alphabets are tiny (two body labels plus at most one guard), so
  bounded counter-model search and the brute-force oracle stay cheap;
* every generator biases a fraction of queries toward *derivable*
  conclusions (chaining premise rewrites, or echoing a premise), so
  TRUE answers — where unsoundness of a refutation engine would show —
  appear often instead of almost never;
* generated instances are verified to classify into the intended
  fragment (:func:`repro.reasoning.dispatcher.classify`), resampling
  deterministically when a random draw lands elsewhere.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.constraints.ast import PathConstraint, backward, forward, word
from repro.paths import Path
from repro.reasoning.dispatcher import Context, ProblemClass, classify
from repro.reasoning.typed_m import word_image
from repro.types.siggen import SchemaSignature
from repro.types.typesys import (
    AtomicType,
    ClassRef,
    RecordType,
    Schema,
)

#: Body alphabet shared by the untyped generators.
BODY_LABELS = ("a", "b")

#: The guard label of the P_w(K) and local-extent generators.
GUARD = "K"


@dataclass(frozen=True)
class FragmentInstance:
    """One generated implication instance, tagged with its fragment."""

    fragment: str
    sigma: tuple[PathConstraint, ...]
    phi: PathConstraint
    context: Context = Context.SEMISTRUCTURED
    schema: Schema | None = None
    #: generator provenance for the report (bias used, retry count).
    provenance: str = ""

    @property
    def problem_class(self) -> ProblemClass:
        return classify(self.sigma, self.phi)


def _rand_path(
    rng: random.Random, alphabet: Sequence[str], lo: int, hi: int
) -> Path:
    return Path(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def _derive_word(
    rng: random.Random,
    rules: Sequence[tuple[Path, Path]],
    start: Path,
    max_applications: int = 3,
) -> Path:
    """Apply random prefix rewrites of ``rules`` to ``start``.

    The result is derivable from ``start`` under the rules, so
    ``start => result`` is an implied word query — the TRUE-bias used
    by the P_w-shaped generators.
    """
    current = start
    for _ in range(rng.randint(1, max_applications)):
        applicable = [
            (lhs, rhs) for lhs, rhs in rules if lhs.is_prefix_of(current)
        ]
        if not applicable:
            break
        lhs, rhs = rng.choice(applicable)
        current = rhs.concat(current.strip_prefix(lhs))
    return current


# ---------------------------------------------------------------------------
# P_w — word constraints, with and without equality-generating EGDs.
# ---------------------------------------------------------------------------


def gen_word(rng: random.Random) -> FragmentInstance:
    """P_w without empty conclusions — the [AV97] PTIME fragment."""
    sigma = tuple(
        word(
            _rand_path(rng, BODY_LABELS, 1, 3),
            _rand_path(rng, BODY_LABELS, 1, 3),
        )
        for _ in range(rng.randint(2, 4))
    )
    rules = [(c.lhs, c.rhs) for c in sigma]
    if rng.random() < 0.5:
        start = _rand_path(rng, BODY_LABELS, 1, 3)
        phi = word(start, _derive_word(rng, rules, start))
        bias = "derived-true"
    else:
        phi = word(
            _rand_path(rng, BODY_LABELS, 1, 3),
            _rand_path(rng, BODY_LABELS, 1, 3),
        )
        bias = "random"
    return FragmentInstance("P_w", sigma, phi, provenance=bias)


def gen_word_egd(rng: random.Random) -> FragmentInstance:
    """P_w *with* equality-generating ``u => ()`` premises.

    This is the fragment where the word decider leaves its
    guaranteed-complete core (see :mod:`repro.reasoning.word`) and
    falls back to trigger closure plus the chase — prime differential
    territory.
    """
    plain = [
        word(
            _rand_path(rng, BODY_LABELS, 1, 3),
            _rand_path(rng, BODY_LABELS, 1, 2),
        )
        for _ in range(rng.randint(1, 3))
    ]
    egds = [
        word(_rand_path(rng, BODY_LABELS, 1, 2), Path.empty())
        for _ in range(rng.randint(1, 2))
    ]
    sigma = tuple(plain + egds)
    if rng.random() < 0.4:
        phi = word(
            _rand_path(rng, BODY_LABELS, 1, 2), _rand_path(rng, BODY_LABELS, 0, 2)
        )
        bias = "random-short"
    else:
        phi = word(
            _rand_path(rng, BODY_LABELS, 1, 3),
            _rand_path(rng, BODY_LABELS, 1, 3),
        )
        bias = "random"
    return FragmentInstance("P_w+egd", sigma, phi, provenance=bias)


# ---------------------------------------------------------------------------
# P_w(K) — word constraints plus K-guarded versions (Section 4.1).
# ---------------------------------------------------------------------------


def gen_pw_k(rng: random.Random) -> FragmentInstance:
    """P_w(K): the smallest untyped-undecidable fragment (Thm 4.3)."""
    for _ in range(32):
        constraints: list[PathConstraint] = []
        guarded = 0
        for _ in range(rng.randint(2, 4)):
            lhs = _rand_path(rng, BODY_LABELS, 1, 3)
            rhs = _rand_path(rng, BODY_LABELS, 1, 3)
            if rng.random() < 0.6:
                constraints.append(forward(GUARD, lhs, rhs))
                guarded += 1
            else:
                constraints.append(word(lhs, rhs))
        if rng.random() < 0.3 and constraints:
            phi = rng.choice(constraints)
            bias = "echo-premise"
        elif rng.random() < 0.5:
            phi = forward(
                GUARD,
                _rand_path(rng, BODY_LABELS, 1, 3),
                _rand_path(rng, BODY_LABELS, 1, 3),
            )
            bias = "random-guarded"
        else:
            phi = word(
                _rand_path(rng, BODY_LABELS, 1, 3),
                _rand_path(rng, BODY_LABELS, 1, 3),
            )
            bias = "random-word"
        sigma = tuple(constraints)
        if guarded and classify(sigma, phi) is ProblemClass.PW_K:
            return FragmentInstance("P_w(K)", sigma, phi, provenance=bias)
    raise AssertionError("P_w(K) generator failed to classify in 32 draws")


# ---------------------------------------------------------------------------
# Local extent (Definitions 2.3/2.4).
# ---------------------------------------------------------------------------


def gen_local_extent(rng: random.Random) -> FragmentInstance:
    """A Definition 2.4 instance bounded by (rho, K) = (K, K).

    Reusing the guard label as rho keeps the alphabet at three labels
    (cheap counter-model search) while exercising the full g1 . g2
    reduction.  A slice of *unbounded* rest constraints rides along:
    Lemma 5.3 says the decider may drop them, the chase cannot — if
    the lemma (or its implementation) were wrong, the engines would
    split exactly here.
    """
    rho = Path.single(GUARD)
    prefix = rho.append(GUARD)  # rho.K = K.K
    bounded = [
        forward(
            prefix,
            _rand_path(rng, BODY_LABELS, 1, 2),
            _rand_path(rng, BODY_LABELS, 1, 2),
        )
        for _ in range(rng.randint(2, 4))
    ]
    rest = [
        (backward if rng.random() < 0.5 else forward)(
            rho.concat(_rand_path(rng, BODY_LABELS, 1, 2)),
            _rand_path(rng, BODY_LABELS, 1, 2),
            _rand_path(rng, BODY_LABELS, 1, 2),
        )
        for _ in range(rng.randint(0, 2))
    ]
    rules = [(c.lhs, c.rhs) for c in bounded]
    roll = rng.random()
    if roll < 0.3:
        phi = rng.choice(bounded)
        bias = "echo-premise"
    elif roll < 0.6:
        start = _rand_path(rng, BODY_LABELS, 1, 2)
        phi = forward(prefix, start, _derive_word(rng, rules, start))
        bias = "derived-true"
    else:
        phi = forward(
            prefix,
            _rand_path(rng, BODY_LABELS, 1, 2),
            _rand_path(rng, BODY_LABELS, 1, 2),
        )
        bias = "random"
    sigma = tuple(bounded + rest)
    instance = FragmentInstance("local-extent", sigma, phi, provenance=bias)
    assert instance.problem_class is ProblemClass.LOCAL_EXTENT, (
        f"local-extent generator produced a {instance.problem_class} instance"
    )
    return instance


# ---------------------------------------------------------------------------
# General P_c.
# ---------------------------------------------------------------------------


def gen_general(rng: random.Random) -> FragmentInstance:
    """Unrestricted P_c over a two-label alphabet.

    Mixes directions, prefixes and the occasional empty conclusion
    (node-merging EGDs in the chase).
    """

    def rand_constraint() -> PathConstraint:
        ctor = backward if rng.random() < 0.4 else forward
        return ctor(
            _rand_path(rng, BODY_LABELS, 0, 2),
            _rand_path(rng, BODY_LABELS, 1, 2),
            _rand_path(rng, BODY_LABELS, 0 if rng.random() < 0.15 else 1, 2),
        )

    for _ in range(32):
        sigma = tuple(rand_constraint() for _ in range(rng.randint(2, 4)))
        if rng.random() < 0.3:
            phi = rng.choice(sigma)
            bias = "echo-premise"
        else:
            phi = rand_constraint()
            bias = "random"
        if classify(sigma, phi) is ProblemClass.GENERAL:
            return FragmentInstance("P_c", sigma, phi, provenance=bias)
    raise AssertionError("P_c generator failed to classify in 32 draws")


# ---------------------------------------------------------------------------
# Typed instances over random M schemas.
# ---------------------------------------------------------------------------

_CLASS_FIELD_LABELS = ("f", "g", "h")
_ROOT_FIELD_LABELS = ("p", "q")


def _rand_m_schema(rng: random.Random) -> Schema:
    """A random schema of the restricted model M.

    One or two flat-record classes whose fields point at classes or
    atoms, under a record DBtype — every shape
    :meth:`Schema.is_m_schema` admits.
    """
    class_names = [f"C{i}" for i in range(1, rng.randint(2, 3))]
    classes = {}
    for name in class_names:
        fields = []
        for label in _CLASS_FIELD_LABELS[: rng.randint(1, 3)]:
            if rng.random() < 0.6:
                fields.append((label, ClassRef(rng.choice(class_names))))
            else:
                fields.append(
                    (label, AtomicType(rng.choice(("int", "string"))))
                )
        classes[name] = RecordType(fields)
    root_fields = [
        (label, ClassRef(rng.choice(class_names)))
        for label in _ROOT_FIELD_LABELS[: rng.randint(1, 2)]
    ]
    return Schema(classes, RecordType(root_fields))


def _valid_split(
    rng: random.Random, paths: Sequence[Path], parts: int
) -> list[Path] | None:
    """Split a random valid path into ``parts`` consecutive pieces."""
    candidates = [p for p in paths if len(p) >= parts - 1]
    if not candidates:
        return None
    p = rng.choice(candidates)
    cuts = sorted(rng.sample(range(len(p) + 1), parts - 1))
    pieces = []
    last = 0
    for cut in cuts + [len(p)]:
        pieces.append(Path(p.labels[last:cut]))
        last = cut
    return pieces


def gen_typed_m(rng: random.Random) -> FragmentInstance:
    """P_c constraints over ``Paths(Delta)`` of a random M schema.

    Every path in every constraint is valid by construction (splits of
    sampled members of Paths(Delta)), so the cubic decider never
    trips its schema guards on the unshrunk instance.  A constraint
    whose word image joins two sorts is redrawn: as a premise it
    leaves U(Delta) no model of Sigma, so every TRUE would be vacuous.
    """
    schema = _rand_m_schema(rng)
    signature = SchemaSignature(schema)
    paths = [p for p in signature.sample_paths(4) if not p.is_empty()]

    def rand_constraint() -> PathConstraint | None:
        candidate = rand_shape()
        if candidate is None:
            return None
        left, right = word_image(candidate)
        if signature.type_of_path(left) != signature.type_of_path(right):
            return None
        return candidate

    def rand_shape() -> PathConstraint | None:
        if rng.random() < 0.35:
            # backward: alpha, alpha.beta, alpha.beta.gamma all valid.
            pieces = _valid_split(rng, paths, 3)
            if pieces is None:
                return None
            alpha, beta, gamma = pieces
            if beta.is_empty():
                return None
            return backward(alpha, beta, gamma)
        # forward: alpha.beta and alpha.gamma valid with shared alpha.
        pieces = _valid_split(rng, paths, 2)
        if pieces is None:
            return None
        alpha, beta = pieces
        if beta.is_empty():
            return None
        extensions = [
            q.strip_prefix(alpha) for q in paths if alpha.is_prefix_of(q)
        ]
        extensions.append(Path.empty())
        gamma = rng.choice(extensions)
        return forward(alpha, beta, gamma)

    sigma_list: list[PathConstraint] = []
    target = rng.randint(2, 4)
    while len(sigma_list) < target:
        candidate = rand_constraint()
        if candidate is not None:
            sigma_list.append(candidate)
    if rng.random() < 0.3:
        phi = rng.choice(sigma_list)
        bias = "echo-premise"
    else:
        phi = None
        while phi is None:
            phi = rand_constraint()
        bias = "random"
    return FragmentInstance(
        "typed-M",
        tuple(sigma_list),
        phi,
        context=Context.M,
        schema=schema,
        provenance=bias,
    )


#: The generator registry the fuzz runner iterates, in a fixed order.
FRAGMENT_GENERATORS: dict[
    str, Callable[[random.Random], FragmentInstance]
] = {
    "P_w": gen_word,
    "P_w+egd": gen_word_egd,
    "P_w(K)": gen_pw_k,
    "local-extent": gen_local_extent,
    "P_c": gen_general,
    "typed-M": gen_typed_m,
}


def generate_instance(
    fragment: str, seed: int, index: int = 0
) -> FragmentInstance:
    """The ``index``-th instance of a fragment's seeded stream.

    This is the reproduction handle the fuzz report refers to: the
    (fragment, seed, index) triple pins an instance exactly.
    """
    rng = random.Random(f"{seed}:{fragment}")
    generator = FRAGMENT_GENERATORS[fragment]
    instance = None
    for _ in range(index + 1):
        instance = generator(rng)
    assert instance is not None
    return instance
