"""Alpha-invariance and collision resistance of the canonical keys.

The cache's whole correctness story rests on two properties of
``canonicalize_instance``:

* *invariance*: any bijective renaming of the non-rigid alphabet
  (labels, and class names in typed contexts) plus any reordering or
  duplication of premises yields the identical key;
* *separation*: instances that are **not** alpha-equivalent get
  distinct keys — checked here by demanding a concrete witness
  bijection for every key collision in a generator sweep.
"""

from __future__ import annotations

import hashlib
import random
from math import factorial

import pytest

from repro.constraints.ast import (
    Direction,
    PathConstraint,
    backward,
    forward,
    word,
)
from repro.diffcheck.generators import FRAGMENT_GENERATORS, generate_instance
from repro.paths import Path
from repro.reasoning.canonical import (
    DEFAULT_SEARCH_CAP,
    _Encoded,
    canonicalize_instance,
    canonicalize_problem,
    rename_constraint,
    rename_schema,
)
from repro.reasoning.dispatcher import Context, ImplicationProblem
from repro.types.examples import example_3_1_schema, random_m_schema
from repro.types.siggen import SchemaSignature
from repro.types.typesys import (
    MEMBERSHIP_LABEL,
    AtomicType,
    ClassRef,
    RecordType,
    Schema,
    SetType,
)


def _instance_labels(instance):
    """The renameable label universe of a generated instance."""
    labels = set(instance.phi.alphabet())
    for psi in instance.sigma:
        labels |= psi.alphabet()
    if instance.schema is not None:
        for tau in instance.schema.all_types():
            if isinstance(tau, RecordType):
                labels.update(label for label, _ in tau.fields)
        labels.discard(MEMBERSHIP_LABEL)
    return sorted(labels)


def _random_bijections(instance, rng):
    """A random label bijection (to fresh names) and class bijection."""
    labels = _instance_labels(instance)
    fresh = [f"x{i}_{rng.randint(0, 999)}" for i in range(len(labels))]
    rng.shuffle(fresh)
    label_map = dict(zip(labels, fresh))
    class_map = {}
    if instance.schema is not None:
        names = sorted(instance.schema.class_names)
        targets = [f"Z{i}_{rng.randint(0, 999)}" for i in range(len(names))]
        rng.shuffle(targets)
        class_map = dict(zip(names, targets))
    return label_map, class_map


def _renamed_problem(instance, label_map, class_map, rng):
    """An alpha-variant: renamed, premises shuffled and one duplicated."""
    sigma = [rename_constraint(psi, label_map) for psi in instance.sigma]
    if sigma:
        sigma.append(rng.choice(sigma))  # duplication must not matter
    rng.shuffle(sigma)
    schema = instance.schema
    if schema is not None:
        schema = rename_schema(schema, label_map, class_map)
    return ImplicationProblem(
        sigma,
        rename_constraint(instance.phi, label_map),
        instance.context,
        schema=schema,
    )


class TestAlphaInvariance:
    @pytest.mark.parametrize("fragment", sorted(FRAGMENT_GENERATORS))
    def test_permuted_instance_keys_identical(self, fragment):
        """Random renaming + premise shuffle never changes the key."""
        rng = random.Random(1234)
        for index in range(8):
            instance = generate_instance(fragment, seed=7, index=index)
            base = canonicalize_problem(
                ImplicationProblem(
                    instance.sigma,
                    instance.phi,
                    instance.context,
                    schema=instance.schema,
                )
            )
            if base.fallback:
                continue  # capped search is deterministic, not invariant
            for _ in range(5):
                label_map, class_map = _random_bijections(instance, rng)
                variant = canonicalize_problem(
                    _renamed_problem(instance, label_map, class_map, rng)
                )
                assert variant.key == base.key, (
                    f"{fragment}[{index}]: renaming changed the key\n"
                    f"map={label_map}/{class_map}\n"
                    f"base:\n{base.text}\nvariant:\n{variant.text}"
                )

    def test_premise_order_and_duplication(self):
        sigma = [word(("a",), ("b",)), word(("b", "b"), ("c",))]
        phi = word(("a", "b"), ("c",))
        k1 = canonicalize_instance(sigma, phi).key
        k2 = canonicalize_instance(list(reversed(sigma)) + [sigma[0]], phi).key
        assert k1 == k2

    def test_membership_label_is_rigid(self, fs_schema):
        """Renaming must never alias another label onto ``member``."""
        sigma = [forward((), (MEMBERSHIP_LABEL,), (MEMBERSHIP_LABEL,))]
        phi = forward((), (MEMBERSHIP_LABEL,), (MEMBERSHIP_LABEL,))
        form = canonicalize_instance(
            sigma, phi, context_value="M", schema=fs_schema
        )
        assert form.label_map[MEMBERSHIP_LABEL] == f"!{MEMBERSHIP_LABEL}"

    def test_unused_schema_ignored_in_semistructured_context(self, fs_schema):
        sigma = (word(("a",), ("b",)),)
        phi = word(("a",), ("b",))
        bare = canonicalize_problem(ImplicationProblem(sigma, phi))
        with_schema = canonicalize_problem(
            ImplicationProblem(sigma, phi, schema=fs_schema)
        )
        assert bare.key == with_schema.key

    def test_context_is_part_of_the_key(self, fs_schema):
        sigma = (forward((), ("a",), ("b",)),)
        phi = forward((), ("a",), ("b",))
        untyped = canonicalize_problem(ImplicationProblem(sigma, phi))
        typed = canonicalize_problem(
            ImplicationProblem(sigma, phi, Context.M_PLUS, schema=fs_schema)
        )
        assert untyped.key != typed.key


class TestSeparation:
    def test_direction_changes_key(self):
        fwd = canonicalize_instance(
            [forward(("K",), ("a",), ("b",))], forward(("K",), ("b",), ("a",))
        )
        bwd = canonicalize_instance(
            [backward(("K",), ("a",), ("b",))], forward(("K",), ("b",), ("a",))
        )
        assert fwd.key != bwd.key

    def test_collision_sweep_with_witness(self):
        """Every key collision in a generator sweep must be witnessed
        by an explicit alpha-equivalence bijection."""
        seen: dict[str, tuple] = {}
        for fragment in sorted(FRAGMENT_GENERATORS):
            for seed in (0, 1):
                for index in range(10):
                    inst = generate_instance(fragment, seed, index)
                    problem = ImplicationProblem(
                        inst.sigma, inst.phi, inst.context, schema=inst.schema
                    )
                    form = canonicalize_problem(problem)
                    if form.fallback:
                        continue
                    if form.key not in seen:
                        seen[form.key] = (problem, form)
                        continue
                    other_problem, other_form = seen[form.key]
                    assert _alpha_equivalent(
                        problem, form, other_problem, other_form
                    ), (
                        f"key collision without alpha-equivalence:\n"
                        f"{form.text}\n--- vs ---\n{other_form.text}"
                    )
        assert len(seen) > 50  # the sweep actually separated instances


def _alpha_equivalent(p1, f1, p2, f2) -> bool:
    """Does ``f2^-1 . f1`` witness p1 ~ p2 (premises as sets)?"""
    inv_l = f2.inverse_label_map()
    inv_c = f2.inverse_class_map()
    try:
        lmap = {orig: inv_l[canon] for orig, canon in f1.label_map.items()}
        cmap = {orig: inv_c[canon] for orig, canon in f1.class_map.items()}
    except KeyError:
        return False
    if {rename_constraint(psi, lmap) for psi in p1.sigma} != set(p2.sigma):
        return False
    if rename_constraint(p1.phi, lmap) != p2.phi:
        return False
    schema1 = p1.schema if p1.context is not Context.SEMISTRUCTURED else None
    schema2 = p2.schema if p2.context is not Context.SEMISTRUCTURED else None
    if (schema1 is None) != (schema2 is None):
        return False
    if schema1 is not None:
        renamed = rename_schema(schema1, lmap, cmap)
        if sorted(renamed.class_names) != sorted(schema2.class_names):
            return False
        if renamed.db_type != schema2.db_type:
            return False
        for name in renamed.class_names:
            if renamed.body_of(name) != schema2.body_of(name):
                return False
    return p1.context is p2.context


class TestFallback:
    def test_symmetric_blowup_falls_back_deterministically(self):
        """9 interchangeable labels exceed the 7! cap; the key must
        still be reproducible for the *same* instance."""
        sigma = [word((f"l{i}",), (f"l{i}",)) for i in range(9)]
        phi = word(("l0",), ("l0",))
        a = canonicalize_instance(sigma, phi)
        b = canonicalize_instance(sigma, phi)
        assert a.fallback and b.fallback
        assert a.key == b.key

    def test_cap_is_respected_but_raisable(self):
        sigma = [word((f"l{i}",), (f"l{i}",)) for i in range(6)]
        phi = word(("m",), ("m",))
        capped = canonicalize_instance(sigma, phi, search_cap=10)
        full = canonicalize_instance(
            sigma, phi, search_cap=DEFAULT_SEARCH_CAP
        )
        assert capped.fallback and not full.fallback

    def test_raised_cap_restores_invariance(self):
        rng = random.Random(5)
        sigma = [word((f"l{i}",), (f"l{i}",)) for i in range(5)]
        phi = word(("m",), ("m",))
        base = canonicalize_instance(sigma, phi)
        assert not base.fallback  # 5 symmetric labels: 120 < 5040
        names = [f"l{i}" for i in range(5)]
        shuffled = names[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(names, shuffled))
        renamed = [rename_constraint(psi, mapping) for psi in sigma]
        rng.shuffle(renamed)
        assert canonicalize_instance(renamed, phi).key == base.key


# -- the integer refinement against the digest refinement it replaced --------


def _path_shape(path, lcolor):
    return ".".join(lcolor[label] for label in path.labels)


def _psi_shape(psi, lcolor):
    direction = "F" if psi.direction is Direction.FORWARD else "B"
    return "|".join(
        (
            _path_shape(psi.prefix, lcolor),
            _path_shape(psi.lhs, lcolor),
            _path_shape(psi.rhs, lcolor),
            direction,
        )
    )


def _type_shape(tau, lcolor, ccolor):
    if isinstance(tau, ClassRef):
        return "c:" + ccolor[tau.name]
    if isinstance(tau, SetType):
        return "{" + _type_shape(tau.element, lcolor, ccolor) + "}"
    if isinstance(tau, RecordType):
        inner = sorted(
            f"{lcolor[label]}:{_type_shape(field, lcolor, ccolor)}"
            for label, field in tau.fields
        )
        return "[" + ",".join(inner) + "]"
    return "b:" + tau.name


def _digest(payload):
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _collect_schema_occurrences(tau, owner, ctx, lsig, csig, lcolor, ccolor):
    if isinstance(tau, ClassRef):
        csig[tau.name].append(("ref", owner, ctx))
    elif isinstance(tau, SetType):
        _collect_schema_occurrences(
            tau.element, owner, ctx + ("{}",), lsig, csig, lcolor, ccolor
        )
    elif isinstance(tau, RecordType):
        for label, field in tau.fields:
            lsig[label].append(
                ("field", owner, ctx, _type_shape(field, lcolor, ccolor))
            )
            _collect_schema_occurrences(
                field, owner, ctx + (lcolor[label],), lsig, csig, lcolor, ccolor
            )


def _partition(colors):
    groups = {}
    for name, color in colors.items():
        groups.setdefault(color, set()).add(name)
    return frozenset(frozenset(g) for g in groups.values())


def naive_refine_colors(premises, phi, schema, labels, classes, rigid):
    """Reference oracle: the refinement the integer one replaced.  Each
    round renders every constraint and type shape as a string of
    colors, and a label's (class's) new color is the sha256 digest of
    its old color and its sorted rendered occurrences; it stops when the
    partition is unchanged."""
    lcolor = {
        label: (f"R:{label}" if label in rigid else "L") for label in labels
    }
    ccolor = {name: "C" for name in classes}
    for _ in range(len(labels) + len(classes) + 2):
        lsig = {label: [] for label in labels}
        csig = {name: [] for name in classes}
        for tag, psi in [("Q", phi)] + [("P", psi) for psi in premises]:
            shape = tag + ":" + _psi_shape(psi, lcolor)
            for field_name, path in (
                ("pf", psi.prefix),
                ("lhs", psi.lhs),
                ("rhs", psi.rhs),
            ):
                for index, label in enumerate(path.labels):
                    lsig[label].append((shape, field_name, index))
        if schema is not None:
            owners = [("DB", schema.db_type)] + [
                (ccolor[name], schema.body_of(name)) for name in classes
            ]
            for owner, tau in owners:
                _collect_schema_occurrences(
                    tau, owner, (), lsig, csig, lcolor, ccolor
                )
            for name in classes:
                csig[name].append(
                    ("body", _type_shape(schema.body_of(name), lcolor, ccolor))
                )
        new_lcolor = {
            label: (
                f"R:{label}"
                if label in rigid
                else _digest((lcolor[label], sorted(map(repr, lsig[label]))))
            )
            for label in labels
        }
        new_ccolor = {
            name: _digest((ccolor[name], sorted(map(repr, csig[name]))))
            for name in classes
        }
        stable = _partition(new_lcolor) == _partition(lcolor) and _partition(
            new_ccolor
        ) == _partition(ccolor)
        lcolor, ccolor = new_lcolor, new_ccolor
        if stable:
            break
    return lcolor, ccolor


def assert_refinement_matches_oracle(sigma, phi, schema):
    """The integer refinement partitions the labels and the classes as
    the oracle does, so the key falls back exactly when the oracle's
    search would exceed the cap."""
    rigid = frozenset({MEMBERSHIP_LABEL}) if schema is not None else frozenset()
    labels = set(phi.alphabet())
    for psi in sigma:
        labels |= psi.alphabet()
    classes = []
    if schema is not None:
        classes = sorted(schema.class_names)
        for tau in schema.all_types():
            if isinstance(tau, RecordType):
                labels.update(label for label, _ in tau.fields)
    want_l, want_c = naive_refine_colors(
        sorted(set(sigma)), phi, schema, sorted(labels), classes, rigid
    )

    encoded = _Encoded(sigma, phi, schema)
    lcolor, ccolor = encoded.refine()
    got_l = dict(zip(encoded.labels, lcolor))
    got_c = dict(zip(encoded.classes, ccolor))
    assert _partition(got_l) == _partition(want_l)
    assert _partition(got_c) == _partition(want_c)

    search = 1
    for group in _partition(want_l) | _partition(want_c):
        if not group & rigid:
            search *= factorial(len(group))
    context = "M" if schema is not None else "semistructured"
    form = canonicalize_instance(sigma, phi, context, schema)
    assert form.fallback == (search > DEFAULT_SEARCH_CAP)


def decide_cold_shapes(seed: int, per_kind: int) -> list[ImplicationProblem]:
    """Instances of the decide-cold benchmark's three shapes, sizes
    cycled over its ranges: P_w with 24-48 word constraints over three
    labels; typed-M with 16-32 equivalences over ``random_m_schema``
    with 8-12 classes; local extent, the MIT core plus 100-300 decoys
    on seven sites."""
    rng = random.Random(f"decide-cold-shapes:{seed}")

    def path(pool, low=1, high=3):
        return Path([rng.choice(pool) for _ in range(rng.randint(low, high))])

    def size(low, high, n):
        return low + (high - low) * n // max(1, per_kind - 1)

    letters = ["a", "b", "c"]
    sites = ["book", "person", "author", "wrote", "ref"]
    core = [
        forward("MIT", "book.author", "person"),
        forward("MIT", "person.wrote", "book"),
        forward("MIT", "book.ref", "book.ref"),
    ]
    problems = []
    for n in range(per_kind):
        sigma = [
            word(path(letters), path(letters)) for _ in range(size(24, 48, n))
        ]
        problems.append(
            ImplicationProblem(sigma, word(path(letters), path(letters)))
        )

        schema = random_m_schema(size(8, 12, n), 2, seed=rng.randrange(1 << 30))
        signature = SchemaSignature(schema)
        groups = {}
        for candidate in signature.sample_paths(4):
            if not candidate.is_empty():
                groups.setdefault(
                    signature.type_of_path(candidate), []
                ).append(candidate)
        pools = [paths for paths in groups.values() if len(paths) >= 2]
        sigma = [
            word(*rng.sample(rng.choice(pools), 2))
            for _ in range(size(16, 32, n))
        ]
        phi = word(*rng.sample(rng.choice(pools), 2))
        problems.append(ImplicationProblem(sigma, phi, Context.M, schema))

        decoys = [
            (forward if rng.random() < 0.5 else backward)(
                f"site{index % 7}", path(sites), path(sites)
            )
            for index in range(size(100, 300, n))
        ]
        lhs = rng.choice(["book.ref", "book.author.wrote"])
        phi = forward("MIT", lhs, "book")
        problems.append(ImplicationProblem(core + decoys, phi))
    return problems


def _random_mplus_type(rng, classes, labels, depth):
    kind = rng.randrange(4 if depth < 2 else 2)
    if kind == 0:
        return AtomicType(rng.choice(["int", "string"]))
    if kind == 1:
        return ClassRef(rng.choice(classes))
    if kind == 2:
        return SetType(_random_mplus_type(rng, classes, labels, depth + 1))
    return RecordType(
        [
            (label, _random_mplus_type(rng, classes, labels, depth + 1))
            for label in rng.sample(labels, rng.randint(1, 2))
        ]
    )


def _random_mplus_body(rng, classes, labels):
    if rng.random() < 0.3:
        return SetType(_random_mplus_type(rng, classes, labels, 1))
    return RecordType(
        [
            (label, _random_mplus_type(rng, classes, labels, 1))
            for label in rng.sample(labels, rng.randint(1, min(3, len(labels))))
        ]
    )


def symmetric_instances(seed: int, count: int):
    """Small instances with many ties, where a single detail of a
    signature (tag, direction, field, position, set step, context
    path) can be all that separates two labels or classes: a few
    constraints over up to four labels, half of them in M+ context
    over a random schema of sets and nested records."""
    rng = random.Random(f"symmetric:{seed}")
    for _ in range(count):
        schema = None
        labels = ["a", "b", "c", "d"][: rng.randint(2, 4)]
        if rng.random() < 0.5:
            classes = ["P", "Q", "R"][: rng.randint(1, 3)]
            schema = Schema(
                {n: _random_mplus_body(rng, classes, labels) for n in classes},
                _random_mplus_body(rng, classes, labels),
            )
            labels = labels + [MEMBERSHIP_LABEL]

        def path():
            return Path(rng.choices(labels, k=rng.randint(0, 2)))

        def constraint():
            direction = rng.choice([Direction.FORWARD, Direction.BACKWARD])
            return PathConstraint(path(), path(), path(), direction)

        sigma = [constraint() for _ in range(rng.randint(0, 3))]
        phi = rng.choice(sigma) if sigma and rng.random() < 0.3 else constraint()
        yield sigma, phi, schema


class TestRefinementOracle:
    @pytest.mark.parametrize("fragment", sorted(FRAGMENT_GENERATORS))
    def test_generator_instances_match(self, fragment):
        for seed in range(4):
            rng = random.Random(f"{seed}:{fragment}")
            for _ in range(25):
                inst = FRAGMENT_GENERATORS[fragment](rng)
                schema = (
                    inst.schema
                    if inst.context is not Context.SEMISTRUCTURED
                    else None
                )
                assert_refinement_matches_oracle(inst.sigma, inst.phi, schema)

    def test_decide_cold_shapes_match(self):
        for problem in decide_cold_shapes(0, 12):
            assert_refinement_matches_oracle(
                problem.sigma, problem.phi, problem.schema
            )

    def test_symmetric_instances_match(self):
        for sigma, phi, schema in symmetric_instances(0, 400):
            assert_refinement_matches_oracle(sigma, phi, schema)

    def test_hand_built_instances_match(self, fs_schema):
        """Interchangeable labels (a search, and past the cap a
        fallback), the rigid ``member`` label, and Example 3.1's M+
        schema."""
        for count in (3, 9):
            sigma = [word((f"l{i}",), (f"l{i}",)) for i in range(count)]
            assert_refinement_matches_oracle(sigma, sigma[0], None)
        sigma = [forward((), (MEMBERSHIP_LABEL,), (MEMBERSHIP_LABEL,))]
        assert_refinement_matches_oracle(sigma, sigma[0], fs_schema)
        sigma = [backward("book.member", "author.member", "wrote.member")]
        phi = forward("person.member", "wrote.member", "wrote.member")
        assert_refinement_matches_oracle(sigma, phi, example_3_1_schema())

    def test_each_signature_part_separates(self, fs_schema):
        """Instances where one part of a signature is all that tells
        two labels (or two classes) apart."""
        # the tag: phi's label against a premise's
        assert_refinement_matches_oracle([word("b", "b")], word("a", "a"), None)
        # the direction
        sigma = [word("a", "a"), backward("", "b", "b")]
        assert_refinement_matches_oracle(sigma, word("c", "c"), None)
        # the field: prefix against hypothesis
        sigma = [forward("a", "b", "c")]
        assert_refinement_matches_oracle(sigma, sigma[0], None)
        # the old color: rigid ``member`` against a label used alike
        sigma = [word(MEMBERSHIP_LABEL, MEMBERSHIP_LABEL), word("zz", "zz")]
        assert_refinement_matches_oracle(sigma, word("", ""), fs_schema)
        # the context path: P and Q differ only in which field holds them
        body = RecordType([("x", AtomicType("int"))])
        schema = Schema(
            {"P": body, "Q": body},
            RecordType([("a", ClassRef("P")), ("b", ClassRef("Q"))]),
        )
        assert_refinement_matches_oracle([], word("a", "a"), schema)


def test_decide_cold_shapes_keys_identical():
    """Renaming, shuffling and duplicating premises never changes the
    key of a decide-cold-shaped instance."""
    rng = random.Random(99)
    for problem in decide_cold_shapes(1, 6):
        base = canonicalize_problem(problem)
        assert not base.fallback
        for _ in range(3):
            label_map, class_map = _random_bijections(problem, rng)
            variant = canonicalize_problem(
                _renamed_problem(problem, label_map, class_map, rng)
            )
            assert variant.key == base.key
