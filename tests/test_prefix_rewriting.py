"""Tests for the prefix-rewriting ``post*`` saturation engine.

Two key properties: ``derives`` (automaton saturation) agrees with an
independent breadth-first closure of the one-step relation on every
instance small enough to close exhaustively, and the worklist kernel
builds exactly the automaton of the naive fixpoint loop
(:func:`naive_saturate`) on every seed.
"""

from __future__ import annotations

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import NFA, compile_regex
from repro.automata.nfa import EPSILON
from repro.constraints import word
from repro.paths import Path
from repro.reasoning import TypedImplicationDecider
from repro.rewriting import PrefixRewriteSystem
from repro.types.examples import random_m_schema
from repro.types.siggen import SchemaSignature

labels = st.sampled_from(["a", "b", "c"])
words = st.lists(labels, min_size=0, max_size=3).map(Path)
rules = st.lists(st.tuples(words, words), min_size=0, max_size=4)


def bfs_reachable(
    system: PrefixRewriteSystem, source: Path, max_length: int, max_nodes: int = 4000
) -> set[Path]:
    """Independent oracle: explicit BFS closure, truncated by length."""
    seen = {source}
    queue = deque([source])
    while queue and len(seen) < max_nodes:
        word = queue.popleft()
        for step in system.neighbors(word):
            if len(step.target) <= max_length and step.target not in seen:
                seen.add(step.target)
                queue.append(step.target)
    return seen


class TestBasics:
    def test_reflexive(self):
        system = PrefixRewriteSystem([])
        assert system.derives("a.b", "a.b")
        assert not system.derives("a", "b")

    def test_single_rule(self):
        system = PrefixRewriteSystem([("a", "b")])
        assert system.derives("a", "b")
        assert system.derives("a.x", "b.x")  # right-congruence
        assert not system.derives("x.a", "x.b")  # prefix only!

    def test_chained(self):
        system = PrefixRewriteSystem([("a", "b.c"), ("b.c.d", "e")])
        assert system.derives("a.d", "e")

    def test_empty_lhs_rule(self):
        # epsilon => K : every word w rewrites to K.w.
        system = PrefixRewriteSystem([("", "K")])
        assert system.derives("a", "K.a")
        assert system.derives("a", "K.K.a")

    def test_empty_rhs_rule(self):
        system = PrefixRewriteSystem([("a.b", "")])
        assert system.derives("a.b.c", "c")
        assert system.derives("a.b", "")

    def test_growing_rhs_terminates(self):
        # The post* language is infinite; saturation must still halt.
        system = PrefixRewriteSystem([("a", "a.a")])
        assert system.derives("a", Path(["a"] * 30))
        assert not system.derives("a", "")

    def test_directedness(self):
        system = PrefixRewriteSystem([("a", "b")])
        assert not system.derives("b", "a")

    def test_symmetric(self):
        system = PrefixRewriteSystem([("a", "b")], symmetric=True)
        assert system.derives("b", "a")
        assert system.derives("b.x", "a.x")

    def test_inverse(self):
        system = PrefixRewriteSystem([("a", "b")])
        assert system.inverse().derives("b", "a")

    def test_alphabet(self):
        system = PrefixRewriteSystem([("a.b", "c")])
        assert system.alphabet() == frozenset({"a", "b", "c"})

    def test_cached_automata_reused(self):
        system = PrefixRewriteSystem([("a", "b")])
        first = system.post_star_automaton("a.x")
        second = system.post_star_automaton("a.x")
        assert first is second


class TestWordConstraintExamples:
    """The bibliography extent constraints as rewriting."""

    def setup_method(self):
        self.system = PrefixRewriteSystem(
            [
                ("book.author", "person"),
                ("person.wrote", "book"),
                ("book.ref", "book"),
            ]
        )

    def test_author_of_book_is_person(self):
        assert self.system.derives("book.author", "person")

    def test_transitive_navigation(self):
        # book.author.wrote -> person.wrote -> book.
        assert self.system.derives("book.author.wrote", "book")

    def test_ref_chain_collapses(self):
        assert self.system.derives("book.ref.ref.ref", "book")

    def test_no_unsound_consequence(self):
        assert not self.system.derives("person", "book.author")
        assert not self.system.derives("book", "person")

    def test_derivable_words_enumeration(self):
        out = set(self.system.derivable_words("book.ref.author", max_length=3))
        assert Path.parse("book.author") in out
        assert Path.parse("person") in out


class TestDerivations:
    def test_found_and_checked(self):
        system = PrefixRewriteSystem([("a", "b.c"), ("b.c.d", "e")])
        steps = system.find_derivation("a.d", "e")
        assert steps is not None
        assert system.check_derivation("a.d", "e", steps)

    def test_none_when_unreachable(self):
        system = PrefixRewriteSystem([("a", "b")])
        assert system.find_derivation("b", "a") is None

    def test_empty_derivation(self):
        system = PrefixRewriteSystem([])
        assert system.find_derivation("x", "x") == []

    def test_checker_rejects_tampering(self):
        system = PrefixRewriteSystem([("a", "b")])
        steps = system.find_derivation("a.x", "b.x")
        assert steps is not None and len(steps) == 1
        # Wrong suffix.
        from dataclasses import replace

        bad = [replace(steps[0], suffix=Path.parse("y"))]
        assert not system.check_derivation("a.x", "b.x", bad)
        # Wrong rule index.
        bad = [replace(steps[0], rule_index=5)]
        assert not system.check_derivation("a.x", "b.x", bad)
        # Inverted use in a non-symmetric system.
        bad = [replace(steps[0], inverted=True)]
        assert not system.check_derivation("a.x", "b.x", bad)

    def test_symmetric_derivation_checked(self):
        system = PrefixRewriteSystem([("a.b", "c")], symmetric=True)
        steps = system.find_derivation("c.z", "a.b.z")
        assert steps is not None
        assert steps[0].inverted
        assert system.check_derivation("c.z", "a.b.z", steps)


@settings(max_examples=60, deadline=None)
@given(rules, words, words)
def test_saturation_agrees_with_bfs(rule_list, source, target):
    """post* membership == BFS closure membership (both directions of
    disagreement would be a bug: missing reachability or unsound
    acceptance)."""
    system = PrefixRewriteSystem(rule_list)
    # The BFS oracle is exact for targets within its length bound as
    # long as intermediate words never need to exceed it; bound it by
    # the maximum possible one-step growth over a short derivation.
    max_len = max(len(source), len(target)) + max(
        (len(r) for _, r in rule_list), default=0
    ) * 3
    reachable = bfs_reachable(system, source, max_len)
    if target in reachable:
        assert system.derives(source, target)
    # The converse: anything saturation claims within the BFS horizon
    # must be BFS-reachable (soundness check on short words).
    for word in system.derivable_words(source, max_length=2, max_count=30):
        assert word in bfs_reachable(system, source, max_len + 2), word


@settings(max_examples=40, deadline=None)
@given(rules, words, words)
def test_symmetric_saturation_is_symmetric(rule_list, source, target):
    system = PrefixRewriteSystem(rule_list, symmetric=True)
    assert system.derives(source, target) == system.derives(target, source)


@settings(max_examples=40, deadline=None)
@given(rules, words, words, words)
def test_right_congruence_property(rule_list, source, target, suffix):
    """derives(u, v) implies derives(u.z, v.z)."""
    system = PrefixRewriteSystem(rule_list)
    if system.derives(source, target):
        assert system.derives(source.concat(suffix), target.concat(suffix))


@settings(max_examples=40, deadline=None)
@given(rules, words, words)
def test_derivation_exists_iff_derives(rule_list, source, target):
    """find_derivation and derives agree on small instances, and the
    returned derivation always re-checks."""
    system = PrefixRewriteSystem(rule_list)
    steps = system.find_derivation(source, target, max_steps=3000)
    if system.derives(source, target):
        # The BFS may legitimately give up only on long chains; for
        # these tiny instances it must succeed.
        assert steps is not None
        assert system.check_derivation(source, target, steps)
    else:
        assert steps is None


# -- the worklist kernel against the naive fixpoint loop ---------------------


def naive_saturate(system: PrefixRewriteSystem, out: NFA) -> NFA:
    """Reference oracle: grow ``out`` to ``post*(L(out))`` by the naive
    fixpoint loop.  Each pass re-reads every rule's left side from the
    initial state and adds the rule's final edge onto every state
    reached, until a pass adds nothing.  Spines and their nonce are
    built exactly as the kernel builds them."""
    rules = list(system.rules)
    if system.symmetric:
        rules.extend((rhs, lhs) for lhs, rhs in system.rules)
    q0 = out.initial
    existing = out.states
    nonce = 0
    while any(
        isinstance(s, tuple) and s[:2] == ("post*", nonce) for s in existing
    ):
        nonce += 1
    tails: list[tuple[object, object]] = []
    for index, (_, rhs) in enumerate(rules):
        if len(rhs) == 0:
            tails.append((q0, EPSILON))
        elif len(rhs) == 1:
            tails.append((q0, rhs.labels[0]))
        else:
            prev = q0
            for j, symbol in enumerate(rhs.labels[:-1]):
                state = ("post*", nonce, index, j)
                out.add_transition(prev, symbol, state)
                prev = state
            tails.append((prev, rhs.labels[-1]))
    changed = True
    while changed:
        changed = False
        for index, (lhs, _) in enumerate(rules):
            src, symbol = tails[index]
            for q in out.run(lhs.labels):
                if out.add_transition(src, symbol, q):
                    changed = True
    return out


def assert_same_automaton(got: NFA, want: NFA) -> None:
    assert got.initial == want.initial
    assert set(got.transitions()) == set(want.transitions())
    assert got.finals == want.finals
    assert got.states == want.states


def check_kernel(system: PrefixRewriteSystem, seed: NFA) -> None:
    """post* and pre* of ``seed`` equal the naive loop's, and the seed
    is left as it was."""
    before = set(seed.transitions())
    assert_same_automaton(
        system.post_star_of_nfa(seed), naive_saturate(system, seed.copy())
    )
    inverse = system if system.symmetric else system.inverse()
    assert_same_automaton(
        system.pre_star_of_nfa(seed), naive_saturate(inverse, seed.copy())
    )
    assert set(seed.transitions()) == before


regexes = st.recursive(
    labels,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: f"({t[0]}|{t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]}.{t[1]}"),
        inner.map(lambda r: f"({r})*"),
    ),
    max_leaves=5,
)


@st.composite
def seed_automata(draw) -> NFA:
    """A word automaton, a compiled regex (with epsilon moves), or a
    saturation result to be saturated again (its spines are taken, so
    the kernel must pick a fresh nonce)."""
    kind = draw(st.sampled_from(["word", "regex", "saturated"]))
    if kind == "word":
        return NFA.for_word(draw(words).labels)
    if kind == "regex":
        return compile_regex(draw(regexes))
    first = PrefixRewriteSystem(draw(rules), symmetric=draw(st.booleans()))
    return first.post_star_automaton(draw(words))


@settings(max_examples=150, deadline=None)
@given(rules, st.booleans(), seed_automata())
def test_worklist_kernel_matches_naive_loop(rule_list, symmetric, seed):
    """Rule lists include empty left sides (the ``() => u`` rules of
    ``closure_system``) and empty right sides (epsilon tails)."""
    check_kernel(PrefixRewriteSystem(rule_list, symmetric=symmetric), seed)


def test_worklist_kernel_matches_naive_loop_at_benchmark_sizes():
    """Seeded systems at the sizes of the decide-cold benchmark: 48
    P_w rules over three labels, and the symmetric system of 32
    typed-M premises over a 12-class M schema."""
    rng = random.Random(0)

    def path(pool: list[str]) -> Path:
        return Path([rng.choice(pool) for _ in range(rng.randint(1, 3))])

    pool = ["a", "b", "c"]
    untyped = PrefixRewriteSystem([(path(pool), path(pool)) for _ in range(48)])
    for _ in range(4):
        check_kernel(untyped, NFA.for_word(path(pool).labels))

    signature = SchemaSignature(random_m_schema(12, 2, seed=rng.randrange(1 << 30)))
    groups: dict[object, list[Path]] = {}
    for candidate in signature.sample_paths(4):
        if not candidate.is_empty():
            groups.setdefault(signature.type_of_path(candidate), []).append(candidate)
    sorts = [paths for paths in groups.values() if len(paths) >= 2]
    sigma = [word(*rng.sample(rng.choice(sorts), 2)) for _ in range(32)]
    typed = TypedImplicationDecider(signature.schema, sigma).system
    for _ in range(4):
        left, _ = rng.sample(rng.choice(sorts), 2)
        check_kernel(typed, NFA.for_word(left.labels))
