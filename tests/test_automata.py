"""Tests for the NFA substrate and the path-regex engine."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.automata import NFA, compile_regex
from repro.automata.nfa import EPSILON
from repro.errors import RegexSyntaxError

words = st.lists(st.sampled_from(["a", "b"]), min_size=0, max_size=8)


def _abc_nfa() -> NFA:
    """(a|b)*c"""
    nfa = NFA(initial=0)
    nfa.add_transition(0, "a", 0)
    nfa.add_transition(0, "b", 0)
    nfa.add_transition(0, "c", 1)
    nfa.add_final(1)
    return nfa


class TestNFA:
    def test_word_automaton(self):
        nfa = NFA.for_word(["a", "b"])
        assert nfa.accepts(["a", "b"])
        assert not nfa.accepts(["a"])
        assert not nfa.accepts(["a", "b", "c"])

    def test_epsilon_closure(self):
        nfa = NFA(initial=0)
        nfa.add_transition(0, EPSILON, 1)
        nfa.add_transition(1, EPSILON, 2)
        assert nfa.epsilon_closure([0]) == frozenset({0, 1, 2})

    def test_epsilon_in_run(self):
        nfa = NFA(initial=0)
        nfa.add_transition(0, EPSILON, 1)
        nfa.add_transition(1, "a", 2)
        nfa.add_final(2)
        assert nfa.accepts(["a"])

    def test_add_word_path_empty(self):
        nfa = NFA(initial=0)
        nfa.add_state(1)
        nfa.add_word_path(0, [], 1)
        nfa.add_final(1)
        assert nfa.accepts([])

    def test_add_word_path(self):
        nfa = NFA(initial=0)
        nfa.add_word_path(0, ["x", "y"], 1)
        nfa.add_final(1)
        assert nfa.accepts(["x", "y"])
        assert not nfa.accepts(["x"])

    def test_is_empty(self):
        nfa = NFA(initial=0)
        assert nfa.is_empty()
        nfa.add_final(0)
        assert not nfa.is_empty()

    def test_enumerate_words_shortlex(self):
        nfa = _abc_nfa()
        words_list = list(nfa.enumerate_words(max_length=2))
        assert words_list == [("c",), ("a", "c"), ("b", "c")]

    def test_enumerate_words_respects_count(self):
        nfa = _abc_nfa()
        assert len(list(nfa.enumerate_words(5, max_count=4))) == 4

    def test_copy_independent(self):
        nfa = _abc_nfa()
        clone = nfa.copy()
        clone.add_final(0)
        assert clone.accepts([]) and not nfa.accepts([])

    def test_subset_witness_decides_equivalence(self):
        # a* = ()|a.a*: no witness in either direction.
        star, split = compile_regex("a*"), compile_regex("()|a.a*")
        assert star.subset_witness(split) is None
        assert split.subset_witness(star) is None
        # a* != a.a*: the empty word separates them, one way only.
        plus = compile_regex("a.a*")
        assert star.subset_witness(plus) == ()
        assert plus.subset_witness(star) is None


class TestRegex:
    @pytest.mark.parametrize(
        "pattern,accepted,rejected",
        [
            ("a.b", [["a", "b"]], [["a"], ["b", "a"]]),
            ("a|b", [["a"], ["b"]], [[], ["a", "b"]]),
            ("a*", [[], ["a"], ["a"] * 5], [["b"]]),
            ("a+", [["a"], ["a", "a"]], [[]]),
            ("a?", [[], ["a"]], [["a", "a"]]),
            ("(a.b)+", [["a", "b"], ["a", "b", "a", "b"]], [["a"]]),
            ("book.(author|editor).name", [["book", "author", "name"]], [["book", "name"]]),
            ("()", [[]], [["a"]]),
        ],
    )
    def test_patterns(self, pattern, accepted, rejected):
        nfa = compile_regex(pattern)
        for word in accepted:
            assert nfa.accepts(word), (pattern, word)
        for word in rejected:
            assert not nfa.accepts(word), (pattern, word)

    def test_wildcard_needs_alphabet(self):
        with pytest.raises(RegexSyntaxError):
            compile_regex("_")
        nfa = compile_regex("_", alphabet={"a", "b"})
        assert nfa.accepts(["a"]) and nfa.accepts(["b"])
        assert not nfa.accepts(["c"])

    @pytest.mark.parametrize("bad", ["(a", "a)", "|a)", "*"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(RegexSyntaxError):
            compile_regex(bad)

    def test_empty_alternative_matches_epsilon(self):
        # `a|` has an empty right alternative, equivalent to a?.
        nfa = compile_regex("a|")
        assert nfa.accepts([]) and nfa.accepts(["a"])

    def test_plus_clone_is_independent(self):
        # a+ is a . a*; the star must not share states with the first a.
        nfa = compile_regex("(a.b)+")
        assert nfa.accepts(["a", "b", "a", "b", "a", "b"])
        assert not nfa.accepts(["a", "b", "a"])


class TestCoaccessibility:
    def test_coaccessible_states(self):
        nfa = NFA(initial=0)
        nfa.add_transition(0, "a", 1)
        nfa.add_transition(1, "b", 2)
        nfa.add_transition(0, "x", 3)  # dead end
        nfa.add_final(2)
        assert nfa.coaccessible_states() == frozenset({0, 1, 2})

    def test_accepts_extension_of(self):
        nfa = compile_regex("a.b.c|a.d")
        assert nfa.accepts_extension_of(["a"])
        assert nfa.accepts_extension_of(["a", "b"])
        assert nfa.accepts_extension_of(["a", "b", "c"])
        assert not nfa.accepts_extension_of(["b"])
        assert not nfa.accepts_extension_of(["a", "c"])

    def test_extension_of_empty_prefix(self):
        nfa = NFA.for_word(["a"])
        assert nfa.accepts_extension_of([])
        empty = NFA(initial=0)
        assert not empty.accepts_extension_of([])


@given(words)
def test_extension_matches_definition(word):
    """accepts_extension_of(p) iff some accepted word extends p."""
    nfa = compile_regex("(a.b)*|a.a", alphabet={"a", "b"})
    claimed = nfa.accepts_extension_of(word)
    # Ground truth within a generous horizon.
    actual = any(
        tuple(word) == w[: len(word)]
        for w in nfa.enumerate_words(max_length=len(word) + 4)
    )
    assert claimed == actual
