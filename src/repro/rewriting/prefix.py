"""Prefix rewriting: ``post*`` saturation and derivation search.

A *prefix rewriting system* is a finite set of rules ``u_i -> v_i``
over words; a rule rewrites ``u_i . z`` to ``v_i . z`` (only at the
front of the word).  Derivability under the word-constraint inference
rules {reflexivity, transitivity, right-congruence} of Section 4.2 is
exactly reachability under prefix rewriting, and adding the
commutativity rule (sound over the typed model M) makes the system
symmetric.

``post*(w)`` — the set of words reachable from ``w`` — is a regular
language.  We compute an NFA for it by the classic saturation
construction: starting from the one-word automaton for ``w``, with a
pre-built spine for each rule's right-hand side, add, for every rule
``u -> v`` and every state ``q`` reachable from the initial state by
reading ``u``, the final edge that makes ``v`` read from the initial
state land on ``q``.  The Bouajjani–Esparza–Maler worklist reaches the
least such automaton without re-reading any left side: the left sides
share a trie, each (trie node, state) pair is expanded once, and a new
final edge feeds only the trie nodes that already reach its source.
States never grow beyond the initial chain plus the rule spines, so
the construction is polynomial.  ``pre*`` is ``post*`` of the inverse
system, and a seed may be any NFA (``post_star_of_nfa``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.automata.nfa import EPSILON, NFA
from repro.paths import Path


def _members(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class RewriteStep:
    """One prefix-rewriting step in a derivation.

    ``source = rule_lhs . suffix`` rewrites to ``target = rule_rhs .
    suffix``.  ``inverted`` marks a use of the rule right-to-left
    (possible only in symmetric systems; it corresponds to the
    commutativity inference rule).
    """

    source: Path
    target: Path
    rule_index: int
    inverted: bool
    suffix: Path

    def describe(self) -> str:
        direction = "<-" if self.inverted else "->"
        return (
            f"{self.source} => {self.target}  "
            f"[rule {self.rule_index} {direction}, suffix {self.suffix}]"
        )


class PrefixRewriteSystem:
    """A finite prefix rewriting system with cached ``post*`` automata.

    >>> system = PrefixRewriteSystem([("a.b", "c"), ("c.d", "a")])
    >>> system.derives("a.b.d", "a")     # a.b.d => c.d => a
    True
    >>> system.derives("a", "a.b.d")     # not symmetric
    False
    >>> PrefixRewriteSystem([("a.b", "c"), ("c.d", "a")],
    ...                     symmetric=True).derives("a", "a.b.d")
    True
    """

    def __init__(
        self,
        rules: Iterable[tuple[Path | str, Path | str]],
        symmetric: bool = False,
    ) -> None:
        base = [
            (Path.coerce(lhs), Path.coerce(rhs)) for lhs, rhs in rules
        ]
        self._base_rules = tuple(base)
        self._symmetric = symmetric
        effective = list(base)
        if symmetric:
            effective.extend((rhs, lhs) for lhs, rhs in base)
        self._rules = tuple(effective)
        self._post_cache: dict[Path, NFA] = {}

    # -- introspection -----------------------------------------------------

    @property
    def rules(self) -> tuple[tuple[Path, Path], ...]:
        """The user-supplied rules (without symmetric inverses)."""
        return self._base_rules

    @property
    def symmetric(self) -> bool:
        return self._symmetric

    def alphabet(self) -> frozenset[str]:
        out: set[str] = set()
        for lhs, rhs in self._base_rules:
            out |= lhs.alphabet() | rhs.alphabet()
        return frozenset(out)

    def inverse(self) -> "PrefixRewriteSystem":
        """The system with every rule reversed (``pre*`` of self is
        ``post*`` of the inverse)."""
        return PrefixRewriteSystem(
            [(rhs, lhs) for lhs, rhs in self._base_rules],
            symmetric=self._symmetric,
        )

    # -- one-step rewriting ---------------------------------------------------

    def neighbors(self, word: Path) -> Iterator[RewriteStep]:
        """All one-step rewrites of ``word`` (including inverted rule
        uses when the system is symmetric)."""
        base_count = len(self._base_rules)
        for index, (lhs, rhs) in enumerate(self._rules):
            if lhs.is_prefix_of(word):
                suffix = word.strip_prefix(lhs)
                yield RewriteStep(
                    source=word,
                    target=rhs.concat(suffix),
                    rule_index=index % base_count if base_count else index,
                    inverted=index >= base_count,
                    suffix=suffix,
                )

    # -- post* saturation -------------------------------------------------------

    def post_star_automaton(self, word: Path | str) -> NFA:
        """An NFA accepting ``post*(word)``; memoized per word."""
        word = Path.coerce(word)
        cached = self._post_cache.get(word)
        if cached is None:
            cached = self._saturate(NFA.for_word(word.labels))
            self._post_cache[word] = cached
        return cached

    def post_star_of_nfa(self, nfa: NFA) -> NFA:
        """An NFA accepting ``post*(L(nfa))``: every word derivable
        from *some* member of the seed language.  The seed automaton is
        not mutated."""
        return self._saturate(nfa.copy())

    def pre_star_of_nfa(self, nfa: NFA) -> NFA:
        """An NFA accepting ``pre*(L(nfa))``: every word that derives
        *into* the seed language (``post*`` of the inverse system; a
        symmetric system is its own inverse)."""
        inverse = self if self._symmetric else self.inverse()
        return inverse._saturate(nfa.copy())

    def _saturate(self, out: NFA) -> NFA:
        """Grow ``out`` in place to accept ``post*(L(out))``.

        Pre-build the spine of each rule's right-hand side: reading
        ``rhs[:-1]`` from the initial state lands on the spine tip (the
        rule's *tail source*), so saturation only adds final edges.
        Rules with ``|rhs| <= 1`` need no spine.  The eager spine is
        sound: no word is accepted through a spine until some final
        edge lands on an accepting continuation.

        The final edges are the least fixpoint of: for every rule
        ``u -> v`` and every state ``q`` that reading ``u`` from the
        initial state reaches, ``v``'s final edge lands on ``q``.  A
        worklist reaches it without re-reading any left side
        (Bouajjani–Esparza–Maler post* saturation).  The left sides
        share a trie, and ``reach[k]`` is the epsilon-closed set of
        states that reading trie node ``k``'s prefix reaches, a bitset
        over the numbered states.  Invariant: a state enters
        ``reach[k]`` once and is expanded there once, in a batch
        (``pending[k]``).  Expanding it feeds its moves to ``k``
        (epsilon) and to ``k``'s children (labels), and gives each rule
        ending at ``k`` its final edge onto it.  A new final edge from a
        tail source feeds only the trie nodes that have already
        expanded that source; the others read it when they do.  With
        ``Q`` the seed's states plus the spines, that is at most
        ``|trie| * |Q|`` expansions and ``|rules| * |Q|`` final edges.
        """
        q0 = out.initial
        # Spine states must be fresh even when the seed is itself a
        # saturation result (chained post* calls), hence the nonce.
        existing = out.states
        nonce = 0
        while any(
            isinstance(s, tuple) and s[:2] == ("post*", nonce)
            for s in existing
        ):
            nonce += 1
        tails: list[tuple[object, object]] = []  # (src_state, last_symbol)
        for index, (_, rhs) in enumerate(self._rules):
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

        # Number the states, the initial one 0; succ[i] maps a symbol
        # (or EPSILON) to the bitset of state i's targets on it.  Every
        # tail source is the initial state or a spine state, so it has
        # a number.
        edges = list(out.transitions())
        number: dict[object, int] = {q0: 0}
        for src, _, dst in edges:
            number.setdefault(src, len(number))
            number.setdefault(dst, len(number))
        states = list(number)
        succ: list[dict[object, int]] = [{} for _ in states]
        for src, symbol, dst in edges:
            row = succ[number[src]]
            row[symbol] = row.get(symbol, 0) | 1 << number[dst]

        # The trie of left sides.  children[k] maps a label to a child
        # node and EPSILON to k itself, so one lookup says where a move
        # of either kind lands; ends[k] lists the tails (source number,
        # last symbol) of the rules whose lhs ends at node k.
        children: list[dict[object, int]] = [{EPSILON: 0}]
        ends: list[list[tuple[int, object]]] = [[]]
        for (lhs, _), (src, symbol) in zip(self._rules, tails):
            node = 0
            for label in lhs.labels:
                child = children[node].get(label)
                if child is None:
                    child = len(children)
                    children[node][label] = child
                    children.append({EPSILON: child})
                    ends.append([])
                node = child
            ends[node].append((number[src], symbol))
        # Each tail's targets before saturation, to write back the rest.
        before = {
            tail: succ[tail[0]].get(tail[1], 0)
            for node_ends in ends
            for tail in node_ends
        }
        # expanded[src]: the trie nodes that have expanded a tail source.
        expanded: dict[int, list[int]] = {src: [] for src, _ in before}
        reach = [0] * len(children)
        pending = [0] * len(children)
        work: list[int] = []  # the trie nodes with a pending batch

        def feed(node: int, mask: int) -> None:
            fresh = mask & ~reach[node]
            if fresh:
                reach[node] |= fresh
                if not pending[node]:
                    work.append(node)
                pending[node] |= fresh

        feed(0, 1)  # the root reaches the initial state, numbered 0
        while work:
            node = work.pop()
            batch, pending[node] = pending[node], 0
            kids = children[node]
            for state in _members(batch):
                holders = expanded.get(state)
                if holders is not None:
                    holders.append(node)
                for symbol, targets in succ[state].items():
                    dest = kids.get(symbol)
                    if dest is not None:
                        feed(dest, targets)
            for src, symbol in ends[node]:
                row = succ[src].get(symbol, 0)
                added = batch & ~row
                if not added:
                    continue
                succ[src][symbol] = row | added
                for holder in expanded[src]:
                    dest = children[holder].get(symbol)
                    if dest is not None:
                        feed(dest, added)

        for (src, symbol), old in before.items():
            added = succ[src].get(symbol, 0) & ~old
            if added:
                out.add_transitions(
                    states[src], symbol, [states[i] for i in _members(added)]
                )
        return out

    def derives(self, source: Path | str, target: Path | str) -> bool:
        """Is ``target`` reachable from ``source``?

        This is the decision core of the untyped word-constraint
        decider (and, with ``symmetric=True``, of the typed-M decider).
        """
        source = Path.coerce(source)
        target = Path.coerce(target)
        if source == target:
            return True
        return self.post_star_automaton(source).accepts(target.labels)

    def derivable_words(
        self, source: Path | str, max_length: int, max_count: int | None = None
    ) -> Iterator[Path]:
        """Enumerate ``post*(source)`` members in shortlex order."""
        nfa = self.post_star_automaton(source)
        for labels in nfa.enumerate_words(max_length, max_count):
            yield Path(labels)

    # -- explicit derivations --------------------------------------------------

    def find_derivation(
        self,
        source: Path | str,
        target: Path | str,
        max_steps: int = 100_000,
        max_length: int | None = None,
    ) -> list[RewriteStep] | None:
        """An explicit rewrite sequence from source to target, or None.

        Breadth-first search over words, capped by a word-length bound
        and an expansion budget.  Callers that only need yes/no should
        use :meth:`derives` (complete and polynomial); this method
        exists to extract *certificates* (which the I_r proof builder
        turns into checkable proofs), so incompleteness within the
        budget is acceptable and reported as None.
        """
        source = Path.coerce(source)
        target = Path.coerce(target)
        if source == target:
            return []
        if not self.derives(source, target):
            return None
        if max_length is None:
            longest_rule = max(
                (len(rhs) for _, rhs in self._rules), default=0
            )
            max_length = max(len(source), len(target)) + longest_rule + 8

        parents: dict[Path, RewriteStep | None] = {source: None}
        queue: deque[Path] = deque([source])
        expansions = 0
        while queue and expansions < max_steps:
            word = queue.popleft()
            expansions += 1
            for step in self.neighbors(word):
                if step.target in parents or len(step.target) > max_length:
                    continue
                parents[step.target] = step
                if step.target == target:
                    return self._unwind(parents, target)
                queue.append(step.target)
        return None

    @staticmethod
    def _unwind(
        parents: dict[Path, RewriteStep | None], target: Path
    ) -> list[RewriteStep]:
        steps: list[RewriteStep] = []
        current = target
        while True:
            step = parents[current]
            if step is None:
                break
            steps.append(step)
            current = step.source
        steps.reverse()
        return steps

    def check_derivation(
        self, source: Path | str, target: Path | str, steps: list[RewriteStep]
    ) -> bool:
        """Verify an explicit derivation independently of the search."""
        current = Path.coerce(source)
        base_count = len(self._base_rules)
        for step in steps:
            if step.source != current:
                return False
            if not 0 <= step.rule_index < base_count:
                return False
            lhs, rhs = self._base_rules[step.rule_index]
            if step.inverted:
                if not self._symmetric:
                    return False
                lhs, rhs = rhs, lhs
            if lhs.concat(step.suffix) != current:
                return False
            if rhs.concat(step.suffix) != step.target:
                return False
            current = step.target
        return current == Path.coerce(target)

    def __repr__(self) -> str:
        kind = "symmetric " if self._symmetric else ""
        return f"<{kind}PrefixRewriteSystem rules={len(self._base_rules)}>"
