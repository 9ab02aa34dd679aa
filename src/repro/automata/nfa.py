"""Nondeterministic finite automata with epsilon transitions.

States are arbitrary hashable values; the alphabet is implicit (every
symbol that labels some transition).  Mutability is deliberate: the
``post*`` saturation of :mod:`repro.rewriting.prefix` grows an NFA in
place, adding its spines and then its final edges
(:meth:`NFA.add_transitions`, one batch per rule tail).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

State = Hashable

#: Sentinel used as the label of epsilon transitions.
EPSILON = None


class NFA:
    """An epsilon-NFA with a single initial state.

    >>> a = NFA(initial="q0")
    >>> a.add_transition("q0", "x", "q1")
    True
    >>> a.add_final("q1")
    >>> a.accepts(["x"])
    True
    >>> a.accepts(["x", "x"])
    False
    """

    def __init__(self, initial: State = 0) -> None:
        self._initial = initial
        self._finals: set[State] = set()
        # state -> symbol (or EPSILON) -> set of states
        self._delta: dict[State, dict[object, set[State]]] = {initial: {}}
        self._fresh = 0

    # -- construction -------------------------------------------------

    @property
    def initial(self) -> State:
        return self._initial

    @property
    def finals(self) -> frozenset[State]:
        return frozenset(self._finals)

    @property
    def states(self) -> frozenset[State]:
        out: set[State] = set(self._delta)
        for by_symbol in self._delta.values():
            for targets in by_symbol.values():
                out |= targets
        out |= self._finals
        return frozenset(out)

    def fresh_state(self) -> State:
        """A state identifier of the form ``("s", n)`` not yet used."""
        while True:
            candidate = ("s", self._fresh)
            self._fresh += 1
            if candidate not in self._delta:
                return candidate

    def add_state(self, state: State) -> State:
        self._delta.setdefault(state, {})
        return state

    def add_final(self, state: State) -> None:
        self.add_state(state)
        self._finals.add(state)

    def add_transition(self, src: State, symbol: object, dst: State) -> bool:
        """Add a transition; returns True iff it was new."""
        self.add_state(src)
        self.add_state(dst)
        targets = self._delta[src].setdefault(symbol, set())
        if dst in targets:
            return False
        targets.add(dst)
        return True

    def has_transition(self, src: State, symbol: object, dst: State) -> bool:
        return dst in self._delta.get(src, {}).get(symbol, ())

    def add_transitions(
        self, src: State, symbol: object, dsts: Iterable[State]
    ) -> None:
        """Add a transition from ``src`` on ``symbol`` to each of ``dsts``."""
        delta = self._delta
        targets = delta.setdefault(src, {}).setdefault(symbol, set())
        for dst in dsts:
            delta.setdefault(dst, {})
            targets.add(dst)

    def add_word_path(
        self, src: State, word: Iterable[str], dst: State
    ) -> None:
        """Add a chain of fresh states spelling ``word`` from src to dst.

        An empty word becomes a single epsilon transition.
        """
        word = list(word)
        if not word:
            self.add_transition(src, EPSILON, dst)
            return
        current = src
        for symbol in word[:-1]:
            nxt = self.fresh_state()
            self.add_transition(current, symbol, nxt)
            current = nxt
        self.add_transition(current, word[-1], dst)

    def transitions(self) -> Iterator[tuple[State, object, State]]:
        for src, by_symbol in self._delta.items():
            for symbol, targets in by_symbol.items():
                for dst in targets:
                    yield (src, symbol, dst)

    def transition_count(self) -> int:
        return sum(
            len(targets)
            for by_symbol in self._delta.values()
            for targets in by_symbol.values()
        )

    def alphabet(self) -> frozenset[str]:
        out: set[str] = set()
        for by_symbol in self._delta.values():
            out.update(s for s in by_symbol if s is not EPSILON)
        return frozenset(out)  # type: ignore[arg-type]

    # -- execution ------------------------------------------------------

    def epsilon_closure(self, states: Iterable[State]) -> frozenset[State]:
        seen = set(states)
        stack = list(seen)
        while stack:
            state = stack.pop()
            for dst in self._delta.get(state, {}).get(EPSILON, ()):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)

    def step(self, states: Iterable[State], symbol: str) -> frozenset[State]:
        """One symbol of subset execution (epsilon-closed in and out)."""
        closed = self.epsilon_closure(states)
        moved: set[State] = set()
        for state in closed:
            moved |= self._delta.get(state, {}).get(symbol, set())
        return self.epsilon_closure(moved)

    def run(self, word: Iterable[str]) -> frozenset[State]:
        """The state set after reading ``word`` from the initial state."""
        current = self.epsilon_closure([self._initial])
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                break
        return current

    def accepts(self, word: Iterable[str]) -> bool:
        return bool(self.run(word) & self._finals)

    def coaccessible_states(self) -> frozenset[State]:
        """States from which some final state is reachable."""
        reverse: dict[State, set[State]] = {}
        for src, _, dst in self.transitions():
            reverse.setdefault(dst, set()).add(src)
        seen = set(self._finals)
        stack = list(seen)
        while stack:
            state = stack.pop()
            for prev in reverse.get(state, ()):
                if prev not in seen:
                    seen.add(prev)
                    stack.append(prev)
        return frozenset(seen)

    def accepts_extension_of(self, prefix: Iterable[str]) -> bool:
        """Is some accepted word of the form ``prefix . rest``?

        Equivalent to non-emptiness of ``L(A) intersect prefix.X*``.
        """
        return bool(self.run(prefix) & self.coaccessible_states())

    def is_empty(self) -> bool:
        """True iff the accepted language is empty."""
        seen = {self._initial}
        stack = [self._initial]
        while stack:
            state = stack.pop()
            if state in self._finals:
                return False
            for targets in self._delta.get(state, {}).values():
                for dst in targets:
                    if dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
        return True

    # -- language operations -----------------------------------------------

    def copy(self) -> "NFA":
        out = NFA(initial=self._initial)
        for state in self._delta:
            out.add_state(state)
        for src, symbol, dst in self.transitions():
            out.add_transition(src, symbol, dst)
        for state in self._finals:
            out.add_final(state)
        out._fresh = self._fresh
        return out

    @classmethod
    def for_word(cls, word: Iterable[str]) -> "NFA":
        """An NFA accepting exactly the one given word."""
        nfa = cls(initial=("w", 0))
        current = nfa.initial
        for i, symbol in enumerate(word, start=1):
            nxt = ("w", i)
            nfa.add_transition(current, symbol, nxt)
            current = nxt
        nfa.add_final(current)
        return nfa

    def trim(self) -> "NFA":
        """A copy keeping only *useful* states (reachable from the
        initial state and co-accessible to a final one).  The initial
        state always survives, so the result is a well-formed NFA even
        for the empty language."""
        reachable: set[State] = set()
        stack = [self._initial]
        while stack:
            state = stack.pop()
            if state in reachable:
                continue
            reachable.add(state)
            for targets in self._delta.get(state, {}).values():
                stack.extend(targets)
        live = (reachable & self.coaccessible_states()) | {self._initial}
        out = NFA(initial=self._initial)
        for src, symbol, dst in self.transitions():
            if src in live and dst in live:
                out.add_transition(src, symbol, dst)
        for state in self._finals & live:
            out.add_final(state)
        return out

    def intersect(self, other: "NFA") -> "NFA":
        """The product automaton: ``L(self) intersect L(other)``.

        States are pairs; epsilon moves advance one side at a time, so
        neither operand needs to be epsilon-free.  Only the part
        reachable from the initial pair is built.
        """
        out = NFA(initial=(self._initial, other._initial))
        seen = {out.initial}
        stack = [out.initial]
        while stack:
            pair = stack.pop()
            p, q = pair
            if p in self._finals and q in other._finals:
                out.add_final(pair)
            moves: list[tuple[object, tuple[State, State]]] = []
            for symbol, targets in self._delta.get(p, {}).items():
                if symbol is EPSILON:
                    moves.extend((EPSILON, (dst, q)) for dst in targets)
                else:
                    for dst2 in other._delta.get(q, {}).get(symbol, ()):
                        moves.extend(
                            (symbol, (dst, dst2)) for dst in targets
                        )
            for dst2 in other._delta.get(q, {}).get(EPSILON, ()):
                moves.append((EPSILON, (p, dst2)))
            for symbol, nxt in moves:
                out.add_transition(pair, symbol, nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return out

    def subset_witness(
        self,
        other: "NFA",
        extra_alphabet: Iterable[str] = (),
        max_pairs: int | None = None,
    ) -> tuple[str, ...] | None:
        """A shortest word in ``L(self) \\ L(other)``, or None.

        ``None`` means ``L(self) c L(other)``.  Breadth-first search
        over (self-subset, other-subset) pairs — on-the-fly
        determinization of both sides, so no explicit powerset is ever
        materialized; the frontier is bounded by the reachable pair
        count.  ``max_pairs`` caps that count for callers that need a
        guaranteed-cheap check; exceeding it raises :class:`RuntimeError`
        (the automata here come from short queries, so the cap is a
        safety valve, not an expected path).
        """
        alphabet = sorted(
            self.alphabet() | other.alphabet() | set(extra_alphabet)
        )
        start = (
            self.epsilon_closure([self._initial]),
            other.epsilon_closure([other._initial]),
        )
        from collections import deque

        queue = deque([((), start)])
        seen = {start}
        while queue:
            word, (mine, theirs) = queue.popleft()
            if (mine & self._finals) and not (theirs & other._finals):
                return word
            for symbol in alphabet:
                nxt_mine = self.step(mine, symbol)
                if not nxt_mine:
                    # No accepting continuation on my side: the other
                    # side cannot be beaten down this branch.
                    continue
                nxt = (nxt_mine, other.step(theirs, symbol))
                if nxt in seen:
                    continue
                if max_pairs is not None and len(seen) >= max_pairs:
                    raise RuntimeError(
                        f"subset check exceeded {max_pairs} product "
                        "subset pairs"
                    )
                seen.add(nxt)
                queue.append((word + (symbol,), nxt))
        return None

    def has_cycle_on_live_path(self) -> bool:
        """Is the accepted language infinite?

        True iff some cycle is both reachable from the initial state
        and co-accessible (can still reach a final state).  Used to
        decide whether a query language can be exhaustively enumerated.
        """
        live = self.coaccessible_states()
        reachable: set[State] = set()
        stack = [self._initial]
        while stack:
            state = stack.pop()
            if state in reachable:
                continue
            reachable.add(state)
            for targets in self._delta.get(state, {}).values():
                stack.extend(targets)
        core = reachable & live
        # Cycle detection by iterated removal of sink states.
        out_edges = {
            state: {
                dst
                for targets in self._delta.get(state, {}).values()
                for dst in targets
                if dst in core
            }
            for state in core
        }
        changed = True
        while changed:
            changed = False
            for state in list(out_edges):
                if not out_edges[state]:
                    del out_edges[state]
                    for remaining in out_edges.values():
                        remaining.discard(state)
                    changed = True
        return bool(out_edges)

    def enumerate_words(
        self, max_length: int, max_count: int | None = None
    ) -> Iterator[tuple[str, ...]]:
        """Yield accepted words in shortlex order up to ``max_length``.

        Used to extract small witnesses from ``post*`` languages.
        Deduplicates; may be exponential in ``max_length``, so callers
        pass small bounds (and optionally ``max_count``).
        """
        from collections import deque

        alphabet = sorted(self.alphabet())
        start = self.epsilon_closure([self._initial])
        queue: deque[tuple[tuple[str, ...], frozenset[State]]] = deque(
            [((), start)]
        )
        emitted = 0
        while queue:
            word, states = queue.popleft()
            if states & self._finals:
                yield word
                emitted += 1
                if max_count is not None and emitted >= max_count:
                    return
            if len(word) >= max_length:
                continue
            for symbol in alphabet:
                nxt = self.step(states, symbol)
                if nxt:
                    queue.append((word + (symbol,), nxt))
