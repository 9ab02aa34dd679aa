"""A small regular-expression engine over edge labels.

Used by regular path queries (Section 1 mentions [AV97]'s regular
expression constraints; our query engine evaluates regular path
queries against graphs).  The grammar, in increasing precedence::

    expr     := term ('|' term)*
    term     := factor+                 # concatenation is juxtaposition
    factor   := atom ('*' | '+' | '?')*
    atom     := label | '(' expr ')' | '_'     # '_' is any single label

Labels are the same tokens accepted by :class:`repro.paths.Path`,
except that regex metacharacters must be parenthesized away.  Dots are
treated as concatenation separators, so every plain path expression
(``book.author``) is also a valid regex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.automata.nfa import EPSILON, NFA
from repro.errors import RegexSyntaxError

_TOKEN_RE = re.compile(r"\s*(?:(?P<op>[|*+?().])|(?P<label>[^\s|*+?().]+)|(?P<any>_))")

#: Wildcard token matching any single label; requires a known alphabet.
ANY = "_"


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'op' or 'label' or 'any'
    text: str


def tokenize(pattern: str) -> list[_Tok]:
    """``pattern``'s tokens: labels, ``_`` wildcards and operators."""
    tokens: list[_Tok] = []
    pos = 0
    while pos < len(pattern):
        match = _TOKEN_RE.match(pattern, pos)
        if match is None:
            remainder = pattern[pos:].strip()
            if not remainder:
                break
            raise RegexSyntaxError(f"cannot tokenize {remainder!r}")
        pos = match.end()
        if match.group("op"):
            tokens.append(_Tok("op", match.group("op")))
        elif match.group("any"):
            tokens.append(_Tok("any", ANY))
        else:
            text = match.group("label")
            if text == ANY:
                tokens.append(_Tok("any", ANY))
            else:
                tokens.append(_Tok("label", text))
    return tokens


class _Parser:
    """Recursive-descent parser producing an NFA fragment tree."""

    def __init__(self, tokens: list[_Tok], alphabet: frozenset[str]):
        self._tokens = tokens
        self._pos = 0
        self._alphabet = alphabet

    def _peek(self) -> _Tok | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _advance(self) -> _Tok:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def parse(self) -> "_Frag":
        frag = self._expr()
        if self._pos != len(self._tokens):
            raise RegexSyntaxError(
                f"unexpected token {self._tokens[self._pos].text!r}"
            )
        return frag

    def _expr(self) -> "_Frag":
        frags = [self._term()]
        while True:
            tok = self._peek()
            if tok is None or tok.text != "|":
                break
            self._advance()
            frags.append(self._term())
        if len(frags) == 1:
            return frags[0]
        return _Frag.union(frags)

    def _term(self) -> "_Frag":
        frags: list[_Frag] = []
        while True:
            tok = self._peek()
            if tok is None or tok.text in ("|", ")"):
                break
            if tok.text == ".":
                # Dot is pure punctuation (path-style concatenation).
                self._advance()
                continue
            frags.append(self._factor())
        if not frags:
            return _Frag.epsilon()
        if len(frags) == 1:
            return frags[0]
        return _Frag.concat(frags)

    def _factor(self) -> "_Frag":
        frag = self._atom()
        while True:
            tok = self._peek()
            if tok is None or tok.text not in ("*", "+", "?"):
                break
            op = self._advance().text
            if op == "*":
                frag = _Frag.star(frag)
            elif op == "+":
                frag = _Frag.concat([frag, _Frag.star(frag.clone())])
            else:
                frag = _Frag.union([frag, _Frag.epsilon()])
        return frag

    def _atom(self) -> "_Frag":
        tok = self._peek()
        if tok is None:
            raise RegexSyntaxError("unexpected end of pattern")
        if tok.text == "(":
            self._advance()
            frag = self._expr()
            closing = self._peek()
            if closing is None or closing.text != ")":
                raise RegexSyntaxError("unbalanced parenthesis")
            self._advance()
            return frag
        if tok.kind == "any":
            self._advance()
            if not self._alphabet:
                raise RegexSyntaxError(
                    "wildcard '_' needs an explicit alphabet"
                )
            return _Frag.union(
                [_Frag.symbol(label) for label in sorted(self._alphabet)]
            )
        if tok.kind == "label":
            self._advance()
            return _Frag.symbol(tok.text)
        raise RegexSyntaxError(f"unexpected token {tok.text!r}")


class _Frag:
    """Thompson construction fragment: an NFA piece with one in, one out."""

    _counter = 0

    def __init__(self) -> None:
        self.transitions: list[tuple[int, object, int]] = []
        self.start = self._new_state()
        self.end = self._new_state()

    @classmethod
    def _new_state(cls) -> int:
        cls._counter += 1
        return cls._counter

    @classmethod
    def epsilon(cls) -> "_Frag":
        frag = cls()
        frag.transitions.append((frag.start, EPSILON, frag.end))
        return frag

    @classmethod
    def symbol(cls, label: str) -> "_Frag":
        frag = cls()
        frag.transitions.append((frag.start, label, frag.end))
        return frag

    @classmethod
    def concat(cls, frags: list["_Frag"]) -> "_Frag":
        out = cls()
        out.transitions.append((out.start, EPSILON, frags[0].start))
        for left, right in zip(frags, frags[1:]):
            out.transitions.extend(left.transitions)
            out.transitions.append((left.end, EPSILON, right.start))
        out.transitions.extend(frags[-1].transitions)
        out.transitions.append((frags[-1].end, EPSILON, out.end))
        return out

    @classmethod
    def union(cls, frags: list["_Frag"]) -> "_Frag":
        out = cls()
        for frag in frags:
            out.transitions.extend(frag.transitions)
            out.transitions.append((out.start, EPSILON, frag.start))
            out.transitions.append((frag.end, EPSILON, out.end))
        return out

    @classmethod
    def star(cls, inner: "_Frag") -> "_Frag":
        out = cls()
        out.transitions.extend(inner.transitions)
        out.transitions.append((out.start, EPSILON, out.end))
        out.transitions.append((out.start, EPSILON, inner.start))
        out.transitions.append((inner.end, EPSILON, inner.start))
        out.transitions.append((inner.end, EPSILON, out.end))
        return out

    def clone(self) -> "_Frag":
        mapping: dict[int, int] = {}

        def remap(state: int) -> int:
            if state not in mapping:
                mapping[state] = self._new_state()
            return mapping[state]

        out = _Frag.__new__(_Frag)
        out.transitions = [
            (remap(src), symbol, remap(dst))
            for (src, symbol, dst) in self.transitions
        ]
        out.start = remap(self.start)
        out.end = remap(self.end)
        return out

    def to_nfa(self) -> NFA:
        nfa = NFA(initial=self.start)
        for src, symbol, dst in self.transitions:
            nfa.add_transition(src, symbol, dst)
        nfa.add_final(self.end)
        return nfa


def compile_regex(pattern: str, alphabet: frozenset[str] | set[str] = frozenset()) -> NFA:
    """Compile a regular path expression to an NFA.

    >>> nfa = compile_regex("book.(author|editor).name?")
    >>> nfa.accepts(["book", "author", "name"])
    True
    >>> nfa.accepts(["book", "editor"])
    True
    """
    tokens = tokenize(pattern)
    frag = _Parser(tokens, frozenset(alphabet)).parse()
    return frag.to_nfa()
