"""Finite automata over edge-label alphabets.

Substrate for two parts of the library:

* the prefix-rewriting saturation engine (``repro.rewriting``), whose
  ``post*`` images are regular languages represented as NFAs;
* regular path queries (``repro.query``), which compile small regular
  expressions over edge labels to automata and evaluate them by
  graph product.

Every language-containment question (query containment, the regular
constraints' sufficient condition) is one :meth:`NFA.subset_witness`
search, which determinizes both sides on the fly; no automaton is
ever determinized in full.
"""

from repro.automata.nfa import NFA
from repro.automata.regex import compile_regex

__all__ = ["NFA", "compile_regex"]
