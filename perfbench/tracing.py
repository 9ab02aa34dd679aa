"""Spans around the program's public functions, from outside it.

:meth:`Tracer.install` replaces each traced function at every
attribute its callers look it up through: module-level functions in
every loaded ``repro`` module that bound the same object, and methods
on their class.  A span is ``(id, parent, name, start, end, op, note)``
with ``perf_counter`` times; the parent is the innermost span open on
the same thread, so siblings never overlap and a span's self time is
its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

#: Traced functions: (module, attribute).  ``layer_metrics`` names
#: the layer each one belongs to.
TARGETS = [
    ("repro.reasoning.dispatcher", "solve"),
    ("repro.reasoning.dispatcher", "classify"),
    ("repro.reasoning.canonical", "canonicalize_problem"),
    ("repro.reasoning.canonical", "rename_graph"),
    ("repro.reasoning.cache", "ImplicationCache.lookup"),
    ("repro.reasoning.cache", "ImplicationCache.store"),
    ("repro.reasoning.word", "implies_word"),
    ("repro.reasoning.typed_m", "implies_typed_m"),
    ("repro.reasoning.local_extent", "implies_local_extent"),
    ("repro.rewriting.prefix", "PrefixRewriteSystem.post_star_automaton"),
    ("repro.rewriting.prefix", "PrefixRewriteSystem.post_star_of_nfa"),
    ("repro.rewriting.prefix", "PrefixRewriteSystem.pre_star_of_nfa"),
    ("repro.reasoning.portfolio", "run_portfolio"),
    ("repro.reasoning.chase", "chase"),
    ("repro.reasoning.models", "scan_codes"),
    ("repro.reasoning.models", "scan_typed_instances"),
    ("repro.reasoning.shm", "ScanArena.create"),
    ("repro.reasoning.shm", "CancelFlag.create"),
    ("repro.constraints.parser", "parse_constraints"),
    ("repro.server.protocol", "parse_request"),
    ("repro.server.protocol", "encode"),
    ("repro.query.containment", "QueryContainmentChecker.contains"),
    ("repro.server.daemon", "ImplicationServer._solve_blocking"),
]

def _note(name: str, result):
    """A small fact about a call's result, kept on its span."""
    if name == "ImplicationCache.lookup":
        return result is not None
    if name == "encode":
        return len(result)
    return None


class Tracer:
    """Collects spans and events in memory; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.events: list[tuple] = []
        #: The op id of the calls that follow (in-process workloads).
        self.op: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    def set_thread_op(self, op: object) -> None:
        """Tag spans of the calling thread with ``op`` (None clears)."""
        self._local.op = op

    def wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                op = getattr(local, "op", None)
                tracer.spans.append(
                    (span_id, parent, name, start, end,
                     tracer.op if op is None else op, _note(name, result))
                )

        return traced

    def install(self) -> None:
        """Wrap every target whose module imports in this process."""
        for module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(attr, raw.__func__))
                else:
                    wrapped = self.wrap(attr, raw)
                self._restore.append((owner, method, raw))
                setattr(owner, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(attr, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "repro" and not loaded_name.startswith("repro."):
                    continue
                if getattr(loaded, attr, None) is original:
                    self._restore.append((loaded, attr, original))
                    setattr(loaded, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    child_total: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1]:
            child_total[span[1]] += span[4] - span[3]
    return {span[0]: (span[4] - span[3]) - child_total[span[0]] for span in spans}


def by_name(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, self seconds, total seconds."""
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span in spans:
        entry = out[span[2]]
        entry["calls"] += 1
        entry["self_s"] += selfs[span[0]]
        entry["total_s"] += span[4] - span[3]
    return dict(out)


def share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list, names: dict, n: int) -> dict:
    """Span-derived per-layer metrics, per op of a workload of ``n`` ops."""

    def self_ms(*span_names: str) -> float:
        return sum(names.get(name, {}).get("self_s", 0.0) for name in span_names) / n * 1e3

    def calls(*span_names: str) -> float:
        return sum(names.get(name, {}).get("calls", 0) for name in span_names) / n

    by_id = {span[0]: span for span in spans}
    lookups = [span for span in spans if span[2] == "ImplicationCache.lookup"]
    hits = [span for span in lookups if span[6]]
    replay = [by_id[span[1]][4] - span[4] for span in hits if span[1] in by_id]
    return {
        "reasoning.dispatcher.self_ms_per_op": self_ms("solve", "classify"),
        "reasoning.dispatcher.classify_calls_per_op": calls("classify"),
        "reasoning.canonical.calls_per_op": calls("canonicalize_problem"),
        "reasoning.canonical.self_ms_per_op": self_ms("canonicalize_problem", "rename_graph"),
        "reasoning.cache.lookup_ms_per_op": self_ms("ImplicationCache.lookup"),
        "reasoning.cache.store_ms_per_op": self_ms("ImplicationCache.store"),
        "reasoning.cache.replay_ms_per_hit": statistics.fmean(replay) * 1e3 if replay else 0.0,
        "reasoning.cache.hit_ratio": share(len(hits), len(lookups)),
        "rewriting.prefix.self_ms_per_op": self_ms(
            "PrefixRewriteSystem.post_star_automaton",
            "PrefixRewriteSystem.post_star_of_nfa",
            "PrefixRewriteSystem.pre_star_of_nfa"),
        "rewriting.prefix.saturations_per_op": calls(
            "PrefixRewriteSystem.post_star_automaton",
            "PrefixRewriteSystem.post_star_of_nfa",
            "PrefixRewriteSystem.pre_star_of_nfa"),
        "reasoning.word.self_ms_per_op": self_ms("implies_word"),
        "reasoning.typed_m.self_ms_per_op": self_ms("implies_typed_m"),
        "reasoning.local_extent.self_ms_per_op": self_ms("implies_local_extent"),
        "reasoning.portfolio.self_ms_per_op": self_ms("run_portfolio"),
        "reasoning.models.self_ms_per_op": self_ms("scan_codes", "scan_typed_instances"),
        "reasoning.shm.setup_ms_per_op": self_ms("ScanArena.create", "CancelFlag.create"),
        "constraints.parse_ms_per_op": self_ms("parse_constraints"),
        "server.protocol.parse_ms_per_op": self_ms("parse_request"),
        "server.protocol.encode_ms_per_op": self_ms("encode"),
        "server.protocol.response_bytes_per_op": sum(
            span[6] for span in spans if span[2] == "encode") / n,
        "server.daemon.self_ms_per_op": self_ms("ImplicationServer._solve_blocking"),
        "query.containment.self_ms_per_op": self_ms("QueryContainmentChecker.contains"),
        "reasoning.chase.self_ms_per_op": self_ms("chase"),
    }
