"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``check GRAPH CONSTRAINTS``
    Validate a graph (JSON, the ``repro.graph.serialize`` dict format)
    against a constraint file (line syntax); exit 1 on violations.
``imply CONSTRAINTS QUERY [--context CTX] [--schema XMLDATA]
[--jobs N|auto] [--deadline S] [--inject SPEC]``
    Decide/semi-decide an implication question; prints the answer,
    method and Table 1 cell.  ``--schema`` takes an XML-Data file and
    is required for typed contexts.  On undecidable cells the chase
    and then the counter-model search run in-process; ``--deadline``
    caps the whole portfolio in wall-clock seconds, and ``--inject``
    enables deterministic fault injection (``raise:0``,
    ``delay:1:0.5``, ``rate:0.3[:seed]``; comma-separated).
    ``--jobs`` is accepted for compatibility and changes nothing but
    a warning on decidable cells.  Answers are
    served from and stored to the cross-request implication cache
    (``--cache-dir``/``$REPRO_CACHE_DIR``, default ``~/.cache/repro``;
    ``--no-cache`` bypasses it).
    With ``--server HOST:PORT[,HOST:PORT...]`` the query is sent to a
    running ``repro serve`` daemon instead of being solved in-process;
    multiple endpoints enable client-side failover.
``serve [--host H] [--port P] [--max-queue N] [--solver-threads N]``
    Run the long-lived implication server: a JSON-lines protocol
    (``imply``/``check``/``query``/``health``/``stats``/``shutdown``)
    with bounded-queue admission control, a shared implication cache
    that answers alpha-renamed repeats, a hung-solve watchdog that
    retires a solver thread still running ``--watchdog-grace-ms`` past
    its deadline (``--deadline`` gives requests without a budget one),
    and graceful SIGTERM drain (in-flight work finishes, new work is
    refused).  See :mod:`repro.server`.
``chaos [--seed N] [--requests N] [--fault-rate R] [--json-out F]``
    Seeded wire-level chaos sweep: real daemons, a real client, and a
    fault-perpetrating TCP proxy; gates on zero verdict flips,
    availability, bounded watchdog reclaim and endpoint failover.
    See :mod:`repro.server.chaos`.
``cache stats|clear [--cache-dir DIR]``
    Inspect (entries, bytes, lifetime hit/miss/store counters) or
    empty the on-disk implication cache.
``classify CONSTRAINTS QUERY``
    Report the fragment (P_w / P_w(K) / local extent / P_c) and the
    decidability verdict in every context.
``chase GRAPH CONSTRAINTS [-o OUT] [--max-steps N]``
    Repair a graph to satisfy the constraints; writes the chased graph.
``dot GRAPH``
    Print a Graphviz rendering of a graph file.
``fuzz [--seed N] [--per-fragment N] [--deadline S] [--json-out FILE]
[--inject-rate R] [--inject-seed N]``
    Differential cross-validation: random instances per fragment, every
    applicable engine, three-valued disagreement detection, and a
    delta-debugging shrinker; exit 1 on any disagreement.  With
    ``--inject-rate`` every portfolio run repeats under deterministic
    fault injection and the injected verdict is cross-checked against
    the clean one (definite answers may demote to UNKNOWN, never flip).
    ``--json-out`` is written atomically (temp file + rename), and an
    interrupted sweep still writes its partial report with
    ``"aborted": true``.  ``--cache-check`` additionally solves every
    instance cold and through a warmed implication cache and treats
    any verdict difference as a disagreement.

``query run GRAPH PATTERN``
    Evaluate a regular path query; prints answer nodes plus product
    and edge statistics.
``query contains CONSTRAINTS LEFT RIGHT [--context CTX] [--schema X]``
    Three-valued containment of two RPQs under constraints: exit 0
    with a definite true/false, 2 on UNKNOWN, 3 on error.  Exact on
    the decidable cells (EGD-free word constraints; M with a schema),
    sound-but-incomplete elsewhere.
``query optimize CONSTRAINTS BRANCH [BRANCH ...]``
    Prune subsumed/duplicate union branches and rewrite surviving
    words to their shortest provable equivalents; regex branches are
    pruned through the containment checker instead.
``query fuzz [--seed N] [--rounds N] [--json-out FILE]``
    Differential fuzz of the query layer: optimized and unoptimized
    unions must agree on every sampled Sigma-model, and containment
    verdicts are cross-checked directionally; exit 1 on any hit.

Constraint files use the line syntax (``#`` comments allowed)::

    book :: author ~> wrote
    book.author => person
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path as FilePath

from repro.checking import check_all
from repro.constraints import parse_constraint, parse_constraints
from repro.errors import ReproError
from repro.graph.serialize import from_dict, to_dict, to_dot
from repro.reasoning import (
    Context,
    FaultPlan,
    ImplicationProblem,
    SolveOptions,
    classify,
    solve,
    table1_cell,
)
from repro.reasoning.cache import ImplicationCache, resolve_cache_dir
from repro.reasoning.chase import chase


def _load_graph(path: str):
    with open(path) as handle:
        return from_dict(json.load(handle))


def _load_constraints(path: str):
    return parse_constraints(FilePath(path).read_text())


def _load_schema(path: str):
    from repro.xml import schema_from_xml_data

    return schema_from_xml_data(FilePath(path).read_text())


def _write_json_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    A reader (CI tailing the report, a dashboard) never observes a
    truncated file: either the old content or the complete new one.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=".repro-report-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cmd_check(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    constraints = _load_constraints(args.constraints)
    report = check_all(graph, constraints)
    print(report.summary())
    return 0 if report.ok else 1


def _parse_jobs(text: str) -> int | str:
    """``--jobs`` value: a positive int, or ``auto``."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"--jobs must be a positive integer or 'auto', got {text!r}"
        ) from None


def _solve_options(args: argparse.Namespace, **settings) -> SolveOptions:
    """The :class:`SolveOptions` the runtime flags of ``imply`` and
    ``serve`` ask for, plus command-specific ``settings``."""
    return SolveOptions(
        inject=FaultPlan.from_spec(args.inject) if args.inject else None,
        **settings,
    )


def _build_cache(args: argparse.Namespace) -> ImplicationCache | None:
    """The implication cache for one CLI invocation.

    Resolution: ``--no-cache`` disables it entirely; otherwise the
    on-disk store lives at ``--cache-dir``, else ``$REPRO_CACHE_DIR``,
    else ``~/.cache/repro``.
    """
    if getattr(args, "no_cache", False):
        return None
    return ImplicationCache(
        cache_dir=resolve_cache_dir(getattr(args, "cache_dir", None))
    )


def _cmd_imply_remote(args: argparse.Namespace) -> int:
    """``imply --server HOST:PORT``: route the query to a daemon.

    Constraint files are read locally but parsed server-side; the
    response carries the answer, fragment, faults and cache record
    over the wire.  The exit-code contract is preserved: 0 definite,
    2 UNKNOWN/rejected, 3 error (including overloaded after retries
    and draining).
    """
    from repro.errors import ServerUnavailable
    from repro.server import ServerClient, parse_endpoints

    endpoints = parse_endpoints(args.server)
    sigma_lines = FilePath(args.constraints).read_text().splitlines()
    budget_ms = (
        None if args.deadline is None else int(args.deadline * 1000)
    )
    schema_text = (
        FilePath(args.schema).read_text() if args.schema else None
    )
    jobs = _parse_jobs(args.jobs)
    try:
        with ServerClient(endpoints=endpoints) as client:
            response = client.imply(
                sigma_lines,
                args.query,
                context=args.context,
                schema=schema_text,
                budget_ms=budget_ms,
                jobs=None if jobs == 1 else jobs,
            )
    except ServerUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    status = response["status"]
    if status == "draining":
        print("error: server is draining", file=sys.stderr)
        return 3
    if status == "error":
        print(f"error: {response.get('error')}", file=sys.stderr)
        return 3
    if status == "rejected":
        print("answer:     unknown")
        print(f"rejected:   {response.get('reason')}")
        return 2
    print(f"answer:     {response['answer']}")
    print(f"method:     {response['method']}")
    cell = (
        f"decidable ({response['complexity']})"
        if response["decidable"]
        else "undecidable"
    )
    print(
        f"fragment:   {response['fragment']}  "
        f"[{response['context']}: {cell}]"
    )
    cache = response.get("cache")
    if cache:
        print(f"cache:      {cache['status']} {cache.get('tier', '')}")
    faults = response.get("faults") or {}
    if faults.get("events"):
        described = ", ".join(
            f"{e['kind']}@{e['engine']}" for e in faults["events"]
        )
        print(f"faults:     {described}")
    for note in response.get("notes", ()):
        print(f"note:       {note}")
    countermodel = response.get("countermodel")
    if countermodel is not None:
        hint = (
            ""
            if args.dump_countermodel
            else " (use --dump-countermodel to save)"
        )
        print(
            f"countermodel: {len(countermodel['nodes'])} nodes{hint}"
        )
        if args.dump_countermodel:
            with open(args.dump_countermodel, "w") as handle:
                json.dump(countermodel, handle, indent=2)
            print(f"  written to {args.dump_countermodel}")
    return 0 if response["answer"] in ("true", "false") else 2


def _cmd_imply(args: argparse.Namespace) -> int:
    if args.server:
        return _cmd_imply_remote(args)
    sigma = _load_constraints(args.constraints)
    phi = parse_constraint(args.query)
    context = Context(args.context)
    schema = _load_schema(args.schema) if args.schema else None
    problem = ImplicationProblem(sigma, phi, context, schema=schema)
    jobs = _parse_jobs(args.jobs)
    options = _solve_options(args, allow_semidecision=not args.strict)
    cache = _build_cache(args)
    try:
        result = solve(
            problem, options, jobs=jobs, deadline=args.deadline, cache=cache
        )
    finally:
        if cache is not None:
            cache.flush_counters()
    if result.decidable:
        # Telling the user beats silently ignoring their flags.
        # ``auto`` stays quiet: it delegates the choice rather than
        # demanding parallelism.  (On undecidable cells ``--jobs`` is
        # ignored too, quietly: the portfolio runs in-process.)
        if jobs != "auto" and jobs != 1:
            print(
                "warning: --jobs ignored (decidable cell runs the "
                "complete decider in-process)",
                file=sys.stderr,
            )
        if args.deadline is not None and context is not Context.SEMISTRUCTURED:
            print(
                "warning: --deadline ignored (the cubic M decider "
                "always terminates)",
                file=sys.stderr,
            )
    print(f"answer:     {result.answer.value}")
    print(f"method:     {result.method}")
    status = (
        f"decidable ({result.complexity})" if result.decidable else "undecidable"
    )
    print(
        f"fragment:   {result.problem_class.value}  [{context.value}: {status}]"
    )
    if result.cache is not None:
        print(f"cache:      {result.cache.describe()}")
    for engine in result.stats:
        print(f"engine:     {engine.describe()}")
    if not result.faults.clean:
        print(f"faults:     {result.faults.describe()}")
    for note in result.notes:
        print(f"note:       {note}")
    if result.proof is not None:
        print("proof (I_r):")
        print(result.proof.describe())
    if result.countermodel is not None:
        hint = "" if args.dump_countermodel else (
            " (use --dump-countermodel to save)"
        )
        print(
            f"countermodel: {result.countermodel.node_count()} nodes{hint}"
        )
        if args.dump_countermodel:
            with open(args.dump_countermodel, "w") as handle:
                json.dump(to_dict(result.countermodel), handle, indent=2)
            print(f"  written to {args.dump_countermodel}")
    return 0 if result.answer.is_definite else 2


def _cmd_classify(args: argparse.Namespace) -> int:
    sigma = _load_constraints(args.constraints)
    phi = parse_constraint(args.query)
    klass = classify(sigma, phi)
    print(f"fragment: {klass.value}")
    for context in Context:
        decidable, complexity = table1_cell(klass, context)
        status = f"decidable ({complexity})" if decidable else "undecidable"
        print(f"  {context.value:15} {status}")
    return 0


def _cmd_chase(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    constraints = _load_constraints(args.constraints)
    outcome = chase(graph, constraints, max_steps=args.max_steps)
    print(
        f"chase: {outcome.steps} step(s), {outcome.merges} merge(s), "
        f"fixpoint={outcome.fixpoint}"
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(to_dict(outcome.graph), handle, indent=2)
        print(f"written to {args.output}")
    return 0 if outcome.fixpoint else 1


def _cmd_dot(args: argparse.Namespace) -> int:
    print(to_dot(_load_graph(args.graph)))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ImplicationCache(cache_dir=resolve_cache_dir(args.cache_dir))
    assert cache.disk is not None
    if args.action == "stats":
        disk = cache.stats()["disk"]
        counters = disk["lifetime_counters"]
        print(f"directory:  {disk['directory']}")
        print(f"version:    {disk['version']}")
        print(f"entries:    {disk['entries']}")
        print(f"bytes:      {disk['bytes']}")
        print(f"hits:       {counters['hits']}")
        print(f"misses:     {counters['misses']}")
        print(f"stores:     {counters['stores']}")
        return 0
    removed = cache.clear()
    noun = "entry" if removed == 1 else "entries"
    print(f"cleared {removed} {noun} from {cache.disk.root}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import ImplicationServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        solver_threads=args.solver_threads,
        solve=_solve_options(args),
        jobs=_parse_jobs(args.jobs),
        default_budget_ms=(
            None if args.deadline is None else int(args.deadline * 1000)
        ),
        cache=_build_cache(args),
        allow_delay=args.allow_delay,
        port_file=args.port_file,
        watchdog_grace_ms=args.watchdog_grace_ms,
    )
    server = ImplicationServer(config)

    def announce(message: str) -> None:
        print(message, flush=True)

    try:
        return server.run(announce=announce)
    except KeyboardInterrupt:  # pragma: no cover - signal-handler gap
        return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: the seeded wire-chaos acceptance sweep.

    Runs real daemons, a real client and a fault-perpetrating TCP
    proxy (:mod:`repro.server.chaos`), scores the sweep against a
    clean in-process oracle, and gates on the service contract: no
    verdict flips, availability, bounded watchdog reclaim, endpoint
    failover, clean drains.  Exit 0 when every gate holds, 3 when any
    fails — same contract as the fuzz harness.
    """
    from repro.server.chaos import run_chaos_sweep

    report = run_chaos_sweep(
        seed=args.seed,
        requests=args.requests,
        fault_rate=args.fault_rate,
        watchdog_grace_ms=args.watchdog_grace_ms,
    )
    wire = report["wire"]
    print(
        f"wire:     {args.requests} requests at fault rate "
        f"{args.fault_rate} (seed {args.seed}): "
        f"{wire['ok_match']} ok, {wire['demoted']} demoted, "
        f"{wire['flips']} flipped, {wire['unavailable']} unavailable"
    )
    print(
        f"          availability {wire['availability']:.2%}, "
        f"p99 {wire['p99_ms']:.1f} ms, faults "
        + ", ".join(
            f"{kind}={wire['proxy'][kind]}"
            for kind in ("drop", "close", "partial", "garbage", "delay")
        )
    )
    reclaim = report["reclaim"]
    print(
        f"reclaim:  wedged solve answered "
        f"{reclaim['wedged_answer']!r} in {reclaim['wall_ms']:.0f} ms "
        f"({reclaim['reclaim_ms']:.0f} ms past budget, bound "
        f"{reclaim['bound_ms']} ms), {reclaim['threads_retired']} "
        f"thread(s) retired"
    )
    failover = report["failover"]
    print(
        f"failover: killed endpoint A ({failover['killed_state']}), "
        f"recovered on B: {failover['after_status']}/"
        f"{failover['after_answer']}"
    )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.json_out}")
    if report["pass"]:
        print("chaos: PASS")
        return 0
    for failure in report["failures"]:
        print(f"chaos: FAIL - {failure}", file=sys.stderr)
    return 3


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.diffcheck import fuzz

    sink: dict = {}
    try:
        report = fuzz(
            seed=args.seed,
            per_fragment=args.per_fragment,
            deadline=args.deadline,
            fragments=args.fragment or None,
            shrink=not args.no_shrink,
            inject_rate=args.inject_rate,
            inject_seed=args.inject_seed,
            cache_check=args.cache_check,
            report_sink=sink,
        )
    except BaseException:
        # fuzz() absorbs KeyboardInterrupt itself; anything landing
        # here is a hard crash.  Salvage whatever the sweep learned.
        partial = sink.get("report")
        if partial is not None and args.json_out:
            partial.aborted = True
            _write_json_atomic(args.json_out, partial.to_json())
            print(
                f"partial report written to {args.json_out}",
                file=sys.stderr,
            )
        raise
    if args.json_out:
        _write_json_atomic(args.json_out, report.to_json())
        print(f"report written to {args.json_out}", file=sys.stderr)
    print(report.summary())
    for record in report.disagreements:
        print()
        print(
            f"DISAGREEMENT [{record.fragment} seed={record.seed} "
            f"index={record.index}] {record.kind}: "
            + " vs ".join(
                f"{e}={a}"
                for e, a in zip(record.engines, record.answers)
            )
        )
        print("  shrunk sigma:")
        for line in record.shrunk_sigma:
            print(f"    {line}")
        print(f"  shrunk phi:   {record.shrunk_phi}")
        print("  regression test:")
        for line in record.regression_test.splitlines():
            print(f"    {line}")
    if report.aborted:
        return 130
    return 0 if report.ok else 1


def _cmd_query_run(args: argparse.Namespace) -> int:
    from repro.query import evaluate_rpq

    graph = _load_graph(args.graph)
    result = evaluate_rpq(graph, args.pattern)
    for node in sorted(result.answers, key=repr):
        print(node)
    print(
        f"# {len(result.answers)} answer(s), "
        f"{result.product_states_visited} product state(s), "
        f"{result.edges_traversed} edge(s) traversed",
        file=sys.stderr,
    )
    return 0


def _query_checker(
    args: argparse.Namespace, sigma: list, cache: ImplicationCache | None
):
    """The containment checker of ``query contains``/``optimize``; its
    ``--deadline`` starts now and bounds the whole query."""
    from repro.query import QueryContainmentChecker

    return QueryContainmentChecker(
        sigma,
        context=args.context,
        schema=_load_schema(args.schema) if args.schema else None,
        cache=cache,
        jobs=_parse_jobs(args.jobs),
        deadline=args.deadline,
    )


def _cmd_query_contains(args: argparse.Namespace) -> int:
    cache = _build_cache(args)
    checker = _query_checker(args, _load_constraints(args.constraints), cache)
    try:
        result = checker.contains(args.left, args.right)
    finally:
        if cache is not None:
            cache.flush_counters()
    print(f"verdict:    {result.verdict.value}")
    print(f"method:     {result.method}")
    print(f"cell:       {'decidable' if result.decidable else 'sound-incomplete'}")
    if result.witness is not None:
        print(f"witness:    {result.witness}")
    for note in result.notes:
        print(f"note:       {note}")
    if checker.stats["solve_calls"]:
        print(
            f"dispatcher: {checker.stats['solve_calls']} solve(s), "
            f"{checker.stats['cache_hits']} cache hit(s)"
        )
    return 0 if result.verdict.is_definite else 2


def _cmd_query_optimize(args: argparse.Namespace) -> int:
    from repro.query import (
        WordQueryOptimizer,
        is_word_pattern,
        optimize_rpq_union,
    )

    sigma = _load_constraints(args.constraints)
    cache = _build_cache(args)
    try:
        if all(is_word_pattern(b) for b in args.branch):
            optimizer = WordQueryOptimizer(
                sigma,
                cache=cache,
                jobs=_parse_jobs(args.jobs),
                deadline=args.deadline,
            )
            report = optimizer.optimize_union(
                args.branch, rewrite=not args.no_rewrite
            )
            stats = optimizer.stats
        else:
            checker = _query_checker(args, sigma, cache)
            report = optimize_rpq_union(args.branch, checker)
            stats = checker.stats
    finally:
        if cache is not None:
            cache.flush_counters()
    print(f"original:   {' | '.join(str(b) for b in report.original)}")
    print(f"optimized:  {' | '.join(str(b) for b in report.optimized)}")
    print(f"saved:      {report.branches_saved} branch(es)")
    for dropped, absorber in report.pruned:
        kind = "duplicate" if str(dropped) == str(absorber) else "subsumed"
        print(f"pruned:     {dropped} ({kind}, absorbed by {absorber})")
    for source, target in getattr(report, "rewrites", ()):
        print(f"rewritten:  {source} -> {target}")
    for note in report.notes:
        print(f"note:       {note}")
    if stats["solve_calls"]:
        print(
            f"dispatcher: {stats['solve_calls']} solve(s), "
            f"{stats['cache_hits']} cache hit(s)"
        )
    return 0


def _cmd_query_fuzz(args: argparse.Namespace) -> int:
    from repro.diffcheck import fuzz_queries

    report = fuzz_queries(
        seed=args.seed,
        rounds=args.rounds,
        deadline=args.deadline,
        shrink=not args.no_shrink,
    )
    if args.json_out:
        _write_json_atomic(args.json_out, report.to_json())
        print(f"report written to {args.json_out}", file=sys.stderr)
    print(report.summary())
    for record in report.disagreements:
        print()
        print(
            f"DISAGREEMENT [seed={record.seed} index={record.index}] "
            f"{record.kind}: {record.detail}"
        )
        print("  shrunk sigma:")
        for line in record.shrunk_sigma:
            print(f"    {line}")
        print(f"  shrunk query: {record.shrunk_query}")
        print("  regression test:")
        for line in record.regression_test.splitlines():
            print(f"    {line}")
    if report.aborted:
        return 130
    return 0 if report.ok else 1


_QUERY_DEADLINE_HELP = "wall-clock budget for the whole query"


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    """``--context`` and ``--schema``: where an implication is asked."""
    p.add_argument(
        "--context",
        choices=[c.value for c in Context],
        default=Context.SEMISTRUCTURED.value,
    )
    p.add_argument("--schema", help="XML-Data schema file (typed contexts)")


def _add_solve_flags(
    p: argparse.ArgumentParser, jobs: str, deadline_help: str
) -> None:
    """The per-call solve flags every solving command shares:
    ``--jobs`` (default ``jobs``), ``--deadline`` and the cache."""
    p.add_argument(
        "--jobs",
        default=jobs,
        metavar="N|auto",
        help="accepted for compatibility (a positive integer or "
        "'auto'); every solve runs in-process",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=deadline_help,
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the cross-request implication cache entirely",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="on-disk cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )


def _add_runtime_flags(p: argparse.ArgumentParser) -> None:
    """``--inject``, the runtime flag :func:`_solve_options` reads; its
    default is :class:`SolveOptions`'s."""
    p.add_argument(
        "--inject",
        metavar="SPEC",
        help="deterministic fault injection for every solve: raise:ORD, "
        "delay:ORD:SECONDS, rate:R[:SEED] (ordinal 0 is the chase, 1 "
        "the counter-model search; comma-separated; testing "
        "instrument; disables cache lookups)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Path/type constraint reasoning (Buneman-Fan-Weinstein, "
        "PODS 1999 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a graph against constraints")
    p.add_argument("graph")
    p.add_argument("constraints")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("imply", help="decide an implication question")
    p.add_argument("constraints")
    p.add_argument("query")
    _add_problem_flags(p)
    p.add_argument(
        "--strict",
        action="store_true",
        help="refuse semi-decision on undecidable cells",
    )
    p.add_argument("--dump-countermodel", metavar="FILE")
    _add_solve_flags(
        p,
        jobs="1",
        deadline_help="wall-clock budget shared by all portfolio engines",
    )
    _add_runtime_flags(p)
    p.add_argument(
        "--server",
        metavar="HOST:PORT[,HOST:PORT...]",
        help="send the query to a running `repro serve` daemon "
        "instead of solving locally; a comma-separated list enables "
        "client-side failover across replicas",
    )
    p.set_defaults(func=_cmd_imply)

    p = sub.add_parser(
        "serve",
        help="run the implication server daemon (JSON-lines protocol)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8747,
        help="TCP port (0 = pick a free one; see --port-file)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="bounded admission queue size; beyond it requests are "
        "shed with an overloaded response",
    )
    p.add_argument(
        "--solver-threads",
        type=int,
        default=2,
        metavar="N",
        help="concurrent solves, one solver thread each",
    )
    _add_solve_flags(
        p,
        jobs="auto",
        deadline_help="default per-request budget when the client sends none",
    )
    _add_runtime_flags(p)
    p.add_argument(
        "--port-file",
        metavar="FILE",
        help="write the bound port here after startup (atomically)",
    )
    p.add_argument(
        "--allow-delay",
        action="store_true",
        help="honor the delay_ms and wedge request fields (testing "
        "instruments for queue/drain/watchdog behavior)",
    )
    p.add_argument(
        "--watchdog-grace-ms",
        type=int,
        default=5000,
        metavar="MS",
        help="grace past a solve's deadline before the watchdog "
        "retires its solver thread and answers unknown (0 disables "
        "the watchdog; only solves with a deadline are watched)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "chaos",
        help="seeded wire-chaos sweep against a live daemon "
        "(acceptance harness for the service layer)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="PRNG seed for the fault plan and request sequence",
    )
    p.add_argument(
        "--requests",
        type=int,
        default=40,
        metavar="N",
        help="solve requests in the wire phase",
    )
    p.add_argument(
        "--fault-rate",
        type=float,
        default=0.3,
        metavar="R",
        help="fraction of proxied connections that suffer a fault",
    )
    p.add_argument(
        "--watchdog-grace-ms",
        type=int,
        default=500,
        metavar="MS",
        help="watchdog grace used by the sweep's daemons",
    )
    p.add_argument(
        "--json-out",
        metavar="FILE",
        help="write the full JSON report here",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "cache",
        help="inspect or clear the cross-request implication cache",
    )
    p.add_argument(
        "action",
        choices=("stats", "clear"),
        help="stats: entries/bytes and lifetime hit/miss/store "
        "counters; clear: remove every stored entry",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="on-disk cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("classify", help="fragment + Table 1 verdicts")
    p.add_argument("constraints")
    p.add_argument("query")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("chase", help="repair a graph to satisfy constraints")
    p.add_argument("graph")
    p.add_argument("constraints")
    p.add_argument("-o", "--output")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.set_defaults(func=_cmd_chase)

    p = sub.add_parser("dot", help="render a graph file as Graphviz DOT")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser(
        "fuzz",
        help="differential cross-validation of all Table 1 engines",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--per-fragment",
        type=int,
        default=25,
        metavar="N",
        help="instances per fragment generator",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole sweep",
    )
    p.add_argument(
        "--fragment",
        action="append",
        metavar="NAME",
        help="restrict to one generator (repeatable); default: all",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw disagreements without delta-debugging them",
    )
    p.add_argument(
        "--json-out",
        metavar="FILE",
        help="write the machine-readable report here (atomically; a "
        "partial report with aborted=true survives interruption)",
    )
    p.add_argument(
        "--inject-rate",
        type=float,
        default=0.0,
        metavar="R",
        help="re-run every portfolio engine under injected faults at "
        "this rate and cross-check against the clean verdict",
    )
    p.add_argument(
        "--inject-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the deterministic injection plans",
    )
    p.add_argument(
        "--cache-check",
        action="store_true",
        help="solve every instance cold and again through a warmed "
        "implication cache and fail on any verdict difference",
    )
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "query",
        help="regular path queries: evaluate, contain, optimize, fuzz",
    )
    qsub = p.add_subparsers(dest="query_command", required=True)

    q = qsub.add_parser("run", help="evaluate an RPQ against a graph file")
    q.add_argument("graph")
    q.add_argument("pattern")
    q.set_defaults(func=_cmd_query_run)

    q = qsub.add_parser(
        "contains",
        help="three-valued RPQ containment under constraints "
        "(exit 0 definite, 2 unknown, 3 error)",
    )
    q.add_argument("constraints")
    q.add_argument("left")
    q.add_argument("right")
    _add_problem_flags(q)
    _add_solve_flags(q, jobs="auto", deadline_help=_QUERY_DEADLINE_HELP)
    q.set_defaults(func=_cmd_query_contains)

    q = qsub.add_parser(
        "optimize",
        help="prune and rewrite a union query under constraints "
        "(word unions use the dispatcher-backed word optimizer; "
        "regex branches route through the containment checker)",
    )
    q.add_argument("constraints")
    q.add_argument("branch", nargs="+", help="union branches")
    _add_problem_flags(q)
    q.add_argument(
        "--no-rewrite",
        action="store_true",
        help="prune subsumed branches only, keep surviving words as-is",
    )
    _add_solve_flags(q, jobs="auto", deadline_help=_QUERY_DEADLINE_HELP)
    q.set_defaults(func=_cmd_query_optimize)

    q = qsub.add_parser(
        "fuzz",
        help="differential fuzz of the query layer: optimized vs "
        "unoptimized answers on Sigma-models, containment verdicts "
        "vs brute-force inclusion (exit 0 clean, 1 disagreement)",
    )
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--rounds", type=int, default=25, metavar="N")
    q.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS"
    )
    q.add_argument("--no-shrink", action="store_true")
    q.add_argument("--json-out", metavar="FILE")
    q.set_defaults(func=_cmd_query_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
