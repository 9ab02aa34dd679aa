"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import wire  # noqa: E402

from repro.reasoning import Context, ProblemClass, classify  # noqa: E402


# -- the >=10-beyond tail rule ----------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    tail = stats.tail(values)
    assert tail == {"value": 90.0, "percentile": 90.0, "samples": 100}
    assert sum(v > tail["value"] for v in values) == 10


def test_tail_percentile_follows_sample_count():
    tail = stats.tail([float(v) for v in range(1, 1001)])
    assert tail["value"] == 990.0
    assert tail["percentile"] == 99.0


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == {"value": 3.0, "percentile": 100.0, "samples": 3}


def test_failed_ops_count_as_infinitely_slow():
    values = [1.0] * 20 + [math.inf] * 11
    assert stats.tail(values)["value"] == math.inf
    assert stats.median([1.0, math.inf, math.inf]) == math.inf
    assert stats.finite(math.inf) == 1e300


# -- host-speed scaling -------------------------------------------------------


def test_factor_is_nominal_over_median_of_nearest_samples():
    host = hostspeed.HostSpeed(nominal=1.0)
    for t in range(10):
        host.add(float(t), 1.0)  # fast phase
    for t in range(10, 20):
        host.add(float(t), 2.0)  # the loop runs at half speed
    assert host.factor(3.5) == 1.0
    assert host.factor(15.5) == 0.5
    # An op between phases takes the median of the 5 nearest samples.
    assert host.factor(9.6) == 0.5
    assert host.factor(9.4) == 1.0


def test_factor_ignores_a_single_outlier_and_defaults_to_one():
    assert hostspeed.HostSpeed(nominal=1.0).factor(0.0) == 1.0
    host = hostspeed.HostSpeed(nominal=1.0)
    for t, seconds in enumerate([1.0, 1.0, 9.0, 1.0, 1.0]):
        host.add(float(t), seconds)
    assert host.factor(2.0) == 1.0


def test_calibration_loop_is_timed_and_restores_gc():
    import gc

    assert gc.isenabled()
    assert hostspeed.loop_seconds() > 0
    assert gc.isenabled()


def test_extend_merges_samples_in_time_order():
    host = hostspeed.HostSpeed(nominal=1.0, nearest=3)
    host.add(2.0, 4.0)
    host.extend([3.0, 0.0, 1.0], [4.0, 1.0, 1.0])
    assert host.times == [0.0, 1.0, 2.0, 3.0]
    assert host.samples == [1.0, 1.0, 4.0, 4.0]
    assert host.factor(0.0) == 1.0
    assert host.factor(3.0) == 0.25


def test_spinners_return_cpu_clock_samples_and_exit():
    import time

    import procs

    spinners = wire.start_spinners()
    time.sleep(0.05)
    host = wire.stop_spinners(spinners)
    assert all(spinner.returncode is not None for spinner in spinners)
    assert not procs.wait_gone([spinner.pid for spinner in spinners])
    assert host.nearest == hostspeed.SPIN_NEAREST
    assert host.samples and host.times == sorted(host.times)
    assert all(seconds > 0 for seconds in host.samples)


def test_wire_latency_and_cpu_scale_by_spinner_samples():
    n = 20
    run = wire.WireRun(
        sent=[float(i) for i in range(n)], intended=[float(i) for i in range(n)],
        done=[i + 0.01 for i in range(n)], responses=[{"status": "ok", "answer": "true"}] * n,
        daemon_cpu_s=0.2, window=(0.0, float(n)),
    )
    run.host = hostspeed.HostSpeed(nominal=1.0)
    run.host.extend([float(i) for i in range(n)], [2.0] * n)  # the host ran at half speed
    raw = wire.end_to_end(run, [False] * n, adjust=False)
    adjusted = wire.end_to_end(run, [False] * n)
    assert math.isclose(adjusted["latency_p50_ms"], raw["latency_p50_ms"] / 2)
    assert math.isclose(adjusted["latency_tail_ms"], raw["latency_tail_ms"] / 2)
    assert math.isclose(adjusted["cpu_ms_per_op"], raw["cpu_ms_per_op"] / 2)
    assert adjusted["ops_per_s"] == raw["ops_per_s"]


# -- span self time -------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        (1, 0, "solve", 0.0, 10.0, 0, None),
        (2, 1, "classify", 1.0, 3.0, 0, None),
        (3, 1, "implies_word", 4.0, 8.0, 0, None),
        (4, 3, "PrefixRewriteSystem.post_star_automaton", 5.0, 6.0, 0, None),
    ]
    assert tracing.self_times(spans) == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0}
    names = tracing.by_name(spans)
    assert names["solve"] == {"calls": 1, "self_s": 4.0, "total_s": 10.0}
    assert sum(entry["self_s"] for entry in names.values()) == 10.0
    metrics = tracing.layer_metrics(spans, names, 2)
    assert metrics["reasoning.dispatcher.self_ms_per_op"] == 3000.0  # (4 + 2) s / 2 ops
    assert metrics["rewriting.prefix.saturations_per_op"] == 0.5


def test_tracer_links_nested_calls_and_restores_originals():
    import repro.reasoning.dispatcher as dispatcher
    from repro.constraints import parse_constraint
    from repro.reasoning import ImplicationProblem

    original = dispatcher.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 7
        dispatcher.solve(ImplicationProblem([parse_constraint("a => b")], parse_constraint("a.c => b.c")))
    finally:
        tracer.uninstall()
    assert dispatcher.solve is original
    by_id = {span[0]: span for span in tracer.spans}
    names = [span[2] for span in tracer.spans]
    assert "solve" in names and "classify" in names and "implies_word" in names
    for span in tracer.spans:
        assert span[5] == 7
        if span[2] != "solve":
            assert by_id[span[1]][2] in ("solve", "implies_word")
    selfs = tracing.self_times(tracer.spans)
    (solve,) = [span for span in tracer.spans if span[2] == "solve"]
    assert math.isclose(sum(selfs.values()), solve[4] - solve[3], rel_tol=1e-9)


# -- generator determinism --------------------------------------------------------


def test_same_seed_same_digest():
    def cold(seed):
        blocks, pools = inputs.decide_cold_ops(seed)
        return inputs.digest([pools] + [op.text for block in blocks for op in block])

    semi = lambda seed: inputs.digest([op.text for op in inputs.semidecide_ops(seed)])  # noqa: E731
    assert cold(3) == cold(3) != cold(4)
    assert semi(3) == semi(3) != semi(4)
    assert inputs.wire_mix(3, 50).digest() == inputs.wire_mix(3, 50).digest() != inputs.wire_mix(4, 50).digest()
    assert wire.schedule(3, 50, 2.0) == wire.schedule(3, 50, 2.0)


def test_semidecide_ops_are_undecidable_cells_over_two_labels():
    for op in inputs.semidecide_ops(5):
        if op.kind == "M+":
            assert op.problem.context is Context.M_PLUS
            continue
        assert op.problem.context is Context.SEMISTRUCTURED
        klass = classify(op.problem.sigma, op.problem.phi)
        assert klass is (ProblemClass.GENERAL if op.kind == "P_c" else ProblemClass.PW_K)
        labels = set().union(*(c.alphabet() for c in op.problem.sigma), op.problem.phi.alphabet())
        assert len(labels) <= 2


def test_decide_cold_ops_are_decidable_and_balanced():
    blocks, _pools = inputs.decide_cold_ops(2)
    for block in blocks:
        kinds = [op.kind for op in block]
        assert all(kinds.count(kind) == inputs.COLD_PER_KIND for kind in inputs.COLD_KINDS)
    for op in blocks[0]:
        klass = classify(op.problem.sigma, op.problem.phi)
        if op.kind == "local-extent":
            assert klass is ProblemClass.LOCAL_EXTENT
        elif op.kind == "P_w":
            assert klass is ProblemClass.WORD
        else:
            assert op.problem.context is Context.M


def test_schedule_spans_the_run():
    offsets = wire.schedule(1, 200, 4.0)
    assert all(a < b for a, b in zip(offsets, offsets[1:]))
    assert math.isclose(offsets[-1], 4.0)
