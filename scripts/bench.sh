#!/usr/bin/env sh
# Performance suite: every benchmark in benchmarks/ (marker: bench).
# Benchmarks print paper-style tables (-s) and drop machine-readable
# BENCH_*.json files at the repo root (see benchmarks/_report.py).
# Tier-1 correctness (scripts/tier1.sh) never runs these.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

# Long differential sweep: several seeds, many instances per fragment,
# machine-readable report next to the BENCH_*.json files.
for seed in 0 1 2; do
    python -m repro fuzz --seed "$seed" --per-fragment 200 \
        --deadline 300 --json-out "FUZZ_seed$seed.json"
done

# High-rate fault-injection sweep: half of all portfolio tasks get a
# fault (kill/raise/delay/corrupt).  Acceptance: zero TRUE<->FALSE
# flips against the uninjected oracle; demotions are tallied in the
# report.
for seed in 0 1 2; do
    python -m repro fuzz --seed "$seed" --per-fragment 50 \
        --deadline 300 --inject-rate 0.5 --inject-seed "$seed" \
        --json-out "FUZZ_inject_seed$seed.json"
done

# Query-layer differential sweep: the optimizer and the containment
# checker against brute-force evaluation on chased Sigma-models, three
# seeds with EGD-bearing constraint sets included.
for seed in 0 1 2; do
    python -m repro query fuzz --seed "$seed" --rounds 25 \
        --deadline 120 --json-out "FUZZ_query_seed$seed.json"
done

# The full fault-tolerance stress set (tier-1 runs these too, but
# without the marker filter they drown in the rest of the suite).
python -m pytest tests -m stress -q

python -m pytest benchmarks/ -m bench -s "$@"

# Parallel-regression gate: with cost-model dispatch, asking for more
# jobs must never cost more than it buys.  The timings are medians of
# interleaved cold-pool repetitions (the runs sit beside them in
# "repetitions_seconds").  The benchmark asserts this too; gating again
# on the emitted JSON keeps the check honest if the benchmark's
# internal assertion is ever refactored away.
python - <<'EOF'
import json

small = json.load(open("BENCH_portfolio.json"))["small_untyped"]
t = small["timings_seconds"]
j1, j2 = t["jobs_1"], t["jobs_2"]
assert j2 <= 1.1 * j1 + 0.05, (
    f"regression gate: jobs=2 ({j2:.3f}s) lost to jobs=1 ({j1:.3f}s)"
)
print(f"jobs_1={j1:.3f}s jobs_2={j2:.3f}s: parallel regression gate ok")
EOF

# Cache-regression gate: warm alpha-renamed hits must stay >= 100x
# faster than the cold solve, the seeded repeat workload must keep a
# >= 30% hit rate, and the fuzz --cache-check sweep must report zero
# cold-vs-cached verdict flips.
python - <<'EOF'
import json

bench = json.load(open("BENCH_cache.json"))
cw, rw, cc = bench["cold_vs_warm"], bench["repeat_workload"], bench["cache_check"]
assert cw["speedup"] >= 100, (
    f"cache gate: warm hit only {cw['speedup']}x faster than cold "
    f"(cold {cw['cold_ms']}ms, warm {cw['warm_hit_ms']}ms)"
)
assert rw["hit_rate"] >= 0.30, (
    f"cache gate: repeat-workload hit rate {rw['hit_rate']:.1%} < 30%"
)
assert cc["flips"] == 0, (
    f"cache gate: {cc['flips']} cold-vs-cached verdict flips"
)
print(
    f"speedup={cw['speedup']}x hit_rate={rw['hit_rate']:.0%} "
    f"flips={cc['flips']}: cache regression gate ok"
)
EOF

# Query-regression gate: the optimized union must not lose to the
# naive evaluation (planning cost included), must actually prune, and
# repeated planning must hit the shared implication cache.
python - <<'EOF'
import json

bench = json.load(open("BENCH_query.json"))
ev, pc = bench["union_eval"], bench["plan_cache"]
assert ev["speedup"] >= 1.0, (
    f"query gate: optimized union lost to plain ({ev['speedup']}x; "
    f"plain {ev['plain_ms']}ms, optimized {ev['optimized_ms']}ms)"
)
assert ev["branches_saved"] >= 1, "query gate: optimizer never pruned"
assert ev["edges_traversed_optimized"] < ev["edges_traversed_plain"], (
    "query gate: optimized plan traversed no fewer edges"
)
assert pc["hit_rate"] > 0, "query gate: planning cache hit rate is zero"
print(
    f"speedup={ev['speedup']}x branches_saved={ev['branches_saved']} "
    f"plan_hit_rate={pc['hit_rate']:.0%}: query regression gate ok"
)
EOF

# Server-regression gate: closed-loop p99 must stay under the bound
# recorded by the benchmark, and injected faults must never flip a
# verdict over the wire.
python - <<'EOF'
import json

bench = json.load(open("BENCH_server.json"))
load, inject = bench["load"], bench["inject"]
worst_p99 = max(level["p99_ms"] for level in load["levels"])
assert worst_p99 < load["p99_bound_ms"], (
    f"server gate: p99 {worst_p99}ms above {load['p99_bound_ms']}ms"
)
assert inject["faulted_runs"] > 0, "server gate: injection never fired"
assert inject["flips"] == 0, (
    f"server gate: {inject['flips']} verdict flips under injection"
)
print(
    f"p99={worst_p99}ms "
    f"faulted_runs={inject['faulted_runs']} flips={inject['flips']}: "
    "server regression gate ok"
)
EOF

# Chaos-regression gate: across the 3-seed wire-chaos sweep, the
# failover client must keep availability >= 99% at a 30% connection
# fault rate, no wire fault may flip a definite verdict, the wedged
# solve must be reclaimed within twice the watchdog grace, and every
# phase's daemon must have drained cleanly.
python - <<'EOF'
import json

bench = json.load(open("BENCH_chaos.json"))["chaos"]
bound = bench["reclaim_bound_ms"]
floor = bench["availability_floor"]
for run in bench["runs"]:
    seed = run["seed"]
    assert run["flips"] == 0, (
        f"chaos gate: seed {seed} saw {run['flips']} verdict flip(s)"
    )
    assert run["availability"] >= floor, (
        f"chaos gate: seed {seed} availability "
        f"{run['availability']:.3f} below {floor}"
    )
    assert run["reclaim_ms"] < bound, (
        f"chaos gate: seed {seed} reclaim {run['reclaim_ms']:.0f}ms "
        f"at or above bound {bound}ms"
    )
    assert run["failover_recovered"], (
        f"chaos gate: seed {seed} failover never recovered"
    )
    assert all(state == "stopped" for state in run["drains"]), (
        f"chaos gate: seed {seed} left a daemon in {run['drains']}"
    )
    assert run["pass"], f"chaos gate: seed {seed}: {run['failures']}"
worst_avail = min(run["availability"] for run in bench["runs"])
worst_reclaim = max(run["reclaim_ms"] for run in bench["runs"])
print(
    f"availability>={worst_avail:.0%} flips=0 "
    f"reclaim<={worst_reclaim:.0f}ms (bound {bound}ms): "
    "chaos regression gate ok"
)
EOF

# Kernel-growth gate: the typed-M decider's fitted growth exponent over
# the |Sigma| sweep must stay within Theorem 4.2's cubic bound, and each
# family's cache-key (canonicalization) exponent at most quadratic.
python - <<'EOF'
import json

bench = json.load(open("BENCH_kernels.json"))
bound = bench["typed_m_exponent_bound"]
canon_bound = bench["canon_exponent_bound"]
families = bench["families"]
exponents = {name: f["exponent"] for name, f in families.items()}
assert exponents["typed-M"] <= bound, (
    f"kernel gate: typed-M growth exponent {exponents['typed-M']} "
    f"above the cubic bound {bound}"
)
canon = {name: f["canon_exponent"] for name, f in families.items()}
for name, value in canon.items():
    assert value <= canon_bound, (
        f"kernel gate: {name} key exponent {value} above {canon_bound}"
    )
print(
    " ".join(f"{name}={value}" for name, value in exponents.items())
    + f" (typed-M bound {bound}); keys "
    + " ".join(f"{name}={value}" for name, value in canon.items())
    + f" (bound {canon_bound}): kernel growth gate ok"
)
EOF
