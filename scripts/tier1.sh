#!/usr/bin/env sh
# Tier-1 verification: the fast correctness suite (ROADMAP.md).
# Benchmarks live in benchmarks/ (marker: bench) and are NOT run here;
# use scripts/bench.sh for the performance suite.  Tier-1 only imports
# them (and runs perfbench's own unit tests), so a change that deletes
# a name they use fails here rather than at the next benchmark run.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

# Differential smoke: a fixed-seed cross-validation sweep of every
# Table 1 engine must report zero disagreements.  No --deadline, so
# the sweep is deterministic run-to-run; scripts/bench.sh runs the
# longer multi-seed sweep.
python -m repro fuzz --seed 7 --per-fragment 25

# Fault-injection smoke: the same engines under a fixed-seed fault
# plan.  Injected raises and delays may demote answers to UNKNOWN but
# must never flip TRUE<->FALSE (exit 1 if they do).  scripts/bench.sh
# runs the higher-rate sweep.
python -m repro fuzz --seed 7 --per-fragment 5 \
    --inject-rate 0.25 --inject-seed 7

# Query-layer differential smoke: fixed-seed optimizer/containment
# sweep against brute-force evaluation on chased models.  Exit 0 means
# zero disagreements; scripts/bench.sh runs the multi-seed sweep.
python -m repro query fuzz --seed 0 --rounds 5

# --jobs auto smoke: dispatch end-to-end on an undecidable cell, clean
# and under a fault plan (a raise on the chase, ordinal 0, and a delay
# on the counter-model search, ordinal 1).  The chase settles this
# instance (FALSE: a fixpoint after 3 repairs) on its retry, before the
# search runs.
# --no-cache keeps a verdict stored by an earlier run from answering
# instead.  Exit 0 means a definite answer; injected faults may only
# demote to UNKNOWN (exit 2), never error out.
sigma_file="$(mktemp)"
cache_dir="$(mktemp -d)"
trap 'rm -f "$sigma_file"; rm -rf "$cache_dir"' EXIT
printf '() => K\nK :: () => a.a.a\nK :: a.a.a => ()\na :: a => a\n' \
    > "$sigma_file"
python -m repro imply "$sigma_file" 'K :: a => ()' --jobs auto --no-cache
python -m repro imply "$sigma_file" 'K :: a => ()' --jobs auto \
    --inject raise:0,delay:1:0.01 || [ $? -eq 2 ]

# Cache smoke: the same query twice against a fresh --cache-dir.  The
# first run stores its definite answer; the second MUST report a hit
# (the grep fails the script if it re-solved instead), and the stats
# subcommand must see the stored entry.
python -m repro imply "$sigma_file" 'K :: a => ()' \
    --cache-dir "$cache_dir"
python -m repro imply "$sigma_file" 'K :: a => ()' \
    --cache-dir "$cache_dir" | grep 'cache: *hit'
python -m repro cache stats --cache-dir "$cache_dir"

# Server smoke: daemon up on a free port, one query answered over the
# wire, the repeat served from the daemon's shared cache, then SIGTERM
# while a deliberately slow request is in flight.  A clean drain means
# the in-flight solve still gets its answer (client exits 0) and the
# daemon exits 0 — never killing admitted work.
port_file="$(mktemp)"
server_cache="$(mktemp -d)"
trap 'rm -f "$sigma_file" "$port_file"; \
    rm -rf "$cache_dir" "$server_cache"; \
    kill "${server_pid:-}" 2>/dev/null || true' EXIT
python -m repro serve --port 0 --port-file "$port_file" \
    --cache-dir "$server_cache" --allow-delay &
server_pid=$!
tries=0
while [ ! -s "$port_file" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "server never bound a port"; exit 1; }
    sleep 0.1
done
server_addr="127.0.0.1:$(cat "$port_file")"
python -m repro imply "$sigma_file" 'K :: a => ()' --server "$server_addr"
python -m repro imply "$sigma_file" 'K :: a => ()' --server "$server_addr" \
    | grep 'cache: *hit'
ready_file="$port_file.ready"
python - "$server_addr" "$ready_file" <<'EOF' &
import pathlib
import sys

from repro.server import ServerClient, parse_host_port

host, port = parse_host_port(sys.argv[1])
with ServerClient(host, port, timeout=60) as client:
    assert client.health()["status"] == "ok"
    # The marker tells the shell the connection is live and the slow
    # request is about to hit the wire; SIGTERM then lands mid-flight.
    pathlib.Path(sys.argv[2]).touch()
    response = client.imply(
        ["() => K", "K :: () => a.a.a", "K :: a.a.a => ()", "a :: a => a"],
        "K :: a => ()",
        delay_ms=800,
    )
assert response["status"] == "ok", response
assert response["answer"] == "false", response
EOF
client_pid=$!
tries=0
while [ ! -e "$ready_file" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "drain client never connected"; exit 1; }
    sleep 0.1
done
sleep 0.2
kill -TERM "$server_pid"
wait "$client_pid"
wait "$server_pid"
rm -f "$ready_file"

# Chaos smoke: a fixed-seed wire-chaos sweep (fault-perpetrating TCP
# proxy between a real client and a real daemon) plus the watchdog
# reclaim and endpoint-failover phases.  Exit 0 means zero verdict
# flips, availability held, the wedged solve was reclaimed in bounded
# time, and every daemon drained cleanly; scripts/bench.sh runs the
# 3-seed sweep with the JSON gate.
python -m repro chaos --seed 7 --requests 20 --fault-rate 0.3 \
    --watchdog-grace-ms 400

# Benchmark import smokes: perfbench's unit tests, and collection of
# every benchmark module without running it.
python -m pytest perfbench -q
python -m pytest benchmarks -m bench --collect-only -q

# Doctests and examples: the usage shown in docstrings and in
# examples/*.py must keep running as the API changes.  The examples
# get a throwaway cache directory so they neither read nor fill the
# user's cache.
python -m pytest --doctest-modules src -q
examples_cache="$(mktemp -d)"
for example in examples/*.py; do
    REPRO_CACHE_DIR="$examples_cache" python "$example" > /dev/null
done
rm -rf "$examples_cache"

# Not exec: the shell must outlive pytest so the EXIT trap removes the
# temp files above.  Under set -e a failing pytest still fails the
# script.
python -m pytest -x -q "$@"
