#!/usr/bin/env bash
# CI gate: formatting, lints, the full test suite, and the static
# design-rule check over both shipping elaborations. Any failure —
# including a galint error-severity finding — fails the build.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test --workspace"
cargo test --workspace -q

echo "== perfbench build + tests (its own workspace, built against the repo's crates)"
# perfbench is not a workspace member, so the steps above never compile
# it; build and test it here so an API change it depends on fails CI.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench batch-heavy smoke (2 s, every served answer checked)"
# Every served answer is checked byte for byte against a single-threaded
# reference — exact RTL cycles and full trajectories included — while
# the 2 serve threads race the lazy first builds of the shared fitness
# ROMs and of the tabulated CA-RNG netlist that every bitsim64 draw
# walks. Any wrong, missing or untyped answer exits nonzero.
./perfbench/target/release/perfbench --workload batch-heavy --seconds 2 --trace 0 > /dev/null

echo "== galint --format json"
cargo run -q --release -p galint --bin galint -- --format json

echo "== galint --observability (424-site static fault report)"
cargo run -q --release -p galint --bin galint -- --observability > /dev/null

echo "== bench smoke (quick sweep + BENCH_*.json schema + throughput floor)"
# Reduced workloads: Table V at 4 generations, profile with shortened
# measurement loops. benchcheck validates the report schema and fails
# the build if the 64-lane compiled simulator drops below a (very
# conservative) gate-evaluation throughput floor.
cargo build -q --release -p ga-bench --bin table5 --bin profile --bin benchcheck
SMOKE_DIR=target/bench-smoke
mkdir -p "$SMOKE_DIR"
GA_BENCH_OUT="$SMOKE_DIR" GA_BENCH_GENS=4 ./target/release/table5 > /dev/null
GA_BENCH_OUT="$SMOKE_DIR" GA_BENCH_QUICK=1 ./target/release/profile > /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_table5.json" 'runs>=10'
# Wide-lane floors: the 256-lane simulator must beat a conservative
# absolute throughput floor AND deliver at least 2x the 64-lane rate —
# the acceptance criterion for the word-array widening.
./target/release/benchcheck "$SMOKE_DIR/BENCH_profile.json" \
    'bitsim64_gates_per_sec>=5e7' 'bitsim128_gates_per_sec>=1e8' \
    'bitsim256_gates_per_sec>=2e8' 'bitsim256_speedup_vs_64>=2'

echo "== §IV-C speedup pinned exactly (all 6 seeds)"
# The software side is the behavioral engine charging the PowerPC
# OpCounts model, the hardware side is exact RTL cycles, so the §IV-C
# figures are deterministic. Floor == ceiling at the committed
# BENCH_speedup.json values: any change to the generational loop, its
# step-cost charges or the RTL schedule fails here.
cargo build -q --release -p ga-bench --bin speedup
env -u GA_BENCH_QUICK GA_BENCH_OUT="$SMOKE_DIR" ./target/release/speedup > /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_speedup.json" \
    'seeds>=6' 'seeds<=6' 'hw_ms>=1.26633' 'hw_ms<=1.26633' \
    'sw_ms>=6.161893888888889' 'sw_ms<=6.161893888888889' \
    'speedup_uncached>=4.865946387504749' 'speedup_uncached<=4.865946387504749'

echo "== fault-injection smoke (scan + netlist campaigns, quick grid)"
# Quick grid: every 8th scan position and one injection cycle per
# netlist site. The campaign invariant — every injection classified
# exactly once (masked+detected+corrupted+hung == injected) — is pinned
# by the paired unclassified floors/ceilings; lane leaks (a fault
# escaping its 64-lane word slot) must never happen.
cargo build -q --release -p ga-bench --bin fault_campaign
GA_BENCH_OUT="$SMOKE_DIR" GA_BENCH_QUICK=1 ./target/release/fault_campaign > /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_fault.json" \
    'injected>=201' 'unclassified>=0' 'unclassified<=0' \
    'class_sum_gap<=0' 'net_lane_leaks<=0' 'scan_landed>=153'

echo "== fault-injection static cross-check (full grid, galint observability join)"
# The headline soundness gate: rerun the full 1416-injection grid,
# verify its aggregates match the committed BENCH_fault.json, and join
# every injection with galint's static observability verdict — a
# statically-unobservable site that was dynamically detected, corrupted
# or hung is an unsound static claim and fails the build. benchcheck
# additionally pins: zero unsound sites, and the statically-masked
# population is present (16 seed sites, 48 confirmed-masked injections).
GA_BENCH_OUT="$SMOKE_DIR" ./target/release/fault_campaign --xcheck > /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_fault.json" \
    'xcheck_unsound_sites<=0' 'static_unobservable_sites>=16' \
    'static_unobservable_sites<=16' 'static_masked_injections>=48'

echo "== testgen smoke (GA-evolved fault-coverage probes, strided grid)"
# The GA evolves (seed, window, polarity) probe sets against the fault
# harness; the evolved set must strictly beat a size-matched random
# baseline and — the static/dynamic contract — claim zero detections at
# galint's statically-unobservable sites. The full-grid fixture
# comparison runs in the default `cargo test` (testgen_fixture.rs);
# here the quick strided grid pins coverage, margin and soundness.
cargo build -q --release -p ga-bench --bin testgen_campaign --bin heal_campaign
GA_BENCH_OUT="$SMOKE_DIR" GA_BENCH_QUICK=1 ./target/release/testgen_campaign > /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_testgen.json" \
    'coverage>=47' 'margin_vs_baseline>=1' 'unsound_detections<=0' \
    'probes>=3' 'fixture_mismatch<=0'

echo "== healing smoke (VRC heal campaign vs the exhaustive oracle)"
# Workload::VrcHeal through every registered 16-bit backend: the GA
# must heal >=90% of oracle-healable cases in quick mode (100% on the
# committed full grid) and never "heal" an oracle-unhealable one
# (ghost_heals). The report folds in the testgen headline so one
# artifact gates both halves of the closed fault loop.
GA_BENCH_OUT="$SMOKE_DIR" GA_BENCH_QUICK=1 \
    GA_BENCH_TESTGEN_REF="$SMOKE_DIR/BENCH_testgen.json" \
    ./target/release/heal_campaign > /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_ehw.json" \
    'heal_rate>=0.9' 'ghost_heals<=0' 'cases>=48' \
    'testgen_coverage>=47' 'testgen_unsound_detections<=0'

echo "== conformance (registry-driven cross-engine matrix, quick by default)"
# Every 16-bit engine in the registry (behavioral, swga, RTL
# interpreter, bitsim64 lane) must agree generation-for-generation, and
# the 32-bit rtl32 composite must match the behavioral dual-core model.
# The drive loop enumerates ga_engine::global(), so a newly registered
# backend is enrolled automatically. The quick matrix runs here; set
# GA_CONFORMANCE_FULL=1 for all six fitness functions and longer
# generation budgets.
cargo test -q --release --test conformance

echo "== engine registry enumeration (gaserved --list-backends)"
# The serving binary must list exactly the five expected backends with
# their capabilities — a registration regression fails here, not at
# runtime. The retired wide bitsim backends must stay gone.
cargo build -q --release -p ga-serve --bin gaserved
BACKENDS="$(./target/release/gaserved --list-backends)"
echo "$BACKENDS"
[ "$(echo "$BACKENDS" | wc -l)" -eq 5 ] \
    || { echo "registry does not list exactly 5 backends"; exit 1; }
for b in behavioral rtl bitsim64 swga rtl32; do
    echo "$BACKENDS" | grep -q "^$b " \
        || { echo "backend $b missing from registry"; exit 1; }
done
for b in bitsim128 bitsim256; do
    if echo "$BACKENDS" | grep -q "^$b "; then
        echo "retired backend $b is still registered"; exit 1
    fi
done

echo "== gaserved golden fixture + BENCH_serve.json throughput floors"
# The serving layer replays the checked-in fixture (16-bit jobs on the
# narrow engines, width-32 jobs on rtl32, plus five VRC heal jobs —
# one deliberately unhealable — and five lines naming the retired
# bitsim128/bitsim256 backends, answered as typed parse errors and
# followed by their bitsim64 twins); the output must be
# byte-identical to the committed golden (results are deterministic and
# carry no timing fields). benchcheck then validates the emitted
# report, requires per-backend throughput counters for every registered
# engine, and enforces a conservative jobs/sec floor.
GA_BENCH_OUT="$SMOKE_DIR" ./target/release/gaserved \
    --input tests/fixtures/jobs16.jsonl \
    --out "$SMOKE_DIR/results16.jsonl" --threads 4
diff -u tests/fixtures/results16_golden.jsonl "$SMOKE_DIR/results16.jsonl"
./target/release/benchcheck "$SMOKE_DIR/BENCH_serve.json" \
    --require-backend-throughput 'jobs>=15' 'jobs_per_sec>=25' \
    'netlist_cache_hits>=1' 'degraded_jobs<=0'

echo "== gaserved: an oversized job line is a typed error on every backend"
# One well-formed line per backend, each asking for about 5e11 fitness
# evaluations: 4e9 generations at pop 128, solo on behavioral, swga and
# rtl, at width 32 on rtl32, and as an island job on bitsim64. Admission
# refuses any run past ga_engine::MAX_EVALUATIONS (2^21, 4x the Table IV
# Large preset's 520 320) and any island ring past 1024x that in total,
# so each line must come back as exactly one typed invalid_job line in
# wire position and gaserved must exit 0. Without the bound, the behavioral and swga lines
# abort the process on a 64 GB history allocation.
for line in \
    '{"fn":"F2","backend":"behavioral","pop":128,"gens":4000000000,"xover":10,"mut":1,"seed":7}' \
    '{"fn":"F2","backend":"swga","pop":128,"gens":4000000000,"xover":10,"mut":1,"seed":7}' \
    '{"fn":"F2","backend":"rtl","pop":128,"gens":4000000000,"xover":10,"mut":1,"seed":7}' \
    '{"fn":"F2","backend":"rtl32","width":32,"pop":128,"gens":4000000000,"xover":10,"mut":1,"seed":7}' \
    '{"fn":"F2","backend":"bitsim64","pop":128,"gens":4000000000,"xover":10,"mut":1,"seed":7,"islands":2,"epoch":4,"epochs":1000000000}'; do
    backend="$(echo "$line" | sed 's/.*"backend":"\([a-z0-9]*\)".*/\1/')"
    echo "$line" | GA_BENCH_OUT="$SMOKE_DIR" ./target/release/gaserved \
        --input /dev/stdin --out "$SMOKE_DIR/oversized.jsonl" 2> /dev/null
    test "$(wc -l < "$SMOKE_DIR/oversized.jsonl")" -eq 1
    grep -q "^{\"job\":0,\"backend\":\"$backend\",\"ok\":false,\"error\":\"invalid_job\"," \
        "$SMOKE_DIR/oversized.jsonl"
done

echo "== serve bench (200-job acceptance batch, pack-path throughput floor)"
# The pack-path + cache gate. The 200-job batch cycles the five
# registered backends, so its 40 bitsim64 jobs always plan into exactly
# 3 packs (one per parameter shape) — pinned from both sides, so a
# planner change that splits or merges packs fails here. The packed
# path must clear a conservative 12029 jobs/s floor, with zero degraded
# lanes and at least one compiled-netlist cache hit. The run is cold:
# its first pack also tabulates the CA-RNG netlist (about 0.4 ms), which
# dominates 40 tiny lanes, so measured runs give about 1.7x the floor.
cargo build -q --release -p ga-serve --bin serve_bench
GA_BENCH_OUT="$SMOKE_DIR" ./target/release/serve_bench 2> /dev/null
./target/release/benchcheck "$SMOKE_DIR/BENCH_serve.json" \
    'bitsim_pack_jobs_per_sec>=12029' 'bitsim_packs>=3' 'bitsim_packs<=3' \
    'bitsim_active_lanes>=40' 'bitsim_active_lanes<=40' \
    'netlist_cache_hits>=1' 'degraded_jobs<=0'

echo "== persistent socket front-end (listener + streamed golden + load burst)"
# Boot the real TCP listener on an ephemeral port with its stdin held
# open on a fifo (closing the fifo is the std-only drain signal).
# A raw-socket client streams the batch fixture over one connection and
# must read back byte-identical golden lines; serve_load then drives a
# quick mixed-backend burst over four connections. The drain report is
# benchcheck'd with a sustained-rate floor, a behavioral tail-latency
# ceiling, and zero degraded jobs.
cargo build -q --release -p ga-serve --bin serve_load
LISTEN_DIR="$SMOKE_DIR/listen"
mkdir -p "$LISTEN_DIR"
rm -f "$LISTEN_DIR/stdin.fifo" # a stale fifo from an aborted run blocks mkfifo
mkfifo "$LISTEN_DIR/stdin.fifo"
# Hold the fifo open read-write on fd 9 so neither end blocks; the
# server must NOT inherit fd 9 (9<&-) or it would keep its own stdin
# writable and never see the shutdown EOF.
exec 9<>"$LISTEN_DIR/stdin.fifo"
GA_BENCH_OUT="$LISTEN_DIR" ./target/release/gaserved --listen 127.0.0.1:0 --threads 4 \
    <"$LISTEN_DIR/stdin.fifo" >"$LISTEN_DIR/listen.out" 2>"$LISTEN_DIR/listen.err" 9<&- &
LISTEN_PID=$!
LISTEN_ADDR=""
for _ in $(seq 1 100); do
    LISTEN_ADDR="$(sed -n 's/^listening //p' "$LISTEN_DIR/listen.out" 2>/dev/null || true)"
    [ -n "$LISTEN_ADDR" ] && break
    sleep 0.1
done
[ -n "$LISTEN_ADDR" ] || { echo "listener never announced its address"; exit 1; }
GOLDEN_LINES="$(wc -l < tests/fixtures/results16_golden.jsonl)"
exec 3<>"/dev/tcp/127.0.0.1/${LISTEN_ADDR##*:}"
cat tests/fixtures/jobs16.jsonl >&3
head -n "$GOLDEN_LINES" <&3 > "$LISTEN_DIR/streamed.jsonl"
exec 3<&- 3>&-
diff -u tests/fixtures/results16_golden.jsonl "$LISTEN_DIR/streamed.jsonl"
GA_BENCH_QUICK=1 ./target/release/serve_load --connect "$LISTEN_ADDR"
exec 9<&- 9>&-
wait "$LISTEN_PID"
cat "$LISTEN_DIR/listen.err"
./target/release/benchcheck "$LISTEN_DIR/BENCH_serve.json" \
    --require-backend-throughput 'jobs>=4831' 'jobs_per_sec>=2000' \
    'behavioral_p99_us<=5000' 'errors<=3' 'degraded_jobs<=0'

echo "== sharded islands smoke (multi-process ring, kill + resume, checkpoint floors)"
# Three gaserved --island-worker processes driven by the serve-layer
# coordinator over localhost sockets: every epoch's checkpoint bundle
# must equal the in-process IslandsDriver's byte for byte, one worker is
# SIGKILLed mid-run (the coordinator must surface the broken shard as a
# typed error), and the run resumes from the durable checkpoint file on
# bitsim64 workers — the campaign exits nonzero on any divergence.
# benchcheck pins the proof artifacts: zero-divergence resume, full
# migration traffic, and all five barrier bundles matched.
cargo build -q --release -p ga-serve --bin islands_campaign
GA_BENCH_OUT="$SMOKE_DIR" ./target/release/islands_campaign
./target/release/benchcheck "$SMOKE_DIR/BENCH_islands.json" \
    'shards>=3' 'epochs>=3' 'migrations>=9' 'resume_count>=1' \
    'resume_exact>=1' 'trajectory_matches>=5' 'checkpoint_bytes>=300'

echo "CI OK"
