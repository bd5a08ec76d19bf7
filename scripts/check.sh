#!/usr/bin/env bash
# Full local gate: release build, every test in the workspace, the
# sift-lint static-analysis pass, a warning-free clippy pass over all
# targets, and rustfmt. The build environment has no crates.io access
# (external deps resolve to the vendored shims), hence --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline --workspace

# Static-analysis gate: the workspace must have no deny finding (the
# per-rule/per-file profile goes to stderr), and the stale-suppression
# audit keeps inline allows from outliving the findings they excuse.
cargo run -p sift-lint --release --offline -- --json --timing > target/lint.json
cargo run -p sift-lint --release --offline -- --audit-allows

cargo clippy --workspace --all-targets --offline -- -D warnings
cargo fmt --check

# Chaos determinism gate: two runs of the seeded fault-injection example
# must produce byte-identical reports (fault decisions are a pure
# function of seed + request + arrival, never of timing).
cargo build --release --offline --example chaos_crawl
./target/release/examples/chaos_crawl --seed 7 > target/chaos-a.txt
./target/release/examples/chaos_crawl --seed 7 > target/chaos-b.txt
diff target/chaos-a.txt target/chaos-b.txt \
  || { echo "chaos replay diverged between same-seed runs" >&2; exit 1; }

# Overload gate: the acceptance test pins a server, sheds a 4x burst,
# opens and re-closes the breaker, and replays the whole choreography to
# an identical report. Runs as part of the workspace pass above too; the
# explicit invocation keeps the gate loud if the test file is ever
# dropped from the workspace manifest.
cargo test -q --offline --test overload_http

# Crash-consistency gate: a seeded crawl killed at each durability
# boundary (in-process panic and out-of-process abort) must resume to
# the identical result, re-fetching at most the one in-flight response.
cargo test -q --offline --test resume_http

# Sharded-crawl gate: a coordinator plus in-process workers over real
# sockets must assemble a StudyResult bit-identical to single-process
# run_study — including when a worker is killed mid-run, its heartbeats
# go silent, and its shards reroute to the survivors.
cargo test -q --offline --test cluster_http

# Perf-trajectory gate: a reduced-scale bench smoke re-runs the study
# and derives end-to-end + per-stage timings from its trace tree. The
# emitted profile must validate as `sift-bench/1` and stay inside the
# committed baseline's tolerance band (>15% end-to-end regression, or a
# stage beyond its wider band, fails the build). The baseline is the
# newest committed BENCH_<date>.json, regenerated with the same flags.
cargo build --release --offline -p sift-bench --bins
./target/release/experiments --quick --only none --threads 1 \
  --bench-out target/bench-smoke.json > /dev/null 2> target/bench-smoke.log
baseline=$(ls BENCH_*.json | sort | tail -1)
./target/release/bench_gate target/bench-smoke.json "$baseline" \
  || { echo "bench gate failed against ${baseline}" >&2; exit 1; }

# Context-phase bit-identity gate: one traced pass of the `batch`
# benchmark workload checks seed 0's pinned result digest, that a serial
# layer-by-layer study equals the parallel one, and that replaying heavy
# hitters, per-spike `annotate` and area clustering equals
# `assemble_study`. siftbench exits non-zero when any of these differ, so
# every change to the study's global phase is held to bit-identity.
cargo run --quiet --release --offline --locked --manifest-path siftbench/Cargo.toml -- \
  --workload batch --seed 0 --seconds 1 --trace 1 > target/siftbench-batch.json \
  || { echo "siftbench batch oracles failed (see target/siftbench-batch.json)" >&2; exit 1; }

# Resume determinism gate: two same-seed runs of the crash-and-resume
# example must print byte-identical reports (the injected crash lands at
# the same fetch, recovery replays the same journal, the resumed result
# diffs clean against the uninterrupted run inside the example itself).
cargo build --release --offline --example resumable_crawl
./target/release/examples/resumable_crawl --seed 7 --crash-at mid_journal_record \
  > target/resume-a.txt 2> /dev/null
./target/release/examples/resumable_crawl --seed 7 --crash-at mid_journal_record \
  > target/resume-b.txt 2> /dev/null
diff target/resume-a.txt target/resume-b.txt \
  || { echo "resumed replay diverged between same-seed runs" >&2; exit 1; }

# Nemesis gate: the acceptance test kills and recovers the coordinator
# mid-run and partitions a worker, converging to the clean baseline; then
# two same-seed runs of the quick nemesis example must print
# byte-identical reports (stdout is a pure function of the seed — the
# schedule, the converged spikes, and the kill/restart/recovery audit;
# timing-dependent observations go to stderr, which is discarded).
cargo test -q --offline --test nemesis_http
cargo build --release --offline --example nemesis_crawl
./target/release/examples/nemesis_crawl --seed 42 --quick \
  > target/nemesis-a.txt 2> /dev/null
./target/release/examples/nemesis_crawl --seed 42 --quick \
  > target/nemesis-b.txt 2> /dev/null
diff target/nemesis-a.txt target/nemesis-b.txt \
  || { echo "nemesis replay diverged between same-seed runs" >&2; exit 1; }

# Serving gate: the daemon acceptance test crashes ingest at every
# durability boundary (in-process panic and out-of-process abort) and
# must recover to the identical spike set while the front keeps serving;
# then two same-seed runs of the online-daemon example must print
# byte-identical reports (spike tables are a pure function of the seed;
# host-timing observations like staleness go to stderr, discarded here).
cargo test -q --offline --test serve_http
cargo build --release --offline --example online_daemon
./target/release/examples/online_daemon --seed 7 \
  > target/serve-a.txt 2> /dev/null
./target/release/examples/online_daemon --seed 7 \
  > target/serve-b.txt 2> /dev/null
diff target/serve-a.txt target/serve-b.txt \
  || { echo "online daemon diverged between same-seed runs" >&2; exit 1; }

echo "all checks passed"
