#!/usr/bin/env bash
# Perf trajectory: run the model checker's sequential states/sec sweep
# (bounded session and lease models) plus the fixed-seed E9 chaos
# recovery times, and APPEND the entry to BENCH_check.json at the
# repository root; then run the mobile-code execution-tier sweep (checked
# interpreter vs verified fast path vs translation-validated optimized
# programs, runs/sec on the brightness proxy, a padded registration, and
# a counted loop) and write BENCH_mcode.json. The JSON records
# available_parallelism for context. Pass --quick for a reduced sweep
# (20k-state / 20k-run bounds).
#
# Pass --discovery for the lease-table scaling mode: the ServiceRegistry
# is swept at 10^4, 10^5, and 10^6 live leases (register/renew
# throughput, lookup throughput, and p50/p99 lookup latency), and the
# entry is APPENDED to BENCH_disc.json.
#
# Pass --fanout for the broadcast fan-out mode: one screen server streams
# to 10/100/1k/10k viewers over a wired star (msgs per wall-clock second,
# bytes per update, allocations per update from buffer-pool misses, and
# the encodes-vs-updates ratio that proves encode-once fan-out); each
# scale point runs twice with the same seed and refuses to report unless
# the runs' digests match. The entry is APPENDED to BENCH_fanout.json.
# Run from the repository root:
#   ./scripts/bench.sh [--quick] [--discovery | --fanout]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p lpc-bench
cargo run --release -p lpc-bench --bin repro -- "$@" bench
