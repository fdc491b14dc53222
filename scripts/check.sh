#!/usr/bin/env bash
# Full local gate: release build, the workspace test suite (the root
# manifest's default-members span every crate), warning-free workspace
# clippy, `repro all` diffed against its committed golden output, the
# model checker in smoke mode (a bounded 50k-state exhaustive sweep of the
# session, lease, and registrar-replication protocols — see DESIGN.md
# §9/§15) with every property verified, one traced smoke experiment
# exercising the telemetry pipeline end to end (DESIGN.md §10), the
# fixed-seed E9 chaos walkthrough — every layer recovered within its
# deadline, zero stale lookups through the registrar-churn storm, and the
# whole report byte-identical across two runs (DESIGN.md §11/§15) — the
# optimizer-validation smoke gate: optimize the shipped brightness
# registration and diff its results against the unoptimized program on
# three seed-driven input sweeps (DESIGN.md §13), and the aroma-lint
# determinism gate: zero unwaived nondet-order or sim-purity findings
# across the workspace, every waiver carrying a reason (DESIGN.md §14).
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Model-check smoke gate: the 50k-state sweep must verify every protocol
# property.
mc_out=$(cargo run --release --example model_check -- --max-states 50000)
grep -q 'model_check: all protocol properties verified' <<<"$mc_out"
# The smoke sweep must include the replication model with zero violations
# (the PR 9 safety gate: at-most-one-active-primary, no-committed-lease-
# lost, no-stale-lookup over the bounded interleaving sweep).
grep -q 'replication protocol' <<<"$mc_out"

# Capture before grepping: `… | grep -q` closes the pipe at the first
# match and the producer's remaining println!s die on EPIPE — a race that
# fails the gate on output that is actually correct.
e2_out=$(cargo run --release -p lpc-bench --bin repro -- --quick --metrics e2)
grep -q '"net.mac.tx_attempts"' <<<"$e2_out"
# Byte-identity golden: `repro all` is a pure function of the code, and
# repro_full_output.txt is its committed stdout. A change that moves any
# reported figure regenerates the golden on purpose, in the same commit:
#   cargo run --release -p lpc-bench --bin repro -- all > repro_full_output.txt
diff repro_full_output.txt <(cargo run --release -p lpc-bench --bin repro -- all) \
  || { echo "FAIL: repro all diverges from repro_full_output.txt"; exit 1; }
e9_out=$(cargo run --release -p lpc-bench --bin repro -- --experiment e9 --seed 233)
grep -q 'chaos recovery: all layers within deadline' <<<"$e9_out"
# Registrar-churn gate: the replicated cluster must have served zero
# stale rows through replica rejoin, primary failover, and the flapper…
grep -q 'registrar churn: zero stale lookups' <<<"$e9_out"
# …and the storm must be a pure function of its seed: a second run of
# the same walkthrough diffs byte-for-byte against the first.
e9_out2=$(cargo run --release -p lpc-bench --bin repro -- --experiment e9 --seed 233)
diff <(printf '%s\n' "$e9_out") <(printf '%s\n' "$e9_out2") \
  || { echo "FAIL: E9 chaos walkthrough is not byte-identical across runs"; exit 1; }

# Broadcast-determinism gate: a fixed-seed multi-viewer fan-out run must
# be a pure function of its seed — `fanout-smoke` prints the run's
# digest, counters, and convergence, and two runs must agree byte-for-
# byte (the same double-run check every `--fanout` scale point applies
# internally; DESIGN.md §16).
fan_a=$(cargo run --release -p lpc-bench --bin repro -- --quick fanout-smoke)
fan_b=$(cargo run --release -p lpc-bench --bin repro -- --quick fanout-smoke)
diff <(printf '%s\n' "$fan_a") <(printf '%s\n' "$fan_b") \
  || { echo "FAIL: broadcast fan-out is not byte-identical across runs"; exit 1; }
grep -q 'converged=100' <<<"$fan_a" \
  || { echo "FAIL: fan-out smoke run left viewers unconverged"; exit 1; }

# Optimizer-validation gate: the translation-validated optimizer's output
# must agree with the unoptimized registration on every probed input, for
# three independent seeds (the example exits non-zero on any divergence).
for seed in 11 42 233; do
  opt_out=$(cargo run --release --example optimize_proxy -- "$seed")
  grep -q 'optimizer validation: OK' <<<"$opt_out" \
    || { echo "FAIL: optimizer validation diverged at seed $seed"; exit 1; }
done

# Determinism gate: every .rs file in the workspace lexes cleanly and
# carries zero unwaived nondet-order / sim-purity findings (DESIGN.md §14).
# --deny exits 1 on any blocking finding, 2 on any unparseable file.
cargo run --release -p aroma-lint -- --deny \
  || { echo "FAIL: aroma-lint found unwaived determinism hazards"; exit 1; }
# JSON smoke: the machine-readable report renders and carries the summary.
lint_json=$(cargo run --release -p aroma-lint -- --json)
grep -q '"files_scanned"' <<<"$lint_json"
