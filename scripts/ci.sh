#!/usr/bin/env bash
# The tier-1 gate, plus lint and doc-link hygiene, the telemetry
# propagation suite, an Observatory smoke run and a repository-benchmark
# smoke run.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt (check) =="
cargo fmt --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== doc (deny warnings: no dangling intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== odp-lint (ratchet) =="
cargo run -q -p odp-lint --bin odp-lint -- --ratchet lint-ratchet.json

echo "== build (release) =="
cargo build --release

echo "== test (workspace) =="
cargo test -q

echo "== trace propagation =="
cargo test -p odp --release --test trace_propagation

echo "== observatory smoke =="
# The Observatory's in-repo consumers: remote trace/timeline/metrics
# interrogations, and odp-top scraping /metrics.
cargo run -q -p odp --release --example trace_demo
cargo run -q -p odp-bench --release --bin odp_top -- --demo --iterations 3 --plain

echo "== repository benchmark smoke =="
# Short traced runs of the benchmark's workloads: a failed correctness
# check on any answer or on the final state exits non-zero.
for workload in rpc_small ledger_local; do
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 1
done

echo "ci: clean"
