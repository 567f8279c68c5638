#!/usr/bin/env bash
# The tier-1 gate, plus lint and doc-link hygiene and the telemetry
# propagation suite.
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

echo "ci: clean"
