#!/usr/bin/env bash
# Crash-recovery soak: replay the chaos suite across many seed families.
#
# Each round runs the full `chaos_soak` integration suite under a distinct
# CHAOS_SEED; every profile (crash/restart, partition/heal, loss burst,
# latency spike, forced relocation, mixed) generates its schedule from that
# family. A failing round prints the seed — re-exporting it reproduces the
# exact fault timeline, bit for bit — plus the tail of the merged telemetry
# timeline (chaos events interleaved with sampled invocation spans) and the
# flight-recorder incident dump (the always-on ring's newest entries,
# rendered at the moment of the violation) that the failing test dumped,
# and the script exits non-zero.
#
# Usage: scripts/soak.sh [rounds]      (default: 10)
set -uo pipefail
cd "$(dirname "$0")/.."

rounds="${1:-10}"
log="$(mktemp /tmp/odp-soak.XXXXXX.log)"
trap 'rm -f "$log"' EXIT

for i in $(seq 1 "$rounds"); do
    seed=$(( 0xA11CE + i * 104729 ))
    echo "== soak round $i/$rounds (CHAOS_SEED=$seed) =="
    if ! CHAOS_SEED="$seed" cargo test -p odp --release --test chaos_soak \
            -- --nocapture 2>&1 | tee "$log"; then
        echo ""
        echo "soak: FAILED at round $i (CHAOS_SEED=$seed)" >&2
        echo "---- event timeline tail from the failing round ----" >&2
        # The failing test printed the merged timeline and the flight
        # recorder's freeze dump between these markers; fall back to the
        # last lines of the log if it did not.
        if grep -q "=== event timeline tail" "$log"; then
            sed -n '/=== event timeline tail/,/=== end timeline/p' "$log" >&2
        else
            tail -n 40 "$log" >&2
        fi
        if grep -q "=== flight recorder dump" "$log"; then
            echo "---- flight recorder dump from the failing round ----" >&2
            sed -n '/=== flight recorder dump/,/=== end recorder/p' "$log" >&2
        fi
        exit 1
    fi
done
echo "soak: $rounds rounds clean"
