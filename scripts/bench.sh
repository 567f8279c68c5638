#!/usr/bin/env bash
# Micro-benchmark gate: paired, interleaved A/B runs of the tracked
# Criterion benches, this working tree against a base revision.
#
# The base revision (default HEAD) is extracted with `git archive` under
# target/bench-ab/base, which builds into its own target dir (kept while
# the revision stays the same, so reruns do not rebuild). Both sides then
# run the tracked bench targets for 10 pairs, alternating which side goes
# first, so the drift of a shared machine (±20% run to run on a 2-core
# box) lands on both sides alike, and every pass starts after the same
# idle cooldown, so neither side inherits the other's heat. A baseline
# frozen in a file cannot carry a 10% gate on such a box; a base measured
# alongside can.
#
# Every case the targets print as `<label> time: [<value> <unit>]` is
# gated on its medians over the runs:
#   REGRESSED   the change's median is more than 10% above the base's,
#               and the gap is wider than the base's interquartile range;
#   unresolved  not regressed, but the base's own interquartile range is
#               wider than 10% of its median: a 10% step is not visible;
#   new, gone   only one side printed the case.
# A regressed case fails the gate unless EXPERIMENTS.md has a line
# `bench-waiver: <case>`. A target that exits non-zero (the e17 knee
# asserts) or a `[no samples]` case fails it too, after the run: the
# other targets and passes still run and the report is still written,
# so one stalled pass does not discard the others. E18 budget: on the
# change side, the median over runs of recorder_on / recorder_off must
# not exceed 1.05.
#
# Results go to target/bench-ab/report.txt; raw samples (one line per
# case, side and run) to target/bench-ab/samples.tsv.
#
# Usage: scripts/bench.sh [base-rev]
set -euo pipefail
cd "$(dirname "$0")/.."

base_rev="$(git rev-parse --verify "${1:-HEAD}^{commit}")"
pairs=10
cooldown_s=10
bench_args=()
for t in e01_access_ladder e02_marshalling e03_invocation_styles e14_scale \
    e16_telemetry e17_overload e18_observatory; do
    bench_args+=(--bench "$t")
done
out=target/bench-ab
base_tree="$out/base"
samples="$out/samples.tsv"
failures="$out/failures.txt"
report="$out/report.txt"

# A fresh extraction for a new revision: archived files carry the commit's
# mtime, which cargo would take for older than a previous base's build.
mkdir -p "$out"
if [ "$(cat "$base_tree/.bench-base" 2>/dev/null)" != "$base_rev" ]; then
    rm -rf "$base_tree"
    mkdir -p "$base_tree"
    git archive "$base_rev" | tar -x -C "$base_tree"
    echo "$base_rev" > "$base_tree/.bench-base"
fi

echo "== build: base $(git rev-parse --short "$base_rev") and working tree =="
(cd "$base_tree" && cargo bench -q --no-run -p odp-bench "${bench_args[@]}")
cargo bench -q --no-run -p odp-bench "${bench_args[@]}"

# run_side <side> <run>: one pass of every tracked target, samples in ns.
run_side() {
    local dir=. log="$out/$1.$2.log"
    [ "$1" = base ] && dir="$base_tree"
    sleep "$cooldown_s"
    if ! (cd "$dir" && cargo bench -q --no-fail-fast -p odp-bench "${bench_args[@]}") > "$log" 2>&1; then
        tail -n 20 "$log"
        echo "bench: FAIL — a $1 target exited non-zero in run $2 (log: $log)" | tee -a "$failures"
    fi
    awk -v side="$1" -v run="$2" '$2 == "time:" {
        unit = $4; sub(/\]$/, "", unit)
        scale = unit == "ns" ? 1 : unit == "µs" ? 1e3 : unit == "ms" ? 1e6 : unit == "s" ? 1e9 : 0
        if (scale == 0) { print "bench: FAIL — " $1 " printed " $3 " " $4 > "/dev/stderr"; bad = 1; next }
        printf "%s\t%s\t%s\t%.1f\n", $1, side, run, substr($3, 2) * scale
    } END { exit bad }' "$log" >> "$samples"
}

: > "$samples"
: > "$failures"
for ((i = 0; i < pairs; i++)); do
    echo "== pair $((i + 1))/$pairs =="
    if ((i % 2 == 0)); then run_side base "$i"; run_side change "$i"
    else run_side change "$i"; run_side base "$i"; fi
done

sort -t$'\t' -k1,1 -k2,2 -k4,4g "$samples" | awk -F'\t' -v pairs="$pairs" '
    FILENAME == "EXPERIMENTS.md" {
        if (split($0, w, "bench-waiver:") > 1) { c = w[2]; gsub(/[` ]/, "", c); waived[c] = 1 }
        next
    }
    function quantile(p,   h, lo) {
        h = (n - 1) * p; lo = int(h)
        return lo + 1 < n ? s[lo] + (s[lo + 1] - s[lo]) * (h - lo) : s[lo]
    }
    function close_group() {
        if (n == 0) return
        med[key] = quantile(0.5); iqr[key] = quantile(0.75) - quantile(0.25)
        cases[gcase] = 1; n = 0
    }
    {
        if ($1 SUBSEP $2 != key) { close_group(); key = $1 SUBSEP $2; gcase = $1 }
        s[n++] = $4
        if ($2 == "change" && $1 ~ /^e18_observatory\/remote_sampled_recorder_o(n|ff)$/) e18[$3, $1 ~ /_on$/] = $4
    }
    END {
        close_group()
        printf "%-58s %12s %10s %12s %8s  %s\n", "case", "base_ns", "base_iqr", "change_ns", "delta", "verdict"
        for (c in cases) {
            # Test membership before reading: reading med[c, side] creates it.
            has_base = (c, "base") in med; has_change = (c, "change") in med
            b = med[c, "base"]; x = med[c, "change"]; q = iqr[c, "base"]
            if (!has_base) verdict = "new"
            else if (!has_change) verdict = "gone"
            else {
                gated++
                if (x - b > 0.10 * b && x - b > q) {
                    if (c in waived) { verdict = "waived"; waivers++ } else { verdict = "REGRESSED"; regressed++ }
                } else if (q > 0.10 * b) { verdict = "unresolved"; unresolved++ }
                else verdict = "ok"
            }
            delta = b > 0 && x > 0 ? sprintf("%+.1f%%", 100 * (x - b) / b) : "-"
            printf "%-58s %12.1f %10.1f %12.1f %8s  %s\n", c, b, q, x, delta, verdict | "sort"
        }
        close("sort")
        n = 0
        for (r = 0; r < pairs; r++) if ((r, 0) in e18 && (r, 1) in e18) s[n++] = e18[r, 1] / e18[r, 0]
        for (i = 1; i < n; i++) for (j = i; j > 0 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
        if (n == 0) { print "bench: FAIL — e18 recorder rungs missing"; exit 1 }
        ratio = quantile(0.5)
        printf "bench: %d cases gated: %d regressed, %d unresolved, %d waived; e18 recorder_on/off %.3f (limit 1.050)\n",
            gated, regressed, unresolved, waivers, ratio
        if (regressed > 0 || ratio > 1.05) { print "bench: FAIL"; exit 1 }
        print "bench: pass"
    }' EXPERIMENTS.md - > "$report" && status=0 || status=$?
grep -E 'REGRESSED|waived|^bench:' "$report" || true
if [ -s "$failures" ]; then
    cat "$failures"
    status=1
fi
echo "bench: report in $report (${SECONDS}s)"
exit "$status"
