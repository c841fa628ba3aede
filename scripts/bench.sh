#!/bin/sh
# bench.sh — run the ablation benchmarks and record the results as a JSON
# trajectory point.
#
# Usage: scripts/bench.sh [output-dir]
#
# Runs every BenchmarkAblation_* with -benchmem and writes
# BENCH_<timestamp>.json to the output dir (default: repo root), one object
# per benchmark with name, ns/op, B/op and allocs/op. Checked-in BENCH_*.json
# files form the performance trajectory of the measurement hot path; compare
# against the newest one before and after touching it.
#
# BENCH_TIME overrides the timestamp (for reproducible filenames in CI);
# BENCH_FLAGS appends extra `go test` flags (e.g. BENCH_FLAGS="-benchtime 5s").
#
# After writing the snapshot, the script compares the analysis and simulator
# hot-path benchmarks (AnalysisLinearity/chain-10000, Advisor, AdvisorLayered,
# PatternsLayered, and the SimEngine stress suite) against the checked-in
# BENCH_*.json trajectory and exits non-zero on a >20% ns/op regression.
# AdvisorLayered runs the advisor on serve-mixed's graph shape, where the
# ranked near-critical paths overlap heavily, so it guards the advisor staying
# linear in the graph rather than in the total length of those paths;
# PatternsLayered runs serve's patterns query (critical path, caterpillar,
# the Table 1 detectors and their ranking) on the same graph. The
# incremental-index rows (IncrementalIndex/append-query-100k and
# streaming-build-100000) guard the append-only O(delta) snapshot derivation
# that `dflrun stream` runs on (live serve sessions never take it),
# IncrementalIndex/append-query-rebuild-100k a full compaction of a
# 100k-vertex chain with nothing carried, and
# IncrementalIndex/compact-layered-8000 the compaction that every fresh query
# on a live serve session pays: a property edit on serve-mixed's graph shape,
# with the fingerprint carried. The
# ServeIngest row guards the streaming service's durable ingest pipeline
# (wire → journal → apply → ack, fsync excluded). SavedStateLoad guards the
# one-pass saved-state decoder behind `datalife -load`, and DetvetWholeRepo
# the whole-repository dflvet run, whose cost grows with the codebase.
# The baseline per row is the median over the newest three snapshots that
# contain it, not the single newest value: both sides of the comparison are
# single samples, and gating a fresh sample against one unusually lucky
# past sample produces false regressions (observed spread on
# AnalysisLinearity/chain-10000 is ~±20% run-to-run).
# BENCH_WARN_ONLY=1 downgrades the failure to a warning (used in CI, where
# shared-runner noise makes hard gating flaky).
set -eu

cd "$(dirname "$0")/.."
outdir="${1:-.}"
mkdir -p "$outdir"
stamp="${BENCH_TIME:-$(date -u +%Y%m%dT%H%M%SZ)}"
out="$outdir/BENCH_${stamp}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# shellcheck disable=SC2086  # BENCH_FLAGS is intentionally word-split
go test -run '^$' -bench 'BenchmarkAblation_' -benchmem ${BENCH_FLAGS:-} . | tee "$raw"

awk '
/^Benchmark/ {
    name = $1
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (bytes == "") bytes = "null"
    if (allocs == "") allocs = "null"
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, ns, bytes, allocs
}
BEGIN { printf "[\n" }
END   { printf "\n]\n" }
' "$raw" > "$out"

echo "wrote $out" >&2

# Regression check: compare the analysis hot-path rows against the checked-in
# trajectory (repo root, not the snapshot just written). The baseline per row
# is the median ns/op over the newest three snapshots containing that row, so
# one unusually fast (or slow) past sample cannot flip the gate by itself.
outbase="$(basename "$out")"
recent="$(ls -1 BENCH_*.json 2>/dev/null | grep -v -F "$outbase" | sort | tail -n 3)"
if [ -z "$recent" ]; then
    echo "bench.sh: no baseline BENCH_*.json; skipping regression check" >&2
    exit 0
fi

# ns_for FILE NAME — print NAME's ns_per_op, tolerating the machine-dependent
# -GOMAXPROCS suffix go test appends to benchmark names.
ns_for() {
    grep -E "\"name\": \"BenchmarkAblation_$2(-[0-9]+)?\"" "$1" |
        sed -n 's/.*"ns_per_op": \([0-9.e+]*\),.*/\1/p' | head -n 1
}

# median_ns NAME — median ns/op for NAME over the recent snapshots that have
# it (lower-middle element for even counts); empty if no snapshot has it.
median_ns() {
    vals=""
    for f in $recent; do
        v="$(ns_for "$f" "$1")"
        [ -n "$v" ] && vals="$vals$v
"
    done
    [ -z "$vals" ] && return 0
    printf '%s' "$vals" | sort -n | awk '
        { a[NR] = $1 }
        END { if (NR) print a[int((NR + 1) / 2)] }
    '
}

status=0
for name in 'AnalysisLinearity/chain-10000' 'Advisor' 'AdvisorLayered' 'PatternsLayered' \
    'SimEngine/chain-100k' 'SimEngine/chain-100k-linked' \
    'SimEngine/fan-in-100k' 'SimEngine/faulty-sweep' \
    'IncrementalIndex/append-query-100k' 'IncrementalIndex/append-query-rebuild-100k' \
    'IncrementalIndex/compact-layered-8000' 'IncrementalIndex/streaming-build-100000' \
    'ServeIngest' 'SavedStateLoad' 'DetvetWholeRepo'; do
    old="$(median_ns "$name")"
    new="$(ns_for "$out" "$name")"
    if [ -z "$old" ] || [ -z "$new" ]; then
        echo "bench.sh: $name missing from baselines or $out; skipping" >&2
        continue
    fi
    if awk -v o="$old" -v n="$new" 'BEGIN { exit !(n > o * 1.2) }'; then
        echo "bench.sh: REGRESSION: $name ${old} -> ${new} ns/op (>20% vs median of recent snapshots)" >&2
        status=1
    else
        echo "bench.sh: ok: $name ${old} -> ${new} ns/op (median baseline ${old})" >&2
    fi
done
if [ "$status" -ne 0 ] && [ "${BENCH_WARN_ONLY:-0}" = "1" ]; then
    echo "bench.sh: BENCH_WARN_ONLY=1 — reporting regression as a warning only" >&2
    status=0
fi
exit "$status"
