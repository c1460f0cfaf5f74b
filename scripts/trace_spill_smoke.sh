#!/usr/bin/env bash
# Spill determinism gate: run the traced chaos scenario through the
# parallel kernel with the trace spilling to disk, across a
# (shards x threads) grid, and require
#   1. the streamed spill exports to be byte-identical to the in-memory
#      merged exports (the binary asserts this in-process per cell), and
#   2. every grid cell's exports to be byte-identical to the
#      single-shard single-thread run (spill must not leak partition
#      artifacts into what the run looks like), and
#   3. fastnet_trace to answer --check/--summary/--calls/--violations/
#      --chain directly over the spill directory, plus recover a
#      crash-truncated spill file, and
#   4. every fastnet_trace query mode to print the same and exit the same
#      over one cell's canonical export and over its spill directory,
#      also with a stale or corrupt lineage.fnlidx index file planted in
#      that directory: no query may read one.
# Wired in as the TraceSpillSmoke ctest; also runnable by hand:
#
#   scripts/trace_spill_smoke.sh [path/to/trace_spill_smoke] [path/to/fastnet_trace]
set -euo pipefail

smoke_bin="${1:-}"
trace_bin="${2:-}"
if [[ -z "$smoke_bin" || -z "$trace_bin" ]]; then
    cd "$(dirname "$0")/.."
    for candidate in build/tests/fastnet_trace_spill_smoke build-*/tests/fastnet_trace_spill_smoke; do
        if [[ -x "$candidate" ]]; then
            smoke_bin="${smoke_bin:-$candidate}"
            break
        fi
    done
    for candidate in build/tools/fastnet_trace build-*/tools/fastnet_trace; do
        if [[ -x "$candidate" ]]; then
            trace_bin="${trace_bin:-$candidate}"
            break
        fi
    done
fi
if [[ -z "$smoke_bin" || ! -x "$smoke_bin" || -z "$trace_bin" || ! -x "$trace_bin" ]]; then
    echo "trace_spill_smoke: binaries not found (build first, or pass their paths)" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for shards in 1 2 4 7; do
    for threads in 1 2 0; do   # 0 = min(shards, hardware_concurrency)
        "$smoke_bin" --shards "$shards" --threads "$threads" \
            --dir "$tmp/s${shards}_t${threads}"
    done
done

# Exports must not depend on the partition or the worker count.
for suffix in canonical.json chrome.json metrics.json; do
    for shards in 1 2 4 7; do
        for threads in 1 2 0; do
            diff -u "$tmp/s1_t1/$suffix" "$tmp/s${shards}_t${threads}/$suffix"
        done
    done
done

# fastnet_trace over the spill directory (and over a single spill file).
cell="$tmp/s4_t2"
spill="$cell/spill"
"$trace_bin" "$spill" --check
"$trace_bin" "$spill" --summary
"$trace_bin" "$spill/shard-0000.fnspill" --check

"$trace_bin" "$spill" --calls > "$tmp/calls.txt"
grep -q " call(s), " "$tmp/calls.txt" \
    || { echo "trace_spill_smoke: --calls found no calls in the spill" >&2; exit 1; }

# The chaos monitors hold on this scenario, so --violations reports none
# (and exits 0); a failed pass would exit 2.
"$trace_bin" "$spill" --violations > "$tmp/violations.txt"
grep -q "no violations recorded" "$tmp/violations.txt" \
    || { echo "trace_spill_smoke: unexpected --violations output" >&2; exit 1; }

# Causal chain: any dropped packet's chain must start with its send.
"$trace_bin" "$spill" --kind drop > "$tmp/drops.txt"
lineage=$(head -1 "$tmp/drops.txt" | sed -n 's/.* lin=\([0-9]*\).*/\1/p')
[[ -n "$lineage" ]] \
    || { echo "trace_spill_smoke: the scenario dropped no packet" >&2; exit 1; }
"$trace_bin" "$spill" --chain "$lineage" > "$tmp/chain.txt"
grep -q " send " "$tmp/chain.txt" \
    || { echo "trace_spill_smoke: chain of lineage $lineage has no send" >&2; exit 1; }

# One query, two inputs: stdout and exit status must agree between a
# canonical export and the spill directory of the same run.
same_answer() {  # export spill_dir [fastnet_trace args...]
    local export="$1" spill_dir="$2"
    shift 2
    local from_export=0 from_spill=0
    "$trace_bin" "$export" "$@" > "$tmp/from_export.txt" || from_export=$?
    "$trace_bin" "$spill_dir" "$@" > "$tmp/from_spill.txt" || from_spill=$?
    if [[ $from_export -ne $from_spill ]]; then
        echo "trace_spill_smoke: '$*' exits $from_export on the export," \
             "$from_spill on the spill" >&2
        exit 1
    fi
    diff -u "$tmp/from_export.txt" "$tmp/from_spill.txt" \
        || { echo "trace_spill_smoke: '$*' differs between export and spill" >&2; exit 1; }
}
for mode in "" "--kind drop" "--node 3 --from 100 --to 400" "--lineage $lineage" \
            "--chain $lineage" "--calls" "--violations" "--reconvergence" \
            "--critical-path --waterfall"; do
    # shellcheck disable=SC2086  # a mode is several words
    same_answer "$cell/canonical.json" "$spill" $mode
done
# --summary's first line names the input; the counts below it must agree.
"$trace_bin" "$cell/canonical.json" --summary | tail -n +2 > "$tmp/summary_export.txt"
"$trace_bin" "$spill" --summary | tail -n +2 > "$tmp/summary_spill.txt"
diff -u "$tmp/summary_export.txt" "$tmp/summary_spill.txt"

# The SLO run breaches its latency ceiling: --violations prints each
# flagged lineage's history and exits 1, the same from either input.
same_answer "$cell/slo.json" "$cell/slo_spill" --violations
grep -q "violation record(s):" "$tmp/from_spill.txt" \
    || { echo "trace_spill_smoke: the SLO run recorded no violations" >&2; exit 1; }

# A lineage.fnlidx file in the spill directory changes no answer, whether
# it maps the lineage to a parent it does not have or claims 2^60
# entries in 16 bytes.
u32() {
    printf "$(printf '\\x%02x\\x%02x\\x%02x\\x%02x' $(($1 & 255)) $(($1 >> 8 & 255)) \
        $(($1 >> 16 & 255)) $(($1 >> 24 & 255)))"
}
u64() { u32 $(($1 & 0xffffffff)); u32 $(($1 >> 32)); }
{ printf 'FNLIDX01'; u64 1; u64 "$lineage"; u64 12345; } > "$spill/lineage.fnlidx"
same_answer "$cell/canonical.json" "$spill" --chain "$lineage"
{ printf 'FNLIDX01'; u64 $((1 << 60)); } > "$spill/lineage.fnlidx"
same_answer "$cell/canonical.json" "$spill" --chain "$lineage"
rm "$spill/lineage.fnlidx"

# Crash recovery: the binary wrote a mid-segment-truncated copy; the CLI
# must read it, flag the recovery, and still answer queries.
crash="$tmp/s4_t2/crash.fnspill"
"$trace_bin" "$crash" --check > "$tmp/crash_check.txt"
grep -q "tail recovered" "$tmp/crash_check.txt" \
    || { echo "trace_spill_smoke: truncated spill not reported as recovered" >&2; exit 1; }
"$trace_bin" "$crash" --summary > /dev/null

echo "trace_spill_smoke: spill exports byte-identical across the (shards x threads) grid; CLI queries agree between export and spill; crash recovery OK."
