#!/usr/bin/env bash
# Corrupt-segment gate for `fastnet_trace --check`: a spill file whose
# segment header claims more or fewer records than its payload holds
# must be rejected (exit 1, an error naming the file and the segment),
# not reported as valid spill data. The files are written byte by byte
# here, so the gate needs only the CLI. Wired in as the SpillCheckCorrupt
# ctest; also runnable by hand:
#
#   scripts/spill_check_corrupt.sh path/to/fastnet_trace
set -euo pipefail

trace_bin="${1:-}"
if [[ -z "$trace_bin" || ! -x "$trace_bin" ]]; then
    echo "usage: $0 path/to/fastnet_trace" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Little-endian integers (src/sim/trace_spill.hpp gives the layout).
u32() {
    printf "$(printf '\\x%02x\\x%02x\\x%02x\\x%02x' $(($1 & 255)) $(($1 >> 8 & 255)) \
        $(($1 >> 16 & 255)) $(($1 >> 24 & 255)))"
}
u64() { u32 $(($1 & 0xffffffff)); u32 $(($1 >> 32)); }

# One segment whose payload is one 58-byte record, then the stats
# trailer; the segment header claims `count` records.
write_spill() {  # path count
    {
        printf 'FNSPILL1'; u32 2; u32 0
        printf 'GESF'; u32 "$2"; u64 58
        u64 7; u64 0; u64 1; u64 0; u64 0; u64 0  # at seq lineage a b c
        u32 0; u32 0; printf '\x01\x00'            # node detail_len kind flag
        printf 'TSSF'; u32 0; u64 32
        u64 1; u64 0; u64 0; u64 1
    } > "$1"
}

write_spill "$tmp/ok.fnspill" 1
"$trace_bin" "$tmp/ok.fnspill" --check > "$tmp/ok.txt"
grep -q "valid spill data (1 file(s), 1 record(s), 1 recorded)" "$tmp/ok.txt" \
    || { echo "spill_check_corrupt: the well-formed file did not check" >&2; exit 1; }

for count in 2 0; do
    write_spill "$tmp/bad$count.fnspill" "$count"
    status=0
    "$trace_bin" "$tmp/bad$count.fnspill" --check > "$tmp/bad.txt" 2> "$tmp/bad.err" || status=$?
    if [[ $status -ne 1 ]]; then
        echo "spill_check_corrupt: count $count over a one-record payload exited $status" >&2
        cat "$tmp/bad.txt" >&2
        exit 1
    fi
    grep -q "bad$count.fnspill: segment 0: " "$tmp/bad.err" \
        || { echo "spill_check_corrupt: error does not name the segment" >&2; exit 1; }
done

echo "spill_check_corrupt: miscounted segments rejected by --check."
