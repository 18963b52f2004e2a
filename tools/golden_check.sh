#!/usr/bin/env bash
# Golden-output gate for one deterministic bench or example binary: runs it, drops the
# wall-clock lines ([sweep] and [wall] carry wall time, thread counts and memory), and
# diffs what is left against the committed golden in bench/golden/.
#
# Thread counts never change results (CI diffs the race benches and the campus binaries
# across pool sizes), and every line that names one is a [wall] line. The pools are
# still pinned here so a golden run does the same work on any host.
#
# Usage: tools/golden_check.sh <binary> <golden-file>            # diff, exit 1 on change
#        tools/golden_check.sh --update <binary> <golden-file>   # rewrite the golden
# A change that moves output on purpose rewrites its goldens and says why.
set -euo pipefail

UPDATE=0
if [[ "${1:-}" == "--update" ]]; then
  UPDATE=1
  shift
fi
BIN=${1:?usage: golden_check.sh [--update] <binary> <golden-file>}
GOLDEN=${2:?usage: golden_check.sh [--update] <binary> <golden-file>}

export TBF_SWEEP_THREADS=2 TBF_SHARD_THREADS=2
unset TBF_CAMPUS_EXACT TBF_CAMPUS_FULL

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
# grep exits 1 when it filters every line; only the binary's status matters.
"$BIN" | { grep -v -E '^\[(sweep|wall)\]' || true; } > "$OUT"

if [[ "$UPDATE" == 1 ]]; then
  cp "$OUT" "$GOLDEN"
  exit 0
fi
diff -u "$GOLDEN" "$OUT"
