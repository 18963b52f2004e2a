#!/usr/bin/env bash
# Golden-output gate for one deterministic bench or example binary: runs it, drops the
# wall-clock lines ([sweep] and [wall] carry wall time, thread counts and memory), and
# diffs what is left against the committed golden in bench/golden/.
#
# The thread pools are pinned to 2, so a golden run does the same work on any host.
# Thread counts never change results, and every line that names one is a [wall] line.
# A binary whose output must hold that for a pool is given the pool's variable
# (TBF_SWEEP_THREADS or TBF_SHARD_THREADS) and counts: it is run once per count and
# every run is diffed against the golden. A binary that exits non-zero fails the gate.
#
# Usage: tools/golden_check.sh <binary> <golden-file> [<VAR> <count>...]
#        tools/golden_check.sh --update <binary> <golden-file> [<VAR> <count>...]
#   --update rewrites the golden from the first run and diffs the others against it.
# A change that moves output on purpose rewrites its goldens and says why.
set -euo pipefail

UPDATE=0
if [[ "${1:-}" == "--update" ]]; then
  UPDATE=1
  shift
fi
USAGE="usage: golden_check.sh [--update] <binary> <golden-file> [<VAR> <count>...]"
BIN=${1:?$USAGE}
GOLDEN=${2:?$USAGE}
shift 2
VAR=TBF_SWEEP_THREADS
COUNTS=(2)
if [[ $# -gt 0 ]]; then
  VAR=$1
  shift
  [[ $# -gt 0 ]] || { echo "$USAGE (no counts for $VAR)" >&2; exit 2; }
  COUNTS=("$@")
fi

export TBF_SWEEP_THREADS=2 TBF_SHARD_THREADS=2
unset TBF_CAMPUS_EXACT TBF_CAMPUS_FULL

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
for n in "${COUNTS[@]}"; do
  # grep exits 1 when it filters every line; only the binary's status matters.
  env "$VAR=$n" "$BIN" | { grep -v -E '^\[(sweep|wall)\]' || true; } > "$OUT"
  if [[ "$UPDATE" == 1 ]]; then
    cp "$OUT" "$GOLDEN"
    UPDATE=0
    continue
  fi
  diff -u --label "$GOLDEN" --label "output at $VAR=$n" "$GOLDEN" "$OUT"
done
