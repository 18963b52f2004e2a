#!/usr/bin/env bash
# Campaign fault-injection smoke: the CI gate for the campaign service's headline
# guarantee. Runs a ~200-job campaign twice:
#
#   1. serially in-process (the fault-free reference archive), then
#   2. distributed over a unix socket with two workers that deterministically
#      corrupt/truncate/crash/hang on ~20%+ of first executions - plus one worker
#      SIGKILLed from outside mid-campaign,
#
# and requires (a) the two archives to be byte-identical, (b) the coordinator's
# stats line to prove the faults actually happened (rejected payloads > 0), and (c)
# that line to account for every dispatch: dispatched + local_runs == completed +
# redispatched + released.
#
# Usage: tools/campaign_smoke.sh <path-to-tbf-campaign-binary> [workdir]
set -euo pipefail

BIN=${1:?usage: campaign_smoke.sh <tbf-campaign> [workdir]}
WORK=${2:-$(mktemp -d)}
JOBS=200
SEED=42
# Much longer simulated duration per job than the test default (5 simulated
# minutes vs 150 ms), so each job costs real wall time and the campaign runs for
# seconds - the mid-campaign SIGKILL below must land while jobs are in flight on
# any hardware, and the victim.log gate at the bottom fails the smoke if it did
# not.
DURATION_MS=300000
SOCK="$WORK/campaign.sock"

mkdir -p "$WORK"
echo "== campaign smoke: $JOBS jobs, workdir $WORK"

echo "== serial reference"
"$BIN" serial --jobs "$JOBS" --seed "$SEED" --duration-ms "$DURATION_MS" \
  --out "$WORK/serial.archive"

echo "== distributed with faulty workers"
"$BIN" coordinate --jobs "$JOBS" --seed "$SEED" --duration-ms "$DURATION_MS" \
  --out "$WORK/dist.archive" \
  --socket "$SOCK" --wal "$WORK/campaign.wal" --no-local-fallback \
  --heartbeat-timeout-ms 1000 --max-attempts 12 \
  | tee "$WORK/coordinate.log" &
COORD_PID=$!

# Wait for the socket to exist before starting workers (bounded).
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.05
done

# Worker 1: lies on >20% of first executions (corrupt + truncate) and crashes on
# some more; survives the whole campaign. The reconnect budget is capped so that
# if the campaign ends while the liar is mid-crash-reconnect (socket already
# unlinked), it gives up in ~3 s instead of the default ~10 s.
"$BIN" work --socket "$SOCK" --name liar \
  --fault-seed 7 --fault-corrupt 0.15 --fault-truncate 0.08 --fault-crash 0.05 \
  --heartbeat-ms 100 --max-reconnects 30 &
W1_PID=$!

# Worker 2: honest, but gets SIGKILLed from outside mid-campaign - the coordinator
# must absorb the vanished peer and re-queue whatever it held. Its stdout goes to
# a file: a SIGKILLed process can never print its exit stats line, so a non-empty
# victim.log proves the kill landed too late and fails the smoke below.
"$BIN" work --socket "$SOCK" --name victim --heartbeat-ms 100 \
  > "$WORK/victim.log" &
W2_PID=$!

sleep 0.3
kill -9 "$W2_PID" 2>/dev/null || true
echo "== SIGKILLed worker 'victim' (pid $W2_PID)"

wait "$COORD_PID"
wait "$W1_PID" || true
wait "$W2_PID" 2>/dev/null || true

echo "== verifying"
cmp "$WORK/serial.archive" "$WORK/dist.archive"
echo "archives byte-identical: OK"

if [ -s "$WORK/victim.log" ]; then
  echo "FAIL: worker 'victim' exited cleanly before the SIGKILL landed:" >&2
  cat "$WORK/victim.log" >&2
  exit 1
fi
echo "victim died by SIGKILL (no exit stats): OK"

STATS=$(grep '^coordinate:' "$WORK/coordinate.log")
echo "$STATS"
case "$STATS" in
  *" rejected=0 "*)
    echo "FAIL: no corrupted payloads were rejected - fault injection never fired" >&2
    exit 1
    ;;
esac
case "$STATS" in
  *" disconnects=0 "*)
    echo "FAIL: no worker disconnects seen - the SIGKILL landed after the campaign" >&2
    exit 1
    ;;
esac
case "$STATS" in
  *"finished=1 "*) ;;
  *)
    echo "FAIL: campaign did not finish" >&2
    exit 1
    ;;
esac
# Every job sent or run locally must end exactly once: completed, re-queued after a
# failure, or released unstarted by a dropped connection.
declare -A FIELD
for kv in ${STATS#coordinate: }; do
  FIELD[${kv%%=*}]=${kv#*=}
done
for key in dispatched local_runs completed redispatched released; do
  if [ -z "${FIELD[$key]:-}" ]; then
    echo "FAIL: the stats line has no $key= field" >&2
    exit 1
  fi
done
SENT=$(( FIELD[dispatched] + FIELD[local_runs] ))
ENDED=$(( FIELD[completed] + FIELD[redispatched] + FIELD[released] ))
if [ "$SENT" -ne "$ENDED" ]; then
  echo "FAIL: dispatched + local_runs = $SENT, but completed + redispatched +" \
    "released = $ENDED" >&2
  exit 1
fi
echo "dispatch identity: $SENT sent = $ENDED ended: OK"
echo "== campaign smoke: PASS"
