#!/usr/bin/env bash
# Crash-recovery contract of `vcdctl monitor --checkpoint-dir` (DESIGN.md
# §16): SIGKILL the monitor at randomized (but seeded) points mid-ingest,
# restart with --restore, and require the resumed run's match output to be
# byte-identical to an uninterrupted run, on the default inline engine and
# on a --threads 2 executor over two streams. Also pins the graceful-drain
# path: SIGTERM stops intake, takes a final checkpoint, and exits 0; a
# restore then completes the job with identical matches.
#
# Usage: crash_recovery_test.sh <path-to-vcdctl> [seed]
set -u

VCDCTL="${1:?usage: $0 <path-to-vcdctl> [seed]}"
SEED="${2:-${CRASH_RECOVERY_SEED:-20260809}}"
FAILED=0

WORK=$(mktemp -d /tmp/vcd_crash_recovery_XXXXXX)
trap 'rm -rf "$WORK"' EXIT

# Deterministic kill-delay sequence from the seed (no $RANDOM: two runs with
# the same seed must kill at the same wall-clock points).
RAND_STATE=$SEED
next_rand() {
  RAND_STATE=$(( (RAND_STATE * 1103515245 + 12345) % 2147483648 ))
  echo $(( RAND_STATE % $1 ))
}

# --- fixture: a synthetic stream that is its own query (self-copy) --------
"$VCDCTL" generate --out="$WORK/clip.y4m" --seconds=10 --seed=7 \
  --w=176 --h=144 >/dev/null || { echo "FAIL: generate"; exit 1; }
"$VCDCTL" encode "$WORK/clip.y4m" "$WORK/stream.vcds" >/dev/null \
  || { echo "FAIL: encode"; exit 1; }
"$VCDCTL" build-queries "$WORK/q.vcdq" 1="$WORK/stream.vcds" --k=128 \
  >/dev/null || { echo "FAIL: build-queries"; exit 1; }

# --- reference: uninterrupted run (no checkpointing at all) ---------------
"$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" > "$WORK/ref.out" \
  || { echo "FAIL: reference monitor run"; exit 1; }
grep '^MATCH' "$WORK/ref.out" > "$WORK/ref.matches"
if [ ! -s "$WORK/ref.matches" ]; then
  echo "FAIL: reference run produced no matches (fixture broken)"
  exit 1
fi

# A checkpointing-but-uninterrupted run must change nothing. Throttled so
# several interval checkpoints actually land (the torn-snapshot stage below
# needs at least two manifest entries to fall back across).
"$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" \
  --checkpoint-dir="$WORK/ckpt-clean" --checkpoint-interval-ms=30 \
  --throttle-ms=10 > "$WORK/clean.out" \
  || { echo "FAIL: checkpointing run"; exit 1; }
grep '^MATCH' "$WORK/clean.out" > "$WORK/clean.matches"
if ! diff -u "$WORK/ref.matches" "$WORK/clean.matches"; then
  echo "FAIL: checkpointing perturbed the match output"
  FAILED=1
fi

# --- SIGKILL at randomized points, then restore ---------------------------
for round in 1 2 3; do
  DIR="$WORK/ckpt-$round"
  OUT="$WORK/round-$round.out"
  "$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" \
    --checkpoint-dir="$DIR" --checkpoint-interval-ms=30 --throttle-ms=15 \
    > "$OUT" 2>/dev/null &
  PID=$!
  DELAY_MS=$(( 80 + $(next_rand 400) ))
  sleep "$(awk "BEGIN{print $DELAY_MS/1000}")"
  kill -9 "$PID" 2>/dev/null
  wait "$PID" 2>/dev/null
  RC=$?
  if [ $RC -ne 137 ]; then
    # The run finished before the kill landed; the final checkpoint must
    # still restore to the complete match list below.
    echo "note: round $round: monitor finished before SIGKILL (rc=$RC)"
  fi
  "$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" \
    --checkpoint-dir="$DIR" --restore > "$WORK/resumed-$round.out" \
    || { echo "FAIL: round $round: --restore run failed"; FAILED=1; continue; }
  if ! grep -q '^restored checkpoint epoch' "$WORK/resumed-$round.out"; then
    echo "FAIL: round $round: restore did not report a loaded snapshot"
    FAILED=1
  fi
  grep '^MATCH' "$WORK/resumed-$round.out" > "$WORK/resumed-$round.matches"
  if ! diff -u "$WORK/ref.matches" "$WORK/resumed-$round.matches"; then
    echo "FAIL: round $round (kill after ${DELAY_MS}ms, seed $SEED):" \
         "resumed matches differ from the uninterrupted run"
    FAILED=1
  fi
done

# --- graceful drain: SIGTERM → final checkpoint → exit 0 → restore --------
DIR="$WORK/ckpt-drain"
"$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" \
  --checkpoint-dir="$DIR" --throttle-ms=15 > "$WORK/drain.out" 2>/dev/null &
PID=$!
sleep 0.2
kill -TERM "$PID" 2>/dev/null
wait "$PID"
RC=$?
if [ $RC -ne 0 ]; then
  echo "FAIL: drain: expected exit 0 after SIGTERM, got $RC"
  FAILED=1
fi
if ! grep -q 'drain requested' "$WORK/drain.out"; then
  # The run may have finished before the signal; that is not a drain test.
  if ! grep -q 'matches total' "$WORK/drain.out"; then
    echo "FAIL: drain: neither drain message nor completion in output:"
    cat "$WORK/drain.out"
    FAILED=1
  else
    echo "note: drain round finished before SIGTERM landed"
  fi
fi
"$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" \
  --checkpoint-dir="$DIR" --restore > "$WORK/drain-resumed.out" \
  || { echo "FAIL: restore after drain failed"; FAILED=1; }
grep '^MATCH' "$WORK/drain-resumed.out" > "$WORK/drain-resumed.matches"
if ! diff -u "$WORK/ref.matches" "$WORK/drain-resumed.matches"; then
  echo "FAIL: drain+restore matches differ from the uninterrupted run"
  FAILED=1
fi

# --- torn-manifest resilience: corrupt the newest snapshot ----------------
DIR="$WORK/ckpt-clean"
NEWEST=$(tail -n 1 "$DIR/MANIFEST" | awk '{print $2}')
if [ -n "$NEWEST" ] && [ -f "$DIR/$NEWEST" ]; then
  SIZE=$(wc -c < "$DIR/$NEWEST")
  head -c $(( SIZE / 2 )) "$DIR/$NEWEST" > "$DIR/$NEWEST.torn" &&
    mv "$DIR/$NEWEST.torn" "$DIR/$NEWEST"
  "$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/stream.vcds" \
    --checkpoint-dir="$DIR" --restore > "$WORK/torn.out" 2> "$WORK/torn.err"
  RC=$?
  if [ $RC -ne 0 ]; then
    echo "FAIL: torn newest snapshot: restore crashed (rc=$RC) instead of" \
         "falling back to the previous manifest entry"
    cat "$WORK/torn.err"
    FAILED=1
  fi
  if ! grep -q 'unreadable snapshot' "$WORK/torn.err"; then
    echo "FAIL: torn snapshot fallback did not log a warning"
    FAILED=1
  fi
  grep '^MATCH' "$WORK/torn.out" > "$WORK/torn.matches"
  if ! diff -u "$WORK/ref.matches" "$WORK/torn.matches"; then
    echo "FAIL: fallback restore matches differ from the uninterrupted run"
    FAILED=1
  fi
else
  echo "FAIL: no manifest entry to corrupt in $DIR"
  FAILED=1
fi

# --- threaded driver: two streams, cycle-top checkpoints, SIGKILL ---------
# The rounds above run the default inline engine over one file. Here two
# files are fed round-robin to a --threads 2 executor, whose checkpoints are
# taken at the top of a round-robin cycle; a restored run must repeat the
# uninterrupted interleaving exactly.
"$VCDCTL" generate --out="$WORK/clip2.y4m" --seconds=10 --seed=9 \
  --w=176 --h=144 >/dev/null || { echo "FAIL: generate (2nd stream)"; exit 1; }
"$VCDCTL" encode "$WORK/clip2.y4m" "$WORK/stream2.vcds" >/dev/null \
  || { echo "FAIL: encode (2nd stream)"; exit 1; }
"$VCDCTL" build-queries "$WORK/q2.vcdq" 1="$WORK/stream.vcds" \
  2="$WORK/stream2.vcds" --k=128 >/dev/null \
  || { echo "FAIL: build-queries (2 streams)"; exit 1; }
TWO=("$WORK/q2.vcdq" "$WORK/stream.vcds" "$WORK/stream2.vcds")
"$VCDCTL" monitor "${TWO[@]}" --threads=2 > "$WORK/ref2.out" \
  || { echo "FAIL: threaded reference run"; exit 1; }
grep '^MATCH' "$WORK/ref2.out" > "$WORK/ref2.matches"
if [ "$(grep -c '^MATCH' "$WORK/ref2.out")" -lt 2 ]; then
  echo "FAIL: threaded reference run should match both streams"
  FAILED=1
fi
"$VCDCTL" monitor "${TWO[@]}" > "$WORK/ref2-inline.out" \
  || { echo "FAIL: inline two-stream reference run"; exit 1; }
if ! diff -u "$WORK/ref2.matches" <(grep '^MATCH' "$WORK/ref2-inline.out"); then
  echo "FAIL: inline and --threads 2 runs print different matches"
  FAILED=1
fi
for round in 1 2; do
  DIR="$WORK/ckpt-threaded-$round"
  "$VCDCTL" monitor "${TWO[@]}" --threads=2 --checkpoint-dir="$DIR" \
    --checkpoint-interval-ms=30 --throttle-ms=15 > /dev/null 2>&1 &
  PID=$!
  DELAY_MS=$(( 80 + $(next_rand 300) ))
  sleep "$(awk "BEGIN{print $DELAY_MS/1000}")"
  kill -9 "$PID" 2>/dev/null
  wait "$PID" 2>/dev/null
  RC=$?
  if [ $RC -ne 137 ]; then
    echo "note: threaded round $round: monitor finished before SIGKILL (rc=$RC)"
  fi
  OUT="$WORK/threaded-resumed-$round.out"
  "$VCDCTL" monitor "${TWO[@]}" --threads=2 --checkpoint-dir="$DIR" \
    --restore > "$OUT" \
    || { echo "FAIL: threaded round $round: --restore run failed"; FAILED=1; continue; }
  if ! grep -q '^restored checkpoint epoch' "$OUT"; then
    echo "FAIL: threaded round $round: restore did not report a loaded snapshot"
    FAILED=1
  fi
  if ! diff -u "$WORK/ref2.matches" <(grep '^MATCH' "$OUT"); then
    echo "FAIL: threaded round $round (kill after ${DELAY_MS}ms, seed $SEED):" \
         "resumed matches differ from the uninterrupted run"
    FAILED=1
  fi
done

if [ $FAILED -ne 0 ]; then
  exit 1
fi
echo "OK: kill-restore equivalence (inline and --threads 2), graceful drain and torn-snapshot fallback hold (seed $SEED)"
exit 0
