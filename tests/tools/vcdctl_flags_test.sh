#!/usr/bin/env bash
# Pins vcdctl monitor's flag validation: malformed or out-of-range
# --threads/--queue/--backpressure/--on-corruption/--watchdog-ms/
# --push-deadline-ms/--qos*/interval values must exit 2 with a usage message BEFORE
# any file I/O happens — the query-db path below does not exist, so reaching
# the loader would fail with a different error and no usage line. Also pins
# the range check of the other subcommands' integer flags.
#
# Usage: vcdctl_flags_test.sh <path-to-vcdctl>
set -u

VCDCTL="${1:?usage: $0 <path-to-vcdctl>}"
FAILED=0

expect_flag_error() {
  local desc="$1"
  shift
  local err rc
  err=$("$VCDCTL" "$@" 2>&1 >/dev/null)
  rc=$?
  if [ $rc -ne 2 ]; then
    echo "FAIL: $desc: expected exit 2, got $rc"
    FAILED=1
  fi
  if ! echo "$err" | grep -q "usage: vcdctl monitor"; then
    echo "FAIL: $desc: stderr lacks the usage message:"
    echo "$err"
    FAILED=1
  fi
}

NO_SUCH_DB="/nonexistent/queries.vcdq"
NO_SUCH_STREAM="/nonexistent/stream.vcds"

expect_flag_error "negative --threads" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=-1
# --threads is capped at 256 (core::kMaxThreads): anything above it is a
# usage error raised before any file I/O, so no worker thread is started.
expect_flag_error "--threads above the cap" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=257
expect_flag_error "huge --threads" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=100000
expect_flag_error "--threads beyond the int range" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=1e12
expect_flag_error "zero --queue" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --queue=0
expect_flag_error "negative --queue" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --queue=-5
expect_flag_error "bad --backpressure" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --backpressure=banana
expect_flag_error "missing stream operand" \
  monitor "$NO_SUCH_DB"
expect_flag_error "bad --on-corruption" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --on-corruption=banana
expect_flag_error "negative --watchdog-ms" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --watchdog-ms=-1
expect_flag_error "unknown --kernel" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --kernel=banana
expect_flag_error "negative --checkpoint-interval-ms" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" \
  --checkpoint-dir=/nonexistent/ckpt --checkpoint-interval-ms=-1
expect_flag_error "--checkpoint-interval-ms without --checkpoint-dir" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --checkpoint-interval-ms=500
expect_flag_error "--restore without --checkpoint-dir" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --restore
expect_flag_error "negative --throttle-ms" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --throttle-ms=-1
expect_flag_error "negative --push-deadline-ms" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --push-deadline-ms=-1
expect_flag_error "--push-deadline-ms without --threads" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --push-deadline-ms=100
expect_flag_error "--qos without --threads" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --qos
expect_flag_error "--qos-tick-ms without --qos" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --qos-tick-ms=50
expect_flag_error "--priority-map without --qos" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --priority-map=1=high
expect_flag_error "--degrade-policy without --qos" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --degrade-policy=probe=2
expect_flag_error "malformed --priority-map entry" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --priority-map=banana --qos
expect_flag_error "out-of-range --priority-map index" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --priority-map=2=high --qos
expect_flag_error "bad --priority-map class" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --priority-map=1=urgent --qos
expect_flag_error "bad --degrade-policy key" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --degrade-policy=banana=1 --qos
expect_flag_error "zero --degrade-policy probe" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --degrade-policy=probe=0 --qos
expect_flag_error "negative --qos-tick-ms" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 --qos-tick-ms=-1 --qos

# Every integer flag is range-checked as a double before its int cast: a
# value past INT_MAX is a usage error naming the flag, not a wrapped int
# ("--queue=3e9" once read back as -2147483648). Each flag's dependencies
# are given, so the range check is what fires.
expect_range_error() {
  local flag="$1"
  shift
  local err rc
  err=$("$VCDCTL" monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" "$@" 2>&1 >/dev/null)
  rc=$?
  if [ $rc -ne 2 ]; then
    echo "FAIL: $flag=3e9: expected exit 2, got $rc"
    FAILED=1
  fi
  if ! echo "$err" | grep -q -- "error: $flag must be in \[" ||
     ! echo "$err" | grep -q "usage: vcdctl monitor"; then
    echo "FAIL: $flag=3e9: stderr lacks the range error or the usage message:"
    echo "$err"
    FAILED=1
  fi
}
expect_range_error --queue --threads=2 --queue=3e9
expect_range_error --watchdog-ms --threads=2 --watchdog-ms=3e9
expect_range_error --metrics-interval-ms --metrics-out=/dev/null \
  --metrics-interval-ms=3e9
expect_range_error --checkpoint-interval-ms --checkpoint-dir=/nonexistent/ckpt \
  --checkpoint-interval-ms=3e9
expect_range_error --throttle-ms --throttle-ms=3e9
expect_range_error --push-deadline-ms --threads=2 --push-deadline-ms=3e9
expect_range_error --qos-tick-ms --threads=2 --qos --qos-tick-ms=3e9
expect_range_error --queue --threads=2 --queue=nan

# The other subcommands' integer flags go through the same check: 3e9 and
# nan are usage errors naming the flag (exit 2 + that subcommand's usage),
# raised before any file is touched. ("build-queries --k 3e9" once wrapped
# to a negative K and reported "K must be >= 1".)
expect_subcommand_range_error() {
  local cmd="$1" flag="$2" value="$3"
  shift 3
  local err rc
  err=$("$VCDCTL" "$cmd" "$@" "$flag=$value" 2>&1 >/dev/null)
  rc=$?
  if [ $rc -ne 2 ]; then
    echo "FAIL: $cmd $flag=$value: expected exit 2, got $rc"
    FAILED=1
  fi
  if ! echo "$err" | grep -q -- "error: $flag must be in \[" ||
     ! echo "$err" | grep -q "usage: vcdctl $cmd"; then
    echo "FAIL: $cmd $flag=$value: stderr lacks the range error or the usage message:"
    echo "$err"
    FAILED=1
  fi
}
for value in 3e9 nan; do
  expect_subcommand_range_error generate --w "$value" --out=/nonexistent/clip.y4m
  expect_subcommand_range_error generate --h "$value" --out=/nonexistent/clip.y4m
  expect_subcommand_range_error encode --gop "$value" \
    /nonexistent/clip.y4m /nonexistent/clip.vcds
  expect_subcommand_range_error encode --quantizer "$value" \
    /nonexistent/clip.y4m /nonexistent/clip.vcds
  expect_subcommand_range_error fingerprint --d "$value" "$NO_SUCH_STREAM"
  expect_subcommand_range_error fingerprint --u "$value" "$NO_SUCH_STREAM"
  expect_subcommand_range_error build-queries --k "$value" \
    /nonexistent/out.vcdq 1="$NO_SUCH_STREAM"
done

# A --kernel the CPU/build cannot run must also be a usage error (exit 2),
# not a crash or silent fallback. neon is never supported on x86 hosts and
# every other name stays valid, so probe via `vcdctl kernels`.
if ! "$VCDCTL" kernels | grep -q "^neon .*yes"; then
  expect_flag_error "unsupported --kernel" \
    monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --kernel=neon
fi

# A supported --kernel must get PAST flag validation (scalar is always
# supported): loader failure, no usage line.
err=$("$VCDCTL" monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --kernel=scalar \
  2>&1 >/dev/null)
rc=$?
if [ $rc -eq 0 ] || [ $rc -eq 2 ]; then
  echo "FAIL: --kernel=scalar + missing db: expected loader failure, got rc=$rc"
  FAILED=1
fi
if echo "$err" | grep -q "usage: vcdctl monitor"; then
  echo "FAIL: --kernel=scalar + missing db printed the usage message"
  FAILED=1
fi

# --threads at the cap must get PAST validation: loader failure (before the
# executor, and so any thread, exists), no usage line.
err=$("$VCDCTL" monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=256 \
  2>&1 >/dev/null)
rc=$?
if [ $rc -eq 0 ] || [ $rc -eq 2 ]; then
  echo "FAIL: --threads=256 + missing db: expected loader failure, got rc=$rc"
  FAILED=1
fi
if echo "$err" | grep -q "usage: vcdctl monitor"; then
  echo "FAIL: --threads=256 + missing db printed the usage message"
  FAILED=1
fi

# A fully valid QoS flag set must also get PAST validation: loader failure,
# no usage line.
err=$("$VCDCTL" monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 \
  --push-deadline-ms=250 --qos-tick-ms=50 --priority-map=1=high \
  --degrade-policy=probe=2,cap=16,nogeo --qos 2>&1 >/dev/null)
rc=$?
if [ $rc -eq 0 ] || [ $rc -eq 2 ]; then
  echo "FAIL: valid qos flags + missing db: expected loader failure, got rc=$rc"
  FAILED=1
fi
if echo "$err" | grep -q "usage: vcdctl monitor"; then
  echo "FAIL: valid qos flags + missing db printed the usage message"
  FAILED=1
fi

# Valid flags with a missing db must get PAST flag validation: non-zero exit
# from the loader, but no usage message (it is not a usage error).
err=$("$VCDCTL" monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --threads=2 \
  --on-corruption=quarantine --watchdog-ms=250 2>&1 >/dev/null)
rc=$?
if [ $rc -eq 0 ] || [ $rc -eq 2 ]; then
  echo "FAIL: valid flags + missing db: expected a loader failure, got rc=$rc"
  FAILED=1
fi
if echo "$err" | grep -q "usage: vcdctl monitor"; then
  echo "FAIL: valid flags + missing db printed the usage message"
  FAILED=1
fi

if [ $FAILED -ne 0 ]; then
  exit 1
fi
echo "OK: vcdctl flag validation behaves as pinned"
exit 0
