#!/usr/bin/env bash
# Pins the vcdctl metrics CLI surface:
#   - `vcdctl metrics` exits 0 and emits a well-formed JSON document;
#   - `vcdctl metrics --format=prom` emits Prometheus exposition text;
#   - a bad --format exits 2 with the metrics usage line;
#   - `vcdctl monitor` validates --metrics-interval-ms (and its dependency
#     on --metrics-out) BEFORE any file I/O, exit 2 + usage, matching the
#     contract vcdctl_flags_test.sh pins for the other monitor flags;
#   - the default (inline, no --threads) monitor publishes the whole
#     pipeline to --metrics-out: detector and shard series, the shard
#     queue-wait histogram, and the decoder's per-key-frame
#     vcd_decode_frame_ns histogram;
#   - at --threads 2, where the shards decode, vcd_decode_frame_ns still
#     counts every key frame once, and every shard reports its queue wait.
#
# Usage: vcdctl_metrics_test.sh <path-to-vcdctl>
set -u

VCDCTL="${1:?usage: $0 <path-to-vcdctl>}"
FAILED=0

# --- one-shot `vcdctl metrics` -------------------------------------------

out=$("$VCDCTL" metrics)
rc=$?
if [ $rc -ne 0 ]; then
  echo "FAIL: vcdctl metrics: expected exit 0, got $rc"
  FAILED=1
fi
if ! echo "$out" | grep -q '"metrics": \['; then
  echo "FAIL: vcdctl metrics: output is not the JSON metrics document:"
  echo "$out"
  FAILED=1
fi
# The faultfx gauges are registered (zeroed when compiled out) on every
# dump, so the document is never empty.
if ! echo "$out" | grep -q '"vcd_faultfx_hits"'; then
  echo "FAIL: vcdctl metrics: faultfx gauge series missing:"
  echo "$out"
  FAILED=1
fi

out=$("$VCDCTL" metrics --format=prom)
rc=$?
if [ $rc -ne 0 ]; then
  echo "FAIL: vcdctl metrics --format=prom: expected exit 0, got $rc"
  FAILED=1
fi
if ! echo "$out" | grep -q '^# TYPE vcd_faultfx_hits gauge$'; then
  echo "FAIL: vcdctl metrics --format=prom: no TYPE header:"
  echo "$out"
  FAILED=1
fi

err=$("$VCDCTL" metrics --format=banana 2>&1 >/dev/null)
rc=$?
if [ $rc -ne 2 ]; then
  echo "FAIL: bad --format: expected exit 2, got $rc"
  FAILED=1
fi
if ! echo "$err" | grep -q "usage: vcdctl metrics"; then
  echo "FAIL: bad --format: stderr lacks the usage message:"
  echo "$err"
  FAILED=1
fi

# --- monitor metrics-flag validation (before any file I/O) ----------------

NO_SUCH_DB="/nonexistent/queries.vcdq"
NO_SUCH_STREAM="/nonexistent/stream.vcds"

expect_monitor_flag_error() {
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

expect_monitor_flag_error "negative --metrics-interval-ms" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --metrics-interval-ms=-100
expect_monitor_flag_error "interval without --metrics-out" \
  monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" --metrics-interval-ms=500

# Valid metrics flags with a missing db must get PAST validation: loader
# failure, not a usage error.
err=$("$VCDCTL" monitor "$NO_SUCH_DB" "$NO_SUCH_STREAM" \
  --metrics-out=/dev/null --metrics-interval-ms=500 2>&1 >/dev/null)
rc=$?
if [ $rc -eq 0 ] || [ $rc -eq 2 ]; then
  echo "FAIL: valid metrics flags + missing db: expected loader failure, got rc=$rc"
  FAILED=1
fi
if echo "$err" | grep -q "usage: vcdctl monitor"; then
  echo "FAIL: valid metrics flags + missing db printed the usage message"
  FAILED=1
fi

# --- default-path monitor publishes the whole pipeline --------------------

WORK=$(mktemp -d /tmp/vcd_metrics_XXXXXX)
trap 'rm -rf "$WORK"' EXIT
if "$VCDCTL" generate --out="$WORK/clip.y4m" --seconds=8 --seed=7 \
     --w=96 --h=64 >/dev/null &&
   "$VCDCTL" encode "$WORK/clip.y4m" "$WORK/clip.vcds" >/dev/null &&
   "$VCDCTL" build-queries "$WORK/q.vcdq" 1="$WORK/clip.vcds" --k=64 \
     >/dev/null; then
  if ! "$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/clip.vcds" \
       --metrics-out="$WORK/m.json" >/dev/null; then
    echo "FAIL: default-path monitor with --metrics-out failed"
    FAILED=1
  fi
  for series in vcd_detector_windows_total vcd_shard_frames_processed_total \
                vcd_shard_frames_degraded_total vcd_shard_queue_depth \
                vcd_shard_stream_lag_us vcd_shard_queue_wait_ns \
                vcd_decode_frame_ns; do
    if ! grep -q "\"$series\"" "$WORK/m.json" 2>/dev/null; then
      echo "FAIL: default-path --metrics-out lacks $series"
      FAILED=1
    fi
  done
  if ! "$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/clip.vcds" "$WORK/clip.vcds" \
       --threads=2 --metrics-out="$WORK/t.json" >/dev/null; then
    echo "FAIL: --threads 2 monitor with --metrics-out failed"
    FAILED=1
  fi
  if ! python3 - "$WORK/t.json" <<'EOF'
import json, sys
ms = json.load(open(sys.argv[1]))["metrics"]
def find(name):
    return [m for m in ms if m["name"] == name]
key_frames = sum(m["value"] for m in find("vcd_decoder_key_frames_total"))
decoded = sum(m["count"] for m in find("vcd_decode_frame_ns"))
waits = {m["labels"]["shard"]: m["count"] for m in find("vcd_shard_queue_wait_ns")}
ok = key_frames > 0 and decoded == key_frames
ok = ok and sorted(waits) == ["0", "1"] and all(c > 0 for c in waits.values())
if not ok:
    print("key frames %d, decode spans %d, queue waits %s" % (key_frames, decoded, waits))
sys.exit(0 if ok else 1)
EOF
  then
    echo "FAIL: --threads 2: decode spans must equal key frames, and both" \
      "shards must report vcd_shard_queue_wait_ns"
    FAILED=1
  fi
else
  echo "FAIL: fixture generation for the default-path metrics check"
  FAILED=1
fi

if [ $FAILED -ne 0 ]; then
  exit 1
fi
echo "OK: vcdctl metrics CLI behaves as pinned"
exit 0
