#!/usr/bin/env bash
# Pins `vcdctl monitor --on-corruption quarantine` on both engines: a stream
# whose key-frame payloads are zeroed over a span (frame headers intact, so
# the decoder emits degraded frames instead of resynchronizing past them)
# must be quarantined by the per-stream health machine. The default inline
# run (no --threads), a `--threads 2` run and a `--threads 3 --queue 1` run
# (a one-slot queue is always full, so the ingest thread decodes most
# frames itself before its blocking push) must print the same MATCH lines,
# the same degraded/discarded lines and the same per-shard frame sum.
#
# Usage: vcdctl_quarantine_test.sh <path-to-vcdctl>
set -u

VCDCTL="${1:?usage: $0 <path-to-vcdctl>}"
FAILED=0

WORK=$(mktemp -d /tmp/vcd_quarantine_XXXXXX)
trap 'rm -rf "$WORK"' EXIT

"$VCDCTL" generate --out="$WORK/clip.y4m" --seconds=30 --seed=7 \
  --w=176 --h=120 >/dev/null || { echo "FAIL: generate"; exit 1; }
"$VCDCTL" encode "$WORK/clip.y4m" "$WORK/clean.vcds" >/dev/null \
  || { echo "FAIL: encode"; exit 1; }
"$VCDCTL" build-queries "$WORK/q.vcdq" 1="$WORK/clean.vcds" --k=128 \
  >/dev/null || { echo "FAIL: build-queries"; exit 1; }

# Zero the payloads of key frames 20..49 (of 75). VCDS frame records are
# marker (0xF1 intra, 0xF0 predicted) + 32-bit big-endian length + payload
# (docs/FORMATS.md); the header offset is found by walking the records.
python3 - "$WORK/clean.vcds" "$WORK/bad.vcds" 20 30 <<'EOF' \
  || { echo "FAIL: corrupting the fixture"; exit 1; }
import sys
src, dst, first, count = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
d = bytearray(open(src, "rb").read())

def records(pos):
    out = []
    while pos + 5 <= len(d):
        if d[pos] not in (0xF0, 0xF1):
            return None
        n = int.from_bytes(d[pos + 1:pos + 5], "big")
        out.append((pos, d[pos], n))
        pos += 5 + n
    return out if pos == len(d) else None

recs = next(r for r in (records(p) for p in range(1, 64)) if r)
key = 0
for pos, marker, n in recs:
    if marker == 0xF1:
        if first <= key < first + count:
            d[pos + 5:pos + 5 + n] = bytes(n)
        key += 1
open(dst, "wb").write(d)
EOF

run() {  # run <label> [extra flags...]
  local label="$1"
  shift
  if ! "$VCDCTL" monitor "$WORK/q.vcdq" "$WORK/bad.vcds" "$WORK/clean.vcds" \
       --on-corruption=quarantine "$@" > "$WORK/$label.out"; then
    echo "FAIL: $label run exited non-zero"
    FAILED=1
  fi
  grep -E '^MATCH|degraded|discarded' "$WORK/$label.out" > "$WORK/$label.lines"
  awk '$1 == "shard" { s += $3 } END { print s + 0 }' "$WORK/$label.out" \
    > "$WORK/$label.frames"
}

run inline
run threaded --threads=2
run queue1 --threads=3 --queue=1

if ! grep -q 'frames discarded over [1-9][0-9]* quarantine events' \
     "$WORK/inline.out"; then
  echo "FAIL: the default inline run did not quarantine the corrupted stream:"
  cat "$WORK/inline.out"
  FAILED=1
fi
if ! grep -q 'frames processed degraded' "$WORK/inline.out"; then
  echo "FAIL: the default inline run reported no degraded frames"
  FAILED=1
fi
if ! diff -u "$WORK/inline.lines" "$WORK/threaded.lines"; then
  echo "FAIL: inline and --threads 2 runs report different matches or faults"
  FAILED=1
fi
if ! diff -u "$WORK/inline.frames" "$WORK/threaded.frames"; then
  echo "FAIL: inline and --threads 2 shards processed different frame counts"
  FAILED=1
fi
if ! diff -u "$WORK/inline.lines" "$WORK/queue1.lines"; then
  echo "FAIL: inline and --threads 3 --queue 1 runs report different matches or faults"
  FAILED=1
fi
if ! diff -u "$WORK/inline.frames" "$WORK/queue1.frames"; then
  echo "FAIL: inline and --threads 3 --queue 1 shards processed different frame counts"
  FAILED=1
fi

if [ $FAILED -ne 0 ]; then
  exit 1
fi
echo "OK: quarantine behaves identically inline, at --threads 2 and at --threads 3 --queue 1"
exit 0
