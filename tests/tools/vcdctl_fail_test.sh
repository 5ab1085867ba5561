#!/usr/bin/env bash
# Pins `vcdctl monitor --on-corruption fail` on both engines: the first
# damaged key frame stops that stream only. A stream with one key frame's
# payload zeroed (frame headers intact, so the damage is in the entropy
# data, not the framing) must be reported by exactly one
# "warning: <file>: ...; stream stopped" line, the run must exit 0, and the
# undamaged streams must print the same MATCH lines as a run in which the
# damaged file is replaced by its clean original. Checked for the default
# inline run and for `--threads 2`.
#
# Usage: vcdctl_fail_test.sh <path-to-vcdctl>
set -u

VCDCTL="${1:?usage: $0 <path-to-vcdctl>}"
FAILED=0

WORK=$(mktemp -d /tmp/vcd_fail_XXXXXX)
trap 'rm -rf "$WORK"' EXIT

for seed in 7 11; do
  "$VCDCTL" generate --out="$WORK/clip$seed.y4m" --seconds=30 --seed=$seed \
    --w=176 --h=120 >/dev/null || { echo "FAIL: generate"; exit 1; }
  "$VCDCTL" encode "$WORK/clip$seed.y4m" "$WORK/clip$seed.vcds" >/dev/null \
    || { echo "FAIL: encode"; exit 1; }
done
"$VCDCTL" build-queries "$WORK/q.vcdq" 1="$WORK/clip7.vcds" \
  2="$WORK/clip11.vcds" --k=128 >/dev/null \
  || { echo "FAIL: build-queries"; exit 1; }
cp "$WORK/clip7.vcds" "$WORK/copy.vcds"

# Zero the payload of key frame 20 (of 75). VCDS frame records are marker
# (0xF1 intra, 0xF0 predicted) + 32-bit big-endian length + payload
# (docs/FORMATS.md); the header offset is found by walking the records.
python3 - "$WORK/clip7.vcds" "$WORK/bad.vcds" 20 <<'EOF' \
  || { echo "FAIL: corrupting the fixture"; exit 1; }
import sys
src, dst, target = sys.argv[1], sys.argv[2], int(sys.argv[3])
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
        if key == target:
            d[pos + 5:pos + 5 + n] = bytes(n)
        key += 1
open(dst, "wb").write(d)
EOF

run() {  # run <label> <first stream file> [extra flags...]
  local label="$1" first="$2"
  shift 2
  "$VCDCTL" monitor "$WORK/q.vcdq" "$first" "$WORK/copy.vcds" \
    "$WORK/clip11.vcds" --on-corruption=fail "$@" \
    > "$WORK/$label.out" 2> "$WORK/$label.err"
  echo $? > "$WORK/$label.rc"
  grep -E '^MATCH' "$WORK/$label.out" | grep -v "on $first " \
    > "$WORK/$label.others"
}

for threads in 0 2; do
  run "clean$threads" "$WORK/clip7.vcds" --threads=$threads
  run "bad$threads" "$WORK/bad.vcds" --threads=$threads
  if [ "$(cat "$WORK/clean$threads.rc")" != 0 ] ||
     [ "$(cat "$WORK/bad$threads.rc")" != 0 ]; then
    echo "FAIL: --threads $threads: exit codes clean=$(cat "$WORK/clean$threads.rc")" \
      "damaged=$(cat "$WORK/bad$threads.rc") (want 0 and 0)"
    cat "$WORK/bad$threads.err"
    FAILED=1
  fi
  if grep -q 'stream stopped' "$WORK/clean$threads.err"; then
    echo "FAIL: --threads $threads: the clean run stopped a stream"
    FAILED=1
  fi
  stopped=$(grep -c 'stream stopped' "$WORK/bad$threads.err")
  named=$(grep 'stream stopped' "$WORK/bad$threads.err" |
          grep -c "^warning: $WORK/bad.vcds: ")
  if [ "$stopped" != 1 ] || [ "$named" != 1 ]; then
    echo "FAIL: --threads $threads: want one 'stream stopped' warning naming" \
      "bad.vcds, got:"
    cat "$WORK/bad$threads.err"
    FAILED=1
  fi
  if [ ! -s "$WORK/clean$threads.others" ]; then
    echo "FAIL: --threads $threads: the undamaged streams matched nothing"
    FAILED=1
  fi
  if ! diff -u "$WORK/clean$threads.others" "$WORK/bad$threads.others"; then
    echo "FAIL: --threads $threads: the undamaged streams' MATCH lines differ" \
      "from the clean run"
    FAILED=1
  fi
done

if [ $FAILED -ne 0 ]; then
  exit 1
fi
echo "OK: --on-corruption fail stops only the damaged stream, inline and at --threads 2"
exit 0
