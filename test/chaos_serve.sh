#!/bin/sh
# Crash-safety battery for the hardened daemon (the CI chaos-serve job).
#
# Phase 1  boot `nanodec serve` with a cache file and a 1 s snapshot
#          interval, capture the cold bytes of a Monte-Carlo battery.
# Phase 2  hammer the same battery through 4 parallel clients — every
#          client must read back the cold bytes with "cached":true.
# Phase 3  the same 4 warm clients while a 4000-sample miss computes on
#          another connection: the select loop answers the warm hits
#          itself, and they must still read back the cold bytes.
# Phase 4  start background load clients and `kill -9` the daemon mid
#          load: no graceful drain, no shutdown snapshot — whatever the
#          periodic snapshotter last renamed into place is all we keep.
# Phase 5  restart on the same --cache-file: the battery must come back
#          warm ("cached":true) and bit-identical to the pre-crash
#          bytes.
# Phase 6  truncate the snapshot and restart once more: the daemon must
#          come up cold (never crash-loop) and recompute the exact cold
#          bytes.
set -eu

NANODEC="${NANODEC:-_build/default/bin/nanodec_cli.exe}"
SOCK="${TMPDIR:-/tmp}/nanodec-chaos-$$.sock"
CACHE="${TMPDIR:-/tmp}/nanodec-chaos-$$.snapshot"
OUT="${TMPDIR:-/tmp}/nanodec-chaos-$$"
DAEMON=""

cleanup() {
  [ -n "$DAEMON" ] && kill -9 "$DAEMON" 2>/dev/null || true
  rm -f "$OUT".* "$CACHE" "$CACHE.tmp" "$SOCK"
}
trap cleanup EXIT

start_daemon() {
  "$NANODEC" serve --socket "$SOCK" --domains 2 \
    --cache-file "$CACHE" --snapshot-interval 1 &
  DAEMON=$!
}

battery() { # $1 = output file
  "$NANODEC" client --socket "$SOCK" --timeout 30 \
    '{"id":1,"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":11,"mc_samples":300}}' \
    '{"id":2,"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":11,"mc_samples":300}}' \
    '{"id":3,"verb":"evaluate","params":{"code":"AHC","length":6},"exec":{"seed":7,"mc_samples":300}}' \
    '{"id":4,"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":31,"mc_samples":200}}' \
    > "$1"
}

shutdown_daemon() {
  "$NANODEC" client --socket "$SOCK" --timeout 30 '{"verb":"shutdown"}' \
    > /dev/null
  wait "$DAEMON"
  DAEMON=""
}

echo "phase 1: cold battery"
start_daemon
battery "$OUT.cold"
grep -q '"id":1,"status":"ok","verb":"evaluate","cached":false' "$OUT.cold"
sed 's/"cached":false/"cached":true/' "$OUT.cold" > "$OUT.expect"

echo "phase 2: 4 parallel clients, all warm, all bit-identical"
pids=""
for i in 1 2 3 4; do battery "$OUT.par$i" & pids="$pids $!"; done
for pid in $pids; do wait "$pid"; done
for i in 1 2 3 4; do diff -u "$OUT.expect" "$OUT.par$i"; done

echo "phase 3: 4 warm clients beside a cold 4000-sample miss"
"$NANODEC" client --socket "$SOCK" --timeout 60 \
  '{"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":301,"mc_samples":4000}}' \
  > "$OUT.miss" &
miss=$!
pids=""
for i in 1 2 3 4; do battery "$OUT.busy$i" & pids="$pids $!"; done
for pid in $pids; do wait "$pid"; done
for i in 1 2 3 4; do diff -u "$OUT.expect" "$OUT.busy$i"; done
wait "$miss"
grep -q '"status":"ok","verb":"evaluate","cached":false' "$OUT.miss"

echo "phase 4: kill -9 mid-load"
# Two snapshot intervals so the periodic snapshotter has renamed a
# snapshot covering the battery into place before the crash.
sleep 2.5
[ -s "$CACHE" ]
"$NANODEC" client --socket "$SOCK" \
  '{"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":101,"mc_samples":4000}}' \
  '{"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":102,"mc_samples":4000}}' \
  > /dev/null 2>&1 &
load1=$!
"$NANODEC" client --socket "$SOCK" \
  '{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":201,"mc_samples":4000}}' \
  '{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":202,"mc_samples":4000}}' \
  > /dev/null 2>&1 &
load2=$!
sleep 0.3
kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
DAEMON=""
wait "$load1" 2>/dev/null || true
wait "$load2" 2>/dev/null || true

echo "phase 5: restart on the same cache file serves the warm bytes"
start_daemon
battery "$OUT.warm"
diff -u "$OUT.expect" "$OUT.warm"
shutdown_daemon

echo "phase 6: corrupted snapshot degrades to a cold cache"
size=$(wc -c < "$CACHE")
dd if="$CACHE" of="$CACHE.tmp" bs=1 count=$((size / 2)) 2>/dev/null
mv "$CACHE.tmp" "$CACHE"
start_daemon
battery "$OUT.cold2"
diff -u "$OUT.cold" "$OUT.cold2"
"$NANODEC" client --socket "$SOCK" --timeout 30 '{"id":9,"verb":"ping"}' \
  | grep -q '"id":9,"status":"ok"'
shutdown_daemon

echo "chaos serve: OK"
