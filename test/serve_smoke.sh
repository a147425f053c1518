#!/bin/sh
# Serve daemon smoke battery (the CI serve-smoke job).
#
# Boots `nanodec serve` twice (1 and 4 domains) and drives the same
# request batteries through `nanodec client`:
#   - a stable battery (no floating-point payloads: happy-path ping and
#     codes, malformed JSON, an unknown verb, two validation failures)
#     diffed against the committed golden bytes;
#   - a numeric battery (cold + repeated Monte-Carlo evaluates, a
#     chaos-plan yield and a deadline-bearing repeat of the cold
#     evaluate) diffed across the two domain counts — the daemon's
#     answers must be byte-identical on 1 and 4 domains.  Its response
#     heads (everything before "result", so no floats) are part of the
#     golden too.
# On top of the diffs: the repeated and the deadline-bearing evaluates
# must be served from the cache, bit-identical to the cold bytes, and
# the chaos request must recover the exact bytes of its uninjected twin.
set -eu

NANODEC="${NANODEC:-_build/default/bin/nanodec_cli.exe}"
GOLDEN="${GOLDEN:-test/golden/serve_smoke.golden}"
SOCK="${TMPDIR:-/tmp}/nanodec-smoke-$$.sock"
OUT="${TMPDIR:-/tmp}/nanodec-smoke-$$"

run_battery() { # $1 = domains, $2 = output prefix
  "$NANODEC" serve --socket "$SOCK" --domains "$1" &
  pid=$!
  "$NANODEC" client --socket "$SOCK" \
    '{"id":1,"verb":"ping"}' \
    '{"id":2,"verb":"codes","params":{"code":"AHC","length":6,"count":4}}' \
    'this is not json' \
    '{"id":3,"verb":"frobnicate"}' \
    '{"id":4,"verb":"yield","exec":{"mc_samples":0}}' \
    '{"id":5,"verb":"evaluate","params":{"radix":1}}' \
    > "$2.stable"
  "$NANODEC" client --socket "$SOCK" \
    '{"id":6,"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":11,"mc_samples":300}}' \
    '{"id":7,"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":11,"mc_samples":300}}' \
    '{"id":8,"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":11,"mc_samples":300,"fault_plan":"seed=2009;pool.chunk:crash:p=0.3:max=10"}}' \
    '{"id":9,"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":11,"mc_samples":300}}' \
    '{"id":10,"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":11,"mc_samples":300,"timeout":60}}' \
    > "$2.numeric"
  "$NANODEC" client --socket "$SOCK" '{"verb":"shutdown"}' > /dev/null
  wait "$pid"
}

run_battery 1 "$OUT-d1"
run_battery 4 "$OUT-d4"

echo "diff: stable battery + numeric response heads vs committed golden"
{ cat "$OUT-d1.stable"; sed 's/,"result":.*//' "$OUT-d1.numeric"; } \
  | diff -u "$GOLDEN" -
echo "diff: stable battery, 1 vs 4 domains"
diff -u "$OUT-d1.stable" "$OUT-d4.stable"
echo "diff: numeric battery, 1 vs 4 domains"
diff -u "$OUT-d1.numeric" "$OUT-d4.numeric"

echo "check: repeated evaluate is a cache hit with the cold bytes"
grep -q '"id":6,"status":"ok","verb":"evaluate","cached":false' "$OUT-d1.numeric"
grep -q '"id":7,"status":"ok","verb":"evaluate","cached":true' "$OUT-d1.numeric"
cold=$(sed -n '1p' "$OUT-d1.numeric" | sed 's/"id":6/"id":7/; s/"cached":false/"cached":true/')
warm=$(sed -n '2p' "$OUT-d1.numeric")
[ "$cold" = "$warm" ]

echo "check: a deadline-bearing repeat is a cache hit with the cold bytes"
grep -q '"id":10,"status":"ok","verb":"evaluate","cached":true' "$OUT-d1.numeric"
cold=$(sed -n '1p' "$OUT-d1.numeric" | sed 's/"id":6/"id":10/; s/"cached":false/"cached":true/')
timed=$(sed -n '5p' "$OUT-d1.numeric")
[ "$cold" = "$timed" ]

echo "check: chaos plan recovers the exact uninjected bytes"
chaos=$(sed -n '3p' "$OUT-d1.numeric" | sed 's/"id":8/"id":9/')
clean=$(sed -n '4p' "$OUT-d1.numeric")
[ "$chaos" = "$clean" ]

rm -f "$OUT-d1.stable" "$OUT-d1.numeric" "$OUT-d4.stable" "$OUT-d4.numeric"
echo "serve smoke: OK"
