#!/usr/bin/env bash
# Kill-and-resume smoke test for the resilient flow CLI.
#
# Two interruption styles, both ending in the same assertion — the resumed
# run's final test program is byte-identical to an uninterrupted run's:
#
#  1. deterministic: `--max-vectors 1` stops generation at a typed budget
#     limit (exit status 3) with a checkpoint in --snapshots DIR;
#  2. violent: a second run is SIGKILLed as soon as its first checkpoint
#     lands on disk (if the circuit finishes before the kill, the run's own
#     output is compared instead — small circuits are legitimately fast).
#
# Then the compaction path: `generate --no-compact` piped through
# `compact` must reproduce `generate` byte for byte, with one chain and
# with two, and a budgeted `compact` must exit 3 with a program no longer
# than its input.
#
# Usage: scripts/resume_smoke.sh [benchmark-name]   (default: s298)
set -euo pipefail
cd "$(dirname "$0")/.."

CIRCUIT="${1:-s298}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cargo build --release -q -p limscan-serve
LIMSCAN=target/release/limscan

echo "== reference: uninterrupted run =="
"$LIMSCAN" generate "$CIRCUIT" -o "$WORK/full.txt" >/dev/null

latest_snapshot() { # $1 = snapshot dir -> path of the highest-numbered snapshot
    ls "$1"/*.snap 2>/dev/null | sort | tail -n 1
}

echo "== 1: budget stop (exit 3) + resume =="
set +e
"$LIMSCAN" generate "$CIRCUIT" --max-vectors 1 --snapshots "$WORK/snaps1" >/dev/null
status=$?
set -e
[ "$status" -eq 3 ] || { echo "FAIL: expected exit status 3, got $status"; exit 1; }
snap="$(latest_snapshot "$WORK/snaps1")"
[ -n "$snap" ] || { echo "FAIL: budget stop left no snapshot"; exit 1; }
"$LIMSCAN" resume "$snap" -o "$WORK/resumed1.txt" >/dev/null
diff -q "$WORK/full.txt" "$WORK/resumed1.txt" >/dev/null \
    || { echo "FAIL: budget-stop resume diverged from the full run"; exit 1; }
echo "ok: budget-stop resume is byte-identical"

echo "== 2: SIGKILL mid-run + resume =="
"$LIMSCAN" generate "$CIRCUIT" -o "$WORK/killed.txt" --snapshots "$WORK/snaps2" >/dev/null &
pid=$!
# Kill as soon as the first checkpoint exists; give up politely if the run
# finishes first.
while kill -0 "$pid" 2>/dev/null && [ -z "$(latest_snapshot "$WORK/snaps2")" ]; do
    sleep 0.02
done
if kill -9 "$pid" 2>/dev/null; then
    wait "$pid" 2>/dev/null || true
    snap="$(latest_snapshot "$WORK/snaps2")"
    [ -n "$snap" ] || { echo "FAIL: killed run left no snapshot"; exit 1; }
    "$LIMSCAN" resume "$snap" -o "$WORK/resumed2.txt" >/dev/null
    diff -q "$WORK/full.txt" "$WORK/resumed2.txt" >/dev/null \
        || { echo "FAIL: post-SIGKILL resume diverged from the full run"; exit 1; }
    echo "ok: post-SIGKILL resume is byte-identical"
else
    wait "$pid"
    diff -q "$WORK/full.txt" "$WORK/killed.txt" >/dev/null \
        || { echo "FAIL: uninterrupted snapshot run diverged from the full run"; exit 1; }
    echo "ok: run outpaced the kill; output verified byte-identical instead"
fi

# No torn writes: every file in either snapshot dir must be a complete
# snapshot (temp files are dot-prefixed and must not survive).
for dir in "$WORK/snaps1" "$WORK/snaps2"; do
    [ -d "$dir" ] || continue
    leftovers="$(find "$dir" -name '.*.tmp' | wc -l)"
    [ "$leftovers" -eq 0 ] || { echo "FAIL: $leftovers temp file(s) left in $dir"; exit 1; }
done
echo "== 3: generate --no-compact, then compact =="
"$LIMSCAN" generate "$CIRCUIT" --no-compact -o "$WORK/uncompacted.txt" >/dev/null
"$LIMSCAN" compact "$CIRCUIT" "$WORK/uncompacted.txt" -o "$WORK/recompacted.txt" >/dev/null
cmp -s "$WORK/full.txt" "$WORK/recompacted.txt" \
    || { echo "FAIL: generate --no-compact | compact differs from generate"; exit 1; }
echo "ok: compacting the uncompacted program reproduces generate byte for byte"
"$LIMSCAN" generate "$CIRCUIT" --chains 2 -o "$WORK/full2.txt" >/dev/null
"$LIMSCAN" generate "$CIRCUIT" --chains 2 --no-compact -o "$WORK/uncompacted2.txt" >/dev/null
"$LIMSCAN" compact "$CIRCUIT" "$WORK/uncompacted2.txt" --chains 2 \
    -o "$WORK/recompacted2.txt" >/dev/null
cmp -s "$WORK/full2.txt" "$WORK/recompacted2.txt" \
    || { echo "FAIL: generate --chains 2 --no-compact | compact --chains 2 differs from generate --chains 2"; exit 1; }
echo "ok: the same holds with two chains"

echo "== 4: budgeted compact (exit 3, best program so far) =="
set +e
"$LIMSCAN" compact "$CIRCUIT" "$WORK/uncompacted.txt" --max-vectors 1 \
    -o "$WORK/stopped.txt" >/dev/null 2>&1
status=$?
set -e
[ "$status" -eq 3 ] || { echo "FAIL: expected exit status 3, got $status"; exit 1; }
vectors() { grep -c '^V ' "$1"; }
[ "$(vectors "$WORK/stopped.txt")" -le "$(vectors "$WORK/uncompacted.txt")" ] \
    || { echo "FAIL: the stopped compaction wrote a longer program than its input"; exit 1; }
echo "ok: budgeted compact stopped with status 3 and kept a program no longer than its input"

echo "OK: resume smoke passed for $CIRCUIT"
