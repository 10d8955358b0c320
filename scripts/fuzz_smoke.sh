#!/usr/bin/env bash
# Hostile-input smoke test against the shipped `limscan` binary:
#
#  1. feed the daemon a 1 GiB newline-free frame — it must answer with the
#     typed `too_large` error, close that connection, keep its memory
#     bounded (the frame is never buffered past the cap), and keep serving;
#  2. open twice the connection cap as slow-loris clients — the excess
#     must be shed with the typed `overloaded` error and the daemon must
#     recover once the read timeout reaps the holders;
#  3. run a hierarchical `.subckt` BLIF through generate -> compact ->
#     equiv, proving the flattening front-end feeds the full flow;
#  4. check the `--limit` ceilings reject an over-budget netlist with the
#     typed error on both `limscan lint` and a daemon submit.
#
# Usage: scripts/fuzz_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

cargo build --release -q -p limscan-serve
LIMSCAN=target/release/limscan
STATE="$WORK/state"
SOCK="$WORK/serve.sock"

client() { "$LIMSCAN" client "$SOCK" --retry 12 "$1"; }

echo "== start daemon with small transport caps =="
# 1 MiB frame cap, 4-connection cap, 3 s read timeout: small enough to
# attack quickly, large enough for real submits.
"$LIMSCAN" serve "$STATE" --socket "$SOCK" --workers 2 --slice 1 \
    --max-frame-bytes 1048576 --max-conns 4 --read-timeout 3 \
    --limit nets=10000 2>"$WORK/daemon.log" &
DAEMON_PID=$!
client '{"verb":"list"}' >/dev/null \
    || { echo "FAIL: daemon never accepted a connection"; exit 1; }

echo "== 1 GiB newline-free frame gets too_large, bounded memory =="
SOCK="$SOCK" DAEMON_PID="$DAEMON_PID" python3 - <<'PY'
import os, socket, sys

sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.connect(os.environ["SOCK"])
sock.settimeout(30)
chunk = b"a" * (1 << 20)
sent = 0
try:
    for _ in range(1024):  # 1 GiB total, no newline anywhere
        sock.sendall(chunk)
        sent += len(chunk)
except (BrokenPipeError, ConnectionResetError):
    # The daemon answered and closed long before we finished: exactly the
    # wanted behaviour. The response is still readable.
    pass
try:
    response = sock.recv(4096).decode("utf-8", "replace")
except OSError:
    response = ""
print(f"sent {sent >> 20} MiB, response: {response.strip()!r}")
if '"code":"too_large"' not in response:
    sys.exit("FAIL: no typed too_large response")

# The daemon must not have buffered the flood: its peak RSS stays far
# below the 1 GiB sent (the cap is 1 MiB + stream buffers).
with open(f"/proc/{os.environ['DAEMON_PID']}/status") as f:
    for line in f:
        if line.startswith("VmHWM"):
            hwm_kb = int(line.split()[1])
            print(f"daemon VmHWM: {hwm_kb} kB")
            if hwm_kb > 300_000:
                sys.exit(f"FAIL: daemon peak memory {hwm_kb} kB suggests the frame was buffered")
            break
PY
client '{"verb":"list"}' >/dev/null \
    || { echo "FAIL: daemon dead after oversized frame"; exit 1; }
echo "ok: too_large answered, memory bounded, daemon alive"

echo "== slow-loris at 2x the connection cap is shed =="
SOCK="$SOCK" python3 - <<'PY'
import os, socket, sys, time

path = os.environ["SOCK"]
holders = []
for _ in range(4):  # fill the cap with clients that never finish a frame
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(path)
    s.sendall(b"x")
    holders.append(s)
shed = 0
for _ in range(4):  # 2x the cap in total
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(path)
    s.settimeout(10)
    data = s.recv(4096).decode("utf-8", "replace")
    if '"code":"overloaded"' not in data:
        sys.exit(f"FAIL: expected overloaded shed, got {data.strip()!r}")
    shed += 1
    s.close()
print(f"shed {shed} excess connections with typed errors")
time.sleep(4)  # read timeout (3 s) reaps the holders
for s in holders:
    s.close()
PY
client '{"verb":"list"}' >/dev/null \
    || { echo "FAIL: daemon did not recover from slow-loris"; exit 1; }
echo "ok: excess shed, holders reaped, daemon alive"

echo "== submit past the daemon's --limit ceiling is refused =="
# 10k nets allowed; this inline netlist declares far fewer but the probe
# uses a tight ceiling via the bench payload: build one over 10k nets.
python3 - > "$WORK/big.json" <<'PY'
lines = ["INPUT(i0)"]
lines += [f"n{k} = NOT({'i0' if k == 0 else f'n{k-1}'})" for k in range(12000)]
lines += ["OUTPUT(n11999)"]
bench = "\\n".join(lines)
print('{"verb":"submit","tenant":"t","kind":"generate","circuit":"big","bench":"%s"}' % bench)
PY
# The frame is ~400 KiB — past ARG_MAX for a single argv string, so it
# goes through the client's stdin mode (which is also the transport the
# frame cap actually meters).
response="$("$LIMSCAN" client "$SOCK" --retry 12 < "$WORK/big.json" || true)"
case "$response" in
    *'"ok":false'*'net count limit exceeded'*) echo "ok: over-limit submit refused with typed error" ;;
    *) echo "FAIL: over-limit submit not refused: $response"; exit 1 ;;
esac

echo "== clean daemon shutdown =="
client '{"verb":"shutdown"}' >/dev/null
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "== hierarchical .subckt BLIF runs generate -> compact -> equiv =="
cat > "$WORK/hier.blif" <<'BLIF'
.model top
.inputs a b sel
.outputs y
.latch d q 0
.subckt stage x=a s=sel z=u
.subckt stage x=b s=sel z=v
.names u v d
11 1
.names q u y
10 1
01 1
.end
.model stage
.inputs x s
.outputs z
.names x s z
11 1
.end
BLIF
"$LIMSCAN" info "$WORK/hier.blif"
"$LIMSCAN" generate "$WORK/hier.blif" -o "$WORK/hier.txt" >/dev/null
"$LIMSCAN" compact "$WORK/hier.blif" "$WORK/hier.txt" -o "$WORK/hier2.txt" >/dev/null
"$LIMSCAN" equiv "$WORK/hier.blif" --scan --chains 1 >/dev/null
echo "ok: flattened hierarchy survives the full flow"

echo "== lint --limit surfaces L007 =="
printf 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n' > "$WORK/tiny.bench"
if "$LIMSCAN" lint "$WORK/tiny.bench" --limit nets=2 >"$WORK/lint.out" 2>&1; then
    echo "FAIL: lint exited 0 despite a limit violation"; exit 1
fi
grep -q "L007" "$WORK/lint.out" \
    || { echo "FAIL: no L007 finding in lint output"; cat "$WORK/lint.out"; exit 1; }
"$LIMSCAN" lint "$WORK/tiny.bench" >/dev/null \
    || { echo "FAIL: default limits flag a tiny netlist"; exit 1; }
echo "ok: lint enforces --limit ceilings as L007"

echo "OK: fuzz smoke passed"
