#!/usr/bin/env bash
# End-to-end test of the standalone deployment: 4 zht-server daemons over
# real TCP/UDP on localhost, driven by zht-cli (including the batched
# mput/mget commands).
set -euo pipefail

BUILD_DIR="$1"
WORK=$(mktemp -d)
PIDS=()
cleanup() {
  if [ "${#PIDS[@]}" -gt 0 ]; then
    kill "${PIDS[@]}" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

step() { echo "== $*"; }

step "writing neighbor file"
# The daemons bind four ports just below the kernel's ephemeral range, so a
# client socket the kernel gave one of them (say, one still in TIME_WAIT)
# cannot make a daemon's bind fail. The block is picked by PID so that two
# runs at once seldom share it.
LOW=32768
if [ -r /proc/sys/net/ipv4/ip_local_port_range ]; then
  read -r LOW _ < /proc/sys/net/ipv4/ip_local_port_range
fi
BASE=$((LOW - 4 * (1 + $$ % 64)))
for i in 0 1 2 3; do
  echo "127.0.0.1:$((BASE + i))"
done > "$WORK/neighbors.conf"

step "starting 4 zht-server daemons"
for i in 0 1 2 3; do
  "$BUILD_DIR/tools/zht-server" --neighbors "$WORK/neighbors.conf" \
      --self "$i" > "$WORK/s$i.log" 2>&1 &
  PIDS+=($!)
done

cli() { "$BUILD_DIR/tools/zht-cli" --neighbors "$WORK/neighbors.conf" "$@"; }

step "waiting for every daemon to answer ping"
for i in 0 1 2 3; do
  for attempt in $(seq 1 50); do
    if cli ping "$i" 2>/dev/null | grep -q OK; then
      break
    fi
    if [ "$attempt" -eq 50 ]; then
      echo "daemon $i (127.0.0.1:$((BASE + i))) never answered ping; its log:"
      cat "$WORK/s$i.log"
      exit 1
    fi
    sleep 0.1
  done
done

step "insert/lookup/append/remove round-trip"
test "$(cli insert alpha one)" = "OK"
test "$(cli lookup alpha)" = "one"
test "$(cli append alpha -two)" = "OK"
test "$(cli lookup alpha)" = "one-two"
test "$(cli remove alpha)" = "OK"
# A missing key is a NOT_FOUND status and a non-zero cli exit — expected.
(cli lookup alpha || true) | grep -q NOT_FOUND

step "batched mput/mget across instances"
test "$(cli mput k1 v1 k2 v2 k3 v3 k4 v4 | grep -c OK)" = "4"
test "$(cli mput k5 v5 k6 v6 | grep -c OK)" = "2"
test "$(cli mget k1 k2 k3 k4 k5 k6 | grep -c ' v')" = "6"
test "$(cli mget k2)" = "k2 v2"
(cli mget k1 missing-key || true) | grep -q NOT_FOUND

step "ping and stats"
cli ping 2 | grep -q OK
cli insert stats-key v | grep -q OK
cli stats 0 > "$WORK/stats0.txt"
grep -q "instance = 0" "$WORK/stats0.txt"
grep -q "^server.ops = " "$WORK/stats0.txt"
# One name per event: no metric name appears twice.
test -z "$(sed -E 's/( = |: ).*//' "$WORK/stats0.txt" | sort | uniq -d)"

step "bench over cached TCP"
cli bench 100 | grep -q "0 failures"

step "bench over UDP"
cli --udp bench 100 | grep -q "0 failures"

echo "tools e2e: all checks passed"
