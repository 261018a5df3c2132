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
cat > "$WORK/neighbors.conf" <<NEIGH
127.0.0.1:53910
127.0.0.1:53911
127.0.0.1:53912
127.0.0.1:53913
NEIGH

step "starting 4 zht-server daemons"
for i in 0 1 2 3; do
  "$BUILD_DIR/tools/zht-server" --neighbors "$WORK/neighbors.conf" \
      --self "$i" > "$WORK/s$i.log" 2>&1 &
  PIDS+=($!)
done

step "waiting for daemons to listen"
for _ in $(seq 1 50); do
  if "$BUILD_DIR/tools/zht-cli" --neighbors "$WORK/neighbors.conf" \
      ping 3 2>/dev/null | grep -q OK; then
    break
  fi
  sleep 0.1
done

cli() { "$BUILD_DIR/tools/zht-cli" --neighbors "$WORK/neighbors.conf" "$@"; }

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
