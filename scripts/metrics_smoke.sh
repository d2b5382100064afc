#!/usr/bin/env bash
# metrics_smoke.sh — end-to-end smoke of the observability surface.
#
# Starts cmd/served, drives 20k ops of mixed traffic through cmd/loadgen,
# exercises a live /config reload mid-run, scrapes /metrics, and reconciles
# the exposition against independent ledgers with scripts/promcheck:
#
#   - the exposition is well-formed (names, escapes, TYPE placement,
#     cumulative histogram buckets, _count == +Inf bucket);
#   - sum(service_ops_total) and the latency histogram's _count equal the
#     ops the loadgen actually completed (client-side ledger from -summary;
#     /stats is a view of the same registry, so comparing against it would
#     prove nothing);
#   - no worker was restarted or condemned (nothing injects a crash here);
#   - audit windows were actually checked, with zero violations;
#   - service_inflight drained back to 0 after the run.
#
# Usage:   scripts/metrics_smoke.sh
# Env:     SMOKE_OPS=20000  SMOKE_ADDR=127.0.0.1:7079
set -euo pipefail

cd "$(dirname "$0")/.."

OPS="${SMOKE_OPS:-20000}"
ADDR="${SMOKE_ADDR:-127.0.0.1:7079}"
URL="http://$ADDR"
TMP="$(mktemp -d)"

served_pid=""
cleanup() {
  [ -n "$served_pid" ] && kill "$served_pid" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/served" ./cmd/served
go build -o "$TMP/loadgen" ./cmd/loadgen
go build -o "$TMP/promcheck" ./scripts/promcheck

"$TMP/served" -addr "$ADDR" -shards 4 -workers-per-shard 2 -supervise &
served_pid=$!

up=0
for _ in $(seq 1 50); do
  if curl -fs "$URL/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.2
done
[ "$up" = 1 ] || { echo "metrics-smoke: served never came up" >&2; exit 1; }

stat() { curl -fs "$URL/stats" | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p" | head -n 1; }

# First half of the load, then a live reload, then the second half: the
# counters scraped at the end span both tunable regimes.
"$TMP/loadgen" -addr "$URL" -workers 8 -ops $((OPS / 2)) \
  -summary "$TMP/summary1.json"

curl -fs -X POST "$URL/config" -d '{"max_batch": 16, "audit_sample": 0.5}' >/dev/null
got="$(curl -fs "$URL/config")"
case "$got" in
  *'"max_batch":16'*) ;;
  *) echo "metrics-smoke: reload not visible on GET /config: $got" >&2; exit 1 ;;
esac
if curl -fs -X POST "$URL/config" -d '{"max_batch": 0}' >/dev/null 2>&1; then
  echo "metrics-smoke: invalid reload was accepted" >&2
  exit 1
fi

"$TMP/loadgen" -addr "$URL" -workers 8 -ops $((OPS - OPS / 2)) \
  -summary "$TMP/summary2.json"

issued() { sed -n 's/.*"issued": \([0-9]*\).*/\1/p' "$1"; }
completed=$(( $(issued "$TMP/summary1.json") + $(issued "$TMP/summary2.json") ))
windows="$(stat windows_checked)"

curl -fs "$URL/metrics" >"$TMP/metrics.txt"

"$TMP/promcheck" -f "$TMP/metrics.txt" \
  -require service_ops_total \
  -require service_op_latency_ns \
  -require service_batches_total \
  -require service_batch_occupancy \
  -require service_queue_depth \
  -require service_committed \
  -require service_audit_windows_total \
  -require service_audit_sampled_total \
  -assert "service_ops_total == $completed" \
  -assert "service_op_latency_ns_count == $completed" \
  -assert "service_supervision_restarts_total == 0" \
  -assert "service_supervision_condemned_total == 0" \
  -assert "service_audit_windows_total >= 1" \
  -assert "service_audit_windows_total >= ${windows:-1}" \
  -assert "service_audit_violations_total == 0" \
  -assert "service_inflight == 0"

kill -TERM "$served_pid"
wait "$served_pid"
served_pid=""
echo "metrics-smoke: OK — $completed client ops reconciled against /metrics"
