#!/usr/bin/env bash
# soak.sh — free-mode chaos soak of the serving tier.
#
# Starts cmd/served with supervision and the /chaos fault endpoint, then
# runs cmd/loadgen against it for SOAK_SECONDS (default 60) while a chaos
# driver repeatedly kills worker incarnations (crash rules at the worker
# fault points) and injects queue delays. The soak passes only if:
#
#   - loadgen exits 0: zero request errors, zero audited linearizability
#     violations, and overall p999 latency under the -max-p999 ceiling
#     (client deadlines + idempotent retries are on, so kills may slow
#     requests but must never fail them);
#   - workers were actually killed and restarted (a vacuous soak fails);
#   - the server leaked no goroutines (post-soak count near the warm
#     baseline) and its RSS growth stayed bounded;
#   - the /metrics exposition agrees: a valid document whose supervision
#     restart counter saw the kills, whose audit-violation counter is 0,
#     and whose server-side latency histogram has a bounded p999
#     (scripts/promcheck does the parsing and the assertions);
#   - the server drains and exits 0 on SIGTERM (exit 3 = audit violation).
#
# Usage:   scripts/soak.sh
# Env:     SOAK_SECONDS=60  SOAK_ADDR=127.0.0.1:7078
#          SOAK_ARTIFACTS=dir  copy the /metrics and /stats snapshots there
#                              (even on failure — CI uploads them for triage)
set -euo pipefail

cd "$(dirname "$0")/.."

DUR="${SOAK_SECONDS:-60}"
ADDR="${SOAK_ADDR:-127.0.0.1:7078}"
URL="http://$ADDR"
TMP="$(mktemp -d)"

served_pid=""
cleanup() {
  if [ -n "${SOAK_ARTIFACTS:-}" ]; then
    mkdir -p "$SOAK_ARTIFACTS"
    curl -fs "$URL/metrics" >"$SOAK_ARTIFACTS/soak-metrics.txt" 2>/dev/null || true
    curl -fs "$URL/stats" >"$SOAK_ARTIFACTS/soak-stats.json" 2>/dev/null || true
    [ -e "$TMP/metrics.txt" ] && cp "$TMP/metrics.txt" "$SOAK_ARTIFACTS/soak-metrics.txt" || true
  fi
  [ -n "$served_pid" ] && kill "$served_pid" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/served" ./cmd/served
go build -o "$TMP/loadgen" ./cmd/loadgen
go build -o "$TMP/promcheck" ./scripts/promcheck

# A huge restart budget: the soak wants sustained recovery, not the
# breaker (the breaker is covered deterministically by service:crash-loop).
"$TMP/served" -addr "$ADDR" -shards 4 -workers-per-shard 2 \
  -chaos -supervise -max-restarts 1000000 &
served_pid=$!

up=0
for _ in $(seq 1 50); do
  if curl -fs "$URL/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.2
done
[ "$up" = 1 ] || { echo "soak: served never came up" >&2; exit 1; }

goroutines() { curl -fs "$URL/stats" | sed -n 's/.*"goroutines":\([0-9]*\).*/\1/p'; }
rss_kb() { awk '/VmRSS/{print $2}' "/proc/$served_pid/status"; }

# Warm the server (connection pool, shard logs) before taking baselines.
"$TMP/loadgen" -addr "$URL" -workers 4 -ops 2000 -timeout 1s -retries 5 >/dev/null
base_g="$(goroutines)"
base_rss="$(rss_kb)"
echo "soak: baseline goroutines=$base_g rss=${base_rss}kB; running ${DUR}s of chaos"

# Chaos driver: one worker kill every ~2s rotating across the commit-path
# fault points, a burst of queue delays every ~10s.
(
  points="worker.preCommit worker.postCommit worker.preApply"
  end=$((SECONDS + DUR))
  i=0
  while [ "$SECONDS" -lt "$end" ]; do
    n=0
    for p in $points; do
      if [ $((i % 3)) -eq "$n" ]; then
        curl -fs -X POST "$URL/chaos" \
          -d "{\"point\":\"$p\",\"action\":\"crash\",\"count\":1}" >/dev/null || true
      fi
      n=$((n + 1))
    done
    if [ $((i % 5)) -eq 0 ]; then
      curl -fs -X POST "$URL/chaos" \
        -d '{"point":"queue.send","action":"delay","delay_ns":2000000,"count":50}' >/dev/null || true
    fi
    i=$((i + 1))
    sleep 2
  done
) &
chaos_pid=$!

"$TMP/loadgen" -addr "$URL" -workers 8 -ops 0 -duration "${DUR}s" \
  -timeout 1s -retries 5 -max-p999 3s
wait "$chaos_pid"

sleep 2 # let in-flight respawns and closed connections settle
end_g="$(goroutines)"
end_rss="$(rss_kb)"
curl -fs "$URL/metrics" >"$TMP/metrics.txt"
restarts="$(sed -n 's/^service_supervision_restarts_total \([0-9]*\)$/\1/p' "$TMP/metrics.txt")"
echo "soak: after chaos goroutines=$end_g rss=${end_rss}kB restarts=${restarts:-0}"

if [ "${restarts:-0}" -eq 0 ]; then
  echo "soak: FAIL — no worker was ever killed and restarted (vacuous soak)" >&2
  exit 1
fi
if [ "$end_g" -gt $((base_g + 20)) ]; then
  echo "soak: FAIL — goroutine leak: $base_g -> $end_g" >&2
  exit 1
fi
if [ "$end_rss" -gt $((base_rss * 3 + 65536)) ]; then
  echo "soak: FAIL — unbounded RSS growth: ${base_rss}kB -> ${end_rss}kB" >&2
  exit 1
fi

# The rest of the same scrape: the exposition must be well-formed, a
# restarted worker's first commit must have been timed, the audit counter
# must be clean, and the server-side latency histogram's p999 must
# stay bounded. The bound is one power-of-two bucket above the loadgen's
# 3s client-side gate: the histogram quantile is conservative (it reports
# the matched bucket's upper bound), and server-side latency excludes the
# client's retries and network time, so 2^32ns ≈ 4.3s is generous without
# being vacuous.
"$TMP/promcheck" -f "$TMP/metrics.txt" \
  -require service_ops_total \
  -require fault_point_fires_total \
  -assert 'service_supervision_recovery_ns_count >= 1' \
  -assert 'service_audit_violations_total == 0' \
  -assert 'service_inflight == 0' \
  -quantile 'service_op_latency_ns p0.999 <= 4294967296'

kill -TERM "$served_pid"
wait "$served_pid" # exit 3 here means the final audit found a violation
served_pid=""
echo "soak: OK — ${restarts} restarts absorbed, no leaks, audit clean"
