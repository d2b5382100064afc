#!/usr/bin/env bash
# smoke.sh — boot cmd/served, drive it with cmd/loadgen over RPW1, scrape,
# SIGTERM, assert. One driver, four profiles:
#
#   single   one served -wire process: a 64-op batched run and a 16-worker
#            one-op run, both with zero request errors and zero audited
#            violations; one curl POST /op put→get round trip; no
#            goroutine leak.
#   metrics  a live /config reload mid-run (and an invalid reload
#            rejected); /metrics is validated by scripts/promcheck and
#            reconciled exactly against loadgen's client-side -summary
#            ledger (/stats is a view of the same registry, so comparing
#            against it would prove nothing).
#   soak     SMOKE_SOAK_SECONDS of traffic while a chaos driver kills worker
#            incarnations through /chaos and injects queue delays: workers
#            really died and restarted, p999 bounded on the client and in the
#            /metrics histogram, no goroutine leak, bounded RSS.
#   cluster  a 3-node cluster whose shard-0 owner (read from /healthz once
#            ownership settles) is SIGKILLed under load driven through a
#            survivor: zero errors and violations across the failover,
#            >= 1 election won by a survivor after the kill, every shard the
#            victim owned re-owned by a survivor at a higher epoch, no
#            goroutine leak on the survivors, a per-listener drain report;
#            then a pipelined 3-node cluster must clear a batched-throughput
#            floor.
#
# Every served process must drain and exit 0 on SIGTERM (3 = the final
# audit found a violation).
#
# Usage:   scripts/smoke.sh single|metrics|soak|cluster
# Env:     SMOKE_OPS        ops per load run (profile default)
#          SMOKE_BASE_PORT  first port; node i listens on BASE+10+i (HTTP)
#                           and BASE+20+i (RPW1), cluster peers on BASE+i.
#                           Defaults are disjoint per profile.
#          SMOKE_SOAK_SECONDS=60  SMOKE_BATCH_FLOOR=4000 (ops/s)
#          SMOKE_ARTIFACTS=dir  copy every node's last /metrics and /stats
#                               there on exit, failure included
set -euo pipefail

cd "$(dirname "$0")/.."

PROFILE="${1:-}"
case "$PROFILE" in
  single) base=7300 ops=50000 ;;
  metrics) base=7400 ops=20000 ;;
  soak) base=7500 ops=0 ;;
  cluster) base=7600 ops=50000 ;;
  *) echo "usage: $0 single|metrics|soak|cluster" >&2; exit 2 ;;
esac
BASE="${SMOKE_BASE_PORT:-$base}"
OPS="${SMOKE_OPS:-$ops}"
TMP="$(mktemp -d)"

declare -A pid port # node name -> served pid, node name -> its HTTP port
nodes=()

cleanup() {
  for n in "${nodes[@]}"; do snap "$n"; done
  if [ -n "${SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS"
    cp "$TMP"/*-metrics.txt "$TMP"/*-stats.json "$SMOKE_ARTIFACTS/" 2>/dev/null || true
  fi
  for n in "${nodes[@]}"; do kill "${pid[$n]}" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

say() { echo "smoke $PROFILE: $*"; }
fail() { echo "smoke $PROFILE: FAIL — $*" >&2; exit 1; }

url() { echo "http://127.0.0.1:${port[$1]}"; }
wireaddr() { echo "127.0.0.1:$((port[$1] + 10))"; }

# boot NAME I BASE ARGS...: start node I of a port plan rooted at BASE.
boot() {
  local n="$1" i="$2" b="$3"
  shift 3
  port[$n]=$((b + 10 + i))
  "$TMP/served" -addr "127.0.0.1:$((b + 10 + i))" -wire "127.0.0.1:$((b + 20 + i))" "$@" \
    >"$TMP/$n.log" 2>&1 &
  pid[$n]=$!
  nodes+=("$n")
}

healthy() {
  for n in "$@"; do
    for _ in $(seq 1 50); do
      curl -fs "$(url "$n")/healthz" >/dev/null 2>&1 && continue 2
      sleep 0.2
    done
    cat "$TMP/$n.log" >&2
    fail "node $n never came up"
  done
}

# snap NAME: keep the node's latest /metrics and /stats (a dead node keeps
# its previous snapshot).
snap() {
  curl -fs "$(url "$1")/metrics" >"$TMP/m.tmp" 2>/dev/null && mv "$TMP/m.tmp" "$TMP/$PROFILE-$1-metrics.txt"
  curl -fs "$(url "$1")/stats" >"$TMP/s.tmp" 2>/dev/null && mv "$TMP/s.tmp" "$TMP/$PROFILE-$1-stats.json"
  return 0
}

stat() { curl -fs "$(url "$1")/stats" | sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p" | head -n 1; }

# load NAME ARGS...: one loadgen run against NAME's RPW1 listener.
load() {
  local n="$1" log="$TMP/load-$RANDOM.log"
  shift
  if ! "$TMP/loadgen" -addr "$(wireaddr "$n")" "$@" >"$log" 2>&1; then
    cat "$log" >&2
    fail "loadgen reported errors or audit violations"
  fi
  grep -m 1 ' ops/s ' "$log"
  tail -n 2 "$log"
}

# baseline NAME...: warm the nodes (connection pools, shard logs, peer
# links) with a short run through the first, then record goroutine counts.
declare -A base_g
baseline() {
  load "$1" -conns 2 -workers 4 -ops 2000 >/dev/null
  for n in "$@"; do base_g[$n]="$(stat "$n" goroutines)"; done
}

noleak() {
  for n in "$@"; do
    local g
    g="$(stat "$n" goroutines)"
    say "goroutines $n: ${base_g[$n]} -> $g"
    [ "$g" -le $((base_g[$n] + 20)) ] || fail "goroutine leak on $n: ${base_g[$n]} -> $g"
  done
}

# stop NAME...: SIGTERM the nodes; each must drain and exit 0.
stop() {
  for n in "$@"; do snap "$n"; kill -TERM "${pid[$n]}"; done
  for n in "$@"; do
    local rc=0
    wait "${pid[$n]}" || rc=$?
    if [ "$rc" -ne 0 ]; then
      tail -n 20 "$TMP/$n.log" >&2
      fail "node $n exit code $rc (3 = audit violation)"
    fi
  done
}

promcheck() { "$TMP/promcheck" "$@" || fail "/metrics failed its promcheck assertions"; }

go build -o "$TMP/served" ./cmd/served
go build -o "$TMP/loadgen" ./cmd/loadgen
go build -o "$TMP/promcheck" ./scripts/promcheck

case "$PROFILE" in
single)
  boot s 0 "$BASE" -shards 4
  healthy s
  baseline s
  load s -conns 2 -batch 64 -workers 8 -ops "$OPS"
  load s -conns 2 -workers 16 -ops "$OPS"
  curl -fs -X POST "$(url s)/op" -d '{"op":"put","key":"smoke","val":"curl"}' | grep -q '"ok":true' ||
    fail "curl POST /op put was not acknowledged"
  curl -fs -X POST "$(url s)/op" -d '{"op":"get","key":"smoke"}' | grep -q '"val":"curl"' ||
    fail "curl POST /op get did not read the put back"
  noleak s
  stop s
  say "OK — batched and one-op wire runs audit-clean, curl round trip, clean drain"
  ;;

metrics)
  boot m 0 "$BASE" -shards 4 -workers-per-shard 2 -supervise
  healthy m
  # First half of the load, then a live reload, then the second half: the
  # counters scraped at the end span both tunable regimes.
  load m -workers 8 -ops $((OPS / 2)) -summary "$TMP/summary1.json"
  curl -fs -X POST "$(url m)/config" -d '{"max_batch": 16, "audit_sample": 0.5}' >/dev/null
  got="$(curl -fs "$(url m)/config")"
  case "$got" in
    *'"max_batch":16'*) ;;
    *) fail "reload not visible on GET /config: $got" ;;
  esac
  if curl -fs -X POST "$(url m)/config" -d '{"max_batch": 0}' >/dev/null 2>&1; then
    fail "invalid reload was accepted"
  fi
  load m -workers 8 -ops $((OPS - OPS / 2)) -summary "$TMP/summary2.json"

  issued() { sed -n 's/.*"issued": \([0-9]*\).*/\1/p' "$1"; }
  completed=$(($(issued "$TMP/summary1.json") + $(issued "$TMP/summary2.json")))
  windows="$(stat m windows_checked)"
  curl -fs "$(url m)/metrics" >"$TMP/metrics.txt"
  promcheck -f "$TMP/metrics.txt" \
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
  stop m
  say "OK — $completed client ops reconciled against /metrics"
  ;;

soak)
  DUR="${SMOKE_SOAK_SECONDS:-60}"
  # A huge restart budget: the soak wants sustained recovery, not the
  # breaker (the breaker is covered deterministically by service:crash-loop).
  boot k 0 "$BASE" -shards 4 -workers-per-shard 2 -chaos -supervise -max-restarts 1000000
  healthy k
  rss_kb() { awk '/VmRSS/{print $2}' "/proc/${pid[k]}/status"; }
  baseline k
  base_rss="$(rss_kb)"
  say "baseline rss=${base_rss}kB; running ${DUR}s of chaos"

  # Chaos driver: one worker kill every ~2s rotating across the commit-path
  # fault points, a burst of queue delays every ~10s.
  (
    points=(worker.preCommit worker.postCommit worker.preApply)
    end=$((SECONDS + DUR))
    for ((i = 0; SECONDS < end; i++)); do
      curl -fs -X POST "$(url k)/chaos" \
        -d "{\"point\":\"${points[i % 3]}\",\"action\":\"crash\",\"count\":1}" >/dev/null || true
      if [ $((i % 5)) -eq 0 ]; then
        curl -fs -X POST "$(url k)/chaos" \
          -d '{"point":"queue.send","action":"delay","delay_ns":2000000,"count":50}' >/dev/null || true
      fi
      sleep 2
    done
  ) &
  chaos=$!
  load k -workers 8 -ops "$OPS" -duration "${DUR}s" -retries 5 -max-p999 3s
  wait "$chaos"

  sleep 2 # let in-flight respawns and closed connections settle
  end_rss="$(rss_kb)"
  curl -fs "$(url k)/metrics" >"$TMP/metrics.txt"
  restarts="$(sed -n 's/^service_supervision_restarts_total \([0-9]*\)$/\1/p' "$TMP/metrics.txt")"
  say "after chaos rss=${end_rss}kB restarts=${restarts:-0}"
  [ "${restarts:-0}" -gt 0 ] || fail "no worker was ever killed and restarted (vacuous soak)"
  noleak k
  [ "$end_rss" -le $((base_rss * 3 + 65536)) ] || fail "unbounded RSS growth: ${base_rss}kB -> ${end_rss}kB"
  # The same scrape: a restarted worker's first commit was timed, the audit
  # is clean, and the server-side p999 is bounded one power-of-two bucket
  # above the client's 3s gate (the histogram reports the matched bucket's
  # upper bound, so 2^32ns ≈ 4.3s is generous without being vacuous).
  promcheck -f "$TMP/metrics.txt" \
    -require service_ops_total \
    -require fault_point_fires_total \
    -assert 'service_supervision_recovery_ns_count >= 1' \
    -assert 'service_audit_violations_total == 0' \
    -assert 'service_inflight == 0' \
    -quantile 'service_op_latency_ns p0.999 <= 4294967296'
  stop k
  say "OK — ${restarts} restarts absorbed, no leaks, audit clean"
  ;;

cluster)
  # cluster NAME-PREFIX BASE ARGS...: boot and await a 3-node cluster, every
  # node frontend+store over 2 shards.
  cluster() {
    local p="$1" b="$2"
    shift 2
    for i in 0 1 2; do
      boot "$p$i" "$i" "$b" -node "$i" -peers "127.0.0.1:$b,127.0.0.1:$((b + 1)),127.0.0.1:$((b + 2))" \
        -roles frontend,store -shards 2 "$@"
    done
    healthy "${p}0" "${p}1" "${p}2"
  }
  cluster c "$BASE"
  # owners NODE...: "shard owner epoch" for every shard the nodes claim to
  # own, one line per shard; of two claims the higher epoch wins (a deposed
  # owner may not have heard of its successor yet).
  owners() {
    for n in "$@"; do
      curl -fs "$(url "$n")/healthz" |
        grep -o '"shard":[0-9]*,"owner":[0-9]*,"epoch":[0-9]*,"is_owner":true' |
        sed 's/"shard":\([0-9]*\),"owner":\([0-9]*\),"epoch":\([0-9]*\).*/\1 \2 \3/' || true
    done | sort -k1,1n -k3,3nr | awk '!seen[$1]++'
  }
  # failovers NODE...: elections won by the nodes so far.
  failovers() {
    local t=0 f
    for n in "$@"; do
      f="$(curl -fs "$(url "$n")/metrics" | sed -n 's/^cluster_failovers_total \([0-9]*\)$/\1/p')"
      t=$((t + ${f:-0}))
    done
    echo "$t"
  }
  baseline c0 c1 c2
  # Ownership at boot is not the preference order: each node's first dials
  # to peers not yet listening fail, FreeTransport redials a down peer only
  # every 250 ms or more, and the silence outlasts the 150 ms owner timeout,
  # so boots run elections.
  # Wait until every shard has an owner and two reads agree, then kill the
  # node that owns shard 0 at that moment.
  prev="" settled=0
  for _ in $(seq 1 20); do
    cur="$(owners c0 c1 c2)"
    if [ "$(echo "$cur" | grep -c .)" -eq 2 ] && [ "$cur" = "$prev" ]; then
      settled=1
      break
    fi
    prev="$cur"
    sleep 0.5
  done
  [ "$settled" -eq 1 ] || fail "shard ownership never settled: $cur"
  say "owners (shard owner epoch): $(echo "$cur" | paste -sd ';')"
  victim="c$(echo "$cur" | awk '$1 == 0 {print $2}')"
  survivors=()
  for n in c0 c1 c2; do [ "$n" = "$victim" ] || survivors+=("$n"); done
  front="${survivors[0]}"
  say "pushing $OPS ops through $front; SIGKILL $victim (shard-0 owner) mid-run"
  load "$front" -conns 4 -workers 8 -ops "$OPS" &
  lg=$!
  sleep 1.2
  # Only elections the survivors win after the kill count: boot elections
  # prove nothing.
  before="$(failovers "${survivors[@]}")"
  kill -9 "${pid[$victim]}"
  wait "${pid[$victim]}" 2>/dev/null || true
  wait "$lg" || exit 1
  sleep 1 # let post-failover retransmissions and closed peer links settle
  noleak "${survivors[@]}"
  # Read before the SIGTERM: a draining node hands its shards to the other
  # survivor, which would make even a kill-free run look real.
  won=$(($(failovers "${survivors[@]}") - before))
  after="$(owners "${survivors[@]}")"
  stop "${survivors[@]}"
  for n in "${survivors[@]}"; do
    grep -q 'served: drain: http=' "$TMP/$n.log" || fail "node $n printed no per-listener drain report"
    grep -E 'served: (cluster|drain):' "$TMP/$n.log" | sed "s/^/smoke cluster: $n: /"
  done
  say "owners after the kill: $(echo "$after" | paste -sd ';')"
  [ "$won" -gt 0 ] || fail "no survivor won an election after the kill (vacuous smoke)"
  while read -r sh o e; do
    [ "c$o" = "$victim" ] || continue
    now="$(echo "$after" | awk -v s="$sh" '$1 == s {print "c" $2, $3}')"
    [ -n "$now" ] && [ "${now#* }" -gt "$e" ] ||
      fail "shard $sh (owned by $victim at epoch $e) has no surviving owner at a higher epoch (now: ${now:-none})"
  done <<<"$cur"
  say "OK — $won failover(s) absorbed, every shard of $victim re-owned at a higher epoch, audit clean, no leaks"

  # Batched pass: the replication pipeline opened up, 64-op wire batches,
  # and a floor comfortably above the old stop-and-wait path's ~2568 ops/s.
  FLOOR="${SMOKE_BATCH_FLOOR:-4000}"
  cluster b $((BASE + 30)) -max-inflight-entries 32 -batch-window 200us
  load b0 -conns 4 -workers 8 -batch 64 -ops "$OPS" >"$TMP/batched.log"
  cat "$TMP/batched.log"
  rate="$(sed -n 's/.* = \([0-9]*\) ops\/s.*/\1/p' "$TMP/batched.log")"
  [ -n "$rate" ] || fail "could not parse ops/s from the batched loadgen output"
  [ "$rate" -ge "$FLOOR" ] || fail "batched throughput $rate ops/s below floor $FLOOR"
  stop b0 b1 b2
  say "OK — batched pass sustained $rate ops/s (floor $FLOOR)"
  ;;
esac
