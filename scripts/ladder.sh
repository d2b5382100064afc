#!/usr/bin/env bash
# ladder.sh — run the serving ladder (bench/run.sh, the benchmark's command)
# briefly and gate it on what a shared machine still measures exactly: each
# workload for 1 s untraced, then one traced pass over all four. It fails
# when a run fails its own checks ("correct":false or a non-zero exit) or
# when a rung's allocs_per_op is above its budget. Timings are printed and
# never compared: on a shared runner they say nothing about the code.
#
# Usage:   scripts/ladder.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Budgets in allocs/op, seed 1, 1 s windows. Measured on 2 vCPUs: clean
# runs at GOMAXPROCS=2 and GOMAXPROCS=4 (20 each for store-batch and
# wire-single, 10 each for the cluster rungs), and 2 runs each with one
# extra heap object per op planted (in the service submit path for
# store-batch and wire-single, in the cluster front end's per-op routing
# loop for the cluster rungs). Each budget sits between the two.
#
#   workload        budget  clean (P=2 | P=4)              planted
budgets=(
  "store-batch     0.2     0.066-0.091 | 0.060-0.087      1.061-1.062"
  "wire-single     2.6     2.082-2.090 | 2.081-2.087      3.084-3.087"
  "cluster-batch   2.4     1.62-2.16   | 1.67-1.80        2.68-2.81"
  "cluster-single  4.2     3.63-3.75   | 3.59-3.64        4.60-4.70"
)

log=$(mktemp)
trap 'rm -f "$log"' EXIT
fail=0

# run <label> <bench/run.sh args...>: one run, its output streamed; a failed
# check marks the ladder failed but the remaining rungs still run.
run() {
  local label=$1
  shift
  if ! bash bench/run.sh "$@" | tee "$log"; then
    echo "ladder: $label: run exited non-zero" >&2
    fail=1
  elif grep -q '"correct":false' "$log" || ! grep -q '"correct":true' "$log"; then
    echo "ladder: $label: results failed their checks" >&2
    fail=1
  fi
}

summary=()
for row in "${budgets[@]}"; do
  read -r w budget _ <<<"$row"
  run "$w" --workload "$w" --seed 1 --seconds 1 --trace 0
  got=$(tail -n 1 "$log" | sed -n 's/.*"allocs_per_op":{"value":\([^,}]*\).*/\1/p')
  verdict=ok
  if [ -z "$got" ]; then
    verdict="FAIL (no allocs_per_op)"
    fail=1
  elif awk -v g="$got" -v b="$budget" 'BEGIN { exit !(g > b) }'; then
    verdict=FAIL
    fail=1
  fi
  summary+=("$(printf '%-15s allocs/op %-8.8s budget %-5s %s' "$w" "${got:-?}" "$budget" "$verdict")")
done
run traced --seed 1 --seconds 1 --trace 1

echo "== ladder"
printf '%s\n' "${summary[@]}"
exit "$fail"
