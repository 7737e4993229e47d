#!/usr/bin/env bash
# Runs the five bench targets in release mode and prints the ledger each
# leaves at the repo root: BENCH_sim.json (fair runs in the simulator),
# BENCH_specs.json (the spec checkers), BENCH_explore.json (the model
# checker), BENCH_theorem.json (the Theorem-1 pipeline) and BENCH_lint.json
# (camp-lint's static check). Every target
# times its calls through camp_bench::sample. Set CAMP_BENCH_OUT to a
# directory to write the ledgers there instead.
#
# Usage:
#   scripts/bench.sh                    # full run (10 rounds)
#   scripts/bench.sh --quick            # CI smoke run (3 rounds)
#   scripts/bench.sh --metrics OUT.json # also write explore's camp-obs/v2 snapshot
set -euo pipefail
cd "$(dirname "$0")/.."

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) export CAMP_BENCH_QUICK=1 ;;
    --metrics)
      [[ $# -ge 2 ]] || { echo "--metrics needs a file argument" >&2; exit 2; }
      # Cargo runs each bench from its package directory, so hand it
      # absolute paths.
      export CAMP_BENCH_METRICS="$(realpath -m "$2")"
      shift
      ;;
    *)
      echo "unknown argument: $1" >&2
      echo "usage: scripts/bench.sh [--quick] [--metrics OUT.json]" >&2
      exit 2
      ;;
  esac
  shift
done

if [[ -n "${CAMP_BENCH_OUT:-}" ]]; then
  export CAMP_BENCH_OUT="$(realpath -m "$CAMP_BENCH_OUT")"
fi

for target in sim specs explore theorem lint; do
  echo "==> bench: $target"
  cargo bench -q -p camp-bench --bench "$target"
  cat "${CAMP_BENCH_OUT:-.}/BENCH_$target.json"
done

if [[ -n "${CAMP_BENCH_METRICS:-}" ]]; then
  echo "==> $CAMP_BENCH_METRICS"
  cat "$CAMP_BENCH_METRICS"
fi
