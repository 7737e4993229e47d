#!/usr/bin/env bash
# Runs the performance benches in release mode and leaves their
# machine-readable ledgers at the repo root: BENCH_explore.json (the
# exploration engine) and BENCH_theorem.json (the Theorem-1 pipeline).
# Set CAMP_BENCH_OUT to a directory to write the ledgers there instead.
#
# Usage:
#   scripts/bench.sh                    # full run (10 samples per bench)
#   scripts/bench.sh --quick            # CI smoke run (3 samples per bench)
#   scripts/bench.sh --all              # the ledger benches plus the legacy suites
#   scripts/bench.sh --metrics OUT.json # also write explore's camp-obs/v2 snapshot
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
all=0
metrics=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=1 ;;
    --all) all=1 ;;
    --metrics)
      [[ $# -ge 2 ]] || { echo "--metrics needs a file argument" >&2; exit 2; }
      metrics="$2"
      shift
      ;;
    *)
      echo "unknown argument: $1" >&2
      echo "usage: scripts/bench.sh [--quick] [--all] [--metrics OUT.json]" >&2
      exit 2
      ;;
  esac
  shift
done

# Cargo runs each bench from its package directory, so hand it an
# absolute ledger directory.
if [[ -n "${CAMP_BENCH_OUT:-}" ]]; then
  export CAMP_BENCH_OUT="$(realpath -m "$CAMP_BENCH_OUT")"
fi

[[ "$quick" -eq 1 ]] && export CAMP_BENCH_QUICK=1

echo "==> bench: exploration engine (BENCH_explore.json)"
if [[ -n "$metrics" ]]; then
  CAMP_BENCH_METRICS="$metrics" cargo bench -q -p camp-bench --bench explore
else
  cargo bench -q -p camp-bench --bench explore
fi

echo "==> bench: Theorem-1 pipeline (BENCH_theorem.json)"
cargo bench -q -p camp-bench --bench theorem

if [[ "$all" -eq 1 ]]; then
  echo "==> bench: legacy suites (broadcast, specs, modelcheck)"
  cargo bench -q -p camp-bench --bench broadcast
  cargo bench -q -p camp-bench --bench specs
  cargo bench -q -p camp-bench --bench modelcheck
fi

for layer in explore theorem; do
  out="${CAMP_BENCH_OUT:-.}/BENCH_$layer.json"
  echo "==> $out"
  cat "$out"
done

if [[ -n "$metrics" ]]; then
  echo "==> $metrics"
  cat "$metrics"
fi
