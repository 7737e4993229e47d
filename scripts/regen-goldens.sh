#!/usr/bin/env bash
# Regenerates every committed golden file that pins a deterministic report
# byte for byte, in one command:
#
#   tests/golden/check.json            camp-lint check --json (all four engines;
#                                      tests/symmetry.rs and tests/dataflow.rs
#                                      pin their engine's member of it)
#   tests/golden/metrics_figure1.json  the figure-1 camp-obs/v2 snapshot
#   tests/golden/verdicts.json         every checker and lint verdict on
#                                      the seeded and hand-written corpus
#   tests/golden/corpus/mismatched-return.lint.json
#                                      camp-lint trace --json on that trace
#   results/tables.txt                 tables all (every experiment table)
#
# Run after any intentional change to a lint rule, a registered algorithm,
# a handler the static engines read (the reports embed file:line:col
# witnesses, so even moving a struct shifts them) or an experiment's
# output. CI compares each golden byte for byte; a stale one fails
# `scripts/ci.sh`, never production.
#
# The figure-1 trace goldens (figure1.json, figure1_lint.json) are inputs,
# not reports — they are hand-pinned and never regenerated here.
set -euo pipefail
cd "$(dirname "$0")/.."

for t in check metrics verdicts; do
  echo "==> regenerating golden via tests/$t.rs"
  cargo test -q -p campkit --test "$t" -- --ignored regenerate
done

echo "==> verifying the regenerated goldens round-trip"
cargo test -q -p campkit --test check --test symmetry --test dataflow --test metrics \
  --test verdicts

echo "==> regenerating the malformed-trace report via camp-lint trace --json"
# Exit 1 is the expected verdict on a trace with findings.
cargo run --release -q -p camp-lint --bin camp-lint -- trace --json \
  tests/golden/corpus/mismatched-return.json > tests/golden/corpus/mismatched-return.lint.json \
  || [[ $? -eq 1 ]]

echo "==> regenerating results/tables.txt via tables all"
cargo run --release -q -p camp-bench --bin tables -- all > results/tables.txt

git --no-pager diff --stat -- tests/golden/ results/tables.txt || true
echo "goldens regenerated"
