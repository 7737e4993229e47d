#!/usr/bin/env bash
# The static-analysis gate on its own: the payload-inspection source rule
# (S009), protocol-graph analysis (S02x), the symmetry engine (S03x) and the
# dataflow engine (S04x) over the whole workspace; every finding fails the
# run. The determinism bans are clippy's: see lints/clippy.toml.
# Extra flags are passed through, e.g.:
#
#   scripts/lint.sh --json              machine-readable CheckReport
#   scripts/lint.sh --timings           include per-crate / per-pass wall times
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release -q -p camp-lint --bin camp-lint -- check "$@"
