#!/usr/bin/env bash
# The full CI gate, runnable locally: tier-1 verify, strict lints on the
# whole workspace, formatting, and the camp-lint static-analysis layer over
# the committed Figure 1 golden trace.
set -euo pipefail
cd "$(dirname "$0")/.."

# First gate, cheapest signal: the static check needs only camp-lint and
# its deps to build, runs no simulated schedule, and catches determinism
# hazards before the expensive full-workspace stages spin up.
echo "==> camp-lint: static source + protocol-graph check (deny warnings)"
cargo run --release -q -p camp-lint --bin camp-lint -- check --deny-warnings

# The symmetry engine must certify every healthy equivariant algorithm and
# convict the seeded asymmetric variant — the certificates it issues are
# what arm the model checker's renaming-quotient canonicalization below.
echo "==> camp-lint: symmetry engine (S030-S035, deny warnings)"
cargo run --release -q -p camp-lint --bin camp-lint -- symmetry --deny-warnings

# The dataflow engine must certify the commuting receive handlers and
# convict the quorum-blocked, content-gated, and misattributing variants —
# the camp-independence-cert/v1 certificates it issues are what widen the
# model checker's sleep sets below. The committed golden pins the whole
# report byte for byte, so any drift in a conviction witness or a
# certificate footprint fails here, not in production.
echo "==> camp-lint: dataflow engine (S040-S048, deny warnings, golden)"
cargo run --release -q -p camp-lint --bin camp-lint -- dataflow --deny-warnings
dataflow_out="$PWD/target/ci.dataflow.json"
cargo run --release -q -p camp-lint --bin camp-lint -- dataflow --json > "$dataflow_out"
python3 - "$dataflow_out" tests/golden/dataflow.json <<'PY'
import json, sys
live = json.load(open(sys.argv[1]))
golden = json.load(open(sys.argv[2]))
assert live == golden, "camp-lint dataflow drifted from tests/golden/dataflow.json; regenerate with scripts/regen-goldens.sh"
print("dataflow report matches the committed golden")
PY

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q

echo "==> clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustfmt check"
cargo fmt --check

echo "==> camp-lint: trace linter on the Figure 1 golden trace"
cargo run --release -q -p camp-lint --bin camp-lint -- trace tests/golden/figure1.json

echo "==> camp-lint: determinism + branch audit of the built-in algorithms"
cargo run --release -q -p camp-lint --bin camp-lint -- audit --seeds 5

echo "==> engine equivalence proptests (release, reduced case count)"
CAMP_PROPTEST_CASES=6 cargo test -q --release -p camp-modelcheck --test engine_equivalence

# The renaming quotient's typed walk: renaming invariance for every
# certified algorithm's Relabel impl, and canonical-vs-plain-vs-baseline
# verdict agreement. Each case is cheap in release, so this stage runs
# eight times the debug default of 16 cases and still takes seconds.
echo "==> canonical quotient proptests (release, raised case count)"
CAMP_PROPTEST_CASES=128 cargo test -q --release -p camp-modelcheck --test canonical

# The smoke run writes to a scratch path so it never clobbers the committed
# full-mode BENCH_explore.json; regenerate that one with scripts/bench.sh.
echo "==> bench smoke: exploration benches reproduce the committed v4 counters"
smoke_out="$PWD/target/BENCH_explore.smoke.json"
smoke_metrics="$PWD/target/BENCH_explore.smoke.metrics.json"
CAMP_BENCH_OUT="$smoke_out" scripts/bench.sh --quick --metrics "$smoke_metrics" >/dev/null
for key in '"schema"' '"camp-bench/explore/v4"' '"explore_fifo_2x2"' \
           '"explore_causal_3"' '"explore_agreed_2"' '"crashsweep_reliable"' \
           '"ns_per_op"' '"executions_per_sec"' '"nodes_per_sec"' \
           '"dedup_hits"' '"sleep_set_prunes"' '"max_frontier"' \
           '"canonical_hits"' '"cert_loaded"' \
           '"independence_prunes"' '"independence_cert"'; do
  grep -q -- "$key" "$smoke_out" \
    || { echo "$smoke_out malformed: missing $key" >&2; exit 1; }
done
# The reduction counters are deterministic, so the smoke run must
# reproduce every non-timing field of every row of the committed
# full-mode BENCH_explore.json exactly: the work done (executions, nodes),
# each reduction's counters, and which certificates were loaded. Any drift
# in the engine, the certificates or the scopes fails here.
python3 - "$smoke_out" BENCH_explore.json <<'PY'
import json, sys
FIELDS = ("executions", "nodes", "dedup_hits", "sleep_set_prunes", "max_frontier",
          "canonical_hits", "cert_loaded", "independence_prunes", "independence_cert")
smoke = {b["name"]: b for b in json.load(open(sys.argv[1]))["benches"]}
committed = {b["name"]: b for b in json.load(open(sys.argv[2]))["benches"]}
assert smoke.keys() == committed.keys(), f"bench rows differ: {sorted(smoke)} vs {sorted(committed)}"
for name, row in committed.items():
    for field in FIELDS:
        assert smoke[name][field] == row[field], \
            f"{name}.{field}: smoke run {smoke[name][field]}, committed {row[field]}"
print(f"bench smoke: {len(FIELDS)} counters x {len(committed)} rows match BENCH_explore.json")
PY
grep -q '"camp-obs/v2"' "$smoke_metrics" \
  || { echo "$smoke_metrics malformed: missing camp-obs/v2 schema" >&2; exit 1; }

# The timeline view over the figure-1 scope must render non-empty lanes:
# every process row needs at least one non-idle glyph, or the
# Execution→Timeline derivation has silently decayed.
echo "==> tables timeline: figure-1 lanes render non-empty"
timeline_out="$PWD/target/ci.timeline.txt"
cargo run --release -q -p camp-bench --bin tables -- timeline > "$timeline_out"
python3 - "$timeline_out" <<'PY'
import re, sys
text = open(sys.argv[1]).read()
lanes = re.findall(r"^p(\d+) \|(.*)$", text, re.M)
assert len(lanes) >= 4, f"expected at least 4 process lanes, got {len(lanes)}"
for pid, row in lanes:
    assert row.strip("."), f"lane p{pid} is empty: {row!r}"
print(f"timeline: {len(lanes)} non-empty lanes")
PY

echo "==> metrics goldens: camp-lint check --metrics matches tests/golden"
cargo test -q --release -p campkit --test metrics

echo "==> independence differential: lint-issued certs vs plain engine (release)"
CAMP_PROPTEST_CASES=6 cargo test -q --release -p campkit --test independence

# The chaos gate: every healthy algorithm under its pinned 25%-drop plan
# (drops injected, loss recovered by retransmission, retransmit-attempts
# histogram showing tail-bucket mass, restricted trace spec-clean) plus
# the 32-plan seeded soak with crash points — a failing soak plan dumps
# its flight recording as target/chaos-soak-seed<N>.trace.json. The crash
# conformance half lives in tests/differential.rs and already ran under
# the workspace stage; this re-runs the seeded adversaries in release.
echo "==> chaos smoke + seeded fault soak (release)"
cargo test -q --release --test chaos

# The benchmark package has its own manifest and lock file outside the
# workspace, so no stage above compiles it. `check` builds it and runs
# every workload once at its smallest size, traced and untraced,
# verifying each op's output.
echo "==> campbench check: the benchmark package builds and every workload passes"
cargo run --release --offline -q --manifest-path crates/bench/src/bin/campbench/Cargo.toml -- check

echo "CI OK"
