#!/usr/bin/env bash
# The full CI gate, runnable locally: the protocol crates' determinism fence
# (clippy's shared ban list), strict lints on the whole workspace, the
# camp-lint static check and its certificate store, tier-1 verify,
# formatting, the API docs, and the camp-lint trace linter over the
# committed Figure 1 golden trace.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every stage starts with `stage`, which closes the stage before it: a
# stage's wall time prints when it ends, and `stage_summary` lists them all
# before CI OK (ROADMAP counts this script's wall time as an end-to-end
# number).
stage_names=()
stage_ms=()
stage_name=""
stage_t0=0
ci_t0=$(date +%s%N)
seconds() { printf '%d.%03d s' $(($1 / 1000)) $(($1 % 1000)); }
end_stage() {
  [[ -n "$stage_name" ]] || return 0
  local ms=$((($(date +%s%N) - stage_t0) / 1000000))
  stage_names+=("$stage_name")
  stage_ms+=("$ms")
  echo "    ($(seconds "$ms"))"
  stage_name=""
}
stage() {
  end_stage
  stage_name="$1"
  stage_t0=$(date +%s%N)
  echo "==> $1"
}
stage_summary() {
  end_stage
  echo "==> wall time per stage"
  local i
  for i in "${!stage_names[@]}"; do
    printf '%12s  %s\n' "$(seconds "${stage_ms[$i]}")" "${stage_names[$i]}"
  done
  printf '%12s  %s\n' "$(seconds $((($(date +%s%N) - ci_t0) / 1000000)))" "total"
}

# First gate, cheapest signal: one fixture file, compiled alone against the
# shared ban list in lints/clippy.toml before anything else builds. It holds
# one violation per determinism rule the lexical camp-lint pass used to
# enforce (S001-S008, S010), a stale #[expect] (S011) and one use that an
# #[expect] covers. Each violation must still be rejected exactly once and
# the covered use must stay silent, or the clippy stage below proves nothing.
stage "clippy ban list: the fixture trips every retired S00x rule"
mkdir -p target
violations_json="$PWD/target/ci.violations.json"
if CLIPPY_CONF_DIR="$PWD/lints" clippy-driver --edition 2021 --crate-type lib \
     --emit=metadata -D warnings --error-format=json --out-dir "$PWD/target" \
     lints/violations.rs 2> "$violations_json"; then
  echo "lints/violations.rs compiled: the ban list no longer rejects it" >&2
  exit 1
fi
python3 - "$violations_json" lints/violations.rs <<'PY'
import collections, json, sys
EXPECTED = {
    "S001": ["use of a disallowed type `std::collections::HashMap`",
             "use of a disallowed type `std::collections::HashSet`"],
    "S002": ["use of a disallowed type `std::time::Instant`",
             "use of a disallowed type `std::time::SystemTime`"],
    "S003": ["use of a disallowed type `f32`", "use of a disallowed type `f64`"],
    "S004": ["use of a disallowed type `std::hash::RandomState`"],
    "S005, static mut": ["usage of an `unsafe` block"],
    "S006": ["use of a disallowed method `std::thread::spawn`"],
    "S007": ["use of a disallowed type `std::sync::OnceLock`",
             "use of a disallowed type `std::cell::OnceCell`"],
    "S008": ["use of a disallowed method `std::process::exit`",
             "use of a disallowed method `std::process::abort`"],
    "S010": ["use of a disallowed method `std::env::var`",
             "use of a disallowed method `std::env::var_os`"],
    "S011": ["this lint expectation is unfulfilled"],
}
found = collections.Counter()
at = []
for raw in open(sys.argv[1]):
    if not raw.startswith("{"):
        continue
    d = json.loads(raw)
    primary = [s for s in d["spans"] if s["is_primary"]]
    if d["level"] == "error" and primary:  # skips "aborting due to N errors"
        found[d["message"]] += 1
        at.append((primary[0]["line_start"], d["message"]))
want = collections.Counter(m for ms in EXPECTED.values() for m in ms)
for code, messages in EXPECTED.items():
    for m in messages:
        assert found[m] == 1, f"{code}: expected one `{m}`, got {found[m]}"
assert found == want, f"unexpected findings: {dict(found - want)}"
covered = next(n for n, line in enumerate(open(sys.argv[2]), 1) if "A justified exception" in line)
stray = [(n, m) for n, m in at if n >= covered]
assert not stray, f"the #[expect]-covered use fired: {stray}"
print(f"ban list: {sum(want.values())} findings, one per banned item; the covered use is silent")
PY

# The workspace lints, still before any release build. This stage is also
# the determinism fence: agreement, broadcast, obs, sim, specs and trace
# link the list proven above as their clippy.toml (tests/check.rs pins the
# links).
stage "clippy (deny warnings; the protocol crates under lints/clippy.toml)"
cargo clippy --workspace --all-targets -- -D warnings

# camp-lint's static check runs no simulated schedule: S009 (no payload
# inspection in broadcast code, hypothesis H1) plus the protocol-graph,
# symmetry and dataflow engines over the registered algorithms. It fails if
# a healthy algorithm draws a finding or a seeded faulty one goes
# unconvicted; tier-1's tests/check.rs pins the whole report as
# tests/golden/check.json. --certs writes the certificates the two engines
# issue, the store that arms the model checker's renaming quotient and
# widened sleep sets below; --metrics writes the run's camp-obs snapshot.
stage "camp-lint check: S009 + graph, symmetry, dataflow engines"
certs_out="$PWD/target/ci.certs.json"
check_metrics="$PWD/target/ci.check.metrics.json"
cargo run --release -q -p camp-lint --bin camp-lint -- check \
  --certs "$certs_out" --metrics "$check_metrics"

# The written store must hold exactly the certificates the committed report
# lists: every symmetry certificate and every independence certificate.
stage "camp-lint check --certs: the store holds every certificate check.json lists"
python3 - "$certs_out" tests/golden/check.json <<'PY'
import json, sys
store, report = (json.load(open(path)) for path in sys.argv[1:])
for kind, member, want in (("certs", "symmetry", 10), ("independence", "dataflow", 6)):
    listed = {cert["algorithm"]: cert for cert in report[member]["certs"]}
    assert len(listed) == want, f"check.json lists {len(listed)} {member} certificates, expected {want}"
    assert store[kind] == listed, f"the store's {kind} differ from check.json's {member} certificates"
print("certificate store: 10 symmetry + 6 independence certificates, as check.json lists")
PY

# The --metrics snapshot must count what the committed report holds: the
# certificates issued, the algorithms each engine judged and its errors.
stage "camp-lint check --metrics: the snapshot counts what check.json holds"
python3 - "$check_metrics" tests/golden/check.json <<'PY'
import json, sys
snapshot, report = (json.load(open(path)) for path in sys.argv[1:])
assert snapshot["schema"] == "camp-obs/v2", f"schema {snapshot['schema']!r}"
counters = snapshot["counters"]
for engine, judged, errors in (("graph", "algorithms_probed", 10),
                               ("symmetry", "algorithms_probed", 7),
                               ("dataflow", "algorithms_analyzed", 4)):
    member = report[engine]
    assert len(member["algorithms"]) == 13, f"check.json's {engine} judges {len(member['algorithms'])} algorithms"
    assert member["errors"] == errors, f"check.json's {engine} has {member['errors']} errors, expected {errors}"
    assert counters[f"lint.{engine}.{judged}"] == 13, f"lint.{engine}.{judged}"
    assert counters[f"lint.{engine}.errors"] == errors, f"lint.{engine}.errors"
for engine, want in (("symmetry", 10), ("dataflow", 6)):
    assert len(report[engine]["certs"]) == want, f"check.json lists {len(report[engine]['certs'])} {engine} certificates"
    assert counters[f"lint.{engine}.certs_issued"] == want, f"lint.{engine}.certs_issued"
print("check metrics: 13 algorithms per engine; errors 10/7/4; 10 + 6 certificates issued")
PY

# A misspelt flag must not run a check that silently ignores it.
stage "camp-lint: an argument a subcommand does not take exits 2"
status=0
cargo run --release -q -p camp-lint --bin camp-lint -- check --deny-warning 2> /dev/null || status=$?
[[ "$status" -eq 2 ]] \
  || { echo "camp-lint check --deny-warning exited $status, expected 2" >&2; exit 1; }
echo "camp-lint check --deny-warning: exit 2"

stage "tier-1: cargo build --release"
cargo build --release

stage "tier-1: cargo test -q"
cargo test -q

stage "workspace tests"
cargo test --workspace -q

stage "rustfmt check"
cargo fmt --check

# The API docs of campkit and its camp-* crates (not the vendored stand-ins):
# a broken or private intra-doc link fails here.
stage "rustdoc (deny warnings): campkit and the camp-* crates"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p campkit -p 'camp-*'

stage "camp-lint: trace linter on the Figure 1 golden trace"
cargo run --release -q -p camp-lint --bin camp-lint -- trace tests/golden/figure1.json

# The same binary on a trace with findings: it must exit 1 and print, byte
# for byte, the committed report (the trace's verdicts are also pinned in
# tests/golden/verdicts.json).
stage "camp-lint: trace linter on a malformed corpus trace (exit 1, pinned report)"
malformed="tests/golden/corpus/mismatched-return"
malformed_out="$PWD/target/ci.malformed-lint.json"
status=0
cargo run --release -q -p camp-lint --bin camp-lint -- trace --json "$malformed.json" \
  > "$malformed_out" || status=$?
[[ "$status" -eq 1 ]] \
  || { echo "camp-lint trace exited $status on $malformed.json, expected 1" >&2; exit 1; }
diff -u "$malformed.lint.json" "$malformed_out" \
  || { echo "camp-lint trace --json drifted from $malformed.lint.json; regenerate with scripts/regen-goldens.sh" >&2; exit 1; }
echo "malformed trace: exit 1, report matches $malformed.lint.json"

# Each example asserts its own claims and panics when one fails;
# kset_election is the only caller of the stacked A-over-B path outside
# `tables`. So every example must build in release and exit 0.
stage "examples: every example builds in release and exits 0"
cargo build --release -q --examples
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  "target/release/examples/$name" > /dev/null \
    || { echo "example $name failed" >&2; exit 1; }
done
echo "examples: $(ls examples/*.rs | wc -l) ran, each exit 0"

stage "camp-lint: determinism + branch audit of the built-in algorithms"
cargo run --release -q -p camp-lint --bin camp-lint -- audit --seeds 5

stage "engine equivalence proptests (release, reduced case count)"
CAMP_PROPTEST_CASES=6 cargo test -q --release -p camp-modelcheck --test engine_equivalence

# The renaming quotient's typed walk: renaming invariance for every
# certified algorithm's Relabel impl, and canonical-vs-plain-vs-baseline
# verdict agreement. Each case is cheap in release, so this stage runs
# eight times the debug default of 16 cases and still takes seconds.
stage "canonical quotient proptests (release, raised case count)"
CAMP_PROPTEST_CASES=128 cargo test -q --release -p camp-modelcheck --test canonical

# The smoke run writes into a scratch directory so it never clobbers the
# committed full-mode ledgers; regenerate those with scripts/bench.sh.
# Every field of a ledger row outside its `timings` object is deterministic
# (the engine's reduction counters, the Theorem-1 run shapes, trace and
# corpus lengths, schedule and case counts), so the smoke run must
# reproduce each committed BENCH_*.json exactly there: same schema, same
# rows in the same order, equal values. Any drift in an engine, the
# certificates or a scope fails here. Each timing must be present and
# positive.
stage "bench smoke: every ledger reproduces its committed deterministic fields"
smoke_dir="$PWD/target/bench-smoke"
smoke_metrics="$PWD/target/BENCH_explore.smoke.metrics.json"
rm -rf "$smoke_dir"
CAMP_BENCH_OUT="$smoke_dir" scripts/bench.sh --quick --metrics "$smoke_metrics" >/dev/null
python3 - "$smoke_dir" BENCH_*.json <<'PY'
import json, os, sys
smoke_dir, committed = sys.argv[1], sys.argv[2:]
assert sorted(os.listdir(smoke_dir)) == sorted(committed), \
    f"smoke ledgers {sorted(os.listdir(smoke_dir))}, committed {sorted(committed)}"
for path in committed:
    want, got = json.load(open(path)), json.load(open(os.path.join(smoke_dir, path)))
    assert got["schema"] == want["schema"], f"{path}: schema {got['schema']}, committed {want['schema']}"
    names = [[row["name"] for row in doc["benches"]] for doc in (got, want)]
    assert names[0] == names[1], f"{path}: rows {names[0]}, committed {names[1]}"
    for row, pinned in zip(got["benches"], want["benches"]):
        timings, pinned_timings = row.pop("timings"), pinned.pop("timings")
        assert row == pinned, f"{path} {row['name']}: smoke run {row}, committed {pinned}"
        assert timings.keys() == pinned_timings.keys(), \
            f"{path} {row['name']}: timings {sorted(timings)}, committed {sorted(pinned_timings)}"
        bad = {k: v for k, v in timings.items() if type(v) not in (int, float) or v <= 0}
        assert not bad, f"{path} {row['name']}: timings not positive: {bad}"
    print(f"bench smoke: {path} reproduces {len(want['benches'])} rows")
PY
grep -q '"camp-obs/v2"' "$smoke_metrics" \
  || { echo "$smoke_metrics malformed: missing camp-obs/v2 schema" >&2; exit 1; }

# The tables run one table at a time: a second table name used to be
# dropped silently, so a command line that names two must exit 2.
stage "tables f1 lemmas: a second table is a usage error"
status=0
cargo run --release -q -p camp-bench --bin tables -- f1 lemmas > /dev/null 2>&1 || status=$?
[[ "$status" -eq 2 ]] \
  || { echo "tables f1 lemmas exited $status, expected 2" >&2; exit 1; }
echo "tables f1 lemmas: exit 2"

# The timeline view over the figure-1 scope must render non-empty lanes:
# every process row needs at least one non-idle glyph, or the
# Execution→Timeline derivation has silently decayed.
stage "tables timeline: figure-1 lanes render non-empty"
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

# Every paper-facing table is deterministic, so a fresh `tables all` must
# match the committed capture byte for byte; EXPERIMENTS.md cites it.
stage "tables all: byte-identical to results/tables.txt"
tables_out="$PWD/target/ci.tables.txt"
cargo run --release -q -p camp-bench --bin tables -- all > "$tables_out"
diff -u results/tables.txt "$tables_out" \
  || { echo "tables all drifted from results/tables.txt; regenerate with scripts/regen-goldens.sh" >&2; exit 1; }
echo "tables all matches results/tables.txt"

stage "metrics goldens: the figure-1 exploration snapshot matches tests/golden"
cargo test -q --release -p campkit --test metrics

stage "independence differential: lint-issued certs vs plain engine (release)"
CAMP_PROPTEST_CASES=6 cargo test -q --release -p campkit --test independence

# The chaos gate: every healthy algorithm under its pinned 25%-drop plan
# (drops injected, loss recovered by retransmission, retransmit-attempts
# histogram showing tail-bucket mass, restricted trace spec-clean) plus
# the 128-plan seeded soak with crash points — a failing soak plan dumps
# its flight recording as target/chaos-soak-seed<N>.trace.json. The crash
# conformance half lives in tests/differential.rs and already ran under
# the workspace stage; this re-runs the seeded adversaries in release.
stage "chaos smoke + seeded fault soak (release)"
cargo test -q --release --test chaos

# The runtime suites again, eight tests at a time: every test starts its
# own fleet of node threads, so on a 2-core box most threads wait for a
# core. The quiescence wait counts outstanding work instead of timing
# silence, so no verdict may change under that load, and the healthy-plan
# pins of the metrics suite (every retransmit a late-ACK one) hold however
# late the ACKs come.
stage "runtime suites under oversubscription (release, 8 test threads)"
cargo test -q --release -p campkit --test chaos --test differential --test metrics -- --test-threads 8
cargo test -q --release -p camp-runtime --test faults -- --test-threads 8

# The benchmark package has its own manifest and lock file outside the
# workspace, so no stage above compiles it. `check` builds it and runs
# every workload once at its smallest size, traced and untraced,
# verifying each op's output.
stage "campbench check: the benchmark package builds and every workload passes"
cargo run --release --offline -q --manifest-path crates/bench/src/bin/campbench/Cargo.toml -- check

stage_summary
echo "CI OK"
