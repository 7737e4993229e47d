//! The static dataflow engine: `S04x` rules, and the [`IndependenceCert`]s
//! that widen sleep-set partial-order reduction in `camp-modelcheck`.
//!
//! The fourth engine of `camp-lint check`. The other engines judge
//! *behaviour* (probe runs) or *tokens* (the lexical `S009`); this engine sits
//! between: it reads the handlers as the token trees ([`crate::source::tree`])
//! the registry walk parsed once per file, and runs three intra-procedural
//! analyses over every `impl BroadcastAlgorithm` block:
//!
//! 1. **Threshold extraction** (`S040`–`S042`): every comparison in a
//!    handler branch condition whose one side mentions `st.n` is normalized
//!    into "this guard requires ≥ k receptions" and checked against the
//!    algorithm's declared crash budget. Under a `wait_free` claim a solo
//!    run supplies exactly one reception (the self-addressed copy), so any
//!    guard needing two is convicted **by arithmetic alone** — no probe, no
//!    schedule, just the comparison at its `file:line:col`.
//! 2. **Payload taint** (`S043`–`S044`): `.content` accesses in
//!    `on_receive` seed a taint set that propagates through `let` bindings;
//!    a tainted value reaching a branch condition (or a state field that
//!    feeds one) convicts content-dependent control flow — the static form
//!    of the paper's Definition 3 content-neutrality, catching laundering
//!    through intermediate bindings that the lexical `S009` cannot see.
//! 3. **Handler footprints** (`S045`–`S048`): every `st.<field>` access in
//!    `on_receive` / `on_invoke_broadcast` (following one level of helper
//!    calls on the state type) is classified as a constant read, a
//!    mutation keyed by the unique message identity, a slice indexed by
//!    the payload's origin broadcaster, or a push into the step buffer
//!    that `next_step` drains. When every access classifies — no
//!    read-modify-write of shared state, no aliasing, no escape — two
//!    receives with distinct origins commute as state transformers, and
//!    the engine issues a versioned [`IndependenceCert`]
//!    (`camp-independence-cert/v1`). A two-order differential probe
//!    (`S048`, run through `camp_sim::probe::drain`) cross-checks every
//!    certificate before it is issued.
//!
//! | rule | checks | convicts |
//! |---|---|---|
//! | `S040` | quorum guards must normalize to an integer at `n = 3` | — (fixture) |
//! | `S041` | a guard needing ≥ 2 receptions contradicts `wait_free` | `QuorumBlocking` |
//! | `S042` | exact `==` quorum matches are skipped forever on overshoot | `QuorumBlocking` |
//! | `S043` | payload content must not reach branch conditions | `ContentGated` |
//! | `S044` | payload content must not reach branch-feeding state fields | — (fixture) |
//! | `S045` | an origin-sliced field must not also be indexed by a constant | — (fixture) |
//! | `S046` | `&mut st.<field>` must not escape to unknown functions | — (fixture) |
//! | `S047` | handlers must not write through non-state parameters | — (fixture) |
//! | `S048` | the two-order probe must agree with the static footprint | `Misattributing` |
//!
//! The absence of a certificate is **not** a finding: `causal` honestly
//! fails the footprint classification (its delivery scan reads the whole
//! `waiting` buffer), so it simply gets no certificate and the model
//! checker explores it unwidened. Findings are reserved for claims the
//! analysis *refutes*.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use camp_sim::canonical::{IndependenceCert, Orbit, Relabel, INDEPENDENCE_CERT_SCHEMA};
use camp_sim::probe::{drain, CONTENTS, PROBE_N};
use camp_sim::{AppMessage, BroadcastAlgorithm, BroadcastStep};
use camp_trace::{MessageId, ProcessId};
use serde::Serialize;

use crate::diagnostics::Severity;
use crate::source::lexer::{adjacent, Token};
use crate::source::tree::{self, is_ident, FnDef, ImplBlock};
use crate::source::SourceDiagnostic;
use crate::walk::{engine_report, rule_error, walk, Engine, Registered, Run};

/// Metadata for the dataflow rules, mirrored by `camp-lint rules`.
pub const DATAFLOW_RULES: &[(&str, &str, &str)] = &[
    (
        "S040",
        "opaque-quorum-guard",
        "a branch condition compares a state counter against an expression mentioning `st.n` \
         that the threshold evaluator cannot normalize to an integer — the crash-budget check \
         cannot certify the guard",
    ),
    (
        "S041",
        "quorum-blocks-wait-free",
        "a guard requires more receptions than a solo run can supply: the algorithm claims \
         wait-freedom but a reception counter must reach a quorum of n before progress, so \
         with every peer crashed the invocation never returns (the paper's Lemma 7 blocking)",
    ),
    (
        "S042",
        "exact-match-quorum",
        "a reception counter is compared to a quorum expression with `==`: if receptions ever \
         overshoot the threshold between checks the guard is skipped forever — quorum guards \
         must use `>=`",
    ),
    (
        "S043",
        "tainted-branch",
        "payload content reaches a branch condition (possibly through intermediate `let` \
         bindings): control flow depends on application content, violating content-neutrality \
         (Definition 3)",
    ),
    (
        "S044",
        "tainted-state",
        "payload content is stored into a state field that a branch condition reads: content \
         influences future control flow through state",
    ),
    (
        "S045",
        "aliased-state-write",
        "a field sliced by the payload's origin broadcaster is also indexed by a constant: \
         the constant index aliases some origin's slice, so per-origin independence does not \
         hold",
    ),
    (
        "S046",
        "state-escape",
        "`&mut` to a state field is passed to a function the analysis cannot see: the field's \
         footprint is unknowable and no independence claim can survive",
    ),
    (
        "S047",
        "foreign-state-mutation",
        "a handler writes through a non-state parameter: handlers own only their state \
         argument, and writing into the payload or sender parameter mutates data the \
         environment owns",
    ),
    (
        "S048",
        "independence-probe-divergence",
        "the two-order differential probe contradicts the static footprint: receiving two \
         foreign broadcasts in swapped orders produced different states or per-sender \
         delivery streams, so the receives do not commute and no certificate is issued",
    ),
];

/// How one occurrence of a state field is used by a handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Access {
    /// Read without any write in the handler.
    Read,
    /// Mutation keyed by the payload's unique message identity.
    Keyed,
    /// Access through an index derived from the payload's origin sender.
    Sliced,
    /// Push into a buffer that `next_step` drains between events.
    Drained,
    /// Anything else: plain write, read-modify-write, unknown method.
    Global,
}

impl Access {
    fn label(self) -> &'static str {
        match self {
            Access::Read => "read",
            Access::Keyed => "keyed",
            Access::Sliced => "sender-sliced",
            Access::Drained => "drained",
            Access::Global => "global",
        }
    }
}

/// Per-field access classes plus the auxiliary evidence the S045 check and
/// the certificate's footprint summary need.
#[derive(Debug, Default, Clone)]
struct Footprint {
    classes: BTreeMap<String, BTreeSet<Access>>,
    /// Fields with at least one origin-derived index.
    sliced_fields: BTreeSet<String>,
    /// `(field, line, col)` of constant-literal index occurrences.
    literal_indexed: Vec<(String, usize, usize)>,
}

impl Footprint {
    fn record(&mut self, field: &str, access: Access) {
        self.classes
            .entry(field.to_string())
            .or_default()
            .insert(access);
    }

    fn merge(&mut self, other: Footprint) {
        for (field, classes) in other.classes {
            self.classes.entry(field).or_default().extend(classes);
        }
        self.sliced_fields.extend(other.sliced_fields);
        self.literal_indexed.extend(other.literal_indexed);
    }

    fn summary(&self) -> String {
        self.classes
            .iter()
            .map(|(field, classes)| {
                let labels: Vec<&str> = classes.iter().map(|c| c.label()).collect();
                format!("{field}={}", labels.join("+"))
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The result of the purely static half of the engine on one struct: the
/// default when no `impl BroadcastAlgorithm` block was found.
#[derive(Debug, Default)]
pub(crate) struct StaticAnalysis {
    /// Was an `impl BroadcastAlgorithm for <struct>` block found at all?
    pub(crate) found_impl: bool,
    /// Handlers whose footprints were fully computed.
    pub(crate) handlers_analyzed: usize,
    /// Do two receives with distinct origins commute, statically?
    pub(crate) receives_commute: bool,
    /// Does an invocation commute with a foreign-origin receive?
    pub(crate) invoke_commutes: bool,
    /// Human-auditable `handler: field=class …` summary.
    pub(crate) footprint: String,
    /// Findings, anchored in `file`.
    pub(crate) diagnostics: Vec<SourceDiagnostic>,
}

// ---------------------------------------------------------------------------
// token helpers
// ---------------------------------------------------------------------------

fn is_segment(text: &str) -> bool {
    is_ident(text) || text.chars().all(|c| c.is_ascii_digit())
}

fn text(run: &[Token], i: usize) -> &str {
    run.get(i).map_or("", |t| t.text.as_str())
}

/// Is `run[i]` the root of a member chain (an identifier not itself
/// preceded by a `.`)?
fn at_root(run: &[Token], i: usize) -> bool {
    is_ident(text(run, i)) && (i == 0 || text(run, i - 1) != ".")
}

/// The `.`-separated segments following the root at `run[i]`, e.g.
/// `payload . msg . sender` at the `payload` token yields
/// `["msg", "sender"]`. Stops before ranges (`..`) and method-call parens.
fn segments(run: &[Token], i: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut j = i + 1;
    while text(run, j) == "." && is_segment(text(run, j + 1)) {
        segs.push(text(run, j + 1).to_string());
        j += 2;
    }
    segs
}

/// Does the run contain an expression derived from the payload's origin
/// sender: a chain rooted in `payload_roots` with a `sender` segment, or an
/// identifier already known to be origin-derived?
fn run_has_origin(
    run: &[Token],
    payload_roots: &BTreeSet<String>,
    origin: &BTreeSet<String>,
) -> bool {
    (0..run.len()).any(|i| {
        let root = text(run, i);
        at_root(run, i)
            && (origin.contains(root)
                || payload_roots.contains(root) && segments(run, i).iter().any(|s| s == "sender"))
    })
}

/// Does the run mention the payload at all (a chain rooted at the payload
/// parameter or one of its aliases)? This is what makes an `insert`/`get`
/// *keyed by the message*: its argument is derived from the payload.
fn run_has_payload(run: &[Token], payload_roots: &BTreeSet<String>) -> bool {
    (0..run.len()).any(|i| at_root(run, i) && payload_roots.contains(text(run, i)))
}

/// Does the run carry content taint: a tainted local at identifier
/// position, or a `.content` access rooted at the payload?
fn run_has_taint(
    run: &[Token],
    payload_roots: &BTreeSet<String>,
    tainted: &BTreeSet<String>,
) -> Option<(usize, usize)> {
    let t = run.iter().enumerate().find(|&(i, t)| {
        // Struct-literal field names (`content: x`) are not accesses.
        let field_name = text(run, i + 1) == ":" && text(run, i + 2) != ":";
        at_root(run, i)
            && !field_name
            && (tainted.contains(&t.text)
                || payload_roots.contains(&t.text)
                    && segments(run, i).iter().any(|s| s == "content"))
    });
    t.map(|(_, t)| (t.line, t.col))
}

/// Name bindings visible to one handler body, built in one forward pass so
/// later bindings may depend on earlier ones.
#[derive(Debug, Default)]
struct Bindings {
    locals: BTreeSet<String>,
    payload_roots: BTreeSet<String>,
    origin: BTreeSet<String>,
    tainted: BTreeSet<String>,
}

fn collect_bindings(
    body: &[Token],
    payload_root: Option<&str>,
    origin_params: &BTreeSet<String>,
) -> Bindings {
    let mut b = Bindings::default();
    if let Some(p) = payload_root {
        b.payload_roots.insert(p.to_string());
    }
    b.origin.extend(origin_params.iter().cloned());
    let mut i = 0;
    while i < body.len() {
        if text(body, i) != "let" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if text(body, j) == "mut" {
            j += 1;
        }
        let name = text(body, j).to_string();
        if !is_ident(&name) || text(body, j + 1) != "=" {
            // Destructuring patterns (`let Some(x) = …`) are skipped: their
            // bindings stay unknown, which is the conservative direction.
            i = j + 1;
            continue;
        }
        let rhs_start = j + 2;
        let mut end = rhs_start;
        while end < body.len() && text(body, end) != ";" {
            end += 1;
        }
        let rhs = &body[rhs_start..end];
        b.locals.insert(name.clone());
        // A pure chain off the payload is an alias of the message (or a
        // derived scalar, classified by its final segment).
        let alias =
            !rhs.is_empty() && at_root(rhs, 0) && b.payload_roots.contains(text(rhs, 0)) && {
                let segs = segments(rhs, 0);
                1 + 2 * segs.len() == rhs.len()
                    && !segs
                        .iter()
                        .any(|s| matches!(s.as_str(), "sender" | "content" | "id" | "seq"))
            };
        if alias {
            b.payload_roots.insert(name.clone());
        } else {
            if run_has_origin(rhs, &b.payload_roots, &b.origin) {
                b.origin.insert(name.clone());
            }
            if run_has_taint(rhs, &b.payload_roots, &b.tainted).is_some() {
                b.tainted.insert(name.clone());
            }
        }
        i = end + 1;
    }
    b
}

// ---------------------------------------------------------------------------
// threshold analysis (S040–S042)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    fn flip(self) -> Cmp {
        match self {
            Cmp::Lt => Cmp::Gt,
            Cmp::Le => Cmp::Ge,
            Cmp::Gt => Cmp::Lt,
            Cmp::Ge => Cmp::Le,
            other => other,
        }
    }
}

/// The operators that prefix `=` in a compound assignment (`+=`, `^=`, …).
const COMPOUND_OPS: &[&str] = &["+", "-", "*", "/", "%", "&", "|", "^"];

/// Finds the first comparison operator in a clause, honouring the lexer's
/// one-char-per-token stream: `==` is two adjacent `=` tokens, `->`, `=>`,
/// `<<`, `>>`, `..=` and compound assignments are excluded.
fn find_comparison(run: &[Token]) -> Option<(Cmp, usize, usize)> {
    let mut i = 0;
    while i < run.len() {
        let cur = &run[i];
        let next_adj = run.get(i + 1).filter(|n| adjacent(cur, n));
        let prev_adj = i > 0 && adjacent(&run[i - 1], cur);
        let prev = if i > 0 { text(run, i - 1) } else { "" };
        match cur.text.as_str() {
            "=" => {
                if let Some(n) = next_adj {
                    if n.text == "=" {
                        // An `==` glued to a preceding operator is not one.
                        let glued = COMPOUND_OPS.contains(&prev)
                            || matches!(prev, "<" | ">" | "!" | "=" | ".");
                        if prev_adj && glued {
                            i += 2;
                            continue;
                        }
                        return Some((Cmp::Eq, i, 2));
                    }
                    if n.text == ">" {
                        i += 2; // `=>`
                        continue;
                    }
                }
                i += 1; // lone `=`: assignment or let
            }
            "!" => {
                if let Some(n) = next_adj {
                    if n.text == "=" {
                        return Some((Cmp::Ne, i, 2));
                    }
                }
                i += 1;
            }
            "<" => match next_adj.map(|n| n.text.as_str()) {
                Some("<") => i += 2,
                Some("=") => return Some((Cmp::Le, i, 2)),
                _ => return Some((Cmp::Lt, i, 1)),
            },
            ">" => {
                if prev_adj && matches!(prev, "-" | "=") {
                    i += 1; // `->` / `=>`
                    continue;
                }
                match next_adj.map(|n| n.text.as_str()) {
                    Some(">") => i += 2,
                    Some("=") => return Some((Cmp::Ge, i, 2)),
                    _ => return Some((Cmp::Gt, i, 1)),
                }
            }
            _ => i += 1,
        }
    }
    None
}

/// Splits a flattened token run at its top-level separators, where `sep`
/// gives the length of the separator at an index (0 if none starts there).
fn split_top(run: &[Token], sep: impl Fn(usize) -> usize) -> Vec<&[Token]> {
    let (mut out, mut depth, mut start, mut i) = (Vec::new(), 0usize, 0, 0);
    while i < run.len() {
        match text(run, i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            _ if depth == 0 && sep(i) > 0 => {
                out.push(&run[start..i]);
                i += sep(i);
                start = i;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out.push(&run[start..]);
    out
}

/// Splits a condition run at top-level `&&` / `||` into clauses.
fn split_clauses(run: &[Token]) -> Vec<&[Token]> {
    split_top(run, |i| {
        let doubled = matches!(text(run, i), "&" | "|")
            && (run.get(i + 1)).is_some_and(|n| n.text == run[i].text && adjacent(&run[i], n));
        if doubled {
            2
        } else {
            0
        }
    })
}

/// The field of the `<state_root>.field` or `self.field` access rooted at
/// `run[i]`, if there is one.
fn state_field<'r>(run: &'r [Token], i: usize, state_root: &str) -> Option<&'r str> {
    let root = text(run, i);
    let field = text(run, i + 2);
    (at_root(run, i)
        && (root == state_root || root == "self")
        && text(run, i + 1) == "."
        && is_ident(field))
    .then_some(field)
}

/// Does the side mention `<root>.n` (the system size)?
fn mentions_n(run: &[Token], state_root: &str) -> bool {
    (0..run.len()).any(|i| state_field(run, i, state_root) == Some("n"))
}

/// Does the side read a state field (a persistent counter)?
fn state_rooted(run: &[Token], state_root: &str) -> bool {
    (0..run.len()).any(|i| state_field(run, i, state_root).is_some())
}

/// Evaluates an integer expression over `+ - * /` with parentheses, where
/// the only identifiers allowed are `<root>.n` / `self.n` chains (valued at
/// `n`). Returns `None` on anything else.
fn eval_threshold(run: &[Token], state_root: &str, n: i64) -> Option<i64> {
    let mut pos = 0;
    let v = eval_expr(run, &mut pos, state_root, n, 0)?;
    (pos == run.len()).then_some(v)
}

/// Evaluates the left-associative operators of one precedence `level`
/// (0: `+ -`, 1: `* /`) over the operands of the next.
fn eval_expr(run: &[Token], pos: &mut usize, root: &str, n: i64, level: usize) -> Option<i64> {
    let operand = |pos: &mut usize| match level {
        0 => eval_expr(run, pos, root, n, 1),
        _ => eval_atom(run, pos, root, n),
    };
    let mut acc = operand(pos)?;
    loop {
        let op = text(run, *pos);
        if ![["+", "-"], ["*", "/"]][level].contains(&op) {
            return Some(acc);
        }
        *pos += 1;
        let rhs = operand(pos)?;
        acc = match op {
            "+" => acc + rhs,
            "-" => acc - rhs,
            "*" => acc * rhs,
            _ => acc.checked_div_euclid(rhs)?,
        };
    }
}

fn eval_atom(run: &[Token], pos: &mut usize, root: &str, n: i64) -> Option<i64> {
    let t = text(run, *pos);
    if t == "(" {
        *pos += 1;
        let v = eval_expr(run, pos, root, n, 0)?;
        if text(run, *pos) != ")" {
            return None;
        }
        *pos += 1;
        return Some(v);
    }
    if (t == root || t == "self") && text(run, *pos + 1) == "." && text(run, *pos + 2) == "n" {
        *pos += 3;
        return Some(n);
    }
    if let Ok(v) = t.replace('_', "").parse::<i64>() {
        *pos += 1;
        return Some(v);
    }
    None
}

// ---------------------------------------------------------------------------
// the per-struct static engine
// ---------------------------------------------------------------------------

/// One function of an analyzed impl block, its body flattened once.
struct Body<'a> {
    f: &'a FnDef,
    tokens: Vec<Token>,
}

impl<'a> Body<'a> {
    fn of(f: &'a FnDef) -> Self {
        let mut tokens = vec![f.body.open.clone()];
        tree::flatten_into(&f.body.children, &mut tokens);
        tokens.extend(f.body.close.clone());
        Self { f, tokens }
    }
}

/// One handler of the `BroadcastAlgorithm` impl: its body, its branch
/// conditions, and the name its state parameter is bound to.
struct Handler<'a> {
    body: Body<'a>,
    conditions: Vec<Vec<Token>>,
    state_root: String,
}

impl<'a> Handler<'a> {
    fn of(f: &'a FnDef) -> Self {
        Self {
            body: Body::of(f),
            conditions: tree::conditions(&f.body),
            state_root: f.params.get(1).cloned().unwrap_or_else(|| "st".to_string()),
        }
    }
}

struct Analyzer<'a> {
    file: &'a str,
    wait_free: bool,
    helpers: &'a BTreeMap<String, Body<'a>>,
    drained: BTreeSet<String>,
    diagnostics: Vec<SourceDiagnostic>,
}

impl Analyzer<'_> {
    fn raise(&mut self, code: &str, line: usize, col: usize, message: String) {
        let finding = rule_error(code, self.file, (line, col), message);
        self.diagnostics.push(finding);
    }

    /// S040–S042 over every branch condition of one handler.
    fn check_thresholds(&mut self, handler: &Handler) {
        let state_root = handler.state_root.as_str();
        for cond in &handler.conditions {
            for clause in split_clauses(cond) {
                let Some((op, at, len)) = find_comparison(clause) else {
                    continue;
                };
                let (lhs, rhs) = (&clause[..at], &clause[at + len..]);
                let (ln, rn) = (mentions_n(lhs, state_root), mentions_n(rhs, state_root));
                if !ln && !rn {
                    continue;
                }
                // Orient as `counter OP threshold`.
                let (counter, threshold, op) = if rn && !ln {
                    (lhs, rhs, op)
                } else if ln && !rn {
                    (rhs, lhs, op.flip())
                } else {
                    continue; // n on both sides: no counter to bound
                };
                if !state_rooted(counter, state_root) {
                    continue;
                }
                let (line, col) = (clause[at].line, clause[at].col);
                let Some(t) = eval_threshold(threshold, state_root, PROBE_N as i64) else {
                    self.raise(
                        "S040",
                        line,
                        col,
                        format!(
                            "quorum guard compares a state counter against `{}`, which does \
                             not normalize to an integer at n = {PROBE_N}: the crash-budget \
                             check cannot certify this guard",
                            render_run(threshold)
                        ),
                    );
                    continue;
                };
                let needed = match op {
                    Cmp::Eq | Cmp::Ge => Some(t),
                    Cmp::Gt => Some(t + 1),
                    Cmp::Ne | Cmp::Lt | Cmp::Le => None,
                };
                let Some(needed) = needed else { continue };
                if needed >= 2 && self.wait_free {
                    self.raise(
                        "S041",
                        line,
                        col,
                        format!(
                            "guard requires the counter `{}` to reach {needed} (threshold \
                             `{}` = {t} at n = {PROBE_N}), but a solo run supplies exactly 1 \
                             reception — the wait_free claim is contradicted by arithmetic: \
                             with every peer crashed this invocation never returns",
                            render_run(counter),
                            render_run(threshold)
                        ),
                    );
                }
                if needed >= 2 && op == Cmp::Eq {
                    self.raise(
                        "S042",
                        line,
                        col,
                        format!(
                            "reception counter `{}` is compared to the quorum expression \
                             `{}` with `==`: any overshoot between checks skips the guard \
                             forever — quorum guards must use `>=`",
                            render_run(counter),
                            render_run(threshold)
                        ),
                    );
                }
            }
        }
    }

    /// S043/S044 over `on_receive`.
    fn check_taint(&mut self, handler: &Handler, bindings: &Bindings) {
        let (body, state_root) = (handler.body.tokens.as_slice(), handler.state_root.as_str());
        for cond in &handler.conditions {
            if let Some((line, col)) =
                run_has_taint(cond, &bindings.payload_roots, &bindings.tainted)
            {
                self.raise(
                    "S043",
                    line,
                    col,
                    format!(
                        "branch condition `{}` reads payload content (directly or through a \
                         tainted binding): control flow depends on application content, \
                         violating content-neutrality",
                        render_run(cond)
                    ),
                );
            }
        }
        // Fields read by any condition of this handler.
        let branch_fields: BTreeSet<&str> = (handler.conditions)
            .iter()
            .flat_map(|cond| (0..cond.len()).filter_map(|i| state_field(cond, i, state_root)))
            .collect();
        // Assignments `st.field = <tainted>;`.
        for i in 0..body.len() {
            if !(at_root(body, i) && text(body, i) == state_root && text(body, i + 1) == ".") {
                continue;
            }
            let field = text(body, i + 2).to_string();
            if !is_ident(&field) || text(body, i + 3) != "=" {
                continue;
            }
            let eq = &body[i + 3];
            if body
                .get(i + 4)
                .is_some_and(|n| n.text == "=" && adjacent(eq, n))
            {
                continue; // `==`
            }
            let mut end = i + 4;
            while end < body.len() && text(body, end) != ";" {
                end += 1;
            }
            let rhs = &body[i + 4..end];
            if run_has_taint(rhs, &bindings.payload_roots, &bindings.tainted).is_some()
                && branch_fields.contains(field.as_str())
            {
                let t = &body[i + 2];
                self.raise(
                    "S044",
                    t.line,
                    t.col,
                    format!(
                        "payload content is stored into `{state_root}.{field}`, which branch \
                         conditions of this handler read: content influences future control \
                         flow through state"
                    ),
                );
            }
        }
    }

    /// Classifies every state-field access in one handler body, given its
    /// bindings, following one level of helper calls on the state type
    /// (whose state root is `self`).
    fn footprint(
        &mut self,
        handler: &Body,
        state_root: &str,
        bindings: &Bindings,
        depth: usize,
    ) -> Footprint {
        let (f, body) = (handler.f, handler.tokens.as_slice());
        let mut fp = Footprint::default();
        let mut paren_depth = 0usize;
        let mut i = 0;
        while i < body.len() {
            match text(body, i) {
                "(" => paren_depth += 1,
                ")" => paren_depth = paren_depth.saturating_sub(1),
                _ => {}
            }
            // S046: `&mut st.field` escaping into a call argument.
            if text(body, i) == "&"
                && text(body, i + 1) == "mut"
                && text(body, i + 2) == state_root
                && text(body, i + 3) == "."
                && is_ident(text(body, i + 4))
                && paren_depth > 0
            {
                let t = &body[i + 2];
                let field = text(body, i + 4).to_string();
                self.raise(
                    "S046",
                    t.line,
                    t.col,
                    format!(
                        "`&mut {state_root}.{field}` is passed to a function the analysis \
                         cannot see: the field's footprint is unknowable"
                    ),
                );
                fp.record(&field, Access::Global);
                i += 5;
                continue;
            }
            // S047: writes through non-state parameters.
            if depth == 0 {
                self.check_foreign_write(body, i, state_root, bindings, f, &mut fp);
            }
            if !(at_root(body, i) && text(body, i) == state_root && text(body, i + 1) == ".") {
                i += 1;
                continue;
            }
            let field = text(body, i + 2).to_string();
            if !is_segment(&field) {
                i += 1;
                continue;
            }
            let (line, col) = (body[i].line, body[i].col);
            let tail = i + 3;
            match text(body, tail) {
                // `st.helper(args)` — a method on the state itself.
                "(" => {
                    let args = span_group(body, tail);
                    let helpers = self.helpers;
                    if let Some(helper) = helpers.get(&field).filter(|_| depth == 0) {
                        let mut sub = BTreeSet::new();
                        let formals: Vec<&String> =
                            helper.f.params.iter().filter(|p| *p != "self").collect();
                        for (k, arg) in split_args(&body[tail + 1..args]).iter().enumerate() {
                            if run_has_origin(arg, &bindings.payload_roots, &bindings.origin) {
                                if let Some(name) = formals.get(k) {
                                    sub.insert((*name).clone());
                                }
                            }
                        }
                        let inner_bindings = collect_bindings(&helper.tokens, None, &sub);
                        let inner = self.footprint(helper, "self", &inner_bindings, depth + 1);
                        fp.merge(inner);
                    } else {
                        // Unknown state method, or a helper calling another
                        // helper: the footprint is unknowable.
                        fp.record(&format!("fn:{field}"), Access::Global);
                    }
                    i = tail + 1;
                    continue;
                }
                // `st.field[index]…`
                "[" => {
                    let close = span_group(body, tail);
                    let index = &body[tail + 1..close];
                    if run_has_origin(index, &bindings.payload_roots, &bindings.origin) {
                        fp.record(&field, Access::Sliced);
                        fp.sliced_fields.insert(field.clone());
                    } else {
                        if index.len() == 1 && index[0].text.chars().all(|c| c.is_ascii_digit()) {
                            fp.literal_indexed.push((field.clone(), line, col));
                        }
                        let write = self.tail_is_write(body, close + 1);
                        fp.record(&field, if write { Access::Global } else { Access::Read });
                    }
                    i = tail + 1;
                    continue;
                }
                // `st.field.method(args)` or a bare chain read.
                "." => {
                    let method = text(body, tail + 1).to_string();
                    if text(body, tail + 2) == "(" && is_ident(&method) {
                        let close = span_group(body, tail + 2);
                        let args = &body[tail + 3..close];
                        fp.record(
                            &field,
                            self.classify_method(&field, &method, args, bindings),
                        );
                    } else {
                        fp.record(&field, Access::Read);
                    }
                    i = tail;
                    continue;
                }
                // `st.field = …` / `st.field += …` / bare read.
                _ => {
                    let write = self.tail_is_write(body, tail);
                    fp.record(&field, if write { Access::Global } else { Access::Read });
                    i = tail;
                    continue;
                }
            }
        }
        // S045: an origin-sliced field also indexed by a constant.
        let literal = std::mem::take(&mut fp.literal_indexed);
        for (field, line, col) in &literal {
            if fp.sliced_fields.contains(field) {
                self.raise(
                    "S045",
                    *line,
                    *col,
                    format!(
                        "`{state_root}.{field}` is sliced by the payload's origin elsewhere \
                         in this handler but indexed by a constant here: the constant aliases \
                         some origin's slice"
                    ),
                );
            }
        }
        fp.literal_indexed = literal;
        fp
    }

    fn classify_method(
        &self,
        field: &str,
        method: &str,
        args: &[Token],
        bindings: &Bindings,
    ) -> Access {
        const PURE_READS: &[&str] = &[
            "len", "is_empty", "iter", "keys", "values", "last", "first", "clone", "cloned",
            "copied", "id", "index", "raw",
        ];
        const KEYED_CAPABLE: &[&str] = &["insert", "remove", "get", "contains", "contains_key"];
        const BUFFER_WRITES: &[&str] = &["push", "extend", "push_back"];
        if PURE_READS.contains(&method) {
            return Access::Read;
        }
        if KEYED_CAPABLE.contains(&method) {
            let keyed = run_has_payload(args, &bindings.payload_roots);
            let writes = matches!(method, "insert" | "remove");
            return if keyed {
                Access::Keyed
            } else if writes {
                Access::Global
            } else {
                Access::Read
            };
        }
        if BUFFER_WRITES.contains(&method) {
            return if self.drained.contains(field) {
                Access::Drained
            } else {
                Access::Global
            };
        }
        Access::Global
    }

    /// Is the token at `pos` (right after a place expression) a plain or
    /// compound assignment operator?
    fn tail_is_write(&self, body: &[Token], pos: usize) -> bool {
        let t = text(body, pos);
        if t == "=" {
            // Exclude `==` and `=>`.
            let this = &body[pos];
            return !body
                .get(pos + 1)
                .is_some_and(|n| (n.text == "=" || n.text == ">") && adjacent(this, n));
        }
        if COMPOUND_OPS.contains(&t) {
            let this = &body[pos];
            return body
                .get(pos + 1)
                .is_some_and(|n| n.text == "=" && adjacent(this, n));
        }
        false
    }

    /// S047 at one position: an assignment whose place expression is rooted
    /// at a non-state parameter.
    fn check_foreign_write(
        &mut self,
        body: &[Token],
        i: usize,
        state_root: &str,
        bindings: &Bindings,
        f: &FnDef,
        fp: &mut Footprint,
    ) {
        if !at_root(body, i) {
            return;
        }
        let root = text(body, i).to_string();
        if root == state_root
            || root == "self"
            || root == "let"
            || bindings.locals.contains(&root)
            || !f.params.iter().any(|p| p == &root)
        {
            return;
        }
        if i > 0 && matches!(text(body, i - 1), "let" | "mut") {
            return;
        }
        // Walk the place expression: `root(.seg)*` possibly with `[…]`.
        let mut j = i + 1;
        loop {
            if text(body, j) == "." && is_segment(text(body, j + 1)) {
                j += 2;
            } else if text(body, j) == "[" {
                j = span_group(body, j) + 1;
            } else {
                break;
            }
        }
        if j == i + 1 {
            return; // bare parameter use, not a place chain
        }
        if self.tail_is_write(body, j) {
            let t = &body[i];
            self.raise(
                "S047",
                t.line,
                t.col,
                format!(
                    "handler writes through its `{root}` parameter: handlers own only their \
                     state argument, and this mutates data the environment owns"
                ),
            );
            fp.record(&format!("param:{root}"), Access::Global);
        }
    }
}

/// Index of the token closing the group opened at `open` (which must hold a
/// `(`, `[` or `{`), in a flattened stream.
fn span_group(body: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < body.len() {
        match text(body, j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    body.len().saturating_sub(1)
}

/// Splits a flattened argument token run on top-level commas.
fn split_args(args: &[Token]) -> Vec<&[Token]> {
    split_top(args, |i| usize::from(text(args, i) == ","))
}

/// Renders a token run as source text: tokens that were adjacent in the
/// source stay joined (`st.n`, `==`), all others get one space between.
fn render_run(run: &[Token]) -> String {
    let mut out = String::new();
    for (i, t) in run.iter().enumerate() {
        if i > 0 && !adjacent(&run[i - 1], t) {
            out.push(' ');
        }
        out.push_str(&t.text);
    }
    out
}

/// Fields that `next_step` drains (pops) between environment events.
fn drained_fields(next_step: Option<&Handler>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let Some(handler) = next_step else {
        return out;
    };
    let (body, state_root) = (handler.body.tokens.as_slice(), handler.state_root.as_str());
    for i in 0..body.len() {
        if state_field(body, i, state_root).is_some()
            && text(body, i + 3) == "."
            && matches!(text(body, i + 4), "pop" | "pop_front" | "remove" | "take")
            && text(body, i + 5) == "("
        {
            out.insert(text(body, i + 2).to_string());
        }
    }
    out
}

/// Runs the purely static half of the engine on one struct, given the
/// impl blocks of its source `file`.
fn analyze_impls(
    file: &str,
    impls: &[ImplBlock],
    struct_name: &str,
    wait_free: bool,
) -> StaticAnalysis {
    let Some(main) = impls.iter().find(|b| {
        b.trait_name.as_deref() == Some("BroadcastAlgorithm") && b.type_name == struct_name
    }) else {
        return StaticAnalysis::default();
    };
    let helpers: BTreeMap<String, Body> = main
        .assoc_state
        .as_deref()
        .and_then(|state| {
            impls
                .iter()
                .find(|b| b.trait_name.is_none() && b.type_name == state)
        })
        .map(|b| {
            b.fns
                .iter()
                .map(|f| (f.name.text.clone(), Body::of(f)))
                .collect()
        })
        .unwrap_or_default();
    // Every handler with branch conditions, in this order, each flattened
    // once.
    let handlers: Vec<(&str, Handler)> = [
        "on_invoke_broadcast",
        "on_receive",
        "on_decide",
        "next_step",
    ]
    .into_iter()
    .filter_map(|name| Some((name, Handler::of(main.find_fn(name)?))))
    .collect();
    let handler = |name: &str| handlers.iter().find(|(n, _)| *n == name).map(|(_, h)| h);
    let mut az = Analyzer {
        file,
        wait_free,
        helpers: &helpers,
        drained: drained_fields(handler("next_step")),
        diagnostics: Vec::new(),
    };

    // Thresholds: every handler with branch conditions.
    for (_, h) in &handlers {
        az.check_thresholds(h);
    }

    // The two handlers that take a payload, each with its bindings.
    let empty = BTreeSet::new();
    let with_bindings = |name: &str, payload_param_at: usize| {
        let handler = handler(name)?;
        let payload_root = handler.body.f.params.get(payload_param_at);
        let bindings = collect_bindings(
            &handler.body.tokens,
            payload_root.map(String::as_str),
            &empty,
        );
        Some((handler, bindings))
    };
    let invoke = with_bindings("on_invoke_broadcast", 2);
    let receive = with_bindings("on_receive", 3);

    // Taint: receive handler only (content enters the system there).
    if let Some((handler, bindings)) = &receive {
        az.check_taint(handler, bindings);
    }

    // Footprints, invoke's first.
    let mut summaries: Vec<String> = Vec::new();
    let mut footprint = |name: &str, entry: &Option<(&Handler, Bindings)>| {
        let (handler, bindings) = entry.as_ref()?;
        let fp = az.footprint(&handler.body, &handler.state_root, bindings, 0);
        summaries.push(format!("{name}: {}", fp.summary()));
        Some(fp)
    };
    let inv_fp = footprint("on_invoke_broadcast", &invoke);
    let rec_fp = footprint("on_receive", &receive);
    let handlers_analyzed = summaries.len();

    let receives_commute = rec_fp.as_ref().is_some_and(|fp| {
        fp.classes.values().all(|classes| {
            if classes.contains(&Access::Global) {
                return false;
            }
            let writes: Vec<Access> = classes
                .iter()
                .copied()
                .filter(|c| matches!(c, Access::Keyed | Access::Sliced | Access::Drained))
                .collect();
            if writes.len() > 1 {
                return false;
            }
            // A field both read and written mixes classes: not commuting.
            writes.is_empty() || !classes.contains(&Access::Read)
        })
    });
    let invoke_commutes = receives_commute
        && inv_fp.as_ref().is_some_and(|inv| {
            let rec = rec_fp.as_ref().expect("receives_commute implies rec_fp");
            inv.classes.iter().all(|(field, classes)| {
                if field.starts_with("fn:") && classes.contains(&Access::Global) {
                    return false;
                }
                let Some(rc) = rec.classes.get(field) else {
                    return true; // invoke-private field
                };
                let only = |s: &BTreeSet<Access>, a: Access| s.iter().all(|c| *c == a);
                (only(classes, Access::Read) && only(rc, Access::Read))
                    || (only(classes, Access::Drained) && only(rc, Access::Drained))
                    || (only(classes, Access::Keyed) && only(rc, Access::Keyed))
            })
        });

    StaticAnalysis {
        found_impl: true,
        handlers_analyzed,
        receives_commute,
        invoke_commutes,
        footprint: summaries.join("; "),
        diagnostics: az.diagnostics,
    }
}

// ---------------------------------------------------------------------------
// the S048 differential probe
// ---------------------------------------------------------------------------

/// One receive-order's observable outcome at the probed process.
struct Observation<S> {
    /// The probed process's final state.
    state: S,
    /// Named sender → delivered message ids, in delivery order.
    streams: BTreeMap<usize, Vec<u64>>,
    /// Sorted `payload->destination` renderings.
    sends: Vec<String>,
}

/// Feeds two foreign broadcasts (from p2 and p3) to a fresh p1 in both
/// orders and compares the outcomes. `Err` describes the divergence.
fn probe_independence<B: BroadcastAlgorithm>(algo: &B) -> Result<(), String> {
    // Harvest each broadcaster's wire messages addressed to p1.
    let mut supplies: Vec<(ProcessId, Vec<B::Msg>)> = Vec::new();
    for (b, content) in [2, 3].into_iter().zip(CONTENTS) {
        let pid = ProcessId::new(b);
        let mut st = algo.init(pid, PROBE_N);
        algo.on_invoke_broadcast(
            &mut st,
            AppMessage {
                id: MessageId::new(b as u64 - 2),
                content,
                sender: pid,
            },
        );
        let mut to_p1 = Vec::new();
        drain(algo, &mut st, &mut BTreeMap::new(), |step| {
            if let BroadcastStep::Send { to, payload } = step {
                if to.id() == 1 {
                    to_p1.push(payload);
                }
            }
        });
        supplies.push((pid, to_p1));
    }

    let observe = |order: [usize; 2]| -> Observation<B::State> {
        let mut st = algo.init(ProcessId::new(1), PROBE_N);
        let mut oracle = BTreeMap::new();
        let mut streams: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let mut sends = Vec::new();
        for b in order {
            let (from, payloads) = &supplies[b - 2];
            for m in payloads {
                algo.on_receive(&mut st, *from, m.clone());
                drain(algo, &mut st, &mut oracle, |step| match step {
                    BroadcastStep::Send { to, payload } => {
                        sends.push(format!("{payload:?}->p{}", to.id()));
                    }
                    BroadcastStep::Deliver { msg } => {
                        let stream = streams.entry(msg.sender.id()).or_default();
                        stream.push(msg.id.raw());
                    }
                    _ => {}
                });
            }
        }
        sends.sort_unstable();
        Observation {
            state: st,
            streams,
            sends,
        }
    };

    let a = observe([2, 3]);
    let b = observe([3, 2]);
    // The states are compared by their raw `Relabel` digests, as the
    // propagation probe's `state_changed` does; the text is rendered only
    // for the message.
    let mut orbit = Orbit::new(PROBE_N);
    if orbit.raw_digest(|r| a.state.relabel(r)) != orbit.raw_digest(|r| b.state.relabel(r)) {
        return Err(format!(
            "final states differ after swapping the receive order of p2's and p3's \
             broadcasts: `{:?}` vs `{:?}`",
            a.state, b.state
        ));
    }
    if a.streams != b.streams {
        return Err(format!(
            "per-sender delivery streams differ after swapping the receive order: \
             {:?} vs {:?} — an order-sensitive observer can tell the schedules apart",
            a.streams, b.streams
        ));
    }
    if a.sends != b.sends {
        return Err(format!(
            "send multisets differ after swapping the receive order: {:?} vs {:?}",
            a.sends, b.sends
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// report assembly
// ---------------------------------------------------------------------------

/// One algorithm's dataflow verdict and findings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AlgoDataflow {
    /// The algorithm's display name.
    pub name: String,
    /// Was the algorithm registered as deliberately faulty?
    pub expected_faulty: bool,
    /// Does the registration claim wait-freedom (the S041 baseline)?
    pub claims_wait_free: bool,
    /// Was an `impl BroadcastAlgorithm` block found and parsed?
    pub analyzed: bool,
    /// Do receives with distinct origins commute (static + probe)?
    pub receives_commute: bool,
    /// Does an invocation commute with a foreign-origin receive?
    pub invoke_commutes: bool,
    /// Was an [`IndependenceCert`] issued?
    pub certified: bool,
    /// Findings against this algorithm, sorted by position.
    pub diagnostics: Vec<SourceDiagnostic>,
}

engine_report! {
    /// The outcome of the dataflow engine over the registry.
    DataflowReport("dataflow", DATAFLOW_RULES, AlgoDataflow,
        IndependenceCert = INDEPENDENCE_CERT_SCHEMA)
}

impl AlgoDataflow {
    /// Its verdict on a report line.
    fn verdict(&self) -> String {
        self.verdict_or(self.certified, "ok (no certificate)")
    }
}

/// Runs the dataflow engine over every registered algorithm (healthy and
/// faulty), reading the sources under `root`.
///
/// # Errors
///
/// Propagates I/O errors from reading the registered source files.
pub fn dataflow_check(root: &Path, timings: bool) -> io::Result<DataflowReport> {
    walk(root, Run::new(Dataflow, timings))
}

/// The dataflow engine.
pub(crate) struct Dataflow;

impl Engine for Dataflow {
    type Algo = AlgoDataflow;
    type Cert = IndependenceCert;
    type Report = DataflowReport;

    /// Applies the `S04x` rules to one algorithm, and certifies it if its
    /// receives commute.
    fn judge<B: BroadcastAlgorithm>(
        &self,
        at: &Registered<'_>,
        algo: &B,
    ) -> (AlgoDataflow, Option<IndependenceCert>) {
        let spec = &at.spec;
        let sa = analyze_impls(spec.file, at.file.impls(), spec.struct_name, spec.wait_free);
        let mut diagnostics = sa.diagnostics;
        let mut receives_commute = sa.found_impl && sa.receives_commute;

        // S048: a static independence claim must survive the two-order
        // probe. Divergence without a static claim is expected
        // (order-sensitive algorithms like the sequencer never claimed
        // independence) and silent.
        if receives_commute {
            if let Err(why) = probe_independence(algo) {
                diagnostics.push(at.finding(
                    "S048",
                    format!(
                        "the static footprint claims receives commute, but the two-order \
                         probe refutes it: {why}"
                    ),
                ));
                receives_commute = false;
            }
        }

        diagnostics.sort_by(|a, b| (a.line, a.col, &a.code).cmp(&(b.line, b.col, &b.code)));
        let has_errors = diagnostics.iter().any(|d| d.severity == Severity::Error);
        let certified = receives_commute && !has_errors;
        let cert = certified.then(|| IndependenceCert {
            schema: INDEPENDENCE_CERT_SCHEMA.to_string(),
            algorithm: spec.name.to_string(),
            handlers_analyzed: sa.handlers_analyzed,
            receives_commute: true,
            invoke_commutes: sa.invoke_commutes,
            evidence: sa.footprint,
        });
        let verdict = AlgoDataflow {
            name: spec.name.to_string(),
            expected_faulty: at.expected_faulty,
            claims_wait_free: spec.wait_free,
            analyzed: sa.found_impl,
            receives_commute,
            invoke_commutes: certified && sa.invoke_commutes,
            certified,
            diagnostics,
        };
        (verdict, cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lexer;
    use crate::walk::SourceFile;

    fn workspace_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// The static half on `struct_name`, parsing `source` as the walk does.
    fn analyze_text(
        file: &'static str,
        source: &str,
        struct_name: &str,
        wait_free: bool,
    ) -> StaticAnalysis {
        let lexed = SourceFile::new(source.to_string());
        analyze_impls(file, lexed.impls(), struct_name, wait_free)
    }

    /// Wraps a receive-handler body (and optional extra items) into a
    /// minimal algorithm impl the analyzer accepts.
    fn fixture(receive_body: &str, extra: &str) -> String {
        format!(
            "impl BroadcastAlgorithm for Fx {{\n\
                 type State = FxState;\n\
                 fn on_invoke_broadcast(&self, st: &mut FxState, msg: AppMessage) {{\n\
                     st.queue.push(BroadcastStep::ReturnBroadcast);\n\
                 }}\n\
                 fn on_receive(&self, st: &mut FxState, from: ProcessId, payload: FxMsg) {{\n\
                     {receive_body}\n\
                 }}\n\
                 fn next_step(&self, st: &mut FxState) -> Option<BroadcastStep<FxMsg>> {{\n\
                     st.queue.pop()\n\
                 }}\n\
             }}\n\
             {extra}"
        )
    }

    fn analyze(receive_body: &str, extra: &str) -> StaticAnalysis {
        analyze_text("fixture.rs", &fixture(receive_body, extra), "Fx", true)
    }

    fn codes(sa: &StaticAnalysis) -> Vec<&str> {
        sa.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn opaque_quorum_guard_raises_s040() {
        let sa = analyze(
            "if st.acks >= st.n - quorum_slack() { st.queue.push(x); }",
            "",
        );
        assert_eq!(codes(&sa), vec!["S040"], "{:?}", sa.diagnostics);
    }

    #[test]
    fn quorum_threshold_is_normalized_and_convicts_wait_free() {
        let sa = analyze("if st.acks >= st.n / 2 + 1 { st.queue.push(x); }", "");
        assert_eq!(codes(&sa), vec!["S041"], "{:?}", sa.diagnostics);
        let d = &sa.diagnostics[0];
        assert!(d.message.contains("reach 2"), "got {}", d.message);
        assert!(d.message.contains("solo run supplies exactly 1"));
    }

    #[test]
    fn rendered_code_keeps_adjacent_tokens_joined() {
        let run = lexer::scan("gate.raw() % 2 == 0 && st.n  /2 = = x").tokens;
        assert_eq!(render_run(&run), "gate.raw() % 2 == 0 && st.n /2 = = x");
        let sa = analyze("if st.acks >= st.n / 2 + 1 { st.queue.push(x); }", "");
        let d = &sa.diagnostics[0];
        assert!(
            d.message
                .contains("counter `st.acks` to reach 2 (threshold `st.n / 2 + 1` = 2 at n = 3)"),
            "got {}",
            d.message
        );
    }

    #[test]
    fn low_thresholds_and_non_wait_free_claims_pass() {
        // Threshold 1 is satisfiable solo.
        let sa = analyze("if st.acks >= st.n - 2 { st.queue.push(x); }", "");
        assert!(codes(&sa).is_empty(), "{:?}", sa.diagnostics);
        // Without the wait_free claim, a quorum guard is honest.
        let src = fixture("if st.acks >= st.n / 2 + 1 { st.queue.push(x); }", "");
        let sa = analyze_text("fixture.rs", &src, "Fx", false);
        assert!(codes(&sa).is_empty(), "{:?}", sa.diagnostics);
    }

    #[test]
    fn tainted_state_write_raises_s044() {
        let sa = analyze(
            "let c = payload.content;\n\
             st.mode = c;\n\
             if st.mode == 1 { st.queue.push(x); }",
            "",
        );
        assert_eq!(codes(&sa), vec!["S044"], "{:?}", sa.diagnostics);
    }

    #[test]
    fn aliased_slice_index_raises_s045() {
        let sa = analyze(
            "let idx = payload.sender.index();\n\
             st.slots[idx].insert(payload.id, payload);\n\
             st.slots[0].clear();",
            "",
        );
        assert!(codes(&sa).contains(&"S045"), "{:?}", sa.diagnostics);
    }

    #[test]
    fn escaping_mut_borrow_raises_s046() {
        let sa = analyze("compact(&mut st.inbox);", "");
        assert_eq!(codes(&sa), vec!["S046"], "{:?}", sa.diagnostics);
    }

    #[test]
    fn foreign_parameter_write_raises_s047_but_local_copies_are_exempt() {
        let sa = analyze("payload.hops = payload.hops + 1;", "");
        assert_eq!(codes(&sa), vec!["S047"], "{:?}", sa.diagnostics);
        // Misattributing's idiom: mutating a *local copy* of the payload is
        // not a foreign write.
        let sa = analyze(
            "let mut msg = payload;\n\
             msg.hops = msg.hops + 1;\n\
             st.queue.push(msg);",
            "",
        );
        assert!(codes(&sa).is_empty(), "{:?}", sa.diagnostics);
    }

    #[test]
    fn quorum_blocking_is_convicted_by_arithmetic_alone() {
        let root = workspace_root();
        let source = std::fs::read_to_string(root.join("crates/broadcast/src/faulty.rs"))
            .expect("faulty.rs exists");
        // The static half alone convicts — no probe execution involved.
        let sa = analyze_text(
            "crates/broadcast/src/faulty.rs",
            &source,
            "QuorumBlocking",
            true,
        );
        let cs = codes(&sa);
        assert!(cs.contains(&"S041"), "{:?}", sa.diagnostics);
        assert!(cs.contains(&"S042"), "{:?}", sa.diagnostics);
        assert!(!sa.receives_commute, "acks_received += 1 is a global write");
        for d in &sa.diagnostics {
            assert!(d.line > 1 && d.col > 1, "witness must be a real span");
            let line = source.lines().nth(d.line - 1).expect("witness line exists");
            assert!(
                line.contains("st.n / 2 + 1"),
                "witness {}:{} must point at the quorum comparison, got {line:?}",
                d.line,
                d.col
            );
        }
    }

    #[test]
    fn content_gated_is_convicted_statically() {
        let root = workspace_root();
        let source = std::fs::read_to_string(root.join("crates/broadcast/src/faulty.rs"))
            .expect("faulty.rs exists");
        let sa = analyze_text(
            "crates/broadcast/src/faulty.rs",
            &source,
            "ContentGated",
            true,
        );
        assert_eq!(codes(&sa), vec!["S043"], "{:?}", sa.diagnostics);
        let d = &sa.diagnostics[0];
        assert!(d.message.contains("content"), "got {}", d.message);
        assert!(d.line > 1, "witness anchored at the branch, got {}", d.line);
    }

    #[test]
    fn fifo_footprint_classifies_every_field() {
        let root = workspace_root();
        let source = std::fs::read_to_string(root.join("crates/broadcast/src/fifo.rs"))
            .expect("fifo.rs exists");
        let sa = analyze_text(
            "crates/broadcast/src/fifo.rs",
            &source,
            "FifoBroadcast",
            true,
        );
        assert!(codes(&sa).is_empty(), "{:?}", sa.diagnostics);
        assert!(sa.receives_commute, "footprint: {}", sa.footprint);
        assert!(sa.invoke_commutes, "footprint: {}", sa.footprint);
        assert!(sa.footprint.contains("seen=keyed"), "{}", sa.footprint);
        assert!(
            sa.footprint.contains("buffered=sender-sliced"),
            "{}",
            sa.footprint
        );
        assert!(sa.footprint.contains("queue=drained"), "{}", sa.footprint);
    }

    #[test]
    fn healthy_algorithms_are_clean_and_certs_match_footprints() {
        let report = dataflow_check(&workspace_root(), false).expect("dataflow check runs");
        assert!(
            report.healthy_clean(),
            "healthy findings:\n{}",
            report.render()
        );
        // Does the report issue a valid certificate for `name`?
        let independent = |name: &str| {
            report
                .certs
                .iter()
                .any(|c| c.algorithm == name && c.valid())
        };
        // Certified: every access in `on_receive` classifies.
        for name in ["fifo", "send-to-all", "eager-reliable(uniform)"] {
            assert!(independent(name), "{name}\n{}", report.render());
        }
        // Uncertified but clean: the footprint honestly fails (global
        // scans), which is not a finding.
        for name in ["causal", "sequencer"] {
            assert!(!independent(name), "{name}");
            assert!(!report.convicted(name), "{name}");
        }
        // Uncertified and convicted.
        for name in [
            "faulty:quorum-blocking",
            "faulty:content-gated",
            "faulty:misattributing",
        ] {
            assert!(!independent(name), "{name}");
            assert!(report.convicted(name), "{name}\n{}", report.render());
        }
        // Independence is orthogonal to correctness: symmetric faulty
        // variants whose receive footprints genuinely commute are
        // certified (their bugs are caught by other engines).
        for name in ["faulty:duplicating", "faulty:lossy", "faulty:rank-biased"] {
            assert!(independent(name), "{name}\n{}", report.render());
        }
        for cert in &report.certs {
            assert_eq!(cert.schema, INDEPENDENCE_CERT_SCHEMA);
            assert!(cert.receives_commute);
            assert!(!cert.evidence.is_empty(), "{}", cert.algorithm);
            assert!(cert.handlers_analyzed >= 2, "{}", cert.algorithm);
        }
    }

    #[test]
    fn misattributing_fails_the_dynamic_cross_check() {
        let report = dataflow_check(&workspace_root(), false).expect("dataflow check runs");
        let a = report
            .algorithms
            .iter()
            .find(|a| a.name == "faulty:misattributing")
            .expect("registered");
        let cs: Vec<&str> = a.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(cs, vec!["S048"], "{}", report.render());
        assert!(!a.certified);
        assert!(
            a.diagnostics[0].message.contains("probe refutes"),
            "got {}",
            a.diagnostics[0].message
        );
    }

    #[test]
    fn the_two_order_probe_compares_final_states() {
        assert_eq!(
            probe_independence(&camp_broadcast::SendToAll::new()),
            Ok(())
        );
        // k-stepped's round state lists its receipts in arrival order.
        let why = probe_independence(&camp_broadcast::SteppedBroadcast::new())
            .expect_err("the receive order shows in the final state");
        assert!(why.starts_with("final states differ"), "{why}");
    }

    #[test]
    fn report_is_deterministic() {
        let a = dataflow_check(&workspace_root(), false).expect("first run");
        let b = dataflow_check(&workspace_root(), false).expect("second run");
        assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize")
        );
    }
}
