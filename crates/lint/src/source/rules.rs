//! The `S0xx` source rules.
//!
//! Each rule scans the token stream of one file (see [`super::lexer`]) and
//! reports occurrences of constructs that protocol code must not contain.
//! The rules are deliberately lexical: they trade a small false-positive
//! risk (paid off with a suppression comment carrying a reason) for running
//! in O(source) with zero dependencies, the same trade `grep`-based lints
//! make. What they protect is semantic, though: seeded replay, fingerprint
//! dedup, and the paper's content-neutrality hypothesis only hold if
//! protocol code stays inside the deterministic fragment these rules fence.

use crate::diagnostics::Severity;

use super::lexer::Token;

/// A source finding before it is joined with file metadata: the rule knows
/// *what* and *where in the file*, the walker adds *which file*.
#[derive(Debug, Clone)]
pub struct Finding {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// What went wrong, in terms of the concrete source.
    pub message: String,
}

/// One source rule: a stable code, a severity, an optional crate scope, and
/// a matcher over the token stream.
pub struct SourceRule {
    /// Stable rule code, e.g. `"S001"`.
    pub code: &'static str,
    /// Human-readable rule name, e.g. `"hash-collection"`.
    pub name: &'static str,
    /// Severity of every finding of this rule.
    pub severity: Severity,
    /// If set, the rule only runs on these crates (by directory name).
    pub crates: Option<&'static [&'static str]>,
    /// Why the rule exists, shown by `camp-lint rules`.
    pub rationale: &'static str,
    check: fn(&[Token]) -> Vec<Finding>,
}

impl SourceRule {
    /// Runs the rule over one file's tokens.
    #[must_use]
    pub fn check(&self, tokens: &[Token]) -> Vec<Finding> {
        (self.check)(tokens)
    }

    /// Does this rule apply to files of `crate_name`?
    #[must_use]
    pub fn applies_to(&self, crate_name: &str) -> bool {
        self.crates.is_none_or(|cs| cs.contains(&crate_name))
    }
}

/// The default `S0xx` registry, in code order.
#[must_use]
pub fn source_rules() -> Vec<SourceRule> {
    vec![
        SourceRule {
            code: "S001",
            name: "hash-collection",
            severity: Severity::Error,
            crates: None,
            rationale: "HashMap/HashSet iteration order depends on a per-process random \
                        hasher; Debug-formatting or iterating one in protocol state breaks \
                        seeded replay and fingerprint dedup. Use BTreeMap/BTreeSet.",
            check: |t| {
                idents(t, &["HashMap", "HashSet"], |name| {
                    format!(
                        "`{name}` has nondeterministic iteration order (per-process \
                         RandomState); protocol code must use `BTree{}` instead",
                        &name[4..]
                    )
                })
            },
        },
        SourceRule {
            code: "S002",
            name: "wall-clock",
            severity: Severity::Error,
            crates: None,
            rationale: "Instant::now/SystemTime read the wall clock, which differs across \
                        replays of the same seed; simulated time is the scheduler's job.",
            check: |t| {
                idents(t, &["Instant", "SystemTime"], |name| {
                    format!(
                        "`{name}` reads the wall clock; protocol code must be replayable \
                             from the seed alone"
                    )
                })
            },
        },
        SourceRule {
            code: "S003",
            name: "float-in-protocol",
            severity: Severity::Error,
            crates: None,
            rationale: "f32/f64 make state fingerprints platform-sensitive (NaN, -0.0, x87 \
                        excess precision) and have no place in counting-argument protocols.",
            check: |t| {
                idents(t, &["f32", "f64"], |name| {
                    format!(
                        "`{name}` in protocol code: floating point is not portable under \
                             fingerprinting; thresholds and counters must be integers"
                    )
                })
            },
        },
        SourceRule {
            code: "S004",
            name: "ambient-randomness",
            severity: Severity::Error,
            crates: None,
            rationale: "thread_rng/RandomState/from_entropy draw entropy outside the seeded \
                        StdRng the scheduler owns, so reruns of a seed diverge.",
            check: |t| {
                idents(
                    t,
                    &["thread_rng", "RandomState", "from_entropy", "getrandom"],
                    |name| {
                        format!(
                            "`{name}` draws ambient entropy; all randomness must come from \
                                 the scheduler's seeded StdRng"
                        )
                    },
                )
            },
        },
        SourceRule {
            code: "S005",
            name: "unsafe-code",
            severity: Severity::Error,
            crates: None,
            rationale: "The workspace forbids unsafe; an unsafe block in protocol code voids \
                        every replay and memory-safety argument the checker relies on.",
            check: |t| {
                idents(t, &["unsafe"], |_| {
                    "`unsafe` is forbidden in protocol crates".to_string()
                })
            },
        },
        SourceRule {
            code: "S006",
            name: "thread-spawn",
            severity: Severity::Error,
            crates: None,
            rationale: "Protocol handlers run single-threaded under the simulator; spawning \
                        OS threads reintroduces real concurrency the model checker cannot \
                        enumerate (only the threaded runtime, outside the protocol crates, \
                        may spawn).",
            check: |t| {
                seq(t, &["thread", ":", ":", "spawn"], || {
                    "`thread::spawn` in protocol code: handlers must stay single-threaded \
                     under the simulator"
                        .to_string()
                })
            },
        },
        SourceRule {
            code: "S007",
            name: "global-mutable-state",
            severity: Severity::Error,
            crates: None,
            rationale: "Globals survive across simulated runs, so the second run of a seed \
                        starts from different state than the first; all state must live in \
                        the algorithm's State type.",
            check: |t| {
                let mut out = seq(t, &["static", "mut"], || {
                    "`static mut` is global mutable state; protocol state must live in the \
                     algorithm's State type"
                        .to_string()
                });
                out.extend(idents(
                    t,
                    &["OnceLock", "OnceCell", "lazy_static"],
                    |name| {
                        format!(
                            "`{name}` is global mutable state; protocol state must live in \
                             the algorithm's State type"
                        )
                    },
                ));
                out
            },
        },
        SourceRule {
            code: "S008",
            name: "process-exit",
            severity: Severity::Warning,
            crates: None,
            rationale: "process::exit/abort tear down the whole simulator, not one simulated \
                        process; crashes are injected by the scheduler, never self-inflicted.",
            check: |t| {
                let mut out = seq(t, &["process", ":", ":", "exit"], || {
                    "`process::exit` kills the simulator, not the simulated process".to_string()
                });
                out.extend(seq(t, &["process", ":", ":", "abort"], || {
                    "`process::abort` kills the simulator, not the simulated process".to_string()
                }));
                out
            },
        },
        SourceRule {
            code: "S009",
            name: "payload-inspection",
            severity: Severity::Error,
            crates: Some(&["broadcast"]),
            rationale: "Hypothesis H1 (content-neutrality) of Gay-Mostefaoui-Perrin: a \
                        broadcast abstraction must treat payloads as opaque. Branching on \
                        `Value` content voids the paper's impossibility argument for the \
                        algorithm.",
            check: payload_inspection,
        },
        SourceRule {
            code: "S010",
            name: "env-read",
            severity: Severity::Warning,
            crates: None,
            rationale: "Environment variables vary between hosts and runs; configuration \
                        must flow through constructor parameters so runs are reproducible.",
            check: |t| {
                let mut out = seq(t, &["env", ":", ":", "var"], || {
                    "`env::var` makes behaviour depend on the host environment".to_string()
                });
                out.extend(seq(t, &["env", ":", ":", "var_os"], || {
                    "`env::var_os` makes behaviour depend on the host environment".to_string()
                }));
                out
            },
        },
        SourceRule {
            code: "S011",
            name: "unused-suppression",
            severity: Severity::Warning,
            crates: None,
            rationale: "A `camp-lint: allow(...)` comment that silences nothing is a stale \
                        exemption: the offending code moved or was fixed, and the comment now \
                        documents a hole that is not there — or worse, masks a future \
                        regression on the wrong line. Suppressions must stay attached to the \
                        findings they discharge.",
            // The matcher is empty on purpose: unused suppressions are a
            // property of the *whole file's* findings, not of the token
            // stream, so the walker in `super::lint_source` implements this
            // rule after every other rule has run.
            check: |_| Vec::new(),
        },
    ]
}

/// Findings for every token whose text is in `names`.
fn idents(tokens: &[Token], names: &[&str], msg: impl Fn(&str) -> String) -> Vec<Finding> {
    tokens
        .iter()
        .filter(|t| names.contains(&t.text.as_str()))
        .map(|t| Finding {
            line: t.line,
            col: t.col,
            message: msg(&t.text),
        })
        .collect()
}

/// Findings for every occurrence of the exact token sequence `pat`.
fn seq(tokens: &[Token], pat: &[&str], msg: impl Fn() -> String) -> Vec<Finding> {
    let mut out = Vec::new();
    if tokens.len() < pat.len() {
        return out;
    }
    for i in 0..=tokens.len() - pat.len() {
        if pat
            .iter()
            .enumerate()
            .all(|(k, p)| tokens[i + k].text == *p)
        {
            out.push(Finding {
                line: tokens[i].line,
                col: tokens[i].col,
                message: msg(),
            });
        }
    }
    out
}

/// S009: `.content` compared or pattern-matched in a broadcast handler.
///
/// Carrying a payload (`content: msg.content`, relaying it in a send) is
/// content-neutral and allowed; *branching* on it is not. Two lexical
/// patterns cover branching:
///
/// * `.content` (optionally via `.raw()`) adjacent to a comparison operator
///   on either side — `if msg.content == …`, `… > m.content.raw()`;
/// * `.content` inside a `match` scrutinee — `match msg.content { … }`.
fn payload_inspection(tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].text != "content" || i == 0 || tokens[i - 1].text != "." {
            continue;
        }
        // Comparison after: skip over a `.raw()` chain first.
        let mut j = i + 1;
        while j < tokens.len() && matches!(tokens[j].text.as_str(), "." | "raw" | "(" | ")") {
            j += 1;
        }
        let cmp_after = j < tokens.len() && starts_comparison(tokens, j);
        // Comparison before: the token before the `.` receiver chain. Walk
        // left over the receiver expression (`msg.content` → before `msg`).
        let mut k = i - 1; // the `.`
        while k > 0 && (is_ident(&tokens[k - 1].text) || tokens[k - 1].text == ".") {
            k -= 1;
        }
        let cmp_before = k > 0 && ends_comparison(tokens, k - 1);
        if cmp_after || cmp_before {
            out.push(Finding {
                line: tokens[i].line,
                col: tokens[i].col,
                message: "payload content is compared; broadcast algorithms must treat \
                          `Value` as opaque (content-neutrality, hypothesis H1)"
                    .to_string(),
            });
            continue;
        }
        // `match` scrutinee: a `match` token before it with no `{` between.
        let mut m = i - 1;
        let mut in_scrutinee = false;
        while m > 0 {
            m -= 1;
            match tokens[m].text.as_str() {
                "{" | "}" | ";" => break,
                "match" => {
                    in_scrutinee = true;
                    break;
                }
                _ => {}
            }
        }
        if in_scrutinee {
            out.push(Finding {
                line: tokens[i].line,
                col: tokens[i].col,
                message: "payload content is pattern-matched; broadcast algorithms must \
                          treat `Value` as opaque (content-neutrality, hypothesis H1)"
                    .to_string(),
            });
        }
    }
    out
}

fn is_ident(text: &str) -> bool {
    text.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// Two tokens are adjacent characters on the same line (so `=` `=` spells
/// `==`, not two assignments).
fn adjacent(a: &Token, b: &Token) -> bool {
    a.line == b.line && a.col + a.text.chars().count() == b.col
}

/// Does a comparison operator *start* at token `j`? Recognises `==`, `!=`,
/// `<`, `<=`, `>`, `>=`, excluding `->`, `=>`, `<<`, `>>` and lone `=`.
fn starts_comparison(tokens: &[Token], j: usize) -> bool {
    let next_is = |t: &str| {
        j + 1 < tokens.len() && tokens[j + 1].text == t && adjacent(&tokens[j], &tokens[j + 1])
    };
    match tokens[j].text.as_str() {
        "=" => next_is("="),
        "!" => next_is("="),
        "<" => !next_is("<"),
        ">" => !next_is(">"),
        _ => false,
    }
}

/// Does a comparison operator *end* at token `j`? The mirror of
/// [`starts_comparison`] for operators sitting to the left of an operand.
fn ends_comparison(tokens: &[Token], j: usize) -> bool {
    let prev_is =
        |t: &str| j > 0 && tokens[j - 1].text == t && adjacent(&tokens[j - 1], &tokens[j]);
    match tokens[j].text.as_str() {
        "=" => prev_is("=") || prev_is("!") || prev_is("<") || prev_is(">"),
        "<" => !prev_is("<") && !prev_is("-") && !prev_is("="),
        ">" => !prev_is(">") && !prev_is("-") && !prev_is("="),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::super::lexer::scan;
    use super::*;

    fn findings(code: &str, src: &str) -> Vec<Finding> {
        let rule_set = source_rules();
        let rule = rule_set
            .iter()
            .find(|r| r.code == code)
            .expect("known rule");
        rule.check(&scan(src).tokens)
    }

    #[test]
    fn s001_flags_hash_collections() {
        let f = findings(
            "S001",
            "use std::collections::HashMap;\nlet s: HashSet<u8> = x;",
        );
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].line, f[0].col), (1, 23));
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn s001_ignores_btree_and_comments() {
        assert!(findings("S001", "// HashMap in a comment\nlet s: BTreeSet<u8> = x;").is_empty());
    }

    #[test]
    fn s006_matches_only_the_full_path() {
        assert_eq!(findings("S006", "std::thread::spawn(|| {});").len(), 1);
        assert!(findings("S006", "let thread = 1; spawn(f);").is_empty());
    }

    #[test]
    fn s007_static_mut_and_cells() {
        let f = findings(
            "S007",
            "static mut X: u8 = 0;\nstatic Y: OnceLock<u8> = OnceLock::new();",
        );
        assert_eq!(f.len(), 3); // static mut + two OnceLock mentions
    }

    #[test]
    fn s009_comparison_after_content() {
        assert_eq!(
            findings("S009", "if msg.content == Value::new(7) { x(); }").len(),
            1
        );
        assert_eq!(
            findings("S009", "if msg.content.raw() > 5 { x(); }").len(),
            1
        );
    }

    #[test]
    fn s009_comparison_before_content() {
        assert_eq!(
            findings("S009", "if Value::new(7) == msg.content { x(); }").len(),
            1
        );
        assert_eq!(
            findings("S009", "if limit < m.content.raw() { x(); }").len(),
            1
        );
    }

    #[test]
    fn s009_match_scrutinee() {
        assert_eq!(
            findings("S009", "match msg.content { v => use_it(v) }").len(),
            1
        );
    }

    #[test]
    fn s009_allows_opaque_carrying() {
        assert!(findings(
            "S009",
            "let m = AppMessage { content: msg.content, id, sender };"
        )
        .is_empty());
        assert!(findings("S009", "forward(msg.content);").is_empty());
        assert!(findings("S009", "let c = msg.content;").is_empty());
        // Fat arrows and generics are not comparisons.
        assert!(findings("S009", "Some(x) => f(msg.content),").is_empty());
    }
}
