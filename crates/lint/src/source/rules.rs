//! `S009`, the one rule of the source pass.
//!
//! The rule scans the token stream of one file (see [`super::lexer`]) for
//! `.content` being compared or pattern-matched. It is deliberately
//! lexical: it runs in O(source) with zero dependencies, the same trade
//! `grep`-based lints make. What it protects is semantic, though: the
//! paper's content-neutrality hypothesis only holds if broadcast code never
//! branches on a payload. Codes `S001`–`S008` and `S010` name the bans on
//! types and paths in clippy's list, `lints/clippy.toml`.

use super::lexer::{adjacent, Token};

/// Metadata for the source rules, mirrored by `camp-lint rules`.
pub const SOURCE_RULES: &[(&str, &str, &str)] = &[(
    "S009",
    "payload-inspection",
    "Hypothesis H1 (content-neutrality) of Gay-Mostefaoui-Perrin: a broadcast abstraction \
     must treat payloads as opaque. Comparing or matching on `Value` content voids the \
     paper's impossibility argument for the algorithm.",
)];

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

/// The methods of `PartialEq`, `PartialOrd` and `Ord`: `a.eq(&b)` branches
/// on the same thing `a == b` does.
const COMPARISON_METHODS: &[&str] = &["eq", "ne", "cmp", "partial_cmp", "lt", "le", "gt", "ge"];

/// S009: `.content` compared or pattern-matched in a broadcast handler.
///
/// Carrying a payload (`content: msg.content`, relaying it in a send,
/// binding it with a plain `let`) is content-neutral and allowed;
/// *branching* on it is not. The private `inspection` helper lists the
/// shapes caught.
#[must_use]
pub fn payload_inspection(tokens: &[Token]) -> Vec<Finding> {
    (1..tokens.len())
        .filter(|&i| tokens[i].text == "content" && tokens[i - 1].text == ".")
        .filter_map(|i| {
            let how = inspection(tokens, i)?;
            Some(Finding {
                line: tokens[i].line,
                col: tokens[i].col,
                message: format!(
                    "payload content is {how}; broadcast algorithms must treat `Value` as \
                     opaque (content-neutrality, hypothesis H1)"
                ),
            })
        })
        .collect()
}

/// How the `.content` at `tokens[i]` is inspected, if it is:
///
/// * `"compared"` — `.content` (optionally via `.raw()`) next to a
///   comparison operator on either side (`msg.content == …`,
///   `… > m.content.raw()`), the receiver of a comparison method
///   (`msg.content.eq(…)`), or an argument of one (`v.cmp(&msg.content)`);
/// * `"pattern-matched"` — `.content` in a `match` or `if let` / `while let`
///   scrutinee, the first argument of `matches!`, or the scrutinee of a
///   `let … else`.
fn inspection(tokens: &[Token], i: usize) -> Option<&'static str> {
    const COMPARED: &str = "compared";
    const MATCHED: &str = "pattern-matched";
    let text = |k: usize| tokens.get(k).map_or("", |t| t.text.as_str());
    // After: skip over a `.raw()` chain first.
    let mut j = i + 1;
    while matches!(text(j), "." | "raw" | "(" | ")") {
        j += 1;
    }
    let method_after = text(j - 1) == "." && COMPARISON_METHODS.contains(&text(j));
    if method_after || starts_comparison(tokens, j) {
        return Some(COMPARED);
    }
    // Before: walk left over the receiver expression (`msg.content` →
    // before `msg`) to the token that might end a comparison operator.
    let mut k = i - 1;
    while k > 0 && (is_ident(text(k - 1)) || text(k - 1) == ".") {
        k -= 1;
    }
    if k > 0 && ends_comparison(tokens, k - 1) {
        return Some(COMPARED);
    }
    // Enclosing construct: walk left to the start of the statement, leaving
    // each argument list that holds the access on the way.
    let mut depth = 0usize;
    let mut first_arg = true;
    for m in (0..i - 1).rev() {
        match text(m) {
            "{" | "}" | ";" => return None,
            "match" => return Some(MATCHED),
            "let" => {
                let conditional = matches!(text(m.wrapping_sub(1)), "if" | "while");
                return (conditional || let_else(&tokens[i..])).then_some(MATCHED);
            }
            ")" | "]" => depth += 1,
            "(" | "[" if depth > 0 => depth -= 1,
            "," if depth == 0 => first_arg = false,
            "(" => {
                let callee = text(m.wrapping_sub(1));
                if COMPARISON_METHODS.contains(&callee) {
                    return Some(COMPARED);
                }
                if first_arg && callee == "!" && text(m.wrapping_sub(2)) == "matches" {
                    return Some(MATCHED);
                }
                first_arg = true;
            }
            _ => {}
        }
    }
    None
}

/// Does the statement running on from `rest` turn out to be a `let … else`?
fn let_else(rest: &[Token]) -> bool {
    rest.iter()
        .map(|t| t.text.as_str())
        .take_while(|t| !matches!(*t, ";" | "{" | "}"))
        .any(|t| t == "else")
}

fn is_ident(text: &str) -> bool {
    text.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// Does a comparison operator *start* at token `j`? Recognises `==`, `!=`,
/// `<`, `<=`, `>`, `>=`, excluding `->`, `=>`, `<<`, `>>` and lone `=`.
fn starts_comparison(tokens: &[Token], j: usize) -> bool {
    let Some(tok) = tokens.get(j) else {
        return false;
    };
    let next_is = |t: &str| {
        tokens
            .get(j + 1)
            .is_some_and(|n| n.text == t && adjacent(tok, n))
    };
    match tok.text.as_str() {
        "=" | "!" => next_is("="),
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

    fn findings(src: &str) -> Vec<Finding> {
        payload_inspection(&scan(src).tokens)
    }

    /// Asserts `src` draws exactly one finding, saying `how`.
    fn flagged(src: &str, how: &str) {
        let f = findings(src);
        assert_eq!(f.len(), 1, "{src:?} must draw one finding, got {f:?}");
        assert!(
            f[0].message
                .starts_with(&format!("payload content is {how};")),
            "{src:?}: {}",
            f[0].message
        );
    }

    #[test]
    fn s009_comparison_after_content() {
        flagged("if msg.content == Value::new(7) { x(); }", "compared");
        flagged("if msg.content.raw() > 5 { x(); }", "compared");
    }

    #[test]
    fn s009_comparison_before_content() {
        flagged("if Value::new(7) == msg.content { x(); }", "compared");
        flagged("if limit < m.content.raw() { x(); }", "compared");
    }

    #[test]
    fn s009_comparison_methods() {
        flagged("if msg.content.eq(&flag) { x(); }", "compared");
        flagged("if msg.content.ne(&flag) { x(); }", "compared");
        flagged("let o = msg.content.cmp(&flag);", "compared");
        flagged("let o = msg.content.partial_cmp(&flag);", "compared");
    }

    #[test]
    fn s009_comparison_method_argument() {
        flagged("if flag.eq(&msg.content) { x(); }", "compared");
    }

    #[test]
    fn s009_match_scrutinee() {
        flagged("match msg.content { v => use_it(v) }", "pattern-matched");
    }

    #[test]
    fn s009_matches_macro() {
        flagged(
            "if matches!(msg.content, Value(7)) { x(); }",
            "pattern-matched",
        );
    }

    #[test]
    fn s009_if_let() {
        flagged("if let Value(7) = msg.content { x(); }", "pattern-matched");
    }

    #[test]
    fn s009_while_let() {
        flagged(
            "while let Some(v) = msg.content { x(); }",
            "pattern-matched",
        );
    }

    #[test]
    fn s009_let_else() {
        flagged(
            "let Value(7) = msg.content else { return };",
            "pattern-matched",
        );
    }

    #[test]
    fn s009_allows_opaque_carrying() {
        for src in [
            "let m = AppMessage { content: msg.content, id, sender };",
            "forward(msg.content);",
            "let c = msg.content;",
            "let gate = payload.0.content;",
            // Fat arrows and generics are not comparisons.
            "Some(x) => f(msg.content),",
            // Only the first argument of `matches!` is its scrutinee.
            "let ok = matches!(kind, Kind::A) && relay(msg.content);",
        ] {
            assert!(findings(src).is_empty(), "{src:?}: {:?}", findings(src));
        }
    }
}
