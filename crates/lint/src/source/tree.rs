//! A lightweight token-tree layer over the lexer.
//!
//! Rule `S009` is purely lexical: it pattern-matches flat token windows.
//! The dataflow engine (S040–S048) needs *structure* — which
//! tokens sit inside which handler body, what an `if` condition spans, what
//! the parameters of `on_receive` are called. This module supplies exactly
//! that structure and nothing more: tokens are grouped by their bracket
//! nesting (`()`, `[]`, `{}`), and a few shape-recognisers pull out `impl`
//! blocks, `fn` items, and branch conditions.
//!
//! This is intentionally not a Rust parser. It never fails: unbalanced
//! brackets degrade to leaves, unrecognised shapes are skipped. The dataflow
//! rules are written to be conservative under that degradation (they bail
//! toward "no finding, no certificate" when a shape does not match).

use super::lexer::Token;

/// One node of the token tree: a bare token or a bracketed group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A single non-bracket token.
    Leaf(Token),
    /// A bracketed group and everything inside it.
    Group(Group),
}

/// A bracketed token group.
#[derive(Debug, Clone)]
pub struct Group {
    /// The opening delimiter: `(`, `[`, or `{`.
    pub delim: char,
    /// The opening delimiter token (position source for diagnostics).
    pub open: Token,
    /// The matching closing token, if the source was balanced.
    pub close: Option<Token>,
    /// The trees between the delimiters.
    pub children: Vec<Tree>,
}

impl Tree {
    /// The token text if this is a leaf.
    #[must_use]
    pub fn leaf_text(&self) -> Option<&str> {
        match self {
            Tree::Leaf(t) => Some(&t.text),
            Tree::Group(_) => None,
        }
    }

    /// True when this is the leaf `text`.
    #[must_use]
    pub fn is_leaf(&self, text: &str) -> bool {
        self.leaf_text() == Some(text)
    }
}

/// Builds the token tree for a flat token stream.
#[must_use]
pub fn parse(tokens: &[Token]) -> Vec<Tree> {
    let mut pos = 0;
    let (trees, _) = parse_until(tokens, &mut pos, None);
    trees
}

fn matching(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

fn single_char(tok: &Token) -> Option<char> {
    let mut chars = tok.text.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => Some(c),
        _ => None,
    }
}

fn parse_until(
    tokens: &[Token],
    pos: &mut usize,
    close: Option<char>,
) -> (Vec<Tree>, Option<Token>) {
    let mut out = Vec::new();
    while *pos < tokens.len() {
        let tok = &tokens[*pos];
        match single_char(tok) {
            Some(c @ ('(' | '[' | '{')) => {
                let open = tok.clone();
                *pos += 1;
                let (children, closer) = parse_until(tokens, pos, Some(matching(c)));
                out.push(Tree::Group(Group {
                    delim: c,
                    open,
                    close: closer,
                    children,
                }));
            }
            Some(c @ (')' | ']' | '}')) if close == Some(c) => {
                let closer = tok.clone();
                *pos += 1;
                return (out, Some(closer));
            }
            _ => {
                // Stray closers (unbalanced source) degrade to leaves.
                out.push(Tree::Leaf(tok.clone()));
                *pos += 1;
            }
        }
    }
    (out, None)
}

/// Flattens trees back into tokens, reproducing delimiters so expression
/// text round-trips (parenthesised arithmetic stays parenthesised).
pub fn flatten_into(trees: &[Tree], out: &mut Vec<Token>) {
    for tree in trees {
        match tree {
            Tree::Leaf(t) => out.push(t.clone()),
            Tree::Group(g) => {
                out.push(g.open.clone());
                flatten_into(&g.children, out);
                if let Some(close) = &g.close {
                    out.push(close.clone());
                }
            }
        }
    }
}

/// Flattens trees into a fresh token vector.
#[must_use]
pub fn flatten(trees: &[Tree]) -> Vec<Token> {
    let mut out = Vec::new();
    flatten_into(trees, &mut out);
    out
}

/// A `fn` item found inside an `impl` block.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name token (position anchors diagnostics).
    pub name: Token,
    /// Parameter names in order; receiver is recorded as `"self"`.
    pub params: Vec<String>,
    /// The brace-delimited body.
    pub body: Group,
}

/// An `impl` block, trait or inherent.
#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// `Some("BroadcastAlgorithm")` for `impl Trait for Type`, `None` for
    /// an inherent `impl Type`.
    pub trait_name: Option<String>,
    /// The implementing type's name.
    pub type_name: String,
    /// `type State = Foo;` inside the block, when present.
    pub assoc_state: Option<String>,
    /// Every `fn` with a brace body, in source order.
    pub fns: Vec<FnDef>,
}

impl ImplBlock {
    /// Finds a function by name.
    #[must_use]
    pub fn find_fn(&self, name: &str) -> Option<&FnDef> {
        self.fns.iter().find(|f| f.name.text == name)
    }
}

/// Does `text` start like an identifier?
pub(crate) fn is_ident(text: &str) -> bool {
    text.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Collects every `impl` block in the tree, recursing into modules.
#[must_use]
pub fn impl_blocks(trees: &[Tree]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    collect_impls(trees, &mut out);
    out
}

fn collect_impls(trees: &[Tree], out: &mut Vec<ImplBlock>) {
    let mut i = 0;
    while i < trees.len() {
        if trees[i].is_leaf("impl") {
            // Header leaves up to the brace body. `<`/`>` arrive as
            // individual leaves, so generic headers simply contribute
            // extra header tokens the name scan skips over.
            let mut header: Vec<&str> = Vec::new();
            let mut j = i + 1;
            let mut body: Option<&Group> = None;
            while j < trees.len() {
                match &trees[j] {
                    Tree::Group(g) if g.delim == '{' => {
                        body = Some(g);
                        break;
                    }
                    Tree::Leaf(t) => header.push(&t.text),
                    Tree::Group(_) => {}
                }
                j += 1;
            }
            if let Some(body) = body {
                if let Some(block) = parse_impl(&header, body) {
                    out.push(block);
                }
                i = j + 1;
                continue;
            }
        }
        if let Tree::Group(g) = &trees[i] {
            collect_impls(&g.children, out);
        }
        i += 1;
    }
}

fn parse_impl(header: &[&str], body: &Group) -> Option<ImplBlock> {
    let split = header.iter().position(|t| *t == "for");
    let (trait_part, type_part) = match split {
        Some(k) => (&header[..k], &header[k + 1..]),
        None => (&header[..0], header),
    };
    let first_ident = |toks: &[&str]| {
        toks.iter()
            .find(|t| is_ident(t) && !matches!(**t, "for" | "dyn" | "mut"))
            .map(|t| (*t).to_string())
    };
    let type_name = first_ident(type_part)?;
    let trait_name = if split.is_some() {
        first_ident(trait_part)
    } else {
        None
    };
    Some(ImplBlock {
        trait_name,
        type_name,
        assoc_state: assoc_state(&body.children),
        fns: fns_in(&body.children),
    })
}

fn assoc_state(body: &[Tree]) -> Option<String> {
    for w in body.windows(4) {
        if w[0].is_leaf("type") && w[1].is_leaf("State") && w[2].is_leaf("=") {
            if let Some(name) = w[3].leaf_text() {
                if is_ident(name) {
                    return Some(name.to_string());
                }
            }
        }
    }
    None
}

fn fns_in(body: &[Tree]) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if body[i].is_leaf("fn") {
            let name = match body.get(i + 1) {
                Some(Tree::Leaf(t)) if is_ident(&t.text) => t.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            // First `(` group after the name is the parameter list; the
            // first `{` group after that is the body (return types never
            // contain bare braces).
            let mut params: Option<Vec<String>> = None;
            let mut j = i + 2;
            let mut fn_body: Option<Group> = None;
            while j < body.len() {
                match &body[j] {
                    Tree::Group(g) if g.delim == '(' && params.is_none() => {
                        params = Some(param_names(&g.children));
                    }
                    Tree::Group(g) if g.delim == '{' && params.is_some() => {
                        fn_body = Some(g.clone());
                        break;
                    }
                    Tree::Leaf(t) if t.text == "fn" || t.text == ";" => break,
                    _ => {}
                }
                j += 1;
            }
            if let (Some(params), Some(fn_body)) = (params, fn_body) {
                out.push(FnDef {
                    name,
                    params,
                    body: fn_body,
                });
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn param_names(children: &[Tree]) -> Vec<String> {
    let mut out = Vec::new();
    for segment in split_top_commas(children) {
        if segment.iter().any(|t| t.is_leaf("self")) {
            out.push("self".to_string());
            continue;
        }
        // The parameter name is the ident immediately before the
        // top-level `:` (skipping `mut` patterns by construction).
        let colon = segment.iter().position(|t| t.is_leaf(":"));
        if let Some(k) = colon {
            if k > 0 {
                if let Some(name) = segment[k - 1].leaf_text() {
                    if is_ident(name) {
                        out.push(name.to_string());
                    }
                }
            }
        }
    }
    out
}

/// Splits a group's children on top-level commas.
fn split_top_commas(children: &[Tree]) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, tree) in children.iter().enumerate() {
        if tree.is_leaf(",") {
            out.push(&children[start..i]);
            start = i + 1;
        }
    }
    if start < children.len() {
        out.push(&children[start..]);
    }
    out
}

/// Collects every branch-condition token run in a body: the tokens between
/// each `if` / `while` / `match` keyword and its block. Nested bodies are
/// walked too. Runs are flattened with delimiters preserved.
#[must_use]
pub fn conditions(body: &Group) -> Vec<Vec<Token>> {
    let mut out = Vec::new();
    walk_conditions(&body.children, &mut out);
    out
}

fn walk_conditions(trees: &[Tree], out: &mut Vec<Vec<Token>>) {
    let mut i = 0;
    while i < trees.len() {
        let is_branch =
            trees[i].is_leaf("if") || trees[i].is_leaf("while") || trees[i].is_leaf("match");
        if is_branch {
            let mut run = Vec::new();
            let mut j = i + 1;
            while j < trees.len() {
                if let Tree::Group(g) = &trees[j] {
                    if g.delim == '{' {
                        break;
                    }
                }
                flatten_into(&trees[j..=j], &mut run);
                j += 1;
            }
            if !run.is_empty() {
                out.push(run);
            }
            i = j;
            continue;
        }
        if let Tree::Group(g) = &trees[i] {
            walk_conditions(&g.children, out);
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::super::lexer;
    use super::*;

    fn trees(src: &str) -> Vec<Tree> {
        parse(&lexer::scan(src).tokens)
    }

    #[test]
    fn groups_nest_and_round_trip() {
        let src = "fn f(a: u8) { g(a + (b * 2)); }";
        let forest = trees(src);
        let toks = flatten(&forest);
        let original = lexer::scan(src).tokens;
        assert_eq!(
            toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            original.iter().map(|t| t.text.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unbalanced_close_degrades_to_leaf() {
        let forest = trees("a ) b");
        assert_eq!(forest.len(), 3);
        assert!(forest[1].is_leaf(")"));
    }

    #[test]
    fn trait_impl_is_recognised() {
        let src = "impl BroadcastAlgorithm for FifoBroadcast {\n\
                       type State = FifoState;\n\
                       fn on_receive(&self, st: &mut FifoState, payload: BMsg) { body(); }\n\
                   }";
        let blocks = impl_blocks(&trees(src));
        assert_eq!(blocks.len(), 1);
        let b = &blocks[0];
        assert_eq!(b.trait_name.as_deref(), Some("BroadcastAlgorithm"));
        assert_eq!(b.type_name, "FifoBroadcast");
        assert_eq!(b.assoc_state.as_deref(), Some("FifoState"));
        let f = b.find_fn("on_receive").expect("fn found");
        assert_eq!(f.params, vec!["self", "st", "payload"]);
    }

    #[test]
    fn inherent_impl_and_helper_params() {
        let src = "impl FifoState { fn flush(&mut self, sender: ProcessId) { work(); } }";
        let blocks = impl_blocks(&trees(src));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].trait_name, None);
        assert_eq!(blocks[0].type_name, "FifoState");
        let f = blocks[0].find_fn("flush").expect("fn found");
        assert_eq!(f.params, vec!["self", "sender"]);
    }

    #[test]
    fn conditions_cover_if_while_match_and_nesting() {
        let src = "fn f(&self) {\n\
                       if a > 1 { if let Some(x) = b { c(); } }\n\
                       while q.pop() { d(); }\n\
                       match e { _ => f() }\n\
                   }";
        let blocks = impl_blocks(&trees(&format!("impl T {{ {src} }}")));
        let f = blocks[0].find_fn("f").expect("fn found");
        let conds = conditions(&f.body);
        let texts: Vec<String> = conds
            .iter()
            .map(|run| {
                run.iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        assert_eq!(texts.len(), 4, "got {texts:?}");
        assert_eq!(texts[0], "a > 1");
        assert!(texts[1].starts_with("let Some ( x ) = b"));
        assert_eq!(texts[2], "q . pop ( )");
        assert_eq!(texts[3], "e");
    }

    #[test]
    fn signatures_without_bodies_are_skipped() {
        let src = "impl T { fn sig(&self, x: u8); fn real(&self) { x(); } }";
        let blocks = impl_blocks(&trees(src));
        assert_eq!(blocks[0].fns.len(), 1);
        assert_eq!(blocks[0].fns[0].name.text, "real");
    }
}
