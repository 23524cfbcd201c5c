//! A lightweight block/flow analyzer over the [`crate::lexer`] token
//! stream: a brace/paren/bracket tree with line spans, closure and `fn`
//! boundary detection, and an *all-paths* reachability check for
//! checkpoint calls.
//!
//! This is deliberately not a parser. It understands exactly the shapes
//! the flow-level rules need:
//!
//! * **group tree** — `(…)`, `[…]`, `{…}` nest; everything else is a
//!   leaf token. Generics (`<…>`) are *not* grouped (too ambiguous
//!   without a real parser), which the rules tolerate.
//! * **closures** — `|params| body`, with the `a | b` binary-or case
//!   disambiguated by the preceding token.
//! * **branches** — `if`/`else if`/`else` chains and `match` arms, for
//!   the all-paths analysis; nested loops and nested `fn` items are
//!   treated as not-executed (a loop body may run zero times).
//!
//! Everything here is conservative in the same direction: when the
//! analyzer cannot tell, it reports *not covered*, and the rule's
//! `// lint: allow(…)` escape hatch is the answer for the rare false
//! positive.

use crate::lexer::{self, TokenKind};

/// A significant (non-trivia) token: kind, text, and 1-based start line.
#[derive(Debug, Clone, Copy)]
pub struct SigTok<'a> {
    /// Token kind (never `Whitespace`/`LineComment`/`BlockComment`).
    pub kind: TokenKind,
    /// The token's source text.
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: u32,
}

/// Lexes `src` and drops trivia, keeping only the tokens flow analysis
/// reasons about.
pub fn significant(src: &str) -> Vec<SigTok<'_>> {
    lexer::lex(src)
        .into_iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|t| SigTok {
            kind: t.kind,
            text: t.text(src),
            line: t.line,
        })
        .collect()
}

/// One node of the group tree: a leaf token (by index into the
/// [`significant`] stream) or a delimited group.
#[derive(Debug)]
pub enum Node {
    /// A leaf: index into the `SigTok` slice the tree was parsed from.
    Tok(usize),
    /// A `(…)`, `[…]`, or `{…}` group.
    Group(Group),
}

/// A delimited group with its children and the line of its opener.
#[derive(Debug)]
pub struct Group {
    /// The opening delimiter: `(`, `[`, or `{`.
    pub open: char,
    /// 1-based line of the opening delimiter.
    pub line: u32,
    /// Child nodes, in source order.
    pub children: Vec<Node>,
}

/// Parses the significant-token stream into a group forest. Unbalanced
/// closers are kept as leaf tokens; unbalanced openers close at EOF.
pub fn parse(sig: &[SigTok]) -> Vec<Node> {
    let mut i = 0;
    parse_until(sig, &mut i, None)
}

fn parse_until(sig: &[SigTok], i: &mut usize, close: Option<char>) -> Vec<Node> {
    let mut out = Vec::new();
    while *i < sig.len() {
        let t = &sig[*i];
        let c = if t.kind == TokenKind::Punct {
            t.text.chars().next()
        } else {
            None
        };
        match c {
            Some(open @ ('(' | '[' | '{')) => {
                let line = t.line;
                *i += 1;
                let want = match open {
                    '(' => ')',
                    '[' => ']',
                    _ => '}',
                };
                let children = parse_until(sig, i, Some(want));
                out.push(Node::Group(Group {
                    open,
                    line,
                    children,
                }));
            }
            Some(c2 @ (')' | ']' | '}')) => {
                if Some(c2) == close {
                    *i += 1;
                    return out;
                }
                // Stray closer: keep as a leaf and carry on.
                out.push(Node::Tok(*i));
                *i += 1;
            }
            _ => {
                out.push(Node::Tok(*i));
                *i += 1;
            }
        }
    }
    out
}

/// The text of a leaf node, or `None` for groups.
pub fn tok_text<'a>(node: &Node, sig: &[SigTok<'a>]) -> Option<&'a str> {
    match node {
        Node::Tok(t) => Some(sig[*t].text),
        Node::Group(_) => None,
    }
}

/// The line a node starts on.
pub fn node_line(node: &Node, sig: &[SigTok<'_>]) -> u32 {
    match node {
        Node::Tok(t) => sig[*t].line,
        Node::Group(g) => g.line,
    }
}

/// The text of the leaf at `nodes[i]`, or `None` when out of bounds or
/// a group.
pub fn tok_text_at<'a>(nodes: &[Node], i: usize, sig: &[SigTok<'a>]) -> Option<&'a str> {
    nodes.get(i).and_then(|n| tok_text(n, sig))
}

/// The line of `nodes[i]`, or line 1 when out of bounds.
pub fn node_line_at(nodes: &[Node], i: usize, sig: &[SigTok<'_>]) -> u32 {
    nodes.get(i).map_or(1, |n| node_line(n, sig))
}

/// `true` when the node at `i` starts a closure: a `|` whose *previous*
/// sibling makes a binary `|` impossible (start of group, `,`, `;`, `=`,
/// `return`, `move`, or a `(`-like position). `a | b` has an identifier
/// or group before the `|` and is rejected.
pub fn closure_starts_at(nodes: &[Node], i: usize, sig: &[SigTok<'_>]) -> bool {
    let is_pipe = matches!(tok_text(&nodes[i], sig), Some("|"));
    let move_pipe = matches!(tok_text(&nodes[i], sig), Some("move"))
        && matches!(nodes.get(i + 1).and_then(|n| tok_text(n, sig)), Some("|"));
    if move_pipe {
        return true;
    }
    if !is_pipe {
        return false;
    }
    match i.checked_sub(1).map(|p| &nodes[p]) {
        None => true,
        Some(prev) => matches!(
            tok_text(prev, sig),
            Some("," | ";" | "=" | "return" | "move")
        ),
    }
}

/// Advances `i` past a closure starting at `i` (see
/// [`closure_starts_at`]): the `|…|` parameter list, an optional `->
/// Type`, and the body — a brace group, or an expression running to the
/// next top-level `,`/`;`.
pub fn skip_closure(nodes: &[Node], i: &mut usize, sig: &[SigTok<'_>]) {
    if matches!(tok_text(&nodes[*i], sig), Some("move")) {
        *i += 1;
    }
    // Opening `|`.
    *i += 1;
    // Parameter list to the closing `|`.
    while *i < nodes.len() && !matches!(tok_text(&nodes[*i], sig), Some("|")) {
        *i += 1;
    }
    if *i < nodes.len() {
        *i += 1; // closing `|`
    }
    // Body: a brace group, or tokens to the next top-level `,`/`;`.
    if matches!(nodes.get(*i), Some(Node::Group(g)) if g.open == '{') {
        *i += 1;
        return;
    }
    while *i < nodes.len() {
        match &nodes[*i] {
            Node::Tok(t) if matches!(sig[*t].text, "," | ";") => return,
            Node::Group(g) if g.open == '{' => {
                // `|x| expr` followed by a brace body somewhere in the
                // expression (e.g. `|x| match x { … }`): consume it and
                // keep going — the `,`/`;` still terminates.
                let _ = g;
                *i += 1;
            }
            _ => *i += 1,
        }
    }
}

/// Scans from `i` to the first top-level `{` group (a construct body),
/// skipping closures on the way. Returns the body's index, or `None`.
fn find_body(nodes: &[Node], mut i: usize, sig: &[SigTok<'_>]) -> Option<usize> {
    while i < nodes.len() {
        if closure_starts_at(nodes, i, sig) {
            skip_closure(nodes, &mut i, sig);
            continue;
        }
        match &nodes[i] {
            Node::Group(g) if g.open == '{' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

/// `true` when any identifier at any depth of `nodes` satisfies `pred`
/// (a purely textual presence check — closure bodies included).
pub fn mentions(nodes: &[Node], sig: &[SigTok<'_>], pred: &dyn Fn(&str) -> bool) -> bool {
    nodes.iter().any(|n| match n {
        Node::Tok(t) => sig[*t].kind == TokenKind::Ident && pred(sig[*t].text),
        Node::Group(g) => mentions(&g.children, sig, pred),
    })
}

/// The all-paths analysis: `true` when one pass through `nodes` (a
/// statement list) is guaranteed to reach a *call* to an identifier
/// satisfying `is_checkpoint`, no matter which branches are taken.
///
/// Guaranteed-to-execute positions: top-level statements, arguments of
/// `(`/`[` groups, plain `{ }` blocks, loop/`if`/`match` *head*
/// expressions. Conditional positions: `if` without a final `else`,
/// any single `match` arm, nested loop bodies (zero iterations), nested
/// `fn` items, and closure bodies — a checkpoint only inside one of
/// those does not cover.
pub fn always_calls(
    nodes: &[Node],
    sig: &[SigTok<'_>],
    is_checkpoint: &dyn Fn(&str) -> bool,
) -> bool {
    let mut i = 0;
    while i < nodes.len() {
        if closure_starts_at(nodes, i, sig) {
            skip_closure(nodes, &mut i, sig);
            continue;
        }
        match &nodes[i] {
            Node::Tok(t) => {
                let tok = &sig[*t];
                match tok.text {
                    "if" => {
                        if if_chain_covers(nodes, &mut i, sig, is_checkpoint) {
                            return true;
                        }
                    }
                    "match" => {
                        if match_covers(nodes, &mut i, sig, is_checkpoint) {
                            return true;
                        }
                    }
                    "while" | "loop" | "for" if is_loop_keyword(nodes, i, sig) => {
                        // Head expression runs at least once for `while`
                        // and `for`; nested body may run zero times.
                        let head_start = i + 1;
                        let body = find_body(nodes, head_start, sig);
                        let head_end = body.unwrap_or(nodes.len());
                        if tok.text != "loop"
                            && always_calls(&nodes[head_start..head_end], sig, is_checkpoint)
                        {
                            return true;
                        }
                        i = body.map_or(nodes.len(), |b| b + 1);
                    }
                    "fn" => {
                        // A nested item: its body is not executed here.
                        i = find_body(nodes, i + 1, sig).map_or(nodes.len(), |b| b + 1);
                    }
                    _ => {
                        if tok.kind == TokenKind::Ident
                            && is_checkpoint(tok.text)
                            && matches!(nodes.get(i + 1), Some(Node::Group(g)) if g.open == '(')
                        {
                            return true;
                        }
                        i += 1;
                    }
                }
            }
            Node::Group(g) => {
                // `(…)`, `[…]`, and plain `{…}` blocks all evaluate
                // unconditionally in sequence.
                if always_calls(&g.children, sig, is_checkpoint) {
                    return true;
                }
                i += 1;
            }
        }
    }
    false
}

/// `if cond { … } else if … { … } else { … }` starting at `nodes[*i]`
/// (an `if` token). Covers iff a head expression covers, or every branch
/// covers *and* a final `else` exists. Advances `*i` past the chain.
fn if_chain_covers(
    nodes: &[Node],
    i: &mut usize,
    sig: &[SigTok<'_>],
    ck: &dyn Fn(&str) -> bool,
) -> bool {
    let mut all_branches = true;
    let mut has_else = false;
    loop {
        // Condition.
        let head_start = *i + 1;
        let Some(body) = find_body(nodes, head_start, sig) else {
            *i = nodes.len();
            return false;
        };
        if always_calls(&nodes[head_start..body], sig, ck) {
            return true;
        }
        let Node::Group(g) = &nodes[body] else {
            unreachable!("find_body returns brace groups")
        };
        if !always_calls(&g.children, sig, ck) {
            all_branches = false;
        }
        *i = body + 1;
        match (
            nodes.get(*i).and_then(|n| tok_text(n, sig)),
            nodes.get(*i + 1),
        ) {
            (Some("else"), Some(n1)) => {
                if matches!(tok_text(n1, sig), Some("if")) {
                    *i += 1; // continue the chain at the `if`
                } else if let Node::Group(g) = n1 {
                    if g.open == '{' {
                        has_else = true;
                        if !always_calls(&g.children, sig, ck) {
                            all_branches = false;
                        }
                        *i += 2;
                        break;
                    }
                    *i += 2;
                    break;
                } else {
                    *i += 2;
                    break;
                }
            }
            _ => break,
        }
    }
    all_branches && has_else
}

/// `match scrutinee { arms }` starting at `nodes[*i]` (a `match` token).
/// Covers iff the scrutinee covers, or there is at least one arm and
/// every arm body covers. Advances `*i` past the match.
fn match_covers(
    nodes: &[Node],
    i: &mut usize,
    sig: &[SigTok<'_>],
    ck: &dyn Fn(&str) -> bool,
) -> bool {
    let head_start = *i + 1;
    let Some(body) = find_body(nodes, head_start, sig) else {
        *i = nodes.len();
        return false;
    };
    if always_calls(&nodes[head_start..body], sig, ck) {
        return true;
    }
    let Node::Group(g) = &nodes[body] else {
        unreachable!("find_body returns brace groups")
    };
    *i = body + 1;
    let arms = &g.children;
    let mut n_arms = 0usize;
    let mut all_arms = true;
    let mut j = 0;
    while j < arms.len() {
        // Find the next `=>` at this level: `=` immediately followed by `>`.
        let is_arrow = |k: usize| {
            matches!(tok_text(&arms[k], sig), Some("="))
                && matches!(arms.get(k + 1).and_then(|n| tok_text(n, sig)), Some(">"))
        };
        if !is_arrow(j) {
            j += 1;
            continue;
        }
        n_arms += 1;
        let body_start = j + 2;
        // Arm body: a brace group, or tokens to the next top-level `,`.
        let covered = match arms.get(body_start) {
            Some(Node::Group(ag)) if ag.open == '{' => {
                j = body_start + 1;
                always_calls(&ag.children, sig, ck)
            }
            _ => {
                let mut k = body_start;
                while k < arms.len() && !matches!(tok_text(&arms[k], sig), Some(",")) {
                    if closure_starts_at(arms, k, sig) {
                        skip_closure(arms, &mut k, sig);
                    } else {
                        k += 1;
                    }
                }
                let covered = always_calls(&arms[body_start..k], sig, ck);
                j = k;
                covered
            }
        };
        if !covered {
            all_arms = false;
        }
    }
    n_arms > 0 && all_arms
}

/// Distinguishes loop keywords from look-alikes: `for` in `impl Trait
/// for Type` (preceded by an identifier or `>`) and higher-ranked
/// `for<'a>` bounds (followed by `<`) are not loops.
fn is_loop_keyword(nodes: &[Node], i: usize, sig: &[SigTok<'_>]) -> bool {
    if !matches!(tok_text(&nodes[i], sig), Some("for")) {
        return true; // `while`/`loop` have no such ambiguity
    }
    if matches!(nodes.get(i + 1).and_then(|n| tok_text(n, sig)), Some("<")) {
        return false;
    }
    match i.checked_sub(1).map(|p| &nodes[p]) {
        Some(Node::Tok(t)) => {
            let prev = &sig[*t];
            !(prev.kind == TokenKind::Ident && prev.text != "else" || prev.text == ">")
        }
        _ => true,
    }
}

/// One loop found by [`find_loops`], borrowing its body from the tree.
pub struct LoopInfo<'n> {
    /// `while`, `loop`, or `for`.
    pub keyword: &'static str,
    /// 1-based line of the loop keyword.
    pub line: u32,
    /// `true` when this loop is lexically inside another loop's body.
    pub nested: bool,
    /// For `for` loops: every identifier text in the iterated
    /// expression (between `in` and the body), lowercased.
    pub iterated_idents: Vec<String>,
    /// The tokens between the keyword and the body: a `while` condition,
    /// which runs before every iteration, or a `for` pattern and iterable.
    pub head: &'n [Node],
    /// The loop body.
    pub body: &'n Group,
}

/// Finds every `while`/`loop`/`for` loop in the forest, with nesting
/// information and (for `for`) the iterated expression's identifiers.
pub fn find_loops<'n>(nodes: &'n [Node], sig: &[SigTok<'_>]) -> Vec<LoopInfo<'n>> {
    let mut out = Vec::new();
    walk_loops(nodes, sig, false, &mut out);
    out
}

fn walk_loops<'n>(
    nodes: &'n [Node],
    sig: &[SigTok<'_>],
    in_loop: bool,
    out: &mut Vec<LoopInfo<'n>>,
) {
    let mut i = 0;
    while i < nodes.len() {
        match &nodes[i] {
            Node::Tok(t)
                if matches!(sig[*t].text, "while" | "loop" | "for")
                    && is_loop_keyword(nodes, i, sig) =>
            {
                let keyword = match sig[*t].text {
                    "while" => "while",
                    "loop" => "loop",
                    _ => "for",
                };
                let line = sig[*t].line;
                let head_start = i + 1;
                let Some(body_idx) = find_body(nodes, head_start, sig) else {
                    i += 1;
                    continue;
                };
                // Identifiers of the iterated expression (`for pat in EXPR`).
                let mut iterated_idents = Vec::new();
                if keyword == "for" {
                    let mut seen_in = false;
                    for n in &nodes[head_start..body_idx] {
                        match n {
                            Node::Tok(t2) => {
                                if sig[*t2].text == "in" {
                                    seen_in = true;
                                } else if seen_in && sig[*t2].kind == TokenKind::Ident {
                                    iterated_idents.push(sig[*t2].text.to_ascii_lowercase());
                                }
                            }
                            Node::Group(g) if seen_in => {
                                collect_idents(&g.children, sig, &mut iterated_idents);
                            }
                            Node::Group(_) => {}
                        }
                    }
                }
                // Loops hiding in the head expression (closure bodies).
                for n in &nodes[head_start..body_idx] {
                    if let Node::Group(g) = n {
                        walk_loops(&g.children, sig, in_loop, out);
                    }
                }
                let Node::Group(body) = &nodes[body_idx] else {
                    unreachable!("find_body returns brace groups")
                };
                out.push(LoopInfo {
                    keyword,
                    line,
                    nested: in_loop,
                    iterated_idents,
                    head: &nodes[head_start..body_idx],
                    body,
                });
                walk_loops(&body.children, sig, true, out);
                i = body_idx + 1;
            }
            Node::Tok(_) => i += 1,
            Node::Group(g) => {
                walk_loops(&g.children, sig, in_loop, out);
                i += 1;
            }
        }
    }
}

/// Collects every identifier text (lowercased) at any depth.
fn collect_idents(nodes: &[Node], sig: &[SigTok<'_>], out: &mut Vec<String>) {
    for n in nodes {
        match n {
            Node::Tok(t) if sig[*t].kind == TokenKind::Ident => {
                out.push(sig[*t].text.to_ascii_lowercase());
            }
            Node::Tok(_) => {}
            Node::Group(g) => collect_idents(&g.children, sig, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers(body_src: &str) -> bool {
        let sig = significant(body_src);
        let tree = parse(&sig);
        always_calls(&tree, &sig, &|t| t == "check")
    }

    #[test]
    fn unconditional_call_covers() {
        assert!(covers("token.check(stage)?; level.pop();"));
        assert!(covers("let r = token.check(stage);"));
        assert!(!covers("level.pop();"));
    }

    #[test]
    fn if_without_else_does_not_cover() {
        assert!(!covers("if par { token.check(stage)?; } level.pop();"));
        assert!(covers(
            "if par { token.check(stage)?; } else { token.check(stage)?; }"
        ));
        assert!(!covers("if par { token.check(stage)?; } else { work(); }"));
        // A checkpoint in the condition itself is unconditional.
        assert!(covers("if token.check(stage).is_err() { return; }"));
    }

    #[test]
    fn else_if_chains_need_every_branch_and_a_final_else() {
        assert!(covers(
            "if a { check(1); } else if b { check(2); } else { check(3); }"
        ));
        assert!(!covers("if a { check(1); } else if b { check(2); }"));
        assert!(!covers(
            "if a { check(1); } else if b { skip(); } else { check(3); }"
        ));
    }

    #[test]
    fn match_needs_every_arm() {
        assert!(covers("match x { A => check(1), B => { check(2); } }"));
        assert!(!covers("match x { A => check(1), B => skip() }"));
        // Scrutinee position is unconditional.
        assert!(covers(
            "match check(stage) { Ok(()) => work(), Err(e) => stop(e) }"
        ));
    }

    #[test]
    fn closure_bodies_do_not_cover() {
        assert!(!covers("items.iter().map(|x| check(x)).count();"));
        assert!(!covers("run(move |x| { check(x); });"));
        // …but a call *argument* outside the closure does.
        assert!(covers("run(check(a), |x| x + 1);"));
        // Binary `|` is not a closure start.
        assert!(covers("let m = a | b; check(m);"));
    }

    #[test]
    fn nested_loops_and_fns_do_not_cover() {
        assert!(!covers("for x in xs { check(x); }"));
        assert!(!covers("while more() { check(1); }"));
        assert!(!covers("fn helper() { check(1); }"));
        // A nested `while`'s condition runs at least once, so a
        // checkpoint there covers.
        assert!(covers("while check(1).is_ok() { work(); }"));
    }

    #[test]
    fn plain_blocks_are_transparent() {
        assert!(covers("{ check(1); }"));
        assert!(covers("unsafe { check(1); }"));
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let src = "impl Display for Level { fn fmt(&self) { } } for x in level { work(); }";
        let sig = significant(src);
        let tree = parse(&sig);
        let loops = find_loops(&tree, &sig);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].keyword, "for");
        assert!(loops[0].iterated_idents.contains(&"level".to_string()));
    }

    #[test]
    fn loop_nesting_is_tracked() {
        let src = "while go() { for x in &level { work(x); } } for y in ys { }";
        let sig = significant(src);
        let tree = parse(&sig);
        let loops = find_loops(&tree, &sig);
        assert_eq!(loops.len(), 3);
        assert!(!loops[0].nested); // while
        assert!(loops[1].nested); // inner for
        assert!(!loops[2].nested); // trailing for
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let src = "fn f<F: for<'a> Fn(&'a u32)>(f: F) { f(&1); }";
        let sig = significant(src);
        let tree = parse(&sig);
        assert!(find_loops(&tree, &sig).is_empty());
    }
}
