//! The lint engine: a dependency-free static-analysis pass over the
//! workspace's own sources, built on the lossless [`crate::lexer`] and
//! the [`crate::flow`] block/flow analyzer.
//!
//! Seven project-specific rules (see DESIGN.md §7.1):
//!
//! | rule                  | level | what it flags                                          |
//! |-----------------------|-------|--------------------------------------------------------|
//! | `empty-expect`        | line  | `.expect("")`: an empty justification                  |
//! | `attr-count`          | line  | hardcoded `128` where `AttrSet::MAX_ATTRS` belongs     |
//! | `raw-snapshot-write`  | line  | snapshot-zone file writes bypassing the atomic helper  |
//! | `budget-coverage`     | flow  | lattice loop missing a budget checkpoint on some path  |
//! | `safety-comment`      | line  | `unsafe` without an adjacent `// SAFETY:` justification |
//! | `partial-contract`    | flow  | `fn … -> MiningOutcome` that never threads a `StageReport` |
//! | `span-coverage`       | flow  | `fn *_governed` mining stage that never opens an observe span |
//!
//! Checks that clippy and rustc make on the compiled program (panics,
//! the default hasher, hash-order iteration, raw threads, missing docs)
//! live in the root manifest's `[workspace.lints]` table, not here.
//!
//! Scope is decided by the [`crate::modmap`] module map: test code
//! (`tests/`, `benches/`, `examples/`, `fixtures/` segments and in-file
//! `#[cfg(test)]` modules) is exempt from every rule;
//! `budget-coverage` applies only to the lattice modules and
//! `raw-snapshot-write` only to the snapshot codec. Any remaining
//! finding can be suppressed with a `// lint: allow(<rule>)` comment on
//! the same line or the line above (with a neighbouring comment saying
//! why); there is no other suppression mechanism.
//!
//! The line rules match identifier-bounded tokens against per-line
//! code/comment views scrubbed from the exact token stream; the flow
//! rules reason about the brace tree, closures, and branch coverage.
//! Both are heuristics by design — the escape hatch answers the false
//! positives.

use crate::lexer;
use crate::modmap::{in_zone, Zone};
use crate::rules;
use std::fmt;

/// Every lint rule's machine name, in reporting order.
pub const RULES: [&str; 7] = [
    "empty-expect",
    "attr-count",
    "raw-snapshot-write",
    "budget-coverage",
    "safety-comment",
    "partial-contract",
    "span-coverage",
];

/// One finding: a rule violated at a file:line location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Machine name of the violated rule (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One line of source after scrubbing, plus what was scrubbed away.
pub struct ScrubbedLine {
    /// The line with comments removed and string/char literal contents
    /// blanked (quotes kept), so token matches can't fire inside text.
    pub code: String,
    /// The comment text removed from this line, if any.
    pub comment: String,
}

/// `true` when a string-literal token has a non-empty body (text between
/// its first and last `"`). `.expect("")` detection needs to tell an
/// empty literal from a blanked non-empty one.
fn str_has_content(text: &str) -> bool {
    match (text.find('"'), text.rfind('"')) {
        (Some(open), Some(close)) if close > open => close - open > 1,
        // Unterminated literal: treat whatever follows the quote as body.
        (Some(open), _) => open + 1 < text.len(),
        _ => false,
    }
}

/// Scrubs a whole file into per-line code/comment views, built on the
/// exact token stream from [`crate::lexer`]. Raw strings containing `//`
/// or `"`, nested block comments, and multi-line string literals all
/// scrub correctly — each token contributes to exactly the lines it
/// spans, and string/char bodies are blanked to placeholders.
pub fn scrub(source: &str) -> Vec<ScrubbedLine> {
    let n_lines = source.lines().count();
    let mut out: Vec<ScrubbedLine> = (0..n_lines)
        .map(|_| ScrubbedLine {
            code: String::new(),
            comment: String::new(),
        })
        .collect();
    // Appends `text` across consecutive lines starting at 1-based `line`,
    // into the code or comment field.
    let spread = |lines: &mut Vec<ScrubbedLine>, line: u32, text: &str, to_comment: bool| {
        for (j, seg) in text.split('\n').enumerate() {
            let idx = line as usize - 1 + j;
            if let Some(slot) = lines.get_mut(idx) {
                if to_comment {
                    slot.comment.push_str(seg.trim_end_matches('\r'));
                } else {
                    slot.code.push_str(seg.trim_end_matches('\r'));
                }
            }
        }
    };
    for tok in lexer::lex(source) {
        let text = tok.text(source);
        match tok.kind {
            lexer::TokenKind::Whitespace => spread(&mut out, tok.line, text, false),
            lexer::TokenKind::LineComment | lexer::TokenKind::BlockComment => {
                spread(&mut out, tok.line, text, true)
            }
            lexer::TokenKind::Str => {
                // The whole literal (however many lines, whatever its
                // delimiters) becomes a one-line placeholder that keeps
                // only emptiness.
                let placeholder = if str_has_content(text) {
                    "\"s\""
                } else {
                    "\"\""
                };
                spread(&mut out, tok.line, placeholder, false);
            }
            lexer::TokenKind::Char => spread(&mut out, tok.line, "' '", false),
            lexer::TokenKind::Lifetime
            | lexer::TokenKind::Num
            | lexer::TokenKind::Ident
            | lexer::TokenKind::Punct => spread(&mut out, tok.line, text, false),
        }
    }
    out
}

/// `true` when `line`'s comment (or the previous line's) carries a
/// `lint: allow(<rule>)` marker.
pub fn allowed(lines: &[ScrubbedLine], idx: usize, rule: &str) -> bool {
    let marker = format!("lint: allow({rule})");
    let here = lines.get(idx).is_some_and(|l| l.comment.contains(&marker));
    let above = idx > 0
        && lines
            .get(idx - 1)
            .is_some_and(|prev| prev.code.trim().is_empty() && prev.comment.contains(&marker));
    here || above
}

/// Finds `token` in `code` at identifier boundaries (the characters
/// around the match are not `[A-Za-z0-9_]`). Returns `true` on a hit.
pub fn has_token(code: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let after = at + token.len();
        let after_ok = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + token.len();
    }
    false
}

/// Marks lines inside `#[cfg(test)]` items (by brace matching from the
/// item that follows the attribute). Returns one flag per line.
pub fn test_mod_lines(lines: &[ScrubbedLine]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            // Skip to the first `{` at or after the attribute, then brace
            // match to the end of the item.
            let mut depth = 0usize;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                in_test[j] = true;
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                }
                if opened && depth == 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Lints one file. `path` decides scope (test paths get no rule);
/// `source` is the file contents.
pub fn lint_file(path: &str, source: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if in_zone(path, Zone::TestCode) {
        return out;
    }
    let lines = scrub(source);
    let in_test = test_mod_lines(&lines);
    rules::lines::check_empty_expect(path, &lines, &in_test, &mut out);
    rules::lines::check_attr_count(path, &lines, &in_test, &mut out);
    rules::lines::check_raw_snapshot_write(path, &lines, &in_test, &mut out);
    rules::lines::check_safety_comment(path, &lines, &in_test, &mut out);

    let sig = crate::flow::significant(source);
    let tree = crate::flow::parse(&sig);
    rules::governance::check_budget_coverage(path, &sig, &tree, &lines, &in_test, &mut out);
    rules::governance::check_partial_contract(path, &sig, &tree, &lines, &in_test, &mut out);
    rules::governance::check_span_coverage(path, &sig, &tree, &lines, &in_test, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/lib.rs";

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    fn lint(body: &str) -> Vec<Diagnostic> {
        lint_file(LIB, body)
    }

    #[test]
    fn empty_expect_flags_an_empty_message() {
        let diags = lint("fn f(x: Option<u32>) -> u32 {\n    x.expect(\"\")\n}\n");
        assert_eq!(rules(&diags), ["empty-expect"]);
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].message.contains("empty message"));
    }

    #[test]
    fn empty_expect_allows_a_real_reason() {
        let diags = lint("fn f(x: Option<u32>) -> u32 {\n    x.expect(\"a real reason\")\n}\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn empty_expect_skips_strings_comments_and_test_mods() {
        let diags = lint(
            "// a comment saying .expect(\"\") is bad\nconst S: &str = \"x.expect(\\\"\\\")\";\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).expect(\"\");\n    }\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn escape_hatch_names_the_rule() {
        let same_line = lint("fn f() {\n    opt.expect(\"\"); // lint: allow(empty-expect)\n}\n");
        assert!(same_line.is_empty(), "{same_line:?}");
        let line_above = lint(
            "fn f() {\n    // checked above; lint: allow(empty-expect)\n    opt.expect(\"\");\n}\n",
        );
        assert!(line_above.is_empty(), "{line_above:?}");
        // The marker names a specific rule; other rules still fire.
        let wrong_rule = lint("fn f() {\n    opt.expect(\"\"); // lint: allow(attr-count)\n}\n");
        assert_eq!(rules(&wrong_rule), ["empty-expect"]);
    }

    #[test]
    fn attr_count_flags_literal_128_near_attrs() {
        let diags = lint("fn f(n_attrs: usize) -> bool {\n    n_attrs <= 128\n}\n");
        assert_eq!(rules(&diags), ["attr-count"]);
        let fixed = lint("fn f(n_attrs: usize) -> bool {\n    n_attrs <= AttrSet::MAX_ATTRS\n}\n");
        assert!(fixed.is_empty(), "{fixed:?}");
        // `u128` the type is not the literal 128.
        let ty = lint(
            "fn f(bits: u128, n_attrs: usize) -> u32 {\n    (bits as u32) + n_attrs as u32\n}\n",
        );
        assert!(ty.is_empty(), "{ty:?}");
    }

    const LATTICE: &str = "crates/tane/src/exact.rs";

    fn lint_lattice(body: &str) -> Vec<Diagnostic> {
        lint_file(LATTICE, body)
    }

    #[test]
    fn budget_coverage_flags_unpolled_loops_in_lattice_module() {
        let diags = lint_lattice(
            "fn walk(mut level: Vec<u32>) {\n    while !level.is_empty() {\n        level.pop();\n    }\n}\n",
        );
        assert_eq!(rules(&diags), ["budget-coverage"]);
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].message.contains("CancelToken"));
        // `loop` and labeled heads are covered too.
        let labeled = lint_lattice(
            "fn walk(mut level: Vec<u32>) {\n    'levels: loop {\n        if level.pop().is_none() { break 'levels; }\n    }\n}\n",
        );
        assert_eq!(rules(&labeled), ["budget-coverage"]);
    }

    #[test]
    fn budget_coverage_accepts_checkpointed_bodies() {
        for poll in [
            "token.check(Stage::TaneLevels)?;",
            "token.enter_level(l, stage)?;",
            "token.add_candidates(level.len() as u64, stage)?;",
            "if token.is_cancelled() { break; }",
        ] {
            let body = format!(
                "fn walk(mut level: Vec<u32>) {{\n    while !level.is_empty() {{\n        {poll}\n        level.pop();\n    }}\n}}\n"
            );
            let diags = lint_lattice(&body);
            assert!(diags.is_empty(), "poll {poll}: {diags:?}");
        }
        // A `while` condition runs before every iteration.
        let head = lint_lattice(
            "fn walk(mut level: Vec<u32>) {\n    while token.check(stage).is_ok() {\n        level.pop();\n    }\n}\n",
        );
        assert!(head.is_empty(), "{head:?}");
    }

    #[test]
    fn budget_coverage_scope_and_escape_hatch() {
        let body = "fn walk(mut level: Vec<u32>) {\n    while !level.is_empty() {\n        level.pop();\n    }\n}\n";
        // Outside the lattice modules the rule does not apply.
        let other = lint_file(LIB, body);
        assert!(other.is_empty(), "{other:?}");
        // The escape hatch names the rule.
        let allowed = lint_lattice(
            "fn walk(mut level: Vec<u32>) {\n    // bounded by arity; lint: allow(budget-coverage)\n    while !level.is_empty() {\n        level.pop();\n    }\n}\n",
        );
        assert!(allowed.is_empty(), "{allowed:?}");
        // Test modules are exempt.
        let test_mod = lint_lattice(
            "#[cfg(test)]\nmod tests {\n    fn t(mut v: Vec<u32>) {\n        while !v.is_empty() { v.pop(); }\n    }\n}\n",
        );
        assert!(test_mod.is_empty(), "{test_mod:?}");
    }

    const SNAP: &str = "crates/govern/src/snapshot.rs";

    fn lint_snap(body: &str) -> Vec<Diagnostic> {
        lint_file(SNAP, body)
    }

    #[test]
    fn raw_snapshot_write_flags_direct_file_mutation() {
        let diags = lint_snap(
            "fn save(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {\n    fs::write(path, bytes)?;\n    let _f = fs::File::create(path)?;\n    let _o = fs::OpenOptions::new().write(true).open(path)?;\n    fs::rename(path, path)\n}\n",
        );
        assert_eq!(
            rules(&diags),
            [
                "raw-snapshot-write",
                "raw-snapshot-write",
                "raw-snapshot-write",
                "raw-snapshot-write"
            ],
            "{diags:?}"
        );
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[3].line, 5);
    }

    #[test]
    fn raw_snapshot_write_scope_and_escape_hatch() {
        let body = "fn save(p: &std::path::Path, b: &[u8]) -> std::io::Result<()> {\n    fs::write(p, b)\n}\n";
        // Outside the snapshot zone the rule does not apply.
        let other = lint_file(LIB, body);
        assert!(other.is_empty(), "{other:?}");
        // Reads and deletes are not mutations of the final frame path.
        let reads = lint_snap(
            "fn load(p: &std::path::Path) -> std::io::Result<Vec<u8>> {\n    let b = fs::read(p)?;\n    fs::remove_file(p).ok();\n    Ok(b)\n}\n",
        );
        assert!(reads.is_empty(), "{reads:?}");
        // The atomic helper itself carries the named escape hatch.
        let allowed = lint_snap(
            "fn atomic(p: &std::path::Path) -> std::io::Result<()> {\n    // lint: allow(raw-snapshot-write) — the helper itself.\n    let _f = fs::File::create(p)?;\n    fs::rename(p, p) // lint: allow(raw-snapshot-write)\n}\n",
        );
        assert!(allowed.is_empty(), "{allowed:?}");
        // Test modules are exempt.
        let test_mod = lint_snap(
            "#[cfg(test)]\nmod tests {\n    fn t(p: &std::path::Path) {\n        let _ = fs::write(p, b\"x\");\n    }\n}\n",
        );
        assert!(test_mod.is_empty(), "{test_mod:?}");
    }

    #[test]
    fn test_paths_are_exempt() {
        let diags = lint_file(
            "tests/foo.rs",
            "fn t(n_attrs: usize) -> bool {\n    Some(1).expect(\"\");\n    n_attrs <= 128\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    // --- scrub regression tests -----------------------------------------
    // The pre-lexer scrubber processed lines independently with ad-hoc
    // string/comment state and corrupted its view of the code on three
    // inputs: raw strings containing `//` or `"`, nested block comments,
    // and multi-line string literals. Each test here failed against that
    // scrubber (false positive or false negative) and pins the exact
    // behavior of the token-level replacement.

    #[test]
    fn scrub_raw_string_with_quote_does_not_leak_contents() {
        // The odd `"` inside the raw string made the old scrubber close
        // its pseudo-string early and treat `.expect("") is banned` as
        // code — a false positive.
        let diags = lint(
            "fn f() -> &'static str {\n    let msg = r#\"don't \" .expect(\"\") is banned\"#;\n    msg\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn scrub_raw_string_with_line_comment_chars() {
        // `//` inside a raw string is string content, not a comment; the
        // marker text after it must not suppress rules on the line below.
        let diags = lint(
            "fn f() -> u32 {\n    let _m = r#\"// lint: allow(empty-expect)\"#;\n    opt.expect(\"\")\n}\n",
        );
        assert_eq!(rules(&diags), ["empty-expect"], "{diags:?}");
    }

    #[test]
    fn scrub_nested_block_comments_stay_comments() {
        // The old scrubber had no nesting depth: the first `*/` ended the
        // comment and `still a comment .expect("")` became code.
        let diags = lint(
            "/* outer /* inner */ still a comment .expect(\"\") */\nfn f() -> u32 {\n    1\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn scrub_multiline_string_continuation_is_not_code() {
        // Line 2 of a multi-line string looked like bare code (with a
        // bogus `//` comment) to the per-line scrubber.
        let diags = lint(
            "const S: &str = \"first line\nsecond n_attrs <= 128 // not a comment\";\nfn f() -> u32 {\n    1\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn scrub_preserves_empty_vs_nonempty_strings() {
        // `.expect("")` must still be distinguishable from `.expect("x")`
        // after blanking — including for raw-string messages.
        let empty = lint("fn f(x: Option<u32>) -> u32 {\n    x.expect(\"\")\n}\n");
        assert_eq!(rules(&empty), ["empty-expect"]);
        let msg = lint("fn f(x: Option<u32>) -> u32 {\n    x.expect(\"checked\")\n}\n");
        assert!(msg.is_empty(), "{msg:?}");
        let raw = lint("fn f(x: Option<u32>) -> u32 {\n    x.expect(r\"checked\")\n}\n");
        assert!(raw.is_empty(), "{raw:?}");
    }

    // --- flow-rule driver tests ------------------------------------------

    #[test]
    fn budget_coverage_flags_branch_only_polls() {
        let diags = lint_lattice(
            "fn walk(token: &CancelToken, mut level: Vec<u32>, par: bool) {\n    while !level.is_empty() {\n        if par {\n            token.check(stage);\n        }\n        level.pop();\n    }\n}\n",
        );
        assert_eq!(rules(&diags), ["budget-coverage"], "{diags:?}");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn safety_comment_required_for_unsafe() {
        let diags = lint("fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n");
        assert_eq!(rules(&diags), ["safety-comment"], "{diags:?}");
        let ok = lint(
            "fn f(p: *const u32) -> u32 {\n    // SAFETY: p is valid for reads by the caller's contract.\n    unsafe { *p }\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn partial_contract_requires_stage_report() {
        let diags = lint(
            "fn mine(r: &Relation) -> MiningOutcome<Vec<u32>> {\n    MiningOutcome::complete(enumerate(r))\n}\n",
        );
        assert_eq!(rules(&diags), ["partial-contract"], "{diags:?}");
        let ok = lint(
            "fn mine(r: &Relation) -> MiningOutcome<Vec<u32>> {\n    let stages = StageReport::default();\n    MiningOutcome { result: enumerate(r), why: None, stages }\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn span_coverage_requires_observe_span_in_governed_fns() {
        let diags = lint(
            "fn scan_governed(rows: &[u32], token: &CancelToken) -> Result<u32, BudgetExceeded> {\n    token.check(Stage::AgreeSets)?;\n    Ok(rows.len() as u32)\n}\n",
        );
        assert_eq!(rules(&diags), ["span-coverage"], "{diags:?}");
        let spanned = lint(
            "fn scan_governed(rows: &[u32], token: &CancelToken) -> Result<u32, BudgetExceeded> {\n    let _span = token.observer().span(\"agree-sets\");\n    token.check(Stage::AgreeSets)?;\n    Ok(rows.len() as u32)\n}\n",
        );
        assert!(spanned.is_empty(), "{spanned:?}");
        let delegating = lint(
            "fn outer_governed(rows: &[u32], token: &CancelToken) -> Result<u32, BudgetExceeded> {\n    inner_scan_governed(rows, token)\n}\n",
        );
        assert!(delegating.is_empty(), "{delegating:?}");
        // par_* fan-out is plumbing, not stage delegation.
        let fanout = lint(
            "fn wide_governed(rows: &[u32], token: &CancelToken) -> Result<Vec<u32>, BudgetExceeded> {\n    par_map_governed(Parallelism::Auto, token, Stage::MaxSets, rows, |x| Ok(*x))\n}\n",
        );
        assert_eq!(rules(&fanout), ["span-coverage"], "{fanout:?}");
    }

    #[test]
    fn diagnostics_display_as_path_line_rule_message() {
        let d = Diagnostic {
            path: "crates/demo/src/lib.rs".into(),
            line: 7,
            rule: "empty-expect",
            message: "a \"quoted\" message".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/demo/src/lib.rs:7: [empty-expect] a \"quoted\" message"
        );
    }
}
