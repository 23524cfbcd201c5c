//! The lint engine: a dependency-free static-analysis pass over the
//! workspace's own sources, built on the lossless [`crate::lexer`] and
//! the [`crate::flow`] block/flow analyzer.
//!
//! Eleven project-specific rules (see DESIGN.md §7.1):
//!
//! | rule                  | level | what it flags                                          |
//! |-----------------------|-------|--------------------------------------------------------|
//! | `no-panic`            | line  | `.unwrap()`, `.expect("")`, `panic!` in library code   |
//! | `default-hasher`      | line  | `HashMap`/`HashSet` with the default (SipHash) hasher  |
//! | `unordered-iter`      | line  | hash-map iteration feeding ordered output, no sort     |
//! | `attr-count`          | line  | hardcoded `128` where `AttrSet::MAX_ATTRS` belongs     |
//! | `header-hygiene`      | line  | `lib.rs` missing the `#![warn(missing_docs)]` header   |
//! | `raw-thread-spawn`    | line  | `thread::spawn`/`thread::Builder`/`thread::scope` outside the parallel runtime |
//! | `raw-snapshot-write`  | line  | snapshot-zone file writes bypassing the atomic helper  |
//! | `budget-coverage`     | flow  | lattice loop missing a budget checkpoint on some path  |
//! | `safety-comment`      | line  | `unsafe` without an adjacent `// SAFETY:` justification |
//! | `partial-contract`    | flow  | `fn … -> MiningOutcome` that never threads a `StageReport` |
//! | `span-coverage`       | flow  | `fn *_governed` mining stage that never opens an observe span |
//!
//! Scope is decided by the [`crate::modmap`] module map: test code
//! (`tests/`, `benches/`, `examples/`, `fixtures/` segments and in-file
//! `#[cfg(test)]` modules) is exempt from everything except
//! `header-hygiene`; `raw-thread-spawn` exempts the parallel runtime;
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
use depminer_observe::json::escape;
use std::fmt;

/// Every lint rule's machine name, in reporting order.
pub const RULES: [&str; 11] = [
    "no-panic",
    "default-hasher",
    "unordered-iter",
    "attr-count",
    "header-hygiene",
    "raw-thread-spawn",
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

impl Diagnostic {
    /// Serializes the diagnostic as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"path":"{}","line":{},"rule":"{}","message":"{}"}}"#,
            escape(&self.path),
            self.line,
            escape(self.rule),
            escape(&self.message)
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

/// Lints one file. `path` decides scope (test paths only get
/// `header-hygiene`); `source` is the file contents.
pub fn lint_file(path: &str, source: &str) -> Vec<Diagnostic> {
    let lines = scrub(source);
    let mut out = Vec::new();
    rules::lines::check_header_hygiene(path, &lines, &mut out);
    if !in_zone(path, Zone::TestCode) {
        let in_test = test_mod_lines(&lines);
        rules::lines::check_no_panic(path, &lines, &in_test, &mut out);
        rules::lines::check_default_hasher(path, &lines, &in_test, &mut out);
        rules::lines::check_unordered_iter(path, &lines, &in_test, &mut out);
        rules::lines::check_attr_count(path, &lines, &in_test, &mut out);
        rules::lines::check_raw_thread_spawn(path, &lines, &in_test, &mut out);
        rules::lines::check_raw_snapshot_write(path, &lines, &in_test, &mut out);
        rules::lines::check_safety_comment(path, &lines, &in_test, &mut out);

        let sig = crate::flow::significant(source);
        let tree = crate::flow::parse(&sig);
        rules::governance::check_budget_coverage(path, &sig, &tree, &lines, &in_test, &mut out);
        rules::governance::check_partial_contract(path, &sig, &tree, &lines, &in_test, &mut out);
        rules::governance::check_span_coverage(path, &sig, &tree, &lines, &in_test, &mut out);
    }
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

    const HEADER: &str = "#![warn(missing_docs)]\n";

    fn lint(body: &str) -> Vec<Diagnostic> {
        lint_file(LIB, &format!("{HEADER}{body}"))
    }

    #[test]
    fn no_panic_flags_unwrap_expect_empty_and_panic() {
        let diags = lint(
            "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.expect(\"\");\n    panic!(\"boom\");\n}\n",
        );
        assert_eq!(rules(&diags), ["no-panic", "no-panic", "no-panic"]);
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("unwrap"));
        assert!(diags[1].message.contains("empty message"));
        assert!(diags[2].message.contains("panic!"));
    }

    #[test]
    fn no_panic_allows_expect_with_message_and_unwrap_or() {
        let diags = lint(
            "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"config is validated at startup\") + x.unwrap_or(0) + x.unwrap_or_default()\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn no_panic_skips_strings_comments_and_test_mods() {
        let diags = lint(
            "// a comment saying .unwrap() is bad\nconst S: &str = \"panic! .unwrap()\";\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn no_panic_escape_hatch() {
        let same_line = lint("fn f() {\n    opt.unwrap(); // lint: allow(no-panic)\n}\n");
        assert!(same_line.is_empty(), "{same_line:?}");
        let line_above =
            lint("fn f() {\n    // checked above; lint: allow(no-panic)\n    opt.unwrap();\n}\n");
        assert!(line_above.is_empty(), "{line_above:?}");
        // The marker names a specific rule; other rules still fire.
        let wrong_rule = lint("fn f() {\n    opt.unwrap(); // lint: allow(default-hasher)\n}\n");
        assert_eq!(rules(&wrong_rule), ["no-panic"]);
    }

    #[test]
    fn default_hasher_flags_std_types_not_fx() {
        let diags = lint(
            "use std::collections::HashMap;\nuse depminer_relation::fxhash::FxHashMap;\nfn f() {\n    let a: HashMap<u32, u32> = HashMap::new(); // two hits, one line\n    let b = FxHashMap::<u32, u32>::default();\n    let _ = (a, b);\n}\n",
        );
        assert_eq!(rules(&diags), ["default-hasher", "default-hasher"]);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[1].line, 5);
    }

    #[test]
    fn default_hasher_escape_hatch_for_explicit_hasher() {
        let diags = lint(
            "// explicit hasher: lint: allow(default-hasher)\npub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unordered_iter_flags_unsorted_push() {
        let diags = lint(
            "fn f() -> Vec<u32> {\n    let mut seen = FxHashSet::default();\n    seen.insert(3u32);\n    let mut out = Vec::new();\n    for x in &seen {\n        out.push(*x);\n    }\n    out\n}\n",
        );
        assert_eq!(rules(&diags), ["unordered-iter"]);
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn unordered_iter_accepts_sorted_output() {
        let diags = lint(
            "fn f() -> Vec<u32> {\n    let mut seen = FxHashSet::default();\n    seen.insert(3u32);\n    let mut out = Vec::new();\n    for x in &seen {\n        out.push(*x);\n    }\n    out.sort_unstable();\n    out\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unordered_iter_ignores_order_insensitive_loops() {
        // Counting into another hash map is order-independent.
        let diags = lint(
            "fn f(seen: &FxHashSet<u32>) -> u32 {\n    let seen = seen;\n    let mut total = 0;\n    for x in seen.iter() {\n        total += x;\n    }\n    total\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
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

    #[test]
    fn header_hygiene_requires_missing_docs_in_lib() {
        let missing = lint_file(LIB, "//! Docs.\npub fn f() {}\n");
        assert_eq!(rules(&missing), ["header-hygiene"]);
        let present = lint_file(LIB, "//! Docs.\n#![warn(missing_docs)]\npub fn f() {}\n");
        assert!(present.is_empty(), "{present:?}");
        // Only lib.rs is held to the header rule.
        let other = lint_file("crates/demo/src/util.rs", "pub fn f() {}\n");
        assert!(other.is_empty(), "{other:?}");
    }

    #[test]
    fn raw_thread_spawn_flags_spawn_builder_and_scope() {
        let diags = lint(
            "fn f() {\n    std::thread::spawn(|| {});\n    let b = thread::Builder::new();\n    let _ = b;\n    std::thread::scope(|s| { s.spawn(|| {}); });\n}\n",
        );
        assert_eq!(
            rules(&diags),
            ["raw-thread-spawn", "raw-thread-spawn", "raw-thread-spawn"]
        );
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("thread::spawn"));
        assert_eq!(diags[1].line, 4);
        assert!(diags[1].message.contains("thread::Builder"));
        assert_eq!(diags[2].line, 6);
        assert!(diags[2].message.contains("thread::scope"));
    }

    #[test]
    fn raw_thread_spawn_allows_parallel_runtime_and_tests() {
        let body = "fn f() {\n    std::thread::spawn(|| {});\n    std::thread::scope(|s| { s.spawn(|| {}); });\n}\n";
        let src = format!("{HEADER}{body}");
        // The parallel runtime is the one place allowed to start threads.
        let runtime = lint_file("crates/parallel/src/lib.rs", &src);
        assert!(runtime.is_empty(), "{runtime:?}");
        // Test code is exempt like every code-level rule.
        let test_mod = lint(
            "#[cfg(test)]\nmod tests {\n    fn t() {\n        std::thread::spawn(|| {});\n    }\n}\n",
        );
        assert!(test_mod.is_empty(), "{test_mod:?}");
        // Unrelated identifiers don't trip the token match.
        let near_miss = lint("fn f() {\n    scope.spawn(|| {});\n    pool_thread::spawner();\n}\n");
        assert!(near_miss.is_empty(), "{near_miss:?}");
    }

    #[test]
    fn raw_thread_spawn_escape_hatch() {
        let diags =
            lint("fn f() {\n    std::thread::spawn(|| {}); // lint: allow(raw-thread-spawn)\n}\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    const LATTICE: &str = "crates/tane/src/exact.rs";

    fn lint_lattice(body: &str) -> Vec<Diagnostic> {
        lint_file(LATTICE, &format!("{HEADER}{body}"))
    }

    #[test]
    fn budget_coverage_flags_unpolled_loops_in_lattice_module() {
        let diags = lint_lattice(
            "fn walk(mut level: Vec<u32>) {\n    while !level.is_empty() {\n        level.pop();\n    }\n}\n",
        );
        assert_eq!(rules(&diags), ["budget-coverage"]);
        assert_eq!(diags[0].line, 3);
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
        let other = lint_file(LIB, &format!("{HEADER}{body}"));
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
        lint_file(SNAP, &format!("{HEADER}{body}"))
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
        assert_eq!(diags[0].line, 3);
        assert_eq!(diags[3].line, 6);
    }

    #[test]
    fn raw_snapshot_write_scope_and_escape_hatch() {
        let body = "fn save(p: &std::path::Path, b: &[u8]) -> std::io::Result<()> {\n    fs::write(p, b)\n}\n";
        // Outside the snapshot zone the rule does not apply.
        let other = lint_file(LIB, &format!("{HEADER}{body}"));
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
    fn test_paths_only_get_header_hygiene() {
        let diags = lint_file(
            "tests/foo.rs",
            "fn t() {\n    Some(1).unwrap();\n    let m: HashMap<u32, u32> = HashMap::new();\n    let _ = m;\n}\n",
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
        // its pseudo-string early and treat `.unwrap() is banned` as code
        // — a false `no-panic` positive.
        let diags = lint(
            "fn f() -> &'static str {\n    let msg = r#\"don't \" .unwrap() is banned\"#;\n    msg\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn scrub_raw_string_with_line_comment_chars() {
        // `//` inside a raw string is string content, not a comment; the
        // marker text after it must not suppress rules on the line below.
        let diags = lint(
            "fn f() -> u32 {\n    let _m = r#\"// lint: allow(no-panic)\"#;\n    opt.unwrap()\n}\n",
        );
        assert_eq!(rules(&diags), ["no-panic"], "{diags:?}");
    }

    #[test]
    fn scrub_nested_block_comments_stay_comments() {
        // The old scrubber had no nesting depth: the first `*/` ended the
        // comment and `still comment .unwrap()` became code.
        let diags = lint(
            "/* outer /* inner */ still a comment .unwrap() panic! */\nfn f() -> u32 {\n    1\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn scrub_multiline_string_continuation_is_not_code() {
        // Line 2 of a multi-line string looked like bare code (with a
        // bogus `//` comment) to the per-line scrubber.
        let diags = lint(
            "const S: &str = \"first line\nsecond .unwrap() // not a comment\";\nfn f() -> u32 {\n    1\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn scrub_preserves_empty_vs_nonempty_strings() {
        // `.expect("")` must still be distinguishable from `.expect("x")`
        // after blanking — including for raw-string messages.
        let empty = lint("fn f(x: Option<u32>) -> u32 {\n    x.expect(\"\")\n}\n");
        assert_eq!(rules(&empty), ["no-panic"]);
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
        assert_eq!(diags[0].line, 3);
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
    fn diagnostics_serialize_to_json() {
        let d = Diagnostic {
            path: "crates/demo/src/lib.rs".into(),
            line: 7,
            rule: "no-panic",
            message: "a \"quoted\" message".into(),
        };
        assert_eq!(
            d.to_json(),
            r#"{"path":"crates/demo/src/lib.rs","line":7,"rule":"no-panic","message":"a \"quoted\" message"}"#
        );
        assert_eq!(
            d.to_string(),
            "crates/demo/src/lib.rs:7: [no-panic] a \"quoted\" message"
        );
    }
}
