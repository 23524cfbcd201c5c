//! The scrubbed-line rules: the original seven checks, operating on the
//! per-line code/comment views produced by [`crate::lint`]'s scrubber
//! (which is itself built on the lossless [`crate::lexer`]).

use super::CHECKPOINT_TOKENS;
use crate::lint::{allowed, has_token, Diagnostic, ScrubbedLine};
use crate::modmap::{in_zone, Zone};

/// Rule `no-panic`: `.unwrap()`, `.expect("")`, and `panic!` are banned in
/// library code. `.expect("a real message")` is allowed — the message is
/// the justification.
pub fn check_no_panic(
    path: &str,
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || allowed(lines, idx, "no-panic") {
            continue;
        }
        let mut hit = |message: &str| {
            out.push(Diagnostic {
                path: path.to_string(),
                line: idx + 1,
                rule: "no-panic",
                message: message.to_string(),
            })
        };
        if line.code.contains(".unwrap()") {
            hit("`.unwrap()` in library code; return a Result or use `.expect(\"why\")`");
        }
        if line.code.contains(".expect(\"\")") {
            hit("`.expect(\"\")` with an empty message; say why the value must exist");
        }
        if has_token(&line.code, "panic!") {
            hit("`panic!` in library code; return an error instead");
        }
    }
}

/// Rule `default-hasher`: `HashMap`/`HashSet` tokens mean the SipHash
/// default hasher; library code must use the in-tree `FxHashMap` /
/// `FxHashSet` (identifier-bounded, so the `Fx` types don't match).
pub fn check_default_hasher(
    path: &str,
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || allowed(lines, idx, "default-hasher") {
            continue;
        }
        for token in ["HashMap", "HashSet"] {
            if has_token(&line.code, token) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: idx + 1,
                    rule: "default-hasher",
                    message: format!(
                        "`{token}` uses the default SipHash hasher; use `Fx{token}` from depminer_relation::fxhash"
                    ),
                });
            }
        }
    }
}

/// Rule `unordered-iter`: a `for` loop over a hash container that pushes
/// into a result collection, with no `.sort` in sight, yields
/// nondeterministic output order.
///
/// Heuristic: pass 1 collects `let` bindings whose declared type or
/// initializer names a hash type; pass 2 finds `for … in` loops over
/// those variables (or over direct `.keys()`/`.values()` calls on them)
/// whose body contains `.push(`/`.extend(`, and requires a `.sort` within
/// the loop body or the 12 lines after it.
pub fn check_unordered_iter(
    path: &str,
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    // Pass 1: hash-typed variable names.
    let mut hashy: Vec<String> = Vec::new();
    for line in lines {
        let code = line.code.trim_start();
        let Some(rest) = code
            .strip_prefix("let mut ")
            .or_else(|| code.strip_prefix("let "))
        else {
            continue;
        };
        let is_hash_ty = ["FxHashMap", "FxHashSet", "HashMap", "HashSet"]
            .iter()
            .any(|t| has_token(code, t));
        if !is_hash_ty {
            continue;
        }
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() && !hashy.contains(&name) {
            hashy.push(name);
        }
    }
    if hashy.is_empty() {
        return;
    }

    // Pass 2: loops over those variables.
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || allowed(lines, idx, "unordered-iter") {
            continue;
        }
        let code = line.code.trim_start();
        if !code.starts_with("for ") {
            continue;
        }
        let Some(in_pos) = code.find(" in ") else {
            continue;
        };
        let iterated = &code[in_pos + 4..];
        if !is_hash_iteration(iterated, &hashy) {
            continue;
        }
        // Loop body extent by brace matching.
        let (_, end) = brace_extent(lines, idx);
        let body = &lines[idx..=end];
        let pushes = body
            .iter()
            .any(|l| l.code.contains(".push(") || l.code.contains(".extend("));
        if !pushes {
            continue;
        }
        let window_end = (end + 13).min(lines.len());
        let sorted = lines[idx..window_end]
            .iter()
            .any(|l| l.code.contains(".sort"));
        if !sorted {
            out.push(Diagnostic {
                path: path.to_string(),
                line: idx + 1,
                rule: "unordered-iter",
                message: "hash-container iteration feeds an ordered collection with no `.sort` nearby; output order is nondeterministic".to_string(),
            });
        }
    }
}

/// `true` when a `for`-loop head iterates a hash container *directly*
/// (`for x in &map`, `for k in map.keys()`, …). Indexing into a map
/// (`map[&k].iter()`) iterates the *value*, whose order is the value
/// type's business, so it does not count.
fn is_hash_iteration(iterated: &str, hashy: &[String]) -> bool {
    let mut expr = iterated.trim();
    for prefix in ["&mut ", "&"] {
        if let Some(rest) = expr.strip_prefix(prefix) {
            expr = rest;
        }
    }
    let expr = expr.trim_start_matches('(').trim_end();
    let expr = expr.strip_suffix('{').unwrap_or(expr).trim_end();
    for name in hashy {
        let Some(rest) = expr.strip_prefix(name.as_str()) else {
            continue;
        };
        if rest.is_empty() {
            return true;
        }
        const ITERS: [&str; 7] = [
            ".iter()",
            ".iter_mut()",
            ".keys()",
            ".values()",
            ".values_mut()",
            ".drain()",
            ".into_iter()",
        ];
        if ITERS.contains(&rest) {
            return true;
        }
    }
    false
}

/// Rule `attr-count`: a hardcoded `128` on a line talking about
/// attributes or arity should be `AttrSet::MAX_ATTRS`.
pub fn check_attr_count(
    path: &str,
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || allowed(lines, idx, "attr-count") {
            continue;
        }
        let code = &line.code;
        if !has_token(code, "128") || code.contains("MAX_ATTRS") {
            continue;
        }
        let lower = code.to_ascii_lowercase();
        if lower.contains("attr") || lower.contains("arity") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: idx + 1,
                rule: "attr-count",
                message: "hardcoded attribute-count literal 128; use `AttrSet::MAX_ATTRS`"
                    .to_string(),
            });
        }
    }
}

/// Rule `raw-thread-spawn`: raw thread creation (`thread::spawn`,
/// `thread::Builder`) is confined to `crates/parallel`. Everywhere else
/// must go through the work-stealing pool's scoped API, so thread counts
/// honor the `Parallelism` knob and the `DEPMINER_THREADS` override, and
/// panics propagate instead of killing detached threads.
pub fn check_raw_thread_spawn(
    path: &str,
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    if in_zone(path, Zone::ParallelRuntime) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || allowed(lines, idx, "raw-thread-spawn") {
            continue;
        }
        for token in ["thread::spawn", "thread::Builder"] {
            if has_token(&line.code, token) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: idx + 1,
                    rule: "raw-thread-spawn",
                    message: format!(
                        "`{token}` outside crates/parallel; use the depminer-parallel pool (scope/par_map) so `DEPMINER_THREADS` and panic propagation apply"
                    ),
                });
            }
        }
    }
}

/// Rule `unchecked-loop`: a `while`/`loop` in the levelwise/lattice
/// modules ([`Zone::LatticeModule`]) whose body never mentions a
/// [`CHECKPOINT_TOKENS`] method can run unbounded past any budget. A loop
/// that is genuinely bounded (or an ungoverned test oracle) carries a
/// `// lint: allow(unchecked-loop)` marker saying so. The stricter
/// all-paths version of this check is the flow-level `budget-coverage`
/// rule.
pub fn check_unchecked_loop(
    path: &str,
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    if !in_zone(path, Zone::LatticeModule) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || allowed(lines, idx, "unchecked-loop") {
            continue;
        }
        let mut head = line.code.trim_start();
        // Strip a loop label (`'levels: while …`).
        if head.starts_with('\'') {
            match head.split_once(':') {
                Some((_, rest)) => head = rest.trim_start(),
                None => continue,
            }
        }
        let is_loop_head = head.starts_with("while ")
            || head.starts_with("while(")
            || head == "loop"
            || head.starts_with("loop ")
            || head.starts_with("loop{");
        if !is_loop_head {
            continue;
        }
        let (_, end) = brace_extent(lines, idx);
        let checkpointed = lines[idx..=end]
            .iter()
            .any(|l| CHECKPOINT_TOKENS.iter().any(|t| has_token(&l.code, t)));
        if !checkpointed {
            out.push(Diagnostic {
                path: path.to_string(),
                line: idx + 1,
                rule: "unchecked-loop",
                message: "`while`/`loop` in a lattice module with no budget checkpoint; poll a `CancelToken` method (check/enter_level/add_candidates/…) in the body".to_string(),
            });
        }
    }
}

/// Rule `raw-snapshot-write`: in the snapshot-persistence zone
/// ([`Zone::SnapshotZone`]) every file mutation must go through the
/// atomic helper (`.tmp` sibling + `fsync` + rename + directory fsync)
/// so a crash mid-write can never leave a torn frame at the final
/// path — a torn frame wastes the user's checkpoint even though the
/// codec would refuse it. Direct `fs::write`, `File::create`,
/// `OpenOptions` and `fs::rename` calls are flagged; the helper's own
/// internals carry `// lint: allow(raw-snapshot-write)` markers.
pub fn check_raw_snapshot_write(
    path: &str,
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    if !in_zone(path, Zone::SnapshotZone) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || allowed(lines, idx, "raw-snapshot-write") {
            continue;
        }
        for token in ["fs::write", "File::create", "OpenOptions", "fs::rename"] {
            if has_token(&line.code, token) {
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: idx + 1,
                    rule: "raw-snapshot-write",
                    message: format!(
                        "`{token}` in the snapshot zone bypasses the atomic writer; use `atomic_write` (tmp + fsync + rename) so a crash cannot tear the frame at its final path"
                    ),
                });
            }
        }
    }
}

/// Rule `nested-alloc`: a `Vec<Vec<…>>` in a hot-path module
/// ([`Zone::HotPath`]) is a jagged heap-of-heaps where the flat CSR
/// forms (`FlatPartition`, the `ClassIds` matrix, or a payload+offsets
/// pair) belong. The match is whitespace-insensitive (so
/// `Vec < Vec <` and `Vec<\n    Vec<` spellings still count) but
/// string/comment-safe via the scrubbed view. Boundary types and
/// pedagogical nested forms carry a `// lint: allow(nested-alloc)`
/// marker with a justification; adopting the rule on a tree with known
/// debt goes through `xtask-baseline.txt` instead.
pub fn check_nested_alloc(
    path: &str,
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    if !in_zone(path, Zone::HotPath) {
        return;
    }
    // A declaration can split across lines (`Vec<` at the end of one,
    // `Vec<` at the start of the next), so the scan joins each line with
    // its successor before squashing whitespace; the finding lands on
    // the first line of the pair.
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || allowed(lines, idx, "nested-alloc") {
            continue;
        }
        let mut joined = line.code.clone();
        if let Some(next) = lines.get(idx + 1) {
            joined.push_str(&next.code);
        }
        let squashed: String = joined.chars().filter(|c| !c.is_whitespace()).collect();
        // Only report the pair's first line: a hit that starts on the
        // next line is that line's own finding.
        let own: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        let starts_here = match squashed.find("Vec<Vec<") {
            Some(pos) => pos < own.len(),
            None => false,
        };
        if starts_here {
            out.push(Diagnostic {
                path: path.to_string(),
                line: idx + 1,
                rule: "nested-alloc",
                message: "nested `Vec<Vec<…>>` in a hot-path module; use the flat CSR layout (payload + offsets, e.g. `FlatPartition`) or justify with `// lint: allow(nested-alloc)`".to_string(),
            });
        }
    }
}

/// Rule `header-hygiene`: every `lib.rs` must carry
/// `#![warn(missing_docs)]` (or the stricter `#![deny(warnings)]`) near
/// the top, so undocumented public items fail `cargo test` under the
/// workspace's warning policy.
pub fn check_header_hygiene(path: &str, lines: &[ScrubbedLine], out: &mut Vec<Diagnostic>) {
    let file = path.rsplit(['/', '\\']).next().unwrap_or(path);
    if file != "lib.rs" {
        return;
    }
    // Scan the header: doc comments, inner attributes, and blank lines.
    // The marker must appear before the first real item.
    let mut ok = false;
    for l in lines {
        let code = l.code.trim();
        if code.contains("#![warn(missing_docs)]") || code.contains("#![deny(warnings)]") {
            ok = true;
            break;
        }
        if !code.is_empty() && !code.starts_with("#!") {
            break;
        }
    }
    if !ok {
        out.push(Diagnostic {
            path: path.to_string(),
            line: 1,
            rule: "header-hygiene",
            message:
                "lib.rs must declare `#![warn(missing_docs)]` in its header, before the first item"
                    .to_string(),
        });
    }
}

/// Brace-matched extent of the construct starting at line `idx`:
/// `(idx, last_line)` inclusive.
fn brace_extent(lines: &[ScrubbedLine], idx: usize) -> (usize, usize) {
    let mut depth = 0usize;
    let mut opened = false;
    let mut end = idx;
    for (j, l) in lines.iter().enumerate().skip(idx) {
        for c in l.code.chars() {
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
            return (idx, j);
        }
        end = j;
    }
    (idx, end)
}
