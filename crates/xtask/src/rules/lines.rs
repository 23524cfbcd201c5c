//! The scrubbed-line rules: four checks operating on the per-line
//! code/comment views produced by [`crate::lint`]'s scrubber (which is
//! itself built on the lossless [`crate::lexer`]).

use crate::lint::{allowed, has_token, Diagnostic, ScrubbedLine};
use crate::modmap::{in_zone, Zone};

/// Rule `empty-expect`: `.expect("")` in library code. The message is
/// the justification for why the value must exist, so it may not be
/// empty. (`.unwrap()` and `panic!` are clippy's `unwrap_used` and
/// `panic`; no clippy lint reads the message.)
pub fn check_empty_expect(
    path: &str,
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || allowed(lines, idx, "empty-expect") {
            continue;
        }
        if line.code.contains(".expect(\"\")") {
            out.push(Diagnostic {
                path: path.to_string(),
                line: idx + 1,
                rule: "empty-expect",
                message: "`.expect(\"\")` with an empty message; say why the value must exist"
                    .to_string(),
            });
        }
    }
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

/// Rule `safety-comment`: every `unsafe` block, `unsafe fn`, and
/// `unsafe impl` in library code needs a `// SAFETY:` justification — a
/// trailing comment on the same line, or a contiguous comment block
/// immediately above the statement the `unsafe` belongs to.
pub fn check_safety_comment(
    path: &str,
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || allowed(lines, idx, "safety-comment") {
            continue;
        }
        if !has_token(&line.code, "unsafe") {
            continue;
        }
        if justified(lines, idx) {
            continue;
        }
        out.push(Diagnostic {
            path: path.to_string(),
            line: idx + 1,
            rule: "safety-comment",
            message: "`unsafe` without an adjacent `// SAFETY:` comment justifying why the invariants hold".to_string(),
        });
    }
}

/// `true` when the `unsafe` on line `idx` carries a SAFETY comment: on
/// the line itself, or in the contiguous comment block above the start
/// of the enclosing statement (continuation lines — those whose
/// *predecessor* does not end a statement — are walked through).
fn justified(lines: &[ScrubbedLine], idx: usize) -> bool {
    if lines[idx].comment.contains("SAFETY") {
        return true;
    }
    // Find the statement start: walk up while the previous line is code
    // that flows into this one (no terminator) or an attribute.
    let mut s = idx;
    while s > 0 {
        let prev = lines[s - 1].code.trim_end();
        let prev_trimmed = prev.trim_start();
        let continues = !prev.is_empty()
            && !prev.ends_with(';')
            && !prev.ends_with('{')
            && !prev.ends_with('}')
            && !prev_trimmed.is_empty();
        let is_attr = prev_trimmed.starts_with("#[") || prev_trimmed.starts_with("#![");
        if continues || is_attr {
            s -= 1;
        } else {
            break;
        }
    }
    // Contiguous comment-only lines above the statement.
    let mut k = s;
    while k > 0 {
        let prev = &lines[k - 1];
        if prev.code.trim().is_empty() && !prev.comment.is_empty() {
            if prev.comment.contains("SAFETY") {
                return true;
            }
            k -= 1;
        } else {
            break;
        }
    }
    false
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
