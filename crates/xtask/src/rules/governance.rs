//! Flow-level governance rules: `budget-coverage` (a checkpoint on
//! *all* paths through a lattice loop body), `partial-contract`
//! (functions returning `MiningOutcome` must thread a `StageReport`),
//! and `span-coverage` (every `*_governed` mining stage must open an
//! observe span or delegate to a governed helper that does).

use super::CHECKPOINT_TOKENS;
use crate::flow::{self, Node, SigTok};
use crate::lexer::TokenKind;
use crate::lint::{allowed, Diagnostic, ScrubbedLine};
use crate::modmap::{in_zone, Zone};

fn is_checkpoint(text: &str) -> bool {
    CHECKPOINT_TOKENS.contains(&text)
}

/// Rule `budget-coverage`: in a lattice module, every `while`/`loop`
/// body must reach a [`CHECKPOINT_TOKENS`] call on *every* path through
/// one iteration — a loop with no checkpoint can run unbounded past any
/// budget, and a checkpoint only in one `if` branch still lets the other
/// path spin. Levelwise `for` loops (iterating an expression that names
/// a level or candidate set, and not nested in another loop) are held
/// to the same bar. A loop that is bounded some other way (or an
/// ungoverned test oracle) carries a `// lint: allow(budget-coverage)`
/// marker saying so.
pub fn check_budget_coverage(
    path: &str,
    sig: &[SigTok<'_>],
    tree: &[Node],
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    if !in_zone(path, Zone::LatticeModule) {
        return;
    }
    for lp in flow::find_loops(tree, sig) {
        let idx = lp.line as usize - 1;
        if idx >= lines.len()
            || in_test.get(idx).copied().unwrap_or(false)
            || allowed(lines, idx, "budget-coverage")
        {
            continue;
        }
        // A `while` condition is evaluated before every iteration.
        let head_polls = lp.keyword == "while" && flow::always_calls(lp.head, sig, &is_checkpoint);
        if head_polls || flow::always_calls(&lp.body.children, sig, &is_checkpoint) {
            continue;
        }
        match lp.keyword {
            "while" | "loop" => {
                let message = if flow::mentions(&lp.body.children, sig, &is_checkpoint) {
                    format!(
                        "`{}` body polls a budget checkpoint on some paths but not all; an uncheckpointed branch can spin past the budget — hoist the poll to the top of the body",
                        lp.keyword
                    )
                } else {
                    format!(
                        "`{}` in a lattice module with no budget checkpoint; poll a `CancelToken` method (check/enter_level/add_candidates/…) in the body",
                        lp.keyword
                    )
                };
                out.push(Diagnostic {
                    path: path.to_string(),
                    line: lp.line as usize,
                    rule: "budget-coverage",
                    message,
                });
            }
            _ => {
                // A levelwise `for`: required only at the outermost
                // level (an enclosing loop already owns the checkpoint)
                // and only when the iterated expression names a
                // level/candidate collection.
                if lp.nested {
                    continue;
                }
                let levelwise = lp
                    .iterated_idents
                    .iter()
                    .any(|id| id.contains("level") || id.contains("candidate"));
                if levelwise {
                    out.push(Diagnostic {
                        path: path.to_string(),
                        line: lp.line as usize,
                        rule: "budget-coverage",
                        message: "levelwise `for` over a level/candidate collection with no budget checkpoint on every path; poll a `CancelToken` method in the body".to_string(),
                    });
                }
            }
        }
    }
}

/// Identifiers in a function body that satisfy the partial-results
/// contract: constructing/propagating a report, or delegating to a
/// governed helper.
fn satisfies_contract(text: &str) -> bool {
    text == "StageReport" || text == "stages" || text.ends_with("_governed")
}

/// Rule `partial-contract`: a function whose return type names
/// `MiningOutcome` must construct or propagate a `StageReport` (or
/// delegate to a `*_governed` helper that does).
/// Otherwise the result silently claims totality with an empty stage
/// account.
pub fn check_partial_contract(
    path: &str,
    sig: &[SigTok<'_>],
    tree: &[Node],
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    let mut fns: Vec<(u32, String)> = Vec::new();
    scan_fns(tree, sig, &mut fns);
    for (line, name) in fns {
        let idx = line as usize - 1;
        if idx >= lines.len()
            || in_test.get(idx).copied().unwrap_or(false)
            || allowed(lines, idx, "partial-contract")
        {
            continue;
        }
        out.push(Diagnostic {
            path: path.to_string(),
            line: line as usize,
            rule: "partial-contract",
            message: format!(
                "`fn {name}` returns `MiningOutcome` but never constructs or propagates a `StageReport`; partial results must carry an honest stage account"
            ),
        });
    }
}

/// Identifiers in a `*_governed` body that satisfy the span obligation:
/// opening an observe span directly (`.span(…)` binds a `SpanGuard`), or
/// delegating to another governed helper that owns the span.
/// Parallel-runtime fan-out helpers (`par_*`) distribute work but own no
/// mining stage, so calling one is *not* delegation.
fn satisfies_span(text: &str) -> bool {
    text == "span" || (!text.starts_with("par_") && text.ends_with("_governed"))
}

/// Rule `span-coverage`: a function named `*_governed` is a mining stage
/// running under the governance token; it must open an observe span or
/// delegate to a governed helper that does. A stage without a
/// span is invisible to `depminer --profile` and the §5.3 phase tables,
/// which silently misattribute its time to the parent.
///
/// The parallel runtime is exempt: its `par_*_governed` helpers are
/// fan-out plumbing, not stages.
pub fn check_span_coverage(
    path: &str,
    sig: &[SigTok<'_>],
    tree: &[Node],
    lines: &[ScrubbedLine],
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    if in_zone(path, Zone::ParallelRuntime) {
        return;
    }
    let mut fns: Vec<(u32, String)> = Vec::new();
    scan_governed_fns(tree, sig, &mut fns);
    for (line, name) in fns {
        let idx = line as usize - 1;
        if idx >= lines.len()
            || in_test.get(idx).copied().unwrap_or(false)
            || allowed(lines, idx, "span-coverage")
        {
            continue;
        }
        out.push(Diagnostic {
            path: path.to_string(),
            line: line as usize,
            rule: "span-coverage",
            message: format!(
                "`fn {name}` is a governed mining stage but never opens an observe span (nor delegates to a governed helper that does); the stage is invisible to `--profile`"
            ),
        });
    }
}

/// Finds `fn` items named `*_governed` whose bodies never satisfy the
/// span obligation, recursively.
fn scan_governed_fns(nodes: &[Node], sig: &[SigTok<'_>], out: &mut Vec<(u32, String)>) {
    let mut i = 0;
    while i < nodes.len() {
        match &nodes[i] {
            Node::Tok(t) if sig[*t].text == "fn" && sig[*t].kind == TokenKind::Ident => {
                let line = sig[*t].line;
                let name = match nodes.get(i + 1) {
                    Some(Node::Tok(t2)) if sig[*t2].kind == TokenKind::Ident => sig[*t2].text,
                    _ => "?",
                };
                // Skip the signature to the body `{` or a `;` (trait decl).
                let mut j = i + 1;
                let mut body: Option<&Node> = None;
                while j < nodes.len() {
                    match &nodes[j] {
                        Node::Tok(t2) if sig[*t2].text == ";" => break,
                        Node::Tok(_) => j += 1,
                        Node::Group(g) if g.open == '{' => {
                            body = Some(&nodes[j]);
                            break;
                        }
                        Node::Group(_) => j += 1,
                    }
                }
                if let Some(Node::Group(g)) = body {
                    let governed = name.ends_with("_governed") && !name.starts_with("par_");
                    if governed && !flow::mentions(&g.children, sig, &satisfies_span) {
                        out.push((line, name.to_string()));
                    }
                    // Recurse for nested fns regardless of the name.
                    scan_governed_fns(&g.children, sig, out);
                }
                i = j + 1;
            }
            Node::Tok(_) => i += 1,
            Node::Group(g) => {
                scan_governed_fns(&g.children, sig, out);
                i += 1;
            }
        }
    }
}

/// Finds `fn` items returning `MiningOutcome` whose bodies violate the
/// contract, recursively.
fn scan_fns(nodes: &[Node], sig: &[SigTok<'_>], out: &mut Vec<(u32, String)>) {
    let mut i = 0;
    while i < nodes.len() {
        match &nodes[i] {
            Node::Tok(t) if sig[*t].text == "fn" && sig[*t].kind == TokenKind::Ident => {
                let line = sig[*t].line;
                let name = match nodes.get(i + 1) {
                    Some(Node::Tok(t2)) if sig[*t2].kind == TokenKind::Ident => sig[*t2].text,
                    _ => "?",
                };
                // Signature runs to the body `{` or a `;` (trait decl).
                let mut returns_outcome = false;
                let mut seen_arrow = false;
                let mut j = i + 1;
                let mut body: Option<&Node> = None;
                while j < nodes.len() {
                    match &nodes[j] {
                        Node::Tok(t2) => {
                            let txt = sig[*t2].text;
                            if txt == ";" {
                                break;
                            }
                            if txt == "-"
                                && matches!(flow::tok_text_at(nodes, j + 1, sig), Some(">"))
                            {
                                seen_arrow = true;
                                j += 2;
                                continue;
                            }
                            if seen_arrow && txt == "MiningOutcome" {
                                returns_outcome = true;
                            }
                            j += 1;
                        }
                        Node::Group(g) if g.open == '{' => {
                            body = Some(&nodes[j]);
                            break;
                        }
                        Node::Group(_) => j += 1,
                    }
                }
                if let Some(Node::Group(g)) = body {
                    if returns_outcome && !flow::mentions(&g.children, sig, &satisfies_contract) {
                        out.push((line, name.to_string()));
                    }
                    // Recurse for nested fns regardless of return type.
                    scan_fns(&g.children, sig, out);
                }
                i = j + 1;
            }
            Node::Tok(_) => i += 1,
            Node::Group(g) => {
                scan_fns(&g.children, sig, out);
                i += 1;
            }
        }
    }
}
