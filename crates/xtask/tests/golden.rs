//! Golden-file tests for the flow-level lint rules.
//!
//! Each rule directory under `tests/fixtures/` carries three files:
//! `fire.rs` (every finding in it must be the rule under test),
//! `silent.rs` (the rule must not fire), and `allow.rs` (the content
//! would fire but a `lint: allow(<rule>)` marker suppresses it).
//!
//! Fixtures are linted under synthetic workspace paths so the module
//! map routes them into the right zone; they never join the cargo
//! module tree and need not compile.

use std::fs;
use std::path::PathBuf;

use xtask::lint;

/// Lint `fixtures/<rule>/<file>` as if it lived at `synthetic_path`.
fn lint_fixture(rule: &str, file: &str, synthetic_path: &str) -> Vec<lint::Diagnostic> {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", rule, file]
        .iter()
        .collect();
    let source = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    lint::lint_file(synthetic_path, &source)
}

/// Run the fire/silent/allow triple for one rule.
///
/// `fire_lines` pins the 1-based lines the rule must flag in `fire.rs`
/// so a regression that shifts or drops a finding is caught exactly.
fn check_rule(rule: &str, synthetic_path: &str, fire_lines: &[usize]) {
    let fired = lint_fixture(rule, "fire.rs", synthetic_path);
    let got: Vec<usize> = fired
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect();
    assert_eq!(
        got, fire_lines,
        "{rule}/fire.rs: expected findings at {fire_lines:?}, got {fired:?}"
    );
    let stray: Vec<_> = fired.iter().filter(|d| d.rule != rule).collect();
    assert!(
        stray.is_empty(),
        "{rule}/fire.rs trips unrelated rules: {stray:?}"
    );

    for file in ["silent.rs", "allow.rs"] {
        let diags = lint_fixture(rule, file, synthetic_path);
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == rule).collect();
        assert!(hits.is_empty(), "{rule}/{file} must stay silent: {hits:?}");
    }
}

/// Non-lattice rules are exercised under a plain library-source path.
const LIB_PATH: &str = "crates/demo/src/work.rs";
/// Budget coverage only applies inside lattice modules.
const LATTICE_PATH: &str = "crates/tane/src/exact.rs";
/// Raw-snapshot-write only applies inside the snapshot zone.
const SNAPSHOT_PATH: &str = "crates/govern/src/snapshot.rs";

#[test]
fn par_closure_capture_golden() {
    check_rule("par-closure-capture", LIB_PATH, &[7, 15, 21]);
}

#[test]
fn budget_coverage_golden() {
    check_rule("budget-coverage", LATTICE_PATH, &[5, 14, 26]);
}

#[test]
fn raw_snapshot_write_golden() {
    check_rule("raw-snapshot-write", SNAPSHOT_PATH, &[5, 9, 13, 17]);
}

#[test]
fn safety_comment_golden() {
    check_rule("safety-comment", LIB_PATH, &[4, 9]);
}

#[test]
fn partial_contract_golden() {
    check_rule("partial-contract", LIB_PATH, &[4, 9]);
}

#[test]
fn span_coverage_golden() {
    check_rule("span-coverage", LIB_PATH, &[4, 9]);
}
