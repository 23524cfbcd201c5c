//! `cargo xtask`-style developer tooling for the depminer workspace.
//!
//! Usage:
//!
//! ```text
//! cargo run -p xtask -- check [PATH...]
//! cargo run -p xtask -- validate-profile FILE [--require a,b,c]
//! ```
//!
//! `validate-profile` checks a `depminer --profile` JSON export against
//! the span-tree invariants (schema tag, balanced enter/exit, child
//! durations bounded by parents) and, with `--require`, that the named
//! spans all appear — used by `ci.sh` after the profiled smoke mine.
//!
//! `check` runs the in-tree static-analysis pass (see `xtask::lint`)
//! over the workspace sources, or only the given files/directories, and
//! exits non-zero on any diagnostic; a `// lint: allow(<rule>)` comment
//! is the one way to suppress one.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xtask::lint::{self, Diagnostic};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("check") => {}
        Some("validate-profile") => return validate_profile(args),
        Some("--help") | Some("-h") | None => {
            eprintln!("usage: cargo run -p xtask -- check [PATH...]");
            eprintln!("       cargo run -p xtask -- validate-profile FILE [--require a,b,c]");
            eprintln!("rules: {}", lint::RULES.join(", "));
            return if args.next().is_none() && std::env::args().len() == 1 {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            };
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}` (try `check` or `validate-profile`)");
            return ExitCode::from(2);
        }
    }
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in args {
        if arg.starts_with('-') {
            eprintln!("xtask: unknown flag `{arg}`");
            return ExitCode::from(2);
        }
        paths.push(PathBuf::from(arg));
    }

    let root = workspace_root();
    if paths.is_empty() {
        paths.push(root.clone());
    }

    let mut files: Vec<PathBuf> = Vec::new();
    for p in &paths {
        collect_rust_files(p, &mut files);
    }
    files.sort();
    files.dedup();

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut read_errors = 0usize;
    for file in &files {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(file) {
            Ok(source) => diags.extend(lint::lint_file(&rel, &source)),
            Err(e) => {
                eprintln!("xtask: cannot read {rel}: {e}");
                read_errors += 1;
            }
        }
    }

    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("xtask check: {} files, clean", files.len());
    } else {
        println!(
            "xtask check: {} files, {} diagnostic(s)",
            files.len(),
            diags.len()
        );
    }
    if diags.is_empty() && read_errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `validate-profile FILE [--require a,b,c]`: parse a profile JSON
/// export and check the span-tree invariants plus any required span
/// names. Exit codes: 0 valid, 1 invalid or unreadable, 2 usage.
fn validate_profile(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut file: Option<String> = None;
    let mut require: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--require" => match args.next() {
                Some(list) => require.extend(
                    list.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty()),
                ),
                None => {
                    eprintln!("xtask: --require needs a comma-separated span-name list");
                    return ExitCode::from(2);
                }
            },
            other if other.starts_with('-') => {
                eprintln!("xtask: unknown flag `{other}`");
                return ExitCode::from(2);
            }
            other => {
                if file.is_some() {
                    eprintln!("xtask: validate-profile takes exactly one FILE");
                    return ExitCode::from(2);
                }
                file = Some(other.to_string());
            }
        }
    }
    let Some(file) = file else {
        eprintln!("usage: cargo run -p xtask -- validate-profile FILE [--require a,b,c]");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let required: Vec<&str> = require.iter().map(String::as_str).collect();
    match depminer_observe::profile::validate_profile_json(&text, &required) {
        Ok(names) => {
            println!(
                "xtask validate-profile: {file}: OK ({} span name(s): {})",
                names.len(),
                names.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("xtask validate-profile: {file}: INVALID: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: walk up from the manifest dir (or cwd) to the
/// directory whose `Cargo.toml` declares `[workspace]`.
fn workspace_root() -> PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let mut dir = start.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start;
        }
    }
}

/// Recursively collects `.rs` files, skipping build output and VCS dirs.
fn collect_rust_files(path: &Path, out: &mut Vec<PathBuf>) {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if matches!(name, "target" | ".git" | "node_modules") {
        return;
    }
    if path.is_dir() {
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            collect_rust_files(&entry.path(), out);
        }
    } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
        out.push(path.to_path_buf());
    }
}
