//! Drives the built `depminer` binary rather than `cli::run` alone.
//!
//! The binary's `main` owns what `cli::run` cannot test in process: one
//! block-buffered stdout, flushed before every exit — on success, before
//! an `error:` line, and before `process::exit`, which runs no
//! destructors — and the exit code and stderr line of every failure,
//! including a failed flush.

use depminer::relation::{csv, SyntheticConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Fresh per-test directory.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("depminer_cli_binary_tests")
        .join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A §5.2 relation whose FD text is several times the 8 KiB stdout
/// buffer: about 26 KB from `fds`, 45 KB from `approx --epsilon 0.01`.
fn wide_csv(dir: &Path) -> String {
    let r = SyntheticConfig {
        n_attrs: 14,
        n_rows: 200,
        correlation: 0.5,
        seed: 7,
    }
    .generate()
    .expect("valid synthetic config");
    let path = dir.join("wide.csv");
    csv::write_csv_file(&r, &path).unwrap();
    path.to_string_lossy().into_owned()
}

/// A relation whose FD text is far smaller than the stdout buffer.
fn tiny_csv(dir: &Path) -> String {
    let path = dir.join("tiny.csv");
    std::fs::write(&path, "city,zip\nLyon,69001\nLyon,69002\nParis,75001\n").unwrap();
    path.to_string_lossy().into_owned()
}

fn depminer(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_depminer"));
    cmd.args(args).env("DEPMINER_THREADS", "1");
    cmd
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn binary_stdout_matches_cli_run_byte_for_byte() {
    let dir = tmp_dir("same_bytes");
    let path = wide_csv(&dir);
    let cases: [&[&str]; 2] = [
        &["fds", "--algo", "tane", &path],
        &["approx", "--epsilon", "0.01", &path],
    ];
    for args in cases {
        let owned: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut want = Vec::new();
        depminer::cli::run(&owned, &mut want).expect("cli::run succeeds");
        assert!(want.len() > 3 * 8192, "{args:?}: only {} bytes", want.len());

        let got = depminer(args).output().unwrap();
        assert_eq!(got.status.code(), Some(0), "{args:?}: {}", stderr_of(&got));
        assert_eq!(stderr_of(&got), "", "{args:?}");
        assert!(
            got.stdout == want,
            "{args:?}: binary stdout ({} bytes) differs from cli::run ({} bytes)",
            got.stdout.len(),
            want.len()
        );
    }
}

#[test]
fn a_budget_trip_flushes_stdout_before_exit_3() {
    let dir = tmp_dir("trip");
    let path = wide_csv(&dir);
    let ckpt = dir.join("ckpt").to_string_lossy().into_owned();
    let args = [
        "fds",
        "--algo",
        "tane",
        "--timeout",
        "0",
        "--checkpoint-dir",
        &ckpt,
        &path,
    ];
    let out = depminer(&args).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let header = stdout.lines().next().unwrap_or_default();
    assert!(header.ends_with("[PARTIAL]"), "header: {header:?}");
    assert!(
        stdout.lines().any(|l| l.starts_with("# run interrupted:")),
        "stdout: {stdout:?}"
    );
    assert!(stderr_of(&out).starts_with("error: budget exhausted:"));
}

#[test]
fn an_unknown_algo_exits_2_with_its_error_line() {
    let dir = tmp_dir("usage");
    let path = tiny_csv(&dir);
    let out = depminer(&["fds", "--algo", "nope", &path])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(stderr_of(&out), "error: unknown --algo: nope\n");
    assert!(out.stdout.is_empty());
}

#[test]
fn a_closed_stdout_pipe_exits_1_with_write_failed() {
    let dir = tmp_dir("broken_pipe");
    // The wide relation's text overflows the buffer inside `cli::run`;
    // the tiny one's fits, so its write fails only at `main`'s flush.
    for path in [wide_csv(&dir), tiny_csv(&dir)] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = depminer(&["fds", "--algo", "tane", &path])
            .stdout(writer)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{path}: {}", stderr_of(&out));
        let stderr = stderr_of(&out);
        assert!(
            stderr.starts_with("error: write failed: Broken pipe"),
            "{path}: {stderr:?}"
        );
        assert_eq!(stderr.lines().count(), 1, "{path}: {stderr:?}");
    }
}
