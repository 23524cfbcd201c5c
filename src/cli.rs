//! The `depminer` command-line tool.
//!
//! A thin, dependency-free front end over the library for the dba workflow
//! the paper describes: discover FDs, sample with Armstrong relations,
//! inspect keys, mine approximate FDs on dirty data, plan a normalization,
//! and generate benchmark data.
//!
//! ```text
//! depminer fds [--algo depminer|depminer2|tane|fdep|naive] [--save <fds.txt>] <file.csv>
//! depminer armstrong [--synthetic] [--output <out.csv>] <file.csv>
//! depminer keys <file.csv>
//! depminer approx --epsilon <e> <file.csv>
//! depminer normalize <file.csv>
//! depminer generate --attrs <n> --rows <n> [--correlation <c>] [--seed <s>] <out.csv>
//! ```
//!
//! `fds`, `approx` and `armstrong` also accept `--timeout <secs>`,
//! `--max-couples <n>` and `--max-memory <size>` (bytes, or `64m`-style
//! suffixed): mining then runs under a resource [`Budget`] and a
//! budget-exhausted run prints whatever partial result is valid plus
//! per-stage diagnostics, exiting with code **3** (distinct from 1 =
//! runtime error and 2 = usage error).
//!
//! `fds` additionally accepts the observability flags `--profile <out.json>`
//! (write a span-tree profile of the run and print a phase summary) and
//! `--trace` (stream enter/exit/counter events as JSONL to stderr), plus
//! `--algo all` which runs Dep-Miner, TANE and FDEP back to back on one
//! token so a single profile covers every stage of all three miners.
//!
//! All mining commands dispatch through the `depminer-engine` layer: the
//! [`MinerRegistry`] maps `--algo` names and snapshot frame ids onto
//! [`depminer_engine::Miner`] implementations, and the [`Session`] driver
//! owns the budget/observer/checkpoint bundle — the CLI holds no
//! per-algorithm entry-point arms.
//!
//! All logic lives here (unit-testable against in-memory writers); the
//! binary in `src/bin/` forwards `std::env::args` and hands [`run`] one
//! block-buffered stdout, which it flushes before every exit.

use depminer_core::{
    agree_sets, armstrong_for_fds_with_schema, candidate_keys_from_agree_sets, AgreeSetStrategy,
    DepMiner,
};
use depminer_engine::{ApproxMiner, Emitted, MinerRegistry, Session, SessionCtx};
use depminer_fdtheory::{candidate_keys, canonical_cover, fdfile, is_bcnf, synthesize_3nf, Fd};
use depminer_govern::observe::jsonl::JsonlSink;
use depminer_govern::observe::profile::ProfileSink;
use depminer_govern::observe::{Fanout, Obs, Observer};
use depminer_govern::snapshot::read_snapshot;
use depminer_govern::{
    Budget, BudgetExceeded, MiningOutcome, Snapshot, SnapshotError, SnapshotPolicy,
};
use depminer_relation::{csv, Relation, Schema, StrippedPartitionDb, SyntheticConfig};
use std::fmt;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (2 = usage, 1 = runtime, 3 = budget exhausted,
    /// 4 = snapshot unusable).
    pub code: i32,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        code: 2,
    }
}

fn run_err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        code: 1,
    }
}

fn budget_err(why: &BudgetExceeded) -> CliError {
    CliError {
        message: format!("budget exhausted: {why}"),
        code: 3,
    }
}

/// Maps a snapshot failure onto exit codes: an I/O failure reading the
/// file is a plain runtime error (1); everything the codec *refused* —
/// corrupt, torn, version-skewed, or mismatched frames — is the distinct
/// "snapshot unusable" code **4**, so scripts can tell "my snapshot is
/// bad" from "mining failed".
fn snapshot_err(e: SnapshotError) -> CliError {
    let code = match &e {
        SnapshotError::Io(_) => 1,
        _ => 4,
    };
    CliError {
        message: format!("snapshot unusable: {e}"),
        code,
    }
}

/// Parses a `--max-memory` value: plain bytes, or with a `k`/`m`/`g`
/// binary suffix (case-insensitive), e.g. `64m`.
fn parse_memory_size(s: &str) -> Result<u64, CliError> {
    let bad = || {
        usage_err(format!(
            "--max-memory: invalid size `{s}` (try 64m, 2g, or bytes)"
        ))
    };
    let (digits, shift) = match s.trim().to_ascii_lowercase() {
        t if t.ends_with('k') => (t[..t.len() - 1].to_string(), 10),
        t if t.ends_with('m') => (t[..t.len() - 1].to_string(), 20),
        t if t.ends_with('g') => (t[..t.len() - 1].to_string(), 30),
        t => (t, 0),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    n.checked_mul(1 << shift).filter(|&v| v > 0).ok_or_else(bad)
}

/// Builds a [`Budget`] from `--timeout <secs>` / `--max-couples <n>` /
/// `--max-memory <size>`; `None` when no flag is present (the ungoverned
/// fast path).
fn budget_from_args(args: &Args) -> Result<Option<Budget>, CliError> {
    let timeout: Option<f64> = args.get_parsed("timeout")?;
    let max_couples: Option<u64> = args.get_parsed("max-couples")?;
    let max_memory = args.get("max-memory").map(parse_memory_size).transpose()?;
    if timeout.is_none() && max_couples.is_none() && max_memory.is_none() {
        return Ok(None);
    }
    let mut budget = Budget::unlimited();
    if let Some(secs) = timeout {
        // `--timeout 0` is a legal (if extreme) budget: the deadline is
        // already past, so the run trips at its first checkpoint and
        // exits 3 with an empty-but-well-formed partial — it is not a
        // usage error. Only negative or non-finite values are rejected.
        if !secs.is_finite() || secs < 0.0 {
            return Err(usage_err(
                "--timeout must be a non-negative number of seconds",
            ));
        }
        budget = budget.with_timeout(Duration::from_secs_f64(secs));
    }
    if let Some(n) = max_couples {
        budget = budget.with_max_couples(n);
    }
    if let Some(bytes) = max_memory {
        budget = budget.with_max_memory_bytes(bytes);
    }
    Ok(Some(budget))
}

/// Builds a [`SnapshotPolicy`] from `--checkpoint-dir <dir>` (plus the
/// optional cadence flags `--checkpoint-every <n boundaries>` and
/// `--checkpoint-interval <secs>`); `None` when absent. The directory is
/// created if missing. A trip always flushes the latest boundary
/// snapshot regardless of cadence.
fn snapshot_policy_from_args(args: &Args) -> Result<Option<SnapshotPolicy>, CliError> {
    let Some(dir) = args.get("checkpoint-dir") else {
        if args.has("checkpoint-every") || args.has("checkpoint-interval") {
            return Err(usage_err(
                "--checkpoint-every/--checkpoint-interval need --checkpoint-dir",
            ));
        }
        return Ok(None);
    };
    std::fs::create_dir_all(dir)
        .map_err(|e| run_err(format!("cannot create checkpoint dir {dir}: {e}")))?;
    let mut policy = SnapshotPolicy::new(dir);
    if let Some(n) = args.get_parsed::<u64>("checkpoint-every")? {
        if n == 0 {
            return Err(usage_err("--checkpoint-every must be at least 1"));
        }
        policy = policy.every_boundaries(n);
    }
    if let Some(secs) = args.get_parsed::<f64>("checkpoint-interval")? {
        if !secs.is_finite() || secs < 0.0 {
            return Err(usage_err(
                "--checkpoint-interval must be a non-negative number of seconds",
            ));
        }
        policy = policy.every_interval(Duration::from_secs_f64(secs));
    }
    Ok(Some(policy))
}

/// Observability sinks requested via `--profile <out.json>` / `--trace`.
///
/// The profile sink is kept alongside its output path so the finished
/// span tree can be exported after mining returns; the trace sink streams
/// to stderr as events happen and needs no finalization.
struct ObserveSetup {
    obs: Obs,
    profile: Option<(Arc<ProfileSink>, String)>,
}

fn observe_from_args(args: &Args) -> ObserveSetup {
    let mut sinks: Vec<Arc<dyn Observer>> = Vec::new();
    let mut profile = None;
    if let Some(path) = args.get("profile") {
        let sink = Arc::new(ProfileSink::new());
        sinks.push(sink.clone());
        profile = Some((sink, path.to_string()));
    }
    if args.has("trace") {
        sinks.push(Arc::new(JsonlSink::new(std::io::stderr())));
    }
    let obs = if sinks.len() == 1 {
        Obs::new(sinks.remove(0))
    } else if sinks.is_empty() {
        Obs::none()
    } else {
        Obs::new(Arc::new(Fanout::new(sinks)))
    };
    ObserveSetup { obs, profile }
}

/// Writes the collected profile (if `--profile` was given) and prints the
/// rendered phase summary as `#`-prefixed comment lines.
fn finish_observe(setup: &ObserveSetup, out: &mut dyn Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    if let Some((sink, path)) = &setup.profile {
        let profile = sink.snapshot();
        std::fs::write(path, profile.to_json())
            .map_err(|e| run_err(format!("cannot write {path}: {e}")))?;
        writeln!(out, "# profile written to {path}").map_err(io)?;
        for line in profile.render_text().lines() {
            writeln!(out, "# {line}").map_err(io)?;
        }
    }
    Ok(())
}

/// Prints per-stage diagnostics for an interrupted run and converts the
/// trip into the exit-code-3 error.
fn report_interrupted<T>(
    outcome: &MiningOutcome<T>,
    why: &BudgetExceeded,
    out: &mut dyn Write,
) -> CliError {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    for line in outcome.diagnostics().lines() {
        if let Err(e) = writeln!(out, "# {line}") {
            return io(e);
        }
    }
    budget_err(why)
}

/// The ` [PARTIAL]` header suffix for interrupted runs.
fn partial_suffix<T>(outcome: &MiningOutcome<T>) -> &'static str {
    if outcome.is_complete() {
        ""
    } else {
        " [PARTIAL]"
    }
}

/// Writes `text` and a newline to `out` in one `write_all`, rendered into
/// the reused `line` first. A block buffer that only ever receives whole
/// lines flushes at line ends, and stdout's line writer then passes each
/// block on in one write(2), rather than the lines and then the held-back
/// partial line in two.
fn write_line(
    out: &mut dyn Write,
    line: &mut String,
    text: fmt::Arguments<'_>,
) -> Result<(), CliError> {
    line.clear();
    fmt::Write::write_fmt(line, text).expect("formatting into a String cannot fail");
    line.push('\n');
    out.write_all(line.as_bytes())
        .map_err(|e| run_err(format!("write failed: {e}")))
}

/// The shared tail of every mining command, emitted once for the whole
/// `Session` driver layer instead of per command: prints the header and
/// the emitted dependency lines, surfaces per-stage diagnostics plus the
/// exit-code-3 error when the run was interrupted, saves a *complete*
/// exact cover when `save` is given, and finishes the observability
/// sinks (even an interrupted run exports its partial profile — the span
/// tree up to the trip is exactly what a user diagnosing a budget
/// blowout wants to see).
fn emit_outcome(
    outcome: &MiningOutcome<Emitted>,
    header: &str,
    r: &Relation,
    save: Option<&str>,
    observe: &ObserveSetup,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    writeln!(out, "{header}").map_err(io)?;
    let mut line = String::new();
    match &outcome.result {
        Emitted::Fds(fds) => {
            for fd in fds {
                write_line(out, &mut line, format_args!("{}", fd.named(r.schema())))?;
            }
        }
        Emitted::ApproxFds { fds, .. } => {
            for afd in fds {
                let named = afd.fd.named(r.schema());
                let text = format_args!("{named:<40} g3 = {:.4}", afd.error);
                write_line(out, &mut line, text)?;
            }
        }
    }
    if let Some(why) = outcome.interrupted.clone() {
        let err = report_interrupted(outcome, &why, out);
        finish_observe(observe, out)?;
        return Err(err);
    }
    if let (Some(path), Some(fds)) = (save, outcome.result.exact_fds()) {
        let text = fdfile::render(r.schema(), fds);
        std::fs::write(path, text).map_err(|e| run_err(format!("cannot write {path}: {e}")))?;
        writeln!(out, "# saved FD file to {path}").map_err(io)?;
    }
    finish_observe(observe, out)?;
    Ok(())
}

const USAGE: &str = "\
depminer — functional-dependency discovery and Armstrong relations (EDBT 2000)

USAGE:
    depminer fds [--algo depminer|depminer2|tane|fdep|naive|all] [--save <fds.txt>] <file.csv>
    depminer resume --checkpoint-dir <dir> [--algo <name>] <file.csv>
    depminer armstrong [--synthetic] [--output <out.csv>] <file.csv>
    depminer keys <file.csv>
    depminer approx --epsilon <e> <file.csv>
    depminer normalize <file.csv>
    depminer inds <file.csv> [<file2.csv> ...]
    depminer describe <file.csv>
    depminer report <file.csv>
    depminer design [--output <out.csv>] <fds.txt>
    depminer prove --goal \"<X -> Y>\" <fds.txt>
    depminer generate --attrs <n> --rows <n> [--correlation <c>] [--seed <s>] <out.csv>
    depminer help

    A flag the command does not read is a usage error (exit code 2).

BUDGETS:
    fds, approx and armstrong accept --timeout <secs>, --max-couples <n>
    and --max-memory <size> (bytes, or with a k/m/g suffix, e.g. 64m; caps
    the tracked partition and agree-set storage — the TANE cache evicts
    dead partitions before giving up). When the budget runs out the valid partial result
    and per-stage diagnostics are printed and the process exits with code 3.
    --timeout 0 trips at the first checkpoint: useful for smoke-testing
    budget handling, or with --checkpoint-dir for forcing a snapshot.

CHECKPOINTS:
    fds, approx and resume accept --checkpoint-dir <dir>: when a budget
    trips, resumable stage state is written atomically to <dir>/<algo>.snap
    (CRC-checksummed, versioned). Add --checkpoint-every <n> (snapshot every
    n clean stage boundaries) or --checkpoint-interval <secs> for periodic
    snapshots during healthy runs. `resume` re-loads the snapshot, verifies
    it against the relation and the algorithm configuration recorded in the
    frame, and continues mining from the saved frontier; a corrupt, torn,
    truncated, version-skewed or mismatched snapshot is refused with a
    positioned diagnostic and exit code 4. Completed runs delete their
    snapshot. With several .snap files in the directory, pick one with
    --algo depminer|tane|approx. depminer2 and fdep are Dep-Miner
    configurations: they write depminer.snap, and the configuration
    recorded in the frame is the one that resumes.

OBSERVABILITY:
    fds accepts --profile <out.json> (write a span-tree profile with phase
    timings and counters, plus a rendered summary) and --trace (stream
    enter/exit/counter events as JSONL to stderr). --algo all mines with
    Dep-Miner, TANE and FDEP on one token so the profile covers all three.

FD FILE FORMAT (design / prove):
    attributes: city street zip
    city street -> zip
    zip -> city
";

/// The budget flags `budget_from_args` reads.
const BUDGET: [&str; 3] = ["timeout", "max-couples", "max-memory"];
/// The checkpoint flags `snapshot_policy_from_args` reads.
const CHECKPOINT: [&str; 3] = ["checkpoint-dir", "checkpoint-every", "checkpoint-interval"];
/// The observability flags `observe_from_args` reads.
const OBSERVE: [&str; 2] = ["profile", "trace"];
/// The flags `fds` and `resume` both read.
const MINE: &[&[&str]] = &[&["algo", "save"], &BUDGET, &CHECKPOINT, &OBSERVE];

/// The flags each command reads; any other flag is a usage error.
const COMMAND_FLAGS: &[(&str, &[&[&str]])] = &[
    ("fds", MINE),
    ("resume", MINE),
    ("armstrong", &[&["synthetic", "output"], &BUDGET]),
    ("keys", &[]),
    ("approx", &[&["epsilon"], &BUDGET, &CHECKPOINT]),
    ("normalize", &[]),
    ("inds", &[]),
    ("describe", &[]),
    ("report", &[]),
    ("design", &[&["output"]]),
    ("prove", &[&["goal"]]),
    ("generate", &[&["attrs", "rows", "correlation", "seed"]]),
];

/// Parsed option list: `--key value` flags, `--flag` booleans, positionals.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positionals: Vec<String>,
}

/// Flags that take no value, per subcommand namespace.
const BOOLEAN_FLAGS: &[&str] = &["synthetic", "trace"];

impl Args {
    fn parse(args: &[String]) -> Result<Args, CliError> {
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&name) {
                    flags.push((name.to_string(), None));
                } else {
                    let v = it
                        .next()
                        .ok_or_else(|| usage_err(format!("--{name} needs a value")))?;
                    flags.push((name.to_string(), Some(v.clone())));
                }
            } else {
                positionals.push(a.clone());
            }
        }
        Ok(Args { flags, positionals })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == name)
    }

    /// Refuses the first flag that `cmd`'s row of [`COMMAND_FLAGS`] does
    /// not list; a command without a row takes any flags.
    fn check_flags(&self, cmd: &str) -> Result<(), CliError> {
        let Some((_, groups)) = COMMAND_FLAGS.iter().find(|(c, _)| *c == cmd) else {
            return Ok(());
        };
        match self
            .flags
            .iter()
            .find(|(k, _)| !groups.iter().any(|g| g.contains(&k.as_str())))
        {
            Some((k, _)) => Err(usage_err(format!("{cmd} does not accept --{k}"))),
            None => Ok(()),
        }
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| usage_err(format!("invalid value for --{name}: {v}"))),
        }
    }

    fn single_file(&self) -> Result<&str, CliError> {
        match self.positionals.as_slice() {
            [f] => Ok(f),
            [] => Err(usage_err("missing input file")),
            _ => Err(usage_err("expected exactly one input file")),
        }
    }
}

fn load(path: &str) -> Result<Relation, CliError> {
    csv::read_csv_file(path).map_err(|e| run_err(format!("cannot read {path}: {e}")))
}

/// Runs the CLI. `args` excludes the program name. Output goes to `out`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    let (cmd, rest) = match args.split_first() {
        None => {
            write!(out, "{USAGE}").map_err(io)?;
            return Err(usage_err("missing command"));
        }
        Some((c, rest)) => (c.as_str(), rest),
    };
    let parsed = Args::parse(rest)?;
    parsed.check_flags(cmd)?;
    match cmd {
        "help" | "--help" | "-h" => {
            write!(out, "{USAGE}").map_err(io)?;
            Ok(())
        }
        "fds" => cmd_fds(&parsed, out),
        "resume" => cmd_resume(&parsed, out),
        "armstrong" => cmd_armstrong(&parsed, out),
        "keys" => cmd_keys(&parsed, out),
        "approx" => cmd_approx(&parsed, out),
        "normalize" => cmd_normalize(&parsed, out),
        "inds" => cmd_inds(&parsed, out),
        "describe" => cmd_describe(&parsed, out),
        "report" => cmd_report(&parsed, out),
        "design" => cmd_design(&parsed, out),
        "prove" => cmd_prove(&parsed, out),
        "generate" => cmd_generate(&parsed, out),
        other => Err(usage_err(format!("unknown command: {other}\n{USAGE}"))),
    }
}

fn cmd_fds(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let file = args.single_file()?;
    let r = load(file)?;
    let algo = args.get("algo").unwrap_or("depminer");
    let observe = observe_from_args(args);
    let budget = budget_from_args(args)?;
    let policy = snapshot_policy_from_args(args)?;
    let registry = MinerRegistry::standard();
    // A budget, an observer, a checkpoint dir or the all-miners mode each
    // need a live token, so any of them routes through the governed path.
    let governed = budget.is_some() || observe.obs.enabled() || policy.is_some() || algo == "all";
    let session = Session::new(SessionCtx::new(
        &r,
        budget.unwrap_or_else(Budget::unlimited),
        observe.obs.clone(),
        policy,
    ));
    let outcome = if algo == "all" {
        session
            .run_all(&registry)
            .map_err(|e| run_err(e.to_string()))?
    } else {
        match registry.by_cli_name(algo).filter(|e| e.fds_algo) {
            Some(entry) if !governed || entry.governed => {
                session.run(entry.instantiate().as_ref())
            }
            _ if governed => {
                return Err(usage_err(format!(
                "--timeout/--max-couples/--max-memory/--profile/--trace/--checkpoint-dir are not supported with --algo {algo}"
            )))
            }
            _ => return Err(usage_err(format!("unknown --algo: {algo}"))),
        }
    };
    // r̂ lives in the session: free it before the FD text renders.
    drop(session);
    let header = format!(
        "# {} minimal non-trivial FDs in {file} ({} tuples, {} attributes), algo = {algo}{}",
        outcome.result.len(),
        r.len(),
        r.arity(),
        partial_suffix(&outcome)
    );
    emit_outcome(&outcome, &header, &r, args.get("save"), &observe, out)
}

/// The snapshot algorithm ids actually stored in a checkpoint
/// directory's frames (unreadable frames are named by file), so resume
/// errors can say what is really there.
fn frame_algos(dir: &str) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut algos: Vec<String> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
        .map(|p| match read_snapshot(&p) {
            Ok(snap) => snap.algo,
            Err(_) => format!(
                "{} (unreadable)",
                p.file_name().unwrap_or_default().to_string_lossy()
            ),
        })
        .collect();
    algos.sort();
    algos
}

/// Finds the snapshot file to resume from: `<dir>/<algo-id>.snap` when
/// the frame algorithm is unambiguous, otherwise requires `--algo`. The
/// `--algo` spellings and their frame ids come from the registry, and
/// failures report the algorithm ids actually stored in the directory.
fn locate_snapshot(
    args: &Args,
    dir: &str,
    registry: &MinerRegistry,
) -> Result<std::path::PathBuf, CliError> {
    if let Some(algo) = args.get("algo") {
        let Some(entry) = registry.by_cli_name(algo).filter(|e| e.governed) else {
            let names: Vec<&str> = registry
                .entries()
                .iter()
                .filter(|e| e.governed)
                .map(|e| e.cli_name)
                .collect();
            let stored = frame_algos(dir);
            let hint = if stored.is_empty() {
                String::new()
            } else {
                format!("; {dir} holds: {}", stored.join(", "))
            };
            return Err(usage_err(format!(
                "unknown --algo for resume: {algo} (expected {}{hint})",
                names.join("|")
            )));
        };
        let path = std::path::Path::new(dir).join(format!("{}.snap", entry.algo_id));
        if !path.exists() {
            let stored = frame_algos(dir);
            let hint = if stored.is_empty() {
                "the directory holds no frames".to_string()
            } else {
                format!("the directory holds frames for: {}", stored.join(", "))
            };
            return Err(run_err(format!(
                "no {}.snap in {dir}; {hint}",
                entry.algo_id
            )));
        }
        return Ok(path);
    }
    let mut snaps: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| run_err(format!("cannot read checkpoint dir {dir}: {e}")))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
        .collect();
    snaps.sort();
    match snaps.len() {
        0 => Err(run_err(format!(
            "no .snap file in {dir}; nothing to resume"
        ))),
        1 => Ok(snaps.remove(0)),
        _ => Err(usage_err(format!(
            "{dir} holds {} snapshots ({}); pick one with --algo",
            snaps.len(),
            frame_algos(dir).join(", ")
        ))),
    }
}

fn cmd_resume(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = args
        .get("checkpoint-dir")
        .ok_or_else(|| usage_err("resume requires --checkpoint-dir <dir>"))?
        .to_string();
    let r = load(args.single_file()?)?;
    let observe = observe_from_args(args);
    let budget = budget_from_args(args)?.unwrap_or_else(Budget::unlimited);
    // Re-arm the same directory so the resumed run keeps checkpointing
    // (and can itself be resumed if it trips again).
    let policy = snapshot_policy_from_args(args)?;
    let registry = MinerRegistry::standard();

    let path = locate_snapshot(args, &dir, &registry)?;
    let snap: Snapshot = read_snapshot(&path).map_err(snapshot_err)?;
    let algo = snap.algo.clone();
    // The registry reconstructs the exact miner configuration the frame
    // was written by (or refuses, naming the ids this build knows).
    let miner = registry.from_frame(&snap).map_err(snapshot_err)?;
    let session = Session::new(SessionCtx::new(&r, budget, observe.obs.clone(), policy));
    let outcome = session
        .resume(miner.as_ref(), &snap)
        .map_err(snapshot_err)?;
    drop(session);
    let header = match &outcome.result {
        Emitted::ApproxFds { epsilon, .. } => format!(
            "# resumed {algo} from {}: {} minimal approximate FDs with g3 <= {epsilon}{}",
            path.display(),
            outcome.result.len(),
            partial_suffix(&outcome)
        ),
        Emitted::Fds(_) => format!(
            "# resumed {algo} from {}: {} minimal non-trivial FDs in {} ({} tuples, {} attributes){}",
            path.display(),
            outcome.result.len(),
            args.single_file()?,
            r.len(),
            r.arity(),
            partial_suffix(&outcome)
        ),
    };
    emit_outcome(&outcome, &header, &r, args.get("save"), &observe, out)
}

fn cmd_armstrong(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    let r = load(args.single_file()?)?;
    // One token spans mining AND generation so --timeout bounds the whole
    // command; a trip in either half exits with code 3. The generator
    // needs the full MiningResult (its max sets), which the engine's
    // Emitted elides, so Dep-Miner's core runs on the session's r̂.
    let budget = budget_from_args(args)?.unwrap_or_else(Budget::unlimited);
    let session = Session::new(SessionCtx::new(&r, budget, Obs::none(), None));
    let token = session.ctx().token().clone();
    let outcome = DepMiner::new().mine_db_governed(session.ctx().db(), &token, None);
    drop(session);
    if let Some(why) = outcome.interrupted.clone() {
        writeln!(
            out,
            "# budget exhausted while mining; no Armstrong relation"
        )
        .map_err(io)?;
        return Err(report_interrupted(&outcome, &why, out));
    }
    let result = outcome.result;
    let arm = if args.has("synthetic") {
        match result.synthetic_armstrong_governed(&token) {
            Ok(arm) => arm,
            Err(why) => return Err(budget_err(&why)),
        }
    } else {
        match result.real_world_armstrong_governed(&r, &token) {
            Ok(built) => built.map_err(|e| run_err(format!("{e}; retry with --synthetic")))?,
            Err(why) => return Err(budget_err(&why)),
        }
    };
    writeln!(
        out,
        "# Armstrong relation: {} tuples (input had {}), satisfies exactly the {} discovered FDs",
        arm.len(),
        r.len(),
        result.fds.len()
    )
    .map_err(io)?;
    match args.get("output") {
        Some(path) => {
            csv::write_csv_file(&arm, path)
                .map_err(|e| run_err(format!("cannot write {path}: {e}")))?;
            writeln!(out, "# written to {path}").map_err(io)?;
        }
        None => {
            write!(out, "{arm}").map_err(io)?;
        }
    }
    Ok(())
}

fn cmd_keys(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    let r = load(args.single_file()?)?;
    // Keys are the transversals of the maximal agree sets' complements,
    // so they need ag(r) from r̂ and none of the per-attribute FD work.
    let ag = agree_sets(
        &StrippedPartitionDb::from_relation(&r),
        AgreeSetStrategy::EquivalenceClasses,
    );
    let keys = candidate_keys_from_agree_sets(&ag);
    writeln!(out, "# {} candidate key(s)", keys.len()).map_err(io)?;
    for k in keys {
        writeln!(out, "{}", r.schema().format_set(k)).map_err(io)?;
    }
    Ok(())
}

fn cmd_approx(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let epsilon: f64 = args
        .get_parsed("epsilon")?
        .ok_or_else(|| usage_err("approx requires --epsilon <e>"))?;
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(usage_err("--epsilon must be in [0, 1]"));
    }
    let r = load(args.single_file()?)?;
    let budget = budget_from_args(args)?;
    let policy = snapshot_policy_from_args(args)?;
    // approx has no observability flags; the setup is inert and only
    // satisfies the shared reporting tail.
    let observe = ObserveSetup {
        obs: Obs::none(),
        profile: None,
    };
    let session = Session::new(SessionCtx::new(
        &r,
        budget.unwrap_or_else(Budget::unlimited),
        Obs::none(),
        policy,
    ));
    let outcome = session.run(&ApproxMiner { epsilon });
    drop(session);
    let header = format!(
        "# {} minimal approximate FDs with g3 <= {epsilon}{}",
        outcome.result.len(),
        partial_suffix(&outcome)
    );
    emit_outcome(&outcome, &header, &r, None, &observe, out)
}

fn cmd_normalize(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    let r = load(args.single_file()?)?;
    let schema = r.schema().clone();
    let result = DepMiner::new().mine(&r);
    let cover = canonical_cover(&result.fds);
    writeln!(out, "# canonical cover ({} FDs):", cover.len()).map_err(io)?;
    for fd in &cover {
        writeln!(out, "  {}", fd.named(&schema)).map_err(io)?;
    }
    let keys = candidate_keys(&cover, r.arity());
    writeln!(out, "# candidate keys:").map_err(io)?;
    for k in &keys {
        writeln!(out, "  {}", schema.format_set(*k)).map_err(io)?;
    }
    if is_bcnf(schema.all_attrs(), &cover) {
        writeln!(out, "# schema is in BCNF; no decomposition needed").map_err(io)?;
    } else {
        writeln!(out, "# schema is NOT in BCNF; 3NF synthesis:").map_err(io)?;
        for frag in synthesize_3nf(&cover, &keys) {
            writeln!(
                out,
                "  {} ({} local FDs)",
                schema.format_set(frag.attrs),
                frag.local_fds.len()
            )
            .map_err(io)?;
        }
    }
    Ok(())
}

fn cmd_inds(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    if args.positionals.is_empty() {
        return Err(usage_err("inds requires at least one input file"));
    }
    let relations: Vec<(String, depminer_relation::Relation)> = args
        .positionals
        .iter()
        .map(|p| load(p).map(|r| (p.clone(), r)))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&depminer_relation::Relation> = relations.iter().map(|(_, r)| r).collect();
    let inds = depminer_ind::unary_inds(&refs);
    let named: Vec<(&str, &depminer_relation::Relation)> =
        relations.iter().map(|(n, r)| (n.as_str(), r)).collect();
    writeln!(out, "# {} unary inclusion dependencies", inds.len()).map_err(io)?;
    for ind in &inds {
        writeln!(out, "{}", ind.display_with(&named)).map_err(io)?;
    }
    let (classes, edges) = depminer_ind::transitive_reduction(&inds);
    if !edges.is_empty() {
        writeln!(out, "# Hasse diagram ({} classes):", classes.len()).map_err(io)?;
        let fmt_class = |i: usize| {
            classes[i]
                .iter()
                .map(|c| {
                    let (n, r) = named[c.relation];
                    format!("{n}[{}]", r.schema().name(c.attribute))
                })
                .collect::<Vec<_>>()
                .join(" = ")
        };
        for (i, j) in edges {
            writeln!(out, "  {} < {}", fmt_class(i), fmt_class(j)).map_err(io)?;
        }
    }
    Ok(())
}

fn cmd_describe(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    let r = load(args.single_file()?)?;
    let stats = depminer_relation::column_stats(&r);
    write!(out, "{}", depminer_relation::render_stats(&stats, r.len())).map_err(io)
}

fn cmd_report(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    let path = args.single_file()?;
    let r = load(path)?;
    let schema = r.schema().clone();
    writeln!(out, "# Profiling report for {path}\n").map_err(io)?;

    writeln!(out, "## Column statistics").map_err(io)?;
    let stats = depminer_relation::column_stats(&r);
    write!(out, "{}", depminer_relation::render_stats(&stats, r.len())).map_err(io)?;

    let result = DepMiner::new().mine(&r);
    writeln!(
        out,
        "\n## Minimal functional dependencies ({})",
        result.fds.len()
    )
    .map_err(io)?;
    for fd in &result.fds {
        writeln!(out, "  {}", fd.named(&schema)).map_err(io)?;
    }

    let keys = result.candidate_keys();
    writeln!(out, "\n## Candidate keys ({})", keys.len()).map_err(io)?;
    for k in &keys {
        writeln!(out, "  {}", schema.format_set(*k)).map_err(io)?;
    }

    writeln!(out, "\n## Armstrong sample").map_err(io)?;
    match result.real_world_armstrong(&r) {
        Ok(arm) => {
            writeln!(out, "  {} tuples (input: {}):", arm.len(), r.len()).map_err(io)?;
            for line in arm.to_string().lines() {
                writeln!(out, "  {line}").map_err(io)?;
            }
        }
        Err(e) => writeln!(out, "  unavailable: {e}").map_err(io)?,
    }

    writeln!(out, "\n## Normalization").map_err(io)?;
    let cover = canonical_cover(&result.fds);
    if is_bcnf(schema.all_attrs(), &cover) {
        writeln!(out, "  schema is in BCNF").map_err(io)?;
    } else {
        writeln!(out, "  schema is NOT in BCNF; 3NF synthesis:").map_err(io)?;
        let cover_keys = candidate_keys(&cover, r.arity());
        for frag in synthesize_3nf(&cover, &cover_keys) {
            writeln!(out, "    {}", schema.format_set(frag.attrs)).map_err(io)?;
        }
    }
    Ok(())
}

/// Reads an FD file in the [`fdfile`] format.
fn read_fd_file(path: &str) -> Result<(Schema, Vec<Fd>), CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| run_err(format!("cannot read {path}: {e}")))?;
    fdfile::parse(&text).map_err(|m| run_err(format!("{path}: {m}")))
}

fn cmd_design(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    let (schema, fds) = read_fd_file(args.single_file()?)?;
    let arm = armstrong_for_fds_with_schema(&fds, &schema);
    writeln!(
        out,
        "# Armstrong relation for {} FD(s): {} tuples satisfying exactly their consequences",
        fds.len(),
        arm.len()
    )
    .map_err(io)?;
    match args.get("output") {
        Some(path) => {
            csv::write_csv_file(&arm, path)
                .map_err(|e| run_err(format!("cannot write {path}: {e}")))?;
            writeln!(out, "# written to {path}").map_err(io)?;
        }
        None => write!(out, "{arm}").map_err(io)?,
    }
    Ok(())
}

fn cmd_prove(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    let goal_txt = args
        .get("goal")
        .ok_or_else(|| usage_err("prove requires --goal \"X -> Y\""))?;
    let (schema, fds) = read_fd_file(args.single_file()?)?;
    let (lhs_txt, rhs_txt) = goal_txt
        .split_once("->")
        .ok_or_else(|| usage_err("goal must have the form \"X -> Y\""))?;
    let lhs = schema
        .attr_set(lhs_txt.split_whitespace())
        .map_err(|e| usage_err(e.to_string()))?;
    let rhs = schema
        .attr_set(rhs_txt.split_whitespace())
        .map_err(|e| usage_err(e.to_string()))?;
    match depminer_fdtheory::derive(&fds, lhs, rhs) {
        Some(proof) => {
            debug_assert_eq!(proof.check(&fds), Ok(()));
            writeln!(
                out,
                "# F |= {goal_txt}; derivation under Armstrong's axioms:"
            )
            .map_err(io)?;
            write!(out, "{}", proof.render()).map_err(io)?;
        }
        None => {
            writeln!(out, "# F does NOT imply {goal_txt}").map_err(io)?;
            // Show the counterexample relation: an Armstrong relation for F
            // violates every non-implied FD.
            writeln!(out, "# counterexample (Armstrong relation for F):").map_err(io)?;
            let arm = armstrong_for_fds_with_schema(&fds, &schema);
            write!(out, "{arm}").map_err(io)?;
        }
    }
    Ok(())
}

fn cmd_generate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| run_err(format!("write failed: {e}"));
    let n_attrs: usize = args
        .get_parsed("attrs")?
        .ok_or_else(|| usage_err("generate requires --attrs <n>"))?;
    let n_rows: usize = args
        .get_parsed("rows")?
        .ok_or_else(|| usage_err("generate requires --rows <n>"))?;
    let correlation: f64 = args.get_parsed("correlation")?.unwrap_or(0.0);
    let seed: u64 = args.get_parsed("seed")?.unwrap_or(0xEDB7_2000);
    let path = args.single_file()?;
    let r = SyntheticConfig {
        n_attrs,
        n_rows,
        correlation,
        seed,
    }
    .generate()
    .map_err(|e| usage_err(format!("generation failed: {e}")))?;
    csv::write_csv_file(&r, path).map_err(|e| run_err(format!("cannot write {path}: {e}")))?;
    writeln!(
        out,
        "# wrote {n_rows} tuples x {n_attrs} attributes (c = {correlation}, seed = {seed}) to {path}"
    )
    .map_err(io)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn tmp_csv(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join("depminer_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    const ZIP_CSV: &str = "city,zip\nLyon,69001\nLyon,69002\nParis,75001\n";

    #[test]
    fn help_prints_usage() {
        let out = run_cli(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("armstrong"));
    }

    #[test]
    fn missing_command_is_usage_error() {
        let err = run_cli(&[]).unwrap_err();
        assert_eq!(err.code, 2);
        let err = run_cli(&["frobnicate"]).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn fds_on_csv() {
        let path = tmp_csv("fds.csv", ZIP_CSV);
        let out = run_cli(&["fds", &path]).unwrap();
        assert!(out.contains("zip -> city"));
        assert!(!out.contains("city -> zip"));
        // every algorithm agrees
        for algo in ["depminer", "depminer2", "tane", "fdep", "naive"] {
            let o = run_cli(&["fds", "--algo", algo, &path]).unwrap();
            assert!(o.contains("zip -> city"), "algo {algo}");
        }
        let err = run_cli(&["fds", "--algo", "nope", &path]).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn fds_missing_file_is_runtime_error() {
        let err = run_cli(&["fds", "/nonexistent/x.csv"]).unwrap_err();
        assert_eq!(err.code, 1);
    }

    #[test]
    fn armstrong_to_stdout_and_file() {
        let path = tmp_csv("arm.csv", ZIP_CSV);
        let out = run_cli(&["armstrong", &path]).unwrap();
        assert!(out.contains("Armstrong relation"));
        assert!(out.contains("Lyon"));
        let outfile = tmp_csv("arm_out.csv", "");
        let out = run_cli(&["armstrong", "--output", &outfile, &path]).unwrap();
        assert!(out.contains("written to"));
        let written = std::fs::read_to_string(&outfile).unwrap();
        assert!(written.starts_with("city,zip"));
        // synthetic variant always exists
        let out = run_cli(&["armstrong", "--synthetic", &path]).unwrap();
        assert!(out.contains("Armstrong relation"));
    }

    #[test]
    fn keys_lists_candidate_keys() {
        let path = tmp_csv("keys.csv", ZIP_CSV);
        let out = run_cli(&["keys", &path]).unwrap();
        assert!(out.contains("{zip}"));
        assert!(
            !out.contains("{city, zip}"),
            "non-minimal key listed:\n{out}"
        );
    }

    #[test]
    fn approx_requires_epsilon() {
        let path = tmp_csv("approx.csv", ZIP_CSV);
        assert_eq!(run_cli(&["approx", &path]).unwrap_err().code, 2);
        assert_eq!(
            run_cli(&["approx", "--epsilon", "7", &path])
                .unwrap_err()
                .code,
            2
        );
        let out = run_cli(&["approx", "--epsilon", "0.5", &path]).unwrap();
        assert!(out.contains("g3 ="));
    }

    #[test]
    fn normalize_reports_cover_and_keys() {
        let path = tmp_csv(
            "norm.csv",
            "city,street,zip\nLyon,a,69001\nLyon,b,69002\nParis,a,75001\nParis,c,75002\n",
        );
        let out = run_cli(&["normalize", &path]).unwrap();
        assert!(out.contains("canonical cover"));
        assert!(out.contains("candidate keys"));
    }

    #[test]
    fn generate_roundtrip() {
        let outfile = tmp_csv("gen.csv", "");
        let out = run_cli(&[
            "generate",
            "--attrs",
            "4",
            "--rows",
            "50",
            "--correlation",
            "0.3",
            "--seed",
            "7",
            &outfile,
        ])
        .unwrap();
        assert!(out.contains("wrote 50 tuples"));
        let r = csv::read_csv_file(&outfile).unwrap();
        assert_eq!(r.len(), 50);
        assert_eq!(r.arity(), 4);
        // deterministic: regenerating with the same seed matches
        run_cli(&[
            "generate",
            "--attrs",
            "4",
            "--rows",
            "50",
            "--correlation",
            "0.3",
            "--seed",
            "7",
            &outfile,
        ])
        .unwrap();
        assert_eq!(csv::read_csv_file(&outfile).unwrap(), r);
        // missing required flags
        assert_eq!(run_cli(&["generate", &outfile]).unwrap_err().code, 2);
    }

    #[test]
    fn describe_prints_stats() {
        let path = tmp_csv("desc.csv", ZIP_CSV);
        let out = run_cli(&["describe", &path]).unwrap();
        assert!(out.contains("3 tuples"));
        assert!(out.contains("distinct"));
        assert!(out.contains("city"));
    }

    #[test]
    fn report_contains_all_sections() {
        let path = tmp_csv("report.csv", ZIP_CSV);
        let out = run_cli(&["report", &path]).unwrap();
        for section in [
            "Column statistics",
            "Minimal functional dependencies",
            "Candidate keys",
            "Armstrong sample",
            "Normalization",
        ] {
            assert!(out.contains(section), "missing section {section}:\n{out}");
        }
    }

    const FD_FILE: &str = "\
# a classic
attributes: city street zip
city street -> zip
zip -> city
";

    #[test]
    fn design_builds_armstrong_example() {
        let path = tmp_csv("design.txt", FD_FILE);
        let out = run_cli(&["design", &path]).unwrap();
        assert!(out.contains("Armstrong relation"));
        assert!(out.contains("city"));
        // and the example re-mines to an equivalent cover
        let outfile = tmp_csv("design_out.csv", "");
        run_cli(&["design", "--output", &outfile, &path]).unwrap();
        let r = csv::read_csv_file(&outfile).unwrap();
        let mined = depminer_fdtheory::mine_minimal_fds(&r);
        let (schema, fds) = depminer_fdtheory::fdfile::parse(FD_FILE).unwrap();
        assert_eq!(schema.arity(), 3);
        assert!(depminer_fdtheory::equivalent(&mined, &fds));
    }

    #[test]
    fn prove_derives_and_refutes() {
        let path = tmp_csv("prove.txt", FD_FILE);
        let out = run_cli(&["prove", "--goal", "city street -> city zip", &path]).unwrap();
        assert!(out.contains("derivation"));
        assert!(out.contains("transitivity") || out.contains("reflexivity"));
        let out = run_cli(&["prove", "--goal", "zip -> street", &path]).unwrap();
        assert!(out.contains("does NOT imply"));
        assert!(out.contains("counterexample"));
        assert_eq!(run_cli(&["prove", &path]).unwrap_err().code, 2);
    }

    #[test]
    fn fds_save_roundtrips_into_design() {
        // mine -> save as FD file -> design reproduces an equivalent example.
        let data = tmp_csv("save_in.csv", ZIP_CSV);
        let fdfile = tmp_csv("save_out.txt", "");
        let out = run_cli(&["fds", "--save", &fdfile, &data]).unwrap();
        assert!(out.contains("saved FD file"));
        let design_out = run_cli(&["design", &fdfile]).unwrap();
        assert!(design_out.contains("Armstrong relation"));
        let proof = run_cli(&["prove", "--goal", "zip -> city", &fdfile]).unwrap();
        assert!(proof.contains("derivation"));
    }

    #[test]
    fn fd_file_parse_errors() {
        let bad1 = tmp_csv("bad1.txt", "city street -> zip\n");
        assert_eq!(run_cli(&["design", &bad1]).unwrap_err().code, 1);
        let bad2 = tmp_csv("bad2.txt", "attributes: a b\na b c -> a\n");
        assert_eq!(run_cli(&["design", &bad2]).unwrap_err().code, 1);
        let bad3 = tmp_csv("bad3.txt", "attributes: a b\na b\n");
        assert_eq!(run_cli(&["design", &bad3]).unwrap_err().code, 1);
        // An FD line with no right-hand side is an error, not a dropped line.
        let bad4 = tmp_csv("bad4.txt", "attributes: a b c\na ->\nb -> c\n");
        assert_eq!(run_cli(&["design", &bad4]).unwrap_err().code, 1);
    }

    #[test]
    fn inds_across_files() {
        let customers = tmp_csv("ind_customers.csv", "id,zip\n1,10\n2,20\n3,30\n");
        let orders = tmp_csv("ind_orders.csv", "oid,customer\n100,1\n101,3\n");
        let out = run_cli(&["inds", &customers, &orders]).unwrap();
        assert!(out.contains("[customer]"), "missing FK IND:\n{out}");
        assert!(out.contains("⊆"));
        assert_eq!(run_cli(&["inds"]).unwrap_err().code, 2);
    }

    /// Like [`run_cli`] but keeps the captured output even when the
    /// command fails (budget-exhausted runs print partial results first).
    fn run_cli_capture(args: &[&str]) -> (String, Result<(), CliError>) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let res = run(&args, &mut out);
        (String::from_utf8(out).expect("utf8 output"), res)
    }

    #[test]
    fn budget_flags_pass_through_when_generous() {
        let path = tmp_csv("budget_ok.csv", ZIP_CSV);
        for algo in ["depminer", "depminer2", "tane", "fdep"] {
            let out = run_cli(&[
                "fds",
                "--algo",
                algo,
                "--timeout",
                "60",
                "--max-couples",
                "1000000",
                &path,
            ])
            .unwrap();
            assert!(out.contains("zip -> city"), "algo {algo}:\n{out}");
            assert!(!out.contains("PARTIAL"), "algo {algo}:\n{out}");
        }
        let out = run_cli(&["armstrong", "--timeout", "60", &path]).unwrap();
        assert!(out.contains("Armstrong relation"));
        let out = run_cli(&["approx", "--epsilon", "0.5", "--timeout", "60", &path]).unwrap();
        assert!(out.contains("g3 ="));
    }

    #[test]
    fn exhausted_budget_exits_with_code_3_and_diagnostics() {
        let path = tmp_csv("budget_trip.csv", ZIP_CSV);
        let (out, res) = run_cli_capture(&["fds", "--max-couples", "0", &path]);
        let err = res.unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("budget exhausted"), "{}", err.message);
        assert!(out.contains("PARTIAL"), "{out}");
        assert!(out.contains("run interrupted"), "{out}");
        assert!(out.contains("agree-sets"), "{out}");

        let (out, res) = run_cli_capture(&["armstrong", "--max-couples", "0", &path]);
        assert_eq!(res.unwrap_err().code, 3);
        assert!(out.contains("no Armstrong relation"), "{out}");

        let (_, res) = run_cli_capture(&[
            "approx",
            "--epsilon",
            "0.5",
            "--timeout",
            "0.000000001",
            &path,
        ]);
        assert_eq!(res.unwrap_err().code, 3);
    }

    #[test]
    fn budget_flag_validation() {
        let path = tmp_csv("budget_bad.csv", ZIP_CSV);
        // naive has no governed variant
        assert_eq!(
            run_cli(&["fds", "--algo", "naive", "--timeout", "60", &path])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&["fds", "--timeout", "abc", &path])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&["fds", "--timeout", "-1", &path])
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run_cli(&["fds", "--max-couples", "-1", &path])
                .unwrap_err()
                .code,
            2
        );
        for bad in ["abc", "0", "-1", "12t", "99999999999g"] {
            assert_eq!(
                run_cli(&["fds", "--max-memory", bad, &path])
                    .unwrap_err()
                    .code,
                2,
                "--max-memory {bad} must be a usage error"
            );
        }
    }

    /// Fresh per-test checkpoint directory (cleared of stale snapshots).
    fn tmp_ckpt_dir(name: &str) -> String {
        let dir = std::env::temp_dir().join("depminer_cli_tests").join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn timeout_zero_trips_at_first_checkpoint() {
        // `--timeout 0` is a legal budget, not a usage error: the run trips
        // at its first checkpoint and exits 3 with an empty-but-well-formed
        // partial result (header + diagnostics, zero FD lines).
        let path = tmp_csv("timeout_zero.csv", ZIP_CSV);
        for algo in ["depminer", "depminer2", "tane", "fdep"] {
            let (out, res) = run_cli_capture(&["fds", "--algo", algo, "--timeout", "0", &path]);
            let err = res.unwrap_err();
            assert_eq!(err.code, 3, "algo {algo}: {}", err.message);
            assert!(err.message.contains("budget exhausted"), "{}", err.message);
            assert!(
                out.contains("0 minimal non-trivial FDs"),
                "algo {algo}:\n{out}"
            );
            assert!(out.contains("[PARTIAL]"), "algo {algo}:\n{out}");
            assert!(out.contains("run interrupted"), "algo {algo}:\n{out}");
            assert!(!out.contains("->"), "algo {algo} leaked FD lines:\n{out}");
        }
        let (_, res) = run_cli_capture(&["approx", "--epsilon", "0.5", "--timeout", "0", &path]);
        assert_eq!(res.unwrap_err().code, 3);
    }

    #[test]
    fn checkpoint_then_resume_round_trip() {
        let path = tmp_csv("ckpt_roundtrip.csv", ZIP_CSV);
        let dir = tmp_ckpt_dir("roundtrip");
        let baseline = run_cli(&["fds", "--algo", "tane", &path]).unwrap();
        let baseline_fds: Vec<&str> = baseline.lines().filter(|l| !l.starts_with('#')).collect();

        // Trip at the first checkpoint; the pending level-0 snapshot is
        // flushed to <dir>/tane.snap on the way out.
        let (out, res) = run_cli_capture(&[
            "fds",
            "--algo",
            "tane",
            "--timeout",
            "0",
            "--checkpoint-dir",
            &dir,
            &path,
        ]);
        assert_eq!(res.unwrap_err().code, 3, "{out}");
        let snap_path = std::path::Path::new(&dir).join("tane.snap");
        assert!(snap_path.exists(), "no snapshot written to {dir}");

        // Resume without a budget: completes, matches the baseline FD set,
        // and deletes the consumed snapshot.
        let out = run_cli(&["resume", "--checkpoint-dir", &dir, &path]).unwrap();
        assert!(out.contains("resumed tane"), "{out}");
        assert!(!out.contains("PARTIAL"), "{out}");
        let resumed_fds: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(resumed_fds, baseline_fds, "resume diverged from baseline");
        assert!(!snap_path.exists(), "completed resume must delete snapshot");

        // Nothing left to resume now.
        assert_eq!(
            run_cli(&["resume", "--checkpoint-dir", &dir, &path])
                .unwrap_err()
                .code,
            1
        );
    }

    #[test]
    fn resume_flag_validation() {
        let path = tmp_csv("resume_usage.csv", ZIP_CSV);
        // --checkpoint-dir is mandatory for resume.
        assert_eq!(run_cli(&["resume", &path]).unwrap_err().code, 2);
        // --checkpoint-every / --checkpoint-interval need --checkpoint-dir.
        assert_eq!(
            run_cli(&["fds", "--checkpoint-every", "2", &path])
                .unwrap_err()
                .code,
            2
        );
        let dir = tmp_ckpt_dir("flag_validation");
        assert_eq!(
            run_cli(&[
                "fds",
                "--checkpoint-dir",
                &dir,
                "--checkpoint-every",
                "0",
                &path
            ])
            .unwrap_err()
            .code,
            2
        );
        assert_eq!(
            run_cli(&["resume", "--checkpoint-dir", &dir, "--algo", "nope", &path])
                .unwrap_err()
                .code,
            2
        );
    }

    #[test]
    fn corrupted_snapshot_is_refused_with_exit_4() {
        let path = tmp_csv("ckpt_corrupt.csv", ZIP_CSV);
        let dir = tmp_ckpt_dir("corrupt");
        let (_, res) = run_cli_capture(&[
            "fds",
            "--algo",
            "tane",
            "--timeout",
            "0",
            "--checkpoint-dir",
            &dir,
            &path,
        ]);
        assert_eq!(res.unwrap_err().code, 3);
        let snap_path = std::path::Path::new(&dir).join("tane.snap");
        let pristine = std::fs::read(&snap_path).unwrap();

        // A flipped byte anywhere must be caught by the CRC.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&snap_path, &flipped).unwrap();
        let err = run_cli(&["resume", "--checkpoint-dir", &dir, &path]).unwrap_err();
        assert_eq!(err.code, 4, "{}", err.message);
        assert!(err.message.contains("snapshot unusable"), "{}", err.message);

        // A truncated (torn) file likewise.
        std::fs::write(&snap_path, &pristine[..pristine.len() - 3]).unwrap();
        let err = run_cli(&["resume", "--checkpoint-dir", &dir, &path]).unwrap_err();
        assert_eq!(err.code, 4, "{}", err.message);

        // A snapshot taken for a different relation is a mismatch, not a
        // silent wrong answer.
        std::fs::write(&snap_path, &pristine).unwrap();
        let other = tmp_csv("ckpt_other.csv", "a,b\n1,1\n2,2\n3,3\n");
        let err = run_cli(&["resume", "--checkpoint-dir", &dir, &other]).unwrap_err();
        assert_eq!(err.code, 4, "{}", err.message);
    }

    #[test]
    fn max_memory_flag_caps_and_passes_through() {
        let path = tmp_csv("budget_mem.csv", ZIP_CSV);
        // Generous cap (suffixed form): run completes.
        for size in ["1g", "64M", "1048576"] {
            let out = run_cli(&["fds", "--algo", "tane", "--max-memory", size, &path]).unwrap();
            assert!(out.contains("zip -> city"), "size {size}:\n{out}");
            assert!(!out.contains("PARTIAL"), "size {size}:\n{out}");
        }
        // A relation whose level-2 partitions are non-empty (no 2-attribute
        // key), so TANE must charge owned partition storage: a 1-byte cap
        // trips even after the cache evicts everything dead, and the run
        // exits 3 with the level-1 partial result.
        let csv = "a,b,c\n1,1,1\n1,1,2\n2,2,1\n2,2,2\n3,3,1\n3,3,2\n";
        let path = tmp_csv("budget_mem_trip.csv", csv);
        let (out, res) = run_cli_capture(&["fds", "--algo", "tane", "--max-memory", "1", &path]);
        assert_eq!(res.unwrap_err().code, 3);
        assert!(out.contains("PARTIAL"), "{out}");
    }

    #[test]
    fn approx_max_memory_trips_with_valid_partial() {
        // The relation above: approximate TANE charges its level-2
        // partitions too, so a 1-byte cap trips after level 1.
        let csv = "a,b,c\n1,1,1\n1,1,2\n2,2,1\n2,2,2\n3,3,1\n3,3,2\n";
        let path = tmp_csv("approx_mem_trip.csv", csv);
        let full = run_cli(&["approx", "--epsilon", "0.01", &path]).unwrap();
        assert!(!full.contains("PARTIAL"), "{full}");
        let (out, res) =
            run_cli_capture(&["approx", "--epsilon", "0.01", "--max-memory", "1", &path]);
        assert_eq!(res.unwrap_err().code, 3);
        let header = out.lines().next().unwrap_or_default();
        assert!(
            header.starts_with("# ") && header.contains("[PARTIAL]"),
            "{out}"
        );
        // Every reported FD, error included, is in the unlimited run.
        let fds: Vec<&str> = out
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert!(!fds.is_empty(), "{out}");
        for line in fds {
            assert!(full.lines().any(|l| l == line), "{line:?} not in:\n{full}");
        }
    }

    #[test]
    fn fds_algo_all_agrees_with_single_miners() {
        let path = tmp_csv("all_algo.csv", ZIP_CSV);
        let out = run_cli(&["fds", "--algo", "all", &path]).unwrap();
        assert!(out.contains("zip -> city"), "{out}");
        assert!(out.contains("algo = all"), "{out}");
        assert!(!out.contains("PARTIAL"), "{out}");
    }

    #[test]
    fn profile_flag_writes_validating_span_tree() {
        let path = tmp_csv("profile_in.csv", ZIP_CSV);
        let profile_out = tmp_csv("profile_out.json", "");
        let out = run_cli(&["fds", "--algo", "all", "--profile", &profile_out, &path]).unwrap();
        assert!(out.contains("profile written to"), "{out}");
        let text = std::fs::read_to_string(&profile_out).unwrap();
        // Every stage of all three miners shows up and the tree validates.
        // Only FDEP's configuration, Algorithm 3 on the Berge engine,
        // opens the last two.
        let required = [
            "depminer",
            "agree-sets",
            "max-sets",
            "transversals",
            "tane",
            "tane-levels",
            "agree-sets/ec",
            "transversals/berge",
        ];
        let names =
            depminer_govern::observe::profile::validate_profile_json(&text, &required).unwrap();
        assert!(names.contains(&"agree-sets".to_string()));
        // Counters made it into the export.
        assert!(text.contains("fd_emissions"), "{text}");
        assert!(text.contains("couples_scanned"), "{text}");
    }

    #[test]
    fn profile_with_single_algo_covers_its_stages() {
        let path = tmp_csv("profile_single.csv", ZIP_CSV);
        let profile_out = tmp_csv("profile_single_out.json", "");
        run_cli(&["fds", "--profile", &profile_out, &path]).unwrap();
        let text = std::fs::read_to_string(&profile_out).unwrap();
        let required = ["depminer", "agree-sets", "max-sets", "transversals"];
        depminer_govern::observe::profile::validate_profile_json(&text, &required).unwrap();
    }

    #[test]
    fn trace_flag_is_boolean_and_accepted() {
        // --trace streams to stderr (not captured here); the command must
        // still succeed and --trace must not swallow the file positional.
        let path = tmp_csv("trace_in.csv", ZIP_CSV);
        let out = run_cli(&["fds", "--trace", &path]).unwrap();
        assert!(out.contains("zip -> city"), "{out}");
    }

    #[test]
    fn profile_rejected_for_naive_algo() {
        let path = tmp_csv("profile_naive.csv", ZIP_CSV);
        let profile_out = tmp_csv("profile_naive_out.json", "");
        let err =
            run_cli(&["fds", "--algo", "naive", "--profile", &profile_out, &path]).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn flag_parsing_edge_cases() {
        assert_eq!(run_cli(&["fds", "--algo"]).unwrap_err().code, 2);
        assert_eq!(run_cli(&["fds"]).unwrap_err().code, 2);
        assert_eq!(run_cli(&["fds", "a.csv", "b.csv"]).unwrap_err().code, 2);
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        let path = tmp_csv("unknown_flags.csv", ZIP_CSV);
        // A misspelt --timeout must not mine with no budget at all.
        let err = run_cli(&["fds", "--timout", "0", &path]).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
        assert!(err.message.contains("--timout"), "{}", err.message);
        // keys reads no budget, so a cap there would be silently ignored.
        let err = run_cli(&["keys", "--max-couples", "1", &path]).unwrap_err();
        assert_eq!(err.code, 2, "{}", err.message);
        assert!(err.message.contains("--max-couples"), "{}", err.message);
    }
}
