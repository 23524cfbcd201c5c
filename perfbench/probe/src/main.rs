//! The in-process half of the CLI-path benchmark. `perfbench/README.md`
//! describes the benchmark, and `perfbench/run.py` drives this binary.
//!
//! ```text
//! perfbench-probe gen --attrs <n> --rows <n> --correlation <c> --seed <s> --out <file.csv>
//! perfbench-probe exec --out <file> --err <file> -- <program> [<arg>...]
//! perfbench-probe reference --epsilon <e> --out <fds.txt> <file.csv>
//! perfbench-probe trace --epsilon <e> --reps <n> --scratch <dir> <file.csv>
//! ```
//!
//! Each command prints one JSON object on stdout. Every timing is an
//! `Instant` pair around one call: a child process for `exec`, one public
//! function of a crate for `trace`. None comes from spans inside the
//! program. Thread counts follow `DEPMINER_THREADS`, which `run.py` sets
//! to 1.

use depminer_core::{
    agree_sets_governed, cmax_sets_with, left_hand_sides_governed, AgreeSetStrategy,
    TransversalEngine,
};
use depminer_engine::{ApproxMiner, Emitted, Miner, MinerRegistry, Session, SessionCtx};
use depminer_fdep::Fdep;
use depminer_fdtheory::Fd;
use depminer_govern::observe::profile::ProfileSink;
use depminer_govern::snapshot::read_snapshot;
use depminer_govern::{Budget, CancelToken, Obs, SnapshotPolicy};
use depminer_relation::{
    csv, Parallelism, Prng, Relation, Schema, StrippedPartitionDb, SyntheticConfig,
};
use depminer_tane::{approximate_fds, ApproxFd, Tane, TANE_ALGO};
use std::collections::BTreeMap;
use std::fs::File;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench-probe reads `struct rusage` as laid out on 64-bit Linux");

type Res<T> = Result<T, String>;

/// The generator seed of the one relation every `--seed` of a workload
/// permutes. Each seed thus poses the same mining problem, and the
/// spread between seeds measures the program and the host, not the input.
const RELATION_SEED: u64 = 0xEDB7_2000;

/// The CLI's mining commands: `fds --algo <name>` for the exact miners,
/// then `approx`.
const MINERS: [&str; 5] = ["depminer", "depminer2", "tane", "fdep", "approx"];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command: Option<fn(&Args) -> Res<String>> = match argv.first().map(String::as_str) {
        Some("gen") => Some(cmd_gen),
        Some("exec") => Some(cmd_exec),
        Some("reference") => Some(cmd_reference),
        Some("trace") => Some(cmd_trace),
        _ => None,
    };
    let result = match command {
        Some(run) => Args::parse(&argv[1..]).and_then(|args| run(&args)),
        None => Err("usage: perfbench-probe gen|exec|reference|trace <options>".into()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            std::process::exit(1);
        }
    }
}

/// `--key value` options and positionals; everything after `--` is
/// positional.
struct Args {
    options: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Res<Args> {
        let mut options = Vec::new();
        let mut positionals = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if arg == "--" {
                positionals.extend(it.by_ref().cloned());
                break;
            }
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    options.push((key.to_string(), value.clone()));
                }
                None => positionals.push(arg.clone()),
            }
        }
        Ok(Args {
            options,
            positionals,
        })
    }

    fn get(&self, key: &str) -> Res<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or(format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Res<T> {
        let v = self.get(key)?;
        v.parse().map_err(|_| format!("invalid --{key}: {v}"))
    }

    fn file(&self) -> Res<&str> {
        match self.positionals.as_slice() {
            [f] => Ok(f),
            _ => Err("expected exactly one input file".into()),
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn load(path: &str) -> Res<Relation> {
    csv::read_csv_file(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The miner a CLI mining command runs.
fn miner(name: &str, epsilon: f64) -> Box<dyn Miner> {
    match name {
        "approx" => Box::new(ApproxMiner { epsilon }),
        _ => MinerRegistry::standard()
            .by_cli_name(name)
            .expect("MINERS holds registry names")
            .instantiate(),
    }
}

/// The FD lines `fds` prints after its header.
fn render(fds: &[Fd], schema: &Schema) -> String {
    let mut text = String::new();
    for fd in fds {
        text.push_str(&fd.display_with(schema));
        text.push('\n');
    }
    text
}

/// The lines `approx` prints after its header.
fn render_approx(fds: &[ApproxFd], schema: &Schema) -> String {
    fds.iter()
        .map(|a| format!("{:<40} g3 = {:.4}\n", a.fd.display_with(schema), a.error))
        .collect()
}

fn sorted(fds: &[Fd]) -> Vec<Fd> {
    let mut fds = fds.to_vec();
    fds.sort();
    fds
}

/// `a` relative to `b`, as a signed percentage.
fn pct(a: f64, b: f64) -> f64 {
    (a / b - 1.0) * 100.0
}

fn fresh_dir(dir: &Path) -> Res<PathBuf> {
    // A leftover directory from an earlier run may or may not exist.
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

fn json_object(values: &BTreeMap<String, f64>) -> Res<String> {
    let mut fields = Vec::new();
    for (name, v) in values {
        if !v.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        fields.push(format!("\"{name}\": {v}"));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// `0..n` in an order drawn from `rng` (Fisher–Yates).
fn shuffled(n: usize, rng: &mut Prng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Writes the workload CSV: the §5.2 relation of `RELATION_SEED`, its rows
/// in an order drawn from `--seed`. Columns keep their order, and each
/// value is written as its column's dense code.
fn cmd_gen(a: &Args) -> Res<String> {
    let r = SyntheticConfig {
        n_attrs: a.num("attrs")?,
        n_rows: a.num("rows")?,
        correlation: a.num("correlation")?,
        seed: RELATION_SEED,
    }
    .generate()
    .map_err(|e| e.to_string())?;
    let rows = shuffled(r.len(), &mut Prng::seed_from_u64(a.num("seed")?));
    let columns = (0..r.arity())
        .map(|c| rows.iter().map(|&t| r.column(c).code(t)).collect())
        .collect();
    let permuted =
        Relation::from_columns(r.schema().clone(), columns).map_err(|e| e.to_string())?;
    let out = a.get("out")?;
    csv::write_csv_file(&permuted, out).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "{{\"rows\": {}, \"attrs\": {}}}",
        r.len(),
        r.arity()
    ))
}

/// Runs one command with stdout and stderr sent to files and reports its
/// wall time, peak RSS and exit code. `run.py` starts children through
/// this small process because a child's peak RSS also counts the peak of
/// the process that spawned it, and this one stays a few MiB all its life.
fn cmd_exec(a: &Args) -> Res<String> {
    let (program, args) = a
        .positionals
        .split_first()
        .ok_or("exec needs a command after --")?;
    let create = |key: &str| -> Res<File> {
        let path = a.get(key)?;
        File::create(path).map_err(|e| format!("cannot create {path}: {e}"))
    };
    let (stdout, stderr) = (create("out")?, create("err")?);
    let start = Instant::now();
    let status = Command::new(program)
        .args(args)
        .stdout(stdout)
        .stderr(stderr)
        .status()
        .map_err(|e| format!("cannot run {program}: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    let code = status
        .code()
        .unwrap_or_else(|| -status.signal().unwrap_or(0));
    Ok(format!(
        "{{\"wall_s\": {wall}, \"peak_rss_kib\": {}, \"code\": {code}}}",
        children_peak_rss_kib()?
    ))
}

/// Linux's `struct rusage` on 64-bit targets: two `timeval`s, then
/// fourteen `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    other: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak RSS in KiB of the largest child this process has waited for.
fn children_peak_rss_kib() -> Res<i64> {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        other: [0; 13],
    };
    // SAFETY: `usage` is live and writable, and its layout is that of
    // `struct rusage` on 64-bit Linux (the only target this compiles for),
    // which is all getrusage writes.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    Ok(usage.maxrss)
}

/// The gate's reference: TANE's FD lines from an in-process `Session`,
/// and the count of `approximate_fds`.
fn cmd_reference(a: &Args) -> Res<String> {
    let r = load(a.file()?)?;
    let epsilon: f64 = a.num("epsilon")?;
    let tane = miner("tane", epsilon);
    let outcome = Session::new(SessionCtx::new(&r, Budget::unlimited(), Obs::none(), None))
        .run(tane.as_ref());
    let fds = outcome
        .result
        .exact_fds()
        .filter(|_| outcome.is_complete())
        .ok_or("the reference TANE session did not complete")?;
    let out = a.get("out")?;
    std::fs::write(out, render(fds, r.schema())).map_err(|e| format!("cannot write {out}: {e}"))?;
    let approx = approximate_fds(&r, epsilon).len();
    Ok(format!(
        "{{\"fds\": {}, \"approx_fds\": {approx}}}",
        fds.len()
    ))
}

/// What `trace` collects: timing samples, single values, and
/// disagreements with TANE's FD set.
#[derive(Default)]
struct Trace {
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
    problems: Vec<String>,
}

impl Trace {
    fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        self.samples.entry(name.into()).or_default().push(secs);
        out
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// The fastest sample: other tenants of a shared host only ever slow
    /// a call down. `run.py` reports the CLI's times the same way.
    fn min(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .into_iter()
            .flatten()
            .copied()
            .fold(f64::NAN, f64::min)
    }

    /// Times one `Session::run`, the call behind every CLI mining
    /// command; the session is built outside the timed call.
    fn session(
        &mut self,
        name: String,
        r: &Relation,
        m: &dyn Miner,
        budget: Budget,
        obs: Obs,
        policy: Option<SnapshotPolicy>,
    ) -> Res<Emitted> {
        let session = Session::new(SessionCtx::new(r, budget, obs, policy));
        let outcome = self.time(name, || session.run(m));
        match outcome.interrupted {
            None => Ok(outcome.result),
            Some(why) => Err(format!("{} session stopped: {why}", m.algo_id())),
        }
    }
}

/// The per-layer trace. Every call runs `--reps` times, interleaved so
/// drift hits them alike, and reports its fastest sample. Results that
/// disagree with TANE's are counted as problems and named on stderr.
fn cmd_trace(a: &Args) -> Res<String> {
    let path = a.file()?;
    let epsilon: f64 = a.num("epsilon")?;
    let reps = a.num::<usize>("reps")?.max(1);
    let scratch = Path::new(a.get("scratch")?);
    let miners: Vec<(&str, Box<dyn Miner>)> =
        MINERS.iter().map(|&n| (n, miner(n, epsilon))).collect();
    let mut t = Trace::default();
    let mut want: Vec<Fd> = Vec::new();
    for rep in 0..reps {
        let r = t.time("csv.load_s", || load(path))?;
        let db = t.time("spdb.build_s", || {
            StrippedPartitionDb::from_relation_with(&r, Parallelism::Auto)
        });
        let token = CancelToken::unlimited();
        let couples = AgreeSetStrategy::Couples { chunk_size: None };
        let (ag, _) = t.time("agree.couples_s", || {
            agree_sets_governed(&db, couples, Parallelism::Auto, &token)
        });
        t.set("agree.couples_scanned", token.couples() as f64);
        t.set(
            "agree.yield",
            ag.sets.len() as f64 / token.couples().max(1) as f64,
        );
        let ms = t.time("maxset.cmax_s", || cmax_sets_with(&ag, Parallelism::Auto));
        let token = CancelToken::unlimited();
        let (families, _) = t.time("transversal.levelwise_s", || {
            left_hand_sides_governed(&ms, TransversalEngine::Levelwise, Parallelism::Auto, &token)
        });
        let lhs: usize = families.iter().flatten().map(Vec::len).sum();
        t.set("transversal.candidates", token.candidates() as f64);
        t.set(
            "transversal.yield",
            lhs as f64 / token.candidates().max(1) as f64,
        );
        let tane = t.time("tane.run_db_s", || Tane::new().run_db(&db));
        t.set(
            "tane.partition_products",
            tane.stats.partition_products as f64,
        );
        t.set("tane.levels", tane.stats.levels as f64);
        let text = t.time("emit.render_s", || render(&tane.fds, r.schema()));
        t.set("emit.bytes", text.len() as f64);
        if rep == 0 {
            want = sorted(&tane.fds);
        }

        for (name, m) in &miners {
            let m = m.as_ref();
            let unlimited = Budget::unlimited();
            let key = format!("engine.session_s.{name}");
            let emitted = t.session(key, &r, m, unlimited, Obs::none(), None)?;
            match &emitted {
                Emitted::Fds(fds) => t.check(sorted(fds) == want, || {
                    format!("the {name} Session's FDs differ from TANE's")
                }),
                Emitted::ApproxFds { fds, .. } => {
                    t.time("emit.approx_render_s", || render_approx(fds, r.schema()));
                    let direct = t.time("approx.mine_s", || approximate_fds(&r, epsilon));
                    t.check(direct.len() == fds.len(), || {
                        "the approx Session and approximate_fds disagree".into()
                    });
                }
            }
            if matches!(*name, "depminer" | "tane") {
                let deadline = unlimited.with_timeout(Duration::from_secs(3600));
                let key = format!("govern.deadline_s.{name}");
                t.session(key, &r, m, deadline, Obs::none(), None)?;
            }
            if *name == "depminer" {
                let traced = Obs::new(Arc::new(ProfileSink::new()));
                let key = "observe.traced_s.depminer".to_string();
                t.session(key, &r, m, unlimited, traced, None)?;
            }
            if matches!(*name, "depminer" | "tane" | "fdep") {
                let dir = fresh_dir(&scratch.join(format!("armed-{name}")))?;
                let policy = SnapshotPolicy::new(dir).every_boundaries(1);
                let key = format!("snapshot.armed_total_s.{name}");
                t.session(key, &r, m, unlimited, Obs::none(), Some(policy))?;
            }
        }

        let token = CancelToken::unlimited();
        let ec_strategy = AgreeSetStrategy::EquivalenceClasses;
        let (ec, _) = t.time("agree.ec_s", || {
            agree_sets_governed(&db, ec_strategy, Parallelism::Auto, &token)
        });
        t.check(ec == ag, || {
            "Algorithm 3's agree sets differ from Algorithm 2's".into()
        });
        let fdep = t.time("fdep.run_s", || Fdep::new().run(&r));
        t.set("fdep.negative_cover_size", fdep.negative_cover_size as f64);
        t.check(sorted(&fdep.fds) == want, || {
            "Fdep::run's FDs differ from TANE's".into()
        });
        trace_resume(&mut t, &r, scratch, &want)?;
    }

    let mut values = t.values.clone();
    for name in t.samples.keys() {
        values.insert(name.clone(), t.min(name));
    }
    let min = |name: &str| t.min(name);
    for name in ["depminer", "tane"] {
        values.insert(
            format!("govern.deadline_overhead_pct.{name}"),
            pct(
                min(&format!("govern.deadline_s.{name}")),
                min(&format!("engine.session_s.{name}")),
            ),
        );
    }
    values.insert(
        "observe.trace_overhead_pct".into(),
        pct(
            min("observe.traced_s.depminer"),
            min("engine.session_s.depminer"),
        ),
    );
    for name in ["depminer", "tane", "fdep"] {
        values.insert(
            format!("snapshot.armed_s.{name}"),
            min(&format!("snapshot.armed_total_s.{name}"))
                - min(&format!("engine.session_s.{name}")),
        );
    }
    let depminer_layers: f64 = [
        "spdb.build_s",
        "agree.couples_s",
        "maxset.cmax_s",
        "transversal.levelwise_s",
    ]
    .into_iter()
    .map(min)
    .sum();
    values.insert(
        "layersum.gap_pct.depminer".into(),
        pct(depminer_layers, min("engine.session_s.depminer")),
    );
    values.insert(
        "layersum.gap_pct.tane".into(),
        pct(
            min("spdb.build_s") + min("tane.run_db_s"),
            min("engine.session_s.tane"),
        ),
    );
    for problem in &t.problems {
        eprintln!("perfbench-probe: {problem}");
    }
    Ok(format!(
        "{{\"problems\": {}, \"metrics\": {}}}",
        t.problems.len(),
        json_object(&values)?
    ))
}

/// Trips a TANE session at its first checkpoint with snapshots armed,
/// then times `Session::resume` from the frame the trip left.
fn trace_resume(t: &mut Trace, r: &Relation, scratch: &Path, want: &[Fd]) -> Res<()> {
    let dir = fresh_dir(&scratch.join("resume"))?;
    let tane = miner("tane", 0.0);
    let zero = Budget::unlimited().with_timeout(Duration::ZERO);
    let policy = SnapshotPolicy::new(&dir);
    let trip = Session::new(SessionCtx::new(r, zero, Obs::none(), Some(policy))).run(tane.as_ref());
    t.check(!trip.is_complete(), || {
        "a zero-timeout TANE session did not trip".into()
    });
    let frame = dir.join(format!("{TANE_ALGO}.snap"));
    let bytes = std::fs::metadata(&frame)
        .map_err(|e| format!("no frame at {}: {e}", frame.display()))?
        .len();
    t.set("snapshot.frame_bytes.tane", bytes as f64);
    let snap = read_snapshot(&frame).map_err(|e| e.to_string())?;
    let resumed = MinerRegistry::standard()
        .from_frame(&snap)
        .map_err(|e| e.to_string())?;
    let session = Session::new(SessionCtx::new(r, Budget::unlimited(), Obs::none(), None));
    let outcome = t
        .time("snapshot.resume_s.tane", || {
            session.resume(resumed.as_ref(), &snap)
        })
        .map_err(|e| e.to_string())?;
    let same =
        outcome.is_complete() && outcome.result.exact_fds().map(sorted).as_deref() == Some(want);
    t.check(same, || {
        "the resumed TANE session differs from the uninterrupted run".into()
    });
    Ok(())
}
