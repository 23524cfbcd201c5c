//! Overhead benchmark for the layers a governed run passes through:
//! governance checkpoints, a disabled observer, snapshot policies, and
//! the `depminer-engine` `Session` driver (DESIGN.md §9.1, §10.2, §12.3,
//! §13).
//!
//! Dep-Miner and TANE mine one Table-2 synthetic workload (|R| = 20,
//! |r| = 100 000, correlation 0.5, seed 9) end to end in six
//! configurations, each building `r̂` inside its timed call as
//! `Session::run` does:
//!
//! * `bare` — the governed core on an unlimited token;
//! * `governed` — the core under a generous budget: deadline, couple and
//!   candidate caps all armed, none near tripping;
//! * `null_observer` — `governed` with a [`NullSink`] attached;
//! * `armed` — `governed` with a trip-only snapshot policy: every
//!   boundary offers a frame, none is written;
//! * `eager` — `governed` with a policy writing a frame at every boundary;
//! * `session` — `armed`, dispatched through `Session::run`.
//!
//! All twelve (miner, configuration) cells run interleaved in one
//! process, the order rotated by one cell each rep, so load drift on a
//! shared host lands on every cell alike. Each cell reports the median
//! and interquartile range of its reps. Each overhead compares medians
//! against the configuration the layer adds to, next to its noise (the
//! larger IQR of the two cells, as a percentage of its median) and its
//! target: governed vs bare (<2%), null observer vs governed (<1%),
//! armed vs bare (<2%), eager vs bare (no target: it bounds the densest
//! write cadence), session vs armed (<1%).
//!
//! ```text
//! cargo run --release -p depminer-bench --bin overhead   # writes BENCH_overhead.json
//! ```

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use depminer_bench::report::{Reporter, RunStamp};
use depminer_core::{DepMiner, Parallelism};
use depminer_engine::{Miner, Session, SessionCtx};
use depminer_govern::{Budget, CancelToken, SnapshotPolicy};
use depminer_observe::{NullSink, Obs};
use depminer_relation::{Relation, StrippedPartitionDb, SyntheticConfig};
use depminer_tane::Tane;

/// The one workload: Table 2's generator at |R| = 20, |r| = 100 000.
const WORKLOAD: SyntheticConfig = SyntheticConfig {
    n_attrs: 20,
    n_rows: 100_000,
    correlation: 0.5,
    seed: 9,
};

/// Fewer reps leave the quartiles too coarse for a 1% effect.
const REPS: usize = 21;

const ALGOS: [&str; 2] = ["depminer", "tane"];

const CONFIGS: [&str; 6] = [
    "bare",
    "governed",
    "null_observer",
    "armed",
    "eager",
    "session",
];

/// Each overhead: the configuration measured, the one its layer adds
/// to, and its target in percent.
const OVERHEADS: [(&str, &str, Option<f64>); 5] = [
    ("governed", "bare", Some(2.0)),
    ("null_observer", "governed", Some(1.0)),
    ("armed", "bare", Some(2.0)),
    ("eager", "bare", None),
    ("session", "armed", Some(1.0)),
];

/// One mine of `r` by `algo` in `config`; returns completion, which the
/// generous budget must always reach.
fn mine(algo: &str, config: &str, r: &Relation, dir: &Path) -> bool {
    // Every governor armed, none remotely close to tripping: checkpoints
    // pay full freight (deadline reads, counter updates).
    let budget = Budget::unlimited()
        .with_timeout(Duration::from_secs(3600))
        .with_max_couples(u64::MAX / 2)
        .with_max_candidates(u64::MAX / 2);
    let armed = || SnapshotPolicy::new(dir);
    let token = match config {
        "bare" => CancelToken::unlimited(),
        "governed" => budget.start(),
        "null_observer" => budget.start_observed(Obs::new(Arc::new(NullSink))),
        "armed" => budget.start().with_snapshots(armed()),
        "eager" => budget.start().with_snapshots(armed().every_boundaries(1)),
        _ => {
            let miner: Box<dyn Miner> = match algo {
                "depminer" => Box::new(DepMiner::new()),
                _ => Box::new(Tane::new()),
            };
            let ctx = SessionCtx::new(r, budget, Obs::none(), Some(armed()));
            return Session::new(ctx).run(miner.as_ref()).is_complete();
        }
    };
    let db = StrippedPartitionDb::from_relation(r);
    if algo == "depminer" {
        DepMiner::new()
            .mine_db_governed(&db, &token, None)
            .is_complete()
    } else {
        Tane::new().run_db_governed(&db, &token, None).is_complete()
    }
}

/// Median and interquartile range of one cell's samples, in seconds.
fn spread(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("wall-clock samples are finite"));
    // The `q`-quantile, interpolating between ranks.
    let quantile = |q: f64| {
        let pos = q * (samples.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
    };
    (quantile(0.5), quantile(0.75) - quantile(0.25))
}

fn main() {
    let r = WORKLOAD.generate().expect("valid generator parameters");
    let dir = Path::new("target/overhead_ckpt");
    std::fs::create_dir_all(dir).expect("create snapshot scratch dir");

    let reporter = Reporter::new("overhead", false);
    let threads = Parallelism::Auto.effective_threads();
    let stamp = RunStamp::capture(format!("auto ({threads})"));
    let SyntheticConfig {
        n_attrs,
        n_rows,
        correlation,
        seed,
    } = WORKLOAD;
    reporter.start(&format!(
        "|R|={n_attrs} |r|={n_rows} correlation={correlation} reps={REPS} threads={threads} \
         host_cpus={} rev={} dirty={}",
        stamp.host_cpus, stamp.git_rev, stamp.dirty
    ));

    let cells: Vec<(&str, &str)> = ALGOS
        .iter()
        .flat_map(|&algo| CONFIGS.iter().map(move |&config| (algo, config)))
        .collect();
    let mut samples = vec![Vec::with_capacity(REPS); cells.len()];
    for rep in 0..REPS {
        reporter.progress(&format!("rep {}/{REPS}", rep + 1));
        for k in 0..cells.len() {
            let i = (rep + k) % cells.len();
            let (algo, config) = cells[i];
            let t0 = Instant::now();
            assert!(
                mine(algo, config, &r, dir),
                "{algo} {config}: budget tripped"
            );
            samples[i].push(t0.elapsed().as_secs_f64());
        }
    }
    let spreads: Vec<(f64, f64)> = samples.into_iter().map(spread).collect();
    let cell = |algo: &str, config: &str| {
        spreads[cells
            .iter()
            .position(|&c| c == (algo, config))
            .expect("every cell was timed")]
    };

    let mut results = Vec::new();
    for algo in ALGOS {
        let mut configs = Vec::new();
        for config in CONFIGS {
            let (median, iqr) = cell(algo, config);
            reporter.result(&format!(
                "{algo:<9} {config:<14} median {median:>8.4}s  iqr {iqr:>7.4}s"
            ));
            configs.push(format!(
                "\"{config}\": {{\"median_s\": {median:.6}, \"iqr_s\": {iqr:.6}}}"
            ));
        }
        let mut overheads = Vec::new();
        for (config, base, target) in OVERHEADS {
            let ((m, m_iqr), (b, b_iqr)) = (cell(algo, config), cell(algo, base));
            let pct = (m / b - 1.0) * 100.0;
            let noise = (m_iqr / m).max(b_iqr / b) * 100.0;
            let (target, met) = match target {
                Some(t) => (format!("{t:.1}"), (pct < t).to_string()),
                None => ("null".to_string(), "null".to_string()),
            };
            reporter.result(&format!(
                "{algo:<9} {config:<14} {pct:>+6.2}% vs {base} \
                 (noise {noise:.1}%, target {target}, met {met})"
            ));
            overheads.push(format!(
                "{{\"name\": \"{config}\", \"vs\": \"{base}\", \"pct\": {pct:.3}, \
                 \"noise_pct\": {noise:.3}, \"target_pct\": {target}, \"met\": {met}}}"
            ));
        }
        results.push(format!(
            "    {{\"algo\": \"{algo}\",\n     \"configs\": {{{}}},\n     \
             \"overheads\": [\n       {}\n     ]}}",
            configs.join(", "),
            overheads.join(",\n       ")
        ));
    }

    let json = format!(
        "{{\n{}  \"workload\": {{\"n_attrs\": {n_attrs}, \"n_rows\": {n_rows}, \
         \"correlation\": {correlation}, \"seed\": {seed}}},\n  \"reps\": {REPS},\n  \
         \"estimator\": \"median and interquartile range over interleaved reps, order rotated \
         each rep; overheads compare medians, noise_pct is the larger IQR of the two cells as \
         a percentage of its median\",\n  \"results\": [\n{}\n  ]\n}}\n",
        stamp.json_member(),
        results.join(",\n")
    );
    let out = "BENCH_overhead.json";
    std::fs::write(out, &json).expect("write benchmark summary");
    reporter.wrote(out);
}
