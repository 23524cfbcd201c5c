//! Thread-scaling benchmark for the parallel runtime.
//!
//! Runs the §5.2 synthetic generator workload (default |R|=20, |r|=10 000,
//! correlation 0.5, seed 9) end-to-end through Dep-Miner and TANE at
//! 1/2/4/8 threads and writes a machine-readable summary to
//! `BENCH_parallel.json`.
//!
//! All eight (miner, thread count) cells run interleaved in one process,
//! the order rotated by one cell each rep, so load drift on a shared host
//! lands on every cell alike. Each cell reports the median and
//! interquartile range of its reps. A speedup is the 1-thread median over
//! the cell's median, next to its noise: the larger IQR of the two cells,
//! as a percentage of its median. The provenance stamp (git revision,
//! `host_cpus`, thread grid) records how much hardware parallelism was
//! actually available, so a 1-core box producing ~1.0× speedups is
//! distinguishable from a regression.
//!
//! ```text
//! cargo run --release -p depminer-bench --bin parallel_scaling -- \
//!     [--attrs 20] [--rows 10000] [--correlation 0.5] [--reps 21] [--out BENCH_parallel.json]
//! ```

use std::time::Instant;

use depminer_bench::report::{spread, Reporter, RunStamp};
use depminer_core::DepMiner;
use depminer_parallel::Parallelism;
use depminer_relation::{Relation, SyntheticConfig};
use depminer_tane::Tane;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

const ALGOS: [&str; 2] = ["depminer", "tane"];

/// One end-to-end mine of `r` by `algo` at `threads`.
fn mine(algo: &str, threads: usize, r: &Relation) {
    let par = if threads <= 1 {
        Parallelism::Sequential
    } else {
        Parallelism::Threads(threads)
    };
    if algo == "depminer" {
        let m = DepMiner::new().with_parallelism(par).mine(r);
        assert!(!m.fds.is_empty() || r.arity() < 2, "workload found no FDs");
    } else {
        Tane::new().with_parallelism(par).run(r);
    }
}

fn main() {
    let mut n_attrs = 20usize;
    let mut n_rows = 10_000usize;
    let mut correlation = 0.5f64;
    let mut reps = 21usize;
    let mut out = String::from("BENCH_parallel.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = || args.next().unwrap_or_default();
        match a.as_str() {
            "--attrs" => n_attrs = next().parse().expect("--attrs takes an integer"),
            "--rows" => n_rows = next().parse().expect("--rows takes an integer"),
            "--correlation" => correlation = next().parse().expect("--correlation takes a float"),
            "--reps" => reps = next().parse().expect("--reps takes an integer"),
            "--out" => out = next(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let reps = reps.max(1);
    let r = SyntheticConfig {
        n_attrs,
        n_rows,
        correlation,
        seed: 9,
    }
    .generate()
    .expect("valid generator parameters");
    let threads_desc = THREAD_COUNTS
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let stamp = RunStamp::capture(threads_desc);
    let host_cpus = stamp.host_cpus;
    let reporter = Reporter::new("parallel_scaling", false);
    reporter.start(&format!(
        "|R|={n_attrs} |r|={n_rows} correlation={correlation} \
         reps={reps} host_cpus={host_cpus} rev={} dirty={}",
        stamp.git_rev, stamp.dirty
    ));

    let cells: Vec<(&str, usize)> = THREAD_COUNTS
        .iter()
        .flat_map(|&threads| ALGOS.iter().map(move |&algo| (algo, threads)))
        .collect();
    let mut samples = vec![Vec::with_capacity(reps); cells.len()];
    for rep in 0..reps {
        reporter.progress(&format!("rep {}/{reps}", rep + 1));
        for k in 0..cells.len() {
            let i = (rep + k) % cells.len();
            let (algo, threads) = cells[i];
            let t0 = Instant::now();
            mine(algo, threads, &r);
            samples[i].push(t0.elapsed().as_secs_f64());
        }
    }
    let spreads: Vec<(f64, f64)> = samples.into_iter().map(spread).collect();
    let cell = |algo: &str, threads: usize| {
        spreads[cells
            .iter()
            .position(|&c| c == (algo, threads))
            .expect("every cell was timed")]
    };

    let mut rows = Vec::new();
    for threads in THREAD_COUNTS {
        let mut fields = vec![format!("\"threads\": {threads}")];
        let mut line = format!("threads={threads:<2}");
        for algo in ALGOS {
            let ((m, m_iqr), (b, b_iqr)) = (cell(algo, threads), cell(algo, 1));
            let speedup = b / m;
            let noise = (m_iqr / m).max(b_iqr / b) * 100.0;
            line.push_str(&format!(
                "  {algo} median {m:>7.4}s iqr {m_iqr:>7.4}s {speedup:>5.2}x (noise {noise:.1}%)"
            ));
            fields.push(format!(
                "\"{algo}\": {{\"median_s\": {m:.6}, \"iqr_s\": {m_iqr:.6}, \
                 \"speedup\": {speedup:.3}, \"noise_pct\": {noise:.3}}}"
            ));
        }
        reporter.result(&line);
        rows.push(format!("    {{{}}}", fields.join(", ")));
    }

    let json = format!(
        "{{\n{}  \"workload\": {{\"n_attrs\": {n_attrs}, \"n_rows\": {n_rows}, \
         \"correlation\": {correlation}, \"seed\": 9}},\n  \"host_cpus\": {host_cpus},\n  \
         \"reps\": {reps},\n  \"estimator\": \"median and interquartile range over interleaved \
         reps, order rotated each rep; speedup is the 1-thread median over the cell's median, \
         noise_pct the larger IQR of the two cells as a percentage of its median\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        stamp.json_member(),
        rows.join(",\n")
    );
    std::fs::write(&out, &json).expect("write benchmark summary");
    reporter.wrote(&out);
}
