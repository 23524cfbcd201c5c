//! Per-phase timing breakdown of the Dep-Miner pipeline vs TANE (§5.3).
//!
//! Shows *where* the two Dep-Miner variants spend their time (agree
//! sets dominate; the transversal step grows with `|R|`), complementing
//! the end-to-end numbers of the `experiments` binary.
//!
//! Phase times come from the observability layer: each run goes through
//! a `Session` observed by a `ProfileSink`, the path every CLI mining
//! command takes, and the table is read back out of the exported span
//! tree — the same data `depminer --profile` writes — rather than from
//! hand-carried stopwatches. The counters column surfaces the matching
//! span-tree counters (partition products for Dep-Miner, apriori
//! candidates for TANE).
//!
//! ```text
//! cargo run --release -p depminer-bench --bin phases -- [--attrs a,b,..] [--rows n,..] [--correlation c] [--quiet]
//! ```

use std::sync::Arc;

use depminer_bench::report::{span_ms, Reporter, RunStamp};
use depminer_core::{Budget, DepMiner, MiningOutcome};
use depminer_engine::{Emitted, Miner, Session, SessionCtx};
use depminer_observe::profile::{Profile, ProfileSink};
use depminer_observe::Obs;
use depminer_relation::{Relation, SyntheticConfig};
use depminer_tane::Tane;

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',').filter_map(|x| x.trim().parse().ok()).collect()
}

/// Runs `miner` on `r` through a `Session` observed by a fresh profile
/// sink and returns the span snapshot alongside the outcome.
fn profiled(r: &Relation, miner: &dyn Miner) -> (MiningOutcome<Emitted>, Profile) {
    let sink = Arc::new(ProfileSink::new());
    let ctx = SessionCtx::new(r, Budget::unlimited(), Obs::new(sink.clone()), None);
    let outcome = Session::new(ctx).run(miner);
    (outcome, sink.snapshot())
}

fn ms(v: f64) -> String {
    format!("{v:.1}ms")
}

fn main() {
    let mut attrs = vec![20usize, 40];
    let mut rows = vec![5_000usize, 20_000];
    let mut correlation = 0.5f64;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--attrs" => attrs = parse_list(&args.next().unwrap_or_default()),
            "--rows" => rows = parse_list(&args.next().unwrap_or_default()),
            "--correlation" => {
                correlation = args.next().and_then(|v| v.parse().ok()).unwrap_or(0.5)
            }
            "--quiet" => quiet = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let reporter = Reporter::new("phases", quiet);
    let stamp = RunStamp::capture("sequential");
    reporter.start(&format!(
        "attrs={attrs:?} rows={rows:?} correlation={correlation} \
         host_cpus={} rev={}",
        stamp.host_cpus, stamp.git_rev
    ));
    println!(
        "{:<6} {:<8} {:<12} {:>10} {:>10} {:>10} {:>12} {:>10}  {}",
        "|R|",
        "|r|",
        "variant",
        "preproc",
        "agree",
        "max-sets",
        "transversals",
        "total",
        "counters"
    );
    for &n_attrs in &attrs {
        for &n_rows in &rows {
            let r: Relation = SyntheticConfig {
                n_attrs,
                n_rows,
                correlation,
                seed: 9,
            }
            .generate()
            .expect("valid parameters");
            for (name, miner) in [
                ("dep-miner", DepMiner::algorithm_2(None)),
                ("dep-miner2", DepMiner::algorithm_3()),
            ] {
                reporter.progress(&format!("|R|={n_attrs} |r|={n_rows} {name}"));
                let (outcome, profile) = profiled(&r, &miner);
                assert!(outcome.is_complete(), "unlimited budget must not trip");
                println!(
                    "{n_attrs:<6} {n_rows:<8} {name:<12} {:>10} {:>10} {:>10} {:>12} {:>10}  products={}",
                    ms(span_ms(&profile, "preprocess")),
                    ms(span_ms(&profile, "agree-sets")),
                    ms(span_ms(&profile, "max-sets")),
                    ms(span_ms(&profile, "transversals")),
                    ms(span_ms(&profile, "depminer")),
                    profile.counter("partition_products"),
                );
                reporter.profile(&profile);
            }
            reporter.progress(&format!("|R|={n_attrs} |r|={n_rows} tane"));
            let (outcome, profile) = profiled(&r, &Tane::new());
            assert!(outcome.is_complete(), "unlimited budget must not trip");
            // TANE's one stage report counts the levels it completed.
            let levels = outcome.stages[0].processed;
            println!(
                "{n_attrs:<6} {n_rows:<8} {:<12} {:>10} {:>10} {:>10} {:>12} {:>10}  \
                 levels={} candidates={} products={}",
                "tane",
                ms(span_ms(&profile, "preprocess")),
                "-",
                "-",
                ms(span_ms(&profile, "tane-levels")),
                ms(span_ms(&profile, "tane")),
                levels,
                profile.counter("apriori_candidates"),
                profile.counter("partition_products"),
            );
            reporter.profile(&profile);
        }
    }
}
