//! Property tests for the observability layer: every governed mining
//! run must leave a *well-formed* record behind, whatever route it
//! took to finish.
//!
//! Three families of properties:
//!
//! * profile trees (the `--profile` sink) are balanced, their child
//!   durations fit inside their parents, and the exported JSON passes
//!   the same `validate_profile_json` gate that `xtask
//!   validate-profile` and ci.sh apply to real CLI output;
//! * JSONL traces (the `--trace` sink) are per-thread balanced with
//!   monotone timestamps, including under worker-pool parallelism;
//! * the counters a run accumulates agree with the `StageReport`s the
//!   governance layer publishes for the same run.
//!
//! With `--features faults` the same invariants are asserted while
//! deterministic faults (cancellation, mid-stage panics) fire at swept
//! checkpoint ordinals: an interrupted or unwinding run may truncate
//! the tree, but it must never leave it unbalanced or inconsistent.

use std::sync::Arc;

use depminer::depminer::{AgreeSetStrategy, DepMiner, TransversalEngine};
use depminer::fdep::Fdep;
use depminer::govern::observe::jsonl::{validate_events, JsonlSink};
use depminer::govern::observe::profile::{validate_profile_json, Profile, ProfileSink};
use depminer::govern::observe::Obs;
use depminer::govern::{Budget, Stage};
use depminer::parallel::Parallelism;
use depminer::relation::{Relation, StrippedPartitionDb, SyntheticConfig};
use depminer::tane::Tane;

/// Small but structurally rich workloads: several correlation regimes
/// so agree sets, lattice levels and transversals all do real work.
fn workloads() -> Vec<Relation> {
    [(8usize, 60usize, 0.3f64), (7, 90, 0.6), (6, 50, 0.9)]
        .iter()
        .map(|&(n_attrs, n_rows, correlation)| {
            SyntheticConfig {
                n_attrs,
                n_rows,
                correlation,
                seed: 0x0B5E_2007,
            }
            .generate()
            .expect("valid synthetic config")
        })
        .collect()
}

/// The structurally distinct miner configurations (all three agree-set
/// strategies, all three transversal engines appear at least once).
fn miners() -> Vec<DepMiner> {
    vec![
        DepMiner::algorithm_2(None),
        DepMiner::algorithm_3(),
        DepMiner {
            strategy: AgreeSetStrategy::Naive,
            ..DepMiner::new()
        }
        .with_engine(TransversalEngine::Berge),
        DepMiner::new().with_engine(TransversalEngine::Dfs),
    ]
}

/// Runs `f` under a fresh profile-observed unlimited token and returns
/// the snapshot.
fn profiled<T>(f: impl FnOnce(&depminer::govern::CancelToken) -> T) -> (T, Profile) {
    let sink = Arc::new(ProfileSink::new());
    let token = Budget::unlimited().start_observed(Obs::new(sink.clone()));
    let out = f(&token);
    drop(token);
    (out, sink.snapshot())
}

/// Snapshot must be balanced and its JSON export must pass the shared
/// validator with `required` spans present.
fn assert_well_formed(profile: &Profile, required: &[&str], ctx: &str) {
    assert!(profile.balanced, "{ctx}: profile left unbalanced");
    validate_profile_json(&profile.to_json(), required)
        .unwrap_or_else(|e| panic!("{ctx}: exported profile invalid: {e}"));
}

#[test]
fn depminer_profiles_are_well_formed_for_every_strategy_and_engine() {
    for r in workloads() {
        let db = StrippedPartitionDb::from_relation(&r);
        for (i, miner) in miners().into_iter().enumerate() {
            let (outcome, profile) = profiled(|t| miner.mine_db_governed(&db, t, None));
            assert!(outcome.is_complete());
            assert_well_formed(
                &profile,
                &["depminer", "agree-sets", "max-sets", "transversals"],
                &format!("miner {i} on |R|={}", r.arity()),
            );
        }
    }
}

#[test]
fn tane_and_fdep_profiles_are_well_formed() {
    for r in workloads() {
        let db = StrippedPartitionDb::from_relation(&r);
        let (outcome, profile) = profiled(|t| Tane::new().run_db_governed(&db, t, None));
        assert!(outcome.is_complete());
        assert_well_formed(&profile, &["tane", "tane-levels"], "tane");

        let (outcome, profile) = profiled(|t| Fdep::new().run_db_governed(&db, t, None));
        assert!(outcome.is_complete());
        assert_well_formed(
            &profile,
            &["fdep", "negative-cover", "fdep-inversion"],
            "fdep",
        );
    }
}

#[test]
fn parallel_runs_keep_profiles_balanced() {
    for r in workloads() {
        let db = StrippedPartitionDb::from_relation(&r);
        let miner = DepMiner::new().with_parallelism(Parallelism::Threads(4));
        let (outcome, profile) = profiled(|t| miner.mine_db_governed(&db, t, None));
        assert!(outcome.is_complete());
        assert_well_formed(
            &profile,
            &["depminer", "agree-sets", "max-sets", "transversals"],
            "parallel dep-miner",
        );
    }
}

#[test]
fn counters_agree_with_stage_reports() {
    for r in workloads() {
        let db = StrippedPartitionDb::from_relation(&r);
        for miner in miners() {
            let (outcome, profile) = profiled(|t| miner.mine_db_governed(&db, t, None));
            let agree = outcome
                .stages
                .iter()
                .find(|s| s.stage == Stage::AgreeSets)
                .expect("agree-sets stage reported");
            assert_eq!(
                profile.counter("couples_scanned"),
                agree.processed,
                "couples counter must match the agree-sets stage report"
            );
            assert_eq!(
                profile.counter("fd_emissions"),
                outcome.result.fds.len() as u64,
                "fd_emissions must match the emitted FD count"
            );
            assert_eq!(
                profile.counter("maxset_filter_passes"),
                r.arity() as u64,
                "one max-set filter pass per attribute"
            );
        }
        let (outcome, profile) = profiled(|t| Tane::new().run_db_governed(&db, t, None));
        assert_eq!(
            profile.counter("fd_emissions"),
            outcome.result.fds.len() as u64
        );
        assert!(profile.counter("apriori_candidates") > 0);
        let (outcome, profile) = profiled(|t| Fdep::new().run_db_governed(&db, t, None));
        assert_eq!(
            profile.counter("fd_emissions"),
            outcome.result.fds.len() as u64
        );
    }
}

/// Runs `f` against a JSONL sink and returns the captured trace text.
fn traced(f: impl FnOnce(&depminer::govern::CancelToken)) -> String {
    let sink = Arc::new(JsonlSink::new(Vec::new()));
    let token = Budget::unlimited().start_observed(Obs::new(sink.clone()));
    f(&token);
    drop(token);
    let sink = Arc::try_unwrap(sink).ok().expect("all handles dropped");
    String::from_utf8(sink.into_inner()).expect("trace is utf-8")
}

#[test]
fn jsonl_traces_are_balanced_and_monotone() {
    for r in workloads() {
        let db = StrippedPartitionDb::from_relation(&r);
        let text = traced(|t| {
            DepMiner::new().mine_db_governed(&db, t, None);
            Tane::new().run_db_governed(&db, t, None);
            Fdep::new().run_db_governed(&db, t, None);
        });
        let events =
            validate_events(&text).unwrap_or_else(|e| panic!("sequential trace invalid: {e}"));
        assert!(!events.is_empty());
    }
}

#[test]
fn jsonl_traces_survive_worker_pool_parallelism() {
    for r in workloads() {
        let db = StrippedPartitionDb::from_relation(&r);
        let miner = DepMiner::new().with_parallelism(Parallelism::Threads(4));
        let text = traced(|t| {
            miner.mine_db_governed(&db, t, None);
        });
        validate_events(&text).unwrap_or_else(|e| panic!("parallel trace invalid: {e}"));
    }
}

#[cfg(feature = "faults")]
mod chaos {
    use super::*;
    use depminer::govern::faults::{FaultKind, FaultPlan};
    use depminer::relation::Prng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Ordinal range for the sweeps; wide enough to sometimes land past
    /// the last checkpoint (those runs complete — also part of the
    /// property).
    const ORDINAL_RANGE: std::ops::Range<u64> = 0..400;

    #[test]
    fn profiles_stay_well_formed_under_injected_cancellation() {
        let r = workloads().remove(1);
        let db = StrippedPartitionDb::from_relation(&r);
        let mut rng = Prng::seed_from_u64(0x0B5E_FA01);
        for miner in miners() {
            for _ in 0..8 {
                let at = rng.gen_range(ORDINAL_RANGE);
                let sink = Arc::new(ProfileSink::new());
                let token = Budget::unlimited().start_observed_with_fault(
                    Obs::new(sink.clone()),
                    FaultPlan::new(FaultKind::Cancel, at),
                );
                let outcome = miner.mine_db_governed(&db, &token, None);
                drop(token);
                let profile = sink.snapshot();
                assert_well_formed(&profile, &[], &format!("cancel at ordinal {at}"));
                // A cut-off run may truncate the tree but the counters
                // it did record must still match what it reports.
                if let Some(agree) = outcome.stages.iter().find(|s| s.stage == Stage::AgreeSets) {
                    assert_eq!(profile.counter("couples_scanned"), agree.processed);
                }
            }
        }
    }

    #[test]
    fn profiles_stay_balanced_when_a_stage_panics_mid_flight() {
        let r = workloads().remove(0);
        let db = StrippedPartitionDb::from_relation(&r);
        let mut rng = Prng::seed_from_u64(0x0B5E_FA02);
        for miner in miners() {
            for _ in 0..6 {
                let at = rng.gen_range(ORDINAL_RANGE);
                let sink = Arc::new(ProfileSink::new());
                let token = Budget::unlimited().start_observed_with_fault(
                    Obs::new(sink.clone()),
                    FaultPlan::new(FaultKind::Panic, at),
                );
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    miner.mine_db_governed(&db, &token, None)
                }));
                drop(token);
                // Unwinding drops every SpanGuard, so even a crashed
                // run must leave a balanced, exportable tree.
                assert_well_formed(&sink.snapshot(), &[], &format!("panic at ordinal {at}"));
            }
        }
    }

    #[test]
    fn jsonl_traces_stay_valid_under_injected_cancellation() {
        let r = workloads().remove(2);
        let db = StrippedPartitionDb::from_relation(&r);
        let mut rng = Prng::seed_from_u64(0x0B5E_FA03);
        for _ in 0..8 {
            let at = rng.gen_range(ORDINAL_RANGE);
            let sink = Arc::new(JsonlSink::new(Vec::new()));
            let token = Budget::unlimited().start_observed_with_fault(
                Obs::new(sink.clone()),
                FaultPlan::new(FaultKind::Cancel, at),
            );
            DepMiner::new().mine_db_governed(&db, &token, None);
            Tane::new().run_db_governed(&db, &token, None);
            drop(token);
            let sink = Arc::try_unwrap(sink).ok().expect("all handles dropped");
            let text = String::from_utf8(sink.into_inner()).expect("trace is utf-8");
            validate_events(&text)
                .unwrap_or_else(|e| panic!("trace invalid after cancel at {at}: {e}"));
        }
    }
}
