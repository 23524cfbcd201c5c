//! Chaos property tests (`--features faults`): deterministic fault
//! injection at governance checkpoints.
//!
//! A seeded SplitMix64 `Prng` sweeps fault ordinals across each miner's
//! checkpoint range, so over the sweep every cooperative checkpoint
//! becomes an injection point. The property under test, for every
//! injection: the run yields either a complete result identical to the
//! fault-free baseline, or a well-formed partial one — never a hang, a
//! poisoned pool, or a silently wrong FD set. Partial Dep-Miner results
//! must pass `MiningResult::audit_claimed_fds` on the subset they claim;
//! partial TANE / approx results must be subsets of the fault-free cover.
//! Faulted runs call each miner's governed core on a token carrying the
//! fault plan; resumes go through the engine's one resume path,
//! `Session::resume`.

#![cfg(feature = "faults")]

use depminer::depminer::{DepMiner, TransversalEngine};
use depminer::engine::{ApproxMiner, Emitted, Miner, Session, SessionCtx};
use depminer::fdep::Fdep;
use depminer::govern::faults::{FaultKind, FaultPlan};
use depminer::govern::snapshot::read_snapshot;
use depminer::govern::{
    Budget, MiningOutcome, Obs, Resource, Snapshot, SnapshotError, SnapshotPolicy,
};
use depminer::relation::{Prng, Relation, StrippedPartitionDb, SyntheticConfig};
use depminer::tane::{approximate_fds, approximate_fds_governed, Tane};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// A small but structurally rich workload: enough agree sets, lattice
/// levels, and transversal work that every stage sees checkpoints.
fn workload() -> Relation {
    SyntheticConfig {
        n_attrs: 8,
        n_rows: 80,
        correlation: 0.6,
        seed: 0xC4A0_5001,
    }
    .generate()
    .expect("valid synthetic config")
}

/// Resumes `miner` from `snap` through a fault-free, unlimited session.
fn resume(
    r: &Relation,
    miner: &dyn Miner,
    snap: &Snapshot,
) -> Result<MiningOutcome<Emitted>, SnapshotError> {
    Session::new(SessionCtx::new(r, Budget::unlimited(), Obs::none(), None)).resume(miner, snap)
}

/// The exact FDs a resumed exact miner emitted.
fn exact(out: &MiningOutcome<Emitted>) -> &[depminer::fdtheory::Fd] {
    out.result.exact_fds().expect("exact miners emit FD lists")
}

/// The miner configurations under chaos (both agree-set algorithms and
/// both transversal engines).
fn miners() -> Vec<DepMiner> {
    vec![
        DepMiner::algorithm_2(None),
        DepMiner::algorithm_3(),
        DepMiner::algorithm_3().with_engine(TransversalEngine::Berge),
    ]
}

/// Ordinal range the sweeps draw from. Large enough to land beyond the
/// final checkpoint sometimes — those runs must complete and match the
/// baseline exactly, which is itself part of the property.
const ORDINAL_RANGE: std::ops::Range<u64> = 0..600;

#[test]
fn injected_cancellation_yields_complete_or_audited_partial() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let mut rng = Prng::seed_from_u64(0xFA01);
    for miner in miners() {
        let baseline = miner.mine(&r);
        for _ in 0..12 {
            let at = rng.gen_range(ORDINAL_RANGE);
            let token = Budget::unlimited().start_with_fault(FaultPlan::new(FaultKind::Cancel, at));
            let outcome = miner.mine_db_governed(&db, &token, None);
            match &outcome.interrupted {
                None => assert_eq!(outcome.result.fds, baseline.fds, "ordinal {at}"),
                Some(why) => {
                    assert_eq!(why.resource, Resource::InjectedFault, "ordinal {at}");
                    outcome
                        .result
                        .audit_claimed_fds(&r)
                        .unwrap_or_else(|e| panic!("ordinal {at}: bad partial: {e}"));
                    // Claimed FDs must come from the true cover — a
                    // partial run may drop FDs, never invent them.
                    for fd in &outcome.result.fds {
                        assert!(baseline.fds.contains(fd), "ordinal {at}: invented {fd}");
                    }
                }
            }
        }
    }
}

#[test]
fn injected_memory_exhaustion_yields_complete_or_audited_partial() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let miner = DepMiner::new();
    let baseline = miner.mine(&r);
    let mut rng = Prng::seed_from_u64(0xFA02);
    for _ in 0..20 {
        let at = rng.gen_range(ORDINAL_RANGE);
        let token =
            Budget::unlimited().start_with_fault(FaultPlan::new(FaultKind::MemoryExhaust, at));
        let outcome = miner.mine_db_governed(&db, &token, None);
        match &outcome.interrupted {
            None => assert_eq!(outcome.result.fds, baseline.fds, "ordinal {at}"),
            Some(why) => {
                assert_eq!(why.resource, Resource::Memory, "ordinal {at}");
                outcome
                    .result
                    .audit_claimed_fds(&r)
                    .unwrap_or_else(|e| panic!("ordinal {at}: bad partial: {e}"));
            }
        }
    }
}

#[test]
fn injected_worker_panic_never_poisons_the_pool() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let miner = DepMiner::new();
    let baseline = miner.mine(&r).fds;
    let mut rng = Prng::seed_from_u64(0xFA03);
    for _ in 0..12 {
        let at = rng.gen_range(ORDINAL_RANGE);
        let token = Budget::unlimited().start_with_fault(FaultPlan::new(FaultKind::Panic, at));
        let run = catch_unwind(AssertUnwindSafe(|| {
            miner.mine_db_governed(&db, &token, None)
        }));
        if let Ok(outcome) = run {
            // The armed ordinal was past the last checkpoint: a clean,
            // complete, correct run.
            assert!(outcome.is_complete(), "ordinal {at}");
            assert_eq!(outcome.result.fds, baseline, "ordinal {at}");
        }
        // Whether the panic fired or not, the runtime must be reusable:
        // an immediate fault-free rerun produces the exact baseline.
        assert_eq!(miner.mine(&r).fds, baseline, "rerun after ordinal {at}");
    }
}

#[test]
fn tane_under_injected_faults_is_exact_or_a_clean_prefix() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let tane = Tane::new();
    let baseline = tane.run(&r).fds;
    let mut rng = Prng::seed_from_u64(0xFA04);
    for kind in [FaultKind::Cancel, FaultKind::MemoryExhaust] {
        for _ in 0..10 {
            let at = rng.gen_range(ORDINAL_RANGE);
            let token = Budget::unlimited().start_with_fault(FaultPlan::new(kind, at));
            let outcome = tane.run_db_governed(&db, &token, None);
            if outcome.is_complete() {
                assert_eq!(outcome.result.fds, baseline, "{kind:?} ordinal {at}");
            } else {
                for fd in &outcome.result.fds {
                    assert!(
                        baseline.contains(fd),
                        "{kind:?} ordinal {at}: invented {fd}"
                    );
                }
            }
        }
    }
    // Panic injection: the lattice walk unwinds without corrupting
    // process-wide state; reruns stay exact.
    for _ in 0..6 {
        let at = rng.gen_range(ORDINAL_RANGE);
        let token = Budget::unlimited().start_with_fault(FaultPlan::new(FaultKind::Panic, at));
        let _ = catch_unwind(AssertUnwindSafe(|| tane.run_db_governed(&db, &token, None)));
        assert_eq!(tane.run(&r).fds, baseline, "rerun after ordinal {at}");
    }
}

#[test]
fn approx_under_injected_faults_reports_only_valid_entries() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let epsilon = 0.05;
    let baseline = approximate_fds(&r, epsilon);
    let mut rng = Prng::seed_from_u64(0xFA05);
    for _ in 0..10 {
        let at = rng.gen_range(ORDINAL_RANGE);
        let token = Budget::unlimited().start_with_fault(FaultPlan::new(FaultKind::Cancel, at));
        let outcome = approximate_fds_governed(&r, &db, epsilon, &token, None);
        if outcome.is_complete() {
            assert_eq!(outcome.result, baseline, "ordinal {at}");
        } else {
            // Every reported entry must appear in the full answer with
            // the same g3 error.
            for afd in &outcome.result {
                assert!(
                    baseline
                        .iter()
                        .any(|b| b.fd == afd.fd && b.error == afd.error),
                    "ordinal {at}: invented {:?}",
                    afd.fd
                );
            }
        }
    }
}

/// Fresh per-test snapshot directory.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("depminer_chaos_tests").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The chaos-resume property, shared by the per-miner tests below: for
/// each injected-cancellation ordinal, run with boundary snapshots
/// armed; when the trip leaves a frame behind, resuming it must
/// complete to an FD set identical to the fault-free baseline. Returns
/// how many ordinals actually exercised a resume.
fn chaos_resume_sweep<T, FRun, FResume, FAssert>(
    dir: &PathBuf,
    algo_id: &str,
    seed: u64,
    ordinals: usize,
    run: FRun,
    resume: FResume,
    assert_baseline: FAssert,
) -> usize
where
    FRun: Fn(&depminer::govern::CancelToken) -> bool,
    FResume: Fn(&depminer::govern::Snapshot) -> Result<T, SnapshotError>,
    FAssert: Fn(u64, T),
{
    let path = dir.join(format!("{algo_id}.snap"));
    let mut rng = Prng::seed_from_u64(seed);
    let mut resumed = 0;
    for _ in 0..ordinals {
        let at = rng.gen_range(ORDINAL_RANGE);
        std::fs::remove_file(&path).ok();
        let policy = SnapshotPolicy::new(dir).every_boundaries(1);
        let token = Budget::unlimited()
            .start_with_fault(FaultPlan::new(FaultKind::Cancel, at))
            .with_snapshots(policy);
        let complete = run(&token);
        if complete {
            assert!(
                !path.exists(),
                "ordinal {at}: completed run must discard its snapshot"
            );
            continue;
        }
        if !path.exists() {
            // Tripped before the first boundary (or inside a stage whose
            // state is deliberately unresumable, like FDEP's negative
            // cover): nothing to resume is a legal outcome.
            continue;
        }
        let snap = read_snapshot(&path)
            .unwrap_or_else(|e| panic!("ordinal {at}: tripped run left an unreadable frame: {e}"));
        let result =
            resume(&snap).unwrap_or_else(|e| panic!("ordinal {at}: pristine frame refused: {e}"));
        assert_baseline(at, result);
        resumed += 1;
    }
    resumed
}

#[test]
fn depminer_resume_after_injected_trip_matches_fault_free_baseline() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let miner = DepMiner::new();
    let baseline = miner.mine(&r).fds;
    let dir = tmp_dir("resume_depminer");
    let resumed = chaos_resume_sweep(
        &dir,
        "depminer",
        0xFA10,
        15,
        |token| miner.mine_db_governed(&db, token, None).is_complete(),
        |snap| resume(&r, &miner, snap),
        |at, out| {
            assert!(out.is_complete(), "ordinal {at}: resume tripped");
            // `Session::resume` has replayed every claimed FD against `r`.
            assert_eq!(exact(&out), baseline, "ordinal {at}");
        },
    );
    assert!(resumed > 0, "sweep never resumed; ordinal range too narrow");
}

#[test]
fn tane_resume_after_injected_trip_matches_fault_free_baseline() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let tane = Tane::new();
    let baseline = tane.run(&r).fds;
    let dir = tmp_dir("resume_tane");
    let resumed = chaos_resume_sweep(
        &dir,
        "tane",
        0xFA11,
        15,
        |token| tane.run_db_governed(&db, token, None).is_complete(),
        |snap| resume(&r, &tane, snap),
        |at, out| {
            assert!(out.is_complete(), "ordinal {at}: resume tripped");
            assert_eq!(exact(&out), baseline, "ordinal {at}");
        },
    );
    assert!(resumed > 0, "sweep never resumed; ordinal range too narrow");
}

#[test]
fn approx_resume_after_injected_trip_matches_fault_free_baseline() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let epsilon = 0.05;
    let baseline = approximate_fds(&r, epsilon);
    let dir = tmp_dir("resume_approx");
    let resumed = chaos_resume_sweep(
        &dir,
        "tane-approx",
        0xFA12,
        15,
        |token| approximate_fds_governed(&r, &db, epsilon, token, None).is_complete(),
        |snap| resume(&r, &ApproxMiner { epsilon }, snap),
        |at, out| {
            assert!(out.is_complete(), "ordinal {at}: resume tripped");
            let fds = baseline.clone();
            assert_eq!(
                out.result,
                Emitted::ApproxFds { fds, epsilon },
                "ordinal {at}"
            );
        },
    );
    assert!(resumed > 0, "sweep never resumed; ordinal range too narrow");
}

#[test]
fn fdep_resume_after_injected_trip_matches_fault_free_baseline() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let fdep = Fdep::new();
    let baseline = fdep.run(&r).fds;
    let dir = tmp_dir("resume_fdep");
    let resumed = chaos_resume_sweep(
        &dir,
        "fdep",
        0xFA13,
        15,
        |token| fdep.run_db_governed(&db, token, None).is_complete(),
        |snap| resume(&r, &fdep, snap),
        |at, out| {
            assert!(out.is_complete(), "ordinal {at}: resume tripped");
            assert_eq!(exact(&out), baseline, "ordinal {at}");
        },
    );
    assert!(resumed > 0, "sweep never resumed; ordinal range too narrow");
}

#[test]
fn torn_and_bit_flipped_snapshot_writes_are_always_detected() {
    // Arm a writer-targeting fault on the single on-trip flush write (no
    // periodic policy, so the flush is write #0), then verify the frame
    // on disk is refused — a corrupted snapshot must never be mined into
    // a silently wrong cover.
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let tane = Tane::new();
    let dir = tmp_dir("writer_corruption");
    let path = dir.join("tane.snap");
    let mut rng = Prng::seed_from_u64(0xFA14);
    // Truncation points below any frame's length plus random bit offsets
    // (the writer wraps them to the frame length).
    let torn: Vec<FaultKind> = [0u64, 1, 8, 13, 21]
        .iter()
        .map(|&at_byte| FaultKind::TornWrite { at_byte })
        .collect();
    let flips: Vec<FaultKind> = (0..8)
        .map(|_| FaultKind::BitFlip {
            offset: rng.next_u64(),
        })
        .collect();
    for kind in torn.into_iter().chain(flips) {
        std::fs::remove_file(&path).ok();
        let policy = SnapshotPolicy::new(&dir);
        let token = Budget::unlimited()
            .with_max_candidates(6)
            .start_with_fault(FaultPlan::new(kind, 0))
            .with_snapshots(policy);
        let outcome = tane.run_db_governed(&db, &token, None);
        assert!(!outcome.is_complete(), "{kind:?}: cap of 6 must trip");
        assert!(path.exists(), "{kind:?}: flush wrote nothing");
        match read_snapshot(&path) {
            Err(SnapshotError::Corrupt { .. }) => {}
            Err(other) => panic!("{kind:?}: expected Corrupt, got {other}"),
            Ok(_) => panic!("{kind:?}: corrupted frame decoded cleanly"),
        }
    }
}

#[test]
fn every_fault_kind_reports_a_first_trip_reason_once() {
    // Firing at checkpoint 0 stops each stage as early as possible; the
    // outcome must still be a well-formed (empty-ish) partial.
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    for (kind, resource) in [
        (FaultKind::Cancel, Resource::InjectedFault),
        (FaultKind::MemoryExhaust, Resource::Memory),
    ] {
        let token = Budget::unlimited().start_with_fault(FaultPlan::new(kind, 0));
        let outcome = DepMiner::new().mine_db_governed(&db, &token, None);
        let why = outcome
            .interrupted
            .as_ref()
            .expect("must trip at ordinal 0");
        assert_eq!(why.resource, resource);
        assert!(
            outcome.result.fds.is_empty(),
            "{kind:?}: {:?}",
            outcome.result.fds
        );
        outcome
            .result
            .audit_claimed_fds(&r)
            .expect("empty claim audits clean");
        assert!(!outcome.stages.is_empty());
        assert!(outcome.stages.iter().any(|s| !s.completed));
    }
}
