//! Engine-equivalence suite (DESIGN.md §13): dispatching a miner through
//! the `depminer-engine` `Session` must be observationally identical to
//! calling its governed core directly on `r̂` — byte-identical FD
//! vectors, the same stage sequence, and the same completion status — on
//! random relations, under an unlimited budget, a generous one-second
//! budget, and a zero-timeout budget that trips at the first checkpoint.

use std::time::Duration;

use depminer::engine::{ApproxMiner, Emitted, MinerRegistry, Session, SessionCtx};
use depminer::fdtheory::mine_minimal_fds;
use depminer::govern::{MiningOutcome, Obs, Stage};
use depminer::prelude::*;
use depminer::relation::Prng;
use depminer::tane::approximate_fds_governed;

mod common;
use common::random_relation;

const CASES: usize = 16;

fn stages_of<T>(o: &MiningOutcome<T>) -> Vec<Stage> {
    o.stages.iter().map(|s| s.stage).collect()
}

fn exact_fds(o: &MiningOutcome<Emitted>) -> &[depminer::fdtheory::Fd] {
    o.result.exact_fds().expect("exact miners emit FD lists")
}

/// Runs the registry entry named `cli_name` through a fresh `Session`.
fn session_run(r: &Relation, cli_name: &str, budget: Budget) -> MiningOutcome<Emitted> {
    let reg = MinerRegistry::standard();
    let entry = reg.by_cli_name(cli_name).expect("registered miner");
    let session = Session::new(SessionCtx::new(r, budget, Obs::none(), None));
    session.run(entry.instantiate().as_ref())
}

/// The engine outcome must replicate the direct one bit for bit.
fn assert_equivalent<T>(
    cli_name: &str,
    engine: &MiningOutcome<Emitted>,
    direct: &MiningOutcome<T>,
    direct_fds: &[depminer::fdtheory::Fd],
) {
    assert_eq!(exact_fds(engine), direct_fds, "{cli_name}: FD sets diverge");
    assert_eq!(
        stages_of(engine),
        stages_of(direct),
        "{cli_name}: stage sequences diverge"
    );
    assert_eq!(
        engine.is_complete(),
        direct.is_complete(),
        "{cli_name}: completion status diverges"
    );
}

/// Every registered exact miner, engine vs its governed core, under one
/// budget.
fn check_exact_miners(r: &Relation, budget: Budget) {
    let db = StrippedPartitionDb::from_relation(r);
    let direct = DepMiner::algorithm_2(None).mine_db_governed(&db, &budget.start(), None);
    assert_equivalent(
        "depminer",
        &session_run(r, "depminer", budget),
        &direct,
        &direct.result.fds,
    );

    let direct = DepMiner::algorithm_3().mine_db_governed(&db, &budget.start(), None);
    assert_equivalent(
        "depminer2",
        &session_run(r, "depminer2", budget),
        &direct,
        &direct.result.fds,
    );

    let direct = Tane::new().run_db_governed(&db, &budget.start(), None);
    assert_equivalent(
        "tane",
        &session_run(r, "tane", budget),
        &direct,
        &direct.result.fds,
    );

    let direct = Fdep::new().run_db_governed(&db, &budget.start(), None);
    assert_equivalent(
        "fdep",
        &session_run(r, "fdep", budget),
        &direct,
        &direct.result.fds,
    );
}

#[test]
fn session_matches_direct_entry_points_unlimited() {
    let mut rng = Prng::seed_from_u64(0xE1417E);
    for _ in 0..CASES {
        let r = random_relation(&mut rng, 2..=6, 1..=40, 0..=3);
        check_exact_miners(&r, Budget::unlimited());
    }
}

#[test]
fn session_matches_direct_entry_points_under_one_second_budget() {
    // A generous armed budget: the governors are live on every
    // checkpoint but never trip on these tiny relations, so the engine
    // must replicate the governed (not the ungoverned) code path.
    let mut rng = Prng::seed_from_u64(0xB0D6E7);
    let budget = Budget::unlimited().with_timeout(Duration::from_secs(1));
    for _ in 0..CASES {
        let r = random_relation(&mut rng, 2..=6, 1..=40, 0..=3);
        check_exact_miners(&r, budget);
    }
}

#[test]
fn session_matches_direct_entry_points_when_budget_trips() {
    // Zero timeout trips at the first checkpoint; the engine must report
    // the identical partial outcome (FDs, stages, interrupted flag).
    let mut rng = Prng::seed_from_u64(0x7417ED);
    let budget = Budget::unlimited().with_timeout(Duration::ZERO);
    for _ in 0..4 {
        let r = random_relation(&mut rng, 3..=6, 5..=40, 0..=3);
        check_exact_miners(&r, budget);
        let engine = session_run(&r, "depminer", budget);
        assert!(!engine.is_complete(), "zero timeout must trip");
    }
}

#[test]
fn session_matches_direct_approximate_miner() {
    let mut rng = Prng::seed_from_u64(0xA99403);
    for _ in 0..CASES {
        let r = random_relation(&mut rng, 2..=5, 1..=30, 0..=2);
        for epsilon in [0.0, 0.05, 0.2] {
            let budget = Budget::unlimited();
            let session = Session::new(SessionCtx::new(&r, budget, Obs::none(), None));
            let engine = session.run(&ApproxMiner { epsilon });
            let db = StrippedPartitionDb::from_relation(&r);
            let direct = approximate_fds_governed(&r, &db, epsilon, &budget.start(), None);
            match &engine.result {
                Emitted::ApproxFds { fds, epsilon: eps } => {
                    assert_eq!(fds, &direct.result, "eps={epsilon}: FD sets diverge");
                    assert_eq!(*eps, epsilon);
                }
                Emitted::Fds(_) => panic!("approx miner must emit approximate FDs"),
            }
            assert_eq!(
                stages_of(&engine),
                stages_of(&direct),
                "eps={epsilon}: stage sequences diverge"
            );
            assert_eq!(engine.is_complete(), direct.is_complete());
        }
    }
}

#[test]
fn session_matches_naive_oracle() {
    let mut rng = Prng::seed_from_u64(0x0AC1E5);
    for _ in 0..CASES {
        let r = random_relation(&mut rng, 2..=5, 1..=25, 0..=2);
        let engine = session_run(&r, "naive", Budget::unlimited());
        assert!(engine.is_complete());
        assert_eq!(exact_fds(&engine), mine_minimal_fds(&r));
        assert!(stages_of(&engine).is_empty(), "oracle reports no stages");
    }
}
