//! Layout independence of the mined output: the maximal classes `MC`
//! read off the class-id matrix of `r̂` match a brute-force oracle, and
//! TANE and Dep-Miner on the flat partition database agree with the
//! naive FD miner. (Construction, products and partition statistics are
//! checked against `FlatPartition::for_set` in `partition_laws.rs`.)
//!
//! The `faulted` module (compiled under `--features faults`) sweeps
//! injected cancellations through the governed TANE walk and checks that
//! level-scoped arena reclamation never corrupts either the partial FD
//! list or the shared partition database other runs keep borrowing.

use depminer::fdtheory::mine_minimal_fds;
use depminer::prelude::*;
use depminer::relation::{FlatPartition, Prng};

mod common;
use common::random_relation;

const CASES: usize = 48;

fn arb_relation(rng: &mut Prng) -> Relation {
    random_relation(rng, 2..=6, 0..=24, 1..=4)
}

/// Oracle for `MC`: collect every class of every `π̂_A`, grouped straight
/// from the rows, into one nested list, deduplicate, and keep the maximal
/// ones under set inclusion by brute force.
fn naive_maximal_classes(r: &Relation) -> Vec<Vec<u32>> {
    let mut classes: Vec<Vec<u32>> = Vec::new();
    for a in 0..r.arity() {
        for c in FlatPartition::for_set(r, AttrSet::singleton(a)).classes() {
            let c = c.to_vec();
            if !classes.contains(&c) {
                classes.push(c);
            }
        }
    }
    let maximal: Vec<Vec<u32>> = classes
        .iter()
        .filter(|c| {
            !classes
                .iter()
                .any(|d| d.len() > c.len() && c.iter().all(|t| d.contains(t)))
        })
        .cloned()
        .collect();
    maximal
}

#[test]
fn db_maximal_classes_match_naive_nested_oracle() {
    let check = |r: &Relation| {
        let db = StrippedPartitionDb::from_relation(r);
        let mut got: Vec<Vec<u32>> = db
            .maximal_classes()
            .into_iter()
            .map(<[u32]>::to_vec)
            .collect();
        for c in &mut got {
            c.sort_unstable();
        }
        got.sort();
        let mut want = naive_maximal_classes(r);
        want.sort();
        assert_eq!(got, want, "|R| = {}", r.arity());
    };
    let mut rng = Prng::seed_from_u64(0xF1A7_0004);
    for _ in 0..CASES {
        check(&arb_relation(&mut rng));
    }
    // Past 64 attributes the class-id compare leaves its u64 fast path.
    for _ in 0..8 {
        check(&random_relation(&mut rng, 65..=70, 0..=24, 1..=3));
    }
}

#[test]
fn full_pipeline_fd_output_is_layout_independent() {
    let mut rng = Prng::seed_from_u64(0xF1A7_0005);
    for _ in 0..24 {
        let r = random_relation(&mut rng, 2..=5, 0..=20, 1..=3);
        let naive = mine_minimal_fds(&r);
        let tane = Tane::new().run(&r).fds;
        assert_eq!(tane, naive, "TANE on the flat layout diverges from naive");
        let depminer = DepMiner::new().mine(&r).fds;
        assert_eq!(depminer, naive, "Dep-Miner on the flat db diverges");
        // Re-mining from one shared flat db is deterministic.
        let db = StrippedPartitionDb::from_relation(&r);
        let t = Tane::new();
        assert_eq!(t.run_db(&db).fds, t.run_db(&db).fds);
    }
}

/// Injected-fault sweeps: arena reclamation on the error path must leave
/// both the partial result and the shared database intact.
#[cfg(feature = "faults")]
mod faulted {
    use depminer::govern::faults::{FaultKind, FaultPlan};
    use depminer::prelude::*;
    use depminer::relation::Prng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn cancelled_runs_corrupt_neither_partials_nor_the_shared_db() {
        let r = SyntheticConfig {
            n_attrs: 8,
            n_rows: 80,
            correlation: 0.6,
            seed: 0xF1A7_5001,
        }
        .generate()
        .expect("valid synthetic config");
        let db = StrippedPartitionDb::from_relation(&r);
        let tane = Tane::new();
        let baseline = tane.run_db(&db).fds;
        let mut rng = Prng::seed_from_u64(0xF1A7_5002);
        for kind in [FaultKind::Cancel, FaultKind::MemoryExhaust] {
            for _ in 0..10 {
                let at = rng.gen_range(0u64..600);
                let token = Budget::unlimited().start_with_fault(FaultPlan::new(kind, at));
                let outcome = tane.run_db_governed(&db, &token, None);
                if outcome.is_complete() {
                    assert_eq!(outcome.result.fds, baseline, "{kind:?} ordinal {at}");
                } else {
                    // A partial run may only drop FDs, never invent them —
                    // reclaiming the level cache must not scramble what was
                    // already emitted.
                    for fd in &outcome.result.fds {
                        assert!(
                            baseline.contains(fd),
                            "{kind:?} ordinal {at}: invented {fd}"
                        );
                    }
                }
                // The database every run borrows from stays pristine.
                assert_eq!(tane.run_db(&db).fds, baseline, "{kind:?} rerun after {at}");
            }
        }
        // Panics mid-walk unwind through the arena without poisoning
        // anything process-wide.
        for _ in 0..6 {
            let at = rng.gen_range(0u64..600);
            let token = Budget::unlimited().start_with_fault(FaultPlan::new(FaultKind::Panic, at));
            let _ = catch_unwind(AssertUnwindSafe(|| tane.run_db_governed(&db, &token, None)));
            assert_eq!(tane.run_db(&db).fds, baseline, "rerun after panic at {at}");
        }
    }
}
