//! Flat-vs-nested layout equivalence: the CSR [`FlatPartition`] and the
//! arena-driven product must be observationally identical to the nested
//! `Vec<Vec<u32>>` [`StrippedPartition`] substrate they replaced, all the
//! way from single-partition construction up to whole-pipeline FD output.
//!
//! The determinism invariant under test everywhere: every flat
//! construction and product path produces classes in ascending order of
//! first tuple, so a flat partition equals `FlatPartition::from_nested`
//! of its nested counterpart *byte for byte* — not merely up to class
//! reordering.
//!
//! The `faulted` module (compiled under `--features faults`) sweeps
//! injected cancellations through the governed TANE walk and checks that
//! level-scoped arena reclamation never corrupts either the partial FD
//! list or the shared partition database other runs keep borrowing.

use depminer::fdtheory::mine_minimal_fds;
use depminer::prelude::*;
use depminer::relation::{FlatPartition, PartitionArena, Prng, ProductScratch, StrippedPartition};

mod common;
use common::{random_relation, random_set};

const CASES: usize = 48;

fn arb_relation(rng: &mut Prng) -> Relation {
    random_relation(rng, 2..=6, 0..=24, 1..=4)
}

#[test]
fn flat_construction_matches_nested_byte_for_byte() {
    let mut rng = Prng::seed_from_u64(0xF1A7_0001);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        let n = r.arity();
        for a in 0..n {
            let nested = StrippedPartition::for_attribute(&r, a);
            let flat = FlatPartition::for_attribute(&r, a);
            assert_eq!(flat, FlatPartition::from_nested(&nested));
            assert_eq!(flat.to_nested(), nested, "roundtrip for attribute {a}");
        }
        let x = random_set(&mut rng, 6).intersection(AttrSet::full(n));
        let nested = StrippedPartition::for_set(&r, x);
        let flat = FlatPartition::for_set(&r, x);
        assert_eq!(flat, FlatPartition::from_nested(&nested), "set {x}");
    }
}

#[test]
fn flat_product_matches_nested_product() {
    let mut rng = Prng::seed_from_u64(0xF1A7_0002);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        let n = r.arity();
        let mut arena = PartitionArena::new(r.len());
        let mut scratch = ProductScratch::new(r.len());
        for x in 0..n {
            for y in 0..n {
                let nx = StrippedPartition::for_attribute(&r, x);
                let ny = StrippedPartition::for_attribute(&r, y);
                let fx = FlatPartition::for_attribute(&r, x);
                let fy = FlatPartition::for_attribute(&r, y);
                let nested_prod = nx.product_with(&ny, &mut scratch);
                let flat_prod = fx.product_with(&fy, &mut arena);
                assert_eq!(
                    flat_prod,
                    FlatPartition::from_nested(&nested_prod),
                    "product {x}·{y}"
                );
                // Recycling the product back into the arena (the hot-path
                // lifecycle) must not perturb later products.
                arena.recycle(flat_prod);
            }
        }
    }
}

#[test]
fn flat_statistics_match_nested() {
    let mut rng = Prng::seed_from_u64(0xF1A7_0003);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        let n = r.arity();
        let x = random_set(&mut rng, 6).intersection(AttrSet::full(n));
        let nested = StrippedPartition::for_set(&r, x);
        let flat = FlatPartition::for_set(&r, x);
        assert_eq!(flat.num_classes(), nested.num_classes(), "set {x}");
        assert_eq!(flat.total_tuples(), nested.total_tuples(), "set {x}");
        assert_eq!(
            flat.full_num_classes(),
            nested.full_num_classes(),
            "set {x}"
        );
        assert_eq!(flat.is_superkey(), nested.is_superkey(), "set {x}");
        assert_eq!(flat.error().to_bits(), nested.error().to_bits(), "set {x}");
    }
}

/// Oracle for `MC`: collect every class of every per-attribute *nested*
/// partition, deduplicate, and keep the maximal ones under set inclusion
/// by brute force.
fn naive_maximal_classes(r: &Relation) -> Vec<Vec<u32>> {
    let mut classes: Vec<Vec<u32>> = Vec::new();
    for a in 0..r.arity() {
        for c in StrippedPartition::for_attribute(r, a).classes() {
            let mut c = c.clone();
            c.sort_unstable();
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
                let outcome = tane.run_db_governed(&db, &token);
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
            let _ = catch_unwind(AssertUnwindSafe(|| tane.run_db_governed(&db, &token)));
            assert_eq!(tane.run_db(&db).fds, baseline, "rerun after panic at {at}");
        }
    }
}
