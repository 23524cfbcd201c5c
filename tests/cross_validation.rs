//! Three-way cross-validation of the miners on random relations:
//! Dep-Miner (all agree-set strategies × both transversal engines), TANE,
//! and the brute-force oracle must produce the *identical* set of minimal
//! non-trivial FDs — not just equivalent covers.

use depminer::fdtheory::{equivalent, mine_minimal_fds};
use depminer::prelude::*;
use depminer::relation::{Prng, StrippedPartitionDb};

mod common;
use common::random_relation;

const CASES: usize = 64;

#[test]
fn all_builtin_datasets_cross_validate() {
    use depminer::relation::datasets;
    let all = [
        datasets::employee(),
        datasets::enrollment(),
        datasets::constant_columns(),
        datasets::no_fds(),
        datasets::payroll(),
        datasets::flights(),
        datasets::antichain(5),
    ];
    for r in all {
        let oracle = mine_minimal_fds(&r);
        assert_eq!(DepMiner::algorithm_2(None).mine(&r).fds, oracle);
        assert_eq!(DepMiner::algorithm_3().mine(&r).fds, oracle);
        assert_eq!(Tane::new().run(&r).fds, oracle);
        assert_eq!(Fdep::new().run(&r).fds, oracle);
    }
}

#[test]
fn antichain_armstrong_is_itself_shaped() {
    // antichain(n)'s MAX is all (n-1)-subsets: the Armstrong relation has
    // n+1 tuples — the dataset is its own minimal Armstrong relation shape.
    for n in 2..=6 {
        let r = depminer::relation::datasets::antichain(n);
        let res = DepMiner::new().mine(&r);
        assert_eq!(res.armstrong_size(), n + 1);
        assert!(res.fds.is_empty());
    }
}

/// A random small relation: up to 6 attributes, up to 14 tuples, small
/// domains so FDs and agreements actually occur.
fn arb_relation(rng: &mut Prng) -> Relation {
    random_relation(rng, 2..=6, 0..=14, 1..=4)
}

#[test]
fn all_miners_agree_with_oracle() {
    let mut rng = Prng::seed_from_u64(0xC501);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        let oracle = mine_minimal_fds(&r);
        let miners = [
            DepMiner::algorithm_2(None),
            DepMiner::algorithm_2(Some(3)),
            DepMiner::algorithm_3(),
            DepMiner::new().with_engine(TransversalEngine::Berge),
        ];
        for miner in miners {
            let fds = miner.mine(&r).fds;
            assert_eq!(fds, oracle, "{miner:?} diverges from oracle");
        }
        let tane = Tane::new().run(&r).fds;
        assert_eq!(tane, oracle, "TANE diverges from oracle");
        let fdep = Fdep::new().run(&r).fds;
        assert_eq!(fdep, oracle, "FDEP diverges from oracle");
    }
}

/// Relations whose couple index has long rows: over 64 attributes, so
/// agree sets take the wide path, and one class of 210 tuples, so a row
/// holds up to 209 partners and small batches split the class.
fn long_row_relations(rng: &mut Prng) -> Vec<Relation> {
    let mut relations: Vec<Relation> = (0..2)
        .map(|_| random_relation(rng, 65..=80, 16..=28, 1..=3))
        .collect();
    let n_rows = 210;
    let cols: Vec<Vec<u32>> = [1u32, 3, 40, 90]
        .iter()
        .map(|&domain| (0..n_rows).map(|_| rng.gen_range(0..domain)).collect())
        .collect();
    relations.push(
        Relation::from_columns(Schema::synthetic(4).expect("valid"), cols).expect("rectangular"),
    );
    relations
}

#[test]
fn agree_set_strategies_coincide() {
    use depminer::depminer::{
        agree_sets, agree_sets_couples_no_mc, agree_sets_naive, agree_sets_with,
    };
    let mut rng = Prng::seed_from_u64(0xC502);
    let small: Vec<Relation> = (0..CASES).map(|_| arb_relation(&mut rng)).collect();
    let long = long_row_relations(&mut rng);
    for (i, r) in small.iter().chain(&long).enumerate() {
        let db = StrippedPartitionDb::from_relation(r);
        let naive = agree_sets_naive(r);
        // Every flush scans all of r̂, so the larger relations get fewer
        // and larger batches; each still splits a class.
        let chunks: &[Option<usize>] = match i.checked_sub(CASES) {
            None => &[None, Some(1), Some(2), Some(7)],
            Some(0 | 1) => &[None, Some(7)],
            Some(_) => &[None, Some(150), Some(1000)],
        };
        for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
            for &chunk_size in chunks {
                let alg2 = agree_sets_with(&db, AgreeSetStrategy::Couples { chunk_size }, par);
                assert_eq!(
                    alg2.sets, naive.sets,
                    "relation {i}, {chunk_size:?} at {par:?}"
                );
            }
        }
        let alg2_nomc = agree_sets_couples_no_mc(&db, None);
        let alg3 = agree_sets(&db, AgreeSetStrategy::EquivalenceClasses);
        assert_eq!(alg2_nomc.sets, naive.sets, "relation {i}");
        assert_eq!(alg3.sets, naive.sets, "relation {i}");
        assert_eq!(alg3.constant_attrs, naive.constant_attrs, "relation {i}");
    }
}

#[test]
fn discovered_fds_hold_and_are_minimal() {
    let mut rng = Prng::seed_from_u64(0xC503);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        for fd in DepMiner::new().mine(&r).fds {
            assert!(!fd.is_trivial());
            assert!(r.satisfies(fd.lhs, fd.rhs), "{fd} does not hold");
            for b in fd.lhs.iter() {
                assert!(
                    !r.satisfies(fd.lhs.without(b), fd.rhs),
                    "{fd} is not minimal"
                );
            }
        }
    }
}

#[test]
fn every_holding_fd_is_implied() {
    let mut rng = Prng::seed_from_u64(0xC504);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        // The mined cover must imply every FD that holds in r (spot-checked
        // on all single-attribute lhs and a few pairs).
        let fds = DepMiner::new().mine(&r).fds;
        let n = r.arity();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let lhs = AttrSet::singleton(b);
                if r.satisfies(lhs, a) {
                    assert!(
                        depminer::fdtheory::implies(&fds, Fd::new(lhs, a)),
                        "mined cover misses {b} -> {a}"
                    );
                }
            }
        }
    }
}

#[test]
fn tane_lhs_round_trip_matches_depminer_maxsets() {
    let mut rng = Prng::seed_from_u64(0xC505);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        // Nihilpotence in anger: max sets recovered from TANE's FDs via
        // Tr(lhs) equal Dep-Miner's directly computed max sets.
        let tane = Tane::new().run(&r);
        let dm = DepMiner::new().mine(&r);
        let rebuilt = depminer::tane::max_sets_from_fds(&tane.fds, r.arity());
        assert_eq!(rebuilt, dm.max_sets.max);
    }
}

#[test]
fn mined_covers_are_equivalent_across_engines() {
    let mut rng = Prng::seed_from_u64(0xC506);
    for _ in 0..CASES {
        let r = arb_relation(&mut rng);
        let a = DepMiner::new().mine(&r).fds;
        let b = DepMiner::algorithm_3()
            .with_engine(TransversalEngine::Berge)
            .mine(&r)
            .fds;
        assert!(equivalent(&a, &b));
    }
}

#[test]
fn mining_results_pass_their_own_audit() {
    // The end-to-end invariant audit must accept every genuine result.
    let mut rng = Prng::seed_from_u64(0xC507);
    for _ in 0..16 {
        let r = arb_relation(&mut rng);
        DepMiner::new().mine(&r).audit(&r).unwrap();
    }
}
