//! Sequential/parallel equivalence: every stage of the Dep-Miner pipeline
//! (and TANE) must produce **bit-identical** results at every thread
//! count. The parallel runtime's determinism contract — chunks cut at
//! deterministic boundaries, results collected in input order,
//! order-insensitive merges — is asserted here over a population of seeded
//! random relations, stage by stage, so a violation pinpoints the layer
//! that broke it.

use depminer::depminer::{
    agree_sets_with, cmax_sets_with, fd_output, left_hand_sides_governed, AgreeSetStrategy,
    DepMiner, TransversalEngine,
};
use depminer::parallel::{par_chunks, par_map, Parallelism, ThreadPool};
use depminer::prelude::*;
use depminer::relation::{Prng, StrippedPartitionDb};
use depminer::tane::Tane;

mod common;
use common::random_relation;

const CASES: usize = 50;
const THREAD_COUNTS: [Parallelism; 2] = [Parallelism::Threads(2), Parallelism::Threads(4)];

fn arb_relation(rng: &mut Prng) -> Relation {
    random_relation(rng, 2..=7, 0..=30, 1..=4)
}

#[test]
fn pipeline_stages_are_thread_count_invariant() {
    let mut rng = Prng::seed_from_u64(0x9A71);
    let strategies = [
        AgreeSetStrategy::Couples { chunk_size: None },
        AgreeSetStrategy::Couples {
            chunk_size: Some(16),
        },
        AgreeSetStrategy::EquivalenceClasses,
    ];
    let engines = [TransversalEngine::Levelwise, TransversalEngine::Berge];
    for case in 0..CASES {
        let r = arb_relation(&mut rng);
        // Stage 0: stripped partition extraction.
        let db = StrippedPartitionDb::from_relation_with(&r, Parallelism::Sequential);
        for par in THREAD_COUNTS {
            let db_par = StrippedPartitionDb::from_relation_with(&r, par);
            for a in 0..r.arity() {
                assert_eq!(
                    db_par.partition(a),
                    db.partition(a),
                    "case {case}: partition {a} diverges at {par:?}"
                );
            }
        }
        // Stage 1: agree sets, every strategy.
        for strat in strategies {
            let seq = agree_sets_with(&db, strat, Parallelism::Sequential);
            for par in THREAD_COUNTS {
                assert_eq!(
                    agree_sets_with(&db, strat, par),
                    seq,
                    "case {case}: {strat:?} diverges at {par:?}"
                );
            }
        }
        // Stages 2–3: maximal sets and transversals.
        let ag = agree_sets_with(
            &db,
            AgreeSetStrategy::Couples { chunk_size: None },
            Parallelism::Sequential,
        );
        let ms = cmax_sets_with(&ag, Parallelism::Sequential);
        for par in THREAD_COUNTS {
            assert_eq!(
                cmax_sets_with(&ag, par),
                ms,
                "case {case}: cmax diverges at {par:?}"
            );
        }
        let lhs = |engine, par| {
            let (families, stopped) =
                left_hand_sides_governed(&ms, engine, par, &CancelToken::unlimited());
            assert!(stopped.is_none(), "case {case}: an unlimited token tripped");
            families.into_iter().flatten().collect::<Vec<_>>()
        };
        for engine in engines {
            let seq = lhs(engine, Parallelism::Sequential);
            for par in THREAD_COUNTS {
                assert_eq!(
                    lhs(engine, par),
                    seq,
                    "case {case}: lhs({engine:?}) diverges at {par:?}"
                );
            }
            assert_eq!(fd_output(&seq), fd_output(&seq), "fd_output is pure");
        }
    }
}

#[test]
fn full_miners_are_thread_count_invariant() {
    let mut rng = Prng::seed_from_u64(0x9A72);
    for case in 0..CASES {
        let r = arb_relation(&mut rng);
        let seq = DepMiner::new()
            .with_parallelism(Parallelism::Sequential)
            .mine(&r);
        let tane_seq = Tane::new()
            .with_parallelism(Parallelism::Sequential)
            .run(&r);
        for par in THREAD_COUNTS {
            let p = DepMiner::new().with_parallelism(par).mine(&r);
            assert_eq!(
                p.fds, seq.fds,
                "case {case}: Dep-Miner FDs diverge at {par:?}"
            );
            assert_eq!(p.max_sets, seq.max_sets, "case {case}: max sets diverge");
            assert_eq!(p.lhs, seq.lhs, "case {case}: lhs families diverge");
            assert_eq!(
                p.agree_sets, seq.agree_sets,
                "case {case}: agree sets diverge"
            );

            let t = Tane::new().with_parallelism(par).run(&r);
            assert_eq!(
                t.fds, tane_seq.fds,
                "case {case}: TANE FDs diverge at {par:?}"
            );
            assert_eq!(
                t.stats.candidates, tane_seq.stats.candidates,
                "case {case}: TANE lattice exploration diverges at {par:?}"
            );
        }
    }
}

#[test]
fn pool_stress_nested_scopes_and_edge_inputs() {
    // Deep nesting: par_map inside par_map inside par_chunks, on a pool
    // that also serves the other tests — the helping join must keep every
    // level live regardless of worker availability.
    let outer: Vec<u64> = (0..16).collect();
    let expected: Vec<u64> = outer
        .iter()
        .map(|&i| (0..32).map(|j| i * 100 + j).sum::<u64>() + 1)
        .collect();
    let got = par_map(Parallelism::Threads(4), &outer, |&i| {
        let inner: Vec<u64> = (0..32).collect();
        let sums = par_chunks(Parallelism::Threads(2), &inner, 8, |c| {
            c.iter().map(|&j| i * 100 + j).sum::<u64>()
        });
        sums.iter().sum::<u64>() + 1
    });
    assert_eq!(got, expected);

    // Degenerate inputs at every thread count.
    for par in [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ] {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(par, &empty, |&x| x).is_empty());
        assert_eq!(par_map(par, &[9u32], |&x| x * 2), [18]);
        assert!(par_chunks(par, &empty, 4, |c| c.len()).is_empty());
        assert_eq!(par_chunks(par, &[9u32], 4, |c| c.len()), [1]);
    }
}

#[test]
fn pool_stress_panic_in_worker_is_contained() {
    // A panicking task must neither poison the global pool nor leak into
    // later scopes: runs after the panic must still be correct.
    let items: Vec<u32> = (0..256).collect();
    let result = std::panic::catch_unwind(|| {
        par_map(Parallelism::Threads(4), &items, |&x| {
            assert!(x != 200, "poison");
            x
        })
    });
    assert!(result.is_err(), "panic must propagate to the caller");
    // The pool is still fully functional afterwards.
    let doubled = par_map(Parallelism::Threads(4), &items, |&x| x * 2);
    assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    assert!(ThreadPool::global().workers() >= 1);
}
