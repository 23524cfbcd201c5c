//! Budget-governance regression tests (run under both `DEPMINER_THREADS=1`
//! and `=4` by `ci.sh`): an adversarial generated relation must terminate
//! promptly under a 1-second wall-clock budget with a valid — possibly
//! partial — result, exhausted budgets must leave the runtime
//! immediately reusable, and memory caps must release every charged byte
//! and, on TANE's sequential product path, evict before they trip.

use depminer::depminer::DepMiner;
use depminer::fdep::Fdep;
use depminer::govern::observe::profile::ProfileSink;
use depminer::govern::observe::Obs;
use depminer::govern::{Budget, CancelToken, Resource};
use depminer::parallel::Parallelism;
use depminer::relation::{StrippedPartitionDb, SyntheticConfig};
use depminer::tane::{approximate_fds, approximate_fds_governed, Tane};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// High-attribute, low-correlation workload: wide lattice, many distinct
/// values — the shape that blows up levelwise walks rather than the
/// agree-set scan.
fn adversarial() -> depminer::relation::Relation {
    SyntheticConfig {
        n_attrs: 20,
        n_rows: 600,
        correlation: 0.15,
        seed: 0xBAD_5EED,
    }
    .generate()
    .expect("valid synthetic config")
}

#[test]
fn adversarial_relation_terminates_within_a_one_second_budget() {
    let r = adversarial();
    let db = StrippedPartitionDb::from_relation(&r);
    let budget = Budget::unlimited().with_timeout(Duration::from_secs(1));

    let start = Instant::now();
    let outcome = DepMiner::new().mine_db_governed(&db, &budget.start(), None);
    let elapsed = start.elapsed();
    // Checkpoints are cooperative, so allow slack past the deadline for
    // the stage in flight to drain — but nothing near a hang.
    assert!(
        elapsed < Duration::from_secs(20),
        "governed run took {elapsed:?}"
    );
    // Complete or partial, the claimed FDs must be exact.
    outcome
        .result
        .audit_claimed_fds(&r)
        .expect("claimed FDs must hold and be minimal");
    if let Some(why) = &outcome.interrupted {
        assert_eq!(why.resource, Resource::Deadline);
        assert!(outcome.stages.iter().any(|s| !s.completed));
    }

    let start = Instant::now();
    let tane = Tane::new().run_db_governed(&db, &budget.start(), None);
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(20), "TANE took {elapsed:?}");
    if !tane.is_complete() {
        // Whatever was emitted is an exact prefix of the cover: every FD
        // has lhs within the completed levels.
        let done = tane.stages[0].processed as usize;
        assert!(tane.result.fds.iter().all(|fd| fd.lhs.len() <= done));
    }
}

#[test]
fn certain_deadline_trip_returns_valid_partial_and_reusable_runtime() {
    let r = adversarial();
    // A deadline in the past must trip at the very first checkpoint.
    let db = StrippedPartitionDb::from_relation(&r);
    let budget = Budget::unlimited().with_timeout(Duration::from_nanos(1));
    let outcome = DepMiner::new().mine_db_governed(&db, &budget.start(), None);
    let why = outcome.interrupted.as_ref().expect("1ns budget must trip");
    assert_eq!(why.resource, Resource::Deadline);
    outcome
        .result
        .audit_claimed_fds(&r)
        .expect("partial audits clean");
    assert!(!outcome.diagnostics().is_empty());

    // The trip is confined to that token: an ungoverned run right after
    // is complete and self-consistent (pool not poisoned, no residue).
    let small = SyntheticConfig {
        n_attrs: 6,
        n_rows: 200,
        correlation: 0.5,
        seed: 1,
    }
    .generate()
    .expect("valid config");
    let clean = DepMiner::new().mine(&small);
    clean.audit(&small).expect("clean rerun audits fully");
}

#[test]
fn candidate_budget_bounds_tane_on_a_wide_relation() {
    // Small enough that the ungoverned reference cover is cheap, wide
    // enough that 20 candidates is a genuine mid-walk cut (level 1 alone
    // has 12).
    let r = SyntheticConfig {
        n_attrs: 12,
        n_rows: 300,
        correlation: 0.3,
        seed: 0xBAD_5EED,
    }
    .generate()
    .expect("valid config");
    let db = StrippedPartitionDb::from_relation(&r);
    let budget = Budget::unlimited().with_max_candidates(20);
    let outcome = Tane::new().run_db_governed(&db, &budget.start(), None);
    let why = outcome
        .interrupted
        .as_ref()
        .expect("20 candidates must trip");
    assert_eq!(why.resource, Resource::Candidates);
    // Emitted FDs are exact for the completed levels.
    let full = Tane::new().run(&r).fds;
    for fd in &outcome.result.fds {
        assert!(full.contains(fd), "invented {fd}");
    }
}

#[test]
fn memory_caps_release_everything_and_keep_partials_sound_for_depminer2_and_fdep() {
    let r = SyntheticConfig {
        n_attrs: 8,
        n_rows: 120,
        correlation: 0.5,
        seed: 7,
    }
    .generate()
    .expect("valid config");
    let full = DepMiner::algorithm_3().mine(&r);
    let db = StrippedPartitionDb::from_relation(&r);
    // Growing caps trip on the class-id matrix, then on transversal
    // levels, until one fits. The account always returns to zero, and a
    // partial agree family is a subset of the full one.
    for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
        let miner = DepMiner::algorithm_3().with_parallelism(par);
        let mut trips = 0;
        for cap in (1..).map(|k| 64 * k) {
            let token = Budget::unlimited().with_max_memory_bytes(cap).start();
            let outcome = miner.mine_db_governed(&db, &token, None);
            assert_eq!(token.memory_bytes(), 0, "{par:?} cap {cap}");
            let ag = &outcome.result.agree_sets.sets;
            assert!(ag.iter().all(|s| full.agree_sets.sets.contains(s)));
            outcome
                .result
                .audit_claimed_fds(&r)
                .expect("partial FDs hold");
            match &outcome.interrupted {
                Some(why) => {
                    assert_eq!(why.resource, Resource::Memory);
                    trips += 1;
                }
                None => {
                    assert_eq!(outcome.result.fds, full.fds);
                    break;
                }
            }
        }
        assert!(trips > 1, "{par:?}: caps trip at one point only");
    }
    // FDEP's configuration charges the same matrix for its negative
    // cover, and its Berge inversion charges no memory.
    let mut trips = 0;
    for cap in (1..).map(|k| 64 * k) {
        let token = Budget::unlimited().with_max_memory_bytes(cap).start();
        let outcome = Fdep::miner().mine_db_governed(&db, &token, None);
        assert_eq!(token.memory_bytes(), 0, "fdep cap {cap}");
        outcome
            .result
            .audit_claimed_fds(&r)
            .expect("partial FDs hold");
        match &outcome.interrupted {
            Some(why) => {
                assert_eq!(why.resource, Resource::Memory);
                assert!(outcome.result.fds.is_empty());
                trips += 1;
            }
            None => {
                assert_eq!(outcome.result.fds, full.fds);
                break;
            }
        }
    }
    assert!(trips > 0);
}

/// Sweeps memory caps of `step`·k bytes over `mine` until one fits. Every
/// cap must leave the token's memory account at zero, and every partial
/// must trip on memory with a subset of `full`. Returns the partial sizes
/// seen and the `partition_cache_evictions` of the first cap that fits.
fn sweep_memory_caps<T: PartialEq + std::fmt::Debug>(
    full: &[T],
    step: u64,
    mine: impl Fn(&CancelToken) -> (Vec<T>, Option<Resource>),
) -> (Vec<usize>, u64) {
    let mut partial_sizes = Vec::new();
    for cap in (1..=1000).map(|k| step * k) {
        let sink = Arc::new(ProfileSink::new());
        let token = Budget::unlimited()
            .with_max_memory_bytes(cap)
            .start_observed(Obs::new(sink.clone()));
        let (fds, tripped) = mine(&token);
        assert_eq!(token.memory_bytes(), 0, "cap {cap}");
        assert!(fds.iter().all(|fd| full.contains(fd)), "cap {cap}");
        match tripped {
            Some(resource) => {
                assert_eq!(resource, Resource::Memory, "cap {cap}");
                partial_sizes.push(fds.len());
            }
            None => {
                assert_eq!(fds, full, "cap {cap}");
                partial_sizes.dedup();
                let evictions = sink.snapshot().counter("partition_cache_evictions");
                return (partial_sizes, evictions);
            }
        }
    }
    panic!("no cap up to {} bytes fits the walk", 1000 * step);
}

#[test]
fn tane_memory_caps_release_everything_and_evict_before_tripping() {
    let r = SyntheticConfig {
        n_attrs: 7,
        n_rows: 80,
        correlation: 0.5,
        seed: 5,
    }
    .generate()
    .expect("valid config");
    let full = Tane::new().run(&r).fds;
    let db = StrippedPartitionDb::from_relation(&r);
    // Growing caps trip at every point of the walk, on the parallel path
    // too, until one fits.
    for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
        let tane = Tane::new().with_parallelism(par);
        let (partial_sizes, evictions) = sweep_memory_caps(&full, 32, |token| {
            let outcome = tane.run_db_governed(&db, token, None);
            (outcome.result.fds, outcome.interrupted.map(|w| w.resource))
        });
        assert!(
            partial_sizes.len() >= 2,
            "{par:?}: caps trip at one point only"
        );
        // The sequential path evicts retired partitions rather than trip,
        // so the first cap that fits is one only eviction makes room for.
        if par == Parallelism::Sequential {
            assert!(evictions > 0, "the first cap that fits evicted nothing");
        }
    }
}

#[test]
fn approx_memory_caps_release_everything_and_evict_before_tripping() {
    // Four attributes: no level has the 8 prefix-join pairs that fan
    // products out, so the sequential, evicting path runs at every
    // thread count.
    let r = SyntheticConfig {
        n_attrs: 4,
        n_rows: 80,
        correlation: 0.5,
        seed: 4,
    }
    .generate()
    .expect("valid config");
    let full = approximate_fds(&r, 0.0);
    let db = StrippedPartitionDb::from_relation(&r);
    let (partial_sizes, evictions) = sweep_memory_caps(&full, 8, |token| {
        let outcome = approximate_fds_governed(&r, &db, 0.0, token, None);
        (outcome.result, outcome.interrupted.map(|w| w.resource))
    });
    assert!(partial_sizes.len() >= 2, "caps trip at one point only");
    assert!(evictions > 0, "the first cap that fits evicted nothing");
}
