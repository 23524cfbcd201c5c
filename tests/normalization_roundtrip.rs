//! End-to-end normalization verification on real data: mine FDs, decompose
//! the schema, *materialize* the fragments by projection, and prove the
//! decomposition lossless by natural-joining everything back together.
//!
//! This closes the loop of the paper's "logical tuning" motivation: the FDs
//! Dep-Miner discovers are exactly what makes the decomposition safe.

use depminer::fdtheory::{
    bcnf_decompose, candidate_keys, canonical_cover, is_bcnf, synthesize_3nf,
};
use depminer::prelude::*;
use depminer::relation::{datasets, natural_join, project, same_instance, Prng, Relation};

mod common;
use common::random_relation;

/// Joins materialized fragments back together and compares with `r`.
fn verify_lossless(r: &Relation, fragments: &[AttrSet]) {
    assert!(!fragments.is_empty());
    let mut frags = fragments.iter();
    let mut acc = project(r, *frags.next().expect("non-empty")).expect("projectable");
    for &f in frags {
        let piece = project(r, f).expect("projectable");
        acc = natural_join(&acc, &piece).expect("joinable");
    }
    assert!(
        same_instance(&acc, r),
        "decomposition into {fragments:?} is lossy: joined {} tuples, original {}",
        acc.len(),
        r.len()
    );
}

#[test]
fn bcnf_decomposition_is_lossless_on_datasets() {
    for r in [
        datasets::employee(),
        datasets::enrollment(),
        datasets::payroll(),
        datasets::flights(),
    ] {
        let fds = DepMiner::new().mine(&r).fds;
        let cover = canonical_cover(&fds);
        let frags: Vec<AttrSet> = bcnf_decompose(r.arity(), &cover)
            .into_iter()
            .map(|d| d.attrs)
            .collect();
        for &f in &frags {
            assert!(is_bcnf(f, &cover));
        }
        verify_lossless(&r, &frags);
    }
}

#[test]
fn three_nf_synthesis_is_lossless_on_datasets() {
    for r in [
        datasets::employee(),
        datasets::enrollment(),
        datasets::payroll(),
        datasets::flights(),
    ] {
        let fds = DepMiner::new().mine(&r).fds;
        let cover = canonical_cover(&fds);
        let keys = candidate_keys(&cover, r.arity());
        let frags: Vec<AttrSet> = synthesize_3nf(&cover, &keys)
            .into_iter()
            .map(|d| d.attrs)
            .collect();
        verify_lossless(&r, &frags);
    }
}

#[test]
fn payroll_decomposes_along_the_transitive_chain() {
    // emp → dept → manager → floor: BCNF splits the chain apart.
    let r = datasets::payroll();
    let fds = DepMiner::new().mine(&r).fds;
    let cover = canonical_cover(&fds);
    let frags = bcnf_decompose(r.arity(), &cover);
    assert!(
        frags.len() >= 2,
        "payroll should not be in BCNF as a single table"
    );
    verify_lossless(&r, &frags.iter().map(|d| d.attrs).collect::<Vec<_>>());
}

#[test]
fn decompositions_are_lossless_on_random_relations() {
    let mut rng = Prng::seed_from_u64(0x3FF1);
    for _ in 0..32 {
        let r = random_relation(&mut rng, 2..=5, 2..=10, 1..=3);
        let fds = DepMiner::new().mine(&r).fds;
        let cover = canonical_cover(&fds);
        let bcnf: Vec<AttrSet> = bcnf_decompose(r.arity(), &cover)
            .into_iter()
            .map(|d| d.attrs)
            .collect();
        let mut frags = bcnf.iter();
        let mut acc = project(&r, *frags.next().expect("non-empty")).expect("projectable");
        for &f in frags {
            acc = natural_join(&acc, &project(&r, f).expect("projectable")).expect("joinable");
        }
        assert!(same_instance(&acc, &r), "BCNF decomposition lossy");

        let keys = candidate_keys(&cover, r.arity());
        let tnf: Vec<AttrSet> = synthesize_3nf(&cover, &keys)
            .into_iter()
            .map(|d| d.attrs)
            .collect();
        let mut frags = tnf.iter();
        let mut acc = project(&r, *frags.next().expect("non-empty")).expect("projectable");
        for &f in frags {
            acc = natural_join(&acc, &project(&r, f).expect("projectable")).expect("joinable");
        }
        assert!(same_instance(&acc, &r), "3NF synthesis lossy");
    }
}
