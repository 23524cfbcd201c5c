//! Candidate-key discovery from the maximal sets Dep-Miner computes for
//! its FDs: the minimal attribute sets that determine every attribute.
//!
//! Run with: `cargo run --release --example key_discovery`

use depminer::fdtheory::candidate_keys;
use depminer::prelude::*;

fn main() {
    let r = depminer::relation::datasets::enrollment();
    let schema = r.schema().clone();
    println!("Relation ({} tuples):\n{r}", r.len());

    // Keys straight from the mining result: a key is a minimal transversal
    // of the complements of the maximal sets MAX(dep(r)).
    let result = DepMiner::new().mine(&r);
    let keys = result.candidate_keys();
    println!("Candidate keys via maximal-set transversals:");
    for k in &keys {
        println!("  {}", schema.format_set(*k));
    }

    // Sanity: the same keys fall out of the mined FD cover by pure theory
    // (Lucchesi–Osborn enumeration).
    let theory_keys = candidate_keys(&result.fds, r.arity());
    assert_eq!(keys, theory_keys);
    println!("(cross-checked against Lucchesi–Osborn on the mined cover)");

    // The same keys again from the TANE and FDEP baselines.
    let tane_keys = candidate_keys(&Tane::new().run(&r).fds, r.arity());
    let fdep_keys = candidate_keys(&Fdep::new().run(&r).fds, r.arity());
    assert_eq!(keys, tane_keys);
    assert_eq!(keys, fdep_keys);
    println!("(and against TANE and FDEP)");

    // Prime attributes: useful for 3NF checks.
    let prime = keys.iter().fold(AttrSet::empty(), |acc, &k| acc.union(k));
    println!("Prime attributes: {}", schema.format_set(prime));
}
