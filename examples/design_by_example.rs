//! Design by example: the inverse workflow of discovery.
//!
//! A designer writes an FD specification; the library answers with a small
//! Armstrong relation that satisfies *exactly* those FDs and their
//! consequences — so every FD the designer forgot is visibly violated in
//! the example, and every implied FD visibly holds ([MR86], the foundation
//! of §4 of the paper). Armstrong-axiom derivations document *why* a
//! consequence holds.
//!
//! Run with: `cargo run --release --example design_by_example`

use depminer::depminer::armstrong_for_fds_with_schema;
use depminer::fdtheory::{derive, mine_minimal_fds, Fd};
use depminer::prelude::*;
use depminer::relation::Schema;

fn main() {
    // The classic city/street/zip design.
    let schema = Schema::new(["city", "street", "zip"]).expect("valid schema");
    let fds = vec![
        // city street -> zip
        Fd::new(AttrSet::from_indices([0, 1]), 2),
        // zip -> city
        Fd::new(AttrSet::singleton(2), 0),
    ];
    println!("Specified FDs:");
    for fd in &fds {
        println!("  {}", fd.display_with(&schema));
    }

    // The Armstrong example.
    let example = armstrong_for_fds_with_schema(&fds, &schema);
    println!("\nArmstrong example ({} tuples):\n{example}", example.len());

    // It satisfies exactly the consequences of the specification: mining it
    // back returns an equivalent cover.
    let mined = mine_minimal_fds(&example);
    println!("Re-mined FDs from the example:");
    for fd in &mined {
        println!("  {}", fd.display_with(&schema));
    }
    assert!(depminer::fdtheory::equivalent(&mined, &fds));

    // Why does `zip street -> city` hold? Derive it under Armstrong's
    // axioms and print the checkable proof.
    let lhs = AttrSet::from_indices([1, 2]);
    let goal_rhs = AttrSet::singleton(0);
    let proof = derive(&fds, lhs, goal_rhs).expect("implied by the specification");
    assert_eq!(proof.check(&fds), Ok(()));
    println!("\nDerivation of {{street, zip}} -> {{city}}:");
    print!("{}", proof.render());

    // And `street -> zip` does not hold — the example witnesses it.
    assert!(derive(&fds, AttrSet::singleton(1), AttrSet::singleton(2)).is_none());
    println!("\n`street -> zip` is NOT implied; rows violating it exist above.");
}
