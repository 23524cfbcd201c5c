//! Logical tuning: the DBA workflow the paper's introduction motivates.
//!
//! 1. mine the minimal FDs of an existing relation;
//! 2. inspect a real-world Armstrong relation — a loss-less, human-sized
//!    sample — to decide which FDs are *semantic* and which are accidental;
//! 3. compute candidate keys and a canonical cover of the FDs kept;
//! 4. normalize: dependency-preserving 3NF synthesis and lossless BCNF.
//!
//! Run with: `cargo run --release --example logical_tuning`

use depminer::fdtheory::{
    bcnf_decompose, candidate_keys, canonical_cover, is_bcnf, synthesize_3nf,
};
use depminer::prelude::*;

fn main() {
    // A course-enrollment relation with both semantic FDs
    // (course → lecturer/room) and an accidental one (lecturer → room).
    let r = depminer::relation::datasets::enrollment();
    let schema = r.schema().clone();
    println!("Relation under analysis ({} tuples):\n{r}", r.len());

    // Step 1: discovery.
    let result = DepMiner::new().mine(&r);
    println!("Minimal FDs found ({}):", result.fds.len());
    for fd in &result.fds {
        println!("  {}", fd.display_with(&schema));
    }

    // Step 2: the Armstrong sample. It satisfies exactly dep(r): any FD
    // visible as violated here is violated in r, any FD holding here holds
    // in r — so the dba can reason on 5 rows instead of millions.
    match result.real_world_armstrong(&r) {
        Ok(sample) => println!(
            "\nArmstrong sample ({} tuples, values from r):\n{sample}",
            sample.len()
        ),
        Err(e) => println!("\nNo real-world Armstrong relation: {e}"),
    }

    // Step 3: suppose the dba keeps every discovered FD. Canonical cover
    // and candidate keys drive normalization.
    let cover = canonical_cover(&result.fds);
    println!("Canonical cover ({} FDs):", cover.len());
    for fd in &cover {
        println!("  {}", fd.display_with(&schema));
    }
    let keys = candidate_keys(&cover, r.arity());
    println!("Candidate keys:");
    for k in &keys {
        println!("  {}", schema.format_set(*k));
    }
    println!(
        "Schema in BCNF already? {}",
        is_bcnf(schema.all_attrs(), &cover)
    );

    // Step 4: normalize.
    println!("\n3NF synthesis (dependency preserving):");
    for frag in synthesize_3nf(&cover, &keys) {
        println!(
            "  {}  with {} local FDs",
            schema.format_set(frag.attrs),
            frag.local_fds.len()
        );
    }
    println!("BCNF decomposition (lossless):");
    for frag in bcnf_decompose(r.arity(), &cover) {
        println!(
            "  {}  with {} local FDs",
            schema.format_set(frag.attrs),
            frag.local_fds.len()
        );
    }
}
