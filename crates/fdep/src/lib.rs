//! # depminer-fdep
//!
//! The **FDEP** algorithm of Savnik & Flach ("Bottom-up induction of
//! functional dependencies from relations", KDD workshop 1993) — one of the
//! prior FD miners the Dep-Miner paper cites (\[SF93\], §1/§5.1) — as the
//! configuration of Dep-Miner's pipeline it amounts to.
//!
//! FDEP works bottom-up from the data:
//!
//! 1. **Negative cover** — scan the tuple pairs; a pair agreeing on `Y` and
//!    disagreeing on `A` *violates* `Y → A`. Only the ⊆-maximal violated
//!    lhs per rhs matter (they subsume the rest) — these are exactly the
//!    maximal sets `max(dep(r), A)` of the Dep-Miner paper, reached from
//!    the opposite direction. The pairs worth scanning are Dep-Miner's
//!    couples of maximal classes, so the cover is Dep-Miner's Algorithm 3
//!    agree-set scan followed by its one-pass Algorithm 4.
//! 2. **Negative-to-positive inversion** — start from the most general
//!    hypothesis `∅ → A`; for each violated `Y → A`, remove every current
//!    lhs `X ⊆ Y` and specialize it minimally (`X ∪ {B}` for
//!    `B ∉ Y ∪ {A}`), keeping only the minimal hypotheses, so the
//!    hypothesis space stays an antichain. That is Berge's transversal
//!    algorithm on the edges `R \ Y`, i.e. on `cmax(dep(r), A)`, with the
//!    FD-tree as its set-trie (a specialization is kept iff dropping any
//!    one of its attributes leaves an lhs the negative cover violates),
//!    and FD_OUTPUT's `X ≠ {A}` guard drops the trivial lhs.
//!
//! So FDEP is [`Fdep::miner`]: `DepMiner::algorithm_3()` on the Berge
//! engine. It runs, governs, checkpoints and resumes through Dep-Miner's
//! one governed pipeline, and the result is the identical minimal cover
//! Dep-Miner and TANE produce — asserted by cross-validation tests here
//! and in the workspace root.

use depminer_core::{DepMiner, TransversalEngine};
use depminer_fdtheory::Fd;
use depminer_relation::Relation;

/// Result of an FDEP run.
#[derive(Debug, Clone)]
pub struct FdepResult {
    /// Minimal non-trivial FDs (a cover of `dep(r)`), sorted.
    pub fds: Vec<Fd>,
    /// Size of the negative cover: `Σ_A |max(dep(r), A)|`, the maximal
    /// violated lhs summed over rhs.
    pub negative_cover_size: usize,
}

/// The FDEP miner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fdep;

impl Fdep {
    /// Creates a miner.
    pub fn new() -> Self {
        Fdep
    }

    /// FDEP as a Dep-Miner configuration: Algorithm 3's maximal-class
    /// scan and Algorithm 4's one pass build the negative cover, and Berge's
    /// engine inverts it. Parallelism is the default.
    pub fn miner() -> DepMiner {
        DepMiner::algorithm_3().with_engine(TransversalEngine::Berge)
    }

    /// Mines all minimal non-trivial FDs of `r`.
    pub fn run(&self, r: &Relation) -> FdepResult {
        let result = Fdep::miner().mine(r);
        FdepResult {
            negative_cover_size: result.max_sets.max.iter().map(Vec::len).sum(),
            fds: result.fds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_fdtheory::mine_minimal_fds;
    use depminer_relation::datasets;

    #[test]
    fn employee_matches_oracle() {
        let r = datasets::employee();
        let result = Fdep::new().run(&r);
        assert_eq!(result.fds, mine_minimal_fds(&r));
        assert_eq!(result.fds.len(), 14);
        assert!(result.negative_cover_size > 0);
    }

    #[test]
    fn all_datasets_match_other_miners() {
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::constant_columns(),
            datasets::no_fds(),
        ] {
            let fdep = Fdep::new().run(&r).fds;
            let dm = depminer_core::DepMiner::new().mine(&r).fds;
            let tane = depminer_tane::Tane::new().run(&r).fds;
            assert_eq!(fdep, dm, "FDEP != Dep-Miner");
            assert_eq!(fdep, tane, "FDEP != TANE");
        }
    }

    #[test]
    fn empty_agree_pairs_are_detected() {
        // Two all-distinct tuples: negative cover is {∅} per attribute,
        // so every single other attribute becomes a minimal lhs.
        let r = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(2).unwrap(),
            vec![vec![0, 1], vec![0, 1]],
        )
        .unwrap();
        let result = Fdep::new().run(&r);
        let expected = mine_minimal_fds(&r);
        assert_eq!(result.fds, expected);
        assert_eq!(result.negative_cover_size, 2);
    }

    #[test]
    fn attribute_in_every_agree_set_but_not_constant() {
        // A lies in both non-empty agree sets ({A, B} and {A}), yet
        // tuples 0 and 2 agree on nothing: ∅ → A is violated and B → A
        // is minimal. With A constant instead, ∅ → A holds.
        for a in [vec![0, 0, 1, 1], vec![0, 0, 0, 0]] {
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(2).unwrap(),
                vec![a, vec![5, 5, 6, 7]],
            )
            .unwrap();
            assert_eq!(Fdep::new().run(&r).fds, mine_minimal_fds(&r), "{r:?}");
        }
    }

    #[test]
    fn degenerate_relations() {
        for cols in [vec![vec![], vec![]], vec![vec![1], vec![2]]] {
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(2).unwrap(),
                cols,
            )
            .unwrap();
            assert_eq!(Fdep::new().run(&r).fds, mine_minimal_fds(&r));
        }
    }

    #[test]
    fn random_relations_match_oracle() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(2024);
        for trial in 0..50 {
            let n_attrs = rng.gen_range(2..=5usize);
            let n_rows = rng.gen_range(1..=14usize);
            let domain = rng.gen_range(1..=4u32);
            let cols: Vec<Vec<u32>> = (0..n_attrs)
                .map(|_| (0..n_rows).map(|_| rng.gen_range(0..=domain)).collect())
                .collect();
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(n_attrs).unwrap(),
                cols,
            )
            .unwrap();
            assert_eq!(
                Fdep::new().run(&r).fds,
                mine_minimal_fds(&r),
                "trial {trial}: FDEP != oracle on {r:?}"
            );
        }
    }
}
