//! Candidate-key discovery straight from agree sets.
//!
//! A set `X` is a superkey of `r` iff no two tuples agree on all of `X` —
//! i.e. `X` intersects the complement of every agree set. Hence the
//! candidate keys (minimal unique column combinations) are exactly
//!
//! ```text
//! keys(r) = Tr({ R \ Y  |  Y ∈ Max⊆ ag(r) })
//! ```
//!
//! the same transversal machinery Dep-Miner uses for lhs computation,
//! pointed at the maximal agree sets themselves instead of the
//! per-attribute families. The paper's framework yields this "for free";
//! key discovery is the classic companion problem (unique column
//! combinations) and feeds the normalization workflow of
//! `depminer-fdtheory`.

use crate::agree::AgreeSets;
use crate::lhs::TransversalEngine;
use depminer_govern::CancelToken;
use depminer_hypergraph::Hypergraph;
use depminer_parallel::Parallelism;
use depminer_relation::invariants::{audits_enabled, enforce};
use depminer_relation::{retain_maximal, AttrSet};

/// Computes the candidate keys (minimal unique column combinations) of the
/// relation whose agree sets are `ag`. Output is sorted.
///
/// Degenerate cases: a relation with fewer than two tuples has every set —
/// minimally `∅` — as a key; `∅ ∈ keys` is returned as the single key then.
pub fn candidate_keys_from_agree_sets(ag: &AgreeSets, engine: TransversalEngine) -> Vec<AttrSet> {
    if ag.n_rows < 2 {
        return vec![AttrSet::empty()];
    }
    let full = AttrSet::full(ag.arity);
    // Duplicate tuples (bag semantics) agree on all of R: no column
    // combination separates them, so the relation has no key at all. Under
    // the paper's set semantics this cannot happen.
    if ag.sets.contains(&full) {
        return Vec::new();
    }
    // Edges: complements of the maximal agree sets. A pair of tuples that
    // agrees on Y forces a key to include something outside Y; dominated
    // (non-maximal) agree sets impose weaker constraints. Pairs that agree
    // on nothing (the ∅ agree set, which `AgreeSets` does not materialize)
    // impose the edge `R` — added unconditionally, since with ≥ 2 tuples a
    // key must be non-empty anyway and `R` is dominated by every real edge.
    let mut max_ag = ag.sets.clone();
    retain_maximal(&mut max_ag);
    let mut edges: Vec<AttrSet> = max_ag.into_iter().map(|y| full.difference(y)).collect();
    edges.push(full);
    let h = Hypergraph::new(ag.arity, edges);
    let keys = engine
        .run_governed(&h, Parallelism::Auto, &CancelToken::unlimited())
        .expect("an unlimited token never trips");
    if audits_enabled() {
        enforce(h.audit_transversals(&keys));
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agree::agree_sets_naive;
    use depminer_relation::datasets;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    fn keys_of(r: &depminer_relation::Relation) -> Vec<AttrSet> {
        candidate_keys_from_agree_sets(&agree_sets_naive(r), TransversalEngine::Levelwise)
    }

    /// Brute-force oracle: minimal X with |π_X(r)| = |r|.
    fn keys_brute(r: &depminer_relation::Relation) -> Vec<AttrSet> {
        let n = r.arity();
        let mut out: Vec<AttrSet> = Vec::new();
        for bits in 0u32..(1 << n) {
            let x = AttrSet::from_bits(bits as u128);
            if r.is_superkey(x) {
                out.push(x);
            }
        }
        depminer_relation::retain_minimal(&mut out);
        out.sort();
        out
    }

    #[test]
    fn employee_keys() {
        let r = datasets::employee();
        assert_eq!(keys_of(&r), keys_brute(&r));
    }

    #[test]
    fn all_datasets_match_brute_force() {
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::constant_columns(),
            datasets::no_fds(),
        ] {
            assert_eq!(keys_of(&r), keys_brute(&r), "keys mismatch on {r:?}");
        }
    }

    #[test]
    fn engines_agree_on_keys() {
        let r = datasets::enrollment();
        let ag = agree_sets_naive(&r);
        assert_eq!(
            candidate_keys_from_agree_sets(&ag, TransversalEngine::Levelwise),
            candidate_keys_from_agree_sets(&ag, TransversalEngine::Berge)
        );
    }

    #[test]
    fn keys_are_consistent_with_mined_fds() {
        // keys(r) must equal the candidate keys of the mined FD cover
        // *restricted to keys that are superkeys of r*: in fact they are
        // exactly the candidate keys of dep(r).
        let r = datasets::enrollment();
        let result = crate::DepMiner::new().mine(&r);
        let theory_keys = depminer_fdtheory::candidate_keys(&result.fds, r.arity());
        assert_eq!(keys_of(&r), theory_keys);
    }

    #[test]
    fn degenerate_relations() {
        let one = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(2).unwrap(),
            vec![vec![1], vec![2]],
        )
        .unwrap();
        assert_eq!(keys_of(&one), vec![AttrSet::empty()]);

        // Two all-distinct tuples: every single attribute is a key.
        let distinct = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(2).unwrap(),
            vec![vec![0, 1], vec![0, 1]],
        )
        .unwrap();
        assert_eq!(keys_of(&distinct), vec![s(&[0]), s(&[1])]);

        // Duplicate tuples (bag semantics): no key exists.
        let dup = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(2).unwrap(),
            vec![vec![0, 0, 1], vec![1, 1, 2]],
        )
        .unwrap();
        assert!(keys_of(&dup).is_empty());
    }

    #[test]
    fn random_relations_match_brute_force() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(31);
        for _ in 0..30 {
            let n_attrs = rng.gen_range(2..=5usize);
            let n_rows = rng.gen_range(2..=12usize);
            let cols: Vec<Vec<u32>> = (0..n_attrs)
                .map(|_| (0..n_rows).map(|_| rng.gen_range(0..4u32)).collect())
                .collect();
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(n_attrs).unwrap(),
                cols,
            )
            .unwrap();
            assert_eq!(keys_of(&r), keys_brute(&r), "mismatch on {r:?}");
        }
    }
}
