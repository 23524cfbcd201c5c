//! The paper's levelwise minimal-transversal algorithm (Algorithm 5).
//!
//! Level `i` holds candidate vertex sets of size `i`. Each level:
//!
//! 1. candidates that intersect every edge are *minimal* transversals
//!    (no proper subset can be a transversal, or it would have been kept at
//!    an earlier level and pruned all its supersets);
//! 2. those are removed from the level;
//! 3. the next level is generated Apriori-style from the surviving
//!    non-transversals: join pairs sharing an (i−1)-prefix, then prune any
//!    candidate with an i-subset that is not a survivor (it was either a
//!    transversal — so the candidate is non-minimal — or never generated).
//!
//! This mirrors \[AS94\]'s `Apriori-gen` exactly as the paper specifies.

use crate::Hypergraph;
use depminer_govern::{BudgetExceeded, CancelToken, Stage};
use depminer_parallel::{par_map_governed, Parallelism};
use depminer_relation::{apriori_gen, AttrSet};

/// Levels smaller than this are checked on the calling thread even when a
/// parallel setting is in force: below it, the per-candidate edge scans are
/// too cheap to amortize the fan-out.
const PAR_LEVEL_THRESHOLD: usize = 512;

/// Computes `Tr(H)`: all minimal transversals of `h`, sorted, under a
/// live [`CancelToken`].
///
/// Returns `[∅]` when `h` has no edges (the empty set is then the unique
/// minimal transversal), matching Algorithm 5's behaviour of `L₁ = ∅`.
///
/// The per-candidate transversal checks within a level are independent,
/// so levels of 512 candidates or more fan out at `par`; the transversal/survivor split is then replayed in level order,
/// keeping the output identical to the sequential run. Candidate
/// generation ([`apriori_gen`]) stays sequential.
///
/// Checkpoints: once per lattice level (depth + candidate-count budgets,
/// deadline) and every few candidates inside a wide level's parallel
/// split. On a trip the search unwinds immediately with the budget
/// error; no partial transversal list is returned, because a truncated
/// level walk cannot certify minimality of what it has emitted — the
/// caller treats the whole attribute as unprocessed.
pub fn min_transversals_governed(
    h: &Hypergraph,
    par: Parallelism,
    token: &CancelToken,
) -> Result<Vec<AttrSet>, BudgetExceeded> {
    let _span = token.observer().span("transversals/levelwise");
    if h.is_empty() {
        return Ok(vec![AttrSet::empty()]);
    }
    let mut result: Vec<AttrSet> = Vec::new();
    // L1: attributes appearing in some edge.
    let mut level: Vec<AttrSet> = h.vertex_support().singletons().collect();
    let mut depth = 1usize;
    while !level.is_empty() {
        token.enter_level(depth, Stage::Transversals)?;
        token.add_candidates(level.len() as u64, Stage::Transversals)?;
        let level_bytes = (level.len() * std::mem::size_of::<AttrSet>()) as u64;
        token.reserve_memory(level_bytes, Stage::Transversals)?;
        // Split the level into transversals (emitted) and survivors.
        let mut survivors: Vec<AttrSet> = Vec::with_capacity(level.len());
        if level.len() >= PAR_LEVEL_THRESHOLD && !par.is_sequential() {
            let flags: Vec<bool> =
                par_map_governed(par, token, Stage::Transversals, &level, |&cand| {
                    Ok(h.is_transversal(cand))
                })
                .inspect_err(|_| token.release_memory(level_bytes))?;
            for (&cand, is_tr) in level.iter().zip(flags) {
                if is_tr {
                    result.push(cand);
                } else {
                    survivors.push(cand);
                }
            }
        } else {
            for &cand in &level {
                if h.is_transversal(cand) {
                    result.push(cand);
                } else {
                    survivors.push(cand);
                }
            }
        }
        level = apriori_gen(&survivors).into_iter().map(|p| p.0).collect();
        token.release_memory(level_bytes);
        depth += 1;
    }
    result.sort();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    #[test]
    fn paper_example_10_attribute_a() {
        // cmax(dep(r), A) = {AC, ABD} over R = ABCDE.
        // Expected lhs(dep(r), A) = Tr = {A, BC, CD}.
        let h = Hypergraph::new(5, vec![s(&[0, 2]), s(&[0, 1, 3])]);
        let tr = h.min_transversals_levelwise();
        assert_eq!(tr, vec![s(&[0]), s(&[1, 2]), s(&[2, 3])]);
    }

    #[test]
    fn paper_example_10_all_attributes() {
        // Example 9/10: cmax per attribute and expected lhs sets.
        // cmax(B) = {BCDE, ABD} → lhs(B) = {AC, AE, B, D} … wait: Tr
        // includes B? B∈BCDE and B∈ABD, yes {B} is a transversal; {D} too.
        let cases: Vec<(Vec<AttrSet>, Vec<AttrSet>)> = vec![
            (
                vec![s(&[1, 2, 3, 4]), s(&[0, 1, 3])],
                // lhs(B) = {B, D, AC, AE}
                vec![s(&[1]), s(&[3]), s(&[0, 2]), s(&[0, 4])],
            ),
            (
                vec![s(&[1, 2, 3, 4]), s(&[0, 2])],
                // lhs(C) = {C, AB, AD, AE}
                vec![s(&[2]), s(&[0, 1]), s(&[0, 3]), s(&[0, 4])],
            ),
            (
                vec![s(&[1, 2, 3, 4])],
                // lhs(E) = {B, C, D, E}
                vec![s(&[1]), s(&[2]), s(&[3]), s(&[4])],
            ),
        ];
        for (edges, mut expected) in cases {
            let h = Hypergraph::new(5, edges);
            expected.sort();
            assert_eq!(h.min_transversals_levelwise(), expected);
        }
    }

    #[test]
    fn single_edge() {
        let h = Hypergraph::new(4, vec![s(&[1, 3])]);
        assert_eq!(h.min_transversals_levelwise(), vec![s(&[1]), s(&[3])]);
    }

    #[test]
    fn disjoint_edges_cross_product() {
        // Tr({{0,1},{2,3}}) = {02, 03, 12, 13}
        let h = Hypergraph::new(4, vec![s(&[0, 1]), s(&[2, 3])]);
        let tr = h.min_transversals_levelwise();
        assert_eq!(tr.len(), 4);
        for t in [s(&[0, 2]), s(&[0, 3]), s(&[1, 2]), s(&[1, 3])] {
            assert!(tr.contains(&t));
        }
    }

    #[test]
    fn triangle_graph() {
        // Edges of a triangle: Tr = pairs of vertices.
        let h = Hypergraph::new(3, vec![s(&[0, 1]), s(&[1, 2]), s(&[0, 2])]);
        let tr = h.min_transversals_levelwise();
        assert_eq!(tr, vec![s(&[0, 1]), s(&[0, 2]), s(&[1, 2])]);
    }

    #[test]
    fn singleton_edges_force_inclusion() {
        let h = Hypergraph::new(4, vec![s(&[0]), s(&[2, 3])]);
        let tr = h.min_transversals_levelwise();
        assert_eq!(tr, vec![s(&[0, 2]), s(&[0, 3])]);
    }

    #[test]
    fn parallel_levels_match_sequential_above_threshold() {
        // 8 disjoint pairs: Tr is the 2^8 = 256-way cross product, and the
        // middle lattice levels are wide enough (C(8,5)·2^5 = 1792) to cross
        // PAR_LEVEL_THRESHOLD, exercising the parallel split path.
        let edges: Vec<AttrSet> = (0..8).map(|i| s(&[2 * i, 2 * i + 1])).collect();
        let h = Hypergraph::new(16, edges);
        let tr = |par| min_transversals_governed(&h, par, &CancelToken::unlimited()).unwrap();
        let seq = tr(Parallelism::Sequential);
        assert_eq!(seq.len(), 256);
        for par in [Parallelism::Threads(2), Parallelism::Threads(4)] {
            assert_eq!(tr(par), seq, "{par:?}");
        }
    }

    #[test]
    fn every_result_is_minimal_transversal() {
        let h = Hypergraph::new(
            6,
            vec![s(&[0, 1, 2]), s(&[2, 3]), s(&[1, 4, 5]), s(&[0, 5])],
        );
        let tr = h.min_transversals_levelwise();
        assert!(!tr.is_empty());
        for &t in &tr {
            assert!(h.is_minimal_transversal(t), "{t} not a minimal transversal");
        }
        // and pairwise incomparable
        for &a in &tr {
            for &b in &tr {
                assert!(a == b || !a.is_subset_of(b));
            }
        }
    }
}
