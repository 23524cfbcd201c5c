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
//! The transversal test of step 1 reads an *edge cover* instead of the
//! edges: bit `e` of a candidate's cover is set iff the candidate meets
//! edge `e`, and a candidate's cover is the OR of its generating pair's,
//! as Zaki's Eclat (IEEE TKDE, 2000) carries tid-lists and Hébert,
//! Bretto and Crémilleux (Fundamenta Informaticae, 2007) run this search
//! on vertical bitsets. A candidate is a transversal iff its cover is
//! full: one OR and one compare per candidate, where the paper's test
//! scans every edge.

use crate::{edge_covers, Hypergraph};
use depminer_govern::{BudgetExceeded, CancelToken, Stage};
use depminer_relation::{apriori_gen, AttrSet};

/// Computes `Tr(H)`: all minimal transversals of `h`, sorted, under a
/// live [`CancelToken`], on the calling thread.
///
/// Returns `[∅]` when `h` has no edges (the empty set is then the unique
/// minimal transversal), matching Algorithm 5's behaviour of `L₁ = ∅`.
///
/// A level's edge covers live in one flat buffer, `⌈|edges|/64⌉` words
/// per candidate in level order. Level 1's are built from the edges,
/// one singleton per vertex of the support; each later candidate's is
/// the OR of the covers of the pair [`apriori_gen`] generated it from.
///
/// Checkpoints: once per lattice level (depth + candidate-count budgets,
/// deadline, and the level's sets and covers against the memory
/// budget). On a trip the search unwinds immediately with the budget
/// error; no partial transversal list is returned, because a truncated
/// level walk cannot certify minimality of what it has emitted — the
/// caller treats the whole attribute as unprocessed.
pub fn min_transversals_governed(
    h: &Hypergraph,
    token: &CancelToken,
) -> Result<Vec<AttrSet>, BudgetExceeded> {
    let _span = token.observer().span("transversals/levelwise");
    if h.is_empty() {
        return Ok(vec![AttrSet::empty()]);
    }
    let edges = h.edges();
    let words = edges.len().div_ceil(64);
    let last_word = match edges.len() % 64 {
        0 => u64::MAX,
        bits => (1u64 << bits) - 1,
    };
    let is_full = |cover: &[u64]| {
        cover[..words - 1].iter().all(|&w| w == u64::MAX) && cover[words - 1] == last_word
    };
    // L1: the vertices appearing in some edge, ascending, each covering
    // the edges that contain it.
    let support = h.vertex_support();
    let mut level: Vec<AttrSet> = support.singletons().collect();
    let mut covers = edge_covers(edges, support);
    let mut next_covers: Vec<u64> = Vec::new();
    let candidate_bytes = std::mem::size_of::<AttrSet>() + words * std::mem::size_of::<u64>();
    let mut result: Vec<AttrSet> = Vec::new();
    let mut depth = 1usize;
    while !level.is_empty() {
        token.enter_level(depth, Stage::Transversals)?;
        token.add_candidates(level.len() as u64, Stage::Transversals)?;
        let level_bytes = (level.len() * candidate_bytes) as u64;
        token.reserve_memory(level_bytes, Stage::Transversals)?;
        // Split the level into transversals (emitted) and survivors, whose
        // covers move down to the survivor's index.
        let mut survivors: Vec<AttrSet> = Vec::with_capacity(level.len());
        for (c, &cand) in level.iter().enumerate() {
            let at = c * words;
            if is_full(&covers[at..at + words]) {
                result.push(cand);
            } else {
                covers.copy_within(at..at + words, survivors.len() * words);
                survivors.push(cand);
            }
        }
        let next = apriori_gen(&survivors);
        next_covers.clear();
        for &(_, i, j) in &next {
            let (x, y) = (&covers[i * words..][..words], &covers[j * words..][..words]);
            next_covers.extend(x.iter().zip(y).map(|(a, b)| a | b));
        }
        std::mem::swap(&mut covers, &mut next_covers);
        level = next.into_iter().map(|p| p.0).collect();
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
    fn disjoint_pairs_cross_product_matches_berge() {
        // 8 disjoint pairs: Tr is the 2^8 = 256-way cross product, and the
        // middle lattice levels are wide (C(8,5)·2^5 = 1792 candidates).
        let edges: Vec<AttrSet> = (0..8).map(|i| s(&[2 * i, 2 * i + 1])).collect();
        let h = Hypergraph::new(16, edges);
        let tr = h.min_transversals_levelwise();
        assert_eq!(tr.len(), 256);
        assert_eq!(tr, h.min_transversals_berge());
    }

    #[test]
    fn covers_across_word_boundaries() {
        // The first m 4-subsets of an 11-vertex universe straddling both
        // halves of the 128-bit vertex space: sets of one size form an
        // antichain, so the hypergraph keeps all m edges, and the covers
        // take one, two, three or four words, with m % 64 hitting 63, 0
        // and 1.
        let universe = s(&[0, 1, 2, 3, 62, 63, 64, 65, 125, 126, 127]);
        let quads: Vec<AttrSet> = universe.subsets().filter(|x| x.len() == 4).collect();
        for m in [63, 64, 65, 127, 128, 129, 200] {
            let h = Hypergraph::new(128, quads[..m].to_vec());
            assert_eq!(h.edges().len(), m);
            let brute: Vec<AttrSet> = universe
                .subsets()
                .filter(|&t| h.is_minimal_transversal(t))
                .collect();
            let levelwise = h.min_transversals_levelwise();
            assert_eq!(levelwise, h.min_transversals_berge(), "m = {m}");
            assert_eq!(levelwise, brute, "m = {m}");
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
