//! Berge's incremental minimal-transversal algorithm.
//!
//! Processes edges one at a time, smallest first, maintaining the minimal
//! transversals of the prefix hypergraph in a set-trie: to add edge `E`,
//! every current transversal that meets `E` is kept; each one that
//! misses it, i.e. each subset of `R \ E`, is taken out and extended by
//! every vertex of `E`, and an extension joins the trie only if no kept
//! transversal is a subset of it.
//!
//! This is also FDEP's inversion of its negative cover (\[SF93\]): for
//! rhs `A`, FDEP's specialization of `∅ → A` against each maximal
//! violated lhs `Y` is this step on the edge `R \ Y`, which is why FDEP
//! is Dep-Miner's pipeline on this engine. Dep-Miner's tests and
//! ablation A2 compare the levelwise engine against it.

use crate::settrie::SetTrie;
use crate::Hypergraph;
use depminer_govern::{BudgetExceeded, CancelToken, Stage};
use depminer_relation::{AttrSet, MAX_ATTRS};

/// Computes `Tr(H)` with Berge's algorithm, sorted like the levelwise
/// engine's output, under a live [`CancelToken`] charged to
/// [`Stage::Transversals`]: checkpoints once per edge (the prefix
/// transversal set can grow exponentially per step) and counts the kept
/// transversals plus the generated extensions against the candidate
/// budget. On a trip the prefix result is discarded — transversals of a
/// prefix hypergraph say nothing about the full one.
///
/// The trie stays an antichain without a minimization pass. Let `x`,
/// `x'` be members that miss `E`, and `v, v' ∈ E`. Two extensions never
/// nest: `x ∪ {v} ⊆ x' ∪ {v'}` forces `v = v'` and `x ⊆ x'`, so `x = x'`.
/// A kept member `k` never lies strictly above an extension, or `x ⊊ k`.
/// And a kept `k ⊆ x ∪ {v}` meets `E` only in `v`, so the one test an
/// extension needs is for a kept member that holds `v`.
pub fn min_transversals_governed(
    h: &Hypergraph,
    token: &CancelToken,
) -> Result<Vec<AttrSet>, BudgetExceeded> {
    let stage = Stage::Transversals;
    let _span = token.observer().span("transversals/berge");
    let mut edges = h.edges().to_vec();
    edges.sort_by_key(|e| e.len());
    // Tr of the empty hypergraph is {∅}.
    let mut tr = SetTrie::default();
    tr.insert(AttrSet::empty());
    for edge in edges {
        token.check(stage)?;
        let missed = tr.remove_subsets_of(edge.complement(MAX_ATTRS));
        token.add_candidates((tr.len() + missed.len() * edge.len()) as u64, stage)?;
        let fresh: Vec<AttrSet> = missed
            .iter()
            .flat_map(|&x| edge.iter().map(move |v| (x, v)))
            .filter(|&(x, v)| !tr.contains_subset_with(x, v))
            .map(|(x, v)| x.with(v))
            .collect();
        for t in fresh {
            tr.insert(t);
        }
    }
    let mut tr = tr.iter_sets();
    tr.sort_unstable();
    Ok(tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    #[test]
    fn matches_levelwise_on_paper_example() {
        let h = Hypergraph::new(5, vec![s(&[0, 2]), s(&[0, 1, 3])]);
        assert_eq!(h.min_transversals_berge(), h.min_transversals_levelwise());
    }

    #[test]
    fn empty_graph() {
        let h = Hypergraph::new(3, vec![]);
        assert_eq!(h.min_transversals_berge(), vec![AttrSet::empty()]);
    }

    #[test]
    fn dominated_extensions_are_not_kept() {
        // After {0,1}, Tr = {0}, {1}. Edge {1,2} keeps {1} and extends
        // {0} to {0,1}, which holds {1}, and to {0,2}, which joins.
        let h = Hypergraph::new(3, vec![s(&[0, 1]), s(&[1, 2])]);
        assert_eq!(h.min_transversals_berge(), vec![s(&[1]), s(&[0, 2])]);
    }

    #[test]
    fn agrees_with_levelwise_on_exhaustive_small_graphs() {
        // All hypergraphs over 4 vertices with up to 3 random-ish edges.
        let universe: Vec<AttrSet> = (1u32..16).map(|b| AttrSet::from_bits(b as u128)).collect();
        for &e1 in &universe {
            for &e2 in &universe {
                let h = Hypergraph::new(4, vec![e1, e2]);
                assert_eq!(
                    h.min_transversals_berge(),
                    h.min_transversals_levelwise(),
                    "mismatch on {h:?}"
                );
            }
        }
    }

    #[test]
    fn results_are_minimal_transversals() {
        let h = Hypergraph::new(
            6,
            vec![s(&[0, 1, 2]), s(&[2, 3]), s(&[1, 4, 5]), s(&[0, 5])],
        );
        for &t in &h.min_transversals_berge() {
            assert!(h.is_minimal_transversal(t));
        }
    }
}
