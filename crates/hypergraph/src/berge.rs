//! Berge's incremental minimal-transversal algorithm.
//!
//! Processes edges one at a time, smallest first, maintaining the minimal
//! transversals of the prefix hypergraph in a set-trie: to add edge `E`,
//! every current transversal that meets `E` is kept; each one that
//! misses it, i.e. each subset of `R \ E`, is taken out and extended by
//! every vertex of `E`, and an extension joins the trie only if it is a
//! minimal transversal of the new prefix.
//!
//! That last test is the private-edge criterion
//! [`Hypergraph::is_minimal_transversal`] audits with, read off edge
//! covers (the vertical bitsets the levelwise engine carries): bit `i`
//! of `cover(v)` is set iff the `i`-th processed edge holds `v`. For a
//! missed `x` and `u ∈ x`, `crit(x, u)` is the prefix edges that `x`
//! meets only in `u`. MMCS (Murakami & Uno, Discrete Applied
//! Mathematics, 2014) drives its search with the same sets.
//!
//! This is also FDEP's inversion of its negative cover (\[SF93\]): for
//! rhs `A`, FDEP's specialization of `∅ → A` against each maximal
//! violated lhs `Y` is this step on the edge `R \ Y`, which is why FDEP
//! is Dep-Miner's pipeline on this engine. Dep-Miner's tests and
//! ablation A2 compare the levelwise engine against it.

use crate::settrie::SetTrie;
use crate::{edge_covers, Hypergraph};
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
/// The trie holds exactly `Tr(E_0..E_i)` after edge `E_i`, an antichain
/// with no minimization pass. A missed `x` is a minimal transversal of
/// `E_0..E_{i-1}`, so each `u ∈ x` has a private edge there:
/// `crit(x, u) = prefix_i ∧ cover(u) ∧ ¬⋃_{w ∈ x \ u} cover(w)` is not
/// empty. For `v ∈ E_i`, `E_i` is `v`'s private edge in `x ∪ {v}`, and
/// `u` keeps one iff `crit(x, u) ∧ ¬cover(v) ≠ 0`. So `x ∪ {v}` joins iff
/// that holds for every `u ∈ x`, which is exactly "`x ∪ {v}` is a
/// minimal transversal of `E_0..E_i`". Every such set is a kept member
/// or an extension, and no two extensions coincide: `x ∪ {v} = x' ∪ {v'}`
/// with `x ≠ x'` puts `v ∈ E_i` inside `x'`, which misses `E_i`.
///
/// One "once/twice" OR pass over `x`'s covers yields every
/// `crit(x, u)`. The test then runs for all of `E_i` at once:
/// `crit(x, u) ∧ ¬cover(v) = 0` says that `v` lies in every edge of
/// `crit(x, u)`, so the extensions that fail are `E_i` intersected with
/// the union over `u` of those edges' intersections.
pub fn min_transversals_governed(
    h: &Hypergraph,
    token: &CancelToken,
) -> Result<Vec<AttrSet>, BudgetExceeded> {
    let stage = Stage::Transversals;
    let _span = token.observer().span("transversals/berge");
    let mut edges = h.edges().to_vec();
    edges.sort_by_key(|e| e.len());
    let support = h.vertex_support();
    let words = edges.len().div_ceil(64);
    let covers = edge_covers(&edges, support);
    let cover = |v: usize| {
        // The covers run over the support in ascending order.
        let slot = (support.bits() & ((1u128 << v) - 1)).count_ones() as usize;
        &covers[slot * words..][..words]
    };
    // Per missed set: the prefix edges it meets at least once and at
    // least twice.
    let (mut once, mut twice) = (Vec::new(), Vec::new());
    // Tr of the empty hypergraph is {∅}.
    let mut tr = SetTrie::default();
    tr.insert(AttrSet::empty());
    for (i, &edge) in edges.iter().enumerate() {
        token.check(stage)?;
        let missed = tr.remove_subsets_of(edge.complement(MAX_ATTRS));
        token.add_candidates((tr.len() + missed.len() * edge.len()) as u64, stage)?;
        // The prefix E_0..E_{i-1} spans `live` words, the last one masked.
        let live = i.div_ceil(64);
        let last = match i % 64 {
            0 => u64::MAX,
            bits => (1u64 << bits) - 1,
        };
        for x in missed {
            once.clear();
            once.resize(live, 0u64);
            twice.clear();
            twice.resize(live, 0u64);
            for u in x.iter() {
                for ((o, t), &c) in once.iter_mut().zip(&mut twice).zip(cover(u)) {
                    *t |= *o & c;
                    *o |= c;
                }
            }
            // v ∈ E_i fails u iff crit(x, u) ∧ ¬cover(v) = 0, i.e. iff v
            // lies in every edge of crit(x, u).
            let mut rejected = AttrSet::empty();
            for u in x.iter() {
                let mut fails = edge;
                'crit: for (w, (&c, &t)) in cover(u)[..live].iter().zip(&twice).enumerate() {
                    let mut bits = c & !t;
                    if w + 1 == live {
                        bits &= last;
                    }
                    while bits != 0 {
                        fails = fails.intersection(edges[w * 64 + bits.trailing_zeros() as usize]);
                        if fails.is_empty() {
                            break 'crit;
                        }
                        bits &= bits - 1;
                    }
                }
                rejected = rejected.union(fails);
            }
            for v in edge.difference(rejected).iter() {
                tr.insert(x.with(v));
            }
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
