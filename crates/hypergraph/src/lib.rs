//! # depminer-hypergraph
//!
//! Simple hypergraphs over attribute sets and **minimal transversal**
//! computation — the combinatorial engine behind Dep-Miner's
//! `LEFT_HAND_SIDE` step (Algorithm 5 of the paper) and FDEP's
//! inversion of its negative cover.
//!
//! A collection `H` of subsets of `R` is a *simple hypergraph* if no edge is
//! empty and no edge contains another (§2, after Berge). A *transversal*
//! intersects every edge; [`Hypergraph::min_transversals_levelwise`]
//! computes the set `Tr(H)` of minimal transversals with the paper's
//! levelwise algorithm (Apriori-gen candidate generation), and
//! [`Hypergraph::min_transversals_berge`] with Berge's edge-by-edge
//! algorithm on a set-trie, the cross-check the tests compare levelwise
//! against and the inversion step of FDEP. Each engine is one governed
//! function, [`levelwise::min_transversals_governed`] or
//! [`berge::min_transversals_governed`], behind one audited, ungoverned
//! convenience method here. Both test transversals on per-vertex edge
//! covers, vertical bitsets built in one place: levelwise ORs a
//! candidate's covers, Berge reads each extension's private edges off
//! them. [`Hypergraph::new`] minimizes arbitrary edges;
//! [`Hypergraph::from_antichain`] takes edges known to be simple, as
//! Dep-Miner's `cmax` families are, and audits the claim instead.

#![warn(missing_docs)]

pub mod berge;
pub mod levelwise;
mod settrie;

use depminer_govern::{BudgetExceeded, CancelToken};
use depminer_relation::invariants::{audits_enabled, enforce, InvariantError};
use depminer_relation::{retain_minimal, AttrSet};
use std::fmt;

/// A simple hypergraph: a ⊆-antichain of non-empty edges over a vertex
/// universe `0..n_vertices`.
///
/// # Examples
///
/// ```
/// use depminer_hypergraph::Hypergraph;
/// use depminer_relation::AttrSet;
///
/// // H = { {0,1}, {1,2} } over 3 vertices.
/// let h = Hypergraph::new(
///     3,
///     vec![AttrSet::from_indices([0, 1]), AttrSet::from_indices([1, 2])],
/// );
/// let tr = h.min_transversals_levelwise();
/// // Tr(H) = { {1}, {0,2} }
/// assert_eq!(tr.len(), 2);
/// assert!(tr.contains(&AttrSet::singleton(1)));
/// assert!(tr.contains(&AttrSet::from_indices([0, 2])));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Hypergraph {
    n_vertices: usize,
    edges: Vec<AttrSet>,
}

impl Hypergraph {
    /// Builds a simple hypergraph from arbitrary edges: empty edges are
    /// dropped and non-minimal edges removed (simplification), since
    /// transversals of `H` and of its minimal edges coincide.
    pub fn new(n_vertices: usize, mut edges: Vec<AttrSet>) -> Self {
        edges.retain(|e| !e.is_empty());
        retain_minimal(&mut edges);
        edges.sort();
        Hypergraph { n_vertices, edges }
    }

    /// Builds a simple hypergraph from edges that already are one:
    /// non-empty and pairwise incomparable, such as the complements
    /// `cmax(dep(r), A)` of the antichain `max(dep(r), A)`. Only sorts,
    /// skipping [`Hypergraph::new`]'s quadratic minimization; when audits
    /// are enabled, it checks that the edges are non-empty and pairwise
    /// incomparable.
    pub fn from_antichain(n_vertices: usize, mut edges: Vec<AttrSet>) -> Self {
        edges.sort_unstable();
        let h = Hypergraph { n_vertices, edges };
        if audits_enabled() {
            enforce(h.audit_antichain());
        }
        h
    }

    /// Number of vertices in the universe.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// The (minimized, sorted) edges.
    #[inline]
    pub fn edges(&self) -> &[AttrSet] {
        &self.edges
    }

    /// `true` when the hypergraph has no edges (every set, including `∅`,
    /// is then a transversal, and `Tr(H) = {∅}`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The union of all edges: the vertices that actually matter for
    /// transversals.
    pub fn vertex_support(&self) -> AttrSet {
        self.edges
            .iter()
            .fold(AttrSet::empty(), |acc, &e| acc.union(e))
    }

    /// `true` iff `t` intersects every edge.
    pub fn is_transversal(&self, t: AttrSet) -> bool {
        self.edges.iter().all(|&e| t.intersects(e))
    }

    /// `true` iff `t` is a transversal and no proper subset of `t` is.
    ///
    /// Minimality check uses the standard criterion: every vertex of `t` has
    /// a *private* edge that `t` meets only through that vertex.
    pub fn is_minimal_transversal(&self, t: AttrSet) -> bool {
        if !self.is_transversal(t) {
            return false;
        }
        t.iter().all(|v| {
            let rest = t.without(v);
            self.edges
                .iter()
                .any(|&e| e.contains(v) && !rest.intersects(e))
        })
    }

    /// Minimal transversals via the paper's levelwise algorithm
    /// (Algorithm 5), ungoverned and audited when audits are enabled. See
    /// [`levelwise::min_transversals_governed`].
    pub fn min_transversals_levelwise(&self) -> Vec<AttrSet> {
        self.audited(levelwise::min_transversals_governed(
            self,
            &CancelToken::unlimited(),
        ))
    }

    /// Minimal transversals via Berge's incremental algorithm, ungoverned
    /// and audited when audits are enabled. See
    /// [`berge::min_transversals_governed`].
    pub fn min_transversals_berge(&self) -> Vec<AttrSet> {
        self.audited(berge::min_transversals_governed(
            self,
            &CancelToken::unlimited(),
        ))
    }

    /// An unlimited engine run's result, audited when audits are enabled.
    fn audited(&self, run: Result<Vec<AttrSet>, BudgetExceeded>) -> Vec<AttrSet> {
        let tr = run.expect("an unlimited token never trips");
        if audits_enabled() {
            enforce(self.audit_transversals(&tr));
        }
        tr
    }

    /// Audits an engine's output: `tr` must be sorted and duplicate-free,
    /// non-empty, and every member must hit every edge *and* be minimal
    /// (checked with the private-edge criterion, independent of how the
    /// engine found it). The empty hypergraph's unique answer is `{∅}`.
    ///
    /// Both convenience methods, Dep-Miner's lhs step and
    /// `depminer_core::audit_lhs` run this when audits are enabled
    /// (debug/test builds, or the `invariants` feature).
    pub fn audit_transversals(&self, tr: &[AttrSet]) -> Result<(), InvariantError> {
        let err = |d: String| Err(InvariantError::new("Transversals", d));
        if !tr.windows(2).all(|w| w[0] < w[1]) {
            return err(format!("output is not sorted/deduplicated: {tr:?}"));
        }
        if self.is_empty() {
            if tr != [AttrSet::empty()] {
                return err(format!(
                    "Tr of the empty hypergraph must be {{∅}}, got {tr:?}"
                ));
            }
            return Ok(());
        }
        if tr.is_empty() {
            return err("a non-empty simple hypergraph always has a minimal transversal".into());
        }
        for &t in tr {
            if !self.is_transversal(t) {
                return err(format!("{t} misses an edge"));
            }
            if !self.is_minimal_transversal(t) {
                return err(format!("{t} is a transversal but not minimal"));
            }
        }
        Ok(())
    }

    /// Audits that the edges form a simple hypergraph: sorted, none
    /// empty, and no edge a subset of another. [`Hypergraph::new`]
    /// establishes this; [`Hypergraph::from_antichain`] relies on its
    /// caller and runs this check when audits are enabled.
    pub(crate) fn audit_antichain(&self) -> Result<(), InvariantError> {
        let err = |d: String| Err(InvariantError::new("Hypergraph", d));
        if !self.edges.windows(2).all(|w| w[0] < w[1]) {
            return err(format!("edges are not sorted/deduplicated: {self:?}"));
        }
        if self.edges.first() == Some(&AttrSet::empty()) {
            return err("an edge is empty".into());
        }
        for (i, &e) in self.edges.iter().enumerate() {
            if let Some(&f) = self.edges[i + 1..]
                .iter()
                .find(|&&f| e.is_subset_of(f) || f.is_subset_of(e))
            {
                return err(format!("edges {e} and {f} are nested"));
            }
        }
        Ok(())
    }

    /// The transversal hypergraph `Tr(H)` as a new [`Hypergraph`]
    /// (levelwise engine).
    pub fn transversal_hypergraph(&self) -> Hypergraph {
        Hypergraph::new(self.n_vertices, self.min_transversals_levelwise())
    }
}

/// Per-vertex edge covers of `edges`, the vertical bitsets both engines
/// test transversals with: for each vertex of `vertices`, ascending,
/// `⌈|edges|/64⌉` words in which bit `i` (word `i / 64`, bit `i % 64`)
/// is set iff `edges[i]` holds the vertex.
pub(crate) fn edge_covers(edges: &[AttrSet], vertices: AttrSet) -> Vec<u64> {
    let words = edges.len().div_ceil(64);
    let mut covers = Vec::with_capacity(vertices.len() * words);
    for v in vertices.iter() {
        covers.extend(edges.chunks(64).map(|chunk| {
            chunk.iter().enumerate().fold(0, |word, (bit, e)| {
                word | ((e.bits() >> v) as u64 & 1) << bit
            })
        }));
    }
    covers
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hypergraph(n={}, edges=[", self.n_vertices)?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    #[test]
    fn construction_simplifies() {
        let h = Hypergraph::new(
            4,
            vec![s(&[0, 1, 2]), s(&[0, 1]), AttrSet::empty(), s(&[0, 1])],
        );
        assert_eq!(h.edges(), &[s(&[0, 1])]);
    }

    #[test]
    fn from_antichain_only_sorts() {
        let edges = vec![s(&[1, 2]), s(&[0, 1]), s(&[0, 2])];
        let h = Hypergraph::from_antichain(3, edges.clone());
        assert_eq!(h, Hypergraph::new(3, edges));
        h.audit_antichain().unwrap();
    }

    #[test]
    fn antichain_audit_rejects_a_nested_pair_and_an_empty_edge() {
        // Built past `from_antichain`, which would enforce the audit.
        let nested = Hypergraph {
            n_vertices: 3,
            edges: vec![s(&[0]), s(&[0, 1]), s(&[2])],
        };
        let e = nested.audit_antichain().unwrap_err();
        assert!(e.detail.contains("nested"), "{e}");
        let empty = Hypergraph {
            n_vertices: 3,
            edges: vec![AttrSet::empty(), s(&[1])],
        };
        let e = empty.audit_antichain().unwrap_err();
        assert!(e.detail.contains("empty"), "{e}");
        let unsorted = Hypergraph {
            n_vertices: 3,
            edges: vec![s(&[1]), s(&[0])],
        };
        assert!(unsorted.audit_antichain().is_err());
    }

    #[test]
    fn edge_covers_set_bit_i_for_edge_i() {
        // 70 edges, so vertex 64's cover spans two words.
        let edges: Vec<AttrSet> = (0..70).map(|i| s(&[i % 3, 64 + i % 2])).collect();
        let covers = edge_covers(&edges, s(&[1, 64]));
        assert_eq!(covers.len(), 4);
        for (slot, v) in [1, 64].into_iter().enumerate() {
            for (i, e) in edges.iter().enumerate() {
                let bit = covers[slot * 2 + i / 64] >> (i % 64) & 1;
                assert_eq!(bit == 1, e.contains(v), "vertex {v}, edge {i}");
            }
        }
    }

    #[test]
    fn transversal_predicates() {
        let h = Hypergraph::new(3, vec![s(&[0, 1]), s(&[1, 2])]);
        assert!(h.is_transversal(s(&[1])));
        assert!(h.is_transversal(s(&[0, 1, 2])));
        assert!(!h.is_transversal(s(&[0])));
        assert!(h.is_minimal_transversal(s(&[1])));
        assert!(h.is_minimal_transversal(s(&[0, 2])));
        assert!(!h.is_minimal_transversal(s(&[0, 1])));
        assert!(!h.is_minimal_transversal(AttrSet::empty()));
    }

    #[test]
    fn empty_hypergraph_has_empty_transversal() {
        let h = Hypergraph::new(3, vec![]);
        assert!(h.is_empty());
        assert!(h.is_transversal(AttrSet::empty()));
        assert!(h.is_minimal_transversal(AttrSet::empty()));
        assert_eq!(h.min_transversals_levelwise(), vec![AttrSet::empty()]);
        assert_eq!(h.min_transversals_berge(), vec![AttrSet::empty()]);
    }

    #[test]
    fn vertex_support() {
        let h = Hypergraph::new(10, vec![s(&[1, 3]), s(&[3, 7])]);
        assert_eq!(h.vertex_support(), s(&[1, 3, 7]));
    }

    #[test]
    fn transversal_audit_rejects_corrupted_output() {
        let h = Hypergraph::new(3, vec![s(&[0, 1]), s(&[1, 2])]);
        let good = h.min_transversals_levelwise();
        h.audit_transversals(&good).unwrap();
        // A set that misses the {1,2} edge.
        let e = h.audit_transversals(&[s(&[0])]).unwrap_err();
        assert!(e.detail.contains("misses an edge"), "{e}");
        // A transversal that is not minimal.
        let e = h.audit_transversals(&[s(&[0, 1, 2])]).unwrap_err();
        assert!(e.detail.contains("not minimal"), "{e}");
        // Unsorted / duplicated output.
        let e = h.audit_transversals(&[s(&[0, 2]), s(&[1])]).unwrap_err();
        assert!(e.detail.contains("sorted"), "{e}");
        // A non-empty hypergraph never has zero minimal transversals.
        assert!(h.audit_transversals(&[]).is_err());
        // The empty hypergraph's unique answer is {∅}.
        let empty = Hypergraph::new(3, vec![]);
        empty.audit_transversals(&[AttrSet::empty()]).unwrap();
        assert!(empty.audit_transversals(&[s(&[0])]).is_err());
    }

    #[test]
    fn nihilpotence_on_small_graphs() {
        // Tr(Tr(H)) = H for simple hypergraphs (Berge; §5.1 of the paper).
        let cases = vec![
            vec![s(&[0, 1]), s(&[1, 2])],
            vec![s(&[0]), s(&[1, 2, 3])],
            vec![s(&[0, 1, 2])],
            vec![s(&[0, 2]), s(&[1, 3]), s(&[0, 3])],
        ];
        for edges in cases {
            let h = Hypergraph::new(4, edges);
            let trtr = h.transversal_hypergraph().transversal_hypergraph();
            assert_eq!(trtr.edges(), h.edges(), "Tr(Tr(H)) != H for {h:?}");
        }
    }
}
