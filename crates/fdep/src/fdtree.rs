//! The FD-tree: a trie over attribute sets with subset/superset queries.
//!
//! FDEP's inner data structure (\[SF93\]; the same structure later powers
//! FastFDs and HyFD). Sets are stored as sorted attribute paths; the three
//! queries the algorithm needs are all sub-linear in the number of stored
//! sets:
//!
//! * [`LhsTrie::contains_subset_of`] — is some stored set ⊆ `x`?
//!   (minimality test during specialization);
//! * [`LhsTrie::remove_subsets_of`] — extract every stored set ⊆ `x`
//!   (the generalizations invalidated by a violated FD);
//! * [`LhsTrie::insert`] — add a set (no dedup of supersets; callers keep
//!   the trie an antichain via the two queries above).

use depminer_relation::AttrSet;

/// One trie node. Children are kept sorted by attribute for deterministic
/// traversal; `terminal` marks a stored set ending here.
#[derive(Debug, Clone, Default)]
struct Node {
    children: Vec<(u16, Node)>,
    terminal: bool,
}

impl Node {
    fn child(&self, a: u16) -> Option<&Node> {
        self.children
            .binary_search_by_key(&a, |(k, _)| *k)
            .ok()
            .map(|i| &self.children[i].1)
    }

    fn child_mut_or_insert(&mut self, a: u16) -> &mut Node {
        match self.children.binary_search_by_key(&a, |(k, _)| *k) {
            Ok(i) => &mut self.children[i].1,
            Err(i) => {
                self.children.insert(i, (a, Node::default()));
                &mut self.children[i].1
            }
        }
    }
}

/// A set-trie of attribute sets (lhs candidates for one rhs).
#[derive(Debug, Clone, Default)]
pub struct LhsTrie {
    root: Node,
    len: usize,
}

impl LhsTrie {
    /// An empty trie.
    pub fn new() -> Self {
        LhsTrie::default()
    }

    /// Number of stored sets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no sets are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `x`. Returns `false` if `x` was already present.
    pub fn insert(&mut self, x: AttrSet) -> bool {
        let mut node = &mut self.root;
        for a in x.iter() {
            node = node.child_mut_or_insert(a as u16);
        }
        if node.terminal {
            false
        } else {
            node.terminal = true;
            self.len += 1;
            true
        }
    }

    /// `true` iff `x` itself is stored.
    pub fn contains(&self, x: AttrSet) -> bool {
        let mut node = &self.root;
        for a in x.iter() {
            match node.child(a as u16) {
                Some(n) => node = n,
                None => return false,
            }
        }
        node.terminal
    }

    /// `true` iff some stored set is a subset of `x` (including `x` itself
    /// and the empty set).
    pub fn contains_subset_of(&self, x: AttrSet) -> bool {
        fn rec(node: &Node, x: AttrSet, from: usize) -> bool {
            if node.terminal {
                return true;
            }
            for (a, child) in &node.children {
                let a = *a as usize;
                if a < from {
                    continue;
                }
                if x.contains(a) && rec(child, x, a + 1) {
                    return true;
                }
            }
            false
        }
        rec(&self.root, x, 0)
    }

    /// Removes every stored set that is a subset of `x`, returning them.
    pub fn remove_subsets_of(&mut self, x: AttrSet) -> Vec<AttrSet> {
        let mut removed = Vec::new();
        fn rec(node: &mut Node, x: AttrSet, prefix: AttrSet, removed: &mut Vec<AttrSet>) -> bool {
            if node.terminal {
                node.terminal = false;
                removed.push(prefix);
            }
            node.children.retain_mut(|(a, child)| {
                let a_us = *a as usize;
                if !x.contains(a_us) {
                    return true; // the subtree requires an attribute ∉ x
                }

                rec(child, x, prefix.with(a_us), removed)
            });
            node.terminal || !node.children.is_empty()
        }
        rec(&mut self.root, x, AttrSet::empty(), &mut removed);
        self.len -= removed.len();
        removed
    }

    /// All stored sets, in trie (colex-ish) order.
    pub fn iter_sets(&self) -> Vec<AttrSet> {
        let mut out = Vec::with_capacity(self.len);
        fn rec(node: &Node, prefix: AttrSet, out: &mut Vec<AttrSet>) {
            if node.terminal {
                out.push(prefix);
            }
            for (a, child) in &node.children {
                rec(child, prefix.with(*a as usize), out);
            }
        }
        rec(&self.root, AttrSet::empty(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    #[test]
    fn insert_and_contains() {
        let mut t = LhsTrie::new();
        assert!(t.insert(s(&[0, 2])));
        assert!(t.insert(s(&[1])));
        assert!(!t.insert(s(&[0, 2]))); // duplicate
        assert_eq!(t.len(), 2);
        assert!(t.contains(s(&[0, 2])));
        assert!(t.contains(s(&[1])));
        assert!(!t.contains(s(&[0])));
        assert!(!t.contains(s(&[0, 1, 2])));
    }

    #[test]
    fn empty_set_is_storable() {
        let mut t = LhsTrie::new();
        assert!(t.insert(AttrSet::empty()));
        assert!(t.contains(AttrSet::empty()));
        assert!(t.contains_subset_of(s(&[3, 4])));
        assert_eq!(
            t.remove_subsets_of(AttrSet::empty()),
            vec![AttrSet::empty()]
        );
        assert!(t.is_empty());
    }

    #[test]
    fn subset_query() {
        let mut t = LhsTrie::new();
        t.insert(s(&[0, 2]));
        t.insert(s(&[1, 3]));
        assert!(t.contains_subset_of(s(&[0, 1, 2])));
        assert!(t.contains_subset_of(s(&[1, 3, 4])));
        assert!(!t.contains_subset_of(s(&[0, 1])));
        assert!(!t.contains_subset_of(s(&[2, 3])));
        assert!(!t.contains_subset_of(AttrSet::empty()));
    }

    #[test]
    fn remove_subsets() {
        let mut t = LhsTrie::new();
        for x in [s(&[0]), s(&[0, 1]), s(&[2]), s(&[1, 3]), s(&[0, 1, 2])] {
            t.insert(x);
        }
        let mut removed = t.remove_subsets_of(s(&[0, 1, 2]));
        removed.sort();
        // AttrSet order is by bit value: A < AB < C < ABC.
        assert_eq!(removed, vec![s(&[0]), s(&[0, 1]), s(&[2]), s(&[0, 1, 2])]);
        assert_eq!(t.len(), 1);
        assert!(t.contains(s(&[1, 3])));
        // Interior nodes left behind by removal do not resurrect sets.
        assert!(!t.contains(s(&[0])));
        assert!(!t.contains_subset_of(s(&[0, 1, 2])));
    }

    #[test]
    fn iter_returns_everything() {
        let mut t = LhsTrie::new();
        let sets = [s(&[4]), s(&[0, 1]), s(&[2, 3, 5])];
        for x in sets {
            t.insert(x);
        }
        let mut got = t.iter_sets();
        got.sort();
        let mut want = sets.to_vec();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn stress_against_naive_set() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(44);
        let mut trie = LhsTrie::new();
        let mut naive: Vec<AttrSet> = Vec::new();
        for _ in 0..500 {
            let x = AttrSet::from_bits(rng.gen_range(0u32..256) as u128);
            match rng.gen_range(0..3u32) {
                0 => {
                    let inserted = trie.insert(x);
                    assert_eq!(inserted, !naive.contains(&x));
                    if inserted {
                        naive.push(x);
                    }
                }
                1 => {
                    assert_eq!(
                        trie.contains_subset_of(x),
                        naive.iter().any(|n| n.is_subset_of(x)),
                        "subset query mismatch for {x}"
                    );
                }
                _ => {
                    let mut removed = trie.remove_subsets_of(x);
                    removed.sort();
                    let mut expected: Vec<AttrSet> = naive
                        .iter()
                        .copied()
                        .filter(|n| n.is_subset_of(x))
                        .collect();
                    expected.sort();
                    assert_eq!(removed, expected);
                    naive.retain(|n| !n.is_subset_of(x));
                }
            }
            assert_eq!(trie.len(), naive.len());
        }
    }
}
