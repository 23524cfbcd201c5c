//! A set-trie over attribute sets with a subset query: the store behind
//! Berge's transversal algorithm.
//!
//! This is FDEP's FD-tree (\[SF93\]; the same structure later powers
//! FastFDs and HyFD). Sets are stored as ascending attribute paths, so
//! [`SetTrie::remove_subsets_of`] — extract every stored set ⊆ `x`, the
//! transversals that miss the edge `R \ x` — prunes every subtree that
//! leaves `x` and is sub-linear in the number of stored sets.
//!
//! [`SetTrie::insert`] does no dedup of supersets: Berge's step keeps
//! the trie an antichain by inserting only minimal transversals.

use depminer_relation::AttrSet;

/// One trie node. Children are kept sorted by attribute for deterministic
/// traversal; `terminal` marks a stored set ending here.
#[derive(Default)]
struct Node {
    children: Vec<(u16, Node)>,
    terminal: bool,
}

impl Node {
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

/// A set-trie of attribute sets.
#[derive(Default)]
pub(crate) struct SetTrie {
    root: Node,
    len: usize,
}

impl SetTrie {
    /// Number of stored sets.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Inserts `x`. Returns `false` if `x` was already present.
    pub(crate) fn insert(&mut self, x: AttrSet) -> bool {
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

    /// Removes every stored set that is a subset of `x`, returning them.
    pub(crate) fn remove_subsets_of(&mut self, x: AttrSet) -> Vec<AttrSet> {
        let mut removed = Vec::new();
        fn rec(node: &mut Node, x: AttrSet, prefix: AttrSet, removed: &mut Vec<AttrSet>) -> bool {
            if node.terminal {
                node.terminal = false;
                removed.push(prefix);
            }
            node.children.retain_mut(|(a, child)| {
                let a = *a as usize;
                // A subtree outside `x` holds no subset of it.
                !x.contains(a) || rec(child, x, prefix.with(a), removed)
            });
            node.terminal || !node.children.is_empty()
        }
        rec(&mut self.root, x, AttrSet::empty(), &mut removed);
        self.len -= removed.len();
        removed
    }

    /// All stored sets, in trie (colex-ish) order.
    pub(crate) fn iter_sets(&self) -> Vec<AttrSet> {
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
    fn insert_and_iterate() {
        let mut t = SetTrie::default();
        assert!(t.insert(s(&[0, 2])));
        assert!(t.insert(s(&[1])));
        assert!(!t.insert(s(&[0, 2]))); // duplicate
        assert_eq!(t.len(), 2);
        // Interior nodes are not stored sets.
        assert_eq!(t.iter_sets(), vec![s(&[0, 2]), s(&[1])]);
    }

    #[test]
    fn empty_set_is_storable() {
        let mut t = SetTrie::default();
        assert!(t.insert(AttrSet::empty()));
        assert_eq!(t.iter_sets(), vec![AttrSet::empty()]);
        assert_eq!(
            t.remove_subsets_of(AttrSet::empty()),
            vec![AttrSet::empty()]
        );
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn remove_subsets() {
        let mut t = SetTrie::default();
        for x in [s(&[0]), s(&[0, 1]), s(&[2]), s(&[1, 3]), s(&[0, 1, 2])] {
            t.insert(x);
        }
        let mut removed = t.remove_subsets_of(s(&[0, 1, 2]));
        removed.sort();
        // AttrSet order is by bit value: A < AB < C < ABC.
        assert_eq!(removed, vec![s(&[0]), s(&[0, 1]), s(&[2]), s(&[0, 1, 2])]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.iter_sets(), vec![s(&[1, 3])]);
        // Interior nodes left behind by removal do not resurrect sets.
        assert!(t.remove_subsets_of(s(&[0, 1, 2])).is_empty());
    }

    #[test]
    fn iter_returns_everything() {
        let mut t = SetTrie::default();
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
        let mut trie = SetTrie::default();
        let mut naive: Vec<AttrSet> = Vec::new();
        for _ in 0..500 {
            let x = AttrSet::from_bits(rng.gen_range(0u32..256) as u128);
            match rng.gen_range(0..2u32) {
                0 => {
                    let inserted = trie.insert(x);
                    assert_eq!(inserted, !naive.contains(&x));
                    if inserted {
                        naive.push(x);
                    }
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
