//! Candidate keys of an FD set (Lucchesi–Osborn enumeration).

use crate::closure::{closure, ClosureIndex};
use crate::fd::Fd;
use depminer_relation::{retain_minimal, AttrSet};

/// `true` iff `X` is a superkey of `R` w.r.t. `F`: `X⁺ = R`.
pub fn is_superkey(x: AttrSet, fds: &[Fd], n_attrs: usize) -> bool {
    closure(x, fds) == AttrSet::full(n_attrs)
}

/// Reduces a superkey to a (candidate) key by greedily dropping attributes.
pub fn minimize_key(x: AttrSet, fds: &[Fd], n_attrs: usize) -> AttrSet {
    minimize_key_with(&mut ClosureIndex::new(fds), x, n_attrs)
}

/// [`minimize_key`] on a closure index of the FDs, which every superkey
/// test reuses.
fn minimize_key_with(index: &mut ClosureIndex<'_>, x: AttrSet, n_attrs: usize) -> AttrSet {
    let full = AttrSet::full(n_attrs);
    debug_assert!(index.closure(x) == full);
    let mut key = x;
    for a in x.iter() {
        let cand = key.without(a);
        if index.closure(cand) == full {
            key = cand;
        }
    }
    key
}

/// Enumerates all candidate keys of `R` w.r.t. `F` using the
/// Lucchesi–Osborn algorithm: start with one minimized key; for each known
/// key `K` and FD `X → A`, the set `X ∪ (K \ A)` is a superkey, whose
/// minimization may be a new key. Terminates with the complete antichain of
/// keys; output is sorted. One closure index of `fds` serves every
/// superkey test.
pub fn candidate_keys(fds: &[Fd], n_attrs: usize) -> Vec<AttrSet> {
    let mut index = ClosureIndex::new(fds);
    let first = minimize_key_with(&mut index, AttrSet::full(n_attrs), n_attrs);
    let mut keys = vec![first];
    let mut i = 0;
    while i < keys.len() {
        let k = keys[i];
        for f in fds {
            let candidate = f.lhs.union(k.without(f.rhs));
            if !keys.iter().any(|&kk| kk.is_subset_of(candidate)) {
                let new_key = minimize_key_with(&mut index, candidate, n_attrs);
                if !keys.contains(&new_key) {
                    keys.push(new_key);
                }
            }
        }
        i += 1;
    }
    // The construction can momentarily add comparable keys; keep minima.
    retain_minimal(&mut keys);
    keys.sort();
    keys
}

/// The prime attributes: those appearing in at least one candidate key.
pub fn prime_attributes(fds: &[Fd], n_attrs: usize) -> AttrSet {
    candidate_keys(fds, n_attrs)
        .into_iter()
        .fold(AttrSet::empty(), |acc, k| acc.union(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    fn fd(lhs: &[usize], rhs: usize) -> Fd {
        Fd::new(s(lhs), rhs)
    }

    #[test]
    fn single_key() {
        // A→B, A→C over ABC: key = {A}.
        let f = vec![fd(&[0], 1), fd(&[0], 2)];
        assert_eq!(candidate_keys(&f, 3), vec![s(&[0])]);
        assert_eq!(prime_attributes(&f, 3), s(&[0]));
    }

    #[test]
    fn multiple_keys_from_cycle() {
        // A→B, B→A, AB determine C... F = {A→B, B→A, A→C}: keys {A}, {B}.
        let f = vec![fd(&[0], 1), fd(&[1], 0), fd(&[0], 2)];
        assert_eq!(candidate_keys(&f, 3), vec![s(&[0]), s(&[1])]);
        assert_eq!(prime_attributes(&f, 3), s(&[0, 1]));
    }

    #[test]
    fn no_fds_key_is_everything() {
        assert_eq!(candidate_keys(&[], 3), vec![s(&[0, 1, 2])]);
    }

    #[test]
    fn textbook_example() {
        // R(ABCD), F = {AB→C, C→D, D→A}. Keys: AB, BC, BD.
        let f = vec![fd(&[0, 1], 2), fd(&[2], 3), fd(&[3], 0)];
        let keys = candidate_keys(&f, 4);
        assert_eq!(keys.len(), 3);
        for k in [s(&[0, 1]), s(&[1, 2]), s(&[1, 3])] {
            assert!(keys.contains(&k), "missing key {k}");
        }
    }

    #[test]
    fn keys_are_an_antichain_of_superkeys() {
        let f = vec![fd(&[0], 1), fd(&[1, 2], 3), fd(&[3], 0)];
        let keys = candidate_keys(&f, 4);
        for &k in &keys {
            assert!(is_superkey(k, &f, 4));
            for a in k.iter() {
                assert!(!is_superkey(k.without(a), &f, 4), "{k} is not minimal");
            }
        }
        for &a in &keys {
            for &b in &keys {
                assert!(a == b || !a.is_subset_of(b));
            }
        }
    }

    #[test]
    fn empty_lhs_fd_shrinks_keys() {
        // ∅→A over AB: key = {B}.
        let f = vec![fd(&[], 0)];
        assert_eq!(candidate_keys(&f, 2), vec![s(&[1])]);
    }

    #[test]
    fn exhaustive_cross_check_small() {
        // Compare against brute force for all ≤2-FD sets over 3 attrs.
        let all_lhs: Vec<AttrSet> = (0u32..8).map(|b| AttrSet::from_bits(b as u128)).collect();
        let n = 3;
        for &l1 in &all_lhs {
            for r1 in 0..n {
                let f = vec![Fd::new(l1, r1)];
                let keys = candidate_keys(&f, n);
                // brute force: all minimal superkeys
                let mut brute: Vec<AttrSet> = (0u32..8)
                    .map(|b| AttrSet::from_bits(b as u128))
                    .filter(|&x| is_superkey(x, &f, n))
                    .collect();
                retain_minimal(&mut brute);
                brute.sort();
                assert_eq!(keys, brute, "keys mismatch for {f:?}");
            }
        }
    }
}
