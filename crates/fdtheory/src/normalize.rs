//! Normalization — the "logical tuning" the paper motivates (§1, §6).
//!
//! Once a dba has validated the discovered FDs (using the real-world
//! Armstrong relation as a sample), the schema can be reorganized:
//! [`bcnf_decompose`] removes all update anomalies (lossless join, BCNF),
//! [`synthesize_3nf`] produces a dependency-preserving 3NF design from a
//! canonical cover and its candidate keys.

use crate::closure::closure;
use crate::fd::Fd;
use crate::keys::{is_superkey, prime_attributes};
use depminer_relation::fxhash::FxHashMap;
use depminer_relation::AttrSet;

/// A relation schema fragment produced by decomposition: its attributes and
/// the FDs that project onto it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposed {
    /// Attribute set of the fragment.
    pub attrs: AttrSet,
    /// FDs of the original cover whose attributes all fall in `attrs`.
    pub local_fds: Vec<Fd>,
}

/// Finds a BCNF violation: a non-trivial FD `X → A` (implied by `fds`,
/// restricted to `attrs`) whose lhs is not a superkey *of the fragment*.
///
/// Searches the projected cover: for each subset lhs appearing in closures,
/// we test the canonical-cover FDs first, then fall back to closures of
/// single FD lhs unions — sufficient for detecting violations from a
/// canonical cover in practice (textbook algorithm).
pub fn bcnf_violation(attrs: AttrSet, fds: &[Fd]) -> Option<Fd> {
    // Project dependencies: for every X ⊆ attrs that is an lhs of a cover
    // FD (intersected with attrs), check X⁺ ∩ attrs.
    let mut candidates: Vec<AttrSet> = fds
        .iter()
        .map(|f| f.lhs.intersection(attrs))
        .chain(attrs.singletons())
        .collect();
    candidates.sort();
    candidates.dedup();
    for x in candidates {
        let cx = closure(x, fds).intersection(attrs);
        if cx == attrs {
            continue; // X is a superkey of the fragment
        }
        if let Some(a) = cx.difference(x).min_attr() {
            return Some(Fd::new(x, a));
        }
    }
    None
}

/// `true` iff the fragment `attrs` is in BCNF w.r.t. `fds`
/// (no violating FD found by [`bcnf_violation`]).
pub fn is_bcnf(attrs: AttrSet, fds: &[Fd]) -> bool {
    bcnf_violation(attrs, fds).is_none()
}

/// Lossless-join BCNF decomposition (textbook algorithm): repeatedly split a
/// fragment with violation `X → A` into `X ∪ {A}` and `attrs \ {A}`.
///
/// Termination: each split strictly reduces fragment size. The result is a
/// lossless decomposition in which every fragment is in BCNF; dependency
/// preservation is *not* guaranteed (it cannot be, in general).
pub fn bcnf_decompose(n_attrs: usize, fds: &[Fd]) -> Vec<Decomposed> {
    let mut work = vec![AttrSet::full(n_attrs)];
    let mut done: Vec<AttrSet> = Vec::new();
    while let Some(attrs) = work.pop() {
        match bcnf_violation(attrs, fds) {
            None => done.push(attrs),
            Some(v) => {
                let right = closure(v.lhs, fds).intersection(attrs);
                let frag1 = right; // X⁺ ∩ attrs (covers X ∪ A and more)
                let frag2 = attrs.difference(right.difference(v.lhs));
                debug_assert!(frag1.len() < attrs.len() || frag2.len() < attrs.len());
                work.push(frag1);
                work.push(frag2);
            }
        }
    }
    done.sort();
    done.dedup();
    // Drop fragments subsumed by others.
    depminer_relation::retain_maximal(&mut done);
    done.sort();
    done.into_iter()
        .map(|attrs| Decomposed {
            attrs,
            local_fds: project_fds(attrs, fds),
        })
        .collect()
}

/// FDs of the cover that fall entirely within `attrs`.
fn project_fds(attrs: AttrSet, fds: &[Fd]) -> Vec<Fd> {
    fds.iter()
        .copied()
        .filter(|f| f.attrs().is_subset_of(attrs))
        .collect()
}

/// 3NF synthesis (Bernstein): one fragment per lhs-group of the canonical
/// cover, plus a key fragment if no fragment contains a candidate key.
/// Dependency-preserving and lossless.
///
/// Precondition: `cover` is a canonical cover, as
/// [`canonical_cover`](crate::canonical_cover) returns it, and `keys` are
/// its candidate keys, as [`candidate_keys`](crate::candidate_keys)
/// returns them (sorted, never empty). Callers that print the cover and
/// the keys already hold both, so neither is recomputed here. On any
/// other input the fragments need not be in 3NF, nor join losslessly.
pub fn synthesize_3nf(cover: &[Fd], keys: &[AttrSet]) -> Vec<Decomposed> {
    // Group by lhs: fragment = X ∪ {all A with X → A in the cover}.
    let mut groups: std::collections::BTreeMap<AttrSet, AttrSet> =
        std::collections::BTreeMap::new();
    for f in cover {
        groups.entry(f.lhs).or_insert(f.lhs).insert(f.rhs);
    }
    let mut frags: Vec<AttrSet> = groups.into_values().collect();
    // Ensure a fragment contains a candidate key (lossless join).
    if !frags
        .iter()
        .any(|&f| keys.iter().any(|&k| k.is_subset_of(f)))
    {
        frags.push(keys[0]);
    }
    // Remove fragments contained in others.
    depminer_relation::retain_maximal(&mut frags);
    frags.sort();
    frags
        .into_iter()
        .map(|attrs| Decomposed {
            attrs,
            local_fds: project_fds(attrs, cover),
        })
        .collect()
}

/// `true` iff the fragment is in 3NF: for every non-trivial `X → A` over the
/// fragment, `X` is a superkey of the fragment or `A` is prime in it.
pub fn is_3nf(attrs: AttrSet, fds: &[Fd]) -> bool {
    let local: Vec<Fd> = {
        // project by closure like bcnf_violation
        let mut candidates: Vec<AttrSet> = fds
            .iter()
            .map(|f| f.lhs.intersection(attrs))
            .chain(attrs.singletons())
            .collect();
        candidates.sort();
        candidates.dedup();
        let mut v = Vec::new();
        for x in candidates {
            let cx = closure(x, fds).intersection(attrs);
            for a in cx.difference(x).iter() {
                v.push(Fd::new(x, a));
            }
        }
        v
    };
    // Keys of the fragment under the projected dependencies.
    let frag_attrs: Vec<usize> = attrs.iter().collect();
    let remap: FxHashMap<usize, usize> = frag_attrs
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i))
        .collect();
    let local_re: Vec<Fd> = local
        .iter()
        .map(|f| {
            Fd::new(
                AttrSet::from_indices(f.lhs.iter().map(|a| remap[&a])),
                remap[&f.rhs],
            )
        })
        .collect();
    let n = frag_attrs.len();
    let prime = prime_attributes(&local_re, n);
    local_re
        .iter()
        .all(|f| f.is_trivial() || is_superkey(f.lhs, &local_re, n) || prime.contains(f.rhs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::covers;
    use crate::keys::candidate_keys;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    fn fd(lhs: &[usize], rhs: usize) -> Fd {
        Fd::new(s(lhs), rhs)
    }

    #[test]
    fn detects_bcnf_violation() {
        // R(ABC), F = {A→B}: A is not a key of ABC, so violation.
        let f = vec![fd(&[0], 1)];
        let v = bcnf_violation(AttrSet::full(3), &f).unwrap();
        assert_eq!(v, fd(&[0], 1));
        assert!(!is_bcnf(AttrSet::full(3), &f));
    }

    #[test]
    fn key_based_fds_are_bcnf() {
        // F = {A→B, A→C} over ABC: A is a key ⇒ BCNF.
        let f = vec![fd(&[0], 1), fd(&[0], 2)];
        assert!(is_bcnf(AttrSet::full(3), &f));
    }

    #[test]
    fn bcnf_decomposition_fragments_are_bcnf() {
        // Classic: R(city, street, zip), F = {CS→Z, Z→C}.
        // BCNF decomposition splits on Z→C.
        let f = vec![fd(&[0, 1], 2), fd(&[2], 0)];
        let frags = bcnf_decompose(3, &f);
        assert!(frags.len() >= 2);
        for frag in &frags {
            assert!(is_bcnf(frag.attrs, &f), "fragment {} not BCNF", frag.attrs);
        }
        // Attributes are preserved.
        let all = frags
            .iter()
            .fold(AttrSet::empty(), |acc, d| acc.union(d.attrs));
        assert_eq!(all, AttrSet::full(3));
    }

    #[test]
    fn bcnf_already_normalized_returns_single_fragment() {
        let f = vec![fd(&[0], 1), fd(&[0], 2)];
        let frags = bcnf_decompose(3, &f);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].attrs, AttrSet::full(3));
        assert_eq!(frags[0].local_fds.len(), 2);
    }

    #[test]
    fn synthesize_3nf_preserves_dependencies() {
        let f = vec![fd(&[0, 1], 2), fd(&[2], 0)];
        let frags = synthesize_3nf(&f, &candidate_keys(&f, 3));
        // Union of local FDs must cover F.
        let local: Vec<Fd> = frags.iter().flat_map(|d| d.local_fds.clone()).collect();
        assert!(covers(&local, &f), "3NF synthesis lost dependencies");
        // Every fragment is in 3NF.
        for frag in &frags {
            assert!(is_3nf(frag.attrs, &f), "fragment {} not 3NF", frag.attrs);
        }
        // Some fragment contains a candidate key.
        let keys = candidate_keys(&f, 3);
        assert!(frags
            .iter()
            .any(|d| keys.iter().any(|&k| k.is_subset_of(d.attrs))));
    }

    #[test]
    fn synthesize_3nf_adds_key_fragment_when_needed() {
        // F = {A→B} over ABC: groups give {A,B}; key {A,C} must be added.
        let f = vec![fd(&[0], 1)];
        let frags = synthesize_3nf(&f, &candidate_keys(&f, 3));
        let all = frags
            .iter()
            .fold(AttrSet::empty(), |acc, d| acc.union(d.attrs));
        assert_eq!(all, AttrSet::full(3));
        assert!(frags.iter().any(|d| d.attrs == s(&[0, 2])));
    }

    #[test]
    fn three_nf_tolerates_prime_rhs() {
        // F = {CS→Z, Z→C} over (C,S,Z) is 3NF as a single relation
        // (C is prime: keys are CS and ZS).
        let f = vec![fd(&[0, 1], 2), fd(&[2], 0)];
        assert!(is_3nf(AttrSet::full(3), &f));
        assert!(!is_bcnf(AttrSet::full(3), &f));
    }

    #[test]
    fn empty_cover_is_normalized() {
        assert!(is_bcnf(AttrSet::full(3), &[]));
        assert!(is_3nf(AttrSet::full(3), &[]));
        let frags = bcnf_decompose(3, &[]);
        assert_eq!(frags.len(), 1);
    }
}
