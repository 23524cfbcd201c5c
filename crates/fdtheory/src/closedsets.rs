//! Closed sets `CL(F)`, generators `GEN(F)`, and maximal sets `MAX(F)` (§2).
//!
//! `CL(F)` is the family of closed attribute sets; `GEN(F)` is its unique
//! minimal subfamily such that every closed set is an intersection of
//! generators (the *meet-irreducible* closed sets). [MR86, MR94b] show
//! `MAX(F) = GEN(F)`, the bridge Dep-Miner exploits; \[BDFS84\] shows `r` is
//! Armstrong for `F` iff `GEN(F) ⊆ ag(r) ⊆ CL(F)` — the criterion our
//! integration tests use to *prove* generated Armstrong relations correct.
//!
//! These functions enumerate the subset lattice and are exponential in
//! `n_attrs`; they are verification oracles for tests and small examples,
//! not production paths.

use crate::closure::closure;
use crate::design::max_union;
use crate::fd::Fd;
use depminer_relation::{retain_maximal, AttrSet, Relation};

/// All closed sets of `F` over `n_attrs` attributes, sorted.
///
/// `R` itself is always closed and always included.
pub fn closed_sets(fds: &[Fd], n_attrs: usize) -> Vec<AttrSet> {
    let mut out: Vec<AttrSet> = AttrSet::full(n_attrs)
        .subsets()
        .map(|x| closure(x, fds))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// `max(F, A)`: the maximal sets not determining `A` (§2), computed from
/// the closed-set family: the ⊆-maximal closed sets not containing `A`.
pub fn max_sets_for(fds: &[Fd], n_attrs: usize, a: usize) -> Vec<AttrSet> {
    let mut cands: Vec<AttrSet> = closed_sets(fds, n_attrs)
        .into_iter()
        .filter(|x| !x.contains(a))
        .collect();
    retain_maximal(&mut cands);
    cands.sort();
    cands
}

/// `MAX(F) = ⋃_A max(F, A)`, sorted and deduplicated.
pub fn max_sets(fds: &[Fd], n_attrs: usize) -> Vec<AttrSet> {
    let per_attr: Vec<Vec<AttrSet>> = (0..n_attrs)
        .map(|a| max_sets_for(fds, n_attrs, a))
        .collect();
    max_union(&per_attr)
}

/// `GEN(F)`: the meet-irreducible closed sets. Equal to [`max_sets`] by the
/// \[MR86\] theorem; computed here *independently* (a closed set `X ≠ R` is a
/// generator iff it is not the intersection of the closed sets strictly
/// containing it) so tests can confirm the theorem rather than assume it.
pub fn generators(fds: &[Fd], n_attrs: usize) -> Vec<AttrSet> {
    let cl = closed_sets(fds, n_attrs);
    let full = AttrSet::full(n_attrs);
    cl.iter()
        .copied()
        .filter(|&x| {
            if x == full {
                return false;
            }
            let meet = cl
                .iter()
                .copied()
                .filter(|&y| x.is_proper_subset_of(y))
                .fold(full, |acc, y| acc.intersection(y));
            meet != x
        })
        .collect()
}

/// The naive agree-set family `ag(r)` (§2), for verification.
pub fn agree_sets_naive(r: &Relation) -> Vec<AttrSet> {
    let mut out = Vec::new();
    for i in 0..r.len() {
        for j in (i + 1)..r.len() {
            out.push(r.agree_set(i, j));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Checks the \[BDFS84\] Armstrong criterion:
/// `r` is an Armstrong relation for `F` iff `GEN(F) ⊆ ag(r) ⊆ CL(F)`.
///
/// Exponential in arity (it enumerates `CL(F)`); intended for tests.
pub fn is_armstrong_for(r: &Relation, fds: &[Fd]) -> bool {
    let n = r.arity();
    let ag = agree_sets_naive(r);
    // ag(r) ⊆ CL(F): every agree set must be closed.
    if !ag.iter().all(|&x| closure(x, fds) == x) {
        return false;
    }
    // GEN(F) ⊆ ag(r).
    max_sets(fds, n).iter().all(|g| ag.binary_search(g).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_relation::datasets;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    fn fd(lhs: &[usize], rhs: usize) -> Fd {
        Fd::new(s(lhs), rhs)
    }

    #[test]
    fn closed_sets_basic() {
        // F = {A→B} over AB: closed sets ∅, B, AB.
        let f = vec![fd(&[0], 1)];
        assert_eq!(
            closed_sets(&f, 2),
            vec![AttrSet::empty(), s(&[1]), s(&[0, 1])]
        );
    }

    #[test]
    fn closed_sets_no_fds_is_powerset() {
        assert_eq!(closed_sets(&[], 3).len(), 8);
    }

    #[test]
    fn max_sets_match_paper_example_9() {
        // The employee relation's dep(r) cover, Example 11 (0-based):
        // BC→A, CD→A, AC→B, AE→B, D→B, AB→C, AD→C, AE→C, AC→D, AE→D,
        // B→D, B→E, C→E, D→E.
        let f = employee_cover();
        // Example 9: max(A)={BDE,CE}, max(B)={A,CE}, max(C)={A,BDE},
        // max(D)={A,CE}, max(E)={A}.
        assert_eq!(max_sets_for(&f, 5, 0), vec![s(&[2, 4]), s(&[1, 3, 4])]);
        assert_eq!(max_sets_for(&f, 5, 1), vec![s(&[0]), s(&[2, 4])]);
        assert_eq!(max_sets_for(&f, 5, 2), vec![s(&[0]), s(&[1, 3, 4])]);
        assert_eq!(max_sets_for(&f, 5, 3), vec![s(&[0]), s(&[2, 4])]);
        assert_eq!(max_sets_for(&f, 5, 4), vec![s(&[0])]);
        assert_eq!(max_sets(&f, 5), vec![s(&[0]), s(&[2, 4]), s(&[1, 3, 4])]);
    }

    /// The minimal FD cover of the paper's employee relation (Example 11).
    fn employee_cover() -> Vec<Fd> {
        vec![
            fd(&[1, 2], 0),
            fd(&[2, 3], 0),
            fd(&[0, 2], 1),
            fd(&[0, 4], 1),
            fd(&[3], 1),
            fd(&[0, 1], 2),
            fd(&[0, 3], 2),
            fd(&[0, 4], 2),
            fd(&[0, 2], 3),
            fd(&[0, 4], 3),
            fd(&[1], 3),
            fd(&[1], 4),
            fd(&[2], 4),
            fd(&[3], 4),
        ]
    }

    #[test]
    fn generators_equal_max_sets() {
        // The MR86 theorem MAX(F) = GEN(F), confirmed on several F.
        let cases = vec![
            vec![fd(&[0], 1)],
            vec![fd(&[0], 1), fd(&[1], 2)],
            vec![fd(&[0, 1], 2), fd(&[2], 0)],
            employee_cover(),
        ];
        for f in cases {
            let n = 5;
            let mut gens = generators(&f, n);
            gens.sort();
            assert_eq!(gens, max_sets(&f, n), "GEN != MAX for {f:?}");
        }
    }

    #[test]
    fn agree_sets_of_employee() {
        // Example 5: ag(r) = {∅, A, BDE, CE, E}.
        let r = datasets::employee();
        let ag = agree_sets_naive(&r);
        let mut expected = vec![
            AttrSet::empty(),
            s(&[0]),
            s(&[1, 3, 4]),
            s(&[2, 4]),
            s(&[4]),
        ];
        expected.sort();
        assert_eq!(ag, expected);
    }

    #[test]
    fn employee_is_armstrong_for_its_cover() {
        // r itself is an Armstrong relation for dep(r) by definition.
        let r = datasets::employee();
        assert!(is_armstrong_for(&r, &employee_cover()));
    }

    #[test]
    fn armstrong_check_rejects_wrong_fds() {
        let r = datasets::employee();
        // Claiming A→B as well should fail: ag contains {A}, not closed
        // under A→B.
        let mut f = employee_cover();
        f.push(fd(&[0], 1));
        assert!(!is_armstrong_for(&r, &f));
        // Claiming *fewer* FDs fails too: with F = ∅ every set is closed,
        // but GEN(∅) = {R \ {A}} sets are not all in ag(r).
        assert!(!is_armstrong_for(&r, &[]));
    }
}
