//! Design by example (\[MR86\]): an Armstrong relation for a *given* FD set.
//!
//! The paper builds Armstrong relations from a mined relation; the inverse
//! workflow — a designer writes down `F` and receives a small example
//! relation satisfying exactly `F` — is the original "design by example"
//! application of Mannila & Räihä that §4 builds on. The pipeline is the
//! paper's, run from theory instead of data:
//!
//! 1. enumerate `lhs(F, A)`: all minimal `X` with `A ∈ X⁺` (levelwise with
//!    closure tests);
//! 2. `cmax(F, A) = Tr(lhs(F, A))` (nihilpotence, §5.1), complement to get
//!    `max(F, A)`;
//! 3. one tuple per element of `{R} ∪ MAX(F)` (the \[BDFS84\] construction,
//!    `depminer_core::armstrong_for_fds`).
//!
//! Step 2 is [`max_sets_from_lhs`] and the union `MAX(F)` is [`max_union`].
//! TANE's §5.1 extension runs both on mined lhs families, and Dep-Miner's
//! `MaxSets::max_union` runs the union.

use crate::closure::closure;
use crate::fd::Fd;
use depminer_hypergraph::Hypergraph;
use depminer_relation::AttrSet;

/// All minimal lhs sets for attribute `a` w.r.t. `F`:
/// `lhs(F, a) = Min⊆ {X ⊆ R | a ∈ X⁺_F}`.
///
/// Includes the trivial `{a}` (or `∅` when `F ⊨ ∅ → a`), matching the
/// paper's `lhs(dep(r), A)`. Levelwise with subset pruning; exponential in
/// the worst case, as the problem demands.
pub fn minimal_lhs_for(f: &[Fd], n_attrs: usize, a: usize) -> Vec<AttrSet> {
    let mut minimal: Vec<AttrSet> = Vec::new();
    let mut level: Vec<AttrSet> = vec![AttrSet::empty()];
    while !level.is_empty() {
        let mut next: Vec<AttrSet> = Vec::new();
        for &x in &level {
            if minimal.iter().any(|m| m.is_subset_of(x)) {
                continue;
            }
            if x.contains(a) || closure(x, f).contains(a) {
                minimal.push(x);
            } else {
                let start = x.max_attr().map_or(0, |m| m + 1);
                for b in start..n_attrs {
                    next.push(x.with(b));
                }
            }
        }
        level = next;
    }
    minimal.sort_unstable();
    minimal
}

/// `max(F, A)` per attribute, via `cmax = Tr(lhs)`. Agrees with
/// [`crate::closedsets::max_sets_for`] (asserted in tests) but runs off the
/// transversal machinery instead of the closed-set lattice.
pub fn max_sets_via_transversals(f: &[Fd], n_attrs: usize) -> Vec<Vec<AttrSet>> {
    let families = (0..n_attrs)
        .map(|a| minimal_lhs_for(f, n_attrs, a))
        .collect();
    max_sets_from_lhs(families, n_attrs)
}

/// `max(F, A)` per attribute from the lhs families `lhs(F, A)` (trivial
/// entry included): `cmax(F, A) = Tr(lhs(F, A))` by nihilpotence (§5.1),
/// complemented and sorted. A family `{∅}` (`∅ → A`) yields no maximal set.
pub fn max_sets_from_lhs(families: Vec<Vec<AttrSet>>, arity: usize) -> Vec<Vec<AttrSet>> {
    let full = AttrSet::full(arity);
    families
        .into_iter()
        .map(|family| {
            if family == [AttrSet::empty()] {
                return Vec::new(); // ∅ → A: nothing fails to determine A
            }
            let mut max: Vec<AttrSet> = Hypergraph::new(arity, family)
                .min_transversals_levelwise()
                .into_iter()
                .map(|t| full.difference(t))
                .collect();
            max.sort_unstable();
            max
        })
        .collect()
}

/// `MAX = ⋃_A max(A)`, sorted and deduplicated: the input of the
/// \[BDFS84\] Armstrong construction (§4).
pub fn max_union(max: &[Vec<AttrSet>]) -> Vec<AttrSet> {
    let mut out: Vec<AttrSet> = max.iter().flatten().copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closedsets::max_sets_for;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    fn fd(lhs: &[usize], rhs: usize) -> Fd {
        Fd::new(s(lhs), rhs)
    }

    #[test]
    fn minimal_lhs_basic() {
        // F = {A→B, C→B} over ABC: lhs(B) = {A, B, C}.
        let f = vec![fd(&[0], 1), fd(&[2], 1)];
        assert_eq!(minimal_lhs_for(&f, 3, 1), vec![s(&[0]), s(&[1]), s(&[2])]);
        // lhs(A) = {A} only.
        assert_eq!(minimal_lhs_for(&f, 3, 0), vec![s(&[0])]);
    }

    #[test]
    fn minimal_lhs_with_constant() {
        let f = vec![fd(&[], 1)];
        assert_eq!(minimal_lhs_for(&f, 2, 1), vec![AttrSet::empty()]);
    }

    #[test]
    fn transversal_max_sets_match_closed_set_max_sets() {
        let cases = vec![
            vec![],
            vec![fd(&[0], 1)],
            vec![fd(&[0], 1), fd(&[1], 2)],
            vec![fd(&[0, 1], 2), fd(&[2], 0)],
            vec![fd(&[], 0), fd(&[0, 1], 2)],
        ];
        for f in cases {
            let via_tr = max_sets_via_transversals(&f, 4);
            for (a, got) in via_tr.iter().enumerate() {
                assert_eq!(got, &max_sets_for(&f, 4, a), "F = {f:?}, attr {a}");
            }
        }
    }
}
