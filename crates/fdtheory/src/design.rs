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
//! 3. one tuple per element of `{R} ∪ MAX(F)` (the \[BDFS84\] construction).

use crate::closure::closure;
use crate::fd::Fd;
use depminer_hypergraph::Hypergraph;
use depminer_relation::{AttrSet, Relation, Schema, Value};

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
    let full = AttrSet::full(n_attrs);
    (0..n_attrs)
        .map(|a| {
            let lhs = minimal_lhs_for(f, n_attrs, a);
            if lhs == [AttrSet::empty()] {
                return Vec::new(); // ∅ → a: nothing fails to determine a
            }
            let h = Hypergraph::new(n_attrs, lhs);
            let mut max: Vec<AttrSet> = h
                .min_transversals_levelwise()
                .into_iter()
                .map(|t| full.difference(t))
                .collect();
            max.sort_unstable();
            max
        })
        .collect()
}

/// Builds an Armstrong relation for `F` over a schema of `n_attrs`
/// synthetic attributes: `|MAX(F)| + 1` tuples satisfying *exactly* the
/// dependencies implied by `F`.
pub fn armstrong_for_fds(f: &[Fd], n_attrs: usize) -> Relation {
    let schema = Schema::synthetic(n_attrs).expect("valid synthetic schema");
    armstrong_for_fds_with_schema(f, &schema)
}

/// As [`armstrong_for_fds`], over a caller-provided schema.
pub fn armstrong_for_fds_with_schema(f: &[Fd], schema: &Schema) -> Relation {
    let n = schema.arity();
    let mut max_union: Vec<AttrSet> = max_sets_via_transversals(f, n)
        .into_iter()
        .flatten()
        .collect();
    max_union.sort_unstable();
    max_union.dedup();
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(max_union.len() + 1);
    rows.push(vec![Value::Int(0); n]);
    for (i, &x) in max_union.iter().enumerate() {
        rows.push(
            (0..n)
                .map(|a| {
                    if x.contains(a) {
                        Value::Int(0)
                    } else {
                        Value::Int(i as i64 + 1)
                    }
                })
                .collect(),
        );
    }
    Relation::from_rows(schema.clone(), rows).expect("rows match schema arity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closedsets::{is_armstrong_for, max_sets_for};
    use crate::mine::mine_minimal_fds;

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

    #[test]
    fn armstrong_for_textbook_fd_set() {
        // F = {A→B, B→C} over ABC.
        let f = vec![fd(&[0], 1), fd(&[1], 2)];
        let arm = armstrong_for_fds(&f, 3);
        assert!(is_armstrong_for(&arm, &f));
        // Re-mining the example yields a cover equivalent to F.
        let mined = mine_minimal_fds(&arm);
        assert!(crate::cover::equivalent(&mined, &f));
    }

    #[test]
    fn armstrong_for_empty_fd_set() {
        // F = ∅ over 3 attributes: MAX = {R \ {A}}, size 4 example, no FDs.
        let arm = armstrong_for_fds(&[], 3);
        assert_eq!(arm.len(), 4);
        assert!(mine_minimal_fds(&arm).is_empty());
        assert!(is_armstrong_for(&arm, &[]));
    }

    #[test]
    fn armstrong_for_key_fd_set() {
        // F = {A→B, A→C}: A is a key.
        let f = vec![fd(&[0], 1), fd(&[0], 2)];
        let arm = armstrong_for_fds(&f, 3);
        assert!(is_armstrong_for(&arm, &f));
        assert!(arm.satisfies(s(&[0]), 1));
        assert!(arm.satisfies(s(&[0]), 2));
        assert!(!arm.satisfies(s(&[1]), 0));
    }

    #[test]
    fn random_fd_sets_produce_verified_examples() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(77);
        for trial in 0..30 {
            let n = rng.gen_range(2..=4usize);
            let n_fds = rng.gen_range(0..=4usize);
            let f: Vec<Fd> = (0..n_fds)
                .map(|_| {
                    Fd::new(
                        AttrSet::from_bits(rng.gen_range(0u32..(1 << n)) as u128),
                        rng.gen_range(0..n),
                    )
                })
                .collect();
            let arm = armstrong_for_fds(&f, n);
            assert!(
                is_armstrong_for(&arm, &f),
                "trial {trial}: example not Armstrong for {f:?}"
            );
        }
    }
}
