//! Maximal sets and their complements (§3.2, Algorithm 4 / Lemma 3).
//!
//! `max(dep(r), A)` is the family of ⊆-maximal attribute sets *not*
//! determining `A`; Lemma 3 characterizes it as the maximal non-empty agree
//! sets avoiding `A`. `cmax(dep(r), A)` is the family of complements — a
//! simple hypergraph whose minimal transversals are exactly
//! `lhs(dep(r), A)`.
//!
//! ## The empty-agree-set corner
//!
//! Lemma 3 excludes `∅` from the candidates. That is sound whenever some
//! non-empty agree set avoids `A`, but when *no* agree set avoids `A` two
//! situations must be distinguished:
//!
//! * `A` is constant (`∅ → A` holds): then nothing fails to determine `A`
//!   and `max(dep(r), A) = ∅` — so `cmax` has no edges and the transversal
//!   step correctly yields `lhs = {∅}`, i.e. the FD `∅ → A`.
//! * `A` is *not* constant but every couple that disagrees on `A` disagrees
//!   everywhere (its agree set is `∅`): then `∅` itself is the unique
//!   maximal non-determining set, `max(dep(r), A) = {∅}` and
//!   `cmax(dep(r), A) = {R}`, making every single attribute (but not `∅`)
//!   a minimal lhs.
//!
//! The paper's benchmark data never hits the second case, but random
//! relations do (any relation with two all-distinct tuples); we handle it
//! explicitly so Dep-Miner is exact on *every* input.

use crate::agree::AgreeSets;
use depminer_fdtheory::max_union;
use depminer_govern::{BudgetExceeded, CancelToken, Stage};
use depminer_parallel::{par_map_indexed_governed, Parallelism};
use depminer_relation::{retain_maximal, AttrSet};

/// Per-attribute maximal sets and complements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxSets {
    /// `max(dep(r), A)` for each attribute `A`, each sorted.
    pub max: Vec<Vec<AttrSet>>,
    /// `cmax(dep(r), A) = {R \ X | X ∈ max(dep(r), A)}`, each sorted.
    pub cmax: Vec<Vec<AttrSet>>,
    /// Arity of the underlying schema.
    pub arity: usize,
}

impl MaxSets {
    /// The union `MAX(dep(r)) = ⋃_A max(dep(r), A)`, sorted and
    /// deduplicated — the input of Armstrong-relation generation (§4).
    pub fn max_union(&self) -> Vec<AttrSet> {
        max_union(&self.max)
    }
}

/// Algorithm 4 (`CMAX_SET`) with the process default parallelism.
pub fn cmax_sets(ag: &AgreeSets) -> MaxSets {
    cmax_sets_with(ag, Parallelism::Auto)
}

/// Algorithm 4 (`CMAX_SET`), with the empty-agree-set corner handled as
/// described in the module docs. The per-attribute `max(dep(r), A)`
/// computations are independent, so they fan out across attributes; the
/// result is identical at every thread count.
pub fn cmax_sets_with(ag: &AgreeSets, par: Parallelism) -> MaxSets {
    cmax_sets_governed(ag, par, &CancelToken::unlimited()).expect("an unlimited token never trips")
}

/// [`cmax_sets_with`] under a live [`CancelToken`], charged to
/// [`Stage::MaxSets`]: one checkpoint per attribute, since each
/// attribute's maximality filter (Lemma 3) is the unit of work. The
/// stage is all-or-nothing — a partial per-attribute table would be
/// useless downstream, so a trip discards it entirely.
pub fn cmax_sets_governed(
    ag: &AgreeSets,
    par: Parallelism,
    token: &CancelToken,
) -> Result<MaxSets, BudgetExceeded> {
    let n = ag.arity;
    let full = AttrSet::full(n);
    let _span = token.observer().span("max-sets");
    let max = par_map_indexed_governed(par, token, Stage::MaxSets, n, |a| {
        let _filter = token.observer().span("max-sets/filter");
        token
            .observer()
            .add(depminer_govern::Counter::MaxsetFilterPasses, 1);
        // Lemma 3: maximal non-empty agree sets avoiding A.
        let mut cands: Vec<AttrSet> = ag.sets.iter().copied().filter(|x| !x.contains(a)).collect();
        retain_maximal(&mut cands);
        cands.sort_unstable();
        if cands.is_empty() && !ag.constant_attrs.contains(a) && ag.n_rows > 1 {
            // Second corner case: ∅ is the unique maximal non-determining
            // set (A is not constant, yet no non-empty agree set avoids it).
            cands.push(AttrSet::empty());
        }
        Ok(cands)
    })?;
    let cmax = max
        .iter()
        .map(|sets| {
            let mut c: Vec<AttrSet> = sets.iter().map(|&x| full.difference(x)).collect();
            c.sort_unstable();
            c
        })
        .collect();
    Ok(MaxSets {
        max,
        cmax,
        arity: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agree::{agree_sets_naive, AgreeSets};
    use depminer_relation::datasets;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    #[test]
    fn paper_example_9() {
        let r = datasets::employee();
        let ms = cmax_sets(&agree_sets_naive(&r));
        // max(A)={BDE,CE}, max(B)={A,CE}, max(C)={A,BDE}, max(D)={A,CE},
        // max(E)={A}
        assert_eq!(ms.max[0], vec![s(&[2, 4]), s(&[1, 3, 4])]);
        assert_eq!(ms.max[1], vec![s(&[0]), s(&[2, 4])]);
        assert_eq!(ms.max[2], vec![s(&[0]), s(&[1, 3, 4])]);
        assert_eq!(ms.max[3], vec![s(&[0]), s(&[2, 4])]);
        assert_eq!(ms.max[4], vec![s(&[0])]);
        // cmax(A)={AC,ABD}, cmax(B)={BCDE,ABD}, cmax(C)={BCDE,AC},
        // cmax(D)={BCDE,ABD}, cmax(E)={BCDE}
        assert_eq!(ms.cmax[0], vec![s(&[0, 2]), s(&[0, 1, 3])]);
        assert_eq!(ms.cmax[1], vec![s(&[0, 1, 3]), s(&[1, 2, 3, 4])]);
        assert_eq!(ms.cmax[2], vec![s(&[0, 2]), s(&[1, 2, 3, 4])]);
        assert_eq!(ms.cmax[3], vec![s(&[0, 1, 3]), s(&[1, 2, 3, 4])]);
        assert_eq!(ms.cmax[4], vec![s(&[1, 2, 3, 4])]);
    }

    #[test]
    fn max_union_matches_example_12() {
        // MAX(dep(r)) = {A, BDE, CE}.
        let r = datasets::employee();
        let ms = cmax_sets(&agree_sets_naive(&r));
        assert_eq!(ms.max_union(), vec![s(&[0]), s(&[2, 4]), s(&[1, 3, 4])]);
    }

    #[test]
    fn matches_fdtheory_oracle() {
        // max sets computed from agree sets must equal the theory-side
        // max sets of the mined cover.
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::no_fds(),
        ] {
            let fds = depminer_fdtheory::mine_minimal_fds(&r);
            let ms = cmax_sets(&agree_sets_naive(&r));
            for a in 0..r.arity() {
                let theory = depminer_fdtheory::max_sets_for(&fds, r.arity(), a);
                assert_eq!(ms.max[a], theory, "max sets differ for attribute {a}");
            }
        }
    }

    #[test]
    fn constant_attribute_has_no_max_sets() {
        let r = datasets::constant_columns();
        let ms = cmax_sets(&agree_sets_naive(&r));
        // attrs 1 and 2 are constant ⇒ nothing fails to determine them.
        assert!(ms.max[1].is_empty());
        assert!(ms.max[2].is_empty());
        assert!(ms.cmax[1].is_empty());
        // attr 0 (the key) is determined by nothing else: its max sets are
        // the maximal agree sets avoiding it, i.e. {k1,k2}.
        assert_eq!(ms.max[0], vec![s(&[1, 2])]);
    }

    #[test]
    fn empty_agree_set_corner() {
        // Two all-distinct tuples: ag(r) = {∅}. Every attribute is
        // non-constant with no nonempty agree set avoiding it:
        // max(dep,A) = {∅}, cmax = {R}.
        let r = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(2).unwrap(),
            vec![vec![0, 1], vec![0, 1]],
        )
        .unwrap();
        let ms = cmax_sets(&agree_sets_naive(&r));
        for a in 0..2 {
            assert_eq!(ms.max[a], vec![AttrSet::empty()]);
            assert_eq!(ms.cmax[a], vec![AttrSet::full(2)]);
        }
    }

    #[test]
    fn parallel_cmax_matches_sequential() {
        let r = depminer_relation::SyntheticConfig::new(8, 150, 0.5)
            .generate()
            .unwrap();
        let ag = agree_sets_naive(&r);
        let seq = cmax_sets_with(&ag, Parallelism::Sequential);
        for par in [Parallelism::Threads(2), Parallelism::Threads(4)] {
            assert_eq!(cmax_sets_with(&ag, par), seq, "{par:?}");
        }
    }

    #[test]
    fn single_tuple_relation() {
        // One tuple: every FD holds; every attribute constant; max = ∅.
        let ag = AgreeSets {
            sets: vec![],
            arity: 3,
            n_rows: 1,
            constant_attrs: AttrSet::full(3),
        };
        let ms = cmax_sets(&ag);
        for a in 0..3 {
            assert!(ms.max[a].is_empty());
        }
        assert!(ms.max_union().is_empty());
    }
}
