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
use depminer_govern::{BudgetExceeded, CancelToken, Counter, Stage};
use depminer_hypergraph::Hypergraph;
use depminer_parallel::{par_chunks_governed, Parallelism};
use depminer_relation::AttrSet;

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

    /// The candidate keys of `dep(r)`, sorted: the minimal `X` with
    /// `X → A` for every attribute `A`.
    ///
    /// `X` fails to determine some `A` iff `X` lies inside a set of
    /// `MAX(dep(r))`, so the keys are the minimal transversals of
    /// `{R \ M | M ∈ MAX(dep(r))}`, found by Algorithm 5's levelwise
    /// engine (audited when audits are enabled). Algorithm 4's corners
    /// cover the degenerate relations: with no maximal set (every
    /// attribute constant, or fewer than two tuples) `∅` is the only key,
    /// and `MAX = {∅}` gives the one edge `R`, whose minimal transversals
    /// are the single attributes. When tuples repeat, a key determines
    /// every attribute without making the rows unique.
    pub fn candidate_keys(&self) -> Vec<AttrSet> {
        let full = AttrSet::full(self.arity);
        let edges = self
            .max_union()
            .into_iter()
            .map(|m| full.difference(m))
            .collect();
        Hypergraph::new(self.arity, edges).min_transversals_levelwise()
    }
}

/// Algorithm 4 (`CMAX_SET`) with the process default parallelism.
pub fn cmax_sets(ag: &AgreeSets) -> MaxSets {
    cmax_sets_with(ag, Parallelism::Auto)
}

/// Algorithm 4 (`CMAX_SET`), with the empty-agree-set corner handled as
/// described in the module docs, in one pass over `ag(r)` instead of
/// one maximality filter per attribute.
///
/// By Lemma 3, `X ∈ max(dep(r), A)` iff `A ∉ X` and every agree set
/// `Y ⊋ X` contains `A`. So with `M(X) = (⋂_{Y ∈ ag(r), Y ⊋ X} Y) \ X`
/// (where `⋂∅ = R`), `X` is filed under exactly the attributes of
/// `M(X)`. The sets are visited largest first, so a set's strict
/// supersets are among those before it, and the intersection stops as
/// soon as it falls inside `X`. The pass fans out in chunks of sets; the
/// result is identical at every thread count.
pub fn cmax_sets_with(ag: &AgreeSets, par: Parallelism) -> MaxSets {
    cmax_sets_governed(ag, par, &CancelToken::unlimited()).expect("an unlimited token never trips")
}

/// [`cmax_sets_with`] under a live [`CancelToken`], charged to
/// [`Stage::MaxSets`]: one checkpoint per chunk of agree sets. The
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
    // Largest first; the stable sort keeps ties in `ag.sets` order.
    let mut by_size = ag.sets.clone();
    by_size.sort_by_key(|x| std::cmp::Reverse(x.len()));
    let chunk = by_size.len().div_ceil(par.effective_threads() * 4).max(1);
    let filed = par_chunks_governed(par, token, Stage::MaxSets, &by_size, chunk, |xs| {
        let mut filed: Vec<(AttrSet, AttrSet)> = Vec::new();
        for &x in xs {
            let larger = &by_size[..by_size.partition_point(|y| y.len() > x.len())];
            let mut above = full;
            for &y in larger {
                if x.is_subset_of(y) {
                    above = above.intersection(y);
                    if above.is_subset_of(x) {
                        break;
                    }
                }
            }
            let m = above.difference(x);
            if !m.is_empty() {
                filed.push((x, m));
            }
        }
        Ok(filed)
    })?;
    let mut max: Vec<Vec<AttrSet>> = vec![Vec::new(); n];
    for (x, m) in filed.into_iter().flatten() {
        for a in m.iter() {
            max[a].push(x);
        }
    }
    for (a, sets) in max.iter_mut().enumerate() {
        sets.sort_unstable();
        if sets.is_empty() && !ag.constant_attrs.contains(a) && ag.n_rows > 1 {
            // Second corner case: ∅ is the unique maximal non-determining
            // set (A is not constant, yet no non-empty agree set avoids it).
            sets.push(AttrSet::empty());
        }
    }
    token.observer().add(
        Counter::MaxSetsFiled,
        max.iter().map(Vec::len).sum::<usize>() as u64,
    );
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
    use depminer_relation::{datasets, Prng, Relation, Schema};

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

    /// Lemma 3 read attribute by attribute, as Algorithm 4 states it:
    /// the maximal agree sets avoiding `a`, or `{∅}` in the second corner.
    fn per_attribute_max(ag: &AgreeSets, a: usize) -> Vec<AttrSet> {
        let mut cands: Vec<AttrSet> = ag.sets.iter().copied().filter(|x| !x.contains(a)).collect();
        depminer_relation::retain_maximal(&mut cands);
        cands.sort_unstable();
        if cands.is_empty() && !ag.constant_attrs.contains(a) && ag.n_rows > 1 {
            cands.push(AttrSet::empty());
        }
        cands
    }

    #[test]
    fn one_pass_matches_the_per_attribute_definition() {
        use depminer_relation::SyntheticConfig;
        let mut rng = Prng::seed_from_u64(0xA4_0001);
        let mut relations: Vec<Relation> = Vec::new();
        for seed in 0..6u64 {
            // A §5.2 relation plus a constant column and two tuples that
            // agree with every other tuple on that column alone.
            let (n, rows) = (rng.gen_range(3..=9usize), rng.gen_range(20..=120usize));
            let r = SyntheticConfig {
                n_attrs: n,
                n_rows: rows,
                correlation: 0.5,
                seed,
            }
            .generate()
            .unwrap();
            let mut columns: Vec<Vec<u32>> = (0..n)
                .map(|a| (0..rows).map(|t| r.column(a).code(t)).collect())
                .collect();
            for column in &mut columns {
                let fresh = rows as u32 + 1;
                column.extend([fresh, fresh + 1]);
            }
            columns.push(vec![0; rows + 2]);
            relations
                .push(Relation::from_columns(Schema::synthetic(n + 1).unwrap(), columns).unwrap());
        }
        for _ in 0..40 {
            // Tiny relations over tiny domains: constant columns, and the
            // ∅ corner, come up often.
            let (n, rows) = (rng.gen_range(2..=5usize), rng.gen_range(2..=6usize));
            let columns: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let domain = rng.gen_range(1..=4u32);
                    (0..rows).map(|_| rng.gen_range(0..domain)).collect()
                })
                .collect();
            relations.push(Relation::from_columns(Schema::synthetic(n).unwrap(), columns).unwrap());
        }
        let mut corners = 0;
        for r in &relations {
            let ag = agree_sets_naive(r);
            let oracle: Vec<Vec<AttrSet>> =
                (0..r.arity()).map(|a| per_attribute_max(&ag, a)).collect();
            corners += oracle.iter().filter(|m| m == &&[AttrSet::empty()]).count();
            for par in [Parallelism::Sequential, Parallelism::Threads(3)] {
                let ms = cmax_sets_with(&ag, par);
                assert_eq!(ms.max, oracle, "{par:?}");
                ms.audit(&ag).unwrap();
            }
        }
        assert!(corners > 0, "no relation hit the ∅ corner");
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

    fn keys_of(r: &Relation) -> Vec<AttrSet> {
        cmax_sets(&agree_sets_naive(r)).candidate_keys()
    }

    /// Brute-force oracle: the minimal `X` with `X → A` in `r` for every
    /// `A`. Unlike a unique column combination, such an `X` need not
    /// tell repeated tuples apart.
    fn keys_brute(r: &Relation) -> Vec<AttrSet> {
        let n = r.arity();
        let mut out: Vec<AttrSet> = (0..1u128 << n)
            .map(AttrSet::from_bits)
            .filter(|&x| (0..n).all(|a| r.satisfies(x, a)))
            .collect();
        depminer_relation::retain_minimal(&mut out);
        out.sort();
        out
    }

    fn relation(columns: Vec<Vec<u32>>) -> Relation {
        Relation::from_columns(Schema::synthetic(columns.len()).unwrap(), columns).unwrap()
    }

    #[test]
    fn datasets_keys_match_brute_force() {
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::constant_columns(),
            datasets::no_fds(),
        ] {
            assert_eq!(keys_of(&r), keys_brute(&r), "keys mismatch on {r:?}");
        }
    }

    #[test]
    fn degenerate_relations_keys() {
        // One tuple: every attribute is constant, so ∅ is the key.
        assert_eq!(
            keys_of(&relation(vec![vec![1], vec![2]])),
            vec![AttrSet::empty()]
        );
        // Two all-distinct tuples: every single attribute is a key.
        assert_eq!(
            keys_of(&relation(vec![vec![0, 1], vec![0, 1]])),
            vec![s(&[0]), s(&[1])]
        );
        // A repeated tuple: dep(r)'s keys, although no set makes the rows
        // unique. Column 0 determines column 1 and back.
        let dup = relation(vec![vec![0, 0, 1], vec![1, 1, 2]]);
        assert_eq!(keys_of(&dup), vec![s(&[0]), s(&[1])]);
        assert_eq!(keys_of(&dup), keys_brute(&dup));
    }

    #[test]
    fn random_relations_keys_match_brute_force() {
        let mut rng = Prng::seed_from_u64(31);
        for _ in 0..30 {
            let n_attrs = rng.gen_range(2..=5usize);
            let n_rows = rng.gen_range(2..=12usize);
            let r = relation(
                (0..n_attrs)
                    .map(|_| (0..n_rows).map(|_| rng.gen_range(0..4u32)).collect())
                    .collect(),
            );
            assert_eq!(keys_of(&r), keys_brute(&r), "mismatch on {r:?}");
        }
    }

    #[test]
    fn keys_match_lucchesi_osborn_on_the_mined_fds() {
        // 1–6 attributes and 0–14 rows over small domains: repeated
        // tuples, constant columns and both corners of Algorithm 4.
        let mut rng = Prng::seed_from_u64(0x4B45_5953);
        let mut repeated = 0;
        for _ in 0..1_000 {
            let (n, rows) = (rng.gen_range(1..=6usize), rng.gen_range(0..=14usize));
            let r = relation(
                (0..n)
                    .map(|_| {
                        let domain = rng.gen_range(1..=4u32);
                        (0..rows).map(|_| rng.gen_range(0..domain)).collect()
                    })
                    .collect(),
            );
            let result = crate::DepMiner::new().mine(&r);
            assert_eq!(
                result.max_sets.candidate_keys(),
                depminer_fdtheory::candidate_keys(&result.fds, n),
                "mismatch on {r:?}"
            );
            repeated += usize::from(!r.is_superkey(AttrSet::full(n)));
        }
        assert!(repeated >= 100, "only {repeated} relations repeat a tuple");
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
