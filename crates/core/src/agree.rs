//! Agree-set computation (§3.1): the paper's two algorithms, selected by
//! [`AgreeSetStrategy`] and run by [`agree_sets`], and the naive
//! reference they are tested against.
//!
//! * [`agree_sets_naive`] — the O(n·p²) baseline over all tuple couples
//!   of a relation, comparing its column codes directly, with a
//!   disjointness guard: a couple whose per-tuple duplicate-value masks
//!   are disjoint provably has an empty agree set, so the O(p) column
//!   scan is skipped for it;
//! * [`AgreeSetStrategy::Couples`] — **Algorithm 2**: couples are drawn
//!   only from maximal equivalence classes (Lemma 1) and agree sets are
//!   accumulated by scanning the stripped partitions; includes the
//!   memory-bounded chunking the paper describes ("computing agree sets as
//!   soon as a fixed number of couples was generated");
//!   [`agree_sets_couples_no_mc`] is its ablation without the `MC`
//!   reduction;
//! * [`AgreeSetStrategy::EquivalenceClasses`] — **Algorithm 3**: each
//!   tuple carries the identifier set `ec(t)` of stripped classes
//!   containing it; the agree set of a couple is the attribute projection
//!   of `ec(t) ∩ ec(t')` (Lemma 2). `ec(t)` is row `t` of one class-id
//!   matrix ([`ClassIds`]), so the
//!   intersection is an elementwise compare of two rows.
//!
//! [`agree_sets_with`] takes a [`Parallelism`] knob; [`agree_sets`] runs
//! with [`Parallelism::Auto`]. Parallel decomposition never changes the
//! result: Algorithm 2 fans the partition scan across *attributes* (each
//! worker owns a slice of columns and a dense per-couple accumulator,
//! merged by union), Algorithm 3 fans the row compares across *maximal
//! classes* (thread-local hash-set accumulators merged at the end). Both
//! merges are order-insensitive unions, and the final sort in
//! `AgreeSets::from_raw` makes the output canonical.
//!
//! All three return [`AgreeSets`]: the *non-empty* agree sets of `r`,
//! deduplicated and sorted, together with the context (arity, tuple count,
//! constant attributes) the downstream `CMAX_SET` step needs. The empty
//! agree set — present in `ag(r)` whenever two tuples disagree everywhere —
//! carries no information for maximal sets beyond what the constant-attribute
//! corner handles explicitly (see [`crate::maxset`]), and Algorithms 2/3
//! never materialize it, so it is uniformly excluded here.
//!
//! [`agree_sets_governed`] threads a [`CancelToken`]: couples are counted
//! against the budget one equivalence class (or one row) at a time,
//! Algorithm 2's couple buffer and the class-id matrix are charged to the
//! memory cap, and scans poll the token. A tripped run returns the agree
//! sets accumulated from fully-flushed batches — a valid *subset* of
//! `ag(r)` usable for diagnostics, never for downstream derivation.

use depminer_govern::{BudgetExceeded, CancelToken, Stage};
use depminer_parallel::{par_chunks, par_chunks_governed, Parallelism, GOVERN_POLL_STRIDE};
use depminer_relation::{AttrSet, ClassIds, FxHashMap, FxHashSet, Relation, StrippedPartitionDb};

/// Bytes one buffered couple occupies, for the approximate memory cap.
const COUPLE_BYTES: u64 = std::mem::size_of::<(u32, u32)>() as u64;

/// Which of the paper's agree-set algorithms to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgreeSetStrategy {
    /// Algorithm 2 (couples from maximal classes). `chunk_size` bounds the
    /// number of couples held in memory at once; `None` means unbounded
    /// (single pass).
    Couples {
        /// Flush threshold for the couple buffer.
        chunk_size: Option<usize>,
    },
    /// Algorithm 3 (identifier-set intersection).
    EquivalenceClasses,
}

impl AgreeSetStrategy {
    /// Short, stable name used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            AgreeSetStrategy::Couples { .. } => "alg2-couples",
            AgreeSetStrategy::EquivalenceClasses => "alg3-ec",
        }
    }
}

/// The result of agree-set computation: `ag(r) \ {∅}`, plus the relation
/// facts needed downstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgreeSets {
    /// Non-empty agree sets, sorted and deduplicated.
    pub sets: Vec<AttrSet>,
    /// Number of attributes `|R|`.
    pub arity: usize,
    /// Number of tuples `|r|`.
    pub n_rows: usize,
    /// Attributes constant across `r` (`∅ → A` holds).
    pub constant_attrs: AttrSet,
}

impl AgreeSets {
    fn from_raw(
        mut sets: Vec<AttrSet>,
        arity: usize,
        n_rows: usize,
        constant_attrs: AttrSet,
    ) -> Self {
        sets.retain(|s| !s.is_empty());
        sets.sort_unstable();
        sets.dedup();
        AgreeSets {
            sets,
            arity,
            n_rows,
            constant_attrs,
        }
    }

    /// The family `seen` with `db`'s relation facts.
    fn of_db(db: &StrippedPartitionDb, seen: FxHashSet<AttrSet>) -> Self {
        AgreeSets::from_raw(
            seen.into_iter().collect(),
            db.arity(),
            db.n_rows(),
            db.constant_attrs(),
        )
    }
}

/// Chunk length that cuts `total` items into `oversub` chunks per thread
/// (one chunk — i.e. the sequential path — when `par` resolves to a single
/// thread). Oversubscription lets the fan-out's shared chunk index
/// balance uneven chunk costs.
fn chunk_len(total: usize, par: Parallelism, oversub: usize) -> usize {
    let threads = par.effective_threads();
    if threads <= 1 {
        total.max(1)
    } else {
        total.div_ceil(threads * oversub).max(1)
    }
}

/// Computes agree sets by running `strategy` against the stripped partition
/// database, with the process default parallelism.
pub fn agree_sets(db: &StrippedPartitionDb, strategy: AgreeSetStrategy) -> AgreeSets {
    agree_sets_with(db, strategy, Parallelism::Auto)
}

/// [`agree_sets`] with an explicit thread-count setting. The result is
/// identical at every thread count.
pub fn agree_sets_with(
    db: &StrippedPartitionDb,
    strategy: AgreeSetStrategy,
    par: Parallelism,
) -> AgreeSets {
    agree_sets_governed(db, strategy, par, &CancelToken::unlimited()).0
}

/// [`agree_sets_with`] under a live [`CancelToken`].
///
/// Returns the agree sets accumulated so far together with the budget
/// error, if the token tripped. A partial result is exactly the flushed
/// prefix of the couple stream — a valid subset of `ag(r)`.
pub fn agree_sets_governed(
    db: &StrippedPartitionDb,
    strategy: AgreeSetStrategy,
    par: Parallelism,
    token: &CancelToken,
) -> (AgreeSets, Option<BudgetExceeded>) {
    let _span = token.observer().span("agree-sets");
    match strategy {
        AgreeSetStrategy::Couples { chunk_size } => {
            agree_sets_couples_governed(db, chunk_size, par, token)
        }
        AgreeSetStrategy::EquivalenceClasses => {
            let _span = token.observer().span("agree-sets/ec");
            agree_sets_ec_governed(db, par, token)
        }
    }
}

/// The naive all-pairs algorithm, run directly on a relation.
///
/// A couple's agree set is non-empty only if the two tuples share a value
/// somewhere — i.e. only if, for some attribute, *both* tuples hold a value
/// occurring at least twice in that column. Pre-computing a per-tuple mask
/// of such "duplicated" attributes lets the inner O(p) scan be skipped
/// whenever the two masks are disjoint, which on key-heavy relations is the
/// vast majority of couples.
pub fn agree_sets_naive(r: &Relation) -> AgreeSets {
    let db_constants = {
        // cheap constant detection without building the full db
        let mut s = AttrSet::empty();
        if r.len() < 2 {
            s = AttrSet::full(r.arity());
        } else {
            for a in 0..r.arity() {
                if r.column(a).distinct_count() == 1 {
                    s.insert(a);
                }
            }
        }
        s
    };
    // dup_attrs[t]: attributes where t's value occurs ≥ 2 times in its
    // column. ag(ti, tj) ⊆ dup_attrs[ti] ∩ dup_attrs[tj], so a disjoint
    // pair of masks proves the agree set empty.
    let mut dup_attrs: Vec<AttrSet> = vec![AttrSet::empty(); r.len()];
    for a in 0..r.arity() {
        let col = r.column(a);
        let mut count = vec![0u32; col.distinct_count()];
        for &c in col.codes() {
            count[c as usize] += 1;
        }
        for (t, &c) in col.codes().iter().enumerate() {
            if count[c as usize] >= 2 {
                dup_attrs[t].insert(a);
            }
        }
    }
    let mut seen: FxHashSet<AttrSet> = FxHashSet::default();
    for i in 0..r.len() {
        for j in (i + 1)..r.len() {
            if (dup_attrs[i] & dup_attrs[j]).is_empty() {
                continue; // provably empty agree set
            }
            seen.insert(r.agree_set(i, j));
        }
    }
    AgreeSets::from_raw(seen.into_iter().collect(), r.arity(), r.len(), db_constants)
}

/// **Algorithm 2.** Couples are generated per maximal equivalence class;
/// when `chunk_size` couples have accumulated, the stripped partitions are
/// scanned once to fill in their agree sets and the buffer is flushed —
/// the flush is the hot part and is where the parallelism lives (see
/// [`flush_couples`]).
///
/// Governance: one checkpoint per maximal class (its couple count is
/// charged before any couple is generated, the buffer growth against the
/// memory cap), plus the governed flush. On a trip the fully-flushed
/// batches are returned.
fn agree_sets_couples_governed(
    db: &StrippedPartitionDb,
    chunk_size: Option<usize>,
    par: Parallelism,
    token: &CancelToken,
) -> (AgreeSets, Option<BudgetExceeded>) {
    let stage = Stage::AgreeSets;
    let _span = token.observer().span("agree-sets/couples");
    let mc = db.maximal_classes();
    let threshold = chunk_size.unwrap_or(usize::MAX).max(1);
    let mut ag: FxHashSet<AttrSet> = FxHashSet::default();
    // couples: (t, t') with t < t', buffered until the flush threshold
    // (lines 4–9 of Algorithm 2).
    let mut couples: Vec<(u32, u32)> = Vec::new();
    let mut reserved: u64 = 0;
    let mut stopped: Option<BudgetExceeded> = None;
    'classes: for class in &mc {
        let pairs = (class.len() * (class.len() - 1) / 2) as u64;
        if let Err(why) = token
            .add_couples(pairs, stage)
            .and_then(|()| token.reserve_memory(pairs * COUPLE_BYTES, stage))
        {
            stopped = Some(why);
            break;
        }
        reserved += pairs * COUPLE_BYTES;
        for (k, &t) in class.iter().enumerate() {
            for &u in &class[k + 1..] {
                couples.push(if t < u { (t, u) } else { (u, t) });
                if couples.len() >= threshold {
                    let freed = couples.len() as u64 * COUPLE_BYTES;
                    if let Err(why) = flush_couples(db, &mut couples, &mut ag, par, token) {
                        stopped = Some(why);
                        break 'classes;
                    }
                    token.release_memory(freed);
                    reserved = reserved.saturating_sub(freed);
                }
            }
        }
    }
    if stopped.is_none() {
        stopped = flush_couples(db, &mut couples, &mut ag, par, token).err();
    }
    token.release_memory(reserved);
    (AgreeSets::of_db(db, ag), stopped)
}

/// Lines 10–21 of Algorithm 2: scan every stripped class; each couple found
/// inside a class of `π̂_A` gains attribute `A`; finally the buffered agree
/// sets join `ag(r)` and the buffer empties.
///
/// Parallel decomposition: the scan fans out across *attributes* (not
/// couples — chunking couples would make every worker re-scan all
/// partitions, duplicating the dominant cost). Each worker scans its slice
/// of columns into a dense per-couple accumulator indexed by the couple's
/// position in the sorted buffer; the per-worker accumulators are merged by
/// attribute-set union, which is order-insensitive.
///
/// The token is polled once per attribute inside each worker (a column
/// scan is the unit of work). A tripped flush adds nothing to `ag` — the
/// batch is all-or-nothing, keeping partial results at clean boundaries.
fn flush_couples(
    db: &StrippedPartitionDb,
    couples: &mut Vec<(u32, u32)>,
    ag: &mut FxHashSet<AttrSet>,
    par: Parallelism,
    token: &CancelToken,
) -> Result<(), BudgetExceeded> {
    if couples.is_empty() {
        return Ok(());
    }
    couples.sort_unstable();
    couples.dedup();
    let n = couples.len();
    let slot_of: FxHashMap<(u32, u32), u32> = couples
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i as u32))
        .collect();
    let attrs: Vec<usize> = (0..db.arity()).collect();
    let partials: Vec<Vec<AttrSet>> = par_chunks_governed(
        par,
        token,
        Stage::AgreeSets,
        &attrs,
        chunk_len(attrs.len(), par, 2),
        |attr_chunk| {
            let _scan = token.observer().span("agree-sets/scan");
            let mut local = vec![AttrSet::empty(); n];
            for &a in attr_chunk {
                token.check(Stage::AgreeSets)?;
                for class in db.partition(a).classes() {
                    for (k, &t) in class.iter().enumerate() {
                        for &u in &class[k + 1..] {
                            let key = if t < u { (t, u) } else { (u, t) };
                            if let Some(&slot) = slot_of.get(&key) {
                                local[slot as usize].insert(a);
                            }
                        }
                    }
                }
            }
            Ok(local)
        },
    )?;
    let mut merged = vec![AttrSet::empty(); n];
    for partial in partials {
        for (m, p) in merged.iter_mut().zip(partial) {
            *m = *m | p;
        }
    }
    ag.extend(merged);
    couples.clear();
    Ok(())
}

/// Ablation variant of Algorithm 2 *without* the maximal-class reduction:
/// couples are drawn from **every** stripped class instead of only `MC`.
///
/// Produces the same agree sets (every stripped class is contained in a
/// maximal one) at the cost of generating duplicate couples — the quantity
/// the `Max⊆` filter of Lemma 1 exists to avoid. Benchmarked by
/// `ablation_mc`.
pub fn agree_sets_couples_no_mc(db: &StrippedPartitionDb, chunk_size: Option<usize>) -> AgreeSets {
    let par = Parallelism::Auto;
    let token = CancelToken::unlimited();
    let threshold = chunk_size.unwrap_or(usize::MAX).max(1);
    let mut ag: FxHashSet<AttrSet> = FxHashSet::default();
    let mut couples: Vec<(u32, u32)> = Vec::new();
    for partition in db.partitions() {
        for class in partition.classes() {
            for (k, &t) in class.iter().enumerate() {
                for &u in &class[k + 1..] {
                    couples.push(if t < u { (t, u) } else { (u, t) });
                    if couples.len() >= threshold {
                        flush_couples(db, &mut couples, &mut ag, par, &token)
                            .expect("an unlimited token never trips");
                    }
                }
            }
        }
    }
    flush_couples(db, &mut couples, &mut ag, par, &token).expect("an unlimited token never trips");
    AgreeSets::of_db(db, ag)
}

/// **Algorithm 3.** The agree sets of every couple drawn from a maximal
/// class (Lemma 1), each the compare of two class-id rows (Lemma 2).
///
/// The class-id matrix is charged to the memory cap for the whole scan.
/// Classes fan out across threads; each class's couples are counted
/// before they are compared, and the token is polled every
/// [`GOVERN_POLL_STRIDE`] couples. A couple lying in two maximal classes
/// is compared twice, which only repeats a set insertion. A trip keeps
/// the agree sets already computed, a valid subset of `ag(r)`; the first
/// trip reason wins.
fn agree_sets_ec_governed(
    db: &StrippedPartitionDb,
    par: Parallelism,
    token: &CancelToken,
) -> (AgreeSets, Option<BudgetExceeded>) {
    let stage = Stage::AgreeSets;
    let ids: ClassIds = db.class_ids();
    let bytes = ids.heap_bytes() as u64;
    if let Err(why) = token.reserve_memory(bytes, stage) {
        return (AgreeSets::of_db(db, FxHashSet::default()), Some(why));
    }
    let mc = ids.maximal_classes();
    // Couple counts grow with the square of class size: oversubscribe
    // so stealing evens out chunks holding the large classes.
    let locals = par_chunks(par, &mc, chunk_len(mc.len(), par, 8), |classes| {
        let _scan = token.observer().span("agree-sets/scan");
        let mut local: FxHashSet<AttrSet> = FxHashSet::default();
        let mut until_poll = GOVERN_POLL_STRIDE;
        for class in classes {
            let pairs = (class.len() * (class.len() - 1) / 2) as u64;
            if let Err(why) = token.add_couples(pairs, stage) {
                return (local, Some(why));
            }
            for (k, &t) in class.iter().enumerate() {
                for &u in &class[k + 1..] {
                    until_poll -= 1;
                    if until_poll == 0 {
                        until_poll = GOVERN_POLL_STRIDE;
                        if let Err(why) = token.check(stage) {
                            return (local, Some(why));
                        }
                    }
                    local.insert(ids.agree(t as usize, u as usize));
                }
            }
        }
        (local, None)
    });
    token.release_memory(bytes);
    let mut seen: FxHashSet<AttrSet> = FxHashSet::default();
    let mut stopped: Option<BudgetExceeded> = None;
    // set-union merge is order-insensitive; lint: allow(unordered-iter)
    for (local, why) in locals {
        seen.extend(local);
        stopped = stopped.or(why);
    }
    (AgreeSets::of_db(db, seen), stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_relation::datasets;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    fn employee_expected() -> Vec<AttrSet> {
        // Example 5/8: nonempty agree sets {A, BDE, CE, E}.
        let mut v = vec![s(&[0]), s(&[1, 3, 4]), s(&[2, 4]), s(&[4])];
        v.sort();
        v
    }

    #[test]
    fn naive_matches_paper_example() {
        let r = datasets::employee();
        let ag = agree_sets_naive(&r);
        assert_eq!(ag.sets, employee_expected());
        assert_eq!(ag.arity, 5);
        assert_eq!(ag.n_rows, 7);
        assert_eq!(ag.constant_attrs, AttrSet::empty());
    }

    #[test]
    fn naive_guard_agrees_with_unguarded_scan() {
        // The disjointness guard may only skip couples whose agree set is
        // empty: compare against the plain all-pairs scan.
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::constant_columns(),
            datasets::no_fds(),
            depminer_relation::SyntheticConfig::new(6, 120, 0.5)
                .generate()
                .unwrap(),
        ] {
            let mut unguarded: FxHashSet<AttrSet> = FxHashSet::default();
            for i in 0..r.len() {
                for j in (i + 1)..r.len() {
                    let ag = r.agree_set(i, j);
                    if !ag.is_empty() {
                        unguarded.insert(ag);
                    }
                }
            }
            let mut expected: Vec<AttrSet> = unguarded.into_iter().collect();
            expected.sort_unstable();
            assert_eq!(agree_sets_naive(&r).sets, expected);
        }
    }

    #[test]
    fn algorithm2_matches_paper_example() {
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        let ag = agree_sets(&db, AgreeSetStrategy::Couples { chunk_size: None });
        assert_eq!(ag.sets, employee_expected());
    }

    #[test]
    fn algorithm2_chunked_matches_unchunked() {
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        let full = agree_sets(&db, AgreeSetStrategy::Couples { chunk_size: None });
        for chunk in [1, 2, 3, 5, 100] {
            assert_eq!(
                agree_sets(
                    &db,
                    AgreeSetStrategy::Couples {
                        chunk_size: Some(chunk)
                    }
                )
                .sets,
                full.sets,
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn algorithm3_matches_paper_example() {
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        let ag = agree_sets(&db, AgreeSetStrategy::EquivalenceClasses);
        assert_eq!(ag.sets, employee_expected());
    }

    #[test]
    fn all_strategies_agree_on_datasets() {
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::constant_columns(),
            datasets::no_fds(),
        ] {
            let db = StrippedPartitionDb::from_relation(&r);
            let naive = agree_sets_naive(&r);
            for strat in [
                AgreeSetStrategy::Couples { chunk_size: None },
                AgreeSetStrategy::Couples {
                    chunk_size: Some(2),
                },
                AgreeSetStrategy::EquivalenceClasses,
            ] {
                let ag = agree_sets(&db, strat);
                assert_eq!(ag.sets, naive.sets, "strategy {:?} diverges", strat);
                assert_eq!(ag.constant_attrs, naive.constant_attrs);
            }
        }
    }

    #[test]
    fn parallel_strategies_match_sequential() {
        let r = depminer_relation::SyntheticConfig::new(8, 200, 0.4)
            .generate()
            .unwrap();
        let db = StrippedPartitionDb::from_relation(&r);
        for strat in [
            AgreeSetStrategy::Couples { chunk_size: None },
            AgreeSetStrategy::Couples {
                chunk_size: Some(64),
            },
            AgreeSetStrategy::EquivalenceClasses,
        ] {
            let seq = agree_sets_with(&db, strat, Parallelism::Sequential);
            for par in [Parallelism::Threads(2), Parallelism::Threads(4)] {
                assert_eq!(
                    agree_sets_with(&db, strat, par),
                    seq,
                    "strategy {strat:?} at {par:?} diverges"
                );
            }
        }
    }

    #[test]
    fn no_mc_variant_matches_algorithm2() {
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::no_fds(),
        ] {
            let db = StrippedPartitionDb::from_relation(&r);
            assert_eq!(
                agree_sets_couples_no_mc(&db, None).sets,
                agree_sets(&db, AgreeSetStrategy::Couples { chunk_size: None }).sets
            );
            assert_eq!(
                agree_sets_couples_no_mc(&db, Some(2)).sets,
                agree_sets(&db, AgreeSetStrategy::Couples { chunk_size: None }).sets
            );
        }
    }

    #[test]
    fn class_id_rows_agree_like_the_relation() {
        // Up to 70 attributes, so the > 64-attribute path runs too.
        let mut rng = depminer_relation::Prng::seed_from_u64(0xC1A5_5EED);
        for trial in 0..40 {
            let n_attrs = if trial % 4 == 0 {
                rng.gen_range(60..=70usize)
            } else {
                rng.gen_range(1..=12usize)
            };
            let n_rows = rng.gen_range(0..=24usize);
            let domain = rng.gen_range(1..=4u32);
            let cols: Vec<Vec<u32>> = (0..n_attrs)
                .map(|_| (0..n_rows).map(|_| rng.gen_range(0..domain)).collect())
                .collect();
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(n_attrs).unwrap(),
                cols,
            )
            .unwrap();
            let db = StrippedPartitionDb::from_relation(&r);
            let ids = db.class_ids();
            for t in 0..n_rows {
                for u in 0..n_rows {
                    if t != u {
                        assert_eq!(ids.agree(t, u), r.agree_set(t, u), "trial {trial}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_tuple_relation_has_no_agree_sets() {
        let r = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(3).unwrap(),
            vec![vec![1], vec![2], vec![3]],
        )
        .unwrap();
        let db = StrippedPartitionDb::from_relation(&r);
        for strat in [
            AgreeSetStrategy::Couples { chunk_size: None },
            AgreeSetStrategy::EquivalenceClasses,
        ] {
            let ag = agree_sets(&db, strat);
            assert!(ag.sets.is_empty());
            assert_eq!(ag.constant_attrs, AttrSet::full(3));
        }
    }

    #[test]
    fn fully_distinct_relation_yields_empty_ag() {
        // Every column is a key: no couples at all.
        let r = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(2).unwrap(),
            vec![vec![0, 1, 2], vec![0, 1, 2]],
        )
        .unwrap();
        // wait: columns equal ⇒ tuples (0,0),(1,1),(2,2) pairwise disagree
        // on both attributes.
        let db = StrippedPartitionDb::from_relation(&r);
        let ag = agree_sets(&db, AgreeSetStrategy::EquivalenceClasses);
        assert!(ag.sets.is_empty());
        assert_eq!(ag.constant_attrs, AttrSet::empty());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(
            AgreeSetStrategy::Couples {
                chunk_size: Some(4)
            }
            .name(),
            "alg2-couples"
        );
        assert_eq!(AgreeSetStrategy::EquivalenceClasses.name(), "alg3-ec");
    }
}
