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
//!   accumulated by scanning the stripped partitions, each batch of
//!   couples looked up through a per-tuple index of its first tuples;
//!   includes the memory-bounded chunking the paper describes ("computing
//!   agree sets as soon as a fixed number of couples was generated");
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
//! worker owns a slice of columns and one accumulator per couple of the
//! batch, merged by union), Algorithm 3 fans the row compares across
//! *maximal classes* (thread-local hash-set accumulators merged at the
//! end). Both merges are order-insensitive unions, and the final sort in
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
//! against the budget one equivalence class (or one row) at a time, and
//! scans poll the token. The class-id matrix is charged to the memory cap
//! while it lives: for Algorithm 2 only while `MC` is computed, before
//! any couple is counted. Algorithm 2 also charges its couple buffer, its
//! per-tuple index rows and, while a flush runs, the flush's index
//! entries and accumulators. A tripped run returns the agree sets
//! accumulated from fully-flushed batches — a valid *subset* of `ag(r)`
//! usable for diagnostics, never for downstream derivation.

use depminer_govern::{BudgetExceeded, CancelToken, Stage};
use depminer_parallel::{par_chunks, par_chunks_governed, Parallelism, GOVERN_POLL_STRIDE};
use depminer_relation::{AttrSet, ClassIds, FxHashSet, Relation, StrippedPartitionDb};

/// Bytes one buffered couple occupies, for the approximate memory cap.
const COUPLE_BYTES: u64 = std::mem::size_of::<(u32, u32)>() as u64;
/// Bytes one couple occupies in a flush's [`CoupleIndex`].
const ENTRY_BYTES: u64 = std::mem::size_of::<u64>() as u64;
/// Bytes of one couple's agree-set accumulator in a flush.
const SLOT_BYTES: u64 = std::mem::size_of::<AttrSet>() as u64;

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

/// Couples per Algorithm 2 flush for a `chunk_size` bound (`None` means
/// one flush). A batch stays within `u32` slots.
fn flush_threshold(chunk_size: Option<usize>) -> usize {
    chunk_size
        .map_or(usize::MAX, |n| n.max(1))
        .min(u32::MAX as usize)
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

/// **Algorithm 2.** `MC` comes from the class-id matrix, charged to the
/// memory cap while it lives. Couples are then generated per maximal
/// class; when `chunk_size` couples have accumulated, the stripped
/// partitions are scanned once to fill in their agree sets and the buffer
/// is flushed — the flush is the hot part and is where the parallelism
/// lives (see [`flush_couples`]).
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
    let mut ag: FxHashSet<AttrSet> = FxHashSet::default();
    let ids = db.class_ids();
    let matrix = ids.heap_bytes() as u64;
    if let Err(why) = token.reserve_memory(matrix, stage) {
        return (AgreeSets::of_db(db, ag), Some(why));
    }
    let mc = ids.maximal_classes();
    drop(ids);
    token.release_memory(matrix);
    let mut index = CoupleIndex::new(db.n_rows());
    let rows = index.row_bytes();
    if let Err(why) = token.reserve_memory(rows, stage) {
        return (AgreeSets::of_db(db, ag), Some(why));
    }
    let threshold = flush_threshold(chunk_size);
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
                    if let Err(why) =
                        flush_couples(db, &mut index, &mut couples, &mut ag, par, token)
                    {
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
        stopped = flush_couples(db, &mut index, &mut couples, &mut ag, par, token).err();
    }
    token.release_memory(reserved + rows);
    (AgreeSets::of_db(db, ag), stopped)
}

/// Row `t` of a [`CoupleIndex`]: the entries of `t`'s partners are
/// `entries[start..start + len]`, and `sig` has bit `u & 63` set for each
/// partner `u`, so a clear bit proves `(t, u)` absent from the batch.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    start: u32,
    len: u32,
    sig: u64,
}

/// A batch of couples indexed by first tuple: row `t` lists the partners
/// `u > t` of `t`, ascending and duplicate-free. Each entry is
/// `u << 32 | slot`, where `slot` is the couple's first position in the
/// batch and the index of its agree-set accumulator. The per-tuple rows
/// are allocated once per run; a flush fills, and then resets, only the
/// rows its batch touches, so it costs O(batch), not O(|r|).
#[derive(Debug)]
struct CoupleIndex {
    rows: Vec<Row>,
    /// Tuples with at least one couple in the batch.
    touched: Vec<u32>,
    entries: Vec<u64>,
}

/// Marks a later repeat of a couple in a filled batch; no class pair
/// equals it.
const REPEAT: (u32, u32) = (u32::MAX, u32::MAX);

impl CoupleIndex {
    fn new(n_rows: usize) -> Self {
        CoupleIndex {
            rows: vec![Row::default(); n_rows],
            touched: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Tracked bytes of the per-tuple rows, for the memory cap.
    fn row_bytes(&self) -> u64 {
        (self.rows.len() * std::mem::size_of::<Row>()) as u64
    }

    /// Buckets `batch` by first tuple, with a counting sort over the
    /// touched rows, then sorts and deduplicates each row in place. A
    /// couple's later positions in `batch` become [`REPEAT`], so each
    /// couple is left at its slot only.
    fn fill(&mut self, batch: &mut [(u32, u32)]) {
        for &(t, _) in batch.iter() {
            let row = &mut self.rows[t as usize];
            if row.len == 0 {
                self.touched.push(t);
            }
            row.len += 1;
        }
        let mut start = 0;
        for &t in &self.touched {
            let row = &mut self.rows[t as usize];
            row.start = start;
            start += row.len;
            row.len = 0;
        }
        self.entries.resize(batch.len(), 0);
        for (slot, &(t, u)) in batch.iter().enumerate() {
            let row = &mut self.rows[t as usize];
            self.entries[(row.start + row.len) as usize] = u64::from(u) << 32 | slot as u64;
            row.len += 1;
            row.sig |= 1 << (u & 63);
        }
        for &t in &self.touched {
            let row = &mut self.rows[t as usize];
            let entries = &mut self.entries[row.start as usize..][..row.len as usize];
            entries.sort_unstable();
            let mut kept = 1;
            for i in 1..entries.len() {
                if entries[i] >> 32 == entries[kept - 1] >> 32 {
                    batch[entries[i] as u32 as usize] = REPEAT;
                } else {
                    entries[kept] = entries[i];
                    kept += 1;
                }
            }
            row.len = kept as u32;
        }
    }

    /// Adds `a` to the slot of every couple of the filled `batch` that
    /// lies inside `class`. Members of a stripped class are ascending, so
    /// each pair `(t, u)` has `t < u`. A clear signature bit skips the
    /// pair. Otherwise the slot after the last one written, `next`, is
    /// tried first: the scan meets a maximal class's couples in the order
    /// they were generated. Failing that, `u` is binary-searched in the
    /// part of row `t` not yet passed.
    fn scan_class(
        &self,
        class: &[u32],
        a: usize,
        batch: &[(u32, u32)],
        next: &mut usize,
        slots: &mut [AttrSet],
    ) {
        let Some((_, firsts)) = class.split_last() else {
            return;
        };
        for (k, &t) in firsts.iter().enumerate() {
            let row = self.rows[t as usize];
            let mut rest = &self.entries[row.start as usize..][..row.len as usize];
            for &u in &class[k + 1..] {
                if row.sig & (1 << (u & 63)) == 0 {
                    continue;
                }
                if batch.get(*next) == Some(&(t, u)) {
                    slots[*next].insert(a);
                    *next += 1;
                    continue;
                }
                let key = u64::from(u) << 32;
                let mut passed = rest.partition_point(|&e| e < key);
                if let Some(&e) = rest.get(passed).filter(|&&e| e >> 32 == key >> 32) {
                    let slot = e as u32 as usize;
                    slots[slot].insert(a);
                    *next = slot + 1;
                    passed += 1;
                }
                rest = &rest[passed..];
                if rest.is_empty() {
                    break;
                }
            }
        }
    }

    /// Resets the touched rows, ready for the next batch.
    fn clear(&mut self) {
        for &t in &self.touched {
            self.rows[t as usize] = Row::default();
        }
        self.touched.clear();
        self.entries.clear();
    }
}

/// Lines 10–21 of Algorithm 2: scan every stripped class; each couple found
/// inside a class of `π̂_A` gains attribute `A`; finally the buffered agree
/// sets join `ag(r)` and the buffer empties.
///
/// The batch is first bucketed into `index` by first tuple (see
/// [`CoupleIndex`]). A couple's accumulator slot is its first position in
/// the batch, so the scan, which meets most couples in the order they
/// were generated, writes the accumulators almost in order. The index,
/// at 8 bytes a couple, and the accumulators, at 16 bytes a couple per
/// worker, are charged to the memory cap while the flush runs.
///
/// Parallel decomposition: the scan fans out across *attributes* (not
/// couples — chunking couples would make every worker re-scan all
/// partitions, duplicating the dominant cost). Each worker scans its slice
/// of columns into its own accumulators; they are merged by attribute-set
/// union, which is order-insensitive.
///
/// The token is polled once per attribute inside each worker (a column
/// scan is the unit of work). A tripped flush adds nothing to `ag` — the
/// batch is all-or-nothing, keeping partial results at clean boundaries.
fn flush_couples(
    db: &StrippedPartitionDb,
    index: &mut CoupleIndex,
    couples: &mut Vec<(u32, u32)>,
    ag: &mut FxHashSet<AttrSet>,
    par: Parallelism,
    token: &CancelToken,
) -> Result<(), BudgetExceeded> {
    if couples.is_empty() {
        return Ok(());
    }
    let n = couples.len();
    let attrs: Vec<usize> = (0..db.arity()).collect();
    let chunk = chunk_len(attrs.len(), par, 2);
    let workers = attrs.len().div_ceil(chunk).max(1) as u64;
    let bytes = n as u64 * (ENTRY_BYTES + workers * SLOT_BYTES);
    token.reserve_memory(bytes, Stage::AgreeSets)?;
    index.fill(couples);
    let scanned = par_chunks_governed(par, token, Stage::AgreeSets, &attrs, chunk, |attr_chunk| {
        let _scan = token.observer().span("agree-sets/scan");
        let mut slots = vec![AttrSet::empty(); n];
        let mut next = 0;
        for &a in attr_chunk {
            token.check(Stage::AgreeSets)?;
            for class in db.partition(a).classes() {
                index.scan_class(class, a, couples, &mut next, &mut slots);
            }
        }
        Ok(slots)
    });
    let added = scanned.map(|partials| {
        let mut partials = partials.into_iter();
        let mut slots = partials.next().unwrap_or_default();
        for partial in partials {
            for (m, p) in slots.iter_mut().zip(partial) {
                *m = *m | p;
            }
        }
        // Only a repeat's position keeps an empty slot. Equal neighbours
        // are common within a class, so they skip the hash.
        let mut last = AttrSet::empty();
        for s in slots {
            if s != last && !s.is_empty() {
                ag.insert(s);
                last = s;
            }
        }
    });
    token.release_memory(bytes);
    index.clear();
    added?;
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
    let threshold = flush_threshold(chunk_size);
    let mut ag: FxHashSet<AttrSet> = FxHashSet::default();
    let mut index = CoupleIndex::new(db.n_rows());
    let mut couples: Vec<(u32, u32)> = Vec::new();
    let mut flush = |couples: &mut Vec<(u32, u32)>| {
        flush_couples(db, &mut index, couples, &mut ag, par, &token)
            .expect("an unlimited token never trips");
    };
    for partition in db.partitions() {
        for class in partition.classes() {
            for (k, &t) in class.iter().enumerate() {
                for &u in &class[k + 1..] {
                    couples.push(if t < u { (t, u) } else { (u, t) });
                    if couples.len() >= threshold {
                        flush(&mut couples);
                    }
                }
            }
        }
    }
    flush(&mut couples);
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
