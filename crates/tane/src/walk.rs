//! TANE's level walk \[HKPT98\], shared by exact and approximate mining.
//!
//! Each lattice node `X` carries its stripped partition `π̂_X`; a level's
//! survivors are joined by prefix into the next level. A node `Z = X ∪ Y`
//! joined from `X` and `Y` differs from `X` in one attribute `b`, so its
//! partition is the product `π̂_X · b`: one pass over `π̂_X` that splits
//! each class by `b`'s [`LabelColumn`], and `π̂_Y` is never read. A
//! [`LevelRule`] supplies what differs between the miners — the per-level
//! test, its stage and span names, and its snapshot frame. The walk owns
//! the rest: the level list, the [`LevelCache`] and its arena, the label
//! columns, the resume rebuild, the boundary snapshot offer, the level's
//! budget charges, the products, the level swap, and the final reclaim
//! and snapshot flush or discard.

use depminer_govern::snapshot::Snapshot;
use depminer_govern::{BudgetExceeded, CancelToken, Counter, Stage};
use depminer_parallel::{par_chunks_governed, Parallelism};
use depminer_relation::state::db_fingerprint;
use depminer_relation::{
    apriori_gen, AttrSet, FlatPartition, FxHashMap, LabelColumn, PartitionArena,
    StrippedPartitionDb,
};
use std::borrow::Cow;
use std::collections::VecDeque;

use crate::exact::TaneStats;

/// Lattice levels narrower than this run on the calling thread even under
/// a parallel setting: the fan-out overhead dominates tiny levels.
const PAR_LEVEL_THRESHOLD: usize = 8;

/// A miner's rule on the shared walk.
pub(crate) trait LevelRule {
    /// Algorithm id stamped into the rule's snapshot frames.
    const ALGO: &'static str;
    /// The stage the walk charges and polls under; the level loop's span
    /// takes its name.
    const STAGE: Stage;
    /// Span of the resume rebuild.
    const REBUILD_SPAN: &'static str;
    /// Span of each level's partition products.
    const PRODUCTS_SPAN: &'static str;

    /// Tests one level's nodes, records the FDs they yield, and returns
    /// the survivors the next level is joined from, in level order. On a
    /// trip every FD already recorded stays valid: it read only completed
    /// levels.
    fn test_level(
        &mut self,
        level: &[AttrSet],
        cache: &LevelCache<'_>,
        par: Parallelism,
        token: &CancelToken,
    ) -> Result<Vec<AttrSet>, BudgetExceeded>;

    /// The frame payload for the boundary after `completed_levels`, with
    /// `frontier` still to test.
    fn frame(&self, completed_levels: usize, frontier: &[AttrSet], stats: &TaneStats) -> Vec<u8>;
}

/// The boundary a resumed walk restarts at, as a checkpoint recorded it.
pub(crate) struct Boundary {
    pub(crate) completed_levels: usize,
    pub(crate) frontier: Vec<AttrSet>,
    pub(crate) candidates: u64,
    pub(crate) products: u64,
}

/// `true` iff `frontier` is one a walk could write after
/// `completed_levels` levels: strictly ascending, every set one attribute
/// larger. Both checkpoints' `check_fits` call it once `completed_levels`
/// is bounded by the arity.
pub(crate) fn frontier_fits(completed_levels: usize, frontier: &[AttrSet]) -> bool {
    frontier.windows(2).all(|w| w[0] < w[1])
        && frontier.iter().all(|x| x.len() == completed_levels + 1)
}

/// The partitions of one lattice level, keyed by attribute set. Level 1
/// *borrows* the singleton partitions from the [`StrippedPartitionDb`]
/// (no clone, no memory charge). Every product is owned by its level: its
/// `heap_bytes` are reserved on the token before insertion and released
/// by [`evict`] or [`reclaim_all`], which recycle its buffers into the
/// [`PartitionArena`] for the next level's products.
pub(crate) type LevelCache<'db> = FxHashMap<AttrSet, Cow<'db, FlatPartition>>;

/// Walks `db`'s attribute lattice under `rule`, from level 1 or from the
/// `resume` boundary, until no level is left or the budget trips, and
/// returns the walk's statistics (all but `elapsed`), the levels whose FDs
/// are all recorded, and the trip that stopped it, if any.
///
/// `par` sets the threads of the per-level test (levels narrower than
/// [`PAR_LEVEL_THRESHOLD`] stay on the calling thread) and of the
/// products; `config` is stamped into the rule's frames. The first
/// product builds every attribute's label column from `db`'s singleton
/// partitions and charges them to the token until the walk ends. A trip
/// flushes the newest clean boundary's snapshot, a completed walk discards
/// the rule's snapshot, and either way the token's memory account returns
/// to its pre-walk baseline.
pub(crate) fn walk<R: LevelRule>(
    rule: &mut R,
    db: &StrippedPartitionDb,
    par: Parallelism,
    token: &CancelToken,
    config: Vec<u8>,
    resume: Option<Boundary>,
) -> (TaneStats, usize, Option<BudgetExceeded>) {
    let mut stats = TaneStats::default();
    let mut level: Vec<AttrSet> = (0..db.arity()).map(AttrSet::singleton).collect();
    let mut cache: LevelCache<'_> = (0..db.arity())
        .map(|a| (AttrSet::singleton(a), Cow::Borrowed(db.partition(a))))
        .collect();
    let mut arena = PartitionArena::default();
    // Empty until the first product needs them.
    let mut labels: Vec<LabelColumn> = Vec::new();
    let mut stopped: Option<BudgetExceeded> = None;
    let mut completed_levels = 0usize;
    // Frame identity, computed once when snapshots can happen.
    let snapshot_id =
        (token.snapshots_armed() || resume.is_some()).then(|| (db_fingerprint(db), config));

    if let Some(b) = resume {
        // Fast-forward to the checkpoint's boundary and rebuild the
        // frontier's partitions from the singleton database (products are
        // canonical, so the rebuilt partitions match what the interrupted
        // run held).
        let _rebuild = token.observer().span(R::REBUILD_SPAN);
        completed_levels = b.completed_levels;
        level = b.frontier;
        stats.candidates = b.candidates as usize;
        stats.partition_products = b.products as usize;
        stats.levels = completed_levels;
        token
            .observer()
            .add(Counter::ResumeLevelsSkipped, completed_levels as u64);
        if completed_levels > 0 {
            cache.clear();
            let rebuilt = charge_labels::<R>(&mut labels, db, token)
                .and_then(|()| rebuild::<R>(&level, &mut cache, &labels, db, &mut arena, token));
            if let Err(why) = rebuilt {
                // The rebuild itself went over budget: surface the
                // checkpoint's FDs (all validated) as the partial.
                stopped = Some(why);
                level.clear();
            }
        }
    }

    let levels_span = token.observer().span(R::STAGE.name());
    while !level.is_empty() {
        // Boundary snapshot: the state as of the last completed level is
        // offered *before* this level charges any budget, so a trip below
        // flushes exactly this clean boundary to disk.
        if let Some((hash, config)) = &snapshot_id {
            token.offer_snapshot_with(|| Snapshot {
                algo: R::ALGO.to_string(),
                schema_hash: *hash,
                config: config.clone(),
                payload: rule.frame(completed_levels, &level, &stats),
            });
        }
        // Level entry is the primary checkpoint: depth and candidate
        // budgets are charged before any of the level's work starts, so a
        // trip leaves the FDs exactly at the previous level's boundary.
        let l = completed_levels + 1;
        if let Err(why) = token
            .enter_level(l, R::STAGE)
            .and_then(|()| token.add_candidates(level.len() as u64, R::STAGE))
        {
            stopped = Some(why);
            break;
        }
        stats.levels = l;
        stats.candidates += level.len();
        let level_par = if level.len() >= PAR_LEVEL_THRESHOLD {
            par
        } else {
            Parallelism::Sequential
        };
        let survivors = match rule.test_level(&level, &cache, level_par, token) {
            Ok(survivors) => survivors,
            Err(why) => {
                stopped = Some(why);
                break;
            }
        };
        // All of level l's FDs are in: this is the new clean boundary.
        completed_levels = l;
        let next = generate_next::<R>(
            &survivors,
            &mut cache,
            &mut labels,
            db,
            &mut arena,
            &mut stats,
            par,
            token,
        );
        let (next_level, next_cache) = match next {
            Ok(next) => next,
            Err(why) => {
                stopped = Some(why);
                break;
            }
        };
        // Level swap: the outgoing level's partitions are reclaimed.
        reclaim_all(&mut cache, &mut arena, token);
        cache = next_cache;
        level = next_level;
    }
    drop(levels_span);
    reclaim_all(&mut cache, &mut arena, token);
    token.release_memory(label_bytes(&labels));
    let hw = arena.high_water_bytes() as u64;
    if hw > 0 {
        token.observer().add(Counter::ArenaHighWaterBytes, hw);
    }
    // On a trip, persist the newest clean boundary; on completion, leave
    // nothing stale to resume.
    if stopped.is_some() {
        token.flush_snapshot();
    } else {
        token.discard_snapshot(R::ALGO);
    }
    (stats, completed_levels, stopped)
}

/// Rebuilds a resumed frontier's partitions into `cache`, each a left-deep
/// chain of singleton products, and charges each to the token as it is
/// kept. On a trip the partitions already kept stay charged in `cache`.
fn rebuild<'db, R: LevelRule>(
    frontier: &[AttrSet],
    cache: &mut LevelCache<'db>,
    labels: &[LabelColumn],
    db: &StrippedPartitionDb,
    arena: &mut PartitionArena,
    token: &CancelToken,
) -> Result<(), BudgetExceeded> {
    for &x in frontier {
        token.check(R::STAGE)?;
        // Every intermediate of the chain goes back to the arena.
        let mut attrs = x.iter();
        let first = attrs.next().expect("lattice sets are non-empty");
        let mut p = Cow::Borrowed(db.partition(first));
        for a in attrs {
            let next = Cow::Owned(p.product_with(&labels[a], arena));
            if let Cow::Owned(prev) = std::mem::replace(&mut p, next) {
                arena.recycle(prev);
            }
        }
        let p = p.into_owned();
        if let Err(why) = token.reserve_memory(p.heap_bytes() as u64, R::STAGE) {
            arena.recycle(p);
            return Err(why);
        }
        cache.insert(x, Cow::Owned(p));
    }
    Ok(())
}

/// Builds every attribute's label column from `db`'s singleton partitions
/// into `labels` and charges their bytes to the token, unless an earlier
/// product already did. On a trip nothing stays built or charged.
fn charge_labels<R: LevelRule>(
    labels: &mut Vec<LabelColumn>,
    db: &StrippedPartitionDb,
    token: &CancelToken,
) -> Result<(), BudgetExceeded> {
    if labels.is_empty() {
        let built: Vec<LabelColumn> = db
            .partitions()
            .iter()
            .map(FlatPartition::label_column)
            .collect();
        token.reserve_memory(label_bytes(&built), R::STAGE)?;
        *labels = built;
    }
    Ok(())
}

/// The bytes [`charge_labels`] charged for `labels`.
fn label_bytes(labels: &[LabelColumn]) -> u64 {
    labels.iter().map(|l| l.heap_bytes() as u64).sum()
}

/// Drops one entry early (memory pressure). An owned partition releases
/// its tracked bytes, recycles its buffers and counts the eviction; a
/// borrowed one is merely unlinked — it was never charged.
fn evict(cache: &mut LevelCache<'_>, x: AttrSet, arena: &mut PartitionArena, token: &CancelToken) {
    if let Some(Cow::Owned(p)) = cache.remove(&x) {
        token.release_memory(p.heap_bytes() as u64);
        token.observer().add(Counter::PartitionCacheEvictions, 1);
        arena.recycle(p);
    }
}

/// Releases and recycles every owned partition (the level swap, the end
/// of the walk, and a failed next level's rollback).
#[expect(
    clippy::iter_over_hash_type,
    reason = "releasing and recycling every partition is order-insensitive"
)]
fn reclaim_all(cache: &mut LevelCache<'_>, arena: &mut PartitionArena, token: &CancelToken) {
    for (_, part) in cache.drain() {
        if let Cow::Owned(p) = part {
            token.release_memory(p.heap_bytes() as u64);
            arena.recycle(p);
        }
    }
}

/// The next level, joined from the survivors by [`apriori_gen`]; the
/// partition of each new node `z` is `π̂_X · b`, where `X` is `z` minus its
/// largest attribute `b` (the pair's first member), computed in place
/// against the level [`PartitionArena`] and `b`'s label column.
///
/// The join (cheap set algebra, sequential) yields one generating pair
/// per lattice node `Z`, ascending by `Z`, and the products, the
/// dominant per-level cost, either run on the calling thread against the
/// shared arena or fan out across threads with one arena per chunk.
/// Chunk boundaries are deterministic and the returned level strictly
/// ascends.
///
/// Memory: the label columns are charged before the walk's first
/// product, and each produced partition's `heap_bytes` are reserved on
/// the token before it is kept. On the sequential path, when a
/// reservation *would* trip the budget, current-level partitions no later
/// product reads ("retired") are evicted earliest-retired-first — trading
/// footprint for nothing (they are dead weight) instead of aborting — and
/// only when no retired entry is left does a genuine reservation trip
/// surface as a partial result.
fn generate_next<'db, R: LevelRule>(
    survivors: &[AttrSet],
    cache: &mut LevelCache<'db>,
    labels: &mut Vec<LabelColumn>,
    db: &StrippedPartitionDb,
    arena: &mut PartitionArena,
    stats: &mut TaneStats,
    par: Parallelism,
    token: &CancelToken,
) -> Result<(Vec<AttrSet>, LevelCache<'db>), BudgetExceeded> {
    // One product per lattice node `z`: `π̂_X · b` for the pair's first
    // member `X = z ∖ {b}`, `b` the largest attribute of `z`.
    let pairs = apriori_gen(survivors);
    stats.partition_products += pairs.len();
    token
        .observer()
        .add(Counter::PartitionProducts, pairs.len() as u64);
    let _span = token.observer().span(R::PRODUCTS_SPAN);
    let next: Vec<AttrSet> = pairs.iter().map(|p| p.0).collect();
    let mut next_cache = LevelCache::default();
    if pairs.is_empty() {
        return Ok((next, next_cache));
    }
    charge_labels::<R>(labels, db, token)?;
    let labels: &[LabelColumn] = labels;
    let b_of = |z: AttrSet| {
        z.max_attr()
            .expect("joined sets have two or more attributes")
    };
    if pairs.len() >= PAR_LEVEL_THRESHOLD && !par.is_sequential() {
        // Parallel path: the current level is read shared across threads,
        // so eviction (which mutates it) is off; products are charged as
        // they are collected, in deterministic pair order.
        let chunk = pairs.len().div_ceil(par.effective_threads() * 4).max(1);
        let cache_ref: &LevelCache<'db> = cache;
        let produced: Vec<FlatPartition> =
            par_chunks_governed(par, token, R::STAGE, &pairs, chunk, |chunk_pairs| {
                let _products = token.observer().span(R::PRODUCTS_SPAN);
                let mut local_arena = PartitionArena::default();
                chunk_pairs
                    .iter()
                    .map(|&(z, i, _)| {
                        token.check(R::STAGE)?;
                        let x = &cache_ref[&survivors[i]];
                        Ok(x.product_with(&labels[b_of(z)], &mut local_arena))
                    })
                    .collect::<Result<Vec<_>, BudgetExceeded>>()
            })?
            .into_iter()
            .flatten()
            .collect();
        for (&(z, _, _), p) in pairs.iter().zip(produced) {
            if let Err(why) = token.reserve_memory(p.heap_bytes() as u64, R::STAGE) {
                reclaim_all(&mut next_cache, arena, token);
                return Err(why);
            }
            next_cache.insert(z, Cow::Owned(p));
        }
    } else {
        // After the last product that reads it as `X`, a survivor's
        // partition is dead weight until the caller's level swap — it
        // joins the eviction queue in retirement order.
        let mut last_use = vec![usize::MAX; survivors.len()];
        for (k, &(_, i, _)) in pairs.iter().enumerate() {
            last_use[i] = k;
        }
        let mut retired: VecDeque<AttrSet> = VecDeque::new();
        let mut failed: Option<BudgetExceeded> = None;
        for (k, &(z, i, _)) in pairs.iter().enumerate() {
            if let Err(why) = token.check(R::STAGE) {
                failed = Some(why);
                break;
            }
            let x = survivors[i];
            let p = cache[&x].product_with(&labels[b_of(z)], arena);
            let bytes = p.heap_bytes() as u64;
            // Evict dead partitions before letting the reservation trip:
            // an advisory query first, so eviction has no side effects
            // when the budget is comfortable. Each pass pops one queue
            // entry, so the loop is bounded by the retired count.
            // lint: allow(budget-coverage)
            while token.memory_would_trip(bytes) {
                match retired.pop_front() {
                    Some(victim) => evict(cache, victim, arena, token),
                    None => break,
                }
            }
            if let Err(why) = token.reserve_memory(bytes, R::STAGE) {
                arena.recycle(p);
                failed = Some(why);
                break;
            }
            next_cache.insert(z, Cow::Owned(p));
            if last_use[i] == k {
                retired.push_back(x);
            }
        }
        if let Some(why) = failed {
            // Roll back this level's reservations so the token's memory
            // account stays exact in the partial outcome.
            reclaim_all(&mut next_cache, arena, token);
            return Err(why);
        }
    }
    Ok((next, next_cache))
}
