//! TANE's level walk \[HKPT98\], shared by exact and approximate mining.
//!
//! Each lattice node `X` carries its stripped partition `π̂_X`; a level's
//! survivors are joined by prefix into the next level, whose partitions
//! are products of their generating pairs. A [`LevelRule`] supplies what
//! differs between the miners — the per-level test, its stage and span
//! names, and its snapshot frame. The walk owns the rest: the level list,
//! the [`LevelCache`] and its arena, the resume rebuild, the boundary
//! snapshot offer, the level's budget charges, the products, the level
//! swap, and the final reclaim and snapshot flush or discard.

use depminer_govern::snapshot::Snapshot;
use depminer_govern::{BudgetExceeded, CancelToken, Counter, Stage};
use depminer_parallel::{par_chunks_governed, Parallelism};
use depminer_relation::state::db_fingerprint;
use depminer_relation::{
    apriori_gen, AttrSet, FlatPartition, FxHashMap, PartitionArena, StrippedPartitionDb,
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
/// products; `config` is stamped into the rule's frames. A trip flushes
/// the newest clean boundary's snapshot, a completed walk discards the
/// rule's snapshot, and either way the token's memory account returns to
/// its pre-walk baseline.
pub(crate) fn walk<R: LevelRule>(
    rule: &mut R,
    db: &StrippedPartitionDb,
    par: Parallelism,
    token: &CancelToken,
    config: Vec<u8>,
    resume: Option<Boundary>,
) -> (TaneStats, usize, Option<BudgetExceeded>) {
    let n_rows = db.n_rows();
    let mut stats = TaneStats::default();
    let mut level: Vec<AttrSet> = (0..db.arity()).map(AttrSet::singleton).collect();
    let mut cache: LevelCache<'_> = (0..db.arity())
        .map(|a| (AttrSet::singleton(a), Cow::Borrowed(db.partition(a))))
        .collect();
    let mut arena = PartitionArena::new(n_rows);
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
            for &x in &level {
                if let Err(why) = token.check(R::STAGE) {
                    stopped = Some(why);
                    break;
                }
                // A left-deep chain of singleton products; each
                // intermediate goes back to the arena.
                let mut attrs = x.iter();
                let first = attrs.next().expect("lattice sets are non-empty");
                let mut p = Cow::Borrowed(db.partition(first));
                for a in attrs {
                    let next = Cow::Owned(p.product_with(db.partition(a), &mut arena));
                    if let Cow::Owned(prev) = std::mem::replace(&mut p, next) {
                        arena.recycle(prev);
                    }
                }
                let p = p.into_owned();
                if let Err(why) = token.reserve_memory(p.heap_bytes() as u64, R::STAGE) {
                    arena.recycle(p);
                    stopped = Some(why);
                    break;
                }
                cache.insert(x, Cow::Owned(p));
            }
            if stopped.is_some() {
                // The rebuild itself went over budget: surface the
                // checkpoint's FDs (all validated) as the partial.
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
            &survivors, &mut cache, &mut arena, &mut stats, par, n_rows, token,
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
fn reclaim_all(cache: &mut LevelCache<'_>, arena: &mut PartitionArena, token: &CancelToken) {
    for (_, part) in cache.drain() {
        if let Cow::Owned(p) = part {
            token.release_memory(p.heap_bytes() as u64);
            arena.recycle(p);
        }
    }
}

/// The next level, joined from the survivors by [`apriori_gen`];
/// partitions of new nodes are products of their generating pair,
/// computed in place against the level [`PartitionArena`].
///
/// The join (cheap set algebra, sequential) yields one generating pair
/// per lattice node `Z`, ascending by `Z`, and the products, the
/// dominant per-level cost, either run on the calling thread against the
/// shared arena or fan out across threads with one arena per chunk.
/// Chunk boundaries are deterministic and the returned level strictly
/// ascends.
///
/// Memory: each produced partition's `heap_bytes` are reserved on the
/// token before it is kept. On the sequential path, when a reservation
/// *would* trip the budget, current-level partitions no later pair
/// references ("retired") are evicted earliest-retired-first — trading
/// footprint for nothing (they are dead weight) instead of aborting — and
/// only when no retired entry is left does a genuine reservation trip
/// surface as a partial result.
fn generate_next<'db, R: LevelRule>(
    survivors: &[AttrSet],
    cache: &mut LevelCache<'db>,
    arena: &mut PartitionArena,
    stats: &mut TaneStats,
    par: Parallelism,
    n_rows: usize,
    token: &CancelToken,
) -> Result<(Vec<AttrSet>, LevelCache<'db>), BudgetExceeded> {
    // One product per lattice node `z`, of its generating pair.
    let pairs = apriori_gen(survivors);
    stats.partition_products += pairs.len();
    token
        .observer()
        .add(Counter::PartitionProducts, pairs.len() as u64);
    let _span = token.observer().span(R::PRODUCTS_SPAN);
    let next: Vec<AttrSet> = pairs.iter().map(|p| p.0).collect();
    let mut next_cache = LevelCache::default();
    if pairs.len() >= PAR_LEVEL_THRESHOLD && !par.is_sequential() {
        // Parallel path: the current level is read shared across threads,
        // so eviction (which mutates it) is off; products are charged as
        // they are collected, in deterministic pair order.
        let chunk = pairs.len().div_ceil(par.effective_threads() * 4).max(1);
        let cache_ref: &LevelCache<'db> = cache;
        let produced: Vec<FlatPartition> =
            par_chunks_governed(par, token, R::STAGE, &pairs, chunk, |chunk_pairs| {
                let _products = token.observer().span(R::PRODUCTS_SPAN);
                let mut local_arena = PartitionArena::new(n_rows);
                chunk_pairs
                    .iter()
                    .map(|&(_, i, j)| {
                        token.check(R::STAGE)?;
                        let (x, y) = (&cache_ref[&survivors[i]], &cache_ref[&survivors[j]]);
                        Ok(x.product_with(y, &mut local_arena))
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
        // After its last generating pair, a survivor's partition is dead
        // weight until the caller's level swap — it joins the eviction
        // queue in retirement order.
        let mut last_use = vec![usize::MAX; survivors.len()];
        for (k, &(_, i, j)) in pairs.iter().enumerate() {
            last_use[i] = k;
            last_use[j] = k;
        }
        let mut retired: VecDeque<AttrSet> = VecDeque::new();
        let mut failed: Option<BudgetExceeded> = None;
        for (k, &(z, i, j)) in pairs.iter().enumerate() {
            if let Err(why) = token.check(R::STAGE) {
                failed = Some(why);
                break;
            }
            let (x, y) = (survivors[i], survivors[j]);
            let p = cache[&x].product_with(&cache[&y], arena);
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
            if last_use[j] == k {
                retired.push_back(y);
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
