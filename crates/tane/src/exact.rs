//! The exact TANE algorithm \[HKPT98\], the baseline of the paper's §5.
//!
//! TANE walks the attribute-set lattice level by level. Each node `X`
//! carries its stripped partition `π̂_X` and an rhs⁺ candidate set `C⁺(X)`;
//! dependencies `X\{A} → A` are tested by comparing partition errors
//! (`X → A` holds iff `e(X) = e(X ∪ {A})`, where `e(X) = ||π̂_X|| − |π̂_X|`),
//! candidate sets prune rhs attributes transitively, and (super)key nodes
//! are cut from the lattice after emitting their remaining minimal FDs.
//!
//! The output is exactly the set of minimal non-trivial FDs — the same
//! cover Dep-Miner produces, which the integration tests assert on both
//! crafted and random relations.

use depminer_fdtheory::{normalize_fds, Fd};
use depminer_govern::snapshot::{Dec, Enc, Snapshot};
use depminer_govern::{
    BudgetExceeded, CancelToken, Counter, MiningOutcome, SnapshotError, SnapshotState, Stage,
    StageReport,
};
use depminer_parallel::{par_chunks_governed, par_map, par_map_governed, Parallelism};
use depminer_relation::state::{
    all_within, check_fit, db_fingerprint, put_attrset, put_attrset_vec, take_attrset,
};
use depminer_relation::{
    AttrSet, FlatPartition, FxHashMap, FxHashSet, PartitionArena, Relation, Schema,
    StrippedPartitionDb,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Algorithm id stamped into exact-TANE snapshot frames.
pub const TANE_ALGO: &str = "tane";

/// Lattice levels narrower than this run on the calling thread even under
/// a parallel setting: the fan-out overhead dominates tiny levels.
const PAR_LEVEL_THRESHOLD: usize = 8;

/// Statistics about a TANE run (for the benchmark harness and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaneStats {
    /// Number of lattice levels visited (max |X| reached).
    pub levels: usize,
    /// Total lattice nodes examined.
    pub candidates: usize,
    /// Stripped-partition products computed.
    pub partition_products: usize,
    /// Wall-clock time of the run (excluding partition-db extraction when
    /// entering via [`Tane::run_db`]).
    pub elapsed: Duration,
}

/// Result of a TANE run.
#[derive(Debug, Clone)]
pub struct TaneResult {
    /// The schema mined.
    pub schema: Schema,
    /// Number of tuples.
    pub n_rows: usize,
    /// Minimal non-trivial FDs (a cover of `dep(r)`), sorted.
    pub fds: Vec<Fd>,
    /// Run statistics.
    pub stats: TaneStats,
}

impl TaneResult {
    /// Groups the discovered FDs into per-attribute lhs families
    /// `lhs(dep(r), A)`, *including* the trivial entry (`{A}`, or `∅` when
    /// `∅ → A` holds) — the form required by the §5.1 Armstrong extension
    /// (`cmax(dep(r), A) = Tr(lhs(dep(r), A))`).
    pub fn lhs_families(&self) -> Vec<Vec<AttrSet>> {
        lhs_families_from_fds(&self.fds, self.schema.arity())
    }
}

/// Resumable exact-TANE state at a completed-level boundary (DESIGN.md
/// §12): the level frontier still to be processed, the previous level's
/// partition errors, the global C⁺ store, and the FDs emitted so far.
/// Partitions are *not* persisted — the frontier's are rebuilt from the
/// [`StrippedPartitionDb`] singletons on load, which is sound because
/// `FlatPartition` products are canonical (classes ordered by first
/// tuple id) regardless of how the product is associated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaneCheckpoint {
    /// Lattice levels fully processed (their FDs are all in `fds`).
    pub completed_levels: usize,
    /// The next level's node sets, in generation order.
    pub frontier: Vec<AttrSet>,
    /// `err(X)` for every level-`completed_levels` node, sorted by set.
    pub prev_errs: Vec<(AttrSet, u64)>,
    /// The C⁺ rhs-candidate store (including memoized lookups), sorted.
    pub cplus: Vec<(AttrSet, AttrSet)>,
    /// FDs emitted through the completed levels, in emission order.
    pub fds: Vec<Fd>,
    /// Lattice candidates charged to the budget so far.
    pub candidates: u64,
    /// Partition products computed so far.
    pub products: u64,
}

impl TaneCheckpoint {
    /// Serialize into a snapshot payload.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_usize(self.completed_levels);
        put_attrset_vec(&mut e, &self.frontier);
        e.put_usize(self.prev_errs.len());
        for &(x, v) in &self.prev_errs {
            put_attrset(&mut e, x);
            e.put_u64(v);
        }
        e.put_usize(self.cplus.len());
        for &(x, c) in &self.cplus {
            put_attrset(&mut e, x);
            put_attrset(&mut e, c);
        }
        e.put_usize(self.fds.len());
        for fd in &self.fds {
            put_attrset(&mut e, fd.lhs);
            e.put_usize(fd.rhs);
        }
        e.put_u64(self.candidates);
        e.put_u64(self.products);
        e.into_bytes()
    }

    /// Decode a snapshot payload; failures are positioned.
    pub fn decode_payload(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut d = Dec::new(bytes);
        let completed_levels = d.take_usize()?;
        let frontier = depminer_relation::state::take_attrset_vec(&mut d)?;
        let n = d.take_usize()?;
        let mut prev_errs = Vec::new();
        for _ in 0..n {
            let x = take_attrset(&mut d)?;
            prev_errs.push((x, d.take_u64()?));
        }
        let n = d.take_usize()?;
        let mut cplus = Vec::new();
        for _ in 0..n {
            let x = take_attrset(&mut d)?;
            cplus.push((x, take_attrset(&mut d)?));
        }
        let n = d.take_usize()?;
        let mut fds = Vec::new();
        for _ in 0..n {
            let lhs = take_attrset(&mut d)?;
            fds.push(Fd::new(lhs, d.take_usize()?));
        }
        let candidates = d.take_u64()?;
        let products = d.take_u64()?;
        d.finish()?;
        Ok(TaneCheckpoint {
            completed_levels,
            frontier,
            prev_errs,
            cplus,
            fds,
            candidates,
            products,
        })
    }

    /// Budget counters the interrupted run already charged.
    pub fn spend(&self) -> SnapshotState {
        SnapshotState {
            couples: 0,
            candidates: self.candidates,
        }
    }

    /// Refuses a payload that does not fit a relation of `arity`
    /// attributes: at most `arity` levels can be complete, every set must
    /// lie within the relation, every frontier set must have
    /// `completed_levels + 1` attributes, and every non-empty `x∖{a}` of a
    /// frontier set `x` must carry its C⁺ and its partition error, which
    /// the next level reads.
    pub fn check_fits(&self, arity: usize) -> Result<(), SnapshotError> {
        let sets = self.frontier.iter().copied();
        let sets = sets.chain(self.prev_errs.iter().map(|&(x, _)| x));
        let sets = sets.chain(self.cplus.iter().flat_map(|&(x, c)| [x, c]));
        let sets = sets.chain(self.fds.iter().map(|fd| fd.lhs));
        let cplus: FxHashSet<AttrSet> = self.cplus.iter().map(|&(x, _)| x).collect();
        let errs: FxHashSet<AttrSet> = self.prev_errs.iter().map(|&(x, _)| x).collect();
        let restored = |y: AttrSet| y.is_empty() || (cplus.contains(&y) && errs.contains(&y));
        check_fit(
            self.completed_levels <= arity
                && all_within(arity, sets)
                && self.fds.iter().all(|fd| fd.rhs < arity)
                && self
                    .frontier
                    .iter()
                    .all(|x| x.len() == self.completed_levels + 1 && x.drop_one().all(restored)),
            TANE_ALGO,
            arity,
        )
    }

    fn into_snapshot(&self, schema_hash: u64, config: Vec<u8>) -> Snapshot {
        Snapshot {
            algo: TANE_ALGO.to_string(),
            schema_hash,
            config,
            payload: self.encode_payload(),
        }
    }
}

/// See [`TaneResult::lhs_families`]; split out for reuse by the extension.
pub fn lhs_families_from_fds(fds: &[Fd], arity: usize) -> Vec<Vec<AttrSet>> {
    let mut fams: Vec<Vec<AttrSet>> = vec![Vec::new(); arity];
    for f in fds {
        fams[f.rhs].push(f.lhs);
    }
    for (a, fam) in fams.iter_mut().enumerate() {
        // `{A}` is a minimal lhs unless ∅ → A holds (∅ ⊂ {A}).
        if !fam.contains(&AttrSet::empty()) {
            fam.push(AttrSet::singleton(a));
        }
        fam.sort_unstable();
    }
    fams
}

/// The exact TANE miner.
///
/// The two pruning rules of \[HKPT98\] can be disabled independently for
/// ablation studies (`ablation_tane` bench): `rhs_pruning` is the C⁺
/// candidate-set machinery, `key_pruning` cuts superkey nodes from the
/// lattice. Disabling either preserves correctness (the same minimal FDs
/// come out — asserted by tests) but changes how much of the lattice is
/// explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tane {
    /// Enable C⁺ rhs-candidate pruning (on in the paper).
    pub rhs_pruning: bool,
    /// Enable superkey pruning (on in the paper).
    pub key_pruning: bool,
    /// Thread-count setting for the per-level loops (defaults to
    /// [`Parallelism::Auto`]). Levels are natural barriers — level `l+1`
    /// only starts once level `l` has fully completed — and the mined FDs
    /// are identical at every thread count.
    pub parallelism: Parallelism,
}

impl Default for Tane {
    fn default() -> Self {
        Tane::new()
    }
}

impl Tane {
    /// Creates a miner with the paper's full pruning.
    pub fn new() -> Self {
        Tane {
            rhs_pruning: true,
            key_pruning: true,
            parallelism: Parallelism::Auto,
        }
    }

    /// Disables the C⁺ rhs-candidate pruning (ablation).
    pub fn without_rhs_pruning(mut self) -> Self {
        self.rhs_pruning = false;
        self
    }

    /// Disables superkey pruning (ablation).
    pub fn without_key_pruning(mut self) -> Self {
        self.key_pruning = false;
        self
    }

    /// Selects the thread-count setting for the per-level loops.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Mines a relation (computing per-attribute stripped partitions first).
    pub fn run(&self, r: &Relation) -> TaneResult {
        let db = StrippedPartitionDb::from_relation_with(r, self.parallelism);
        self.run_db(&db)
    }

    /// Mines from a pre-computed stripped partition database, ungoverned.
    pub fn run_db(&self, db: &StrippedPartitionDb) -> TaneResult {
        self.run_db_governed(db, &CancelToken::unlimited(), None)
            .result
    }

    /// The configuration bytes stamped into snapshot frames: the two
    /// pruning switches. Parallelism is deliberately excluded — the
    /// mined FDs are identical at every thread count, so a snapshot
    /// written at `--threads 4` resumes fine at `--threads 1`.
    pub fn config_bytes(&self) -> Vec<u8> {
        vec![self.rhs_pruning as u8, self.key_pruning as u8]
    }

    /// Inverse of [`Tane::config_bytes`]: reconstructs the pruning
    /// configuration recorded in a snapshot frame (parallelism defaults
    /// to [`Parallelism::Auto`]; it is not part of the frame).
    pub fn from_config_bytes(config: &[u8]) -> Result<Self, SnapshotError> {
        let mut d = Dec::new(config);
        let rhs_pruning = d.take_u8()? != 0;
        let key_pruning = d.take_u8()? != 0;
        d.finish()?;
        Ok(Tane {
            rhs_pruning,
            key_pruning,
            parallelism: Parallelism::Auto,
        })
    }

    /// The governed level walk on a stripped partition database under a
    /// live [`CancelToken`].
    ///
    /// On a trip the level walk stops at the nearest clean boundary and
    /// the outcome is partial: every FD already emitted was validated
    /// against fully-computed previous-level partitions and candidate
    /// sets, so the claimed list is exact (each FD holds with a minimal
    /// lhs) — what is missing are dependencies with *longer* left-hand
    /// sides that deeper levels would have found.
    ///
    /// With `resume`, a checkpoint already checked against `db`, the walk
    /// restarts at the checkpoint's frontier: completed levels are
    /// skipped, their partitions rebuilt from the singleton database, and
    /// the final FD set is identical to an uninterrupted run's.
    pub fn run_db_governed(
        &self,
        db: &StrippedPartitionDb,
        token: &CancelToken,
        resume: Option<TaneCheckpoint>,
    ) -> MiningOutcome<TaneResult> {
        let t0 = Instant::now();
        let _span = token.observer().span("tane");
        let n = db.arity();
        let n_rows = db.n_rows();
        let full = AttrSet::full(n);
        let mut stats = TaneStats::default();
        let mut fds: Vec<Fd> = Vec::new();

        // err(X) = ||π̂_X|| − |π̂_X|; X → A holds iff err(X) == err(XA).
        let err = |p: &FlatPartition| p.total_tuples() - p.num_classes();
        // err(∅): a single class of all tuples (when n_rows > 1).
        let err_empty = n_rows.saturating_sub(1);

        // Global C⁺ store; sets stay after pruning so the key-pruning
        // minimality test can consult them (computed on demand for sets the
        // lattice never generated — the on-demand value intersects stored
        // subsets' C⁺, which upper-bounds the true C⁺ and coincides with it
        // in the cases key pruning reaches; cross-validated in tests).
        let mut cplus: FxHashMap<AttrSet, AttrSet> = FxHashMap::default();
        cplus.insert(AttrSet::empty(), full);

        // Level 1: the singleton partitions are *borrowed* from the
        // database — no per-attribute deep clone. Only partitions produced
        // by later levels are owned (and charged to the memory budget).
        let mut level: Vec<AttrSet> = (0..n).map(AttrSet::singleton).collect();
        let mut cache = LevelCache::seed(db);
        // Dependency checks at level l only need err(X) of level-(l−1)
        // nodes, never their partitions — so level l−1's partition storage
        // is reclaimed as soon as level l's products exist, and l−2's is
        // long gone. Only this error map survives the level swap.
        let mut prev_errs: FxHashMap<AttrSet, usize> = FxHashMap::default();
        let mut arena = PartitionArena::new(n_rows);

        let mut l = 1usize;
        let mut stopped: Option<BudgetExceeded> = None;
        let mut completed_levels = 0usize;
        // Frame identity, computed once when snapshots can happen.
        let snapshot_id = (token.snapshots_armed() || resume.is_some())
            .then(|| (db_fingerprint(db), self.config_bytes()));

        if let Some(cp) = resume {
            // Fast-forward to the checkpoint's boundary: restore the
            // walk's state and rebuild the frontier's partitions from the
            // singleton database (products are canonical, so the rebuilt
            // partitions match what the interrupted run held).
            let _rebuild = token.observer().span("tane-resume-rebuild");
            completed_levels = cp.completed_levels;
            l = completed_levels + 1;
            level = cp.frontier;
            prev_errs = cp
                .prev_errs
                .into_iter()
                .map(|(x, e)| (x, e as usize))
                .collect();
            cplus.extend(cp.cplus);
            fds = cp.fds;
            stats.candidates = cp.candidates as usize;
            stats.partition_products = cp.products as usize;
            stats.levels = completed_levels;
            token
                .observer()
                .add(Counter::ResumeLevelsSkipped, completed_levels as u64);
            if l > 1 {
                cache = LevelCache::empty();
                for &x in &level {
                    if let Err(why) = token.check(Stage::TaneLevels) {
                        stopped = Some(why);
                        break;
                    }
                    let mut attrs = x.iter();
                    let first = attrs.next().expect("lattice sets are non-empty");
                    let mut owned: Option<FlatPartition> = None;
                    for a in attrs {
                        let left: &FlatPartition = match &owned {
                            Some(p) => p,
                            None => db.partition(first),
                        };
                        let p = left.product_with(db.partition(a), &mut arena);
                        if let Some(prev) = owned.take() {
                            arena.recycle(prev);
                        }
                        owned = Some(p);
                    }
                    let p = owned.expect("frontier sets past level 1 have ≥ 2 attributes");
                    if let Err(why) = token.reserve_memory(p.heap_bytes() as u64, Stage::TaneLevels)
                    {
                        arena.recycle(p);
                        stopped = Some(why);
                        break;
                    }
                    cache.insert_owned(x, p);
                }
                if stopped.is_some() {
                    // The rebuild itself went over budget: surface the
                    // checkpoint's FDs (all validated) as the partial.
                    level.clear();
                }
            }
        }

        let levels_span = token.observer().span("tane-levels");
        while !level.is_empty() {
            // Boundary snapshot: the state as of the last completed level
            // is offered *before* this level charges any budget, so a
            // trip below flushes exactly this clean boundary to disk.
            if let Some((hash, config)) = &snapshot_id {
                token.offer_snapshot_with(|| {
                    let cp = TaneCheckpoint {
                        completed_levels,
                        frontier: level.clone(),
                        prev_errs: sorted_err_pairs(&prev_errs),
                        cplus: sorted_set_pairs(&cplus),
                        fds: fds.clone(),
                        candidates: stats.candidates as u64,
                        products: stats.partition_products as u64,
                    };
                    cp.into_snapshot(*hash, config.clone())
                });
            }
            // Level entry is the primary checkpoint: depth and candidate
            // budgets are charged before any of the level's work starts, so
            // a trip leaves the FD list exactly at the previous level's
            // clean boundary.
            if let Err(why) = token
                .enter_level(l, Stage::TaneLevels)
                .and_then(|()| token.add_candidates(level.len() as u64, Stage::TaneLevels))
            {
                stopped = Some(why);
                break;
            }
            stats.levels = l;
            stats.candidates += level.len();

            // Narrow levels stay on the calling thread; level boundaries
            // are natural barriers either way.
            let par = if level.len() >= PAR_LEVEL_THRESHOLD {
                self.parallelism
            } else {
                Parallelism::Sequential
            };

            // --- COMPUTE_DEPENDENCIES -----------------------------------
            // C⁺(X) of this level only reads level-(l−1) entries, so the
            // intersections fan out; insertion replays in level order.
            let cs: Vec<AttrSet> = par_map(par, &level, |&x| {
                x.iter()
                    .map(|a| cplus[&x.without(a)])
                    .fold(full, AttrSet::intersection)
            });
            for (&x, c) in level.iter().zip(cs) {
                cplus.insert(x, c);
            }
            // Each X's dependency checks read only prev-level partitions
            // and its own C⁺ (which evolves locally as attributes are
            // removed), so they fan out too; the (new C⁺, emitted FDs)
            // outcomes are applied in level order afterwards, keeping the
            // FD emission order identical to the sequential run. A trip
            // mid-level discards the level's partial outcomes entirely.
            let outcomes: Vec<(AttrSet, Vec<Fd>, usize)> =
                match par_map_governed(par, token, Stage::TaneLevels, &level, |&x| {
                    let mut c = cplus[&x];
                    // Without rhs pruning, test every attribute of X; C⁺ is
                    // still *maintained* (the key-pruning minimality test
                    // needs it) but not used to skip validity checks.
                    let cx = if self.rhs_pruning { c } else { full };
                    let ex = err(cache.get(x));
                    let mut found: Vec<Fd> = Vec::new();
                    for a in x.intersection(cx).iter() {
                        let xa = x.without(a);
                        let e_sub = if xa.is_empty() {
                            err_empty
                        } else {
                            prev_errs[&xa]
                        };
                        if e_sub == ex {
                            // X\{A} → A is valid; minimal iff C⁺ allows A.
                            if c.contains(a) {
                                found.push(Fd::new(xa, a));
                            }
                            c.remove(a);
                            c = c.difference(full.difference(x));
                        }
                    }
                    Ok((c, found, ex))
                }) {
                    Ok(o) => o,
                    Err(why) => {
                        stopped = Some(why);
                        break;
                    }
                };
            // This level's errors become next level's subset lookups.
            let mut cur_errs: FxHashMap<AttrSet, usize> = FxHashMap::default();
            cur_errs.reserve(level.len());
            for (&x, (c, found, ex)) in level.iter().zip(outcomes) {
                cplus.insert(x, c);
                fds.extend(found);
                cur_errs.insert(x, ex);
            }

            // --- PRUNE ---------------------------------------------------
            let mut survivors: Vec<AttrSet> = Vec::with_capacity(level.len());
            for &x in &level {
                if self.rhs_pruning && cplus[&x].is_empty() {
                    continue;
                }
                if self.key_pruning && cache.get(x).is_superkey() {
                    for a in cplus[&x].difference(x).iter() {
                        // X → A is minimal iff A survives in every
                        // C⁺(X ∪ {A} \ {B}).
                        let ok = x
                            .iter()
                            .all(|b| cplus_lookup(x.with(a).without(b), &mut cplus).contains(a));
                        if ok {
                            fds.push(Fd::new(x, a));
                        }
                    }
                    continue; // delete key node from the lattice
                }
                survivors.push(x);
            }
            // All of level l's FDs are in: this is the new clean boundary.
            completed_levels = l;

            // --- GENERATE_NEXT_LEVEL ------------------------------------
            let (next_level, next_cache) = match generate_next(
                &survivors,
                &mut cache,
                &mut arena,
                &mut stats,
                self.parallelism,
                n_rows,
                token,
            ) {
                Ok(next) => next,
                Err(why) => {
                    stopped = Some(why);
                    break;
                }
            };
            // Level swap: the outgoing level's partitions are reclaimed
            // (buffers recycled into the arena, tracked bytes released) —
            // only its error map survives, as `prev_errs`.
            cache.reclaim_all(&mut arena, token);
            cache = next_cache;
            prev_errs = cur_errs;
            level = next_level;
            l += 1;
        }
        drop(levels_span);
        // Release whatever the final (or interrupted) level still holds so
        // the token's memory account returns to its pre-TANE baseline.
        cache.reclaim_all(&mut arena, token);
        let hw = arena.high_water_bytes() as u64;
        if hw > 0 {
            token.observer().add(Counter::ArenaHighWaterBytes, hw);
        }
        // On a trip, persist the newest clean boundary; on completion,
        // leave nothing stale to resume.
        if stopped.is_some() {
            token.flush_snapshot();
        } else {
            token.discard_snapshot(TANE_ALGO);
        }

        normalize_fds(&mut fds);
        token
            .observer()
            .add(depminer_govern::Counter::FdEmissions, fds.len() as u64);
        stats.elapsed = t0.elapsed();
        let result = TaneResult {
            schema: db.schema().clone(),
            n_rows,
            fds,
            stats,
        };
        let report = StageReport {
            stage: Stage::TaneLevels,
            completed: stopped.is_none(),
            processed: completed_levels as u64,
            planned: None,
            note: format!(
                "{} lattice nodes examined; emitted FDs (lhs size < {}) are exact",
                result.stats.candidates,
                completed_levels + 1
            ),
            elapsed: result.stats.elapsed,
        };
        match stopped {
            Some(why) => MiningOutcome::partial(result, why, vec![report]),
            None => MiningOutcome::complete(result, vec![report]),
        }
    }
}

/// Deterministic (sorted) pair list of a level's error map, for stable
/// snapshot bytes.
fn sorted_err_pairs(m: &FxHashMap<AttrSet, usize>) -> Vec<(AttrSet, u64)> {
    let mut v: Vec<(AttrSet, u64)> = m.iter().map(|(&x, &e)| (x, e as u64)).collect();
    v.sort_unstable_by_key(|&(x, _)| x);
    v
}

/// Deterministic (sorted) pair list of the C⁺ store.
fn sorted_set_pairs(m: &FxHashMap<AttrSet, AttrSet>) -> Vec<(AttrSet, AttrSet)> {
    let mut v: Vec<(AttrSet, AttrSet)> = m.iter().map(|(&x, &c)| (x, c)).collect();
    v.sort_unstable_by_key(|&(x, _)| x);
    v
}

/// Looks up `C⁺(Y)`, computing it on demand (memoized) as the intersection
/// of its subsets' candidate sets when the lattice never generated `Y`.
fn cplus_lookup(y: AttrSet, cplus: &mut FxHashMap<AttrSet, AttrSet>) -> AttrSet {
    if let Some(&c) = cplus.get(&y) {
        return c;
    }
    let mut acc = None;
    for b in y.iter() {
        let sub = cplus_lookup(y.without(b), cplus);
        acc = Some(match acc {
            None => sub,
            Some(a) => AttrSet::intersection(a, sub),
        });
    }
    let c = acc.expect("y must be non-empty: ∅ is always stored");
    cplus.insert(y, c);
    c
}

/// A partition slot in the per-level cache: level 1 *borrows* the
/// singleton partitions straight from the [`StrippedPartitionDb`] (no
/// clone, no memory charge), while every partition produced by a lattice
/// product is owned by its level and charged to the budget.
enum PartRef<'db> {
    /// Borrowed from the database; never charged to the memory budget.
    Db(&'db FlatPartition),
    /// Produced by this run; its `heap_bytes` are reserved on the token.
    Owned(FlatPartition),
}

impl PartRef<'_> {
    fn get(&self) -> &FlatPartition {
        match self {
            PartRef::Db(p) => p,
            PartRef::Owned(p) => p,
        }
    }
}

/// The partitions of one lattice level, keyed by attribute set.
///
/// Owned entries are charged to the [`CancelToken`]'s memory account when
/// inserted and released by [`LevelCache::evict`] /
/// [`LevelCache::reclaim_all`]; reclaimed buffers return to the
/// [`PartitionArena`] pool so the next level's products reuse them
/// instead of allocating fresh. Shared with the approximate walk in
/// [`crate::approx`].
pub(crate) struct LevelCache<'db> {
    parts: FxHashMap<AttrSet, PartRef<'db>>,
}

impl<'db> LevelCache<'db> {
    /// Level-1 cache: one borrowed singleton partition per attribute.
    pub(crate) fn seed(db: &'db StrippedPartitionDb) -> Self {
        let parts = (0..db.arity())
            .map(|a| (AttrSet::singleton(a), PartRef::Db(db.partition(a))))
            .collect();
        LevelCache { parts }
    }

    pub(crate) fn empty() -> Self {
        LevelCache {
            parts: FxHashMap::default(),
        }
    }

    pub(crate) fn get(&self, x: AttrSet) -> &FlatPartition {
        self.parts[&x].get()
    }

    pub(crate) fn contains(&self, x: AttrSet) -> bool {
        self.parts.contains_key(&x)
    }

    /// Inserts a produced partition. The caller has already reserved its
    /// `heap_bytes` on the token.
    pub(crate) fn insert_owned(&mut self, x: AttrSet, p: FlatPartition) {
        self.parts.insert(x, PartRef::Owned(p));
    }

    /// Drops one entry early (memory pressure): releases its tracked
    /// bytes, recycles its buffers into the arena, and counts the
    /// eviction. Borrowed entries are merely unlinked — they were never
    /// charged.
    fn evict(&mut self, x: AttrSet, arena: &mut PartitionArena, token: &CancelToken) {
        if let Some(PartRef::Owned(p)) = self.parts.remove(&x) {
            token.release_memory(p.heap_bytes() as u64);
            token.observer().add(Counter::PartitionCacheEvictions, 1);
            arena.recycle(p);
        }
    }

    /// Releases and recycles every remaining owned partition (the level
    /// swap, and the end-of-run cleanup).
    pub(crate) fn reclaim_all(&mut self, arena: &mut PartitionArena, token: &CancelToken) {
        for (_, pr) in self.parts.drain() {
            if let PartRef::Owned(p) = pr {
                token.release_memory(p.heap_bytes() as u64);
                arena.recycle(p);
            }
        }
    }
}

/// Prefix-join generation with Apriori pruning; partitions of new nodes
/// are products of their generating pair, computed in place against the
/// level [`PartitionArena`].
///
/// Candidate pairs are collected first (cheap set algebra, sequential),
/// deduplicated by their union `Z` — the sequential formulation recomputed
/// the product once per generating pair — and the surviving partition
/// products, the dominant per-level cost, either run on the calling
/// thread against the shared arena or fan out across threads with one
/// arena per chunk. Pairs are sorted by `Z` before the fan-out, so chunk
/// boundaries and the returned level are deterministic.
///
/// Memory: each produced partition's `heap_bytes` are reserved on the
/// token before it is kept. On the sequential path, when a reservation
/// *would* trip the budget, current-level partitions no later pair
/// references ("retired") are evicted earliest-retired-first — trading
/// footprint for nothing (they are dead weight) instead of aborting — and
/// only when no retired entry is left does a genuine reservation trip
/// surface as a partial result.
fn generate_next<'db>(
    survivors: &[AttrSet],
    cache: &mut LevelCache<'db>,
    arena: &mut PartitionArena,
    stats: &mut TaneStats,
    par: Parallelism,
    n_rows: usize,
    token: &CancelToken,
) -> Result<(Vec<AttrSet>, LevelCache<'db>), BudgetExceeded> {
    let present: FxHashSet<AttrSet> = survivors.iter().copied().collect();
    let mut by_prefix: FxHashMap<AttrSet, Vec<AttrSet>> = FxHashMap::default();
    for &x in survivors {
        let m = x.max_attr().expect("level sets are non-empty");
        by_prefix.entry(x.without(m)).or_default().push(x);
    }
    let mut pairs: Vec<(AttrSet, AttrSet, AttrSet)> = Vec::new();
    for (_, group) in by_prefix {
        for (i, &x) in group.iter().enumerate() {
            for &y in &group[i + 1..] {
                let z = x.union(y);
                if z.drop_one().all(|w| present.contains(&w)) {
                    pairs.push((x, y, z));
                }
            }
        }
    }
    // One product per lattice node: order by Z, keep the smallest
    // generating pair of each.
    pairs.sort_unstable_by_key(|&(x, y, z)| (z, x, y));
    pairs.dedup_by_key(|p| p.2);
    stats.partition_products += pairs.len();
    token.observer().add(
        depminer_govern::Counter::PartitionProducts,
        pairs.len() as u64,
    );
    let _span = token.observer().span("tane-levels/products");
    let next: Vec<AttrSet> = pairs.iter().map(|p| p.2).collect();
    let mut next_cache = LevelCache::empty();
    if pairs.len() >= PAR_LEVEL_THRESHOLD && !par.is_sequential() {
        // Parallel path: the current level is read shared across threads,
        // so eviction (which mutates it) is off; products are charged as
        // they are collected, in deterministic pair order.
        let chunk = pairs.len().div_ceil(par.effective_threads() * 4).max(1);
        let cache_ref: &LevelCache<'db> = cache;
        let produced: Vec<FlatPartition> = par_chunks_governed(
            par,
            token,
            Stage::TaneLevels,
            &pairs,
            chunk,
            |chunk_pairs| {
                let _products = token.observer().span("tane-levels/products");
                let mut local_arena = PartitionArena::new(n_rows);
                chunk_pairs
                    .iter()
                    .map(|&(x, y, _)| {
                        token.check(Stage::TaneLevels)?;
                        Ok(cache_ref
                            .get(x)
                            .product_with(cache_ref.get(y), &mut local_arena))
                    })
                    .collect::<Result<Vec<_>, BudgetExceeded>>()
            },
        )?
        .into_iter()
        .flatten()
        .collect();
        for (&(_, _, z), p) in pairs.iter().zip(produced) {
            if let Err(why) = token.reserve_memory(p.heap_bytes() as u64, Stage::TaneLevels) {
                next_cache.reclaim_all(arena, token);
                return Err(why);
            }
            next_cache.insert_owned(z, p);
        }
    } else {
        // After its last generating pair, a survivor's partition is dead
        // weight until the caller's level swap — it joins the eviction
        // queue in retirement order.
        let mut last_use: FxHashMap<AttrSet, usize> = FxHashMap::default();
        for (i, &(x, y, _)) in pairs.iter().enumerate() {
            last_use.insert(x, i);
            last_use.insert(y, i);
        }
        let mut retired: VecDeque<AttrSet> = VecDeque::new();
        let mut failed: Option<BudgetExceeded> = None;
        for (i, &(x, y, z)) in pairs.iter().enumerate() {
            if let Err(why) = token.check(Stage::TaneLevels) {
                failed = Some(why);
                break;
            }
            let p = cache.get(x).product_with(cache.get(y), arena);
            let bytes = p.heap_bytes() as u64;
            // Evict dead partitions before letting the reservation trip:
            // an advisory query first, so eviction has no side effects
            // when the budget is comfortable. Each pass pops one queue
            // entry, so the loop is bounded by the retired count.
            // lint: allow(budget-coverage)
            while token.memory_would_trip(bytes) {
                match retired.pop_front() {
                    Some(victim) => cache.evict(victim, arena, token),
                    None => break,
                }
            }
            if let Err(why) = token.reserve_memory(bytes, Stage::TaneLevels) {
                arena.recycle(p);
                failed = Some(why);
                break;
            }
            next_cache.insert_owned(z, p);
            if last_use[&x] == i {
                retired.push_back(x);
            }
            if last_use[&y] == i {
                retired.push_back(y);
            }
        }
        if let Some(why) = failed {
            // Roll back this level's reservations so the token's memory
            // account stays exact in the partial outcome.
            next_cache.reclaim_all(arena, token);
            return Err(why);
        }
    }
    Ok((next, next_cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_fdtheory::mine_minimal_fds;
    use depminer_govern::Budget;
    use depminer_relation::datasets;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    /// The governed core on `r`'s freshly built `r̂`.
    fn governed(tane: &Tane, r: &Relation, token: &CancelToken) -> MiningOutcome<TaneResult> {
        tane.run_db_governed(&StrippedPartitionDb::from_relation(r), token, None)
    }

    #[test]
    fn employee_matches_oracle() {
        let r = datasets::employee();
        let result = Tane::new().run(&r);
        assert_eq!(result.fds, mine_minimal_fds(&r));
        assert_eq!(result.fds.len(), 14);
        assert!(result.stats.levels >= 2);
        assert!(result.stats.candidates > 5);
    }

    #[test]
    fn all_datasets_match_oracle() {
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::constant_columns(),
            datasets::no_fds(),
        ] {
            let result = Tane::new().run(&r);
            assert_eq!(
                result.fds,
                mine_minimal_fds(&r),
                "TANE diverges from oracle"
            );
        }
    }

    #[test]
    fn constant_columns_emit_empty_lhs() {
        let r = datasets::constant_columns();
        let fds = Tane::new().run(&r).fds;
        assert!(fds.contains(&Fd::new(AttrSet::empty(), 1)));
        assert!(fds.contains(&Fd::new(AttrSet::empty(), 2)));
        // No redundant X → k1 with larger lhs.
        assert_eq!(fds.iter().filter(|f| f.rhs == 1).count(), 1);
    }

    #[test]
    fn single_and_zero_tuple_relations() {
        for cols in [vec![vec![], vec![]], vec![vec![1], vec![2]]] {
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(2).unwrap(),
                cols,
            )
            .unwrap();
            let fds = Tane::new().run(&r).fds;
            assert_eq!(
                fds,
                vec![Fd::new(AttrSet::empty(), 0), Fd::new(AttrSet::empty(), 1)]
            );
        }
    }

    #[test]
    fn lhs_families_include_trivial_entry() {
        let r = datasets::employee();
        let result = Tane::new().run(&r);
        let fams = result.lhs_families();
        // Example 10: lhs(A) = {A, BC, CD}.
        assert_eq!(fams[0], vec![s(&[0]), s(&[1, 2]), s(&[2, 3])]);
        // lhs(E) = {B, C, D, E}.
        assert_eq!(fams[4], vec![s(&[1]), s(&[2]), s(&[3]), s(&[4])]);
    }

    #[test]
    fn lhs_families_drop_trivial_when_constant() {
        let r = datasets::constant_columns();
        let fams = Tane::new().run(&r).lhs_families();
        assert_eq!(fams[1], vec![AttrSet::empty()]);
    }

    #[test]
    fn pruning_ablations_preserve_output() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(555);
        let variants = [
            Tane::new().without_rhs_pruning(),
            Tane::new().without_key_pruning(),
            Tane::new().without_rhs_pruning().without_key_pruning(),
        ];
        for trial in 0..25 {
            let n_attrs = rng.gen_range(2..=5usize);
            let n_rows = rng.gen_range(1..=12usize);
            let cols: Vec<Vec<u32>> = (0..n_attrs)
                .map(|_| (0..n_rows).map(|_| rng.gen_range(0..3u32)).collect())
                .collect();
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(n_attrs).unwrap(),
                cols,
            )
            .unwrap();
            let full = Tane::new().run(&r);
            for v in variants {
                let ablated = v.run(&r);
                assert_eq!(ablated.fds, full.fds, "trial {trial}, variant {v:?}");
                // Less pruning never *shrinks* the explored lattice.
                assert!(
                    ablated.stats.candidates >= full.stats.candidates,
                    "trial {trial}: pruning-off explored fewer candidates"
                );
            }
        }
    }

    #[test]
    fn governed_unlimited_budget_matches_plain_run() {
        let r = datasets::employee();
        let outcome = governed(&Tane::new(), &r, &Budget::unlimited().start());
        assert!(outcome.is_complete());
        assert_eq!(outcome.result.fds, Tane::new().run(&r).fds);
        assert!(outcome.stages[0].completed);
    }

    #[test]
    fn level_budget_yields_exact_prefix() {
        let r = datasets::employee();
        let full = Tane::new().run(&r);
        // Depth 1 only: single-attribute lattice nodes, so only FDs with
        // empty lhs (none here) can be emitted — but whatever comes out
        // must be a subset of the minimal cover.
        for max_level in 1..=3 {
            let budget = depminer_govern::Budget::unlimited().with_max_level(max_level);
            let outcome = governed(&Tane::new(), &r, &budget.start());
            for fd in &outcome.result.fds {
                assert!(
                    full.fds.contains(fd),
                    "max_level={max_level}: claimed FD {fd} not in the minimal cover"
                );
                assert!(
                    fd.lhs.len() <= max_level,
                    "lhs longer than completed levels"
                );
            }
            if !outcome.is_complete() {
                assert!(outcome.interrupted.is_some());
                assert_eq!(outcome.stages[0].processed, max_level as u64);
            }
        }
        // A budget deep enough for the whole lattice is complete.
        let budget = Budget::unlimited().with_max_level(16);
        let outcome = governed(&Tane::new(), &r, &budget.start());
        assert!(outcome.is_complete());
        assert_eq!(outcome.result.fds, full.fds);
    }

    #[test]
    fn memory_is_charged_and_released_on_every_exit() {
        use depminer_govern::Resource;
        let r = depminer_relation::SyntheticConfig {
            n_attrs: 7,
            n_rows: 80,
            correlation: 0.5,
            seed: 5,
        }
        .generate()
        .unwrap();
        let full = Tane::new().run(&r).fds;
        // Growing caps trip at every point of the walk, on the parallel
        // path too, until one fits. Each partial is a subset of the full
        // answer and a failed reservation never stays charged.
        for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let tane = Tane::new().with_parallelism(par);
            let mut partial_sizes = Vec::new();
            let mut fits = false;
            for cap in (1..=1000).map(|k| 32 * k) {
                let token = Budget::unlimited().with_max_memory_bytes(cap).start();
                let outcome = governed(&tane, &r, &token);
                assert_eq!(token.memory_bytes(), 0, "{par:?} cap {cap}");
                assert!(outcome.result.fds.iter().all(|fd| full.contains(fd)));
                if let Some(why) = &outcome.interrupted {
                    assert_eq!(why.resource, Resource::Memory);
                    partial_sizes.push(outcome.result.fds.len());
                } else {
                    assert_eq!(outcome.result.fds, full);
                    fits = true;
                    break;
                }
            }
            partial_sizes.dedup();
            assert!(fits, "{par:?}: no cap fits the walk");
            assert!(
                partial_sizes.len() >= 2,
                "{par:?}: caps trip at one point only"
            );
        }
    }

    #[test]
    fn cancelled_token_stops_immediately() {
        let r = datasets::enrollment();
        let token = CancelToken::unlimited();
        token.cancel();
        let outcome = governed(&Tane::new(), &r, &token);
        assert!(!outcome.is_complete());
        assert!(outcome.result.fds.is_empty());
        assert_eq!(outcome.stages[0].processed, 0);
    }

    #[test]
    fn parallel_tane_matches_sequential() {
        let r = depminer_relation::SyntheticConfig::new(7, 150, 0.5)
            .generate()
            .unwrap();
        let seq = Tane::new()
            .with_parallelism(Parallelism::Sequential)
            .run(&r);
        for par in [Parallelism::Threads(2), Parallelism::Threads(4)] {
            let p = Tane::new().with_parallelism(par).run(&r);
            assert_eq!(p.fds, seq.fds, "{par:?}");
            assert_eq!(p.stats.candidates, seq.stats.candidates, "{par:?}");
            assert_eq!(
                p.stats.partition_products, seq.stats.partition_products,
                "{par:?}"
            );
        }
    }

    #[test]
    fn random_relations_match_oracle() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(99);
        for trial in 0..40 {
            let n_attrs = rng.gen_range(2..=5usize);
            let n_rows = rng.gen_range(1..=12usize);
            let domain = rng.gen_range(1..=3u32);
            let cols: Vec<Vec<u32>> = (0..n_attrs)
                .map(|_| (0..n_rows).map(|_| rng.gen_range(0..=domain)).collect())
                .collect();
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(n_attrs).unwrap(),
                cols,
            )
            .unwrap();
            let tane = Tane::new().run(&r).fds;
            let oracle = mine_minimal_fds(&r);
            assert_eq!(tane, oracle, "trial {trial}: TANE != oracle on {r:?}");
        }
    }
}
