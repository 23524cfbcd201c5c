//! The exact TANE algorithm \[HKPT98\], the baseline of the paper's §5.
//!
//! TANE walks the attribute-set lattice level by level (the walk itself,
//! shared with approximate mining, is private to the crate; this module
//! supplies exact TANE's per-level rule). Each node `X` carries its
//! stripped partition `π̂_X` and an rhs⁺ candidate set `C⁺(X)`;
//! dependencies `X\{A} → A` are tested by comparing partition errors
//! (`X → A` holds iff `e(X) = e(X ∪ {A})`, where `e(X) = ||π̂_X|| − |π̂_X|`),
//! candidate sets prune rhs attributes transitively, and (super)key nodes
//! are cut from the lattice after emitting their remaining minimal FDs.
//!
//! The output is exactly the set of minimal non-trivial FDs — the same
//! cover Dep-Miner produces, which the integration tests assert on both
//! crafted and random relations.

use depminer_core::{lhs_families_from_fds, put_fds, take_fds};
use depminer_fdtheory::{normalize_fds, Fd};
use depminer_govern::snapshot::{Dec, Enc};
use depminer_govern::{
    BudgetExceeded, CancelToken, Counter, MiningOutcome, SnapshotError, SnapshotState, Stage,
    StageReport,
};
use depminer_parallel::{par_map, par_map_governed, Parallelism};
use depminer_relation::state::{all_within, check_fit, put_attrset, put_attrset_vec, take_attrset};
use depminer_relation::{
    AttrSet, FlatPartition, FxHashMap, FxHashSet, Relation, Schema, StrippedPartitionDb,
};
use std::time::{Duration, Instant};

use crate::walk::{frontier_fits, walk, Boundary, LevelCache, LevelRule};

/// Algorithm id stamped into exact-TANE snapshot frames.
pub const TANE_ALGO: &str = "tane";

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
    /// (`cmax(dep(r), A) = Tr(lhs(dep(r), A))`); see
    /// [`lhs_families_from_fds`].
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
        put_fds(&mut e, &self.fds);
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
        let fds = take_fds(&mut d)?;
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
    /// lie within the relation, the frontier must be strictly ascending
    /// with `completed_levels + 1` attributes in every set, and every
    /// non-empty `x∖{a}` of a frontier set `x` must carry its C⁺ and its
    /// partition error, which the next level reads.
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
                && frontier_fits(self.completed_levels, &self.frontier)
                && self.frontier.iter().all(|x| x.drop_one().all(restored)),
            TANE_ALGO,
            arity,
        )
    }
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
        let full = AttrSet::full(db.arity());
        let mut rule = ExactRule {
            tane: *self,
            full,
            err_empty: db.n_rows().saturating_sub(1) as u64,
            cplus: [(AttrSet::empty(), full)].into_iter().collect(),
            prev_errs: FxHashMap::default(),
            fds: Vec::new(),
        };
        let resume = resume.map(|cp| {
            rule.prev_errs = cp.prev_errs.into_iter().collect();
            rule.cplus.extend(cp.cplus);
            rule.fds = cp.fds;
            Boundary {
                completed_levels: cp.completed_levels,
                frontier: cp.frontier,
                candidates: cp.candidates,
                products: cp.products,
            }
        });
        let config = self.config_bytes();
        let (stats, completed_levels, stopped) =
            walk(&mut rule, db, self.parallelism, token, config, resume);

        let mut fds = rule.fds;
        normalize_fds(&mut fds);
        token.observer().add(Counter::FdEmissions, fds.len() as u64);
        let stats = TaneStats {
            elapsed: t0.elapsed(),
            ..stats
        };
        let report = StageReport {
            stage: Stage::TaneLevels,
            completed: stopped.is_none(),
            processed: completed_levels as u64,
            planned: None,
            note: format!(
                "{} lattice nodes examined; emitted FDs (lhs size < {}) are exact",
                stats.candidates,
                completed_levels + 1
            ),
            elapsed: stats.elapsed,
        };
        let result = TaneResult {
            schema: db.schema().clone(),
            n_rows: db.n_rows(),
            fds,
            stats,
        };
        match stopped {
            Some(why) => MiningOutcome::partial(result, why, vec![report]),
            None => MiningOutcome::complete(result, vec![report]),
        }
    }
}

/// Exact TANE's rule on the shared walk: C⁺ rhs candidates, the
/// partition-error test `X∖{A} → A` iff `e(X∖{A}) = e(X)`, and the
/// pruning of nodes with an empty C⁺ and of superkeys.
struct ExactRule {
    /// The miner's pruning switches (and its frame configuration).
    tane: Tane,
    full: AttrSet,
    /// err(∅): a single class of all tuples (when there are ≥ 2).
    err_empty: u64,
    /// Global C⁺ store; sets stay after pruning so the key-pruning
    /// minimality test can consult them (computed on demand for sets the
    /// lattice never generated — the on-demand value intersects stored
    /// subsets' C⁺, which upper-bounds the true C⁺ and coincides with it
    /// in the cases key pruning reaches; cross-validated in tests).
    cplus: FxHashMap<AttrSet, AttrSet>,
    /// Dependency checks at level l only need err(X) of level-(l−1)
    /// nodes, never their partitions — so only this error map survives
    /// the level swap.
    prev_errs: FxHashMap<AttrSet, u64>,
    /// FDs emitted so far, in emission order.
    fds: Vec<Fd>,
}

impl LevelRule for ExactRule {
    const ALGO: &'static str = TANE_ALGO;
    const STAGE: Stage = Stage::TaneLevels;
    const REBUILD_SPAN: &'static str = "tane-resume-rebuild";
    const PRODUCTS_SPAN: &'static str = "tane-levels/products";

    fn test_level(
        &mut self,
        level: &[AttrSet],
        cache: &LevelCache<'_>,
        par: Parallelism,
        token: &CancelToken,
    ) -> Result<Vec<AttrSet>, BudgetExceeded> {
        let full = self.full;
        // err(X) = ||π̂_X|| − |π̂_X|; X → A holds iff err(X) == err(XA).
        let err = |p: &FlatPartition| (p.total_tuples() - p.num_classes()) as u64;

        // --- COMPUTE_DEPENDENCIES -----------------------------------
        // C⁺(X) of this level only reads level-(l−1) entries, so the
        // intersections fan out; insertion replays in level order.
        let cs: Vec<AttrSet> = par_map(par, level, |&x| {
            x.iter()
                .map(|a| self.cplus[&x.without(a)])
                .fold(full, AttrSet::intersection)
        });
        self.cplus.extend(level.iter().copied().zip(cs));
        // Each X's dependency checks read only prev-level errors and its
        // own C⁺ (which evolves locally as attributes are removed), so
        // they fan out too; the (new C⁺, emitted FDs, error) outcomes are
        // applied in level order afterwards, keeping the FD emission
        // order identical to the sequential run. A trip mid-level
        // discards the level's partial outcomes entirely.
        let outcomes: Vec<(AttrSet, Vec<Fd>, u64)> =
            par_map_governed(par, token, Stage::TaneLevels, level, |&x| {
                let mut c = self.cplus[&x];
                // Without rhs pruning, test every attribute of X; C⁺ is
                // still *maintained* (the key-pruning minimality test
                // needs it) but not used to skip validity checks.
                let cx = if self.tane.rhs_pruning { c } else { full };
                let ex = err(&cache[&x]);
                let mut found: Vec<Fd> = Vec::new();
                for a in x.intersection(cx).iter() {
                    let xa = x.without(a);
                    let e_sub = if xa.is_empty() {
                        self.err_empty
                    } else {
                        self.prev_errs[&xa]
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
            })?;
        // This level's errors become next level's subset lookups.
        self.prev_errs = level
            .iter()
            .zip(&outcomes)
            .map(|(&x, o)| (x, o.2))
            .collect();
        self.cplus
            .extend(level.iter().zip(&outcomes).map(|(&x, o)| (x, o.0)));
        self.fds.extend(outcomes.into_iter().flat_map(|o| o.1));

        // --- PRUNE ---------------------------------------------------
        // Nodes with an empty C⁺ leave the lattice; superkeys emit their
        // remaining minimal FDs and leave it too.
        let (tane, cplus) = (self.tane, &self.cplus);
        let (keys, survivors): (Vec<AttrSet>, Vec<AttrSet>) = level
            .iter()
            .copied()
            .filter(|&x| !(tane.rhs_pruning && cplus[&x].is_empty()))
            .partition(|&x| tane.key_pruning && cache[&x].is_superkey());
        for x in keys {
            for a in self.cplus[&x].difference(x).iter() {
                // X → A is minimal iff A survives in every
                // C⁺(X ∪ {A} \ {B}).
                let ok = x
                    .iter()
                    .all(|b| cplus_lookup(x.with(a).without(b), &mut self.cplus).contains(a));
                if ok {
                    self.fds.push(Fd::new(x, a));
                }
            }
        }
        Ok(survivors)
    }

    fn frame(&self, completed_levels: usize, frontier: &[AttrSet], stats: &TaneStats) -> Vec<u8> {
        TaneCheckpoint {
            completed_levels,
            frontier: frontier.to_vec(),
            prev_errs: sorted_pairs(&self.prev_errs),
            cplus: sorted_pairs(&self.cplus),
            fds: self.fds.clone(),
            candidates: stats.candidates as u64,
            products: stats.partition_products as u64,
        }
        .encode_payload()
    }
}

/// Deterministic (sorted) pair list of the error map or the C⁺ store,
/// for stable snapshot bytes.
fn sorted_pairs<V: Copy>(m: &FxHashMap<AttrSet, V>) -> Vec<(AttrSet, V)> {
    let mut v: Vec<(AttrSet, V)> = m.iter().map(|(&x, &v)| (x, v)).collect();
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
