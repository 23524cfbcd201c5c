//! # depminer-core
//!
//! The **Dep-Miner** algorithm of Lopes, Petit & Lakhal (EDBT 2000):
//! combined discovery of minimal non-trivial functional dependencies and
//! real-world Armstrong relations, from a stripped partition database.
//!
//! The pipeline (Algorithm 1 of the paper):
//!
//! ```text
//! relation ──► stripped partition db ──► agree sets ──► maximal sets ─┬─► Armstrong relation
//!                                                                     └─► cmax ─► lhs ─► minimal FDs
//! ```
//!
//! # Quick start
//!
//! ```
//! use depminer_core::DepMiner;
//! use depminer_relation::datasets;
//!
//! let r = datasets::employee();
//! let result = DepMiner::new().mine(&r);
//!
//! // 14 minimal non-trivial FDs hold in the paper's running example.
//! assert_eq!(result.fds.len(), 14);
//!
//! // A real-world Armstrong relation with |MAX(dep(r))| + 1 = 4 tuples.
//! let armstrong = result.real_world_armstrong(&r).unwrap();
//! assert_eq!(armstrong.len(), 4);
//! ```

#![warn(missing_docs)]

pub mod agree;
pub mod armstrong;
pub mod audit;
pub mod checkpoint;
pub mod keys;
pub mod lhs;
pub mod maxset;
pub mod stats;

pub use agree::{
    agree_sets, agree_sets_couples_no_mc, agree_sets_governed, agree_sets_naive, agree_sets_with,
    mc_agree_sets_governed, AgreeSetStrategy, AgreeSets,
};
pub use armstrong::{
    real_world_armstrong, real_world_armstrong_governed, real_world_exists, synthetic_armstrong,
    synthetic_armstrong_governed,
};
pub use audit::{audit_lhs, audit_lhs_for_attribute};
pub use checkpoint::{
    depminer_config_bytes, depminer_config_from_bytes, DepMinerCheckpoint, DEPMINER_ALGO,
};
pub use depminer_govern::{
    Budget, BudgetExceeded, CancelToken, MiningOutcome, Obs, Resource, Snapshot, SnapshotError,
    SnapshotPolicy, Stage, StageReport,
};
pub use depminer_parallel::Parallelism;
pub use keys::candidate_keys_from_agree_sets;
pub use lhs::{
    fd_output, left_hand_sides, left_hand_sides_governed, left_hand_sides_resume_governed,
    left_hand_sides_with, TransversalEngine,
};
pub use maxset::{cmax_sets, cmax_sets_governed, cmax_sets_with, MaxSets};
pub use stats::PhaseTimings;

use depminer_fdtheory::Fd;
use depminer_relation::invariants::{audits_enabled, enforce};
use depminer_relation::state::db_fingerprint;
use depminer_relation::{AttrSet, Relation, RelationError, Schema, StrippedPartitionDb};
use std::time::{Duration, Instant};

/// Configurable Dep-Miner pipeline.
///
/// The default configuration matches the paper's "Dep-Miner" line
/// (Algorithm 2 with an unbounded couple buffer, levelwise transversals);
/// [`DepMiner::algorithm_2`] / [`DepMiner::algorithm_3`] pick the two
/// benchmark variants explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepMiner {
    /// Agree-set strategy (§3.1).
    pub strategy: AgreeSetStrategy,
    /// Transversal engine (§3.3).
    pub engine: TransversalEngine,
    /// Thread-count setting for every phase (defaults to
    /// [`Parallelism::Auto`]: `DEPMINER_THREADS` if set, else all cores).
    /// The mined result is identical at every thread count.
    pub parallelism: Parallelism,
}

impl Default for DepMiner {
    fn default() -> Self {
        DepMiner::new()
    }
}

impl DepMiner {
    /// The paper's primary configuration: Algorithm 2, levelwise lhs.
    pub fn new() -> Self {
        DepMiner {
            strategy: AgreeSetStrategy::Couples { chunk_size: None },
            engine: TransversalEngine::Levelwise,
            parallelism: Parallelism::Auto,
        }
    }

    /// "Dep-Miner" of the evaluation: Algorithm 2 with a couple-buffer
    /// bound (`chunk_size` couples per pass; `None` = unbounded).
    pub fn algorithm_2(chunk_size: Option<usize>) -> Self {
        DepMiner {
            strategy: AgreeSetStrategy::Couples { chunk_size },
            ..DepMiner::new()
        }
    }

    /// "Dep-Miner 2" of the evaluation: Algorithm 3 (identifier sets).
    pub fn algorithm_3() -> Self {
        DepMiner {
            strategy: AgreeSetStrategy::EquivalenceClasses,
            ..DepMiner::new()
        }
    }

    /// Selects the transversal engine.
    pub fn with_engine(mut self, engine: TransversalEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the thread-count setting for every phase of the pipeline.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Runs the full pipeline on a relation (extracting the stripped
    /// partition database first), ungoverned. Governed runs go through
    /// the engine's `Session`, which builds `r̂` once and calls
    /// [`DepMiner::mine_db_governed`].
    pub fn mine(&self, r: &Relation) -> MiningResult {
        let t0 = Instant::now();
        let db = StrippedPartitionDb::from_relation_with(r, self.parallelism);
        let preprocess = t0.elapsed();
        let mut result = self
            .mine_db_governed(&db, &CancelToken::unlimited(), None)
            .result;
        result.timings.preprocess = preprocess;
        result
    }

    /// The configuration bytes stamped into snapshot frames: agree-set
    /// strategy and transversal engine. Parallelism is deliberately
    /// excluded — the mined result is thread-count independent, so a
    /// snapshot written at `--threads 4` resumes fine at `--threads 1`.
    pub fn config_bytes(&self) -> Vec<u8> {
        depminer_config_bytes(self.strategy, self.engine)
    }

    /// Inverse of [`DepMiner::config_bytes`]: reconstructs the exact
    /// variant recorded in a snapshot frame (parallelism defaults to
    /// [`Parallelism::Auto`]; it is not part of the frame).
    pub fn from_config_bytes(config: &[u8]) -> Result<Self, SnapshotError> {
        let (strategy, engine) = checkpoint::depminer_config_from_bytes(config)?;
        Ok(DepMiner {
            strategy,
            engine,
            parallelism: Parallelism::Auto,
        })
    }

    /// The governed pipeline on the stripped partition database — the
    /// paper's actual input ("Dep-Miner takes in input a small
    /// representation of a relation") — under a live [`CancelToken`].
    ///
    /// When the budget trips, the run unwinds at the next checkpoint and
    /// returns a partial [`MiningOutcome`]: the FD list covers only rhs
    /// attributes whose transversal search completed (those FDs are exact
    /// and pass [`MiningResult::audit_claimed_fds`]); the per-stage
    /// [`StageReport`]s record where the run stopped and what was
    /// processed.
    ///
    /// With `resume`, a checkpoint already checked against `db`, the
    /// pipeline restarts at its boundary: restored stages are skipped,
    /// per-attribute transversal results with holes resume attribute by
    /// attribute, and the final FD set is identical to an uninterrupted
    /// run's.
    pub fn mine_db_governed(
        &self,
        db: &StrippedPartitionDb,
        token: &CancelToken,
        resume: Option<DepMinerCheckpoint>,
    ) -> MiningOutcome<MiningResult> {
        let arity = db.arity();
        let mut stages: Vec<StageReport> = Vec::new();
        let _pipeline_span = token.observer().span("depminer");

        // Frame identity, computed once when snapshots can happen.
        let snapshot_id = (token.snapshots_armed() || resume.is_some())
            .then(|| (db_fingerprint(db), self.config_bytes()));
        let offer = |make: &dyn Fn() -> DepMinerCheckpoint| {
            if let Some((hash, config)) = &snapshot_id {
                token.offer_snapshot_with(|| make().into_snapshot(*hash, config.clone()));
            }
        };
        let (resume_agree, resume_max, resume_families) = match resume {
            Some(cp) => (cp.agree, cp.max, cp.families),
            None => (None, None, Vec::new()),
        };

        let restored = |stage: Stage, processed: u64| StageReport {
            stage,
            completed: true,
            processed,
            planned: Some(arity as u64),
            note: "restored from snapshot".into(),
            elapsed: Duration::ZERO,
        };
        let (ag, agree_err, t_agree) = match resume_agree {
            Some(ag) => {
                token
                    .observer()
                    .add(depminer_govern::Counter::ResumeLevelsSkipped, 1);
                let mut report = restored(Stage::AgreeSets, token.couples());
                report.planned = None;
                stages.push(report);
                (ag, None, Duration::ZERO)
            }
            None => {
                let t1 = Instant::now();
                let (ag, agree_err) =
                    agree_sets_governed(db, self.strategy, self.parallelism, token);
                let t_agree = t1.elapsed();
                stages.push(StageReport {
                    stage: Stage::AgreeSets,
                    completed: agree_err.is_none(),
                    processed: token.couples(),
                    planned: None,
                    note: format!("{} distinct non-empty agree sets", ag.sets.len()),
                    elapsed: t_agree,
                });
                (ag, agree_err, t_agree)
            }
        };
        let timings = |t_cmax: Duration, t_lhs: Duration| PhaseTimings {
            preprocess: Duration::ZERO,
            agree_sets: t_agree,
            cmax_sets: t_cmax,
            left_hand_sides: t_lhs,
        };
        let skipped = |stage: Stage| StageReport {
            stage,
            completed: false,
            processed: 0,
            planned: Some(arity as u64),
            note: "skipped: an earlier stage was cut off".into(),
            elapsed: Duration::ZERO,
        };
        if let Some(why) = agree_err {
            // Incomplete agree sets poison everything downstream: no FD can
            // be claimed, so the structural tables stay empty. Nothing is
            // resumable from here either — a pending boundary snapshot (if
            // any) is flushed, but an agree-stage trip on a fresh run has
            // none to flush.
            token.flush_snapshot();
            stages.push(skipped(Stage::MaxSets));
            stages.push(skipped(Stage::Transversals));
            let result = MiningResult {
                schema: db.schema().clone(),
                n_rows: db.n_rows(),
                agree_sets: ag,
                max_sets: MaxSets {
                    max: vec![Vec::new(); arity],
                    cmax: vec![Vec::new(); arity],
                    arity,
                },
                lhs: vec![Vec::new(); arity],
                fds: Vec::new(),
                timings: timings(Duration::ZERO, Duration::ZERO),
            };
            return MiningOutcome::partial(result, why, stages);
        }

        // Boundary 1 (§9.2): agree sets are complete. Offer them so a
        // trip in a later stage flushes at least this much to disk.
        offer(&|| DepMinerCheckpoint {
            agree: Some(ag.clone()),
            max: None,
            families: Vec::new(),
            couples: token.couples(),
            candidates: token.candidates(),
        });

        let t2 = Instant::now();
        let (max_sets, t_cmax) = match resume_max {
            Some(ms) => {
                token
                    .observer()
                    .add(depminer_govern::Counter::ResumeLevelsSkipped, 1);
                stages.push(restored(Stage::MaxSets, arity as u64));
                (ms, Duration::ZERO)
            }
            None => match cmax_sets_governed(&ag, self.parallelism, token) {
                Ok(ms) => {
                    let t_cmax = t2.elapsed();
                    if audits_enabled() {
                        enforce(ms.audit(&ag));
                    }
                    stages.push(StageReport {
                        stage: Stage::MaxSets,
                        completed: true,
                        processed: arity as u64,
                        planned: Some(arity as u64),
                        note: "maximal sets and complements derived per attribute".into(),
                        elapsed: t_cmax,
                    });
                    (ms, t_cmax)
                }
                Err(why) => {
                    // The pending boundary-1 snapshot (agree sets) is what
                    // a resume restarts from.
                    token.flush_snapshot();
                    stages.push(skipped(Stage::MaxSets));
                    stages.push(skipped(Stage::Transversals));
                    let result = MiningResult {
                        schema: db.schema().clone(),
                        n_rows: db.n_rows(),
                        agree_sets: ag,
                        max_sets: MaxSets {
                            max: vec![Vec::new(); arity],
                            cmax: vec![Vec::new(); arity],
                            arity,
                        },
                        lhs: vec![Vec::new(); arity],
                        fds: Vec::new(),
                        timings: timings(t2.elapsed(), Duration::ZERO),
                    };
                    return MiningOutcome::partial(result, why, stages);
                }
            },
        };

        // Boundary 2: maximal sets are complete.
        offer(&|| DepMinerCheckpoint {
            agree: Some(ag.clone()),
            max: Some(max_sets.clone()),
            families: Vec::new(),
            couples: token.couples(),
            candidates: token.candidates(),
        });

        let t3 = Instant::now();
        let (families, lhs_err) = left_hand_sides_resume_governed(
            &max_sets,
            self.engine,
            self.parallelism,
            token,
            &resume_families,
        );
        let done = families.iter().filter(|f| f.is_some()).count();
        if audits_enabled() {
            for (a, family) in families.iter().enumerate() {
                if let Some(family) = family {
                    enforce(audit::audit_lhs_for_attribute(
                        arity,
                        &max_sets.cmax[a],
                        family,
                    ));
                }
            }
        }
        match (&lhs_err, &snapshot_id) {
            (Some(_), Some((hash, config))) if token.snapshots_armed() => {
                // Boundary 3 is attribute-grained: persist exactly the
                // families that finished, holes for the rest, so a resume
                // only re-runs the interrupted attributes.
                let cp = DepMinerCheckpoint {
                    agree: Some(ag.clone()),
                    max: Some(max_sets.clone()),
                    families: families.clone(),
                    couples: token.couples(),
                    candidates: token.candidates(),
                };
                token.force_snapshot(&cp.into_snapshot(*hash, config.clone()));
            }
            (None, _) => token.discard_snapshot(DEPMINER_ALGO),
            _ => {}
        }
        // Unprocessed attributes keep an empty family: fd_output then emits
        // no FD with that rhs, so the FD list covers exactly the completed
        // attributes.
        let lhs: Vec<Vec<AttrSet>> = families
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect();
        let fds = fd_output(&lhs);
        token
            .observer()
            .add(depminer_govern::Counter::FdEmissions, fds.len() as u64);
        let t_lhs = t3.elapsed();
        stages.push(StageReport {
            stage: Stage::Transversals,
            completed: lhs_err.is_none(),
            processed: done as u64,
            planned: Some(arity as u64),
            note: if lhs_err.is_none() {
                "lhs families derived for every attribute".into()
            } else {
                format!(
                    "FDs guaranteed only for {done} completed rhs attributes; {} unverified",
                    arity - done
                )
            },
            elapsed: t_lhs,
        });

        let result = MiningResult {
            schema: db.schema().clone(),
            n_rows: db.n_rows(),
            agree_sets: ag,
            max_sets,
            lhs,
            fds,
            timings: timings(t_cmax, t_lhs),
        };
        match lhs_err {
            Some(why) => MiningOutcome::partial(result, why, stages),
            None => MiningOutcome::complete(result, stages),
        }
    }
}

/// Everything Dep-Miner discovers about a relation.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// The schema the result refers to.
    pub schema: Schema,
    /// Number of tuples mined.
    pub n_rows: usize,
    /// `ag(r)` (non-empty agree sets) plus context.
    pub agree_sets: AgreeSets,
    /// `max(dep(r), A)` and `cmax(dep(r), A)` per attribute.
    pub max_sets: MaxSets,
    /// `lhs(dep(r), A)` per attribute (including trivial `{A}` entries).
    pub lhs: Vec<Vec<AttrSet>>,
    /// The minimal non-trivial FDs (a cover of `dep(r)`).
    pub fds: Vec<Fd>,
    /// Per-phase wall-clock times.
    pub timings: PhaseTimings,
}

impl MiningResult {
    /// `MAX(dep(r))`: union of per-attribute maximal sets.
    pub fn max_union(&self) -> Vec<AttrSet> {
        self.max_sets.max_union()
    }

    /// Size of any Armstrong relation this result generates:
    /// `|MAX(dep(r))| + 1`.
    pub fn armstrong_size(&self) -> usize {
        self.max_union().len() + 1
    }

    /// The classic integer-valued Armstrong relation (Example 12).
    pub fn synthetic_armstrong(&self) -> Relation {
        synthetic_armstrong(&self.schema, &self.max_union())
    }

    /// Budget-aware [`MiningResult::synthetic_armstrong`]; `Err` on a
    /// budget trip (generation is all-or-nothing).
    pub fn synthetic_armstrong_governed(
        &self,
        token: &CancelToken,
    ) -> Result<Relation, BudgetExceeded> {
        synthetic_armstrong_governed(&self.schema, &self.max_union(), token)
    }

    /// Budget-aware [`MiningResult::real_world_armstrong`]; the outer
    /// `Err` is a budget trip, the inner one the Proposition 1 condition.
    pub fn real_world_armstrong_governed(
        &self,
        r: &Relation,
        token: &CancelToken,
    ) -> Result<Result<Relation, RelationError>, BudgetExceeded> {
        real_world_armstrong_governed(r, &self.max_union(), token)
    }

    /// The real-world Armstrong relation (Definition 1), with values drawn
    /// from `r`. `r` must be the relation this result was mined from.
    ///
    /// # Errors
    ///
    /// Fails when Proposition 1's existence condition does not hold.
    pub fn real_world_armstrong(&self, r: &Relation) -> Result<Relation, RelationError> {
        real_world_armstrong(r, &self.max_union())
    }

    /// The candidate keys (minimal unique column combinations) of the
    /// mined relation, derived from the agree sets via transversals.
    pub fn candidate_keys(&self) -> Vec<AttrSet> {
        keys::candidate_keys_from_agree_sets(&self.agree_sets, TransversalEngine::Levelwise)
    }

    /// Pretty-prints the discovered FDs with schema names, one per line.
    pub fn fds_display(&self) -> String {
        self.fds
            .iter()
            .map(|f| f.display_with(&self.schema))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_fdtheory::{equivalent, mine_minimal_fds};
    use depminer_relation::datasets;

    /// The governed core on `r`'s freshly built `r̂`.
    fn governed(
        miner: &DepMiner,
        r: &Relation,
        token: &CancelToken,
    ) -> MiningOutcome<MiningResult> {
        miner.mine_db_governed(&StrippedPartitionDb::from_relation(r), token, None)
    }

    #[test]
    fn default_pipeline_matches_oracle() {
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::constant_columns(),
            datasets::no_fds(),
        ] {
            let result = DepMiner::new().mine(&r);
            let oracle = mine_minimal_fds(&r);
            assert_eq!(result.fds, oracle, "exact minimal cover expected");
        }
    }

    #[test]
    fn variants_agree() {
        let r = datasets::enrollment();
        let base = DepMiner::new().mine(&r).fds;
        for miner in [
            DepMiner::algorithm_2(Some(3)),
            DepMiner::algorithm_3(),
            DepMiner::new().with_engine(TransversalEngine::Berge),
            DepMiner {
                strategy: AgreeSetStrategy::Naive,
                engine: TransversalEngine::Berge,
                ..DepMiner::new()
            },
            DepMiner::new().with_parallelism(Parallelism::Sequential),
            DepMiner::new().with_parallelism(Parallelism::Threads(4)),
        ] {
            let fds = miner.mine(&r).fds;
            assert_eq!(fds, base, "{miner:?} diverges");
            assert!(equivalent(&fds, &base));
        }
    }

    #[test]
    fn result_metadata() {
        let r = datasets::employee();
        let result = DepMiner::new().mine(&r);
        assert_eq!(result.n_rows, 7);
        assert_eq!(result.armstrong_size(), 4);
        assert_eq!(result.max_union().len(), 3);
        assert!(result.fds_display().contains("depnum -> depname"));
        // timings were recorded
        assert!(result.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn mine_db_equals_mine() {
        let r = datasets::employee();
        let db = StrippedPartitionDb::from_relation(&r);
        let a = DepMiner::new().mine(&r);
        let b = DepMiner::new()
            .mine_db_governed(&db, &CancelToken::unlimited(), None)
            .result;
        assert_eq!(a.fds, b.fds);
        assert_eq!(a.max_sets, b.max_sets);
    }

    #[test]
    fn governed_unlimited_budget_is_complete_and_identical() {
        let r = datasets::employee();
        let outcome = governed(&DepMiner::new(), &r, &Budget::unlimited().start());
        assert!(outcome.is_complete());
        assert_eq!(outcome.result.fds, DepMiner::new().mine(&r).fds);
        assert_eq!(outcome.stages.len(), 3);
        assert!(outcome.stages.iter().all(|s| s.completed));
        outcome.result.audit(&r).unwrap();
    }

    #[test]
    fn couple_budget_trips_to_valid_partial() {
        // 200 rows with correlation 0.5 generate far more than 10 couples.
        let r = depminer_relation::SyntheticConfig::new(6, 200, 0.5)
            .generate()
            .unwrap();
        let budget = Budget::unlimited().with_max_couples(10);
        let outcome = governed(&DepMiner::new(), &r, &budget.start());
        assert!(!outcome.is_complete());
        let why = outcome.interrupted.as_ref().unwrap();
        assert_eq!(why.resource, Resource::Couples);
        // Agree sets were cut off, so no FD may be claimed…
        assert!(outcome.result.fds.is_empty());
        // …and the claimed (empty) subset trivially audits clean.
        outcome.result.audit_claimed_fds(&r).unwrap();
        assert!(outcome.diagnostics().contains("agree-sets"));
    }

    #[test]
    fn cancelled_token_yields_partial_for_all_strategies() {
        let r = datasets::enrollment();
        for miner in [
            DepMiner::new(),
            DepMiner::algorithm_2(Some(3)),
            DepMiner::algorithm_3(),
            DepMiner {
                strategy: AgreeSetStrategy::Naive,
                ..DepMiner::new()
            },
        ] {
            let token = CancelToken::unlimited();
            token.cancel();
            let outcome = governed(&miner, &r, &token);
            assert!(!outcome.is_complete(), "{miner:?}");
            assert!(outcome.result.fds.is_empty(), "{miner:?}");
            outcome.result.audit_claimed_fds(&r).unwrap();
        }
    }

    #[test]
    fn partial_fds_are_exact_for_completed_attributes() {
        // A lattice-level budget of 1 lets every transversal search do only
        // level 1 of the levelwise walk: single-attribute lhs families may
        // complete (tiny searches finish within the level budget… they
        // don't — every non-empty hypergraph needs at least one full level,
        // so expect constant attrs' empty hypergraphs to complete).
        let r = datasets::constant_columns();
        let budget = Budget::unlimited().with_max_level(1);
        let outcome = governed(&DepMiner::new(), &r, &budget.start());
        // Whatever completed must be exact and minimal.
        outcome.result.audit_claimed_fds(&r).unwrap();
        let oracle = depminer_fdtheory::mine_minimal_fds(&r);
        for fd in &outcome.result.fds {
            assert!(oracle.contains(fd), "claimed FD {fd} not in minimal cover");
        }
    }

    #[test]
    fn armstrong_relations_from_result() {
        let r = datasets::employee();
        let result = DepMiner::new().mine(&r);
        let syn = result.synthetic_armstrong();
        let real = result.real_world_armstrong(&r).unwrap();
        assert_eq!(syn.len(), 4);
        assert_eq!(real.len(), 4);
        assert!(depminer_fdtheory::is_armstrong_for(&syn, &result.fds));
        assert!(depminer_fdtheory::is_armstrong_for(&real, &result.fds));
    }
}
