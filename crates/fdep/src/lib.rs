//! # depminer-fdep
//!
//! The **FDEP** algorithm of Savnik & Flach ("Bottom-up induction of
//! functional dependencies from relations", KDD workshop 1993) — one of the
//! prior FD miners the Dep-Miner paper cites ([SF93], §1/§5.1) —
//! implemented with its characteristic FD-tree.
//!
//! FDEP works bottom-up from the data:
//!
//! 1. **Negative cover** — scan the tuple pairs; a pair agreeing on `Y` and
//!    disagreeing on `A` *violates* `Y → A`. Only the ⊆-maximal violated
//!    lhs per rhs matter (they subsume the rest) — these are exactly the
//!    maximal sets `max(dep(r), A)` of the Dep-Miner paper, reached from
//!    the opposite direction. The pairs worth scanning are Dep-Miner's:
//!    couples of maximal classes, whose agree sets come from the shared
//!    Algorithm 3 scan ([`depminer_core::mc_agree_sets_governed`]).
//! 2. **Negative-to-positive inversion** — start from the most general
//!    hypothesis `∅ → A`; for each violated `Y → A`, remove every current
//!    lhs `X ⊆ Y` and specialize it minimally (`X ∪ {B}` for `B ∉ Y∪{A}`),
//!    keeping the hypothesis space an antichain via FD-tree subset queries.
//!
//! The result is the identical minimal cover Dep-Miner and TANE produce —
//! asserted by cross-validation tests here and in the workspace root.

#![warn(missing_docs)]

pub mod fdtree;

pub use fdtree::LhsTrie;

pub use depminer_govern::{
    Budget, BudgetExceeded, CancelToken, MiningOutcome, Obs, Snapshot, SnapshotError,
    SnapshotPolicy, Stage, StageReport,
};

use depminer_core::{mc_agree_sets_governed, Parallelism};
use depminer_fdtheory::{normalize_fds, Fd};
use depminer_govern::snapshot::{Dec, Enc};
use depminer_govern::SnapshotState;
use depminer_relation::invariants::{audits_enabled, enforce, InvariantError};
use depminer_relation::state::{
    all_within, check_fit, db_fingerprint, put_attrset, put_family, take_attrset, take_family,
};
use depminer_relation::{AttrSet, Relation, StrippedPartitionDb};
use std::time::{Duration, Instant};

/// Algorithm id stamped into FDEP snapshot frames.
pub const FDEP_ALGO: &str = "fdep";

/// Resumable FDEP state at a clean boundary: the complete negative
/// cover plus the inverted-rhs prefix (§9.2). A trip *inside* the
/// negative-cover scan is not resumable — an incomplete cover poisons
/// everything downstream — so no snapshot exists until phase 1 is done.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdepCheckpoint {
    /// The complete negative cover: maximal violated lhs per rhs.
    pub negative: Vec<Vec<AttrSet>>,
    /// How many rhs attributes (0..`completed_attrs`) are fully inverted.
    pub completed_attrs: usize,
    /// FDs emitted by the completed inversions, before sorting.
    pub fds: Vec<Fd>,
    /// Tuple-pair couples the interrupted run charged.
    pub couples: u64,
}

impl FdepCheckpoint {
    /// Serialize into a snapshot payload.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        put_family(&mut e, &self.negative);
        e.put_usize(self.completed_attrs);
        e.put_usize(self.fds.len());
        for f in &self.fds {
            put_attrset(&mut e, f.lhs);
            e.put_usize(f.rhs);
        }
        e.put_u64(self.couples);
        e.into_bytes()
    }

    /// Decode a snapshot payload; failures are positioned.
    pub fn decode_payload(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut d = Dec::new(bytes);
        let negative = take_family(&mut d)?;
        let completed_attrs = d.take_usize()?;
        let n = d.take_usize()?;
        let mut fds = Vec::new();
        for _ in 0..n {
            let lhs = take_attrset(&mut d)?;
            fds.push(Fd::new(lhs, d.take_usize()?));
        }
        let couples = d.take_u64()?;
        d.finish()?;
        Ok(FdepCheckpoint {
            negative,
            completed_attrs,
            fds,
            couples,
        })
    }

    /// Budget counters the interrupted run already charged.
    pub fn spend(&self) -> SnapshotState {
        SnapshotState {
            couples: self.couples,
            candidates: 0,
        }
    }

    /// Refuses a payload that does not fit a relation of `arity`
    /// attributes: the negative cover must hold one list per attribute,
    /// the inverted prefix must not run past them, and every set must
    /// lie within the relation.
    pub fn check_fits(&self, arity: usize) -> Result<(), SnapshotError> {
        let sets = self.negative.iter().flatten().copied();
        check_fit(
            self.negative.len() == arity
                && self.completed_attrs <= arity
                && all_within(arity, sets.chain(self.fds.iter().map(|fd| fd.lhs)))
                && self.fds.iter().all(|fd| fd.rhs < arity),
            FDEP_ALGO,
            arity,
        )
    }

    fn into_snapshot(&self, schema_hash: u64) -> Snapshot {
        Snapshot {
            algo: FDEP_ALGO.to_string(),
            schema_hash,
            config: Vec::new(),
            payload: self.encode_payload(),
        }
    }
}

/// Result of an FDEP run.
#[derive(Debug, Clone)]
pub struct FdepResult {
    /// Minimal non-trivial FDs (a cover of `dep(r)`), sorted.
    pub fds: Vec<Fd>,
    /// Size of the negative cover (maximal violated lhs, summed over rhs).
    pub negative_cover_size: usize,
}

/// The FDEP miner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fdep;

impl Fdep {
    /// Creates a miner.
    pub fn new() -> Self {
        Fdep
    }

    /// Mines all minimal non-trivial FDs of `r`.
    ///
    /// The pair scan uses the stripped-partition maximal classes to skip
    /// pairs that agree on nothing (they violate `Y → A` only for `Y = ∅`,
    /// read off the constant attributes), keeping the scan sub-quadratic
    /// on data with many distinct values.
    pub fn run(&self, r: &Relation) -> FdepResult {
        let db = StrippedPartitionDb::from_relation(r);
        self.run_db_governed(&db, &CancelToken::unlimited(), None)
            .result
    }

    /// The configuration bytes stamped into snapshot frames: FDEP has no
    /// tunables, so the frame carries an empty config.
    pub fn config_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Inverse of [`Fdep::config_bytes`]: FDEP has no tunables, so only
    /// an empty config is a valid frame.
    pub fn from_config_bytes(config: &[u8]) -> Result<Self, SnapshotError> {
        if !config.is_empty() {
            return Err(SnapshotError::Mismatch {
                what: format!("fdep frames carry no config, found {} bytes", config.len()),
            });
        }
        Ok(Fdep)
    }

    /// Mines the stripped partition database `db` with cooperative
    /// budget checkpoints on a caller-held token.
    ///
    /// Partial-result contract: a trip during the **negative cover** scan
    /// leaves the cover unusable (a missing violation would make the
    /// positive cover claim FDs that do not hold), so the partial result
    /// carries an empty FD list. A trip during **inversion** keeps the FDs
    /// of fully inverted rhs attributes — each rhs is independent — and
    /// drops the attribute being inverted when the budget ran out.
    ///
    /// With `resume`, a checkpoint already checked against `db`, the
    /// inversion restarts after the checkpoint's inverted-rhs prefix (the
    /// negative cover is restored, not re-scanned) and the final FD set is
    /// identical to an uninterrupted run's.
    pub fn run_db_governed(
        &self,
        db: &StrippedPartitionDb,
        token: &CancelToken,
        resume: Option<FdepCheckpoint>,
    ) -> MiningOutcome<FdepResult> {
        let _pipeline_span = token.observer().span("fdep");
        let n = db.arity();
        // Frame identity, computed once when snapshots can happen.
        let snapshot_id = (token.snapshots_armed() || resume.is_some()).then(|| db_fingerprint(db));

        let mut stopped: Option<BudgetExceeded> = None;
        let (negative, cover_report, mut fds, start_attr) = if let Some(cp) = resume {
            token.observer().add(
                depminer_govern::Counter::ResumeLevelsSkipped,
                1 + cp.completed_attrs as u64,
            );
            let report = StageReport {
                stage: Stage::NegativeCover,
                completed: true,
                processed: token.couples(),
                planned: None,
                note: "restored from snapshot".into(),
                elapsed: Duration::ZERO,
            };
            (cp.negative, report, cp.fds, cp.completed_attrs)
        } else {
            // ---- Phase 1: negative cover -----------------------------
            // Violated lhs per rhs, kept maximal. A trie per rhs would
            // also work; the agree-set family is typically small, so a
            // vec + max filter is simpler and fast.
            let t1 = Instant::now();
            let cover_span = token.observer().span("negative-cover");
            let before = token.couples();
            let (ag, why) =
                mc_agree_sets_governed(db, Parallelism::Sequential, token, Stage::NegativeCover);
            let scanned = token.couples() - before;
            if let Some(why) = why {
                // An incomplete negative cover poisons everything
                // downstream: claiming an FD whose violation was never
                // scanned would be silently wrong, so the partial result
                // carries no FDs at all — and nothing is resumable, so no
                // snapshot is written either.
                return MiningOutcome::partial(
                    FdepResult {
                        fds: Vec::new(),
                        negative_cover_size: 0,
                    },
                    why,
                    vec![
                        StageReport {
                            stage: Stage::NegativeCover,
                            completed: false,
                            processed: scanned,
                            planned: None,
                            note: "negative cover incomplete; no FDs can be claimed".into(),
                            elapsed: t1.elapsed(),
                        },
                        StageReport {
                            stage: Stage::FdepInversion,
                            completed: false,
                            processed: 0,
                            planned: Some(n as u64),
                            note: "skipped: an earlier stage was cut off".into(),
                            elapsed: Duration::ZERO,
                        },
                    ],
                );
            }
            // `ag.sets` is sorted, so the negative-cover lists (and
            // everything downstream) are independent of hash order.
            let mut negative: Vec<Vec<AttrSet>> = vec![Vec::new(); n];
            for &y in &ag.sets {
                for (a, neg) in negative.iter_mut().enumerate() {
                    if !y.contains(a) {
                        neg.push(y);
                    }
                }
            }
            for (a, neg) in negative.iter_mut().enumerate() {
                depminer_relation::retain_maximal(neg);
                // An empty list means every non-empty agree set contains
                // A, so only a couple agreeing on nothing can disagree on
                // A. One exists iff A is not constant, and it violates
                // ∅ → A.
                if neg.is_empty() && !ag.constant_attrs.contains(a) {
                    neg.push(AttrSet::empty());
                }
            }
            let negative_cover_size: usize = negative.iter().map(Vec::len).sum();
            drop(cover_span);
            let report = StageReport {
                stage: Stage::NegativeCover,
                completed: true,
                processed: scanned,
                planned: None,
                note: format!("{negative_cover_size} maximal violated lhs across all rhs"),
                elapsed: t1.elapsed(),
            };
            (negative, report, Vec::new(), 0)
        };
        let negative_cover_size: usize = negative.iter().map(Vec::len).sum();

        // ---- Phase 2: invert into the positive cover ------------------
        let t2 = Instant::now();
        let _invert_span = token.observer().span("fdep-inversion");
        let mut completed_attrs = n;
        'invert: for (a, neg) in negative.iter().enumerate().skip(start_attr) {
            // Boundary snapshot: the inverted-rhs prefix 0..a is clean —
            // offer it before this attribute charges any budget.
            if let Some(hash) = snapshot_id {
                token.offer_snapshot_with(|| {
                    let cp = FdepCheckpoint {
                        negative: negative.clone(),
                        completed_attrs: a,
                        fds: fds.clone(),
                        couples: token.couples(),
                    };
                    cp.into_snapshot(hash)
                });
            }
            if let Err(why) = token.check(Stage::FdepInversion) {
                stopped = Some(why);
                completed_attrs = a;
                break 'invert;
            }
            let mut pos = LhsTrie::new();
            pos.insert(AttrSet::empty()); // most general hypothesis: ∅ → A
            for &violated in neg {
                // A half-inverted hypothesis space claims FDs the remaining
                // violations would refute, so a mid-attribute trip drops
                // this rhs entirely and keeps only fully inverted ones.
                if let Err(why) = token.check(Stage::FdepInversion) {
                    stopped = Some(why);
                    completed_attrs = a;
                    break 'invert;
                }
                for x in pos.remove_subsets_of(violated) {
                    // Specialize x minimally so it is no longer ⊆ violated.
                    for b in 0..n {
                        if b == a || violated.contains(b) {
                            continue;
                        }
                        let cand = x.with(b);
                        if !pos.contains_subset_of(cand) {
                            pos.insert(cand);
                        }
                    }
                }
            }
            // Each step keeps `pos` an antichain, so its members are the
            // minimal lhs: a new x ∪ {b} (x ⊆ violated, b ∉ violated) is
            // inserted only without a subset in `pos`, and it could be a
            // proper subset of a survivor or a sibling only if two
            // members of the antichain before the step were nested.
            if audits_enabled() {
                enforce(validate_antichain(&pos, a));
            }
            for lhs in pos.iter_sets() {
                fds.push(Fd::new(lhs, a));
            }
        }
        normalize_fds(&mut fds);
        token
            .observer()
            .add(depminer_govern::Counter::FdEmissions, fds.len() as u64);
        let result = FdepResult {
            fds,
            negative_cover_size,
        };
        if stopped.is_some() {
            token.flush_snapshot();
        } else {
            token.discard_snapshot(FDEP_ALGO);
        }
        let invert_report = StageReport {
            stage: Stage::FdepInversion,
            completed: stopped.is_none(),
            processed: completed_attrs as u64,
            planned: Some(n as u64),
            note: if stopped.is_none() {
                format!("all {n} rhs attributes inverted")
            } else {
                format!(
                    "FDs guaranteed only for {completed_attrs} fully inverted rhs attributes; \
                     {} unverified",
                    n - completed_attrs
                )
            },
            elapsed: t2.elapsed(),
        };
        match stopped {
            Some(why) => MiningOutcome::partial(result, why, vec![cover_report, invert_report]),
            None => MiningOutcome::complete(result, vec![cover_report, invert_report]),
        }
    }
}

/// Audits that the hypotheses for rhs `a` form an antichain: no member
/// has a proper subset in the trie.
fn validate_antichain(pos: &LhsTrie, a: usize) -> Result<(), InvariantError> {
    match pos
        .iter_sets()
        .into_iter()
        .find(|&x| x.iter().any(|b| pos.contains_subset_of(x.without(b))))
    {
        Some(x) => Err(InvariantError::new(
            "LhsTrie",
            format!("lhs {x:?} of rhs {a} has a proper subset among the hypotheses"),
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_fdtheory::mine_minimal_fds;
    use depminer_relation::datasets;

    /// The governed core on `r`'s freshly built `r̂`.
    fn governed(r: &Relation, token: &CancelToken) -> MiningOutcome<FdepResult> {
        Fdep::new().run_db_governed(&StrippedPartitionDb::from_relation(r), token, None)
    }

    #[test]
    fn employee_matches_oracle() {
        let r = datasets::employee();
        let result = Fdep::new().run(&r);
        assert_eq!(result.fds, mine_minimal_fds(&r));
        assert_eq!(result.fds.len(), 14);
        assert!(result.negative_cover_size > 0);
    }

    #[test]
    fn all_datasets_match_other_miners() {
        for r in [
            datasets::employee(),
            datasets::enrollment(),
            datasets::constant_columns(),
            datasets::no_fds(),
        ] {
            let fdep = Fdep::new().run(&r).fds;
            let dm = depminer_core::DepMiner::new().mine(&r).fds;
            let tane = depminer_tane::Tane::new().run(&r).fds;
            assert_eq!(fdep, dm, "FDEP != Dep-Miner");
            assert_eq!(fdep, tane, "FDEP != TANE");
        }
    }

    #[test]
    fn empty_agree_pairs_are_detected() {
        // Two all-distinct tuples: negative cover is {∅} per attribute,
        // so every single other attribute becomes a minimal lhs.
        let r = depminer_relation::Relation::from_columns(
            depminer_relation::Schema::synthetic(2).unwrap(),
            vec![vec![0, 1], vec![0, 1]],
        )
        .unwrap();
        let result = Fdep::new().run(&r);
        let expected = mine_minimal_fds(&r);
        assert_eq!(result.fds, expected);
        assert_eq!(result.negative_cover_size, 2);
    }

    #[test]
    fn attribute_in_every_agree_set_but_not_constant() {
        // A lies in both non-empty agree sets ({A, B} and {A}), yet
        // tuples 0 and 2 agree on nothing: ∅ → A is violated and B → A
        // is minimal. With A constant instead, ∅ → A holds.
        for a in [vec![0, 0, 1, 1], vec![0, 0, 0, 0]] {
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(2).unwrap(),
                vec![a, vec![5, 5, 6, 7]],
            )
            .unwrap();
            assert_eq!(Fdep::new().run(&r).fds, mine_minimal_fds(&r), "{r:?}");
        }
    }

    #[test]
    fn antichain_audit_rejects_nested_hypotheses() {
        let mut pos = LhsTrie::new();
        pos.insert(AttrSet::from_indices([0, 2]));
        pos.insert(AttrSet::from_indices([1]));
        assert!(validate_antichain(&pos, 3).is_ok());
        pos.insert(AttrSet::from_indices([0, 1, 2]));
        assert!(validate_antichain(&pos, 3).is_err());
    }

    #[test]
    fn degenerate_relations() {
        for cols in [vec![vec![], vec![]], vec![vec![1], vec![2]]] {
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(2).unwrap(),
                cols,
            )
            .unwrap();
            assert_eq!(Fdep::new().run(&r).fds, mine_minimal_fds(&r));
        }
    }

    #[test]
    fn governed_unlimited_budget_is_complete_and_identical() {
        let r = datasets::employee();
        let plain = Fdep::new().run(&r);
        let outcome = governed(&r, &Budget::unlimited().start());
        assert!(outcome.is_complete());
        assert_eq!(outcome.result.fds, plain.fds);
        assert_eq!(
            outcome.result.negative_cover_size,
            plain.negative_cover_size
        );
        assert_eq!(outcome.stages.len(), 2);
        assert!(outcome.stages.iter().all(|s| s.completed));
    }

    #[test]
    fn couple_budget_trips_to_empty_partial() {
        let r = datasets::employee();
        let budget = Budget::unlimited().with_max_couples(1);
        let outcome = governed(&r, &budget.start());
        assert!(!outcome.is_complete());
        let why = outcome.interrupted.as_ref().unwrap();
        assert_eq!(why.resource, depminer_govern::Resource::Couples);
        assert_eq!(why.stage, Some(Stage::NegativeCover));
        // An incomplete negative cover can claim nothing.
        assert!(outcome.result.fds.is_empty());
        assert!(outcome.diagnostics().contains("negative-cover"));
    }

    #[test]
    fn cancelled_token_yields_valid_partial() {
        let r = datasets::employee();
        let token = CancelToken::unlimited();
        token.cancel();
        let outcome = governed(&r, &token);
        assert!(!outcome.is_complete());
        assert!(outcome.result.fds.is_empty());
    }

    #[test]
    fn random_relations_match_oracle() {
        use depminer_relation::Prng;
        let mut rng = Prng::seed_from_u64(2024);
        for trial in 0..50 {
            let n_attrs = rng.gen_range(2..=5usize);
            let n_rows = rng.gen_range(1..=14usize);
            let domain = rng.gen_range(1..=4u32);
            let cols: Vec<Vec<u32>> = (0..n_attrs)
                .map(|_| (0..n_rows).map(|_| rng.gen_range(0..=domain)).collect())
                .collect();
            let r = depminer_relation::Relation::from_columns(
                depminer_relation::Schema::synthetic(n_attrs).unwrap(),
                cols,
            )
            .unwrap();
            assert_eq!(
                Fdep::new().run(&r).fds,
                mine_minimal_fds(&r),
                "trial {trial}: FDEP != oracle on {r:?}"
            );
        }
    }
}
