//! The [`Session`] driver: one pipeline — mine on the shared token,
//! audit the claimed FDs, hand back the merged outcome — for every
//! registered miner.

use crate::{Emitted, Miner, MinerRegistry, SessionCtx};
use depminer_govern::{MiningOutcome, Snapshot, SnapshotError};
use depminer_relation::invariants::{audits_enabled, enforce, validate_fd_holds};
use depminer_relation::state::db_fingerprint;
use std::fmt;

/// A driver-level failure: the registered miners violated an engine
/// invariant (today: the exact miners disagreeing on the minimal cover).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    message: String,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for EngineError {}

/// Drives miners against one [`SessionCtx`]: run (or resume) on the
/// shared token, then replay every claimed exact FD against the relation
/// when audits are enabled.
pub struct Session<'r> {
    ctx: SessionCtx<'r>,
}

impl<'r> Session<'r> {
    /// Wraps a context into a driver.
    pub fn new(ctx: SessionCtx<'r>) -> Self {
        Session { ctx }
    }

    /// The underlying context (e.g. for sharing its `r̂` and token with
    /// follow-on work such as Armstrong generation).
    pub fn ctx(&self) -> &SessionCtx<'r> {
        &self.ctx
    }

    /// Runs one miner on the session's shared token and audits what it
    /// claimed. Partial outcomes pass through untouched — their FD lists
    /// are exact by each miner's partial-result contract, so they are
    /// audited too.
    // the miner owns the stage account; the outcome passes through
    // unmodified; lint: allow(partial-contract)
    pub fn run(&self, miner: &dyn Miner) -> MiningOutcome<Emitted> {
        let outcome = miner.run(&self.ctx);
        self.audit(&outcome.result);
        outcome
    }

    /// Resumes one miner from a snapshot frame and audits the combined
    /// result. This is the one resume path: the frame must name the
    /// miner's algorithm, carry the fingerprint of the session's `r̂` and
    /// the miner's config bytes, and its payload must fit `r̂`; otherwise
    /// it is refused before any mining.
    // the miner owns the stage account; the outcome passes through
    // unmodified; lint: allow(partial-contract)
    pub fn resume(
        &self,
        miner: &dyn Miner,
        snap: &Snapshot,
    ) -> Result<MiningOutcome<Emitted>, SnapshotError> {
        snap.validate(
            miner.algo_id(),
            db_fingerprint(self.ctx.db()),
            &miner.config_bytes(),
        )?;
        let outcome = miner.resume(&self.ctx, &snap.payload)?;
        self.audit(&outcome.result);
        Ok(outcome)
    }

    /// Runs every `in_all` miner of the registry back to back on the one
    /// shared token (so a single profile covers every stage of all of
    /// them). On a fully complete run the exact miners must agree — they
    /// compute the same minimal cover — and the merged outcome carries
    /// every stage report; on a trip, the first interruption reason in
    /// registry order wins and the first miner's FDs are reported.
    pub fn run_all(&self, registry: &MinerRegistry) -> Result<MiningOutcome<Emitted>, EngineError> {
        let outcomes: Vec<MiningOutcome<Emitted>> = registry
            .all_entries()
            .map(|entry| self.run(entry.instantiate().as_ref()))
            .collect();
        let complete = outcomes.iter().all(|o| o.is_complete());
        if complete {
            let disagree = outcomes
                .windows(2)
                .any(|w| w[0].result.exact_fds() != w[1].result.exact_fds());
            if disagree {
                return Err(EngineError {
                    message:
                        "internal error: Dep-Miner, TANE and FDEP disagree on the minimal cover"
                            .to_string(),
                });
            }
        }
        let why = outcomes.iter().find_map(|o| o.interrupted.clone());
        let mut stages = Vec::new();
        let mut result = None;
        for outcome in outcomes {
            if result.is_none() {
                result = Some(outcome.result);
            }
            stages.extend(outcome.stages);
        }
        let result = result.unwrap_or(Emitted::Fds(Vec::new()));
        Ok(match why {
            Some(why) => MiningOutcome::partial(result, why, stages),
            None => MiningOutcome::complete(result, stages),
        })
    }

    /// Replays every claimed exact FD against the relation. Compiled to a
    /// no-op in release builds unless the `invariants` feature is on, so
    /// the engine seam adds no steady-state overhead.
    fn audit(&self, emitted: &Emitted) {
        if !audits_enabled() {
            return;
        }
        if let Some(fds) = emitted.exact_fds() {
            let r = self.ctx.relation();
            for fd in fds {
                enforce(validate_fd_holds(r, fd.lhs, fd.rhs));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_govern::observe::profile::{ProfileNode, ProfileSink};
    use depminer_govern::{Budget, Obs};
    use depminer_relation::datasets;
    use std::sync::Arc;
    use std::time::Duration;

    fn unlimited_session(r: &depminer_relation::Relation) -> Session<'_> {
        Session::new(SessionCtx::new(r, Budget::unlimited(), Obs::none(), None))
    }

    #[test]
    fn run_all_merges_stages_and_agrees() {
        let r = datasets::employee();
        let reg = MinerRegistry::standard();
        let session = unlimited_session(&r);
        let outcome = session.run_all(&reg).unwrap();
        assert!(outcome.is_complete());
        let oracle = depminer_fdtheory::mine_minimal_fds(&r);
        assert_eq!(outcome.result.exact_fds().unwrap(), &oracle[..]);
        // Stage reports from all three miners are present, in order.
        assert!(outcome.stages.len() >= 3, "{:?}", outcome.stages);
    }

    #[test]
    fn zero_timeout_trips_every_governed_miner() {
        let r = datasets::employee();
        let reg = MinerRegistry::standard();
        for entry in reg.entries().iter().filter(|e| e.governed) {
            let budget = Budget::unlimited().with_timeout(Duration::ZERO);
            let session = Session::new(SessionCtx::new(&r, budget, Obs::none(), None));
            let outcome = session.run(entry.instantiate().as_ref());
            assert!(!outcome.is_complete(), "{} did not trip", entry.cli_name);
            if entry.fds_algo {
                assert!(outcome.result.is_empty(), "{} leaked FDs", entry.cli_name);
            }
        }
    }

    #[test]
    fn naive_miner_matches_the_oracle_by_construction() {
        let r = datasets::enrollment();
        let reg = MinerRegistry::standard();
        let session = unlimited_session(&r);
        let naive = reg.by_cli_name("naive").unwrap();
        let outcome = session.run(naive.instantiate().as_ref());
        assert!(outcome.is_complete());
        assert_eq!(
            outcome.result.exact_fds().unwrap(),
            &depminer_fdtheory::mine_minimal_fds(&r)[..]
        );
    }

    /// Instances of the span `name` anywhere under `nodes`.
    fn span_calls(nodes: &[ProfileNode], name: &str) -> u64 {
        nodes
            .iter()
            .map(|n| if n.name == name { n.calls } else { 0 } + span_calls(&n.children, name))
            .sum()
    }

    #[test]
    fn a_session_builds_r_hat_once() {
        let r = datasets::enrollment();
        let reg = MinerRegistry::standard();
        // `preprocess` spans recorded while `drive` works one session.
        let preprocess_spans = |drive: &dyn Fn(&Session)| {
            let sink = Arc::new(ProfileSink::new());
            let obs = Obs::new(sink.clone());
            drive(&Session::new(SessionCtx::new(
                &r,
                Budget::unlimited(),
                obs,
                None,
            )));
            span_calls(&sink.snapshot().roots, "preprocess")
        };
        for entry in reg.entries().iter().filter(|e| e.governed) {
            let spans = preprocess_spans(&|session| {
                assert!(session.run(entry.instantiate().as_ref()).is_complete());
            });
            assert_eq!(spans, 1, "{}", entry.cli_name);
        }
        let spans = preprocess_spans(&|session| {
            assert!(session.run_all(&reg).unwrap().is_complete());
        });
        assert_eq!(spans, 1, "run_all shares one r̂ across its miners");
    }
}
