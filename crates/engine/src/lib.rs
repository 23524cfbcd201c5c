//! The unified miner-engine layer.
//!
//! The paper presents Dep-Miner, TANE and FDEP as variants of one
//! levelwise discovery problem; this crate gives the codebase the same
//! shape. Every algorithm implements one [`Miner`] trait (stable
//! algorithm id, config bytes for snapshot frames, `run`, `resume`) over
//! its one governed core, a [`SessionCtx`] owns the cross-cutting bundle
//! every governed run needs (the relation and its stripped partition
//! database `r̂`, budget, cancel token, observer, snapshot policy), and a
//! [`MinerRegistry`] + [`Session`] driver runs
//! load → preprocess → mine → invariant audit → report as one pipeline.
//!
//! Adding a fifth miner costs one `Miner` impl plus one
//! [`MinerEntry`](registry::MinerEntry) row — no edits to the CLI, the
//! governance layer, or the observability plumbing.
//!
//! ```
//! use depminer_engine::{MinerRegistry, Session, SessionCtx};
//! use depminer_govern::{Budget, Obs};
//! use depminer_relation::datasets;
//!
//! let r = datasets::employee();
//! let registry = MinerRegistry::standard();
//! let entry = registry.by_cli_name("tane").unwrap();
//! let session = Session::new(SessionCtx::new(&r, Budget::unlimited(), Obs::none(), None));
//! let outcome = session.run(entry.instantiate().as_ref());
//! assert!(outcome.is_complete());
//! assert!(!outcome.result.exact_fds().unwrap().is_empty());
//! ```

#![warn(missing_docs)]

pub mod registry;
pub mod session;

pub use registry::{MinerEntry, MinerRegistry};
pub use session::{EngineError, Session};

use depminer_core::{DepMiner, DepMinerCheckpoint};
use depminer_fdep::{Fdep, FdepCheckpoint};
use depminer_fdtheory::Fd;
use depminer_govern::{
    Budget, CancelToken, MiningOutcome, Obs, SnapshotError, SnapshotPolicy, SnapshotState,
};
use depminer_relation::invariants::{audits_enabled, enforce};
use depminer_relation::{Relation, StrippedPartitionDb};
use depminer_tane::{
    approx_config_bytes, approximate_fds_governed, ApproxCheckpoint, ApproxFd, Tane, TaneCheckpoint,
};
use std::cell::{OnceCell, RefCell};

/// What a miner emitted: exact minimal FDs, or approximate FDs together
/// with the `g3` threshold they were mined under (carried in the variant
/// so resumed runs can render their header without a side channel).
#[derive(Debug, Clone, PartialEq)]
pub enum Emitted {
    /// Exact minimal non-trivial FDs.
    Fds(Vec<Fd>),
    /// Minimal approximate FDs with `g3 <= epsilon`.
    ApproxFds {
        /// The mined approximate FDs.
        fds: Vec<ApproxFd>,
        /// The `g3` threshold the run was configured with.
        epsilon: f64,
    },
}

impl Emitted {
    /// Number of emitted dependencies.
    pub fn len(&self) -> usize {
        match self {
            Emitted::Fds(fds) => fds.len(),
            Emitted::ApproxFds { fds, .. } => fds.len(),
        }
    }

    /// `true` when nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The exact FD list, when this run produced one.
    pub fn exact_fds(&self) -> Option<&[Fd]> {
        match self {
            Emitted::Fds(fds) => Some(fds),
            Emitted::ApproxFds { .. } => None,
        }
    }
}

/// The cross-cutting bundle a governed mining run needs: the relation
/// and its stripped partition database `r̂`, the resource [`Budget`], the
/// [`Obs`] observer handle, and an optional [`SnapshotPolicy`].
///
/// `r̂` and the [`CancelToken`] are created lazily on first use, so one
/// context builds `r̂` once and `Session::run_all` shares it, and the
/// token, across every miner, exactly like the profiled `--algo all`
/// mode. [`SnapshotPolicy`] must be attached at token creation (the
/// policy's snapshot slot needs a sole owner), so the context holds the
/// policy until the shared token or a resume token materializes.
pub struct SessionCtx<'r> {
    relation: &'r Relation,
    budget: Budget,
    obs: Obs,
    policy: RefCell<Option<SnapshotPolicy>>,
    token: OnceCell<CancelToken>,
    db: OnceCell<StrippedPartitionDb>,
}

impl<'r> SessionCtx<'r> {
    /// Bundles a relation with its run-wide budget, observer and
    /// (optional) snapshot policy.
    pub fn new(
        relation: &'r Relation,
        budget: Budget,
        obs: Obs,
        policy: Option<SnapshotPolicy>,
    ) -> Self {
        SessionCtx {
            relation,
            budget,
            obs,
            policy: RefCell::new(policy),
            token: OnceCell::new(),
            db: OnceCell::new(),
        }
    }

    /// The relation being mined.
    pub fn relation(&self) -> &'r Relation {
        self.relation
    }

    /// The relation's stripped partition database `r̂` (§3.1), the input
    /// every governed core mines. Built on first use under the
    /// `preprocess` span and, when audits are enabled, checked against
    /// the relation.
    pub fn db(&self) -> &StrippedPartitionDb {
        self.db.get_or_init(|| {
            let db = {
                let _span = self.obs.span("preprocess");
                StrippedPartitionDb::from_relation(self.relation)
            };
            if audits_enabled() {
                enforce(db.validate_against(self.relation));
            }
            db
        })
    }

    /// The shared cancel token, created from the budget (and armed with
    /// the snapshot policy, if any) on first use.
    pub fn token(&self) -> &CancelToken {
        self.token
            .get_or_init(|| self.arm(self.budget.start_observed(self.obs.clone())))
    }

    /// A fresh token for resuming a run that had already charged
    /// `spend` to the budget, armed with the snapshot policy so the
    /// resumed run keeps checkpointing.
    pub fn resume_token(&self, spend: SnapshotState) -> CancelToken {
        self.arm(
            self.budget
                .resume_from(spend)
                .start_observed(self.obs.clone()),
        )
    }

    /// Attaches the snapshot policy, if the context still holds one.
    fn arm(&self, token: CancelToken) -> CancelToken {
        match self.policy.borrow_mut().take() {
            Some(policy) => token.with_snapshots(policy),
            None => token,
        }
    }
}

/// One FD-discovery algorithm, pluggable into the [`Session`] driver.
///
/// Implementations call their crate's one governed core (for example
/// `DepMiner::mine_db_governed`) on the context's `r̂`, so the engine
/// adds dispatch — not new mining code paths. `run` mines on the shared
/// token; `resume` decodes a checkpoint payload, refuses one that does
/// not fit `r̂`, and resumes the core from it on a carry-accounted
/// token.
pub trait Miner {
    /// Stable algorithm id, as stamped into snapshot frames
    /// (`<algo_id>.snap`).
    fn algo_id(&self) -> &'static str;

    /// Configuration bytes stamped into snapshot frames; must round-trip
    /// through the registry's `from_config` constructor.
    fn config_bytes(&self) -> Vec<u8>;

    /// Mines the context's `r̂` on the context's shared token.
    fn run(&self, ctx: &SessionCtx) -> MiningOutcome<Emitted>;

    /// Resumes an interrupted governed run from the payload of a snapshot
    /// frame that `Session::resume` has already matched to this miner,
    /// relation and configuration. A payload that does not fit `r̂` is
    /// refused with [`SnapshotError::Mismatch`] before any mining.
    fn resume(
        &self,
        ctx: &SessionCtx,
        payload: &[u8],
    ) -> Result<MiningOutcome<Emitted>, SnapshotError>;
}

impl Miner for DepMiner {
    fn algo_id(&self) -> &'static str {
        depminer_core::DEPMINER_ALGO
    }

    fn config_bytes(&self) -> Vec<u8> {
        DepMiner::config_bytes(self)
    }

    fn run(&self, ctx: &SessionCtx) -> MiningOutcome<Emitted> {
        // The token first: the budget's deadline covers building r̂.
        let token = ctx.token();
        self.mine_db_governed(ctx.db(), token, None)
            .map(|res| Emitted::Fds(res.fds))
    }

    fn resume(
        &self,
        ctx: &SessionCtx,
        payload: &[u8],
    ) -> Result<MiningOutcome<Emitted>, SnapshotError> {
        let cp = DepMinerCheckpoint::decode_payload(payload)?;
        cp.check_fits(ctx.db().arity())?;
        let token = ctx.resume_token(cp.spend());
        Ok(self
            .mine_db_governed(ctx.db(), &token, Some(cp))
            .map(|res| Emitted::Fds(res.fds)))
    }
}

impl Miner for Tane {
    fn algo_id(&self) -> &'static str {
        depminer_tane::TANE_ALGO
    }

    fn config_bytes(&self) -> Vec<u8> {
        Tane::config_bytes(self)
    }

    fn run(&self, ctx: &SessionCtx) -> MiningOutcome<Emitted> {
        let token = ctx.token();
        self.run_db_governed(ctx.db(), token, None)
            .map(|res| Emitted::Fds(res.fds))
    }

    fn resume(
        &self,
        ctx: &SessionCtx,
        payload: &[u8],
    ) -> Result<MiningOutcome<Emitted>, SnapshotError> {
        let cp = TaneCheckpoint::decode_payload(payload)?;
        cp.check_fits(ctx.db().arity())?;
        let token = ctx.resume_token(cp.spend());
        Ok(self
            .run_db_governed(ctx.db(), &token, Some(cp))
            .map(|res| Emitted::Fds(res.fds)))
    }
}

impl Miner for Fdep {
    fn algo_id(&self) -> &'static str {
        depminer_fdep::FDEP_ALGO
    }

    fn config_bytes(&self) -> Vec<u8> {
        Fdep::config_bytes(self)
    }

    fn run(&self, ctx: &SessionCtx) -> MiningOutcome<Emitted> {
        let token = ctx.token();
        self.run_db_governed(ctx.db(), token, None)
            .map(|res| Emitted::Fds(res.fds))
    }

    fn resume(
        &self,
        ctx: &SessionCtx,
        payload: &[u8],
    ) -> Result<MiningOutcome<Emitted>, SnapshotError> {
        let cp = FdepCheckpoint::decode_payload(payload)?;
        cp.check_fits(ctx.db().arity())?;
        let token = ctx.resume_token(cp.spend());
        Ok(self
            .run_db_governed(ctx.db(), &token, Some(cp))
            .map(|res| Emitted::Fds(res.fds)))
    }
}

/// Approximate-TANE as a [`Miner`]: mines minimal approximate FDs with
/// `g3 <= epsilon`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxMiner {
    /// The `g3` error threshold in `[0, 1]`.
    pub epsilon: f64,
}

impl Miner for ApproxMiner {
    fn algo_id(&self) -> &'static str {
        depminer_tane::TANE_APPROX_ALGO
    }

    fn config_bytes(&self) -> Vec<u8> {
        approx_config_bytes(self.epsilon)
    }

    fn run(&self, ctx: &SessionCtx) -> MiningOutcome<Emitted> {
        let token = ctx.token();
        approximate_fds_governed(ctx.relation(), ctx.db(), self.epsilon, token, None)
            .map(|fds| self.emitted(fds))
    }

    fn resume(
        &self,
        ctx: &SessionCtx,
        payload: &[u8],
    ) -> Result<MiningOutcome<Emitted>, SnapshotError> {
        let cp = ApproxCheckpoint::decode_payload(payload)?;
        cp.check_fits(ctx.db().arity())?;
        let token = ctx.resume_token(cp.spend());
        Ok(
            approximate_fds_governed(ctx.relation(), ctx.db(), self.epsilon, &token, Some(cp))
                .map(|fds| self.emitted(fds)),
        )
    }
}

impl ApproxMiner {
    /// Tags mined approximate FDs with the threshold they were mined
    /// under.
    fn emitted(&self, fds: Vec<ApproxFd>) -> Emitted {
        Emitted::ApproxFds {
            fds,
            epsilon: self.epsilon,
        }
    }
}

/// The brute-force oracle as a [`Miner`]: ungoverned (no budget
/// checkpoints, not resumable), kept registered so `fds --algo naive`
/// rides the same driver as everything else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NaiveMiner;

impl Miner for NaiveMiner {
    fn algo_id(&self) -> &'static str {
        "naive"
    }

    fn config_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    fn run(&self, ctx: &SessionCtx) -> MiningOutcome<Emitted> {
        // Ungoverned: the oracle has no checkpoints, so it reports no
        // stages and can never be partial.
        let stages = Vec::new();
        MiningOutcome::complete(
            Emitted::Fds(depminer_fdtheory::mine_minimal_fds(ctx.relation())),
            stages,
        )
    }

    // always errors, so there is no outcome to account for;
    // lint: allow(partial-contract)
    fn resume(
        &self,
        _ctx: &SessionCtx,
        _payload: &[u8],
    ) -> Result<MiningOutcome<Emitted>, SnapshotError> {
        Err(SnapshotError::Mismatch {
            what: "the naive oracle writes no snapshots and cannot resume".to_string(),
        })
    }
}
