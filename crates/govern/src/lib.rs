//! # depminer-govern
//!
//! Resource governance for the mining pipelines: budgets, cooperative
//! cancellation, and the partial-result contract.
//!
//! Every worst-case-exponential stage (agree sets, minimal transversals,
//! TANE's lattice walk, fdep's negative cover, Armstrong generation)
//! polls a shared [`CancelToken`] at coarse checkpoints — once per level,
//! per equivalence class, per chunk — so a pathological relation can be
//! stopped at a [`Budget`] instead of hanging a worker or exhausting
//! memory. A tripped budget makes every stage unwind *without panicking*
//! and return whatever it finished at a clean boundary; callers receive a
//! [`MiningOutcome`] wrapping the partial result with an honest account
//! of where mining stopped and which claims are still guaranteed.
//!
//! The token is cheap by design: the hot check is one relaxed atomic
//! load. `BENCH_overhead.json` measures what the governed code path
//! costs over the ungoverned one against a 2% target (its `governed`
//! overhead).
//!
//! With the `faults` feature, tokens can carry a deterministic
//! [`faults::FaultPlan`] that injects a cancellation, a worker panic, or
//! an allocation-budget exhaustion at the n-th checkpoint — the chaos
//! tests drive every injection point and assert the pipeline always
//! yields a complete result or a well-formed partial one.

#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[cfg(feature = "faults")]
pub mod faults;
pub mod snapshot;

pub use snapshot::{Snapshot, SnapshotError, SnapshotPolicy, SnapshotState};

/// Re-export of the observability subsystem: stage crates depend on
/// `govern` already, so they reach spans and counters through
/// `govern::observe` / [`CancelToken::observer`] without a direct
/// dependency edge.
pub use depminer_observe as observe;
pub use depminer_observe::{Counter, Obs, SpanGuard};

/// The pipeline stages that poll a [`CancelToken`]. Diagnostics name the
/// stage a budget tripped in, so partial results can say exactly where
/// mining stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Agree-set computation (naive pairs, couples, or equivalence classes).
    AgreeSets,
    /// Maximal/complement-maximal set derivation per attribute.
    MaxSets,
    /// Minimal-transversal search (levelwise, Berge, or DFS).
    Transversals,
    /// TANE's exact lattice level loop.
    TaneLevels,
    /// The approximate-FD (g₃) lattice level loop.
    ApproxLevels,
    /// fdep's negative-cover pair scan.
    NegativeCover,
    /// fdep's negative-cover inversion into positive FDs.
    FdepInversion,
    /// Armstrong relation row construction.
    Armstrong,
}

impl Stage {
    /// Stable human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::AgreeSets => "agree-sets",
            Stage::MaxSets => "max-sets",
            Stage::Transversals => "transversals",
            Stage::TaneLevels => "tane-levels",
            Stage::ApproxLevels => "approx-levels",
            Stage::NegativeCover => "negative-cover",
            Stage::FdepInversion => "fdep-inversion",
            Stage::Armstrong => "armstrong",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which governed resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// [`CancelToken::cancel`] was called from outside.
    External,
    /// The wall-clock deadline passed.
    Deadline,
    /// More agree-set couples than [`Budget::max_couples`] were generated.
    Couples,
    /// The lattice walk reached [`Budget::max_level`].
    LatticeLevel,
    /// More lattice candidates than [`Budget::max_candidates`] were generated.
    Candidates,
    /// Tracked allocations exceeded [`Budget::max_memory_bytes`].
    Memory,
    /// A deterministic fault-injection plan fired (`faults` feature).
    InjectedFault,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::External => "external cancellation",
            Resource::Deadline => "wall-clock deadline",
            Resource::Couples => "agree-set couple budget",
            Resource::LatticeLevel => "lattice level budget",
            Resource::Candidates => "lattice candidate budget",
            Resource::Memory => "memory budget",
            Resource::InjectedFault => "injected fault",
        })
    }
}

/// Why and where a governed run stopped early. The first trip wins: once
/// a token is cancelled, every later checkpoint reports the same reason,
/// so diagnostics are consistent across racing workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The exhausted resource.
    pub resource: Resource,
    /// The stage whose checkpoint observed the trip first, when known.
    pub stage: Option<Stage>,
    /// Human-readable context (counts, limits).
    pub detail: String,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stage {
            Some(stage) => write!(
                f,
                "{} exceeded in {}: {}",
                self.resource, stage, self.detail
            ),
            None => write!(f, "{} exceeded: {}", self.resource, self.detail),
        }
    }
}

impl Error for BudgetExceeded {}

/// Resource limits for one mining run. All limits are optional; the
/// default is unlimited. A budget is inert until [`Budget::start`] turns
/// it into a live [`CancelToken`] (that is when the deadline clock
/// starts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Wall-clock limit for the whole run.
    pub timeout: Option<Duration>,
    /// Cap on agree-set couples generated (Dep-Miner algorithm 2/3).
    pub max_couples: Option<u64>,
    /// Deepest lattice level the levelwise walks may enter (TANE,
    /// transversal search). Level 1 is the singletons.
    pub max_level: Option<usize>,
    /// Cap on lattice candidates generated across all levels.
    pub max_candidates: Option<u64>,
    /// Approximate cap on bytes of tracked working memory (couple
    /// buffers, level vectors, partition products).
    pub max_memory_bytes: Option<u64>,
    /// Agree-set couples already charged by an interrupted run this one
    /// resumes; seeded into the token so spend accounting continues
    /// instead of restarting (see [`Budget::resume_from`]).
    pub carry_couples: u64,
    /// Lattice candidates already charged by the interrupted run.
    pub carry_candidates: u64,
}

impl Budget {
    /// A budget with no limits: the resulting token never trips on its
    /// own (it can still be cancelled externally).
    pub const fn unlimited() -> Self {
        Budget {
            timeout: None,
            max_couples: None,
            max_level: None,
            max_candidates: None,
            max_memory_bytes: None,
            carry_couples: 0,
            carry_candidates: 0,
        }
    }

    /// Sets the wall-clock limit.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the agree-set couple cap.
    pub fn with_max_couples(mut self, n: u64) -> Self {
        self.max_couples = Some(n);
        self
    }

    /// Sets the deepest permitted lattice level.
    pub fn with_max_level(mut self, level: usize) -> Self {
        self.max_level = Some(level);
        self
    }

    /// Sets the lattice candidate cap.
    pub fn with_max_candidates(mut self, n: u64) -> Self {
        self.max_candidates = Some(n);
        self
    }

    /// Sets the approximate tracked-memory cap in bytes.
    pub fn with_max_memory_bytes(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Resumes spend accounting from a checkpoint: the couples and
    /// candidates the interrupted run already charged are pre-loaded
    /// into the token's counters, so a `--max-couples`-style cap covers
    /// the *whole* logical run, not each resume attempt separately.
    pub fn resume_from(mut self, state: SnapshotState) -> Self {
        self.carry_couples = state.couples;
        self.carry_candidates = state.candidates;
        self
    }

    /// `true` when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::unlimited()
    }

    /// Starts the budget: converts the timeout into an absolute deadline
    /// and returns the live token stages will poll. The token carries a
    /// disabled observer; use [`Budget::start_observed`] to instrument.
    pub fn start(&self) -> CancelToken {
        self.start_observed(Obs::none())
    }

    /// Starts the budget with an observer attached: every checkpoint
    /// that records work (couples, candidates, memory) also feeds the
    /// matching observe counter, so instrumentation and budgets share
    /// one hook. Stage code reads the handle via
    /// [`CancelToken::observer`].
    pub fn start_observed(&self, obs: Obs) -> CancelToken {
        CancelToken {
            state: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                trip: Mutex::new(None),
                deadline: self.timeout.map(|t| Instant::now() + t),
                checks: AtomicU64::new(0),
                max_couples: self.max_couples.unwrap_or(u64::MAX),
                couples: AtomicU64::new(self.carry_couples),
                max_candidates: self.max_candidates.unwrap_or(u64::MAX),
                candidates: AtomicU64::new(self.carry_candidates),
                max_level: self.max_level.unwrap_or(usize::MAX),
                max_memory: self.max_memory_bytes.unwrap_or(u64::MAX),
                memory: AtomicU64::new(0),
                obs,
                snapshots: None,
                #[cfg(feature = "faults")]
                fault: None,
            }),
        }
    }

    /// Starts the budget with a deterministic fault-injection plan armed
    /// on the token (`faults` feature; chaos tests only).
    #[cfg(feature = "faults")]
    pub fn start_with_fault(&self, plan: faults::FaultPlan) -> CancelToken {
        self.start_observed_with_fault(Obs::none(), plan)
    }

    /// [`Budget::start_observed`] plus an armed fault plan, so the chaos
    /// tests can assert profile trees stay well-formed when a stage
    /// panics or trips mid-flight (`faults` feature).
    #[cfg(feature = "faults")]
    pub fn start_observed_with_fault(&self, obs: Obs, plan: faults::FaultPlan) -> CancelToken {
        let mut token = self.start_observed(obs);
        let state =
            Arc::get_mut(&mut token.state).expect("freshly started token has no other handles");
        state.fault = Some(plan);
        token
    }

    /// Starts the budget with a [`SnapshotPolicy`] attached: governed
    /// miners offer resumable state at their clean boundaries and the
    /// policy decides what reaches disk (always on trip; optionally
    /// every N boundaries / T seconds).
    pub fn start_with_snapshots(&self, policy: SnapshotPolicy) -> CancelToken {
        self.start().with_snapshots(policy)
    }
}

/// How many checkpoints share one monotonic-clock read when a deadline
/// is armed. Checkpoints sit at coarse loop boundaries, so a deadline
/// trip lands at most a stride of cheap iterations late — while the
/// governed hot path stays within the <2% overhead target.
const DEADLINE_STRIDE: u64 = 64;

/// Shared token state; one per governed run, shared by every worker.
struct TokenState {
    /// The hot flag: set exactly when some limit tripped (or `cancel`
    /// was called). Checkpoints read it with a relaxed load.
    cancelled: AtomicBool,
    /// First trip reason; later trips keep the original.
    trip: Mutex<Option<BudgetExceeded>>,
    deadline: Option<Instant>,
    /// Checkpoint counter driving the strided deadline read: reading the
    /// monotonic clock dominates checkpoint cost, so only every
    /// [`DEADLINE_STRIDE`]-th checkpoint consults it. The very first
    /// checkpoint (count 0) always reads the clock, so an
    /// already-expired deadline trips immediately.
    checks: AtomicU64,
    max_couples: u64,
    couples: AtomicU64,
    max_candidates: u64,
    candidates: AtomicU64,
    max_level: usize,
    max_memory: u64,
    memory: AtomicU64,
    /// Observer fed by the work-recording checkpoints; the disabled
    /// handle keeps the hot path at one extra branch.
    obs: Obs,
    /// Where and when checkpoint snapshots reach disk; `None` leaves the
    /// offer hooks as a single branch.
    snapshots: Option<SnapshotPolicy>,
    #[cfg(feature = "faults")]
    fault: Option<faults::FaultPlan>,
}

/// Cooperative cancellation handle shared across a governed run. Cloning
/// is cheap (an `Arc`); all clones observe the same state.
///
/// The contract for governed stages: poll [`CancelToken::check`] at every
/// loop that can run long (per level, per class, per chunk); on `Err`,
/// stop at the nearest clean boundary and return what is finished. The
/// error carries the reason; stages never panic on a budget trip.
#[derive(Clone)]
pub struct CancelToken {
    state: Arc<TokenState>,
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::unlimited()
    }
}

impl CancelToken {
    /// A token with no limits. The ungoverned entry points run on one of
    /// these: every checkpoint is a single relaxed load that never trips.
    pub fn unlimited() -> Self {
        Budget::unlimited().start()
    }

    /// `true` once any limit tripped or [`CancelToken::cancel`] ran.
    /// This is the cheap form for code that only needs a yes/no (the
    /// pool's job wrapper); stages should prefer [`CancelToken::check`].
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::Relaxed)
    }

    /// Cancels the run from outside (e.g. a request handler timing out a
    /// worker). Idempotent; an earlier budget trip keeps its reason.
    pub fn cancel(&self) {
        self.trip(
            Resource::External,
            None,
            "cancelled by the caller".to_string(),
        );
    }

    /// The cooperative checkpoint. Returns `Err` once the run is over
    /// budget; `stage` labels the checkpoint for diagnostics. Cost on
    /// the happy path: one relaxed load, plus — when a deadline is armed
    /// — a clock read every [`DEADLINE_STRIDE`]-th call (the first call
    /// always reads it). Call it at coarse boundaries (per level, per
    /// class, per chunk), not per row.
    pub fn check(&self, stage: Stage) -> Result<(), BudgetExceeded> {
        #[cfg(feature = "faults")]
        self.fault_hook(stage)?;
        if self.state.cancelled.load(Ordering::Relaxed) {
            return Err(self.current_reason(stage));
        }
        if let Some(deadline) = self.state.deadline {
            let n = self.state.checks.fetch_add(1, Ordering::Relaxed);
            if n % DEADLINE_STRIDE == 0 && Instant::now() >= deadline {
                return Err(self.trip(
                    Resource::Deadline,
                    Some(stage),
                    "wall-clock deadline passed".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Records `n` freshly generated agree-set couples; trips when the
    /// running total passes the budget.
    pub fn add_couples(&self, n: u64, stage: Stage) -> Result<(), BudgetExceeded> {
        let total = self.state.couples.fetch_add(n, Ordering::Relaxed) + n;
        self.state.obs.add(Counter::CouplesScanned, n);
        if total > self.state.max_couples {
            return Err(self.trip(
                Resource::Couples,
                Some(stage),
                format!(
                    "{total} couples generated, limit {}",
                    self.state.max_couples
                ),
            ));
        }
        self.check(stage)
    }

    /// Records `n` freshly generated lattice candidates; trips past the
    /// candidate budget.
    pub fn add_candidates(&self, n: u64, stage: Stage) -> Result<(), BudgetExceeded> {
        let total = self.state.candidates.fetch_add(n, Ordering::Relaxed) + n;
        self.state.obs.add(Counter::AprioriCandidates, n);
        if total > self.state.max_candidates {
            return Err(self.trip(
                Resource::Candidates,
                Some(stage),
                format!(
                    "{total} candidates generated, limit {}",
                    self.state.max_candidates
                ),
            ));
        }
        self.check(stage)
    }

    /// Checkpoint at the entry of lattice level `level` (1-based); trips
    /// when the level exceeds the budget's depth limit.
    pub fn enter_level(&self, level: usize, stage: Stage) -> Result<(), BudgetExceeded> {
        if level > self.state.max_level {
            return Err(self.trip(
                Resource::LatticeLevel,
                Some(stage),
                format!("level {level} past limit {}", self.state.max_level),
            ));
        }
        self.check(stage)
    }

    /// Tracks an allocation of approximately `bytes`; trips past the
    /// memory budget. Pair with [`CancelToken::release_memory`] when the
    /// allocation is dropped or flushed. On any `Err` the bytes are
    /// handed back at once, so a failed reservation never stays charged.
    pub fn reserve_memory(&self, bytes: u64, stage: Stage) -> Result<(), BudgetExceeded> {
        let total = self.state.memory.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.state.obs.mem_sample(total);
        let verdict = if total > self.state.max_memory {
            Err(self.trip(
                Resource::Memory,
                Some(stage),
                format!("~{total} tracked bytes, limit {}", self.state.max_memory),
            ))
        } else {
            self.check(stage)
        };
        if verdict.is_err() {
            self.release_memory(bytes);
        }
        verdict
    }

    /// `true` when reserving `bytes` more tracked memory *would* trip the
    /// memory budget — without reserving anything or tripping.
    ///
    /// This is the eviction hook for memory-bounded caches (TANE's
    /// partition cache): instead of letting [`CancelToken::reserve_memory`]
    /// abort the level, a caller first asks whether the reservation fits,
    /// evicts reclaimable storage until it does, and only then reserves —
    /// so the budget trips only on genuine exhaustion. Always `false` on
    /// an unlimited budget. Advisory under concurrency: a racing reserve
    /// can still push the follow-up reservation over the cap.
    pub fn memory_would_trip(&self, bytes: u64) -> bool {
        let cur = self.state.memory.load(Ordering::Relaxed);
        cur.saturating_add(bytes) > self.state.max_memory
    }

    /// Returns `bytes` of tracked memory to the budget.
    pub fn release_memory(&self, bytes: u64) {
        // Saturating: a release racing a reserve can transiently see less
        // than was added; clamping at zero keeps the account sane.
        let mut cur = self.state.memory.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.state.memory.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The observer handle riding this token. Stage code opens spans on
    /// it (`token.observer().span("agree-sets")`); the default handle is
    /// disabled and every call short-circuits after one branch.
    pub fn observer(&self) -> &Obs {
        &self.state.obs
    }

    /// Attaches a snapshot policy to a freshly started token (same
    /// single-handle restriction as arming a fault plan).
    pub fn with_snapshots(mut self, policy: SnapshotPolicy) -> Self {
        let state =
            Arc::get_mut(&mut self.state).expect("freshly started token has no other handles");
        state.snapshots = Some(policy);
        self
    }

    /// The attached snapshot policy, if any.
    pub fn snapshot_policy(&self) -> Option<&SnapshotPolicy> {
        self.state.snapshots.as_ref()
    }

    /// `true` when a snapshot policy is attached — miners gate the cost
    /// of building checkpoint state on this, so ungoverned and
    /// policy-less runs pay one branch per boundary.
    pub fn snapshots_armed(&self) -> bool {
        self.state.snapshots.is_some()
    }

    /// Offer resumable state at a clean boundary. The policy writes it
    /// when due and otherwise retains it for an on-trip flush. Returns
    /// `true` when a file reached disk (best-effort: write errors are
    /// recorded on the policy, never propagated into the mine).
    pub fn offer_snapshot(&self, snap: &Snapshot) -> bool {
        let Some(policy) = &self.state.snapshots else {
            return false;
        };
        let _g = self.state.obs.span("snapshot-offer");
        let wrote = policy.offer(&snap.algo, snap.encode(), || self.writer_corruption());
        if wrote {
            self.state.obs.add(Counter::SnapshotsWritten, 1);
        }
        wrote
    }

    /// Lazy variant of [`CancelToken::offer_snapshot`]: `make` builds
    /// the frame only when the policy actually needs the bytes (a write
    /// is due, or the retained trip-flush state has gone stale). Miners
    /// use this at hot boundaries so an armed-but-idle policy costs a
    /// branch and a clock read per boundary, not a checkpoint clone +
    /// encode. Returns `true` when a file reached disk.
    pub fn offer_snapshot_with<F: FnOnce() -> Snapshot>(&self, make: F) -> bool {
        let Some(policy) = &self.state.snapshots else {
            return false;
        };
        let _g = self.state.obs.span("snapshot-offer");
        let wrote = policy.offer_with(
            || {
                let snap = make();
                (snap.algo.clone(), snap.encode())
            },
            || self.writer_corruption(),
        );
        if wrote {
            self.state.obs.add(Counter::SnapshotsWritten, 1);
        }
        wrote
    }

    /// Write `snap` immediately, bypassing the policy's due check —
    /// used for on-trip states assembled after a fan-out returns (e.g.
    /// per-attribute transversal progress).
    pub fn force_snapshot(&self, snap: &Snapshot) -> bool {
        let Some(policy) = &self.state.snapshots else {
            return false;
        };
        let _g = self.state.obs.span("snapshot-write");
        let wrote = policy.force(&snap.algo, snap.encode(), || self.writer_corruption());
        if wrote {
            self.state.obs.add(Counter::SnapshotsWritten, 1);
        }
        wrote
    }

    /// Flush the last offered-but-unwritten boundary state; miners call
    /// this when a budget trips so the on-disk snapshot is always the
    /// newest clean boundary.
    pub fn flush_snapshot(&self) -> bool {
        let Some(policy) = &self.state.snapshots else {
            return false;
        };
        let _g = self.state.obs.span("snapshot-write");
        let wrote = policy.flush(|| self.writer_corruption());
        if wrote {
            self.state.obs.add(Counter::SnapshotsWritten, 1);
        }
        wrote
    }

    /// Drop pending state and delete `algo`'s snapshot file — called on
    /// clean completion so nothing stale is left to resume.
    pub fn discard_snapshot(&self, algo: &str) {
        if let Some(policy) = &self.state.snapshots {
            policy.discard(algo);
        }
    }

    /// Corruption the armed fault plan injects into the *next* snapshot
    /// write, if any. Consumes the plan's one-shot ordinal per write, so
    /// `at` counts snapshot writes for writer-targeting kinds.
    #[cfg(feature = "faults")]
    fn writer_corruption(&self) -> Option<snapshot::WriteCorruption> {
        let plan = self.state.fault.as_ref()?;
        if !plan.kind().targets_writer() {
            return None;
        }
        match plan.fire()? {
            faults::FaultKind::TornWrite { at_byte } => {
                Some(snapshot::WriteCorruption::Torn { at_byte })
            }
            faults::FaultKind::BitFlip { offset } => {
                Some(snapshot::WriteCorruption::BitFlip { offset })
            }
            _ => None,
        }
    }

    #[cfg(not(feature = "faults"))]
    fn writer_corruption(&self) -> Option<snapshot::WriteCorruption> {
        None
    }

    /// Couples recorded so far (diagnostics).
    pub fn couples(&self) -> u64 {
        self.state.couples.load(Ordering::Relaxed)
    }

    /// Lattice candidates recorded so far (diagnostics).
    pub fn candidates(&self) -> u64 {
        self.state.candidates.load(Ordering::Relaxed)
    }

    /// Tracked memory in bytes right now (diagnostics).
    pub fn memory_bytes(&self) -> u64 {
        self.state.memory.load(Ordering::Relaxed)
    }

    /// The first trip reason, if the run is over budget.
    pub fn trip_reason(&self) -> Option<BudgetExceeded> {
        if !self.is_cancelled() {
            return None;
        }
        self.lock_trip().clone()
    }

    fn lock_trip(&self) -> std::sync::MutexGuard<'_, Option<BudgetExceeded>> {
        self.state
            .trip
            .lock()
            .expect("trip mutex poisoned (no code unwinds while holding it)")
    }

    /// Records a trip; the first reason wins and is returned either way.
    fn trip(&self, resource: Resource, stage: Option<Stage>, detail: String) -> BudgetExceeded {
        let mut guard = self.lock_trip();
        let reason = guard.get_or_insert(BudgetExceeded {
            resource,
            stage,
            detail,
        });
        let reason = reason.clone();
        drop(guard);
        self.state.cancelled.store(true, Ordering::Relaxed);
        reason
    }

    /// The stored trip reason, or a synthetic one when `cancelled` was
    /// observed before the reason was published (benign race).
    fn current_reason(&self, stage: Stage) -> BudgetExceeded {
        self.lock_trip().clone().unwrap_or(BudgetExceeded {
            resource: Resource::External,
            stage: Some(stage),
            detail: "run cancelled".to_string(),
        })
    }

    #[cfg(feature = "faults")]
    fn fault_hook(&self, stage: Stage) -> Result<(), BudgetExceeded> {
        let Some(plan) = &self.state.fault else {
            return Ok(());
        };
        // Writer-targeting plans fire in the snapshot write path, not at
        // checkpoints — consuming their ordinal here would disarm them
        // before the writer ever saw the fault.
        if plan.kind().targets_writer() {
            return Ok(());
        }
        match plan.fire() {
            Some(faults::FaultKind::Cancel) => Err(self.trip(
                Resource::InjectedFault,
                Some(stage),
                format!("injected cancellation at checkpoint {}", plan.at()),
            )),
            Some(faults::FaultKind::Panic) => {
                // Deliberate: the chaos tests assert the pool and the
                // pipelines survive a worker panicking mid-checkpoint.
                // lint: allow(no-panic)
                panic!(
                    "injected fault: worker panic at checkpoint {} (stage {stage})",
                    plan.at()
                );
            }
            Some(faults::FaultKind::MemoryExhaust) => Err(self.trip(
                Resource::Memory,
                Some(stage),
                format!("injected allocation exhaustion at checkpoint {}", plan.at()),
            )),
            // Unreachable: writer-targeting kinds early-return above.
            Some(faults::FaultKind::TornWrite { .. })
            | Some(faults::FaultKind::BitFlip { .. })
            | None => Ok(()),
        }
    }
}

/// A stage's account of how far it got, attached to a [`MiningOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Which stage this reports on.
    pub stage: Stage,
    /// `true` when the stage ran to completion; its claims are final.
    pub completed: bool,
    /// Units of work finished (couples, attributes, levels — the note
    /// says which).
    pub processed: u64,
    /// Total units planned, when known up front.
    pub planned: Option<u64>,
    /// Free-form context: the unit of `processed`, what is guaranteed,
    /// what is unverified.
    pub note: String,
    /// Wall time the stage spent before completing or being stopped,
    /// captured at the existing stage boundaries — so a `[PARTIAL]` run
    /// shows where the time went, not just what got done.
    pub elapsed: Duration,
}

impl fmt::Display for StageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = if self.completed {
            "complete"
        } else {
            "partial"
        };
        write!(f, "{}: {status}, {} processed", self.stage, self.processed)?;
        if let Some(planned) = self.planned {
            write!(f, " of {planned}")?;
        }
        if !self.note.is_empty() {
            write!(f, " ({})", self.note)?;
        }
        if !self.elapsed.is_zero() {
            write!(f, " [{:.3}s]", self.elapsed.as_secs_f64())?;
        }
        Ok(())
    }
}

/// A governed run's result: the (possibly partial) payload plus an
/// honest account of completeness.
///
/// The partial-result contract: when `interrupted` is `Some`, the
/// payload contains only work finished at clean boundaries — completed
/// levels, completed attributes, completed classes — and the stage
/// reports say exactly where mining stopped. Claims the payload makes
/// (e.g. "these FDs hold") remain true; claims it cannot make (e.g.
/// "this FD list is exhaustive/minimal") are withdrawn and flagged in
/// the reports.
#[derive(Debug, Clone)]
pub struct MiningOutcome<T> {
    /// The payload: complete when `interrupted` is `None`, otherwise the
    /// well-formed partial result.
    pub result: T,
    /// Why the run stopped early, or `None` for a complete run.
    pub interrupted: Option<BudgetExceeded>,
    /// Per-stage progress accounts, in pipeline order.
    pub stages: Vec<StageReport>,
}

impl<T> MiningOutcome<T> {
    /// Wraps a run that finished every stage.
    pub fn complete(result: T, stages: Vec<StageReport>) -> Self {
        MiningOutcome {
            result,
            interrupted: None,
            stages,
        }
    }

    /// Wraps a run a budget stopped early.
    pub fn partial(result: T, why: BudgetExceeded, stages: Vec<StageReport>) -> Self {
        MiningOutcome {
            result,
            interrupted: Some(why),
            stages,
        }
    }

    /// `true` when every stage ran to completion.
    pub fn is_complete(&self) -> bool {
        self.interrupted.is_none()
    }

    /// Maps the payload, keeping the completeness account.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> MiningOutcome<U> {
        MiningOutcome {
            result: f(self.result),
            interrupted: self.interrupted,
            stages: self.stages,
        }
    }

    /// Multi-line human-readable diagnostics (the CLI prints this on a
    /// budget-exhausted run).
    pub fn diagnostics(&self) -> String {
        let mut out = String::new();
        match &self.interrupted {
            None => out.push_str("run complete\n"),
            Some(why) => {
                out.push_str(&format!("run interrupted: {why}\n"));
            }
        }
        for report in &self.stages {
            out.push_str(&format!("  {report}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_token_never_trips() {
        let token = CancelToken::unlimited();
        assert!(!token.is_cancelled());
        for _ in 0..1000 {
            token.check(Stage::AgreeSets).unwrap();
        }
        token.add_couples(1 << 40, Stage::AgreeSets).unwrap();
        token.add_candidates(1 << 40, Stage::TaneLevels).unwrap();
        token
            .enter_level(usize::MAX - 1, Stage::TaneLevels)
            .unwrap();
        token.reserve_memory(1 << 50, Stage::AgreeSets).unwrap();
        assert!(token.trip_reason().is_none());
    }

    #[test]
    fn external_cancel_trips_every_clone() {
        let token = CancelToken::unlimited();
        let clone = token.clone();
        token.cancel();
        assert!(clone.is_cancelled());
        let err = clone.check(Stage::Transversals).unwrap_err();
        assert_eq!(err.resource, Resource::External);
    }

    #[test]
    fn deadline_trips_and_first_reason_wins() {
        let token = Budget::unlimited()
            .with_timeout(Duration::from_millis(0))
            .start();
        let err = token.check(Stage::TaneLevels).unwrap_err();
        assert_eq!(err.resource, Resource::Deadline);
        assert_eq!(err.stage, Some(Stage::TaneLevels));
        // A later external cancel does not overwrite the reason.
        token.cancel();
        let again = token.check(Stage::AgreeSets).unwrap_err();
        assert_eq!(again.resource, Resource::Deadline);
    }

    #[test]
    fn couple_budget_trips_at_the_limit() {
        let token = Budget::unlimited().with_max_couples(100).start();
        assert!(token.add_couples(60, Stage::AgreeSets).is_ok());
        assert!(token.add_couples(40, Stage::AgreeSets).is_ok());
        let err = token.add_couples(1, Stage::AgreeSets).unwrap_err();
        assert_eq!(err.resource, Resource::Couples);
        assert_eq!(token.couples(), 101);
    }

    #[test]
    fn level_and_candidate_budgets_trip() {
        let token = Budget::unlimited()
            .with_max_level(3)
            .with_max_candidates(10)
            .start();
        assert!(token.enter_level(3, Stage::TaneLevels).is_ok());
        let err = token.enter_level(4, Stage::TaneLevels).unwrap_err();
        assert_eq!(err.resource, Resource::LatticeLevel);
        // The token is now cancelled: a later candidate trip reports the
        // first reason, so diagnostics stay consistent.
        let err = token.add_candidates(11, Stage::TaneLevels).unwrap_err();
        assert_eq!(err.resource, Resource::LatticeLevel);
    }

    #[test]
    fn memory_budget_reserve_release() {
        let token = Budget::unlimited().with_max_memory_bytes(1000).start();
        assert!(token.reserve_memory(800, Stage::AgreeSets).is_ok());
        token.release_memory(500);
        assert_eq!(token.memory_bytes(), 300);
        assert!(token.reserve_memory(600, Stage::AgreeSets).is_ok());
        let err = token.reserve_memory(200, Stage::AgreeSets).unwrap_err();
        assert_eq!(err.resource, Resource::Memory);
        // The failed reservation was handed back, and so is one refused
        // by the tripped token although it would fit.
        assert_eq!(token.memory_bytes(), 900);
        assert!(token.reserve_memory(50, Stage::AgreeSets).is_err());
        assert_eq!(token.memory_bytes(), 900);
        // Release never underflows.
        token.release_memory(u64::MAX);
        assert_eq!(token.memory_bytes(), 0);
    }

    #[test]
    fn memory_would_trip_is_advisory_and_side_effect_free() {
        let token = Budget::unlimited().with_max_memory_bytes(1000).start();
        assert!(!token.memory_would_trip(1000));
        assert!(token.memory_would_trip(1001));
        // The query reserved nothing and did not cancel the token.
        assert_eq!(token.memory_bytes(), 0);
        assert!(!token.is_cancelled());
        token.reserve_memory(900, Stage::TaneLevels).unwrap();
        assert!(token.memory_would_trip(101));
        assert!(!token.memory_would_trip(100));
        // Unlimited budgets never report pressure, even at u64::MAX.
        let unlimited = Budget::unlimited().start();
        assert!(!unlimited.memory_would_trip(u64::MAX));
    }

    #[test]
    fn budget_builder_and_display() {
        let b = Budget::unlimited()
            .with_timeout(Duration::from_secs(5))
            .with_max_couples(10)
            .with_max_level(4)
            .with_max_candidates(100)
            .with_max_memory_bytes(1 << 20);
        assert!(!b.is_unlimited());
        assert!(Budget::unlimited().is_unlimited());
        assert!(Budget::default().is_unlimited());
        let err = BudgetExceeded {
            resource: Resource::Deadline,
            stage: Some(Stage::TaneLevels),
            detail: "t".into(),
        };
        assert_eq!(
            err.to_string(),
            "wall-clock deadline exceeded in tane-levels: t"
        );
        let no_stage = BudgetExceeded {
            resource: Resource::External,
            stage: None,
            detail: "d".into(),
        };
        assert_eq!(no_stage.to_string(), "external cancellation exceeded: d");
    }

    #[test]
    fn observed_token_feeds_counters_and_memory() {
        use observe::profile::ProfileSink;
        let sink = std::sync::Arc::new(ProfileSink::new());
        let token = Budget::unlimited().start_observed(Obs::new(sink.clone()));
        assert!(token.observer().enabled());
        token.add_couples(11, Stage::AgreeSets).unwrap();
        token.add_candidates(4, Stage::TaneLevels).unwrap();
        token.reserve_memory(300, Stage::AgreeSets).unwrap();
        token.release_memory(300);
        token.reserve_memory(120, Stage::MaxSets).unwrap();
        let p = sink.snapshot();
        assert_eq!(p.counter("couples_scanned"), 11);
        assert_eq!(p.counter("apriori_candidates"), 4);
        assert_eq!(p.mem_high_water, 300, "high-water survives release");
        // The plain entry points stay unobserved.
        assert!(!CancelToken::unlimited().observer().enabled());
    }

    #[test]
    fn resume_from_carries_spend_accounting() {
        let st = SnapshotState {
            couples: 95,
            candidates: 7,
        };
        let token = Budget::unlimited()
            .with_max_couples(100)
            .resume_from(st)
            .start();
        assert_eq!(token.couples(), 95);
        assert_eq!(token.candidates(), 7);
        // The cap covers the whole logical run: 95 carried + 5 fresh is
        // at the limit, one more trips.
        assert!(token.add_couples(5, Stage::AgreeSets).is_ok());
        let err = token.add_couples(1, Stage::AgreeSets).unwrap_err();
        assert_eq!(err.resource, Resource::Couples);
    }

    #[test]
    fn token_without_policy_ignores_snapshot_calls() {
        let token = CancelToken::unlimited();
        assert!(!token.snapshots_armed());
        let snap = Snapshot {
            algo: "tane".into(),
            schema_hash: 1,
            config: Vec::new(),
            payload: Vec::new(),
        };
        assert!(!token.offer_snapshot(&snap));
        assert!(!token.force_snapshot(&snap));
        assert!(!token.flush_snapshot());
        token.discard_snapshot("tane");
    }

    #[test]
    fn token_snapshot_offer_flush_discard_cycle() {
        let dir = std::env::temp_dir().join(format!("depminer-govern-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let token = Budget::unlimited().start_with_snapshots(SnapshotPolicy::new(&dir));
        assert!(token.snapshots_armed());
        let snap = Snapshot {
            algo: "tane".into(),
            schema_hash: 9,
            config: vec![1],
            payload: vec![2, 3],
        };
        // Trip-only policy: offers retain, flush persists.
        assert!(!token.offer_snapshot(&snap));
        assert!(token.flush_snapshot());
        let path = token.snapshot_policy().unwrap().path_for("tane");
        let read = snapshot::read_snapshot(&path).unwrap();
        assert_eq!(read, snap);
        // Forced writes bypass the due check; discard removes the file.
        assert!(token.force_snapshot(&snap));
        token.discard_snapshot("tane");
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_wrapping_and_diagnostics() {
        let stages = vec![
            StageReport {
                stage: Stage::AgreeSets,
                completed: true,
                processed: 42,
                planned: Some(42),
                note: "couples".into(),
                elapsed: Duration::ZERO,
            },
            StageReport {
                stage: Stage::Transversals,
                completed: false,
                processed: 3,
                planned: Some(10),
                note: "attributes; FDs for unprocessed rhs attributes are missing".into(),
                elapsed: Duration::from_millis(1500),
            },
        ];
        let why = BudgetExceeded {
            resource: Resource::Deadline,
            stage: Some(Stage::Transversals),
            detail: "wall-clock deadline passed".into(),
        };
        let outcome = MiningOutcome::partial(7u32, why, stages);
        assert!(!outcome.is_complete());
        let text = outcome.diagnostics();
        assert!(text.contains("run interrupted"), "{text}");
        assert!(
            text.contains("agree-sets: complete, 42 processed of 42"),
            "{text}"
        );
        assert!(
            text.contains("transversals: partial, 3 processed of 10"),
            "{text}"
        );
        // Per-stage elapsed time is printed when captured, omitted when
        // zero (hand-built reports in tests).
        assert!(text.contains("[1.500s]"), "{text}");
        assert!(!text.contains("[0.000s]"), "{text}");
        let mapped = outcome.map(|v| v + 1);
        assert_eq!(mapped.result, 8);
        assert!(!mapped.is_complete());

        let done = MiningOutcome::complete(1u8, Vec::new());
        assert!(done.is_complete());
        assert!(done.diagnostics().contains("run complete"));
    }
}
