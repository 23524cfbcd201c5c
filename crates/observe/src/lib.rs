//! # depminer-observe
//!
//! Zero-external-dependency observability for the mining pipelines:
//! hierarchical **spans**, atomic **counters**, and **memory high-water**
//! sampling, all reachable through one cheap handle ([`Obs`]) that rides
//! the `govern` checkpoint sites — instrumentation and budgets share one
//! hook, so a stage that is governed is automatically observable.
//!
//! Three sinks implement the [`Observer`] trait:
//!
//! * [`NullSink`] — every event short-circuits before a clock read; the
//!   default [`Obs::none`] handle costs one branch per call site.
//!   `BENCH_overhead.json` measures the sink against a <1% overhead
//!   target (its `null_observer` overhead).
//! * [`profile::ProfileSink`] — an in-memory span tree aggregating calls
//!   by name under their parent, with per-node call counts, total time,
//!   and distinct-thread counts. Snapshots export to JSON
//!   (`depminer --profile out.json`) and validate against the span-tree
//!   invariants.
//! * [`jsonl::JsonlSink`] — a flat JSONL event stream (`enter`/`exit`/
//!   `count`/`mem` records with nanosecond timestamps), for `--trace`
//!   and offline analysis.
//!
//! Spans are **thread-aware**: each `crates/parallel` fan-out tags its
//! scoped workers via [`set_worker_tag`] and marks the chunks the calling
//! thread takes itself via [`enter_pool_task`]. A task span whose own
//! stack is empty attaches under the innermost span the driver opened
//! outside a task, so fan-out stages aggregate under the stage that
//! spawned them.
//!
//! Span naming scheme (see DESIGN.md §10): top-level spans carry the
//! algorithm name (`depminer`, `tane`, `approx`), stage spans reuse the
//! stable `govern::Stage` names (`agree-sets`, `max-sets`,
//! `transversals`, …), and sub-phases append a `/detail` segment
//! (`agree-sets/couples`, `tane-levels/products`).

#![warn(missing_docs)]

pub mod json;
pub mod jsonl;
pub mod profile;

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of one span instance. Allocated from a process-global
/// counter, never reused, so JSONL `enter`/`exit` records pair up even
/// when several observers run concurrently.
pub type SpanId = u64;

/// Which kind of thread an event came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadTag {
    /// A driver thread: anything that is not a fan-out worker.
    Driver,
    /// Scoped worker `i` of a `crates/parallel` fan-out. Every fan-out
    /// numbers its workers from 0 again.
    Worker(u32),
}

impl ThreadTag {
    /// Stable short label: `driver`, `w0`, `w1`, …
    pub fn label(self) -> String {
        match self {
            ThreadTag::Driver => "driver".to_string(),
            ThreadTag::Worker(i) => format!("w{i}"),
        }
    }
}

thread_local! {
    static THREAD_TAG: Cell<ThreadTag> = const { Cell::new(ThreadTag::Driver) };
    static THREAD_KEY: Cell<u32> = const { Cell::new(u32::MAX) };
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

static NEXT_THREAD_KEY: AtomicU32 = AtomicU32::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Tags the current thread as fan-out worker `index`. Called by each
/// scoped worker of `crates/parallel` when it starts; every span or
/// counter recorded from that thread then carries the tag.
pub fn set_worker_tag(index: u32) {
    THREAD_TAG.with(|t| t.set(ThreadTag::Worker(index)));
}

/// Marks the current thread as running a pool task until the returned
/// guard drops. `crates/parallel` holds one on the calling thread while
/// it takes its own share of a fan-out's chunks, so a worker's first
/// span attaches to the stage, not to a chunk span the caller has open.
/// Workers run nothing but tasks and need no guard.
pub fn enter_pool_task() -> PoolTask {
    PoolTask {
        was: IN_POOL_TASK.with(|c| c.replace(true)),
    }
}

/// Guard returned by [`enter_pool_task`]; restores the previous state.
#[must_use = "the thread counts as running a pool task only while the guard lives"]
pub struct PoolTask {
    was: bool,
}

impl Drop for PoolTask {
    fn drop(&mut self) {
        IN_POOL_TASK.with(|c| c.set(self.was));
    }
}

/// `true` while the current thread runs a pool task: always on a
/// fan-out worker, and inside [`enter_pool_task`] on any other thread.
pub(crate) fn in_pool_task() -> bool {
    matches!(current_thread_tag(), ThreadTag::Worker(_)) || IN_POOL_TASK.with(Cell::get)
}

/// The current thread's tag ([`ThreadTag::Driver`] unless
/// [`set_worker_tag`] ran on this thread).
pub fn current_thread_tag() -> ThreadTag {
    THREAD_TAG.with(|t| t.get())
}

/// A small process-unique key for the current OS thread. The profile
/// sink keys its per-thread span stacks on this (thread IDs from `std`
/// are opaque; this is a dense `u32`).
pub fn current_thread_key() -> u32 {
    THREAD_KEY.with(|k| {
        let v = k.get();
        if v != u32::MAX {
            return v;
        }
        let fresh = NEXT_THREAD_KEY.fetch_add(1, Ordering::Relaxed);
        k.set(fresh);
        fresh
    })
}

/// The pipeline quantities worth counting, one atomic slot each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Agree-set couples scanned (Dep-Miner algorithms 2/3). Fed by
    /// `CancelToken::add_couples`.
    CouplesScanned,
    /// Stripped-partition products computed (TANE's lattice walk, the
    /// approximate-FD search).
    PartitionProducts,
    /// Apriori-gen lattice candidates generated (TANE levels, levelwise
    /// transversals, Berge extensions). Fed by
    /// `CancelToken::add_candidates`.
    AprioriCandidates,
    /// Maximal sets filed by the maxset stage: `Σ_A |max(dep(r), A)|`,
    /// the size of FDEP's negative cover.
    MaxSetsFiled,
    /// Minimal FDs emitted across all miners.
    FdEmissions,
    /// High-water bytes held by `PartitionArena` scratch + recycling
    /// pools (flat partition products). Reported as monotone deltas, so
    /// the exported value is the peak.
    ArenaHighWaterBytes,
    /// Partitions evicted early from TANE's memory-bounded level cache
    /// because a `govern` memory cap would otherwise trip.
    PartitionCacheEvictions,
    /// Checkpoint snapshot frames persisted by the `govern` snapshot
    /// policy (due boundary writes, forced writes, and on-trip flushes).
    SnapshotsWritten,
    /// Lattice levels / stages / rhs attributes a resumed run
    /// skipped because a snapshot already covered them.
    ResumeLevelsSkipped,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 9] = [
        Counter::CouplesScanned,
        Counter::PartitionProducts,
        Counter::AprioriCandidates,
        Counter::MaxSetsFiled,
        Counter::FdEmissions,
        Counter::ArenaHighWaterBytes,
        Counter::PartitionCacheEvictions,
        Counter::SnapshotsWritten,
        Counter::ResumeLevelsSkipped,
    ];

    /// Number of counters (sizing arrays of atomic slots).
    pub const COUNT: usize = Counter::ALL.len();

    /// Stable snake_case name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CouplesScanned => "couples_scanned",
            Counter::PartitionProducts => "partition_products",
            Counter::AprioriCandidates => "apriori_candidates",
            Counter::MaxSetsFiled => "max_sets_filed",
            Counter::FdEmissions => "fd_emissions",
            Counter::ArenaHighWaterBytes => "arena_high_water_bytes",
            Counter::PartitionCacheEvictions => "partition_cache_evictions",
            Counter::SnapshotsWritten => "snapshots_written",
            Counter::ResumeLevelsSkipped => "resume_levels_skipped",
        }
    }

    /// Dense index into counter arrays.
    pub fn index(self) -> usize {
        match self {
            Counter::CouplesScanned => 0,
            Counter::PartitionProducts => 1,
            Counter::AprioriCandidates => 2,
            Counter::MaxSetsFiled => 3,
            Counter::FdEmissions => 4,
            Counter::ArenaHighWaterBytes => 5,
            Counter::PartitionCacheEvictions => 6,
            Counter::SnapshotsWritten => 7,
            Counter::ResumeLevelsSkipped => 8,
        }
    }
}

/// An event sink. Implementations must be cheap and thread-safe: spans
/// and counters arrive concurrently from the driver and every fan-out
/// worker.
///
/// Span IDs are allocated by the [`Obs`] handle (not the sink), so one
/// guard can fan out to several sinks with consistent pairing.
pub trait Observer: Send + Sync {
    /// `false` for sinks that want the handle to short-circuit before
    /// reading the clock or allocating an ID (the null sink).
    fn is_enabled(&self) -> bool {
        true
    }

    /// A span opened (`name` per the naming scheme, `thread` the tag of
    /// the opening thread).
    fn span_enter(&self, id: SpanId, name: &'static str, thread: ThreadTag);

    /// The span closed, on the same thread that opened it (guards are
    /// dropped where they were created).
    fn span_exit(&self, id: SpanId, thread: ThreadTag);

    /// `n` added to `counter`.
    fn add_counter(&self, counter: Counter, n: u64, thread: ThreadTag);

    /// The tracked working-set size is currently `current_bytes`; sinks
    /// keep the high-water mark.
    fn mem_sample(&self, current_bytes: u64);
}

/// The sink that records nothing. [`Observer::is_enabled`] is `false`,
/// so the [`Obs`] handle short-circuits every event before a clock read
/// — attaching this sink measures the pure plumbing overhead (the
/// `overhead` bench's `null_observer` configuration).
#[derive(Debug, Default)]
pub struct NullSink;

impl Observer for NullSink {
    fn is_enabled(&self) -> bool {
        false
    }
    fn span_enter(&self, _id: SpanId, _name: &'static str, _thread: ThreadTag) {}
    fn span_exit(&self, _id: SpanId, _thread: ThreadTag) {}
    fn add_counter(&self, _counter: Counter, _n: u64, _thread: ThreadTag) {}
    fn mem_sample(&self, _current_bytes: u64) {}
}

/// Forwards every event to each inner sink (`--profile` and `--trace`
/// together). Enabled iff any inner sink is.
pub struct Fanout {
    sinks: Vec<Arc<dyn Observer>>,
}

impl Fanout {
    /// Wraps the given sinks.
    pub fn new(sinks: Vec<Arc<dyn Observer>>) -> Self {
        Fanout { sinks }
    }
}

impl Observer for Fanout {
    fn is_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.is_enabled())
    }
    fn span_enter(&self, id: SpanId, name: &'static str, thread: ThreadTag) {
        for s in &self.sinks {
            s.span_enter(id, name, thread);
        }
    }
    fn span_exit(&self, id: SpanId, thread: ThreadTag) {
        for s in &self.sinks {
            s.span_exit(id, thread);
        }
    }
    fn add_counter(&self, counter: Counter, n: u64, thread: ThreadTag) {
        for s in &self.sinks {
            s.add_counter(counter, n, thread);
        }
    }
    fn mem_sample(&self, current_bytes: u64) {
        for s in &self.sinks {
            s.mem_sample(current_bytes);
        }
    }
}

/// The handle stage code holds (via `CancelToken::observer`). Cloning
/// is cheap; the default/[`Obs::none`] handle makes every call a single
/// branch, which is what keeps ungoverned and unprofiled runs at the
/// uninstrumented cost.
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn Observer>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("attached", &self.sink.is_some())
            .finish()
    }
}

impl Obs {
    /// The disabled handle: every event is a no-op after one branch.
    pub fn none() -> Self {
        Obs { sink: None }
    }

    /// A handle delivering to `sink`.
    pub fn new(sink: Arc<dyn Observer>) -> Self {
        Obs { sink: Some(sink) }
    }

    /// `true` when events actually reach a recording sink.
    pub fn enabled(&self) -> bool {
        matches!(&self.sink, Some(s) if s.is_enabled())
    }

    /// Opens a span; it closes when the returned guard drops (including
    /// during unwinding, so trees stay balanced across budget trips and
    /// injected panics). Names must follow the naming scheme in the
    /// crate docs.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.sink {
            Some(sink) if sink.is_enabled() => {
                let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
                sink.span_enter(id, name, current_thread_tag());
                SpanGuard {
                    active: Some((Arc::clone(sink), id)),
                }
            }
            _ => SpanGuard { active: None },
        }
    }

    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(sink) = &self.sink {
            if sink.is_enabled() {
                sink.add_counter(counter, n, current_thread_tag());
            }
        }
    }

    /// Reports the current tracked working-set size (sinks keep the
    /// high-water mark). Fed by `CancelToken::reserve_memory`.
    pub fn mem_sample(&self, current_bytes: u64) {
        if let Some(sink) = &self.sink {
            if sink.is_enabled() {
                sink.mem_sample(current_bytes);
            }
        }
    }
}

/// Closes its span on drop. Guards are intended to be dropped on the
/// thread that created them (stage code holds them across one scope).
pub struct SpanGuard {
    active: Option<(Arc<dyn Observer>, SpanId)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((sink, id)) = self.active.take() {
            sink.span_exit(id, current_thread_tag());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Records raw events for assertions.
    #[derive(Default)]
    struct Recording {
        events: Mutex<Vec<String>>,
    }

    impl Observer for Recording {
        fn span_enter(&self, id: SpanId, name: &'static str, thread: ThreadTag) {
            self.events
                .lock()
                .unwrap()
                .push(format!("enter {id} {name} {}", thread.label()));
        }
        fn span_exit(&self, id: SpanId, thread: ThreadTag) {
            self.events
                .lock()
                .unwrap()
                .push(format!("exit {id} {}", thread.label()));
        }
        fn add_counter(&self, counter: Counter, n: u64, _thread: ThreadTag) {
            self.events
                .lock()
                .unwrap()
                .push(format!("count {} {n}", counter.name()));
        }
        fn mem_sample(&self, current_bytes: u64) {
            self.events
                .lock()
                .unwrap()
                .push(format!("mem {current_bytes}"));
        }
    }

    #[test]
    fn none_handle_is_inert() {
        let obs = Obs::none();
        assert!(!obs.enabled());
        let g = obs.span("x");
        obs.add(Counter::CouplesScanned, 5);
        obs.mem_sample(100);
        drop(g);
    }

    #[test]
    fn null_sink_short_circuits() {
        let obs = Obs::new(Arc::new(NullSink));
        assert!(!obs.enabled());
        let g = obs.span("x");
        assert!(g.active.is_none(), "null sink must not allocate span ids");
    }

    #[test]
    fn spans_pair_and_nest_via_drop_order() {
        let rec = Arc::new(Recording::default());
        let obs = Obs::new(rec.clone());
        assert!(obs.enabled());
        {
            let _a = obs.span("outer");
            let _b = obs.span("inner");
        }
        obs.add(Counter::FdEmissions, 3);
        let ev = rec.events.lock().unwrap();
        assert_eq!(ev.len(), 5);
        assert!(ev[0].starts_with("enter") && ev[0].contains("outer"));
        assert!(ev[1].starts_with("enter") && ev[1].contains("inner"));
        // Guards drop inner-first.
        let inner_id: &str = ev[1].split_whitespace().nth(1).unwrap();
        assert_eq!(ev[2], format!("exit {inner_id} driver"));
        assert!(ev[3].starts_with("exit"));
        assert_eq!(ev[4], "count fd_emissions 3");
    }

    #[test]
    fn guard_closes_during_unwind() {
        let rec = Arc::new(Recording::default());
        let obs = Obs::new(rec.clone());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = obs.span("doomed");
            panic!("injected");
        }));
        assert!(result.is_err());
        let ev = rec.events.lock().unwrap();
        assert_eq!(ev.len(), 2);
        assert!(ev[1].starts_with("exit"));
    }

    #[test]
    fn fanout_forwards_to_all() {
        let a = Arc::new(Recording::default());
        let b = Arc::new(Recording::default());
        let obs = Obs::new(Arc::new(Fanout::new(vec![a.clone(), b.clone()])));
        {
            let _g = obs.span("s");
        }
        obs.mem_sample(7);
        assert_eq!(a.events.lock().unwrap().len(), 3);
        assert_eq!(b.events.lock().unwrap().len(), 3);
    }

    #[test]
    fn fanout_of_null_sinks_is_disabled() {
        let obs = Obs::new(Arc::new(Fanout::new(vec![Arc::new(NullSink)])));
        assert!(!obs.enabled());
    }

    #[test]
    fn thread_tags_and_keys() {
        assert_eq!(current_thread_tag(), ThreadTag::Driver);
        let k1 = current_thread_key();
        assert_eq!(k1, current_thread_key(), "key is sticky per thread");
        let handle = std::thread::spawn(|| {
            set_worker_tag(3);
            (current_thread_tag(), current_thread_key())
        });
        let (tag, k2) = handle.join().unwrap();
        assert_eq!(tag, ThreadTag::Worker(3));
        assert_ne!(k1, k2);
        assert!(!in_pool_task());
        {
            let _outer = enter_pool_task();
            {
                let _inner = enter_pool_task();
                assert!(in_pool_task());
            }
            assert!(in_pool_task(), "nested guard restores, not clears");
        }
        assert!(!in_pool_task());
        assert!(std::thread::spawn(|| {
            set_worker_tag(0);
            in_pool_task()
        })
        .join()
        .unwrap());
        assert_eq!(ThreadTag::Worker(3).label(), "w3");
        assert_eq!(ThreadTag::Driver.label(), "driver");
    }

    #[test]
    fn counter_names_are_stable_and_indexed() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
        assert_eq!(Counter::COUNT, 9);
    }
}
