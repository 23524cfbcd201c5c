//! # depminer-parallel
//!
//! A dependency-free scoped fan-out for the Dep-Miner hot path. The
//! workspace must build with zero network access, so this crate builds
//! on `std::thread::scope` what `rayon` would otherwise provide:
//!
//! * data-parallel helpers — [`par_map`], [`par_map_indexed`],
//!   [`par_chunks`] — with **deterministic result ordering**: outputs are
//!   always in input order, no matter which thread ran which chunk;
//! * the [`Parallelism`] knob every mining entry point exposes, with a
//!   `DEPMINER_THREADS` environment override (`0` or `1` force the
//!   sequential fallback, so debug invariant audits and tests stay
//!   reproducible under a single-threaded run).
//!
//! Each fan-out is one `std::thread::scope`: the calling thread and up
//! to `threads − 1` scoped workers take chunks from one shared index,
//! and the scope joins every worker before the helper returns. No thread
//! outlives its fan-out or runs another run's chunks, and the borrow
//! checker proves that closures never outlive what they borrow.
//!
//! Determinism contract: for a pure `f`, every helper in this crate
//! returns bit-identical results at any thread count, because work is
//! split into chunks at deterministic boundaries and results are written
//! into per-chunk slots indexed by input position. Parallel and
//! sequential runs of the miners are asserted equal by the
//! `parallel_equivalence` property tests.
//!
//! Governance: the `_governed` variants ([`par_map_governed`],
//! [`par_map_indexed_governed`], [`par_chunks_governed`]) thread a
//! [`CancelToken`] through the fan-out. Threads observe the token at two
//! points — a chunk checks it before doing any work (so a cancelled run
//! drains its backlog as cheap no-ops), and the per-item map polls it
//! every [`GOVERN_POLL_STRIDE`] items (so an in-flight chunk is
//! abandoned promptly instead of finished). On a trip the helper
//! returns the budget error; per-item closures may also fail with their
//! own checkpoint errors, which cancel the token for every sibling chunk
//! automatically (all budget errors originate from the shared token).

use depminer_govern::{BudgetExceeded, CancelToken, Stage};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// How many chunks to cut per participating thread: a little
/// oversubscription lets the shared chunk index balance uneven chunk
/// costs without shredding cache locality.
const CHUNKS_PER_THREAD: usize = 4;

/// Thread-count knob carried by the mining entry points.
///
/// `Auto` (the default) resolves to the `DEPMINER_THREADS` environment
/// variable when set, and to [`std::thread::available_parallelism`]
/// otherwise. An explicit [`Parallelism::Threads`] is a programmatic
/// choice and ignores the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// `DEPMINER_THREADS` if set, else all available cores.
    #[default]
    Auto,
    /// Single-threaded: run everything on the calling thread. Identical
    /// output to any parallel configuration, useful for debugging and
    /// reproducing invariant-audit failures.
    Sequential,
    /// Exactly this many threads (the calling thread counts as one).
    /// `0` and `1` mean sequential.
    Threads(usize),
}

/// Hard cap on the resolved thread count; far above any sane setting,
/// it only guards against `DEPMINER_THREADS=999999` typos.
const MAX_THREADS: usize = 256;

fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        if let Ok(raw) = std::env::var("DEPMINER_THREADS") {
            if let Ok(n) = raw.trim().parse::<usize>() {
                return n.clamp(1, MAX_THREADS);
            }
            // Unparseable values fall through to core detection rather
            // than silently serializing the whole run.
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS)
    })
}

impl Parallelism {
    /// The number of threads this setting resolves to (always ≥ 1; `1`
    /// means the sequential fallback).
    pub fn effective_threads(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.clamp(1, MAX_THREADS),
            Parallelism::Auto => auto_threads(),
        }
    }

    /// `true` when this setting runs on the calling thread only.
    pub fn is_sequential(self) -> bool {
        self.effective_threads() <= 1
    }
}

/// Maps `f` over `items` in parallel, returning results **in input
/// order**. Falls back to a plain sequential map when `par` resolves to
/// one thread or the input is tiny.
///
/// A panic in `f` is re-raised on the calling thread with its own
/// payload, once every scoped worker has joined.
///
/// `f` is bound `Fn + Sync` because chunks run on several threads at
/// once, so rustc rejects a closure that mutates what it captures. A
/// captured assignment does not compile:
///
/// ```compile_fail
/// use depminer_parallel::{par_map, Parallelism};
/// let items = [1u32, 2, 3];
/// let mut total = 0u32;
/// par_map(Parallelism::Threads(2), &items, |&x| {
///     total += x;
///     x
/// });
/// ```
///
/// nor does a `&mut` borrow of a capture:
///
/// ```compile_fail
/// use depminer_parallel::{par_map, Parallelism};
/// let items = [1u32, 2, 3];
/// let mut seen: Vec<u32> = Vec::new();
/// par_map(Parallelism::Threads(2), &items, |&x| {
///     (&mut seen).push(x);
///     x
/// });
/// ```
///
/// nor a captured `Cell`, which is not `Sync`:
///
/// ```compile_fail
/// use depminer_parallel::{par_map, Parallelism};
/// use std::cell::Cell;
/// let items = [1u32, 2, 3];
/// let hits = Cell::new(0u32);
/// par_map(Parallelism::Threads(2), &items, |&x| {
///     hits.set(hits.get() + 1);
///     x
/// });
/// ```
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = par.effective_threads();
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk_size = items.len().div_ceil(threads * CHUNKS_PER_THREAD).max(1);
    let nested: Vec<Vec<R>> = run_chunked(threads, items, chunk_size, |chunk| {
        chunk.iter().map(&f).collect()
    });
    nested.into_iter().flatten().collect()
}

/// Maps `f` over the index range `0..n` in parallel; results are in index
/// order. Convenient for per-attribute fan-out where the closure indexes
/// shared state directly.
pub fn par_map_indexed<R, F>(par: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map(par, &indices, |&i| f(i))
}

/// Applies `f` to consecutive chunks of `items` of length `chunk_size`
/// (the last chunk may be shorter), in parallel, returning one result per
/// chunk **in chunk order**. This is the primitive for thread-local
/// accumulators: each invocation of `f` owns its chunk and builds a local
/// result; the caller merges the returned vector deterministically.
pub fn par_chunks<T, R, F>(par: Parallelism, items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let chunk_size = chunk_size.max(1);
    let threads = par.effective_threads();
    if threads <= 1 || items.len() <= chunk_size {
        return items.chunks(chunk_size).map(|c| f(c)).collect();
    }
    run_chunked(threads, items, chunk_size, f)
}

/// Shared chunked executor: cut `items` at deterministic boundaries and
/// [`fan_out`] the chunks, so that the calling thread and
/// `min(threads, chunks) − 1` scoped workers take chunks from one shared
/// index; each result lands in the slot of its chunk.
fn run_chunked<T, R, F>(threads: usize, items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    // One slot per chunk, indexed by chunk position — this is what makes
    // result order deterministic. `Mutex<Option<R>>` (rather than
    // `OnceLock`) keeps the bound at `R: Send`; each slot is written
    // exactly once, so the lock is never contended.
    let slots: Vec<Mutex<Option<R>>> = chunks.iter().map(|_| Mutex::new(None)).collect();
    // `Relaxed` suffices: the index only hands out chunk numbers, and the
    // joins publish every slot write to the calling thread.
    let next = AtomicUsize::new(0);
    let take_chunks = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&chunk) = chunks.get(i) else { break };
        let value = f(chunk);
        *slots[i]
            .lock()
            .expect("chunk slot mutex poisoned (the writer cannot unwind mid-store)") = Some(value);
    };
    fan_out(threads.min(chunks.len()).saturating_sub(1), &take_chunks);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("chunk slot mutex poisoned (the writer cannot unwind mid-store)")
                .expect("scope joined, so every chunk has run")
        })
        .collect()
}

/// Runs `work` on the calling thread and on `workers` scoped threads at
/// once, and returns when every one of them has finished; a worker's
/// panic is re-raised with its own payload, not std's generic "a scoped
/// thread panicked". `work` is a trait object so that the thread
/// machinery is compiled once, not once per `par_*` instantiation.
#[expect(
    clippy::disallowed_methods,
    reason = "this crate is the one place that starts threads"
)]
fn fan_out(workers: usize, work: &(dyn Fn() + Sync)) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    depminer_observe::set_worker_tag(w as u32);
                    work();
                })
            })
            .collect();
        {
            // The caller's own chunks are tasks too: their spans must
            // attach where a worker's would, not become the innermost
            // driver span that workers' first spans hang under.
            let _task = depminer_observe::enter_pool_task();
            work();
        }
        for handle in handles {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    });
}

/// How often the governed per-item loops poll the token: one relaxed
/// load every this many items. Coarse enough to be free, fine enough
/// that a cancelled run abandons an in-flight chunk within a few items.
pub const GOVERN_POLL_STRIDE: usize = 64;

/// [`par_map`] with cooperative cancellation: maps a fallible `f` over
/// `items`, polling `token` so a tripped budget stops the fan-out
/// promptly. Returns results in input order, or the first (leftmost)
/// budget error.
///
/// Cancellation semantics: a queued chunk that starts after the trip
/// does no work; an in-flight chunk stops within [`GOVERN_POLL_STRIDE`]
/// items. Any `Err` from `f` is a trip of the shared token, so one
/// failing chunk drains all its siblings.
pub fn par_map_governed<T, R, F>(
    par: Parallelism,
    token: &CancelToken,
    stage: Stage,
    items: &[T],
    f: F,
) -> Result<Vec<R>, BudgetExceeded>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, BudgetExceeded> + Sync,
{
    let map_chunk = |chunk: &[T]| -> Result<Vec<R>, BudgetExceeded> {
        // Queued-chunk drain: a cancelled run turns its backlog into
        // no-ops before any real work starts.
        token.check(stage)?;
        let mut out = Vec::with_capacity(chunk.len());
        for (i, item) in chunk.iter().enumerate() {
            if i % GOVERN_POLL_STRIDE == GOVERN_POLL_STRIDE - 1 {
                // In-flight drain: abandon a long chunk mid-way.
                token.check(stage)?;
            }
            out.push(f(item)?);
        }
        Ok(out)
    };
    let threads = par.effective_threads();
    if threads <= 1 || items.len() <= 1 {
        return map_chunk(items);
    }
    let chunk_size = items.len().div_ceil(threads * CHUNKS_PER_THREAD).max(1);
    let nested = run_chunked(threads, items, chunk_size, map_chunk);
    let mut out = Vec::with_capacity(items.len());
    for chunk in nested {
        out.extend(chunk?);
    }
    Ok(out)
}

/// [`par_map_indexed`] with cooperative cancellation; see
/// [`par_map_governed`].
pub fn par_map_indexed_governed<R, F>(
    par: Parallelism,
    token: &CancelToken,
    stage: Stage,
    n: usize,
    f: F,
) -> Result<Vec<R>, BudgetExceeded>
where
    R: Send,
    F: Fn(usize) -> Result<R, BudgetExceeded> + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map_governed(par, token, stage, &indices, |&i| f(i))
}

/// [`par_chunks`] with cooperative cancellation: each chunk closure runs
/// behind a token check (queued-chunk drain) and returns its own
/// `Result`; in-flight draining inside a chunk is the closure's job
/// (poll the token in its loops). The first (leftmost) error wins.
pub fn par_chunks_governed<T, R, F>(
    par: Parallelism,
    token: &CancelToken,
    stage: Stage,
    items: &[T],
    chunk_size: usize,
    f: F,
) -> Result<Vec<R>, BudgetExceeded>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Result<R, BudgetExceeded> + Sync,
{
    let run_one = |chunk: &[T]| -> Result<R, BudgetExceeded> {
        token.check(stage)?;
        f(chunk)
    };
    let chunk_size = chunk_size.max(1);
    let threads = par.effective_threads();
    if threads <= 1 || items.len() <= chunk_size {
        return items.chunks(chunk_size).map(run_one).collect();
    }
    run_chunked(threads, items, chunk_size, run_one)
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::Sequential.effective_threads(), 1);
        assert!(Parallelism::Sequential.is_sequential());
        assert_eq!(Parallelism::Threads(0).effective_threads(), 1);
        assert_eq!(Parallelism::Threads(1).effective_threads(), 1);
        assert_eq!(Parallelism::Threads(6).effective_threads(), 6);
        assert_eq!(Parallelism::Threads(usize::MAX).effective_threads(), 256);
        assert!(Parallelism::Auto.effective_threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for par in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Threads(8),
        ] {
            assert_eq!(par_map(par, &items, |&x| x * x), expected, "{par:?}");
        }
    }

    #[test]
    fn par_map_indexed_matches_range_map() {
        let expected: Vec<usize> = (0..1000).map(|i| i * 3 + 1).collect();
        assert_eq!(
            par_map_indexed(Parallelism::Threads(4), 1000, |i| i * 3 + 1),
            expected
        );
        assert!(par_map_indexed(Parallelism::Threads(4), 0, |i| i).is_empty());
    }

    #[test]
    fn par_chunks_chunking_is_deterministic() {
        let items: Vec<u32> = (0..103).collect();
        for par in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let sums = par_chunks(par, &items, 10, |c| c.iter().sum::<u32>());
            assert_eq!(sums.len(), 11, "{par:?}");
            let expected: Vec<u32> = items.chunks(10).map(|c| c.iter().sum()).collect();
            assert_eq!(sums, expected, "{par:?}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(Parallelism::Threads(4), &empty, |&x| x).is_empty());
        assert!(par_chunks(Parallelism::Threads(4), &empty, 8, |c| c.len()).is_empty());
        assert_eq!(par_map(Parallelism::Threads(4), &[7u32], |&x| x + 1), [8]);
        assert_eq!(
            par_chunks(Parallelism::Threads(4), &[7u32], 8, |c| c.len()),
            [1]
        );
    }

    #[test]
    fn par_map_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        let payload = std::panic::catch_unwind(|| {
            par_map(Parallelism::Threads(4), &items, |&x| {
                assert!(x != 57, "x hit the poison value");
                x
            })
        })
        .expect_err("the panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("x hit the poison value")
        );
    }

    #[test]
    fn nested_par_map() {
        let outer: Vec<u32> = (0..8).collect();
        let result = par_map(Parallelism::Threads(4), &outer, |&i| {
            let inner: Vec<u32> = (0..64).collect();
            par_map(Parallelism::Threads(4), &inner, |&j| i * 1000 + j)
                .into_iter()
                .sum::<u32>()
        });
        let expected: Vec<u32> = (0..8)
            .map(|i| (0..64).map(|j| i * 1000 + j).sum())
            .collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn governed_map_matches_ungoverned_when_unlimited() {
        let items: Vec<u64> = (0..5000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        let token = CancelToken::unlimited();
        for par in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let got = par_map_governed(par, &token, Stage::AgreeSets, &items, |&x| Ok(x * 3))
                .expect("unlimited token never trips");
            assert_eq!(got, expected, "{par:?}");
        }
    }

    #[test]
    fn governed_map_stops_on_cancelled_token() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u64> = (0..100_000).collect();
        let token = CancelToken::unlimited();
        let calls = AtomicUsize::new(0);
        token.cancel();
        let err = par_map_governed(
            Parallelism::Threads(4),
            &token,
            Stage::AgreeSets,
            &items,
            |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(x)
            },
        )
        .expect_err("cancelled token must trip the fan-out");
        assert_eq!(err.resource, depminer_govern::Resource::External);
        // Every queued chunk saw the cancelled token before mapping.
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        // A fresh ungoverned run still works.
        let sums = par_map(Parallelism::Threads(4), &items, |&x| x + 1);
        assert_eq!(sums.len(), items.len());
        assert_eq!(sums[10], 11);
    }

    #[test]
    fn governed_map_in_flight_chunks_drain_at_poll_stride() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u64> = (0..10_000).collect();
        let token = CancelToken::unlimited();
        let calls = AtomicUsize::new(0);
        let tok = token.clone();
        // Sequential: one "chunk" = the whole input; the mid-map trip must
        // stop the loop at the next stride poll, not at item 10 000.
        let err = par_map_governed(
            Parallelism::Sequential,
            &token,
            Stage::AgreeSets,
            &items,
            |&x| {
                if x == 10 {
                    tok.cancel();
                }
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(x)
            },
        )
        .expect_err("mid-map cancel must trip");
        assert_eq!(err.resource, depminer_govern::Resource::External);
        let ran = calls.load(Ordering::Relaxed);
        assert!(
            ran <= GOVERN_POLL_STRIDE,
            "expected the map to stop within one poll stride, ran {ran} items"
        );
    }

    #[test]
    fn governed_chunks_first_error_wins_and_matches_sequential() {
        let items: Vec<u32> = (0..1000).collect();
        let token = CancelToken::unlimited();
        let sums = par_chunks_governed(
            Parallelism::Threads(4),
            &token,
            Stage::AgreeSets,
            &items,
            64,
            |c| Ok(c.iter().sum::<u32>()),
        )
        .expect("unlimited token never trips");
        let expected: Vec<u32> = items.chunks(64).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, expected);

        let limited = depminer_govern::Budget::unlimited()
            .with_max_couples(10)
            .start();
        let err = par_chunks_governed(
            Parallelism::Threads(4),
            &limited,
            Stage::AgreeSets,
            &items,
            64,
            |c| {
                limited.add_couples(c.len() as u64, Stage::AgreeSets)?;
                Ok(c.len())
            },
        )
        .expect_err("couple budget must trip");
        assert_eq!(err.resource, depminer_govern::Resource::Couples);
    }

    #[test]
    fn governed_indexed_empty_input() {
        let token = CancelToken::unlimited();
        let got =
            par_map_indexed_governed(Parallelism::Threads(4), &token, Stage::MaxSets, 0, |i| {
                Ok(i)
            })
            .expect("empty input never trips");
        assert!(got.is_empty());
    }

    #[test]
    fn zero_sized_chunk_size_is_clamped() {
        let items = [1u32, 2, 3];
        assert_eq!(
            par_chunks(Parallelism::Sequential, &items, 0, |c| c.len()),
            [1, 1, 1]
        );
    }
}
