//! Scoped task spawning with panic propagation.
//!
//! [`ThreadPool::scope`] lets tasks borrow from the caller's stack: the
//! scope joins *all* spawned tasks before it returns (even when the scope
//! body itself panics), which is the invariant that makes the internal
//! lifetime erasure sound. The joining thread never blocks idle — it
//! helps execute queued jobs, so nested scopes (a task spawning its own
//! scope) cannot deadlock even on a pool with a single worker.
//!
//! Panics inside tasks are caught, the first payload is kept, and the
//! scope re-raises it on the joining thread after every task finished —
//! mirroring `std::thread::scope` semantics.

use crate::pool::{Job, PoolShared, ThreadPool};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Shared bookkeeping for one scope: outstanding task count, the first
/// panic payload, and a condvar the joining thread parks on when there is
/// no work left to help with.
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done_lock: Mutex<()>,
    done_signal: Condvar,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_signal: Condvar::new(),
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self
            .panic
            .lock()
            .expect("scope panic slot poisoned (only written under catch_unwind)");
        // First panic wins; later ones are dropped like std::thread::scope.
        slot.get_or_insert(payload);
    }

    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self
                .done_lock
                .lock()
                .expect("scope done mutex poisoned (nothing unwinds under it)");
            self.done_signal.notify_all();
        }
    }
}

/// A fork-join scope handed to the closure of [`ThreadPool::scope`].
///
/// `'env` is the lifetime of the environment tasks may borrow; the scope
/// guarantees every task completes before `'env` ends.
pub struct Scope<'pool, 'env> {
    shared: &'pool Arc<PoolShared>,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawns a task onto the pool. The task may borrow anything that
    /// outlives the scope; it runs at most once, and the scope's join
    /// waits for it.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state.record_panic(payload);
            }
            state.complete_one();
        });
        // SAFETY: only the lifetime bound is erased. The closure (and the
        // `'env` borrows it captures) stays alive until it has run,
        // because `ThreadPool::scope` joins — waits for `pending` to hit
        // zero — before returning, on the success *and* panic paths. This
        // is the same argument `crossbeam::scope` and `std::thread::scope`
        // rest on.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.shared.push_job(job);
    }
}

impl ThreadPool {
    /// Runs `f` with a [`Scope`] that can spawn borrowing tasks, then
    /// joins every spawned task. If any task panicked, the first panic is
    /// re-raised here after all tasks finished; a panic in `f` itself is
    /// also deferred until the join completes.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let scope = Scope {
            shared: self.shared(),
            state: Arc::new(ScopeState::new()),
            _env: PhantomData,
        };
        let body = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Join: help run queued jobs until every task of this scope is
        // done. Helping (instead of blocking) is what makes nested scopes
        // safe on any worker count, including zero.
        while scope.state.pending.load(Ordering::Acquire) > 0 {
            if let Some(job) = self.shared().try_pop() {
                // The job may belong to another run sharing the pool; the
                // marker lets profile sinks attribute it as a task.
                let _task = depminer_observe::enter_pool_task();
                job();
                continue;
            }
            let guard = scope
                .state
                .done_lock
                .lock()
                .expect("scope done mutex poisoned (nothing unwinds under it)");
            if scope.state.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            if self.shared().has_pending() {
                continue;
            }
            // Nothing to steal and tasks still in flight elsewhere: park
            // briefly. The timeout is a backstop against lost wakeups.
            let _ = scope
                .state
                .done_signal
                .wait_timeout(guard, Duration::from_millis(1));
        }
        let worker_panic = scope
            .state
            .panic
            .lock()
            .expect("scope panic slot poisoned (only written under catch_unwind)")
            .take();
        match body {
            // A panic in the scope body outranks task panics: it is the
            // earlier, outer failure.
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = worker_panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_runs_all_tasks_with_zero_workers() {
        // The joining thread must drain everything itself.
        let pool = ThreadPool::new();
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn scope_joins_before_returning() {
        let pool = ThreadPool::new();
        pool.ensure_workers(2);
        let mut data = vec![0u32; 100];
        pool.scope(|s| {
            for (i, slot) in data.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u32 * 2);
            }
        });
        // Every borrow has completed; data is fully written.
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 * 2));
    }

    #[test]
    fn panic_in_task_propagates_after_join() {
        let pool = ThreadPool::new();
        pool.ensure_workers(1);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task boom"));
                for _ in 0..8 {
                    s.spawn(|| {
                        completed.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        let payload = result.expect_err("task panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "task boom");
        // The join completed every sibling task before re-raising.
        assert_eq!(completed.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn panic_in_scope_body_still_joins_tasks() {
        let pool = ThreadPool::new();
        pool.ensure_workers(1);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        completed.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("body boom");
            });
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = ThreadPool::new();
        pool.ensure_workers(1); // deliberately tiny: forces helping
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn scope_returns_body_value() {
        let pool = ThreadPool::new();
        let v = pool.scope(|_| 42);
        assert_eq!(v, 42);
    }
}
