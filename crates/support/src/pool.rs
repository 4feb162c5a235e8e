//! A scoped, deterministic job pool for fanning independent work across
//! OS threads, replacing `rayon`-style helpers for the workspace's
//! tuning campaigns.
//!
//! Built from `std::thread` + `std::sync` only. A batch of `FnOnce`
//! jobs is executed by a self-scheduling team of the calling thread plus
//! `threads - 1` scoped worker threads (each repeatedly claims the next
//! unstarted job from a shared counter — work-stealing-style load
//! balancing without per-worker queues), and the results are returned
//! **in submission-index order**. The caller works rather than waits, so
//! a batch costs one thread spawn fewer and makes progress even while the
//! OS has not yet given the new threads a core.
//!
//! # Determinism
//!
//! The pool never changes *what* is computed, only *where*: job `i`
//! always receives the same inputs and its result always lands in slot
//! `i` of the output, regardless of the thread count or the OS
//! schedule. Campaign code that derives each job's seed from its
//! submission index therefore produces bit-identical results at any
//! thread count — the invariant the golden paper-regression artifacts
//! rely on.
//!
//! # Thread-count control
//!
//! The effective parallelism of [`Pool::current`] is, in order of
//! precedence: a process-wide override set by [`set_thread_override`]
//! (the CLI's `-j`), the `COLLSEL_THREADS` environment variable, and
//! finally [`std::thread::available_parallelism`].
//!
//! # Panics
//!
//! A panicking job does not poison the pool or deadlock the batch: the
//! remaining jobs still run, and the payload of the panicking job with
//! the smallest submission index is re-raised on the caller once the
//! whole batch has finished (so the propagated panic is deterministic
//! too).
//!
//! ```
//! use collsel_support::pool::Pool;
//!
//! let squares = Pool::with_threads(4).run((0..8).map(|i| move || i * i));
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable controlling the default thread count.
pub const THREADS_ENV: &str = "COLLSEL_THREADS";

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets a process-wide thread-count override that takes precedence over
/// `COLLSEL_THREADS` and the detected parallelism (used by the CLI's
/// `-j`/`--threads` flag).
///
/// # Panics
///
/// Panics if `threads` is zero; use [`clear_thread_override`] to unset.
pub fn set_thread_override(threads: usize) {
    assert!(threads > 0, "thread override must be at least 1");
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Clears the override installed by [`set_thread_override`].
pub fn clear_thread_override() {
    THREAD_OVERRIDE.store(0, Ordering::Relaxed);
}

/// The thread count [`Pool::current`] would use right now.
pub fn current_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(s) = std::env::var(THREADS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A job pool with a fixed worker count.
///
/// The pool itself is trivially cheap to construct: worker threads are
/// scoped to each [`run`](Pool::run) call, so jobs may borrow from the
/// caller's stack (clusters, configs, slices) without `'static` bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The pool configured by the environment: the
    /// [`set_thread_override`] value, else `COLLSEL_THREADS`, else the
    /// host's available parallelism.
    pub fn current() -> Pool {
        Pool::with_threads(current_threads())
    }

    /// A single-threaded pool ([`run`](Pool::run) executes inline).
    pub fn serial() -> Pool {
        Pool::with_threads(1)
    }

    /// This pool's worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every job and returns the results in submission order.
    ///
    /// With one worker (or at most one job) the jobs run inline on the
    /// caller's thread, in order — the serial baseline the parallel
    /// schedule must be indistinguishable from.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the panicking job with the smallest
    /// submission index, after all jobs have finished.
    pub fn run<T, F, I>(&self, jobs: I) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
        I: IntoIterator<Item = F>,
    {
        let jobs: Vec<F> = jobs.into_iter().collect();
        if self.threads <= 1 || jobs.len() <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let n = jobs.len();
        let workers = self.threads.min(n);
        // Each slot holds Some(job) until a worker claims it; claimed
        // slots are decided by the shared counter, so no job runs twice.
        let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);

        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let job = slots[i]
                .lock()
                .expect("job slot poisoned")
                .take()
                .expect("job claimed twice");
            let outcome = catch_unwind(AssertUnwindSafe(job));
            *results[i].lock().expect("result slot poisoned") = Some(outcome);
        };
        // The caller is one of the workers: it starts on the jobs at once
        // instead of sleeping until freshly spawned threads get a core.
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });

        let mut out = Vec::with_capacity(n);
        let mut first_panic = None;
        for slot in results {
            let outcome = slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("scope joined with a job unfinished");
            match outcome {
                Ok(v) => out.push(v),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 3, 8, 33] {
            let out = Pool::with_threads(threads).run((0..100usize).map(|i| move || i * 3));
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn jobs_may_borrow_from_the_caller() {
        let data: Vec<u64> = (0..50).collect();
        let slice = &data;
        let out = Pool::with_threads(4).run((0..50usize).map(|i| move || slice[i] + 1));
        assert_eq!(out, (1..=50).collect::<Vec<u64>>());
    }

    #[test]
    fn earliest_panic_wins_and_the_pool_does_not_deadlock() {
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            Pool::with_threads(4).run((0..20usize).map(|i| {
                let ran = &ran;
                move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(i != 3 && i != 11, "job {i} failed");
                    i
                }
            }))
        }));
        let payload = result.expect_err("a panicking job must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("assert! message");
        assert!(msg.contains("job 3 failed"), "expected job 3 first: {msg}");
        assert_eq!(ran.load(Ordering::Relaxed), 20, "all jobs still ran");
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Two jobs that each wait for the other need two executors at
        // once; with `threads = 2` one of them has to be the caller.
        let both = std::sync::Barrier::new(2);
        let ids = Pool::with_threads(2).run((0..2).map(|_| {
            || {
                both.wait();
                std::thread::current().id()
            }
        }));
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
        let out = Pool::with_threads(0).run(vec![|| 7]);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn override_takes_precedence() {
        set_thread_override(3);
        assert_eq!(current_threads(), 3);
        assert_eq!(Pool::current().threads(), 3);
        clear_thread_override();
    }
}
