//! Striped counters: per-thread cache lines for words many threads
//! write on every request.
//!
//! A counter that every serving thread bumps is one cache line that
//! every core keeps stealing from the others, so a second thread makes
//! each increment slower instead of doubling the rate. [`Striped<N>`]
//! gives each of [`STRIPES`] stripes its own 128-byte line of `N`
//! counters. A thread writes only the line of its own [`stripe`], and a
//! reader that wants a total sums the lines ([`Striped::sum`]).
//!
//! The stripe is taken from the address of the caller's stack: threads
//! run on different stacks, each a couple of MiB apart, so concurrently
//! live threads land on different stripes. There is no registration,
//! no thread-local and no configuration. Two threads that do share a
//! stripe still count exactly (every update is an atomic
//! read-modify-write); they only share a line again.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of stripes (cache lines) per [`Striped`] array.
pub const STRIPES: usize = 16;

/// Shift from a stack address to its stripe: 2 MiB, the default stack
/// size of a spawned thread, so neighbouring thread stacks map to
/// neighbouring stripes.
const STACK_SHIFT: u32 = 21;

/// The calling thread's stripe, in `0..STRIPES`.
///
/// It can differ between two calls on one thread whose frames straddle
/// a 2 MiB boundary, so a caller that must undo an update on the same
/// stripe (a pin count, say) records the value instead of calling this
/// again.
#[inline]
pub fn stripe() -> usize {
    let marker = 0u8;
    (std::ptr::addr_of!(marker) as usize >> STACK_SHIFT) % STRIPES
}

/// One stripe: `N` counters alone on a pair of 64-byte cache lines
/// (adjacent-line prefetch makes 128 bytes the unit of false sharing).
#[repr(align(128))]
struct Line<const N: usize>([AtomicU64; N]);

/// `N` counters, each striped over [`STRIPES`] cache lines (see the
/// module docs).
pub struct Striped<const N: usize> {
    lines: [Line<N>; STRIPES],
}

impl<const N: usize> Striped<N> {
    /// All counters at zero.
    pub fn new() -> Self {
        Striped {
            lines: std::array::from_fn(|_| Line(std::array::from_fn(|_| AtomicU64::new(0)))),
        }
    }

    /// The `N` counters of stripe `s` (taken modulo [`STRIPES`]). Callers
    /// update them with whatever ordering their protocol needs.
    #[inline]
    pub fn at(&self, s: usize) -> &[AtomicU64; N] {
        &self.lines[s % STRIPES].0
    }

    /// The calling thread's counters: `at(stripe())`.
    #[inline]
    pub fn local(&self) -> &[AtomicU64; N] {
        self.at(stripe())
    }

    /// Counter `i` of every stripe, stripe 0 first.
    pub fn stripes(&self, i: usize) -> impl Iterator<Item = &AtomicU64> {
        self.lines.iter().map(move |line| &line.0[i])
    }

    /// Counter `i` summed over the stripes (`Relaxed`: a statistic, exact
    /// once the writers are quiescent).
    pub fn sum(&self, i: usize) -> u64 {
        self.stripes(i)
            .map(|c| c.load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }
}

impl<const N: usize> Default for Striped<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> fmt::Debug for Striped<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries((0..N).map(|i| self.sum(i))).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_is_in_range_and_a_line_is_its_own() {
        assert!(stripe() < STRIPES);
        assert_eq!(std::mem::align_of::<Striped<4>>(), 128);
        assert_eq!(std::mem::size_of::<Striped<4>>(), STRIPES * 128);
        let s: Striped<2> = Striped::new();
        s.at(3)[1].fetch_add(5, Ordering::Relaxed);
        s.at(3 + STRIPES)[1].fetch_add(2, Ordering::Relaxed);
        assert_eq!(s.at(3)[1].load(Ordering::Relaxed), 7, "stripes wrap");
        assert_eq!((s.sum(0), s.sum(1)), (0, 7));
    }

    #[test]
    fn sums_are_exact_under_twice_as_many_threads_as_stripes() {
        const THREADS: usize = 2 * STRIPES;
        const ADDS: u64 = 10_000;
        let s: Striped<3> = Striped::new();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (s, barrier) = (&s, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..ADDS {
                        s.local()[0].fetch_add(1, Ordering::Relaxed);
                        // Every thread also hits one fixed stripe, so
                        // some stripes are certainly shared.
                        s.at(t % 2)[1].fetch_add(2, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(s.sum(0), THREADS as u64 * ADDS);
        assert_eq!(s.sum(1), 2 * THREADS as u64 * ADDS);
        assert_eq!(s.sum(2), 0);
    }
}
