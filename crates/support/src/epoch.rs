//! Epoch-versioned atomic value swapping — the in-tree `ArcSwap`
//! replacement behind the decision server's generation registry.
//!
//! [`EpochSwap<T>`] holds one **current generation** of a value and lets
//! any number of reader threads pin it wait-free-in-practice while a
//! writer atomically installs a replacement. The contract the serving
//! layer needs:
//!
//! * **readers pin an epoch** — [`EpochSwap::pin`] returns a guard that
//!   dereferences to the generation that was current at pin time and
//!   reports its epoch number; the guard stays valid for its whole
//!   lifetime even across any number of concurrent swaps;
//! * **swaps are atomic** — a reader sees either the pre-swap or the
//!   post-swap generation, never a torn mix; the epoch counter increases
//!   by exactly one per swap;
//! * **old generations drain before reclamation** — a generation's
//!   memory is freed only once every guard pinning it has dropped; the
//!   writer performing the reclaiming swap waits for the drain.
//!
//! The implementation is a small ring of generation slots guarded by
//! per-slot pin counts — atomics only, no locks on the read path. Each
//! slot's pin count is [striped](crate::stripe): a reader increments
//! the count of the current slot *on its own stripe*, so concurrent
//! readers write different cache lines, and the guard remembers the
//! stripe so its drop decrements the same count. A reader then
//! *validates* that the slot is still current; a writer reuses a slot
//! only after the slot has been out of service for [`SLOTS`]` - 1`
//! consecutive swaps *and* its pin count has drained to zero on every
//! stripe. All cross-thread ordering on the current-slot index and the
//! pin counts is `SeqCst`, which makes the validate-after-increment
//! protocol airtight stripe by stripe: if a reader's validation load
//! still observes the slot as current, its increment on its stripe is
//! ordered before the writer's drain check of that stripe in the single
//! total order, so the writer cannot have missed it. A pin of a slot
//! that is no longer current may be missed by a drain, but it fails its
//! validation (or, if the slot has become current again, reads the new
//! pointer) and never dereferences the reclaimed one.

use crate::stripe::{stripe, Striped};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Number of generation slots. A guard held across up to `SLOTS - 1`
/// swaps never delays any writer; the swap that would reuse the pinned
/// slot waits for the guard to drop.
pub const SLOTS: usize = 4;

/// One ring slot: the epoch stored in the slot and the heap pointer to
/// the generation value (its pin count lives in [`EpochSwap`]'s
/// striped `pinners`).
struct Slot<T> {
    epoch: AtomicU64,
    ptr: AtomicPtr<T>,
}

impl<T> Slot<T> {
    fn empty() -> Self {
        Slot {
            epoch: AtomicU64::new(0),
            ptr: AtomicPtr::new(std::ptr::null_mut()),
        }
    }
}

/// An atomically swappable, epoch-versioned value (see the module docs).
///
/// Readers call [`pin`](Self::pin); writers call [`swap`](Self::swap).
/// Concurrent swaps serialise against each other on an internal flag;
/// reads never block and never observe a partially installed value.
pub struct EpochSwap<T> {
    slots: [Slot<T>; SLOTS],
    /// Pin counts: stripe `s`, counter `i` counts the guards of slot `i`
    /// taken on stripe `s`.
    pinners: Striped<SLOTS>,
    current: AtomicUsize,
    epoch: AtomicU64,
    writing: AtomicBool,
}

// Safety: the value is shared across threads by reference through
// guards (needs `T: Sync`) and ownership of boxed generations moves to
// whichever thread reclaims them (needs `T: Send`).
unsafe impl<T: Send + Sync> Sync for EpochSwap<T> {}
unsafe impl<T: Send> Send for EpochSwap<T> {}

impl<T> EpochSwap<T> {
    /// Creates the cell with `initial` as generation (epoch) 1.
    pub fn new(initial: T) -> Self {
        let slots = [Slot::empty(), Slot::empty(), Slot::empty(), Slot::empty()];
        slots[0].epoch.store(1, Ordering::Relaxed);
        slots[0]
            .ptr
            .store(Box::into_raw(Box::new(initial)), Ordering::Relaxed);
        EpochSwap {
            slots,
            pinners: Striped::new(),
            current: AtomicUsize::new(0),
            epoch: AtomicU64::new(1),
            writing: AtomicBool::new(false),
        }
    }

    /// The epoch of the current generation (1 for the initial value,
    /// +1 per completed swap). Monotonic.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Pins the current generation and returns a guard dereferencing to
    /// it. The guard keeps the generation alive (a writer wanting to
    /// reclaim its slot waits), so drop it promptly.
    pub fn pin(&self) -> EpochGuard<'_, T> {
        let stripe = stripe();
        let pins = self.pinners.at(stripe);
        loop {
            let idx = self.current.load(Ordering::SeqCst);
            pins[idx].fetch_add(1, Ordering::SeqCst);
            if self.current.load(Ordering::SeqCst) == idx {
                // Validated: the slot was current at a point after our
                // pin count was published, so the writer protocol keeps
                // its pointer alive until we unpin.
                let ptr = self.slots[idx].ptr.load(Ordering::SeqCst);
                let epoch = self.slots[idx].epoch.load(Ordering::SeqCst);
                debug_assert!(!ptr.is_null(), "current slot holds a generation");
                return EpochGuard {
                    swap: self,
                    stripe,
                    idx,
                    ptr,
                    epoch,
                    _not_send: PhantomData,
                };
            }
            // A swap moved the current slot between our load and our
            // pin; unpin and retry on the new slot.
            pins[idx].fetch_sub(1, Ordering::SeqCst);
            std::hint::spin_loop();
        }
    }

    /// Atomically installs `new` as the next generation and returns its
    /// epoch. Readers pinned to older generations keep them alive;
    /// this call blocks only if the slot being recycled (the generation
    /// from [`SLOTS`]` - 1` swaps ago) is still pinned.
    pub fn swap(&self, new: T) -> u64 {
        // Serialise writers.
        while self
            .writing
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::thread::yield_now();
        }
        let cur = self.current.load(Ordering::SeqCst);
        let next = (cur + 1) % SLOTS;
        // Drain: wait for every reader of the generation previously
        // stored in the target slot, stripe by stripe. New readers
        // cannot keep a pin on it (it is not current, so their
        // validation fails), so each count only returns to zero.
        for pins in self.pinners.stripes(next) {
            while pins.load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
        }
        let old = self.slots[next]
            .ptr
            .swap(Box::into_raw(Box::new(new)), Ordering::SeqCst);
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.slots[next].epoch.store(epoch, Ordering::SeqCst);
        self.current.store(next, Ordering::SeqCst);
        self.writing.store(false, Ordering::Release);
        if !old.is_null() {
            // Safety: the slot was drained above and unreachable to new
            // readers throughout, so we hold the only reference.
            drop(unsafe { Box::from_raw(old) });
        }
        epoch
    }

    /// Convenience: pin, apply `f` to the current generation, unpin.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.pin())
    }
}

impl<T> Drop for EpochSwap<T> {
    fn drop(&mut self) {
        for slot in &self.slots {
            let ptr = slot.ptr.swap(std::ptr::null_mut(), Ordering::Relaxed);
            if !ptr.is_null() {
                // Safety: `&mut self` means no guards are alive.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for EpochSwap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let guard = self.pin();
        f.debug_struct("EpochSwap")
            .field("epoch", &guard.epoch())
            .field("current", &*guard)
            .finish()
    }
}

/// A pinned generation: dereferences to the value, reports its epoch,
/// and keeps the generation alive until dropped.
pub struct EpochGuard<'a, T> {
    swap: &'a EpochSwap<T>,
    /// The stripe whose pin count this guard incremented.
    stripe: usize,
    idx: usize,
    ptr: *const T,
    epoch: u64,
    _not_send: PhantomData<*const ()>,
}

impl<T> EpochGuard<'_, T> {
    /// The epoch of the pinned generation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<T> Deref for EpochGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // Safety: the pin-validate protocol guarantees the pointer
        // stays valid until this guard unpins (see module docs).
        unsafe { &*self.ptr }
    }
}

impl<T> Drop for EpochGuard<'_, T> {
    fn drop(&mut self) {
        self.swap.pinners.at(self.stripe)[self.idx].fetch_sub(1, Ordering::SeqCst);
    }
}

impl<T: fmt::Debug> fmt::Debug for EpochGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochGuard")
            .field("epoch", &self.epoch)
            .field("value", &**self)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stripe::STRIPES;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn initial_value_is_epoch_one() {
        let cell = EpochSwap::new(41);
        assert_eq!(cell.epoch(), 1);
        let g = cell.pin();
        assert_eq!(*g, 41);
        assert_eq!(g.epoch(), 1);
    }

    #[test]
    fn swap_bumps_epoch_and_replaces_value() {
        let cell = EpochSwap::new("a".to_string());
        assert_eq!(cell.swap("b".to_string()), 2);
        assert_eq!(cell.swap("c".to_string()), 3);
        let g = cell.pin();
        assert_eq!(&*g, "c");
        assert_eq!(g.epoch(), 3);
        assert_eq!(cell.epoch(), 3);
    }

    #[test]
    fn old_generation_survives_swaps_while_pinned() {
        let cell = EpochSwap::new(0usize);
        let g = cell.pin();
        // SLOTS - 1 swaps never touch the pinned slot.
        for i in 1..SLOTS {
            cell.swap(i);
        }
        assert_eq!(*g, 0, "pinned generation unchanged after swaps");
        assert_eq!(g.epoch(), 1);
        assert_eq!(*cell.pin(), SLOTS - 1);
    }

    #[test]
    fn concurrent_readers_always_see_a_whole_generation() {
        // Generation n is (n, 3n) at epoch n + 1; a torn read would
        // break the pairing. More readers than stripes hammer the cell
        // while a writer swaps, so some stripes carry several readers'
        // pins.
        let cell = EpochSwap::new((0u64, 0u64));
        let stop = AtomicBool::new(false);
        let started = Barrier::new(STRIPES + 5);
        std::thread::scope(|scope| {
            for _ in 0..STRIPES + 4 {
                let (cell, stop, started) = (&cell, &stop, &started);
                scope.spawn(move || {
                    started.wait();
                    let mut last_epoch = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let g = cell.pin();
                        let (a, b) = *g;
                        assert_eq!((b, g.epoch()), (a * 3, a + 1), "torn generation");
                        assert!(g.epoch() >= last_epoch, "epoch went backwards");
                        last_epoch = g.epoch();
                    }
                });
            }
            started.wait();
            for n in 1..=200u64 {
                assert_eq!(cell.swap((n, n * 3)), n + 1);
            }
            stop.store(true, Ordering::SeqCst);
        });
        assert_eq!(cell.epoch(), 201);
        assert_eq!(*cell.pin(), (200, 600));
    }

    #[test]
    fn reclaiming_swap_waits_for_drain() {
        // The guard lives on a thread of its own (its own stripe); the
        // swap that reuses its slot must wait until that thread drops it.
        let cell = EpochSwap::new(0usize);
        let released = AtomicBool::new(false);
        let (pinned, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            let (cell, released) = (&cell, &released);
            let (pinned, release) = (&pinned, &release);
            scope.spawn(move || {
                let guard = cell.pin();
                pinned.wait();
                release.wait();
                // The pinned generation is intact however far the
                // writer has got.
                assert_eq!((*guard, guard.epoch()), (0, 1));
                released.store(true, Ordering::SeqCst);
                drop(guard);
            });
            pinned.wait();
            // SLOTS - 1 swaps leave the pinned slot alone.
            for i in 1..SLOTS {
                cell.swap(i);
            }
            scope.spawn(move || {
                cell.swap(SLOTS);
                assert!(
                    released.load(Ordering::SeqCst),
                    "the reclaiming swap finished before the guard dropped"
                );
            });
            // Give a broken drain the time to finish early.
            std::thread::sleep(std::time::Duration::from_millis(20));
            release.wait();
        });
        assert_eq!((*cell.pin(), cell.epoch()), (SLOTS, SLOTS as u64 + 1));
    }

    #[test]
    fn read_convenience_passes_through() {
        let cell = EpochSwap::new(vec![1, 2, 3]);
        assert_eq!(cell.read(|v| v.len()), 3);
    }
}
