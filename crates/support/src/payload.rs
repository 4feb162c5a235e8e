//! Shared memoised store for deterministic measurement payloads.
//!
//! The programs that carry real data — the threaded measurement tier
//! (`collsel-estim`), the end-to-end benchmark and the differential
//! tests — all want the same position-dependent byte pattern. They
//! touch a few dozen distinct sizes across thousands of runs and
//! retries, so the buffer for each size is built exactly once here and
//! handed out as a cheap [`Bytes`] (`Arc`-backed) clone afterwards.
//! Schedule recording needs no bytes at all ([`Bytes::symbolic`]) and
//! draws nothing from this store.
//!
//! The store keeps process-wide hit/miss counters
//! ([`payload_counters`]) that campaign coverage accounting surfaces
//! next to its cell/batch totals, making cache effectiveness (and any
//! pathological size sweep blowing past the cap) visible in artifacts.

use crate::bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Campaigns use a bounded set of sizes; the cap only guards against a
/// pathological caller sweeping millions of distinct lengths.
const CACHE_CAP: usize = 1024;

static CACHE: OnceLock<Mutex<HashMap<usize, Bytes>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// A deterministic position-dependent payload of `len` bytes
/// (`byte[i] = i % 251`).
///
/// Contents never affect simulated timing — the pattern just gives
/// data-carrying runs something reproducible to move. Memoised per
/// process: the first request for a size allocates and fills, every
/// later request is a reference-counted clone.
pub fn payload(len: usize) -> Bytes {
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("payload cache lock");
    if let Some(b) = cache.get(&len) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return b.clone();
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let b = Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<_>>());
    if cache.len() < CACHE_CAP {
        cache.insert(len, b.clone());
    }
    b
}

/// Monotonic process-wide counters of the payload store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadCounters {
    /// Requests served from the store.
    pub hits: u64,
    /// Requests that had to allocate and fill.
    pub misses: u64,
}

/// Snapshot of the store's hit/miss counters since process start.
///
/// The counters are global and monotonic — consumers that want a
/// per-phase delta snapshot before and after.
pub fn payload_counters() -> PayloadCounters {
    PayloadCounters {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_deterministic_and_memoised() {
        let before = payload_counters();
        let a = payload(777);
        let b = payload(777);
        let after = payload_counters();
        assert_eq!(a, b);
        assert_eq!(a.len(), 777);
        assert_eq!(a[0], 0);
        assert_eq!(a[250], 250);
        assert_eq!(a[251], 0);
        // At least one of the two calls hit (the first may have missed
        // or hit depending on test order within the process).
        assert!(after.hits > before.hits);
        assert!(after.misses >= before.misses);
    }
}
