//! Cheap-to-clone byte buffers, mirroring the subset of the `bytes`
//! crate used by the runtime and the collective algorithms.
//!
//! [`Bytes`] is an immutable view into a reference-counted `Arc<[u8]>`
//! allocation: cloning or slicing never copies the payload, which is
//! what lets a simulated broadcast of a multi-megabyte buffer to a
//! hundred ranks stay cheap. Buffers are assembled with the two
//! combinators the collectives need, [`Bytes::concat`] here and
//! `ReduceOp::combine` in `collsel-coll`.
//!
//! ```
//! use collsel_support::Bytes;
//!
//! let b = Bytes::from(vec![1u8, 2, 3, 4]);
//! let tail = b.slice(2..);
//! assert_eq!(tail.as_ref(), &[3, 4]);
//! assert_eq!(Bytes::concat([&b.slice(..2), &tail]), b);
//! ```
//!
//! # Symbolic buffers
//!
//! A simulated message costs what its *length* costs; its contents
//! never reach a timing. [`Bytes::symbolic`] is the representation
//! that says so: a buffer that knows its length and has no storage.
//! Everything length-shaped ([`len`](Bytes::len),
//! [`slice`](Bytes::slice), [`split_to`](Bytes::split_to), `clone`,
//! [`concat`](Bytes::concat)) works on it in O(1); everything that
//! would observe a byte (`Deref`, [`to_vec`](Bytes::to_vec), `==`,
//! `Hash`) panics with [`SYMBOLIC_CONTENT_ACCESS`]. Schedule recording
//! hands these to every receive, so a recorded program can do no byte
//! work and cannot branch on data it was never sent.
//!
//! ```
//! use collsel_support::Bytes;
//!
//! let gib = Bytes::symbolic(1 << 30);
//! let halves = [gib.slice(..1 << 29), gib.slice(1 << 29..)];
//! let glued = Bytes::concat(&halves);
//! assert!(glued.is_symbolic());
//! assert_eq!(glued.len(), 1 << 30);
//! ```

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// The panic message of every content-observing operation on a
/// [symbolic](Bytes::symbolic) buffer.
pub const SYMBOLIC_CONTENT_ACCESS: &str =
    "the contents of a symbolic (length-only) Bytes were read; only its length exists";

/// An immutable, cheaply cloneable slice of bytes.
///
/// Internally a `(Arc<[u8]>, start, end)` triple; `clone`, [`slice`]
/// and [`split_to`] are O(1) and share the underlying allocation. A
/// [symbolic](Bytes::symbolic) buffer is the same triple without the
/// allocation.
///
/// [`slice`]: Bytes::slice
/// [`split_to`]: Bytes::split_to
#[derive(Clone)]
pub struct Bytes {
    /// `None` for a symbolic buffer: the view bounds are all there is.
    data: Option<Arc<[u8]>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer. Does not allocate a payload.
    pub fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Wraps a static byte slice. (Copies it once into the shared
    /// allocation; the name is kept for `bytes` API compatibility.)
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            data: Some(Arc::from(bytes)),
            start: 0,
            end: bytes.len(),
        }
    }

    /// A buffer of `len` bytes that has a length and no contents. O(1)
    /// at any `len`; see the [module docs](self#symbolic-buffers) for
    /// what it supports.
    pub fn symbolic(len: usize) -> Self {
        Bytes {
            data: None,
            start: 0,
            end: len,
        }
    }

    /// Whether this buffer is [symbolic](Bytes::symbolic).
    pub fn is_symbolic(&self) -> bool {
        self.data.is_none()
    }

    /// The parts glued together in order. One allocation and one copy
    /// of every part when all of them have contents (a single part is
    /// shared, not copied); symbolic, in time proportional to the number
    /// of parts, as soon as one does not.
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a Bytes>) -> Bytes {
        let parts: Vec<&Bytes> = parts.into_iter().collect();
        if let [only] = parts[..] {
            return only.clone();
        }
        let len = parts.iter().map(|p| p.len()).sum();
        if parts.iter().any(|p| p.is_symbolic()) {
            return Bytes::symbolic(len);
        }
        let mut buf = Vec::with_capacity(len);
        for part in parts {
            buf.extend_from_slice(part);
        }
        Bytes::from(buf)
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view of `self` without copying.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or decreasing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "slice {lo}..{hi} out of bounds of {len}-byte buffer"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits the view at `at`, returning the first `at` bytes and
    /// leaving `self` with the rest. O(1), no copy.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Copies the viewed bytes into a fresh `Vec`.
    ///
    /// # Panics
    ///
    /// Panics on a symbolic buffer, as every content access does.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    /// # Panics
    ///
    /// Panics with [`SYMBOLIC_CONTENT_ACCESS`] on a symbolic buffer.
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => panic!("{SYMBOLIC_CONTENT_ACCESS}"),
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Some(Arc::from(v)),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.is_symbolic() { "symbolic " } else { "" };
        write!(f, "Bytes({kind}{} B)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_clone_share_payload() {
        let b = Bytes::from((0u8..64).collect::<Vec<_>>());
        let s = b.slice(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 10);
        assert_eq!(b.slice(..4).as_ref(), &[0, 1, 2, 3]);
        assert_eq!(b.slice(60..).as_ref(), &[60, 61, 62, 63]);
        // Nested slices index relative to the view, not the allocation.
        assert_eq!(s.slice(2..4).as_ref(), &[12, 13]);
    }

    #[test]
    fn split_to_advances_the_view() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.as_ref(), &[1, 2]);
        assert_eq!(b.as_ref(), &[3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(1..9);
    }

    #[test]
    fn concat_of_real_parts_copies_them_in_order() {
        // What a growable buffer filled part by part and frozen would hold.
        let parts = [
            Bytes::from(vec![9, 8]),
            Bytes::new(),
            Bytes::from(vec![0, 7, 0]).slice(1..2),
        ];
        let b = Bytes::concat(&parts);
        assert!(!b.is_symbolic());
        assert_eq!(b, Bytes::from(vec![9, 8, 7]));
        assert_eq!(b.to_vec(), vec![9, 8, 7]);
        assert_eq!(Bytes::concat([]), Bytes::new());
    }

    #[test]
    fn symbolic_lengths_propagate_through_every_length_operation() {
        let b = Bytes::symbolic(100);
        assert!(b.is_symbolic());
        assert_eq!((b.len(), b.is_empty()), (100, false));
        assert!(Bytes::symbolic(0).is_empty());
        let s = b.slice(10..40);
        assert!(s.is_symbolic());
        assert_eq!(s.len(), 30);
        assert_eq!(s.slice(5..).len(), 25);
        let mut rest = b.clone();
        let head = rest.split_to(64);
        assert!(head.is_symbolic() && rest.is_symbolic());
        assert_eq!((head.len(), rest.len()), (64, 36));
        assert_eq!(format!("{b:?}"), "Bytes(symbolic 100 B)");
    }

    #[test]
    fn one_symbolic_part_makes_the_concatenation_symbolic() {
        let real = Bytes::from(vec![1, 2, 3]);
        for parts in [
            vec![Bytes::symbolic(5), real.clone()],
            vec![real.clone(), Bytes::symbolic(5)],
            vec![real.clone(), Bytes::symbolic(0), real.clone()],
            vec![Bytes::symbolic(usize::MAX / 2), Bytes::symbolic(7)],
        ] {
            let glued = Bytes::concat(&parts);
            assert!(glued.is_symbolic(), "{parts:?}");
            assert_eq!(glued.len(), parts.iter().map(Bytes::len).sum::<usize>());
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn symbolic_slice_out_of_bounds_panics() {
        let _ = Bytes::symbolic(3).slice(1..9);
    }

    #[test]
    fn every_content_access_on_a_symbolic_buffer_panics_with_one_message() {
        use std::hash::Hash;
        type Access = fn(&Bytes);
        let accesses: [(&str, Access); 6] = [
            ("deref", |b| assert_eq!(b[0], 0)),
            ("as_ref", |b| assert_eq!(b.as_ref().len(), 4)),
            ("to_vec", |b| assert_eq!(b.to_vec().len(), 4)),
            ("eq", |b| assert!(*b == Bytes::symbolic(4))),
            ("eq with real", |b| {
                let real = Bytes::from(vec![0; 4]);
                assert!(real == *b);
            }),
            ("hash", |b| {
                b.hash(&mut std::collections::hash_map::DefaultHasher::new());
            }),
        ];
        for (name, access) in accesses {
            let b = Bytes::symbolic(4);
            let panic = std::panic::catch_unwind(move || access(&b)).expect_err(name);
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert_eq!(message, SYMBOLIC_CONTENT_ACCESS, "{name}");
        }
    }

    #[test]
    fn equality_is_by_content() {
        let a = Bytes::from(vec![1, 2, 3, 4]).slice(1..3);
        let b = Bytes::from(vec![2, 3]);
        assert_eq!(a, b);
        assert_eq!(a, vec![2u8, 3]);
    }
}
