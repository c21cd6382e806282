//! Shared, immutable byte buffers for message payloads.
//!
//! The paper's bus hardware transmits a message once and lets every
//! target cluster read the same transmission (§7.4.2); nothing in the
//! design copies payload bytes per destination. [`SharedBytes`] gives
//! the simulation the same cost shape: the buffer is allocated once
//! when the payload enters the system (at the sending kernel's copy-in
//! from guest memory, or at a server's reply construction) and every
//! subsequent clone — per-target fan-out, the in-flight ledger, saved
//! backup queues, rebuild records — is a reference-count bump.
//!
//! The module also hosts the *allocation probe*: a per-thread counter
//! of fresh payload buffers, used by the regression test that pins "one
//! frame to three clusters costs exactly one payload allocation".

use std::cell::Cell;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

thread_local! {
    /// Fresh payload-buffer allocations made on this thread.
    ///
    /// Counts buffers, not clones: [`SharedBytes::clone`] and
    /// [`SharedBytes::slice`] never touch it, and zero-length buffers
    /// are interned and free. Per-thread so that two simulations on two
    /// test threads cannot see each other's buffers.
    // auros-lint: allow(S1) -- observability-only counter, never read by sim logic; thread-local because a simulation builds its payload buffers on the one thread that runs it, so concurrent simulations each count only their own
    static PAYLOAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Reads this thread's allocation probe. Take a reading before and
/// after the region of interest and subtract.
pub fn payload_allocs() -> u64 {
    PAYLOAD_ALLOCS.with(Cell::get)
}

fn count_alloc() {
    PAYLOAD_ALLOCS.with(|n| n.set(n.get() + 1));
}

fn empty_buf() -> Arc<[u8]> {
    // auros-lint: allow(S1) -- write-once interning of the immutable empty buffer: after init the cell is read-only, indistinguishable from a const
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(&[][..])).clone()
}

/// An immutable byte buffer with cheap clone and zero-copy slicing.
///
/// Equality, ordering and hashing are by content, so swapping a
/// `Vec<u8>` field for `SharedBytes` does not change any derived
/// semantics.
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl SharedBytes {
    /// The shared empty buffer; never allocates.
    pub fn empty() -> SharedBytes {
        SharedBytes { buf: empty_buf(), off: 0, len: 0 }
    }

    /// Copies `data` into a fresh shared buffer (one probe tick unless
    /// empty).
    pub fn copy_from(data: &[u8]) -> SharedBytes {
        if data.is_empty() {
            return SharedBytes::empty();
        }
        count_alloc();
        SharedBytes { buf: Arc::from(data), off: 0, len: data.len() }
    }

    /// Bytes in this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zero-copy sub-view of `self`; shares the same buffer.
    ///
    /// # Panics
    /// Panics if `start..end` is out of bounds or inverted.
    pub fn slice(&self, start: usize, end: usize) -> SharedBytes {
        assert!(start <= end && end <= self.len, "slice {start}..{end} of {}", self.len);
        SharedBytes { buf: self.buf.clone(), off: self.off + start, len: end - start }
    }

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl Default for SharedBytes {
    fn default() -> SharedBytes {
        SharedBytes::empty()
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(v: Vec<u8>) -> SharedBytes {
        if v.is_empty() {
            return SharedBytes::empty();
        }
        count_alloc();
        let len = v.len();
        SharedBytes { buf: Arc::from(v), off: 0, len }
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(s: &[u8]) -> SharedBytes {
        SharedBytes::copy_from(s)
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &SharedBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedBytes {}

impl PartialEq<[u8]> for SharedBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for SharedBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for SharedBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for SharedBytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl std::fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_the_buffer() {
        let before = payload_allocs();
        let b = SharedBytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(payload_allocs() - before, 1);
        let c = b.clone();
        let s = b.slice(1, 4);
        assert_eq!(payload_allocs() - before, 1, "clone and slice must not allocate");
        assert_eq!(c, b);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert!(Arc::ptr_eq(&b.buf, &s.buf));
    }

    #[test]
    fn empty_buffers_are_interned() {
        let before = payload_allocs();
        let a = SharedBytes::empty();
        let b = SharedBytes::from(Vec::new());
        let c = SharedBytes::copy_from(&[]);
        assert_eq!(payload_allocs(), before);
        assert!(a.is_empty() && b.is_empty() && c.is_empty());
    }

    #[test]
    fn content_equality_ignores_representation() {
        let a = SharedBytes::from(vec![9u8, 8, 7]);
        let b = SharedBytes::from(vec![0u8, 9, 8, 7]).slice(1, 4);
        assert_eq!(a, b);
        assert_eq!(a, vec![9u8, 8, 7]);
    }

    #[test]
    #[should_panic(expected = "slice")]
    fn out_of_bounds_slice_panics() {
        SharedBytes::from(vec![1u8, 2]).slice(1, 3);
    }
}
