//! Shared, cheaply-clonable byte buffers for zero-copy payload handoff.
//!
//! Halfmoon's hot path moves whole read values through the log (§6.3: the
//! read log carries the value, the write log only metadata). In a real
//! deployment those bytes are written once by the function runtime and then
//! referenced — never re-copied — by the sequencer batch, the storage
//! replica, the node cache, and any replayer. [`SharedBytes`] gives the
//! simulation the same ownership model: one heap buffer behind a refcount,
//! with O(1) clone and O(1) subslicing, so `Payload::clone` on a
//! value-carrying record is a pointer bump end to end (DESIGN.md §10).
//!
//! Single-threaded by design, like every shared structure in the
//! simulation: the backing refcount is [`Rc`], the in-process analog of the
//! `Arc<[u8]>` a multi-core backend would use.

use std::fmt;
use std::rc::Rc;

/// A refcounted, immutable byte slice: `Rc<[u8]>` plus a window.
///
/// Cloning bumps the refcount; [`SharedBytes::slice`] narrows the window
/// without touching the buffer. Equality is by content (two buffers with
/// the same bytes compare equal); [`SharedBytes::ptr_eq`] distinguishes
/// *sharing*, which the refcount tests rely on.
#[derive(Clone)]
pub struct SharedBytes {
    buf: Rc<[u8]>,
    start: usize,
    len: usize,
}

impl SharedBytes {
    /// Copies `bytes` into a fresh shared buffer (the one copy a payload
    /// ever pays; every later handoff is a refcount bump).
    #[must_use]
    pub fn copy_from(bytes: &[u8]) -> SharedBytes {
        SharedBytes {
            buf: Rc::from(bytes),
            start: 0,
            len: bytes.len(),
        }
    }

    /// Wraps an owned buffer without copying.
    #[must_use]
    pub fn from_vec(bytes: Vec<u8>) -> SharedBytes {
        let len = bytes.len();
        SharedBytes {
            buf: Rc::from(bytes),
            start: 0,
            len,
        }
    }

    /// An empty buffer (no allocation).
    #[must_use]
    pub fn empty() -> SharedBytes {
        SharedBytes {
            buf: Rc::from(&[][..]),
            start: 0,
            len: 0,
        }
    }

    /// Logical length of this view in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }

    /// O(1) subslice sharing the same buffer. Panics if the range exceeds
    /// this view.
    #[must_use]
    pub fn slice(&self, start: usize, len: usize) -> SharedBytes {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "slice [{start}, {start}+{len}) out of bounds of view of {} bytes",
            self.len
        );
        SharedBytes {
            buf: self.buf.clone(),
            start: self.start + start,
            len,
        }
    }

    /// True if both views share one backing buffer (regardless of window).
    #[must_use]
    pub fn ptr_eq(&self, other: &SharedBytes) -> bool {
        Rc::ptr_eq(&self.buf, &other.buf)
    }

    /// Number of live views of the backing buffer.
    #[must_use]
    pub fn ref_count(&self) -> usize {
        Rc::strong_count(&self.buf)
    }

    /// Content fingerprint (FNV-1a over the viewed bytes).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        crate::ids::fnv1a(self.as_slice())
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &SharedBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedBytes {}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytes[{}B;{:x}]", self.len, self.fingerprint())
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(bytes: &[u8]) -> SharedBytes {
        SharedBytes::copy_from(bytes)
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> SharedBytes {
        SharedBytes::from_vec(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_buffer() {
        let a = SharedBytes::copy_from(b"hello shared world");
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(a, b);
        assert_eq!(a.ref_count(), 2);
        drop(b);
        assert_eq!(a.ref_count(), 1);
    }

    #[test]
    fn slicing_is_zero_copy() {
        let a = SharedBytes::copy_from(b"hello shared world");
        let mid = a.slice(6, 6);
        assert_eq!(mid.as_slice(), b"shared");
        assert!(mid.ptr_eq(&a));
        let nested = mid.slice(0, 3);
        assert_eq!(nested.as_slice(), b"sha");
        assert!(nested.ptr_eq(&a));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_bounds_checked() {
        let a = SharedBytes::copy_from(b"abc");
        let _ = a.slice(2, 2);
    }

    #[test]
    fn equality_is_by_content() {
        let a = SharedBytes::copy_from(b"same");
        let b = SharedBytes::copy_from(b"same");
        assert_eq!(a, b);
        assert!(!a.ptr_eq(&b));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn empty_is_allocation_free_to_clone() {
        let e = SharedBytes::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.as_slice(), b"");
    }
}
