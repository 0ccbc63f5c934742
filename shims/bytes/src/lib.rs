//! Offline stand-in for the `bytes` crate, API-compatible with the subset
//! this workspace uses.
//!
//! [`Bytes`] is an immutable, cheaply cloneable view into a ref-counted
//! buffer: `clone()` bumps a refcount and `slice()` narrows the view
//! without copying, which is exactly the property the zero-copy read path
//! relies on. The owner is an `Arc<Vec<u8>>`, so `Bytes::from(Vec<u8>)`
//! and [`BytesMut::freeze`] *move* the vector's allocation behind the
//! refcount — O(1), no byte copied. (An `Arc<[u8]>` owner, which this shim
//! used until PR 22, reallocates and memcpy's on every `From<Vec<u8>>`.)
//! The only constructors that copy are [`Bytes::from_static`] and the
//! `&'static` conversions, once, at construction. The unit tests pin this
//! by pointer identity.
//!
//! [`Bytes::try_join`] is the shim's one method that upstream `bytes`
//! does not have: it rejoins two adjacent views of one buffer into one,
//! which needs the owner identity and offset that upstream keeps private.
//! A one-shot read of pages one write cut from one buffer returns that
//! buffer's view through it instead of copying the pages.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted slice of bytes.
///
/// Cloning is O(1) (refcount bump); [`Bytes::slice`] narrows the view in
/// O(1) while sharing the same backing allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty `Bytes`.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wrap a static slice (copied once into a shared allocation).
    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    /// Length of the view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the view empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zero-copy sub-view of `self` over `range` (indices relative to
    /// this view). Panics when the range is out of bounds, matching the
    /// upstream crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end, "slice start {start} > end {end}");
        assert!(end <= self.len, "slice end {end} out of bounds (len {})", self.len);
        Bytes { data: Arc::clone(&self.data), off: self.off + start, len: end - start }
    }

    /// View as a plain byte slice.
    #[inline]
    #[allow(clippy::should_implement_trait)] // inherent method keeps call-site inference simple
    pub fn as_ref(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// `self` followed by `next` as one view, when both view the same
    /// buffer and `next` starts where `self` ends: O(1), nothing copied.
    /// `None` for views of different buffers (even with equal bytes), a
    /// gap, an overlap or the reverse order. Not in upstream `bytes`.
    pub fn try_join(&self, next: &Bytes) -> Option<Bytes> {
        let adjacent = Arc::ptr_eq(&self.data, &next.data) && self.off + self.len == next.off;
        let len = self.len + next.len;
        adjacent.then(|| Bytes { data: Arc::clone(&self.data), off: self.off, len })
    }

    /// Copy the view into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        Bytes::as_ref(self)
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_ref()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Moves `v` behind the refcount: the bytes stay where they are.
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes { data: Arc::new(v), off: 0, len }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({}B)", self.len)
    }
}

/// A growable byte buffer that freezes into [`Bytes`] without copying
/// (the `Vec` it grew is the allocation the `Bytes` then shares).
#[derive(Clone, Default, Debug)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    /// Current length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Resize, filling new space with `fill`.
    pub fn resize(&mut self, new_len: usize, fill: u8) {
        self.buf.resize(new_len, fill);
    }

    /// Convert into an immutable [`Bytes`] (moves the allocation; no copy).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl<'a> Extend<&'a u8> for BytesMut {
    fn extend<I: IntoIterator<Item = &'a u8>>(&mut self, iter: I) {
        self.buf.extend(iter.into_iter().copied());
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let s = b.slice(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(s.as_ref(), &(10u8..20).collect::<Vec<u8>>()[..]);
        // Nested slices stay relative to the view, not the allocation.
        let s2 = s.slice(2..4);
        assert_eq!(s2.as_ref(), &[12, 13]);
        // Clones share the same backing buffer.
        let c = b.clone();
        assert_eq!(Arc::strong_count(&b.data), 4);
        drop(c);
    }

    #[test]
    fn freeze_roundtrip() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"ab");
        m.extend_from_slice(b"cd");
        let f = m.freeze();
        assert_eq!(f, Bytes::from_static(b"abcd"));
        assert_eq!(&f[1..3], b"bc");
    }

    /// The claim the read path is built on: handing a buffer over never
    /// copies it. The heap address of the bytes is the same before and
    /// after `from` / `freeze`, and through every `clone` and `slice`.
    #[test]
    fn from_vec_and_freeze_keep_the_allocation() {
        let v: Vec<u8> = (0u8..200).collect();
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at, "From<Vec<u8>> must move, not copy");
        assert_eq!(b.clone().as_ptr(), at);
        let s = b.slice(50..150);
        assert_eq!(s.as_ptr(), at.wrapping_add(50));
        assert_eq!(s.slice(10..).clone().as_ptr(), at.wrapping_add(60));
        // The view outlives the handle it was cut from.
        drop(b);
        assert_eq!(s[0], 50);

        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(&[7u8; 64]);
        let at = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), at, "freeze must move, not copy");
    }

    /// Adjacent views of one buffer join into a view of that buffer;
    /// every other pair is refused, however equal its bytes.
    #[test]
    fn try_join_rejoins_adjacent_views_of_one_buffer_only() {
        let b = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let (l, r) = (b.slice(10..40), b.slice(40..70));
        let j = l.try_join(&r).expect("adjacent views of one buffer");
        assert_eq!(j.as_ptr(), b.as_ptr().wrapping_add(10), "a view, not a copy");
        assert_eq!(j, b.slice(10..70));
        assert_eq!(j.try_join(&b.slice(70..)).expect("chains").len(), 90);

        let twin = Bytes::from((0u8..100).collect::<Vec<u8>>());
        assert!(l.try_join(&twin.slice(40..70)).is_none(), "another owner, equal bytes");
        assert!(l.try_join(&b.slice(41..70)).is_none(), "a gap");
        assert!(l.try_join(&b.slice(39..70)).is_none(), "an overlap");
        assert!(r.try_join(&l).is_none(), "reversed order");
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_slice_panics() {
        let b = Bytes::from_static(b"xy");
        let _ = b.slice(0..3);
    }
}
