//! [`Slices`]: bytes held as ranges of shared element buffers.
//!
//! The front door answers a read with the elements it already holds —
//! cache hits and freshly fetched misses are both `Arc`ed element
//! buffers — instead of concatenating them into a new reply buffer.
//! The wire encoder writes each range straight to the socket; callers
//! that want one contiguous buffer flatten with [`Slices::into_vec`].

use std::ops::Range;
use std::sync::Arc;

/// An ordered list of `(buffer, range)` slices read as one byte string.
#[derive(Clone, Default)]
pub struct Slices {
    parts: Vec<(Arc<Vec<u8>>, Range<usize>)>,
    len: usize,
}

impl Slices {
    /// Append `buf[range]`. Empty ranges are skipped.
    ///
    /// # Panics
    /// If `range` does not lie inside `buf`.
    pub fn push(&mut self, buf: Arc<Vec<u8>>, range: Range<usize>) {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "slice {range:?} outside a {}-byte buffer",
            buf.len()
        );
        if range.is_empty() {
            return;
        }
        self.len += range.len();
        self.parts.push((buf, range));
    }

    /// Total bytes across all slices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bytes are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slices, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.parts.iter().map(|(buf, r)| &buf[r.clone()])
    }

    /// The bytes as one buffer. A single slice covering the whole of an
    /// unshared buffer is returned as is; anything else is copied once.
    pub fn into_vec(mut self) -> Vec<u8> {
        if self.parts.len() == 1 {
            let (buf, range) = self.parts.pop().expect("one part");
            if range == (0..buf.len()) {
                return Arc::try_unwrap(buf).unwrap_or_else(|shared| shared.to_vec());
            }
            return buf[range].to_vec();
        }
        let mut out = Vec::with_capacity(self.len);
        for s in self.iter() {
            out.extend_from_slice(s);
        }
        out
    }
}

impl From<Vec<u8>> for Slices {
    fn from(bytes: Vec<u8>) -> Self {
        let mut s = Slices::default();
        let len = bytes.len();
        s.push(Arc::new(bytes), 0..len);
        s
    }
}

/// Byte-wise equality: two `Slices` are equal when their concatenations
/// are, however they are split.
impl PartialEq for Slices {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().flatten().eq(other.iter().flatten())
    }
}

impl Eq for Slices {}

impl std::fmt::Debug for Slices {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Slices({} bytes in {} parts)",
            self.len,
            self.parts.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_in_order_and_compares_bytewise() {
        let a = Arc::new(vec![1u8, 2, 3, 4]);
        let b = Arc::new(vec![5u8, 6, 7]);
        let mut s = Slices::default();
        s.push(Arc::clone(&a), 1..4);
        s.push(Arc::clone(&b), 0..0);
        s.push(Arc::clone(&b), 0..2);
        assert_eq!(s.len(), 5);
        assert_eq!(s.iter().count(), 2);
        assert_eq!(s, Slices::from(vec![2, 3, 4, 5, 6]));
        assert_ne!(s, Slices::from(vec![2, 3, 4, 5, 7]));
        assert_eq!(s.into_vec(), vec![2, 3, 4, 5, 6]);
        assert!(Slices::default().is_empty());
    }

    #[test]
    fn whole_unshared_buffer_is_returned_without_copy() {
        let v = vec![9u8; 1000];
        let ptr = v.as_ptr();
        let out = Slices::from(v).into_vec();
        assert_eq!(out.as_ptr(), ptr);
        // Shared or partial: copied, still correct.
        let a = Arc::new(vec![1u8, 2, 3]);
        let mut s = Slices::default();
        s.push(Arc::clone(&a), 0..3);
        assert_eq!(s.into_vec(), vec![1, 2, 3]);
        let mut s = Slices::default();
        s.push(a, 1..2);
        assert_eq!(s.into_vec(), vec![2]);
    }
}
