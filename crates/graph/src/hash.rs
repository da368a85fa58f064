//! FNV-1a 64-bit — the workspace's one integrity/fingerprint hash.
//!
//! Tiny, dependency-free, and plenty to catch truncation and bit rot or to
//! key a cache by content (an integrity check, not a MAC). Every stored
//! checksum (model files, the admission journal), the
//! [`crate::Graph::content_fingerprint`] cache key and the serve layer's
//! request digests are this function over their own byte streams.

/// Incremental FNV-1a-64 hasher, usable over streamed chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::resume(Self::OFFSET_BASIS)
    }

    /// A hasher continuing from a previously [`finish`](Self::finish)ed
    /// digest, so more bytes can be folded into an existing one.
    pub fn resume(state: u64) -> Self {
        Fnv64 { state }
    }

    /// Folds `bytes` into the running digest.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a-64 of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
        let mut resumed = Fnv64::resume(fnv1a64(b"foo"));
        resumed.update(b"bar");
        assert_eq!(resumed.finish(), fnv1a64(b"foobar"));
    }
}
