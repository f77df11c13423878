//! The workspace's one stable content hash: 64-bit FNV-1a.
//!
//! Skeleton and device fingerprints, the QXBC and journal checksums, the
//! benchmark corpus manifest and the synthetic workload seeds all hash
//! with [`Fnv1a`]. Their values are persisted or published, so the
//! constants and byte order below must never change.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming 64-bit FNV-1a hasher. Integers are fed as little-endian
/// bytes, so a value does not depend on the platform.
///
/// ```
/// use qxmap_circuit::Fnv1a;
/// let mut h = Fnv1a::new();
/// h.write(b"foo");
/// h.write(b"bar");
/// assert_eq!(h.finish(), Fnv1a::hash(b"foobar"));
/// assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher over no bytes yet.
    #[inline]
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET)
    }

    /// The hash of `bytes` alone.
    #[inline]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }

    /// Feeds `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Feeds `v` as its 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors() {
        // Synthetic benchmark seeds hash profile names with this, so the
        // vectors also fix every generated workload.
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            h.finish(),
            Fnv1a::hash(&[8, 7, 6, 5, 4, 3, 2, 1]),
            "integers feed little-endian"
        );
    }
}
