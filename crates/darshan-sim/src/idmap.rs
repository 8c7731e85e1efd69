//! Hash maps for the integer keys of the event fold: record ids,
//! descriptors, stream and mapping handles, interned path ids.
//!
//! The standard `HashMap` hashes with SipHash, which is built to resist
//! adversarial keys and costs tens of nanoseconds per lookup. These keys
//! are small integers chosen by the simulator (or record ids, already
//! mixed by [`crate::record_id`]), so one multiply-rotate round spreads
//! them well enough.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by integers, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A multiplicative hasher for integer keys (the Fx hash round).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.add(n as u32 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_keys_spread_and_round_trip() {
        let mut m: IdMap<i32, i32> = IdMap::default();
        for fd in -3..2_000 {
            m.insert(fd, fd * 2);
        }
        assert!((-3..2_000).all(|fd| m[&fd] == fd * 2));
        let hash = |n: u64| {
            let mut h = IdHasher::default();
            h.write_u64(n);
            h.finish()
        };
        // Consecutive keys differ in their high bits too (hashbrown's
        // control bytes come from the top seven).
        let tops: std::collections::HashSet<u64> = (0..64).map(|n| hash(n) >> 57).collect();
        assert!(tops.len() > 32, "{} distinct top bytes", tops.len());
    }
}
