//! The hasher for block-index keys.
//!
//! The one-pass analyses ([`stackdist`](crate::stackdist), the 3C
//! counter and the guaranteed-bounds analysis in `mlc-wcet`) look up a
//! block index in a hash map once per trace reference, so the hash is
//! on their hot path. [`BlockHasher`] is a single multiply–xorshift mix
//! of the 64-bit key instead of the standard library's keyed SipHash.
//!
//! An unkeyed hash is acceptable here: the keys are block indices of
//! trace files the user runs locally, and none of these paths is
//! reachable from `mlc-serve`'s request handling, so no remote party
//! can choose keys that collide.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply–xorshift hasher for `u64` block indices.
///
/// # Examples
///
/// ```
/// use mlc_trace::hash::BlockMap;
///
/// let mut last_ref: BlockMap<usize> = BlockMap::default();
/// last_ref.insert(0x40, 1);
/// assert_eq!(last_ref.get(&0x40), Some(&1));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        // The multiply spreads the key into the high bits; the shift
        // folds them back down, since the table indexes by the low bits.
        let h = (self.0 ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// Builds [`BlockHasher`]s.
pub type BuildBlockHasher = BuildHasherDefault<BlockHasher>;

/// A hash map keyed by block index.
pub type BlockMap<V> = HashMap<u64, V, BuildBlockHasher>;

/// A hash set of block indices.
pub type BlockSet = HashSet<u64, BuildBlockHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // Block indices of a strided walk differ only in a few bits; the
        // low bits of their hashes (the table index) must still vary.
        let build = BuildBlockHasher::default();
        let buckets: BlockSet = (0..1024u64)
            .map(|i| build.hash_one(i << 12) & 1023)
            .collect();
        assert!(buckets.len() > 512, "{} distinct buckets", buckets.len());
    }
}
