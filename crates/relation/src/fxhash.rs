//! A minimal Fx-style hasher for hot paths.
//!
//! FD discovery hashes enormous numbers of small keys (tuple-id pairs,
//! attribute sets, dictionary codes). The standard library's SipHash is
//! DoS-resistant but slow for such keys; the multiply-rotate scheme below
//! (the rustc/Firefox "FxHash" construction) is 3–5× faster and more than
//! adequate for data that is not attacker-controlled. Hand-rolled here to
//! keep the dependency set to the approved list.

#![expect(
    clippy::disallowed_types,
    reason = "this module is the sanctioned wrapper: its aliases replace the default hasher"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// An empty [`FxHashMap`] with room for `n` entries.
#[inline]
pub fn fx_map_with_capacity<K, V>(n: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(n, BuildHasherDefault::default())
}

/// An empty [`FxHashSet`] with room for `n` entries.
#[inline]
pub fn fx_set_with_capacity<T>(n: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(n, BuildHasherDefault::default())
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc "FxHash" word-at-a-time multiply-rotate hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<(u32, u32), usize> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(41, 42)], 41);
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000u64 {
            s.insert(i * 7919);
        }
        assert_eq!(s.len(), 1000);
        assert!(s.contains(&(3 * 7919)));
    }

    #[test]
    fn deterministic_within_process() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(12345);
        b.write_u64(12345);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u64(12346);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(b"hello world, this is more than eight bytes");
        let h1 = a.finish();
        let mut b = FxHasher::default();
        b.write(b"hello world, this is more than eight bytes");
        assert_eq!(h1, b.finish());
        let mut c = FxHasher::default();
        c.write(b"hello world, this is more than eight bytez");
        assert_ne!(h1, c.finish());
    }

    #[test]
    fn attrset_keys() {
        use crate::attrset::AttrSet;
        let mut m: FxHashMap<AttrSet, u32> = FxHashMap::default();
        for i in 0..100 {
            m.insert(AttrSet::from_indices([i % 64, (i * 3) % 64]), i as u32);
        }
        assert!(!m.is_empty());
    }
}
