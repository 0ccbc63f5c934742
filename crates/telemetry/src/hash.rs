//! The hasher of the maps a request touches: a seeded multiply-fold.
//!
//! `std`'s default `SipHash-1-3` costs tens of nanoseconds per lookup of
//! the 16–32-byte integer keys the data path uses (`NodeKey`, `ChunkKey`,
//! request ids), and a message does several. [`FoldState`] instead folds
//! each 64-bit word into the state with one 64 × 64 → 128-bit multiply
//! (the high and low halves XORed), the construction of `foldhash` and
//! `ahash`'s fallback, and folds once more to finish, so the low bits a
//! table indexes by and the top bits it tags with both depend on every
//! word. Each map draws its own seed — the starting state — from a
//! per-process random base, as `RandomState` does, so iteration order
//! stays unspecified and keys cannot be chosen offline to collide. Nothing
//! deterministic may depend on the order of these maps; partitioning uses
//! its own fixed mix.
//!
//! It lives here because the registry is the lowest crate whose maps use
//! it; `sads-sim` re-exports it.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A `HashMap` hashed by [`FoldState`]; make one with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, FoldState>;

/// A `HashSet` hashed by [`FoldState`]; make one with `FastSet::default()`.
pub type FastSet<T> = HashSet<T, FoldState>;

const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const FINISH: u64 = 0xBF58_476D_1CE4_E5B9;

fn fold(a: u64, b: u64) -> u64 {
    let p = a as u128 * b as u128;
    (p as u64) ^ (p >> 64) as u64
}

/// Builds [`FoldHasher`]s under one seed, different for every instance.
#[derive(Debug, Clone)]
pub struct FoldState {
    seed: u64,
}

impl FoldState {
    /// A state with a fresh seed: the process's random base, stepped once
    /// per instance.
    pub fn new() -> Self {
        static BASE: OnceLock<u64> = OnceLock::new();
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let base = *BASE.get_or_init(|| RandomState::new().hash_one(0u64));
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        FoldState { seed: fold(base ^ n.wrapping_mul(MUL), MUL) }
    }
}

impl Default for FoldState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed }
    }
}

/// One hash in progress: the map's seed with every word folded in.
#[derive(Debug, Clone)]
pub struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    fn write_u64(&mut self, x: u64) {
        self.state = fold(self.state ^ x, MUL);
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.write_u64(u64::from_le_bytes(tail) ^ ((bytes.len() as u64) << 56));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        fold(self.state, FINISH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_maps_get_different_seeds() {
        let (a, b) = (FoldState::new(), FoldState::new());
        assert_ne!(a.seed, b.seed);
        let differ = (0u64..64).filter(|k| a.hash_one(k) != b.hash_one(k)).count();
        assert_eq!(differ, 64, "every key hashes differently under the two seeds");
        // One state is one function: a map can find what it stored.
        assert_eq!(a.hash_one((7u64, "x")), a.clone().hash_one((7u64, "x")));
    }

    #[test]
    fn nearby_integer_keys_spread_over_buckets_and_tags() {
        // hashbrown indexes by the low bits and tags by the top seven;
        // consecutive ids, and keys differing in one field, must vary both.
        let s = FoldState::new();
        let low: HashSet<u64> = (0u64..1024).map(|k| s.hash_one(k) & 1023).collect();
        let top: HashSet<u64> = (0u64..4096).map(|k| s.hash_one((1u64, k)) >> 57).collect();
        // Uniform hashing fills ≈ 647 of 1024 buckets, give or take 10.
        assert!(low.len() > 560, "{} distinct low-bit buckets of 1024", low.len());
        assert_eq!(top.len(), 128, "every 7-bit tag used");
    }

    #[test]
    fn byte_strings_of_different_lengths_differ() {
        let s = FoldState::new();
        let h: HashSet<u64> = ["", "\0", "\0\0", "a", "a\0", "abcdefgh", "abcdefgh\0"]
            .iter()
            .map(|k| s.hash_one(k.as_bytes()))
            .collect();
        assert_eq!(h.len(), 7);
    }

    #[test]
    fn fast_maps_behave_as_maps() {
        let mut m: FastMap<(u64, u64), u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert((i, i * 3), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m[&(i, i * 3)] == i as u32));
        assert_eq!(m.remove(&(5, 15)), Some(5));
        assert!(!m.contains_key(&(5, 15)));
    }
}
