//! [`WordHasher`]: the one deterministic hash for keys the program derives
//! itself.
//!
//! SipHash (`RandomState`) resists keys crafted to collide, at a price paid
//! on every probe. Cube periods, catalog keys, packed group keys and page
//! ids are built by this program, never chosen by a client, so their maps
//! and shard picks use this multiply-rotate hash instead: one add and one
//! multiply per machine word, and the same value in every run, so shard
//! placement is reproducible. Maps keyed by bytes a client sends keep
//! `RandomState`.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// Odd multiplier with well-spread bits (the constant rustc's own
/// `FxHasher` uses since its 2.0 rewrite).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Word-at-a-time multiply hash. Build through [`WordHashState`].
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            for (w, b) in word.iter_mut().zip(tail) {
                *w = *b;
            }
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's high bits are its best mixed; the rotation brings
    /// them down to where `HashMap` takes its bucket index.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The [`BuildHasher`] for [`WordHasher`]: stateless, so every map and
/// every run hashes alike.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHashState;

impl BuildHasher for WordHashState {
    type Hasher = WordHasher;

    #[inline]
    fn build_hasher(&self) -> WordHasher {
        WordHasher::default()
    }
}

/// A `HashMap` over program-derived keys.
pub type WordHashMap<K, V> = HashMap<K, V, WordHashState>;

/// Deterministic shard pick: which of `shards` (at least 1) `key` lives in.
#[inline]
pub fn shard_of<K: Hash + ?Sized>(key: &K, shards: usize) -> usize {
    (WordHashState.hash_one(key) % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_and_separates_words() {
        let h = |v: &dyn Fn(&mut WordHasher)| {
            let mut s = WordHasher::default();
            v(&mut s);
            s.finish()
        };
        assert_eq!(h(&|s| s.write_u64(7)), h(&|s| s.write_u64(7)));
        assert_ne!(h(&|s| s.write_u64(7)), h(&|s| s.write_u64(8)));
        assert_ne!(h(&|s| s.write_u128(1)), h(&|s| s.write_u128(1 << 64)));
        // Byte input folds a word at a time, tail zero-padded.
        assert_eq!(h(&|s| s.write(&[1, 2, 3])), h(&|s| s.write_u64(0x03_02_01)));
    }

    #[test]
    fn shard_pick_spreads_sequential_keys() {
        let mut counts = [0usize; 8];
        for k in 0u64..8_000 {
            if let Some(c) = counts.get_mut(shard_of(&k, 8)) {
                *c += 1;
            }
        }
        for c in counts {
            assert!((800..1_200).contains(&c), "uneven shard spread: {counts:?}");
        }
        assert_eq!(shard_of(&5u64, 0), 0, "a zero shard count is read as one");
    }
}
