//! The row executor's one hasher, for the join build table, the group
//! index, the partial-merge index, and the DISTINCT sets.
//!
//! The std `HashMap` default (SipHash-1-3) spends most of a probe on a
//! keyed PRF this executor does not need: its keys are `Value`s whose
//! `Hash` writes a one-byte type tag plus one 8-byte word (text writes
//! its 4-byte dictionary id), so one SplitMix64 finaliser step per word
//! ([`perfdmf_telemetry::mix64`]) spreads them as well. The seed is
//! drawn once per process from the std `RandomState`: the keys come from
//! stored data, and a set of colliding values cannot be computed without
//! the seed. Bucket order differs between runs, so nothing can depend on
//! it.

use perfdmf_telemetry::{mix64, GOLDEN_GAMMA};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` on [`FastState`].
pub(crate) type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` on [`FastState`].
pub(crate) type FastSet<K> = HashSet<K, FastState>;

/// Builds [`FastHasher`]s from the per-process seed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        FastState {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(GOLDEN_GAMMA)),
        }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.seed)
    }
}

/// Folds each written word into the state with one `mix64` step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = mix64((self.0 ^ x).wrapping_add(GOLDEN_GAMMA));
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        // The length keeps "ab" + "" apart from "a" + "b".
        self.write_usize(bytes.len());
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn equal_values_hash_equal_and_keys_spread() {
        let s = FastState::default();
        assert_eq!(s.hash_one(Value::Int(3)), s.hash_one(Value::Float(3.0)));
        assert_eq!(s.hash_one(Value::from("x")), s.hash_one(Value::from("x")));
        // Consecutive integer keys land in distinct low bits, which is
        // what the table's bucket index reads.
        let buckets: HashSet<u64> = (0..1024)
            .map(|i| s.hash_one(Value::Int(i)) & 1023)
            .collect();
        assert!(buckets.len() > 600, "{} distinct buckets", buckets.len());
    }
}
