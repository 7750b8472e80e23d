//! Decoded-bitstream cache (serving-engine extension).
//!
//! The paper's miss path decompresses the ROM bitstream window by
//! window on *every* swap-in, even when the same function was decoded
//! moments ago and merely evicted from the fabric. This module caches
//! the decompressed frame words in controller RAM: a re-miss after
//! eviction skips the LZSS/Huffman work and pays only the
//! configuration-port cost. The cache is a bounded LRU keyed by
//! `(algo_id, codec)` — the codec participates so a ROM image
//! re-downloaded under a different codec can never alias a stale entry.
//!
//! Recency is tracked with a generation counter: every touch stamps the
//! entry with a fresh generation and re-files it in a `BTreeSet`
//! ordered by stamp, so promotion and victim selection are O(log n)
//! instead of the O(n) list scan a naive LRU deque would pay on every
//! hit in the engine hot loop.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cache key: the function and the codec its ROM bitstream used.
pub type DecodedKey = (u16, u8);

/// One cached decode: the frames (shared, so a hit hands out a
/// reference-counted pointer instead of cloning the decoded bytes),
/// their byte total, and the generation stamp of the last touch
/// (mirrored in the recency index).
#[derive(Debug, Clone)]
struct Entry {
    frames: Arc<Vec<Vec<u8>>>,
    bytes: usize,
    stamp: u64,
}

/// A bounded LRU of decompressed configuration frames.
#[derive(Debug, Clone, Default)]
pub struct DecodedCache {
    capacity_bytes: usize,
    entries: BTreeMap<DecodedKey, Entry>,
    /// Recency index ordered by generation stamp; the first element is
    /// the least recently used victim.
    recency: BTreeSet<(u64, DecodedKey)>,
    clock: u64,
    bytes: usize,
    lookups: u64,
    hits: u64,
}

impl DecodedCache {
    /// Creates a cache bounded to `capacity_bytes` of decoded frame
    /// data. A zero capacity disables the cache entirely.
    pub fn new(capacity_bytes: usize) -> Self {
        DecodedCache {
            capacity_bytes,
            ..DecodedCache::default()
        }
    }

    /// Whether the cache stores anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// The configured bound in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Decoded bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of cached functions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `key` up, promoting it to most recently used. The frames
    /// come back as a shared [`Arc`] — an O(1) refcount bump, not a
    /// copy of the decoded bytes — so the caller can keep them past
    /// further cache mutation (eviction included).
    pub fn get(&mut self, key: &DecodedKey) -> Option<Arc<Vec<Vec<u8>>>> {
        self.lookups += 1;
        if !self.entries.contains_key(key) {
            return None;
        }
        self.hits += 1;
        self.touch(*key);
        self.entries.get(key).map(|e| Arc::clone(&e.frames))
    }

    /// Lookups performed via [`DecodedCache::get`].
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that found their entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed (`lookups - hits` by construction).
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Removes one entry, returning whether it was present. The
    /// recovery path purges a function's entry after its ROM image is
    /// found corrupt, so a stale decode can never resurrect it.
    pub fn remove(&mut self, key: &DecodedKey) -> bool {
        match self.entries.remove(key) {
            Some(old) => {
                self.bytes -= old.bytes;
                self.recency.remove(&(old.stamp, *key));
                true
            }
            None => false,
        }
    }

    /// Removes every entry for `algo_id`, whatever codec it was decoded
    /// under. Returns the number of entries dropped.
    pub fn remove_algo(&mut self, algo_id: u16) -> usize {
        let keys: Vec<DecodedKey> = self
            .entries
            .range((algo_id, u8::MIN)..=(algo_id, u8::MAX))
            .map(|(k, _)| *k)
            .collect();
        for key in &keys {
            self.remove(key);
        }
        keys.len()
    }

    /// Whether `key` is cached, without promoting it.
    pub fn contains(&self, key: &DecodedKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts decoded `frames` under `key`, evicting least recently
    /// used entries until the byte bound holds. An entry larger than
    /// the whole cache is not stored. The frames arrive shared, so the
    /// caller may keep its own handle on them without a copy. Returns
    /// the number of entries evicted.
    pub fn insert(&mut self, key: DecodedKey, frames: Arc<Vec<Vec<u8>>>) -> usize {
        if !self.is_enabled() {
            return 0;
        }
        let size: usize = frames.iter().map(Vec::len).sum();
        if size > self.capacity_bytes {
            return 0;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.bytes -= old.bytes;
            self.recency.remove(&(old.stamp, key));
        }
        let mut evicted = 0;
        while self.bytes + size > self.capacity_bytes {
            let (_, victim) = self.recency.pop_first().expect("bytes > 0 implies entries");
            let old = self
                .entries
                .remove(&victim)
                .expect("recency tracks entries");
            self.bytes -= old.bytes;
            evicted += 1;
        }
        self.clock += 1;
        self.bytes += size;
        self.recency.insert((self.clock, key));
        self.entries.insert(
            key,
            Entry {
                frames,
                bytes: size,
                stamp: self.clock,
            },
        );
        evicted
    }

    /// Drops every entry but keeps the lookup/hit ledger running: the
    /// population is gone, the measurement history is not. Use
    /// [`DecodedCache::reset_stats`] as well when the surrounding
    /// ledger (e.g. a watchdog card reset) restarts from zero.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.bytes = 0;
    }

    /// Zeroes the lookup/hit counters without touching the cached
    /// entries, so `hits + misses == lookups` holds over exactly the
    /// post-reset population.
    pub fn reset_stats(&mut self) {
        self.lookups = 0;
        self.hits = 0;
    }

    fn touch(&mut self, key: DecodedKey) {
        let entry = self.entries.get_mut(&key).expect("touch requires presence");
        self.recency.remove(&(entry.stamp, key));
        self.clock += 1;
        entry.stamp = self.clock;
        self.recency.insert((self.clock, key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize, bytes_each: usize, fill: u8) -> Arc<Vec<Vec<u8>>> {
        Arc::new((0..n).map(|_| vec![fill; bytes_each]).collect())
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut c = DecodedCache::new(1024);
        assert!(c.is_enabled());
        c.insert((1, 0), frames(3, 16, 0xAA));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 48);
        let got = c.get(&(1, 0)).expect("cached");
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|f| f == &vec![0xAA; 16]));
        assert!(c.get(&(1, 1)).is_none(), "codec participates in the key");
    }

    #[test]
    fn lru_eviction_under_byte_bound() {
        let mut c = DecodedCache::new(100);
        c.insert((1, 0), frames(1, 40, 1));
        c.insert((2, 0), frames(1, 40, 2));
        // touch 1 so 2 becomes the LRU victim
        assert!(c.get(&(1, 0)).is_some());
        let evicted = c.insert((3, 0), frames(1, 40, 3));
        assert_eq!(evicted, 1);
        assert!(c.contains(&(1, 0)));
        assert!(!c.contains(&(2, 0)));
        assert!(c.contains(&(3, 0)));
        assert!(c.bytes() <= 100);
    }

    #[test]
    fn oversized_entry_not_cached() {
        let mut c = DecodedCache::new(10);
        c.insert((1, 0), frames(1, 11, 0));
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let mut c = DecodedCache::new(100);
        c.insert((1, 0), frames(1, 30, 1));
        c.insert((1, 0), frames(1, 50, 2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 50);
        assert_eq!(c.get(&(1, 0)).unwrap()[0][0], 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = DecodedCache::new(0);
        assert!(!c.is_enabled());
        c.insert((1, 0), frames(1, 1, 0));
        assert!(c.is_empty());
        assert!(c.get(&(1, 0)).is_none());
    }

    #[test]
    fn clear_resets() {
        let mut c = DecodedCache::new(100);
        c.insert((1, 0), frames(2, 10, 0));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn clear_keeps_ledger_reset_stats_zeroes_it() {
        let mut c = DecodedCache::new(100);
        c.insert((1, 0), frames(1, 10, 0));
        assert!(c.get(&(1, 0)).is_some());
        assert!(c.get(&(2, 0)).is_none());
        c.clear();
        assert_eq!(c.lookups(), 2, "clear drops entries, not the ledger");
        assert_eq!(c.hits(), 1);
        c.reset_stats();
        assert_eq!(c.lookups(), 0);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        // post-reset lookups start a fresh, internally consistent ledger
        assert!(c.get(&(1, 0)).is_none());
        assert_eq!(c.lookups(), 1);
        assert_eq!(c.hits() + c.misses(), c.lookups());
    }

    #[test]
    fn counters_reconcile() {
        let mut c = DecodedCache::new(100);
        c.insert((1, 0), frames(1, 10, 0));
        assert!(c.get(&(1, 0)).is_some());
        assert!(c.get(&(2, 0)).is_none());
        assert!(c.get(&(1, 0)).is_some());
        assert_eq!(c.lookups(), 3);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits() + c.misses(), c.lookups());
    }

    #[test]
    fn remove_frees_bytes_and_order() {
        let mut c = DecodedCache::new(100);
        c.insert((1, 0), frames(1, 30, 1));
        c.insert((2, 0), frames(1, 30, 2));
        assert!(c.remove(&(1, 0)));
        assert!(!c.remove(&(1, 0)));
        assert_eq!(c.bytes(), 30);
        assert_eq!(c.len(), 1);
        // removed entry no longer participates in LRU eviction
        c.insert((3, 0), frames(1, 30, 3));
        c.insert((4, 0), frames(1, 30, 4));
        assert!(c.bytes() <= 100);
    }

    #[test]
    fn remove_algo_drops_every_codec() {
        let mut c = DecodedCache::new(100);
        c.insert((7, 0), frames(1, 10, 0));
        c.insert((7, 1), frames(1, 10, 1));
        c.insert((8, 0), frames(1, 10, 2));
        assert_eq!(c.remove_algo(7), 2);
        assert!(!c.contains(&(7, 0)));
        assert!(!c.contains(&(7, 1)));
        assert!(c.contains(&(8, 0)));
        assert_eq!(c.bytes(), 10);
    }

    #[test]
    fn recency_index_matches_entries_under_churn() {
        // deterministic interleaving of insert/get/remove keeps the
        // generation index and the entry map in lockstep
        let mut c = DecodedCache::new(200);
        for i in 0..64u16 {
            c.insert(
                (i % 11, (i % 3) as u8),
                frames(1, 10 + (i as usize % 7), i as u8),
            );
            if i % 2 == 0 {
                let _ = c.get(&((i % 5), 0));
            }
            if i % 7 == 0 {
                c.remove(&((i % 11), (i % 3) as u8));
            }
            assert_eq!(c.recency.len(), c.entries.len());
            let tracked: usize = c.entries.values().map(|e| e.bytes).sum();
            assert_eq!(tracked, c.bytes());
            assert!(c.bytes() <= c.capacity_bytes());
            for (key, entry) in &c.entries {
                assert!(c.recency.contains(&(entry.stamp, *key)));
            }
        }
    }
}
