//! Content-addressed frame store.
//!
//! The store keeps decoded configuration frames keyed by a two-level
//! deterministic content hash:
//!
//! * the **canonical hash** — a 128-bit hash of the frame's
//!   LUT-symmetry canonical form (see [`canon`](crate::canon)) — names
//!   the frame's *equivalence class*: all input-permuted variants of a
//!   frame land in the same bucket;
//! * the **raw hash** — a 64-bit hash of the exact bytes — selects a
//!   concrete variant inside the bucket.
//!
//! A frame that recurs across different algorithms' bitstreams (or in
//! a permuted guise) is fetched, decompressed and verified once and
//! then served from RAM. The store is the co-processor-side half of
//! the [`DeltaV2`](crate::codec::CodecId::DeltaV2) pipeline: the codec
//! embeds frame hashes in its per-frame records and the configuration
//! module probes the store before spending decompressor cycles.
//!
//! Two invariants keep dedup honest:
//!
//! * **store hit ⇒ byte-equal frame**: every insert byte-compares
//!   against the resident entry under the same key; if two *different*
//!   frames ever collide, the key is poisoned and never served again
//!   (collisions make lookups slower, never wrong). Canonical-level
//!   serving is additionally CRC-guarded by the caller, because the
//!   probing record's original frame was never itself inserted.
//! * bounded memory: entries are evicted least-recently-used against a
//!   byte budget (raw + cached canonical bytes both count), mirroring
//!   the `DecodedCache` discipline, so the store models a fixed slice
//!   of card RAM.

use crate::canon::canon_frame;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Deterministic 128-bit content hash: two independent FNV-1a-64
/// passes with distinct offset bases, packed high/low, plus a length
/// tag. Stable across runs, platforms and map iteration order.
pub fn content_hash(bytes: &[u8]) -> u128 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut a: u64 = 0xCBF2_9CE4_8422_2325; // standard FNV offset basis
    let mut b: u64 = 0x6C62_272E_07BB_0142;
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(PRIME);
        b = (b ^ u64::from(byte.rotate_left(3))).wrapping_mul(PRIME);
    }
    a = (a ^ bytes.len() as u64).wrapping_mul(PRIME);
    (u128::from(a) << 64) | u128::from(b)
}

/// The two-level store key of a frame: canonical-class hash plus
/// exact-content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FrameKey {
    /// 128-bit hash of the frame's LUT-canonical form.
    pub canon: u128,
    /// 64-bit hash of the frame's exact bytes.
    pub raw: u64,
}

/// Computes a frame's store key (canonicalises internally).
pub fn frame_key(frame: &[u8]) -> FrameKey {
    let (canonical, _) = canon_frame(frame);
    FrameKey {
        canon: content_hash(&canonical),
        raw: (content_hash(frame) >> 64) as u64,
    }
}

#[derive(Debug, Clone)]
struct Entry {
    raw: Arc<Vec<u8>>,
    canonical: Arc<Vec<u8>>,
    stamp: u64,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.raw.len() + self.canonical.len()
    }
}

/// Counters describing store effectiveness; folded into `OsStats` by
/// the MCU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStoreStats {
    /// Lookups answered from the store (raw or canonical level).
    pub hits: u64,
    /// Lookups that fell through to the decompressor.
    pub misses: u64,
    /// Frame bytes that did not need decoding thanks to hits.
    pub bytes_deduped: u64,
    /// Frames newly inserted.
    pub inserted: u64,
    /// Entries dropped to stay within the byte budget.
    pub evicted: u64,
    /// Keys poisoned because two different frames collided (never
    /// observed in practice; counted so it cannot hide).
    pub collisions: u64,
}

/// Byte-bounded, LRU-evicting, content-addressed store of decoded
/// configuration frames.
///
/// A capacity of zero disables the store: every lookup misses and
/// inserts are dropped, which the codec path treats as "decode
/// everything locally".
#[derive(Debug, Clone)]
pub struct FrameStore {
    capacity_bytes: usize,
    bytes: usize,
    entries: BTreeMap<(u128, u64), Entry>,
    /// `(stamp, key)` recency index — smallest stamp is the LRU entry.
    recency: BTreeSet<(u64, (u128, u64))>,
    /// Exact keys that witnessed a raw-content collision; never served.
    poisoned_raw: BTreeSet<(u128, u64)>,
    /// Canonical hashes whose bucket held two different canonical
    /// forms; canonical-level serving disabled for them.
    poisoned_canon: BTreeSet<u128>,
    next_stamp: u64,
    stats: FrameStoreStats,
}

impl FrameStore {
    /// Creates a store bounded to `capacity_bytes` of frame payload
    /// (raw plus cached canonical bytes).
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            bytes: 0,
            entries: BTreeMap::new(),
            recency: BTreeSet::new(),
            poisoned_raw: BTreeSet::new(),
            poisoned_canon: BTreeSet::new(),
            next_stamp: 0,
            stats: FrameStoreStats::default(),
        }
    }

    /// True when the store can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// Configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently resident.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of resident frames.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no frames are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Effectiveness counters since the last [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> FrameStoreStats {
        self.stats
    }

    /// Zeroes the counters without touching resident frames.
    pub fn reset_stats(&mut self) {
        self.stats = FrameStoreStats::default();
    }

    fn promote(&mut self, key: (u128, u64)) {
        let next = self.next_stamp;
        let entry = self.entries.get_mut(&key).expect("promote of resident");
        self.recency.remove(&(entry.stamp, key));
        entry.stamp = next;
        self.recency.insert((next, key));
        self.next_stamp += 1;
    }

    /// Looks up the exact frame for `key`, promoting it and counting a
    /// hit; `None` (a counted miss) when absent or poisoned.
    pub fn get_raw(&mut self, key: FrameKey) -> Option<Arc<Vec<u8>>> {
        let k = (key.canon, key.raw);
        if self.poisoned_raw.contains(&k) || !self.entries.contains_key(&k) {
            self.stats.misses += 1;
            return None;
        }
        self.promote(k);
        let frame = Arc::clone(&self.entries[&k].raw);
        self.stats.hits += 1;
        self.stats.bytes_deduped += frame.len() as u64;
        Some(frame)
    }

    /// Looks up the *canonical form* resident under canonical hash
    /// `canon` — any permuted variant of the wanted frame serves it.
    /// The bucket member with the smallest raw hash answers (a
    /// deterministic choice; all unpoisoned members carry byte-equal
    /// canonical forms). Counts a hit/miss like [`get_raw`](Self::get_raw).
    pub fn get_canon(&mut self, canon: u128) -> Option<Arc<Vec<u8>>> {
        if self.poisoned_canon.contains(&canon) {
            self.stats.misses += 1;
            return None;
        }
        let key = match self
            .entries
            .range((canon, 0)..=(canon, u64::MAX))
            .map(|(&k, _)| k)
            .find(|k| !self.poisoned_raw.contains(k))
        {
            Some(k) => k,
            None => {
                self.stats.misses += 1;
                return None;
            }
        };
        self.promote(key);
        let canonical = Arc::clone(&self.entries[&key].canonical);
        self.stats.hits += 1;
        self.stats.bytes_deduped += canonical.len() as u64;
        Some(canonical)
    }

    /// Peeks without promoting or counting — used by tests and
    /// encoders probing what a card already holds.
    pub fn contains(&self, key: FrameKey) -> bool {
        let k = (key.canon, key.raw);
        !self.poisoned_raw.contains(&k) && self.entries.contains_key(&k)
    }

    /// Inserts a decoded frame. Returns `true` when newly stored. A
    /// byte-identical duplicate refreshes recency; a *different* frame
    /// under the same key poisons that key (the resident entry is
    /// dropped and the key is never served again).
    pub fn insert(&mut self, frame: &[u8]) -> bool {
        let (canonical, _) = canon_frame(frame);
        if !self.is_enabled() || frame.len() + canonical.len() > self.capacity_bytes {
            return false;
        }
        let canon = content_hash(&canonical);
        let raw = (content_hash(frame) >> 64) as u64;
        let k = (canon, raw);
        if self.poisoned_raw.contains(&k) {
            return false;
        }
        if let Some(entry) = self.entries.get(&k) {
            if entry.raw.as_slice() == frame {
                // refresh recency so hot shared frames survive eviction
                self.promote(k);
                return false;
            }
            // genuine collision on the full two-level key: refuse to
            // ever serve it again
            self.stats.collisions += 1;
            let entry = self.entries.remove(&k).expect("present");
            self.recency.remove(&(entry.stamp, k));
            self.bytes -= entry.bytes();
            self.poisoned_raw.insert(k);
            self.poisoned_canon.insert(canon);
            return false;
        }
        // canonical-level guard: a bucket member whose canonical form
        // differs means the 128-bit canonical hash collided — disable
        // canonical serving for the bucket (raw serving stays valid)
        if !self.poisoned_canon.contains(&canon)
            && self
                .entries
                .range((canon, 0)..=(canon, u64::MAX))
                .any(|(_, e)| e.canonical.as_slice() != canonical.as_slice())
        {
            self.stats.collisions += 1;
            self.poisoned_canon.insert(canon);
        }
        while self.bytes + frame.len() + canonical.len() > self.capacity_bytes {
            let &(stamp, victim) = self.recency.iter().next().expect("over budget ⇒ non-empty");
            self.recency.remove(&(stamp, victim));
            let entry = self.entries.remove(&victim).expect("indexed");
            self.bytes -= entry.bytes();
            self.stats.evicted += 1;
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.bytes += frame.len() + canonical.len();
        self.entries.insert(
            k,
            Entry {
                raw: Arc::new(frame.to_vec()),
                canonical: Arc::new(canonical),
                stamp,
            },
        );
        self.recency.insert((stamp, k));
        self.stats.inserted += 1;
        true
    }

    /// Drops every resident frame (the watchdog's card reset); poison
    /// sets survive, counters are reset separately via
    /// [`reset_stats`](Self::reset_stats).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::{canon_frame, permute_frame};
    use aaod_sim::SplitMix64;

    #[test]
    fn hash_is_content_deterministic() {
        let a = content_hash(b"frame-contents");
        assert_eq!(a, content_hash(b"frame-contents"));
        assert_ne!(a, content_hash(b"frame-content!"));
        assert_ne!(content_hash(&[0u8; 8]), content_hash(&[0u8; 9]));
    }

    #[test]
    fn raw_hit_returns_byte_equal_frame() {
        let mut store = FrameStore::new(1 << 16);
        let mut rng = SplitMix64::new(0x57_0001);
        let mut frames = Vec::new();
        for _ in 0..32 {
            let mut f = vec![0u8; 64];
            rng.fill(&mut f);
            store.insert(&f);
            frames.push(f);
        }
        for f in &frames {
            let got = store.get_raw(frame_key(f)).expect("resident");
            assert_eq!(got.as_slice(), f.as_slice());
        }
        assert_eq!(store.stats().hits, 32);
        assert_eq!(store.stats().bytes_deduped, 32 * 64);
    }

    #[test]
    fn permuted_variant_serves_canonical_form() {
        let mut store = FrameStore::new(1 << 16);
        let mut rng = SplitMix64::new(0x57_0002);
        let mut frame = vec![0u8; 64];
        rng.fill(&mut frame);
        let variant = permute_frame(&frame, 17);
        store.insert(&frame);
        let key = frame_key(&variant);
        // exact variant absent ...
        assert!(!store.contains(key));
        // ... but its canonical class is resident
        let canonical = store.get_canon(key.canon).expect("class resident");
        assert_eq!(canonical.as_slice(), canon_frame(&variant).0.as_slice());
    }

    #[test]
    fn duplicate_insert_refreshes_without_growth() {
        let mut store = FrameStore::new(1024);
        assert!(store.insert(&[1u8; 64]));
        assert!(!store.insert(&[1u8; 64]));
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().inserted, 1);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        // entries cost raw + canonical bytes, i.e. 128 each here
        let mut store = FrameStore::new(256);
        let a = vec![0xAAu8; 64];
        let b = vec![0xBBu8; 64];
        let c = vec![0xCCu8; 64];
        store.insert(&a);
        store.insert(&b);
        // touch a so b becomes LRU
        assert!(store.get_raw(frame_key(&a)).is_some());
        store.insert(&c);
        assert!(store.contains(frame_key(&a)));
        assert!(!store.contains(frame_key(&b)), "LRU entry evicted");
        assert!(store.contains(frame_key(&c)));
        assert_eq!(store.bytes(), 256);
        assert_eq!(store.stats().evicted, 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut store = FrameStore::new(0);
        assert!(!store.is_enabled());
        assert!(!store.insert(&[1, 2, 3]));
        assert!(store.get_raw(frame_key(&[1, 2, 3])).is_none());
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn oversized_frame_is_rejected_not_thrashed() {
        let mut store = FrameStore::new(64);
        store.insert(&[7u8; 16]);
        assert!(!store.insert(&[9u8; 64]));
        assert!(store.contains(frame_key(&[7u8; 16])), "resident survives");
    }

    #[test]
    fn misses_are_counted() {
        let mut store = FrameStore::new(1024);
        assert!(store.get_raw(frame_key(b"absent")).is_none());
        assert!(store.get_canon(frame_key(b"absent").canon).is_none());
        assert_eq!(
            store.stats(),
            FrameStoreStats {
                misses: 2,
                ..FrameStoreStats::default()
            }
        );
    }

    #[test]
    fn clear_drops_frames_but_keeps_counters() {
        let mut store = FrameStore::new(1024);
        store.insert(&[5u8; 32]);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.bytes(), 0);
        assert_eq!(store.stats().inserted, 1);
    }
}
