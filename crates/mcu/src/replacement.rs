//! Frame Replacement Table and policies (paper §2.5).
//!
//! The table gives "an indication of the list of frames occupied by
//! each algorithm present on the FPGA along with a time stamp
//! specifying the last moment at which it was accessed. That algorithm
//! which has the oldest time stamp provides extra frames for potential
//! reconfiguration" — i.e. the paper's policy is LRU over whole
//! algorithms. [`Replacement::Lru`] implements exactly that; FIFO,
//! LFU, random and the clairvoyant Belady oracle are the other
//! [`Replacement`] rules, baselines for experiment E4.

use aaod_fabric::FrameAddress;
use aaod_sim::{SimTime, SplitMix64};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Per-resident-algorithm bookkeeping: the Frame Replacement Table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residency {
    /// Frames the algorithm's logic occupies (possibly non-contiguous).
    pub frames: Vec<FrameAddress>,
    /// Timestamp of the most recent access.
    pub last_access: SimTime,
    /// Timestamp at which the algorithm was configured.
    pub loaded_at: SimTime,
    /// Number of accesses since it was configured.
    pub accesses: u64,
}

/// The Frame Replacement Table: resident algorithms and their frames.
///
/// Keyed by algorithm id in a `BTreeMap` so iteration order — and
/// therefore policy tie-breaking — is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplacementTable {
    entries: BTreeMap<u16, Residency>,
}

impl ReplacementTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ReplacementTable::default()
    }

    /// Number of resident algorithms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record that `algo_id` now occupies `frames`.
    pub fn insert(&mut self, algo_id: u16, frames: Vec<FrameAddress>, now: SimTime) {
        self.entries.insert(
            algo_id,
            Residency {
                frames,
                last_access: now,
                loaded_at: now,
                accesses: 0,
            },
        );
    }

    /// Removes an algorithm, returning its residency (frames to free).
    pub fn remove(&mut self, algo_id: u16) -> Option<Residency> {
        self.entries.remove(&algo_id)
    }

    /// Looks up a resident algorithm.
    pub fn get(&self, algo_id: u16) -> Option<&Residency> {
        self.entries.get(&algo_id)
    }

    /// Whether `algo_id` is resident.
    pub fn contains(&self, algo_id: u16) -> bool {
        self.entries.contains_key(&algo_id)
    }

    /// Updates the access timestamp and count.
    pub fn touch(&mut self, algo_id: u16, now: SimTime) {
        if let Some(r) = self.entries.get_mut(&algo_id) {
            r.last_access = now;
            r.accesses += 1;
        }
    }

    /// Iterates `(algo_id, residency)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &Residency)> {
        self.entries.iter().map(|(&k, v)| (k, v))
    }

    /// The resident algorithm ids in key order.
    pub fn resident_ids(&self) -> Vec<u16> {
        self.entries.keys().copied().collect()
    }
}

/// Chooses which resident algorithm surrenders its frames when the
/// free-frame list cannot satisfy a new configuration. LRU, FIFO and
/// LFU break ties toward the smaller id; among algorithms never used
/// again, Belady evicts the larger id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Replacement {
    /// The paper's policy: evict the algorithm with the oldest
    /// last-access timestamp.
    #[default]
    Lru,
    /// Evict the algorithm configured earliest.
    Fifo,
    /// Evict the least-frequently-used algorithm (ties: oldest access).
    Lfu,
    /// Evict a uniformly random resident algorithm, drawn from a
    /// seeded generator (deterministic).
    Random(SplitMix64),
    /// Belady's clairvoyant policy: evict the resident algorithm whose
    /// next use in the remaining request trace is farthest away (or
    /// never). It is the next-use oracle of E4, not a bound on mean
    /// service when functions differ in size.
    Belady(VecDeque<u16>),
}

impl Replacement {
    /// A random policy seeded with `seed`.
    pub fn random(seed: u64) -> Self {
        Replacement::Random(SplitMix64::new(seed))
    }

    /// A Belady oracle over the upcoming request trace (in order).
    pub fn belady<I: IntoIterator<Item = u16>>(trace: I) -> Self {
        Replacement::Belady(trace.into_iter().collect())
    }

    /// Policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Replacement::Lru => "lru",
            Replacement::Fifo => "fifo",
            Replacement::Lfu => "lfu",
            Replacement::Random(_) => "random",
            Replacement::Belady(_) => "belady",
        }
    }

    /// Called once per host request, before residency is checked: the
    /// Belady oracle consumes the trace up to and including `algo_id`,
    /// scanning past requests that diverged from it.
    pub fn on_request(&mut self, algo_id: u16) {
        if let Replacement::Belady(future) = self {
            while let Some(front) = future.pop_front() {
                if front == algo_id {
                    break;
                }
            }
        }
    }

    /// Picks the victim among the algorithms in `table`, or `None` if
    /// the table is empty.
    pub fn victim(&mut self, table: &ReplacementTable) -> Option<u16> {
        match self {
            Replacement::Lru => table
                .iter()
                .min_by_key(|&(id, r)| (r.last_access, id))
                .map(|(id, _)| id),
            Replacement::Fifo => table
                .iter()
                .min_by_key(|&(id, r)| (r.loaded_at, id))
                .map(|(id, _)| id),
            Replacement::Lfu => table
                .iter()
                .min_by_key(|&(id, r)| (r.accesses, r.last_access, id))
                .map(|(id, _)| id),
            Replacement::Random(rng) => {
                let ids = table.resident_ids();
                (!ids.is_empty()).then(|| ids[rng.index(ids.len())])
            }
            Replacement::Belady(future) => table.iter().map(|(id, _)| id).max_by_key(|&id| {
                let next = future.iter().position(|&a| a == id);
                (next.unwrap_or(usize::MAX), id)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(entries: &[(u16, u64, u64, u64)]) -> ReplacementTable {
        // (id, last_access_ns, loaded_ns, accesses)
        let mut t = ReplacementTable::new();
        for &(id, last, loaded, acc) in entries {
            t.insert(id, vec![FrameAddress(id)], SimTime::from_ns(loaded));
            if let Some(r) = t.entries.get_mut(&id) {
                r.last_access = SimTime::from_ns(last);
                r.accesses = acc;
            }
        }
        t
    }

    #[test]
    fn lru_picks_oldest_timestamp() {
        let t = table_with(&[(1, 100, 0, 5), (2, 50, 0, 9), (3, 200, 0, 1)]);
        assert_eq!(Replacement::Lru.victim(&t), Some(2));
    }

    #[test]
    fn fifo_picks_earliest_load() {
        let t = table_with(&[(1, 100, 30, 5), (2, 50, 10, 9), (3, 200, 20, 1)]);
        assert_eq!(Replacement::Fifo.victim(&t), Some(2));
    }

    #[test]
    fn lfu_picks_fewest_accesses() {
        let t = table_with(&[(1, 100, 0, 5), (2, 50, 0, 9), (3, 200, 0, 1)]);
        assert_eq!(Replacement::Lfu.victim(&t), Some(3));
    }

    #[test]
    fn ties_break_by_id() {
        // equal stamps, loads and counts: LRU, FIFO and LFU take the
        // smaller id; Belady takes the larger of those never used again
        let t = table_with(&[(4, 9, 9, 2), (2, 9, 9, 2), (7, 9, 9, 2)]);
        assert_eq!(Replacement::Lru.victim(&t), Some(2));
        assert_eq!(Replacement::Fifo.victim(&t), Some(2));
        assert_eq!(Replacement::Lfu.victim(&t), Some(2));
        assert_eq!(Replacement::belady([2u16]).victim(&t), Some(7));
    }

    #[test]
    fn policies_return_none_on_empty_table() {
        let t = ReplacementTable::new();
        for mut policy in [
            Replacement::Lru,
            Replacement::Fifo,
            Replacement::Lfu,
            Replacement::random(0),
            Replacement::belady([]),
        ] {
            assert_eq!(policy.victim(&t), None, "{}", policy.name());
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let t = table_with(&[(1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)]);
        let mut a = Replacement::random(7);
        let mut b = Replacement::random(7);
        for _ in 0..20 {
            assert_eq!(a.victim(&t), b.victim(&t));
        }
    }

    #[test]
    fn belady_evicts_farthest_next_use() {
        // future: 1, 2, 1, 3 — resident {1,2,3}: 3 is used last, but 3
        // appears at distance 3, while... resident 1 at distance 0,
        // 2 at distance 1, 3 at distance 3 -> victim 3? No: max
        // distance wins, and an algo never used again beats all.
        let t = table_with(&[(1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)]);
        let mut p = Replacement::belady([1u16, 2, 1, 3]);
        assert_eq!(p.victim(&t), Some(3));
        // after consuming request 1, future = [2,1,3]; add algo 4 that
        // never recurs — it must be the victim.
        p.on_request(1);
        let t2 = table_with(&[(1, 0, 0, 0), (2, 0, 0, 0), (4, 0, 0, 0)]);
        assert_eq!(p.victim(&t2), Some(4));
    }

    #[test]
    fn belady_consumes_trace() {
        let mut p = Replacement::belady([5u16, 6, 7]);
        p.on_request(5);
        assert_eq!(p, Replacement::belady([6u16, 7]));
        p.on_request(7); // skips the diverged 6
        assert_eq!(p, Replacement::belady([]));
    }

    #[test]
    fn table_touch_updates() {
        let mut t = ReplacementTable::new();
        t.insert(9, vec![FrameAddress(0)], SimTime::from_ns(5));
        t.touch(9, SimTime::from_ns(50));
        let r = t.get(9).unwrap();
        assert_eq!(r.last_access, SimTime::from_ns(50));
        assert_eq!(r.loaded_at, SimTime::from_ns(5));
        assert_eq!(r.accesses, 1);
        t.touch(999, SimTime::from_ns(60)); // no-op on absent id
    }

    #[test]
    fn table_remove_returns_frames() {
        let mut t = ReplacementTable::new();
        t.insert(1, vec![FrameAddress(4), FrameAddress(9)], SimTime::ZERO);
        let r = t.remove(1).unwrap();
        assert_eq!(r.frames, vec![FrameAddress(4), FrameAddress(9)]);
        assert!(t.remove(1).is_none());
        assert!(t.is_empty());
    }
}
