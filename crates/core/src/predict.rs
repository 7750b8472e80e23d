//! Online predictive scheduling model (extension; ROADMAP item 5).
//!
//! The offline planner ([`crate::dispatch`]) sees the whole workload
//! before dealing a single job. This module is the *online* variant:
//! a deterministic per-algorithm model fed one arrival at a time, a
//! pure function of the submitted id sequence — no wall-clock, no
//! thread timing, no queue-depth sampling. Two consumers share it:
//!
//! * **Engine shards** observe their own (deterministic) batch
//!   sequence and speculatively pre-configure the predicted next
//!   algorithm in the idle window after each batch
//!   ([`aaod_mcu::MiniOs::prefetch_hint`]), extending the E9
//!   single-card Markov prefetcher to the whole pool.
//! * **The cluster router** observes the global submission stream and
//!   replicates a hot algorithm to another card only after its
//!   popularity crosses an upper threshold, de-replicating only below
//!   a lower one (hysteresis), with a refractory period after each
//!   flip so a `flash_crowd` burst cannot make the placement
//!   oscillate. The pattern follows the ADPS activity-aware
//!   controller (hysteresis + refractory safeguards).
//!
//! Everything is integer arithmetic in fixed point ([`POP_SCALE`]),
//! and every tie breaks toward the smaller algorithm id, so the same
//! arrival stream always yields the same decisions on every platform.

use aaod_mcu::prefetch::MarkovPredictor;
use std::collections::{BTreeMap, BTreeSet};

/// Fixed-point scale of the popularity EWMA (`1.0` ≡ `POP_SCALE`).
pub const POP_SCALE: u64 = 1 << 16;

/// Tuning knobs for the online model. All decisions downstream of a
/// config are pure functions of (config, arrival sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictConfig {
    /// EWMA decay shift: each arrival decays every algorithm's
    /// popularity by `p >> ewma_shift` before crediting the arrived
    /// one with [`POP_SCALE`]. Steady state for an algorithm drawn
    /// with probability `f` is `f · POP_SCALE · 2^ewma_shift`, so the
    /// thresholds below are expressed in units of
    /// `POP_SCALE · 2^ewma_shift` ≈ "fraction of the stream".
    pub ewma_shift: u32,
    /// Replicate when popularity rises *above* this (fixed point).
    pub hot_up: u64,
    /// De-replicate when popularity falls *below* this (fixed point).
    /// Must be `< hot_up`; the gap is the hysteresis band.
    pub cold_down: u64,
    /// Minimum number of arrivals between two flips of the *same*
    /// algorithm (refractory period, in observations).
    pub refractory: u64,
}

impl Default for PredictConfig {
    /// Defaults tuned for the E19/E20 mixes: with `ewma_shift = 3`
    /// the steady-state popularity of a fraction-`f` algorithm is
    /// `8f · POP_SCALE`, so `hot_up = 4·POP_SCALE` trips when an
    /// algorithm sustains ≳ 50 % of the stream (the flash-crowd hot
    /// id reaches ≈ 7.2) and `cold_down = 2·POP_SCALE` releases it
    /// once it falls back under ≳ 25 %.
    fn default() -> Self {
        PredictConfig {
            ewma_shift: 3,
            hot_up: 4 * POP_SCALE,
            cold_down: 2 * POP_SCALE,
            refractory: 64,
        }
    }
}

/// Direction of a hysteresis flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flip {
    /// Popularity crossed [`PredictConfig::hot_up`]: add a replica.
    Replicate,
    /// Popularity fell below [`PredictConfig::cold_down`]: drop one.
    Dereplicate,
}

/// One replication decision, in submission order. `at` is the arrival
/// index (number of observations made when the flip fired), so a
/// recorded sequence pins the *logical* schedule independent of
/// modelled time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipRecord {
    /// Arrival index at which the flip fired.
    pub at: u64,
    /// The algorithm whose replica count changed.
    pub algo: u16,
    /// Which way it flipped.
    pub kind: Flip,
}

/// First-order transition counts plus a decayed popularity EWMA over
/// the arrival stream. The transitions are the controller's own
/// [`MarkovPredictor`]; this model adds only the popularity.
/// Deterministic: `BTreeMap` iteration order and smaller-id
/// tie-breaks only.
#[derive(Debug, Clone, Default)]
pub struct PredictModel {
    /// Next-algorithm transition counts.
    transitions: MarkovPredictor,
    /// Fixed-point popularity per algorithm (see [`POP_SCALE`]).
    popularity: BTreeMap<u16, u64>,
    /// Total arrivals observed.
    observed: u64,
    ewma_shift: u32,
}

impl PredictModel {
    /// An empty model with the given decay shift.
    pub fn new(ewma_shift: u32) -> Self {
        PredictModel {
            ewma_shift,
            ..PredictModel::default()
        }
    }

    /// Feeds one arrival: records the transition from the previous
    /// arrival, decays every algorithm's popularity and credits the
    /// arrived one.
    pub fn observe(&mut self, algo: u16) {
        self.transitions.observe(algo);
        for p in self.popularity.values_mut() {
            *p -= *p >> self.ewma_shift;
        }
        *self.popularity.entry(algo).or_insert(0) += POP_SCALE;
        self.observed += 1;
    }

    /// The most likely successor of the last observed arrival
    /// (highest transition count, ties to the smaller id).
    pub fn predict(&self) -> Option<u16> {
        self.transitions.predict()
    }

    /// The most likely successor of `algo`, if any transition from it
    /// has been observed.
    pub fn predict_after(&self, algo: u16) -> Option<u16> {
        self.transitions.predict_after(algo)
    }

    /// Current fixed-point popularity of `algo`.
    pub fn popularity(&self, algo: u16) -> u64 {
        self.popularity.get(&algo).copied().unwrap_or(0)
    }

    /// Every algorithm the model has seen, with its popularity,
    /// in ascending id order.
    pub fn popularities(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.popularity.iter().map(|(&a, &p)| (a, p))
    }

    /// Total arrivals observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }
}

/// Hysteresis + refractory gate over a [`PredictModel`]'s popularity:
/// tracks which algorithms are currently replicated and emits
/// [`FlipRecord`]s only when a threshold is crossed *and* the
/// algorithm is outside its refractory window.
#[derive(Debug, Clone)]
pub struct HysteresisGate {
    cfg: PredictConfig,
    /// Algorithms currently in the replicated (hot) state.
    replicated: BTreeSet<u16>,
    /// Arrival index of each algorithm's most recent flip.
    last_flip: BTreeMap<u16, u64>,
    /// Every flip emitted, in submission order.
    flips: Vec<FlipRecord>,
}

impl HysteresisGate {
    /// A gate with no algorithm replicated.
    pub fn new(cfg: PredictConfig) -> Self {
        HysteresisGate {
            cfg,
            replicated: BTreeSet::new(),
            last_flip: BTreeMap::new(),
            flips: Vec::new(),
        }
    }

    /// Evaluates every tracked algorithm against the thresholds at
    /// arrival index `at` and returns the flips that fire (ascending
    /// algorithm id). An algorithm whose last flip was fewer than
    /// [`PredictConfig::refractory`] arrivals ago is skipped even if
    /// its popularity has crossed a threshold.
    pub fn decide(&mut self, at: u64, model: &PredictModel) -> Vec<FlipRecord> {
        let mut fired = Vec::new();
        for (algo, pop) in model.popularities() {
            if let Some(&prev) = self.last_flip.get(&algo) {
                if at.saturating_sub(prev) < self.cfg.refractory {
                    continue;
                }
            }
            let hot = self.replicated.contains(&algo);
            let kind = if !hot && pop >= self.cfg.hot_up {
                Flip::Replicate
            } else if hot && pop <= self.cfg.cold_down {
                Flip::Dereplicate
            } else {
                continue;
            };
            match kind {
                Flip::Replicate => {
                    self.replicated.insert(algo);
                }
                Flip::Dereplicate => {
                    self.replicated.remove(&algo);
                }
            }
            self.last_flip.insert(algo, at);
            let rec = FlipRecord { at, algo, kind };
            self.flips.push(rec);
            fired.push(rec);
        }
        fired
    }

    /// Whether `algo` is currently in the replicated state.
    pub fn is_replicated(&self, algo: u16) -> bool {
        self.replicated.contains(&algo)
    }

    /// Every flip emitted so far, in submission order.
    pub fn flips(&self) -> &[FlipRecord] {
        &self.flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_predict_most_frequent_successor() {
        let mut m = PredictModel::new(3);
        for algo in [1u16, 2, 1, 2, 1, 3, 1, 2] {
            m.observe(algo);
        }
        // After 1 we saw 2 three times and 3 once.
        assert_eq!(m.predict_after(1), Some(2));
        // Last arrival was 2; 2 was always followed by 1.
        assert_eq!(m.predict(), Some(1));
        assert_eq!(m.predict_after(4), None);
    }

    #[test]
    fn prediction_ties_break_to_smaller_id() {
        let mut m = PredictModel::new(3);
        for algo in [5u16, 9, 5, 3, 5] {
            m.observe(algo);
        }
        // 5 → 9 once and 5 → 3 once: the tie goes to 3.
        assert_eq!(m.predict_after(5), Some(3));
    }

    #[test]
    fn popularity_converges_to_scaled_fraction() {
        let mut m = PredictModel::new(3);
        // Algorithm 7 takes the whole stream: steady state is
        // POP_SCALE · 2^3 = 8·POP_SCALE.
        for _ in 0..500 {
            m.observe(7);
        }
        let p = m.popularity(7);
        assert!(
            p > 7 * POP_SCALE && p <= 8 * POP_SCALE,
            "popularity {p} not near 8·POP_SCALE"
        );
        assert_eq!(m.popularity(8), 0);
    }

    #[test]
    fn observe_is_deterministic() {
        let stream: Vec<u16> = (0..200).map(|i| (i * 7 % 5) as u16).collect();
        let mut a = PredictModel::new(3);
        let mut b = PredictModel::new(3);
        for &s in &stream {
            a.observe(s);
            b.observe(s);
        }
        assert_eq!(a.predict(), b.predict());
        for algo in 0..5 {
            assert_eq!(a.popularity(algo), b.popularity(algo));
        }
    }

    #[test]
    fn gate_hysteresis_and_refractory() {
        let cfg = PredictConfig {
            ewma_shift: 3,
            hot_up: 4 * POP_SCALE,
            cold_down: 2 * POP_SCALE,
            refractory: 50,
        };
        let mut m = PredictModel::new(cfg.ewma_shift);
        let mut gate = HysteresisGate::new(cfg);
        let mut at = 0u64;
        // Hot burst: algo 1 dominates. The gate should replicate once
        // and then hold through the refractory window.
        for _ in 0..200 {
            m.observe(1);
            at += 1;
            gate.decide(at, &m);
        }
        assert!(gate.is_replicated(1));
        // Cold tail: algo 1 disappears; popularity decays below
        // cold_down and the gate de-replicates exactly once.
        for _ in 0..200 {
            m.observe(2);
            at += 1;
            gate.decide(at, &m);
        }
        assert!(!gate.is_replicated(1));
        let ones: Vec<&FlipRecord> = gate.flips().iter().filter(|f| f.algo == 1).collect();
        assert_eq!(ones.len(), 2, "expected exactly one flip each way");
        assert_eq!(ones[0].kind, Flip::Replicate);
        assert_eq!(ones[1].kind, Flip::Dereplicate);
        // Refractory: consecutive flips of one algorithm are spaced.
        for w in gate.flips().windows(2) {
            if w[0].algo == w[1].algo {
                assert!(
                    w[1].at - w[0].at >= cfg.refractory,
                    "flip inside refractory window: {w:?}"
                );
            }
        }
    }

    #[test]
    fn gate_does_not_oscillate_at_threshold() {
        // Alternating stream that hovers near the thresholds: without
        // hysteresis this would flip every few arrivals.
        let cfg = PredictConfig::default();
        let mut m = PredictModel::new(cfg.ewma_shift);
        let mut gate = HysteresisGate::new(cfg);
        for i in 0..1000u64 {
            m.observe((i % 2) as u16);
            gate.decide(i + 1, &m);
        }
        // 50/50 split sits at 4·POP_SCALE steady state — at most one
        // flip per algorithm, never a flap.
        for algo in 0..2 {
            let n = gate.flips().iter().filter(|f| f.algo == algo).count();
            assert!(n <= 1, "algo {algo} flapped {n} times");
        }
    }
}
