//! Speculative configuration: a first-order Markov next-algorithm
//! predictor.
//!
//! An extension of the paper's on-demand design: request streams have
//! structure (an IPSec flow alternates cipher and authenticator), so
//! after each invocation the controller can use idle bus time to
//! pre-configure the *predicted next* function into free frames. The
//! predictor is deliberately tiny — a table of observed
//! `current → next` transition counts — because it must fit a
//! microcontroller.
//!
//! Prefetching may evict cold functions per the replacement policy —
//! on a full device it would otherwise never fire — but it refuses to
//! displace the just-invoked function or its own prediction target,
//! so a wrong guess can cost at most one extra swap-in later.

use std::collections::BTreeMap;

/// First-order Markov predictor over algorithm ids.
///
/// # Examples
///
/// ```
/// use aaod_mcu::prefetch::MarkovPredictor;
///
/// let mut p = MarkovPredictor::new();
/// for id in [1u16, 2, 1, 2, 1] {
///     p.observe(id);
/// }
/// assert_eq!(p.predict(), Some(2)); // after 1 comes 2
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MarkovPredictor {
    transitions: BTreeMap<u16, BTreeMap<u16, u64>>,
    last: Option<u16>,
}

impl MarkovPredictor {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        MarkovPredictor::default()
    }

    /// Records that `algo_id` was requested (after whatever was
    /// requested before it).
    pub fn observe(&mut self, algo_id: u16) {
        if let Some(prev) = self.last {
            *self
                .transitions
                .entry(prev)
                .or_default()
                .entry(algo_id)
                .or_insert(0) += 1;
        }
        self.last = Some(algo_id);
    }

    /// The most likely next algorithm given the last observation, or
    /// `None` before any transition has been seen. Ties break toward
    /// the smaller id (deterministic).
    pub fn predict(&self) -> Option<u16> {
        self.predict_after(self.last?)
    }

    /// The most likely successor of `algo_id` (highest transition
    /// count, ties to the smaller id), or `None` before any transition
    /// out of it has been seen.
    pub fn predict_after(&self, algo_id: u16) -> Option<u16> {
        self.transitions
            .get(&algo_id)?
            .iter()
            .max_by_key(|&(id, &count)| (count, std::cmp::Reverse(*id)))
            .map(|(&id, _)| id)
    }

    /// Number of distinct source states observed.
    pub fn states(&self) -> usize {
        self.transitions.len()
    }

    /// Forgets everything (used on reset).
    pub fn clear(&mut self) {
        self.transitions.clear();
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_predicts_nothing() {
        let p = MarkovPredictor::new();
        assert_eq!(p.predict(), None);
        let mut p = MarkovPredictor::new();
        p.observe(5);
        assert_eq!(p.predict(), None, "single observation has no transition");
    }

    #[test]
    fn learns_alternation() {
        let mut p = MarkovPredictor::new();
        for id in [1u16, 2, 1, 2, 1, 2] {
            p.observe(id);
        }
        assert_eq!(p.predict(), Some(1)); // last was 2; 2 -> 1 dominates
        p.observe(1);
        assert_eq!(p.predict(), Some(2));
    }

    #[test]
    fn learns_majority_transition() {
        let mut p = MarkovPredictor::new();
        // 3 -> 4 twice, 3 -> 5 once
        for id in [3u16, 4, 3, 5, 3, 4, 3] {
            p.observe(id);
        }
        assert_eq!(p.predict(), Some(4));
    }

    #[test]
    fn tie_breaks_to_smaller_id() {
        let mut p = MarkovPredictor::new();
        for id in [9u16, 1, 9, 2, 9] {
            p.observe(id);
        }
        assert_eq!(p.predict(), Some(1));
    }

    #[test]
    fn clear_forgets() {
        let mut p = MarkovPredictor::new();
        for id in [1u16, 2, 1] {
            p.observe(id);
        }
        p.clear();
        assert_eq!(p.predict(), None);
        assert_eq!(p.states(), 0);
    }
}
