//! Summary statistics for experiment metrics.
//!
//! [`TimeAccumulator`] is the one sample store for modelled time: the
//! workload harness, the engine and the trace layer all record exact
//! [`SimTime`] samples into it and summarise them with one
//! nearest-rank rule into a [`Summary`]; benches print the summaries
//! as table rows.

use crate::SimTime;

/// A frozen statistical summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

/// The one modelled-time distribution: exact [`SimTime`] samples in
/// push order plus their running total, summarised by nearest rank.
///
/// Every latency the workspace reports (per-request service time, the
/// trace's per-stage and per-algorithm histograms, the percentile
/// deadline budget) is a nearest-rank order statistic over one of
/// these, so the rank rule lives here and nowhere else.
///
/// # Examples
///
/// ```
/// use aaod_sim::{stats::TimeAccumulator, SimTime};
///
/// let mut acc = TimeAccumulator::new();
/// acc.push(SimTime::from_ns(100));
/// acc.push(SimTime::from_ns(300));
/// assert_eq!(acc.summary_ns().mean, 200.0);
/// assert_eq!(acc.quantile(1.0), SimTime::from_ns(300));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeAccumulator {
    samples: Vec<SimTime>,
    total: SimTime,
}

/// Nearest-rank index of quantile `q` in a sorted set of `len > 0`
/// samples.
fn rank(len: usize, q: f64) -> usize {
    ((len - 1) as f64 * q).round() as usize
}

impl TimeAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        TimeAccumulator::default()
    }

    /// Adds a duration sample.
    pub fn push(&mut self, t: SimTime) {
        self.samples.push(t);
        self.total += t;
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimTime {
        self.total
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Appends every sample of `other`, keeping push order — used when
    /// combining per-shard accumulators into an engine-wide one.
    pub fn merge(&mut self, other: &TimeAccumulator) {
        self.samples.extend_from_slice(&other.samples);
        self.total += other.total;
    }

    /// The `q`-quantile (`0.0..=1.0`) by nearest rank;
    /// [`SimTime::ZERO`] when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimTime {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return SimTime::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted[rank(sorted.len(), q)]
    }

    /// Summary with all fields in nanoseconds.
    ///
    /// Sorts once and indexes every order statistic out of that copy.
    /// The mean sums [`SimTime::as_ns`] in push order; since `as_ns`
    /// never decreases as picoseconds grow, every field equals the
    /// nearest-rank summary of the samples taken as `f64` nanoseconds.
    pub fn summary_ns(&self) -> Summary {
        if self.samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let len = sorted.len();
        let at = |q: f64| sorted[rank(len, q)].as_ns();
        Summary {
            count: len,
            mean: self.samples.iter().map(|t| t.as_ns()).sum::<f64>() / len as f64,
            min: sorted[0].as_ns(),
            max: sorted[len - 1].as_ns(),
            p50: at(0.5),
            p95: at(0.95),
            p99: at(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn from_ns(samples: impl IntoIterator<Item = u64>) -> TimeAccumulator {
        let mut acc = TimeAccumulator::new();
        for ns in samples {
            acc.push(SimTime::from_ns(ns));
        }
        acc
    }

    #[test]
    fn empty_accumulator_is_zeroed() {
        let acc = TimeAccumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.total(), SimTime::ZERO);
        assert_eq!(acc.quantile(0.0), SimTime::ZERO);
        assert_eq!(acc.quantile(0.5), SimTime::ZERO);
        assert_eq!(acc.quantile(1.0), SimTime::ZERO);
        let s = acc.summary_ns();
        assert_eq!((s.mean, s.min, s.max), (0.0, 0.0, 0.0));
    }

    #[test]
    fn summary_fields() {
        let s = from_ns(1..=100).summary_ns();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 51.0); // nearest-rank: round(99 * 0.5) = 50 -> value 51
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_out_of_range_panics() {
        TimeAccumulator::new().quantile(1.5);
    }

    #[test]
    fn time_accumulator_totals() {
        let acc = from_ns([10, 30]);
        assert_eq!(acc.total(), SimTime::from_ns(40));
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.summary_ns().max, 30.0);
    }

    #[test]
    fn merge_appends_samples() {
        let mut a = from_ns([10]);
        a.merge(&from_ns([30, 50]));
        assert_eq!(a.count(), 3);
        assert_eq!(a.total(), SimTime::from_ns(90));
        assert_eq!(a.summary_ns().max, 50.0);
        assert_eq!(a, from_ns([10, 30, 50]), "merge keeps push order");
    }

    #[test]
    fn quantile_single_sample() {
        let acc = from_ns([42]);
        assert_eq!(acc.quantile(0.0), SimTime::from_ns(42));
        assert_eq!(acc.quantile(1.0), SimTime::from_ns(42));
    }

    #[test]
    fn single_sample_summary_is_degenerate() {
        let mut acc = TimeAccumulator::new();
        acc.push(SimTime::from_ps(7_500));
        let s = acc.summary_ns();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.min, 7.5);
        assert_eq!(s.max, 7.5);
        assert_eq!(s.p50, 7.5);
        assert_eq!(s.p95, 7.5);
        assert_eq!(s.p99, 7.5);
    }

    #[test]
    fn all_equal_samples_collapse_every_quantile() {
        let s = from_ns([3; 50]).summary_ns();
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p95, 3.0);
        assert_eq!(s.p99, 3.0);
    }

    #[test]
    fn merging_an_empty_accumulator_is_identity() {
        let mut a = from_ns([1, 9]);
        let before = a.clone();
        a.merge(&TimeAccumulator::new());
        assert_eq!(a, before);
        let mut empty = TimeAccumulator::new();
        empty.merge(&TimeAccumulator::new());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.total(), SimTime::ZERO);
        assert_eq!(empty.summary_ns(), Summary::default());
    }

    #[test]
    fn empty_summary_is_the_default() {
        assert_eq!(TimeAccumulator::new().summary_ns(), Summary::default());
    }

    /// The `f64` nearest-rank summary this type replaced: samples as
    /// nanoseconds in push order, sorted by `partial_cmp`.
    fn f64_oracle(ns: &[f64]) -> Summary {
        if ns.is_empty() {
            return Summary::default();
        }
        let mut sorted = ns.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let rank = |q: f64| ((sorted.len() as f64 - 1.0) * q).round() as usize;
        Summary {
            count: sorted.len(),
            mean: ns.iter().sum::<f64>() / ns.len() as f64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: sorted[rank(0.5)],
            p95: sorted[rank(0.95)],
            p99: sorted[rank(0.99)],
        }
    }

    fn assert_bits_eq(got: Summary, want: Summary) {
        assert_eq!(got.count, want.count);
        let bits = |s: Summary| [s.mean, s.min, s.max, s.p50, s.p95, s.p99].map(f64::to_bits);
        assert_eq!(bits(got), bits(want), "{got:?} vs {want:?}");
    }

    #[test]
    fn summary_matches_the_f64_nearest_rank_oracle_bit_for_bit() {
        let mut rng = SplitMix64::new(0x5eed_2005);
        for len in [0usize, 1, 2, 3, 7, 100, 101, 1_000, 4_099] {
            // few distinct values force duplicates; picosecond samples
            // up to ~1 s exercise the ps -> ns rounding
            let spread = if len % 2 == 0 { 17 } else { 1_000_000_000 };
            let mut acc = TimeAccumulator::new();
            let mut ns = Vec::new();
            for _ in 0..len {
                let t = SimTime::from_ps(rng.next_u64() % spread * 1_009);
                acc.push(t);
                ns.push(t.as_ns());
            }
            assert_bits_eq(acc.summary_ns(), f64_oracle(&ns));
            let want = f64_oracle(&ns);
            let got = [0.0, 0.5, 0.95, 0.99, 1.0].map(|q| acc.quantile(q).as_ns().to_bits());
            let want = [want.min, want.p50, want.p95, want.p99, want.max].map(f64::to_bits);
            assert_eq!(got, want, "quantile agrees with the summary");
            // merging shards appends in push order, like the oracle's
            // concatenated sample vector
            let mut other = TimeAccumulator::new();
            for _ in 0..len / 3 {
                let t = SimTime::from_ps(rng.next_u64() % spread * 997);
                other.push(t);
                ns.push(t.as_ns());
            }
            acc.merge(&other);
            assert_eq!(acc.count(), ns.len());
            assert_bits_eq(acc.summary_ns(), f64_oracle(&ns));
        }
    }
}
