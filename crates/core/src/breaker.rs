//! Generic circuit breaker, shared by shard- and card-level health
//! checking.
//!
//! A serving engine quarantines a sick shard instead of letting it
//! poison every request routed to it: after `failure_threshold`
//! *consecutive* failures the breaker trips open and the shard stops
//! accepting work; after a modelled cool-down it half-opens and lets a
//! single probe through — a success closes it again, another failure
//! re-opens it. All transitions happen in modelled [`SimTime`], so a
//! run's health timeline is a pure function of the workload and fault
//! plan.
//!
//! The state machine is deliberately independent of its driver: it
//! only sees "now", successes and failures, which keeps it unit
//! testable and reusable. The engine drives one breaker per shard;
//! the cluster router drives one per card. The cool-down is fixed: a
//! flapping resource that keeps failing its half-open probes is
//! probed again every [`BreakerConfig::cooldown`], measured from the
//! failed probe.
//!
//! # Examples
//!
//! ```
//! use aaod_core::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
//! use aaod_sim::SimTime;
//!
//! let mut b = CircuitBreaker::new(BreakerConfig {
//!     failure_threshold: 2,
//!     cooldown: SimTime::from_ms(1),
//! });
//! let t = SimTime::from_us(10);
//! b.record_failure(t);
//! b.record_failure(t);
//! assert_eq!(b.state(), BreakerState::Open);
//! assert!(!b.allow(t)); // still cooling down
//! assert!(b.allow(t + SimTime::from_ms(1))); // half-open probe
//! b.record_success();
//! assert_eq!(b.state(), BreakerState::Closed);
//! ```

use aaod_sim::SimTime;

/// The three classic breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: requests flow normally.
    Closed,
    /// Tripped: requests are rejected until the cool-down elapses.
    Open,
    /// Probing: one request is let through to test the shard.
    HalfOpen,
}

impl BreakerState {
    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Modelled time an open breaker waits before half-opening.
    pub cooldown: SimTime,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: SimTime::from_ms(5),
        }
    }
}

impl BreakerConfig {
    /// Checks the tuning is usable.
    ///
    /// # Panics
    ///
    /// Panics if the failure threshold is zero (the breaker would trip
    /// before the first request).
    pub fn validate(&self) {
        assert!(
            self.failure_threshold >= 1,
            "breaker failure threshold must be at least 1"
        );
    }
}

/// The breaker itself: state, counters and a health timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    trips: u64,
    reopens: u64,
    rejections: u64,
    probes: u64,
    failures: u64,
    timeline: Vec<(SimTime, BreakerState)>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid; see [`BreakerConfig::validate`].
    pub fn new(config: BreakerConfig) -> Self {
        config.validate();
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            trips: 0,
            reopens: 0,
            rejections: 0,
            probes: 0,
            failures: 0,
            timeline: vec![(SimTime::ZERO, BreakerState::Closed)],
        }
    }

    fn transition(&mut self, now: SimTime, to: BreakerState) {
        self.state = to;
        self.timeline.push((now, to));
    }

    /// Asks whether a request may proceed at modelled time `now`.
    ///
    /// Closed and half-open let it through; open rejects it unless the
    /// cool-down has elapsed, in which case the breaker half-opens and
    /// this request becomes the probe.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.opened_at + self.config.cooldown {
                    self.transition(now, BreakerState::HalfOpen);
                    self.probes += 1;
                    true
                } else {
                    self.rejections += 1;
                    false
                }
            }
        }
    }

    /// Records a served request: resets the failure streak and closes
    /// a half-open breaker.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            // the probe came back healthy — close at the time the
            // probe was admitted (already in the timeline)
            let at = self.timeline.last().map_or(SimTime::ZERO, |&(t, _)| t);
            self.transition(at, BreakerState::Closed);
        }
    }

    /// Records a failed request (fault, deadline miss or watchdog
    /// reset) at modelled time `now`: a half-open probe failure
    /// re-opens immediately; a closed breaker trips once the streak
    /// reaches the threshold.
    pub fn record_failure(&mut self, now: SimTime) {
        self.failures += 1;
        match self.state {
            BreakerState::HalfOpen => {
                self.reopens += 1;
                self.opened_at = now;
                self.transition(now, BreakerState::Open);
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trips += 1;
                    self.consecutive_failures = 0;
                    self.opened_at = now;
                    self.transition(now, BreakerState::Open);
                }
            }
            BreakerState::Open => {
                // failures reported against an already-open breaker
                // (in-flight work finishing late) don't re-trip it
            }
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the breaker is open right now (no cool-down check).
    pub fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }

    /// Current consecutive-failure streak.
    pub fn failure_streak(&self) -> u32 {
        self.consecutive_failures
    }

    /// Closed→open trips so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Half-open probe failures that re-opened the breaker.
    pub fn reopens(&self) -> u64 {
        self.reopens
    }

    /// Requests rejected while open.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Half-open probes admitted.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Every [`CircuitBreaker::record_failure`] call, regardless of
    /// state — the raw failure count conservation ledgers reconcile
    /// against.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// The tuning this breaker runs with.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Every state transition as `(modelled time, new state)`,
    /// starting with the initial closed state at time zero.
    pub fn timeline(&self) -> &[(SimTime, BreakerState)] {
        &self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown_us: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown: SimTime::from_us(cooldown_us),
        })
    }

    #[test]
    fn starts_closed_and_allows() {
        let mut b = breaker(3, 100);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(SimTime::ZERO));
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = breaker(3, 100);
        let t = SimTime::from_us(1);
        b.record_failure(t);
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = breaker(3, 100);
        let t = SimTime::from_us(1);
        b.record_failure(t);
        b.record_failure(t);
        b.record_success();
        assert_eq!(b.failure_streak(), 0);
        b.record_failure(t);
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
        b.record_failure(t);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn open_rejects_until_cooldown() {
        let mut b = breaker(1, 100);
        b.record_failure(SimTime::from_us(10));
        assert!(!b.allow(SimTime::from_us(50)));
        assert!(!b.allow(SimTime::from_us(109)));
        assert_eq!(b.rejections(), 2);
        // cool-down elapsed: half-open probe admitted
        assert!(b.allow(SimTime::from_us(110)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.probes(), 1);
    }

    #[test]
    fn half_open_probe_success_closes() {
        let mut b = breaker(1, 100);
        b.record_failure(SimTime::from_us(10));
        assert!(b.allow(SimTime::from_us(200)));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(SimTime::from_us(201)));
        assert_eq!(b.reopens(), 0);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut b = breaker(1, 100);
        b.record_failure(SimTime::from_us(10));
        assert!(b.allow(SimTime::from_us(200)));
        b.record_failure(SimTime::from_us(250));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.reopens(), 1);
        assert_eq!(b.trips(), 1, "re-open is not a fresh trip");
        // the cool-down restarts from the probe failure
        assert!(!b.allow(SimTime::from_us(300)));
        assert!(b.allow(SimTime::from_us(350)));
    }

    #[test]
    fn full_cycle_closed_open_half_open_closed() {
        let mut b = breaker(2, 50);
        let t = SimTime::from_us(5);
        b.record_failure(t);
        b.record_failure(t);
        assert!(b.is_open());
        assert!(b.allow(SimTime::from_us(60)));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let states: Vec<BreakerState> = b.timeline().iter().map(|&(_, s)| s).collect();
        assert_eq!(
            states,
            vec![
                BreakerState::Closed,
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed,
            ]
        );
    }

    #[test]
    fn timeline_times_are_monotonic() {
        let mut b = breaker(1, 10);
        let mut now = SimTime::from_us(1);
        for _ in 0..4 {
            b.record_failure(now);
            now += SimTime::from_us(20);
            assert!(b.allow(now));
            b.record_success();
            now += SimTime::from_us(1);
        }
        let times: Vec<SimTime> = b.timeline().iter().map(|&(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        assert_eq!(b.trips(), 4);
        assert_eq!(b.probes(), 4);
    }

    #[test]
    fn failures_while_open_do_not_retrip() {
        let mut b = breaker(1, 100);
        b.record_failure(SimTime::from_us(10));
        // in-flight work reporting failure after the trip
        b.record_failure(SimTime::from_us(20));
        b.record_failure(SimTime::from_us(30));
        assert_eq!(b.trips(), 1);
        // opened_at unchanged: cool-down runs from the original trip
        assert!(b.allow(SimTime::from_us(110)));
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut b = breaker(2, 75);
            let mut now = SimTime::ZERO;
            for i in 0..20u64 {
                now += SimTime::from_us(10);
                if b.allow(now) {
                    if i % 3 == 0 {
                        b.record_failure(now);
                    } else {
                        b.record_success();
                    }
                }
            }
            (
                b.trips(),
                b.reopens(),
                b.rejections(),
                b.probes(),
                b.timeline().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "failure threshold must be at least 1")]
    fn zero_threshold_panics() {
        let _ = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 0,
            cooldown: SimTime::ZERO,
        });
    }

    #[test]
    fn failures_counter_counts_every_report() {
        let mut b = breaker(1, 100);
        b.record_failure(SimTime::from_us(10));
        // late in-flight failures against an open breaker still count
        b.record_failure(SimTime::from_us(20));
        assert!(b.allow(SimTime::from_us(200)));
        b.record_failure(SimTime::from_us(210));
        assert_eq!(b.failures(), 3);
        assert_eq!(b.trips(), 1);
        assert_eq!(b.reopens(), 1);
    }

    #[test]
    fn default_growth_keeps_legacy_cooldown() {
        // re-opens never stretch the cool-down: every probe that fails
        // again is followed by the next one exactly `cooldown` later,
        // the schedule the golden traces pin
        let mut b = breaker(1, 100);
        b.record_failure(SimTime::from_us(0));
        for k in 1..5u64 {
            let probe_at = SimTime::from_us(k * 100);
            assert!(!b.allow(probe_at - SimTime::from_ps(1)), "probe {k} early");
            assert!(b.allow(probe_at), "probe {k}");
            b.record_failure(probe_at);
        }
        assert_eq!(b.reopens(), 4);
        assert_eq!(b.failures(), 5);
        assert_eq!(b.probes(), 4);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn flapping_faster_than_the_penalty_period_backs_off() {
        // a card that fails every probe, polled far faster than the
        // cool-down: the admitted probes space out at exactly the
        // cool-down instead of tracking the poll frequency
        let mut b = breaker(1, 10);
        b.record_failure(SimTime::ZERO);
        let mut admitted = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..2_000u64 {
            now += SimTime::from_us(1);
            if b.allow(now) {
                admitted.push(now);
                b.record_failure(now); // the flap strikes again
            }
        }
        assert_eq!(admitted[0], SimTime::from_us(10));
        let gaps: Vec<SimTime> = admitted.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.len() >= 5, "{gaps:?}");
        assert!(gaps.iter().all(|&g| g == SimTime::from_us(10)), "{gaps:?}");
        // the ledger still balances: every admitted probe re-opened,
        // every failure was counted, every other poll was rejected
        assert_eq!(b.reopens() as usize, admitted.len());
        assert_eq!(b.failures() as usize, admitted.len() + 1);
        assert_eq!(b.probes() as usize, admitted.len());
        assert_eq!(b.rejections() as usize, 2_000 - admitted.len());
    }

    #[test]
    fn escalating_timeline_is_still_monotonic_and_replayable() {
        let run = || {
            let mut b = breaker(2, 50);
            let mut now = SimTime::ZERO;
            for i in 0..60u64 {
                now += SimTime::from_us(25);
                if b.allow(now) {
                    if i % 4 == 0 {
                        b.record_success();
                    } else {
                        b.record_failure(now);
                    }
                }
            }
            (b.trips(), b.reopens(), b.failures(), b.timeline().to_vec())
        };
        let (trips, reopens, failures, timeline) = run();
        assert_eq!(run(), (trips, reopens, failures, timeline.clone()));
        let times: Vec<SimTime> = timeline.iter().map(|&(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }
}
