//! Deadline, admission-control, watchdog and overload accounting
//! types for the serving engine.
//!
//! The engine's overload layer (configured through
//! [`EngineConfig::overload`](crate::EngineConfig), whose `None` is the
//! closed loop) gives every job a
//! modelled-time deadline, sheds work that cannot meet it, detects
//! stalled cards with a watchdog, and quarantines failing shards with
//! a per-shard [`CircuitBreaker`](crate::CircuitBreaker). Everything
//! here is expressed in modelled [`SimTime`], so the same (workload,
//! fault plan, seed) always produces the same counters.
//!
//! [`OverloadStats::accounted`] is the job-conservation invariant:
//! every submitted job ends in exactly one of completed, shed,
//! deadline-missed, faulted or quota-exceeded.
//!
//! With [`OverloadConfig::fairness`] set and a multi-tenant workload,
//! admission additionally sheds deterministically by weighted fair
//! share: a tenant whose admitted count runs ahead of its weighted
//! share (plus the configured slack) is shed first, so a flooding
//! tenant cannot starve the others. Fair sheds are counted both in
//! `shed` (they are sheds) and in `fair_shed` (their cause).

use crate::breaker::BreakerConfig;
use crate::error::{check_ledger, CoreError, Ledger};
use aaod_sim::SimTime;

/// How each job's deadline is derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlinePolicy {
    /// Every job gets the same absolute budget from its arrival.
    Absolute(SimTime),
    /// The budget is `multiplier ×` the given percentile of the
    /// estimated per-request service time, calibrated once on a
    /// scratch card before serving starts (deterministic: the
    /// calibration depends only on the workload).
    Percentile {
        /// Percentile of estimated service times, in `[0, 100]`.
        pct: f64,
        /// Slack multiplier applied to the percentile.
        multiplier: f64,
    },
}

impl DeadlinePolicy {
    /// Checks the policy is usable.
    ///
    /// # Panics
    ///
    /// Panics on a zero absolute budget, a percentile outside
    /// `[0, 100]`, or a non-positive multiplier.
    pub fn validate(&self) {
        match *self {
            DeadlinePolicy::Absolute(budget) => {
                assert!(budget > SimTime::ZERO, "deadline budget must be non-zero");
            }
            DeadlinePolicy::Percentile { pct, multiplier } => {
                assert!(
                    (0.0..=100.0).contains(&pct),
                    "deadline percentile must be in [0, 100]"
                );
                assert!(multiplier > 0.0, "deadline multiplier must be positive");
            }
        }
    }
}

/// Watchdog tuning: how long a card may go without a heartbeat before
/// it is declared stuck and reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Modelled heartbeat interval.
    pub heartbeat: SimTime,
    /// Heartbeats that may be missed before the reset fires.
    pub missed_beats: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            heartbeat: SimTime::from_ms(1),
            missed_beats: 3,
        }
    }
}

impl WatchdogConfig {
    /// The modelled time a stuck card burns before the watchdog fires:
    /// `heartbeat × missed_beats`.
    pub fn timeout(&self) -> SimTime {
        self.heartbeat * self.missed_beats as u64
    }

    /// Checks the tuning is usable.
    ///
    /// # Panics
    ///
    /// Panics on a zero heartbeat or zero missed-beat allowance.
    pub fn validate(&self) {
        assert!(
            self.heartbeat > SimTime::ZERO,
            "watchdog heartbeat must be non-zero"
        );
        assert!(
            self.missed_beats >= 1,
            "watchdog must allow at least one missed beat"
        );
    }
}

/// Weighted-fair admission tuning.
///
/// Fairness only engages when the workload carries tenant metadata
/// ([`Workload::tenant_specs`](aaod_workload::Workload::tenant_specs));
/// on an untagged workload admission stays pure drop-newest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairnessConfig {
    /// Percent a tenant's admitted count may overshoot its weighted
    /// fair share before admission sheds it. Larger = laxer policing.
    pub slack_pct: u32,
    /// Admissions every tenant gets unconditionally before the
    /// share test engages (avoids shedding the first arrivals of a
    /// low-weight tenant on a cold counter).
    pub base_allowance: u64,
}

impl Default for FairnessConfig {
    fn default() -> Self {
        FairnessConfig {
            slack_pct: 25,
            base_allowance: 2,
        }
    }
}

impl FairnessConfig {
    /// Checks the tuning is usable.
    ///
    /// # Panics
    ///
    /// Panics on a slack above 1000% (at that point the policy is
    /// inert and almost certainly a typo).
    pub fn validate(&self) {
        assert!(
            self.slack_pct <= 1000,
            "fairness slack above 1000% disables the policy"
        );
    }
}

/// Overload-layer configuration: offered load, deadlines, watchdog and
/// breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Modelled inter-arrival time: request `i` arrives at
    /// `i × interarrival` (scaled by the workload's arrival ticks
    /// when it carries a traffic model).
    pub interarrival: SimTime,
    /// Deadline derivation.
    pub deadline: DeadlinePolicy,
    /// Stuck-card detection.
    pub watchdog: WatchdogConfig,
    /// Per-shard circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Weighted-fair multi-tenant admission; `None` keeps the legacy
    /// drop-newest behaviour.
    pub fairness: Option<FairnessConfig>,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            interarrival: SimTime::from_us(100),
            deadline: DeadlinePolicy::Percentile {
                pct: 95.0,
                multiplier: 8.0,
            },
            watchdog: WatchdogConfig::default(),
            breaker: BreakerConfig::default(),
            fairness: None,
        }
    }
}

impl OverloadConfig {
    /// Checks every sub-config.
    ///
    /// # Panics
    ///
    /// Panics if any sub-config is invalid.
    pub fn validate(&self) {
        self.deadline.validate();
        self.watchdog.validate();
        self.breaker.validate();
        if let Some(f) = &self.fairness {
            f.validate();
        }
    }
}

/// Overload-layer counters, merged across shards into
/// [`EngineResult`](crate::EngineResult).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Jobs submitted to the engine.
    pub submitted: u64,
    /// Jobs that completed in time with a verified output.
    pub completed: u64,
    /// Jobs shed at admission (their deadline had already passed
    /// before service could start).
    pub shed: u64,
    /// Jobs served whose completion overran their deadline (output
    /// dropped).
    pub deadline_missed: u64,
    /// Jobs that failed with an unrecoverable fault.
    pub faulted: u64,
    /// Jobs dropped at submission because their tenant's hard quota
    /// was exhausted (never enqueued).
    pub quota_exceeded: u64,
    /// Sheds decided by the weighted-fair policy (the tenant ran
    /// ahead of its share), a sub-population of `shed`.
    pub fair_shed: u64,
    /// Configuration-port stalls injected and consumed.
    pub stalls_injected: u64,
    /// Slow PCI transfers injected and consumed.
    pub slow_transfers_injected: u64,
    /// Stuck-card events injected (each triggers a watchdog reset).
    pub stuck_injected: u64,
    /// Latency faults scheduled but never consumed (e.g. a stall
    /// scheduled onto a residency hit, or a fault on a shed job).
    pub latency_inert: u64,
    /// Watchdog resets performed (in-flight work re-run).
    pub watchdog_resets: u64,
    /// Closed→open breaker trips across all shards.
    pub breaker_trips: u64,
    /// Jobs bounced by an open breaker before redistribution.
    pub breaker_rejections: u64,
    /// Bounced jobs re-served on a healthy shard.
    pub redistributed: u64,
    /// Half-open probes admitted across all shards.
    pub probes: u64,
    /// Modelled time burned on stalls, slowdowns, stuck detection and
    /// re-runs.
    pub wasted_time: SimTime,
}

impl OverloadStats {
    /// Job conservation: every submitted job ends in exactly one
    /// terminal state.
    pub fn accounted(&self) -> bool {
        self.shed + self.deadline_missed + self.completed + self.faulted + self.quota_exceeded
            == self.submitted
            && self.fair_shed <= self.shed
    }

    /// [`OverloadStats::accounted`] as an always-on check.
    ///
    /// # Errors
    ///
    /// [`CoreError::LedgerImbalance`] naming [`Ledger::Overload`].
    pub fn check(&self) -> Result<(), CoreError> {
        check_ledger(self.accounted(), Ledger::Overload, self)
    }

    /// Fraction of submitted jobs that completed in time — the
    /// goodput ratio against offered load.
    pub fn goodput(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.completed as f64 / self.submitted as f64
        }
    }

    /// Fraction of submitted jobs shed at admission.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }

    /// Accumulates another shard's counters into this one.
    pub fn merge(&mut self, other: &OverloadStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.deadline_missed += other.deadline_missed;
        self.faulted += other.faulted;
        self.quota_exceeded += other.quota_exceeded;
        self.fair_shed += other.fair_shed;
        self.stalls_injected += other.stalls_injected;
        self.slow_transfers_injected += other.slow_transfers_injected;
        self.stuck_injected += other.stuck_injected;
        self.latency_inert += other.latency_inert;
        self.watchdog_resets += other.watchdog_resets;
        self.breaker_trips += other.breaker_trips;
        self.breaker_rejections += other.breaker_rejections;
        self.redistributed += other.redistributed;
        self.probes += other.probes;
        self.wasted_time += other.wasted_time;
    }
}

/// Per-tenant outcome totals for a multi-tenant engine run,
/// computed by the engine after serving from the per-job outcome maps
/// and the workload's tenant tags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's index in the workload's spec list.
    pub tenant: u16,
    /// The tenant's name as carried by its spec.
    pub name: String,
    /// Admission weight from the spec.
    pub weight: u32,
    /// Jobs the tenant submitted.
    pub submitted: u64,
    /// Jobs that completed in time.
    pub completed: u64,
    /// Jobs shed at admission (deadline-passed and fair sheds alike).
    pub shed: u64,
    /// Jobs served past their deadline.
    pub deadline_missed: u64,
    /// Jobs lost to unrecoverable faults.
    pub faulted: u64,
    /// Jobs dropped by the tenant's hard quota.
    pub quota_exceeded: u64,
}

impl TenantStats {
    /// Job conservation within the tenant.
    pub fn accounted(&self) -> bool {
        self.completed + self.shed + self.deadline_missed + self.faulted + self.quota_exceeded
            == self.submitted
    }

    /// [`TenantStats::accounted`] as an always-on check.
    ///
    /// # Errors
    ///
    /// [`CoreError::LedgerImbalance`] naming [`Ledger::Tenant`].
    pub fn check(&self) -> Result<(), CoreError> {
        check_ledger(self.accounted(), Ledger::Tenant, self)
    }

    /// The tenant's goodput ratio.
    pub fn goodput(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.completed as f64 / self.submitted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_defaults_validate() {
        let f = FairnessConfig::default();
        f.validate();
        assert_eq!(f.slack_pct, 25);
        assert_eq!(f.base_allowance, 2);
        let mut oc = OverloadConfig::default();
        assert!(oc.fairness.is_none());
        oc.fairness = Some(f);
        oc.validate();
    }

    #[test]
    #[should_panic(expected = "disables the policy")]
    fn absurd_slack_panics() {
        FairnessConfig {
            slack_pct: 1001,
            base_allowance: 0,
        }
        .validate();
    }

    #[test]
    fn accounted_covers_quota_and_fair_shed() {
        let s = OverloadStats {
            submitted: 12,
            completed: 6,
            shed: 3,
            fair_shed: 2,
            deadline_missed: 1,
            faulted: 1,
            quota_exceeded: 1,
            ..OverloadStats::default()
        };
        assert!(s.accounted());
        // fair sheds are a sub-population of sheds, never extra mass
        let leaky = OverloadStats { fair_shed: 4, ..s };
        assert!(!leaky.accounted());
    }

    #[test]
    fn unbalanced_overload_ledger_is_a_typed_error() {
        let s = OverloadStats {
            submitted: 3,
            completed: 2,
            ..OverloadStats::default()
        };
        assert!(matches!(
            s.check(),
            Err(CoreError::LedgerImbalance {
                ledger: Ledger::Overload,
                ..
            })
        ));
        assert_eq!(OverloadStats { completed: 3, ..s }.check(), Ok(()));
    }

    #[test]
    fn unbalanced_tenant_ledger_is_a_typed_error() {
        let t = TenantStats {
            submitted: 5,
            shed: 2,
            ..TenantStats::default()
        };
        let err = t.check().unwrap_err();
        assert!(matches!(
            err,
            CoreError::LedgerImbalance {
                ledger: Ledger::Tenant,
                ..
            }
        ));
        assert!(err.to_string().contains("tenant job ledger"), "{err}");
        assert_eq!(TenantStats { completed: 3, ..t }.check(), Ok(()));
    }

    #[test]
    fn tenant_stats_conserve() {
        let t = TenantStats {
            tenant: 1,
            name: "flood".into(),
            weight: 1,
            submitted: 10,
            completed: 4,
            shed: 3,
            deadline_missed: 1,
            faulted: 0,
            quota_exceeded: 2,
        };
        assert!(t.accounted());
        assert_eq!(t.goodput(), 0.4);
        assert_eq!(TenantStats::default().goodput(), 0.0);
    }

    #[test]
    fn watchdog_timeout_is_heartbeat_times_beats() {
        let w = WatchdogConfig {
            heartbeat: SimTime::from_us(250),
            missed_beats: 4,
        };
        assert_eq!(w.timeout(), SimTime::from_ms(1));
    }

    #[test]
    fn accounted_holds_for_balanced_counters() {
        let s = OverloadStats {
            submitted: 10,
            completed: 6,
            shed: 2,
            deadline_missed: 1,
            faulted: 1,
            ..OverloadStats::default()
        };
        assert!(s.accounted());
        assert_eq!(s.goodput(), 0.6);
        assert_eq!(s.shed_rate(), 0.2);
    }

    #[test]
    fn accounted_rejects_leaked_jobs() {
        let s = OverloadStats {
            submitted: 10,
            completed: 6,
            shed: 2,
            ..OverloadStats::default()
        };
        assert!(!s.accounted());
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = OverloadStats {
            submitted: 3,
            completed: 2,
            shed: 1,
            wasted_time: SimTime::from_us(5),
            ..OverloadStats::default()
        };
        let b = OverloadStats {
            submitted: 4,
            completed: 4,
            watchdog_resets: 2,
            wasted_time: SimTime::from_us(3),
            ..OverloadStats::default()
        };
        a.merge(&b);
        assert_eq!(a.submitted, 7);
        assert_eq!(a.completed, 6);
        assert_eq!(a.watchdog_resets, 2);
        assert_eq!(a.wasted_time, SimTime::from_us(8));
        assert!(a.accounted());
    }

    #[test]
    fn goodput_handles_empty() {
        assert_eq!(OverloadStats::default().goodput(), 0.0);
        assert!(OverloadStats::default().accounted());
    }

    #[test]
    #[should_panic(expected = "deadline budget must be non-zero")]
    fn zero_absolute_deadline_panics() {
        DeadlinePolicy::Absolute(SimTime::ZERO).validate();
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn out_of_range_percentile_panics() {
        DeadlinePolicy::Percentile {
            pct: 150.0,
            multiplier: 2.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "heartbeat must be non-zero")]
    fn zero_heartbeat_panics() {
        WatchdogConfig {
            heartbeat: SimTime::ZERO,
            missed_beats: 1,
        }
        .validate();
    }
}
