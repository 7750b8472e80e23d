//! Simulation foundation for the `aaod` co-processor workspace.
//!
//! This crate provides the shared, dependency-free building blocks every
//! hardware model in the workspace uses:
//!
//! * [`SimTime`] — picosecond-resolution simulated time, the unit every
//!   component reports latency in.
//! * [`Clock`] — a clock domain that converts between cycles and
//!   [`SimTime`]. The co-processor models three domains (PCI 33 MHz,
//!   microcontroller/configuration 50 MHz, fabric 100 MHz).
//! * [`SplitMix64`] — a tiny deterministic RNG so every experiment is
//!   reproducible from a seed, without external dependencies.
//! * [`FaultPlan`] — a seeded, per-request fault schedule for the
//!   chaos/recovery experiments; decisions are pure functions of
//!   `(seed, request index)`.
//! * [`stats`] — [`stats::TimeAccumulator`], the one sample store for
//!   modelled time, and its nearest-rank [`stats::Summary`]; every
//!   reported latency distribution is one of these.
//! * [`report`] — fixed-width table rendering used by the benches and
//!   examples to print paper-style result tables.
//! * [`trace`] — the deterministic modelled-time event/span recorder
//!   and metrics registry behind the observability layer.
//!
//! # Examples
//!
//! ```
//! use aaod_sim::{Clock, SimTime};
//!
//! let pci = Clock::from_hz(33_000_000);
//! let t = pci.cycles(33_000_000); // one second of PCI cycles
//! assert_eq!(t, SimTime::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod fault;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use clock::Clock;
pub use cluster::{CardFault, CardFaultRates, CardTimeline, ClusterFaultPlan};
pub use fault::{FaultPlan, FaultRates, FaultSite, LatencyRates, LatencySite};
pub use rng::SplitMix64;
pub use time::SimTime;
pub use trace::{
    DetailEvent, DetailLog, EventKind, MetricsRegistry, TraceConfig, TraceEvent, TraceLevel,
    TraceReport, Tracer,
};
