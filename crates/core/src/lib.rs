//! `aaod-core` — the FPGA-based Agile Algorithm-On-Demand co-processor.
//!
//! This crate assembles the full system of the DATE 2005 paper: the
//! PCI bus model, the microcontroller mini-OS (ROM, local RAM, free
//! frame list, frame replacement policy, configuration and data
//! modules) and the partially reconfigurable fabric, behind a host-side
//! API ([`CoProcessor`]). It also provides the comparison systems every
//! experiment needs:
//!
//! * [`baselines::SoftwareExecutor`] — the host CPU running the same
//!   kernels in software (no co-processor at all);
//! * [`baselines::FixedFunctionCoProcessor`] — a single-function
//!   accelerator that falls back to software for everything else (the
//!   classic application-specific co-processor of the paper's
//!   introduction);
//! * a full-reconfiguration [`CoProcessor`] (via
//!   [`ReconfigMode::Full`]) — an FPGA card *without* partial
//!   reconfigurability.
//!
//! The [`runner`] module drives any of these through a
//! [`aaod_workload::Workload`] and produces comparable summaries.
//!
//! # Examples
//!
//! ```
//! use aaod_core::CoProcessor;
//! use aaod_algos::ids;
//!
//! let mut cp = CoProcessor::builder().build();
//! cp.install(ids::SHA1)?;
//! let (digest, report) = cp.invoke(ids::SHA1, b"abc")?;
//! assert_eq!(digest.len(), 20);
//! assert!(report.total().as_ns() > 0.0);
//! # Ok::<(), aaod_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod breaker;
pub mod cluster;
pub mod coproc;
pub mod dispatch;
pub mod engine;
pub mod error;
pub mod fault;
pub mod overload;
pub mod predict;
pub(crate) mod router;
pub mod runner;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cluster::{CardHealth, Cluster, ClusterConfig, ClusterResult, ClusterStats};
pub use coproc::{CoProcessor, CoProcessorBuilder, HostReport};
pub use dispatch::DispatchStats;
pub use engine::{Engine, EngineConfig, EngineResult, ShardPolicy};
pub use error::{CoreError, Ledger};
pub use fault::{FaultConfig, FaultStats, JobError};
pub use overload::{
    DeadlinePolicy, FairnessConfig, OverloadConfig, OverloadStats, TenantStats, WatchdogConfig,
};
pub use predict::{Flip, FlipRecord, HysteresisGate, PredictConfig, PredictModel};
pub use runner::{run_workload, Executor, RunResult};

// Re-export the pieces users compose with.
pub use aaod_mcu::ReconfigMode;
pub use aaod_sim::trace::{MetricsRegistry, TraceConfig, TraceLevel, TraceReport};
