//! Shared setup helpers for the experiment benches (E1–E8).
//!
//! Each bench in `benches/` regenerates one experiment table from
//! DESIGN.md/EXPERIMENTS.md: it prints the modelled-time table (the
//! paper-style result) and then takes Criterion wall-clock
//! measurements of the simulator itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aaod_core::CoProcessor;
use aaod_mcu::Replacement;

pub mod e4;

/// Builds a co-processor with the given policy and geometry, with all
/// of `algos` installed.
///
/// # Panics
///
/// Panics if an install fails (bench configuration error).
pub fn installed_coproc(
    geometry: aaod_fabric::DeviceGeometry,
    policy: Replacement,
    algos: &[u16],
) -> CoProcessor {
    let mut cp = CoProcessor::builder()
        .geometry(geometry)
        .policy(policy)
        .build();
    for &id in algos {
        cp.install(id).expect("bench install");
    }
    cp
}

/// The default fast Criterion configuration for these benches: the
/// tables are the experiment output; the wall-clock numbers are
/// secondary, so keep sampling short.
pub fn criterion_fast() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(700))
}

/// The canonical seed-from-environment helper shared by the chaos and
/// determinism suites: `var` parsed as a decimal `u64` when set (the
/// CI seed matrices sweep it), else `default`.
pub fn env_seed(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}
