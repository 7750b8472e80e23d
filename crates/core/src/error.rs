//! Core error type.

use aaod_algos::AlgoError;
use aaod_mcu::McuError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the host-side API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A failure inside the card (controller, fabric, memories…).
    Mcu(McuError),
    /// A software-baseline kernel failure.
    Algo(AlgoError),
    /// A hardware result disagreed with the golden software model —
    /// the co-processor computed the wrong answer.
    OutputMismatch {
        /// Algorithm whose result diverged.
        algo_id: u16,
        /// Index of the request in the workload.
        index: usize,
    },
    /// A conservation identity failed at the end of a run: some job
    /// or redirection was counted twice or not at all.
    LedgerImbalance {
        /// The identity that failed.
        ledger: Ledger,
        /// The counters as they stood.
        detail: String,
    },
}

/// The conservation identities checked at the end of every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ledger {
    /// Engine job conservation, [`OverloadStats::accounted`](crate::OverloadStats::accounted).
    Overload,
    /// Per-tenant job conservation, [`TenantStats::accounted`](crate::TenantStats::accounted).
    Tenant,
    /// Fleet job conservation, [`ClusterStats::accounted`](crate::ClusterStats::accounted).
    Cluster,
    /// Fleet redirections against breaker timelines,
    /// [`ClusterStats::reconciled`](crate::ClusterStats::reconciled).
    ClusterRedirections,
}

impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Ledger::Overload => "overload job",
            Ledger::Tenant => "tenant job",
            Ledger::Cluster => "cluster job",
            Ledger::ClusterRedirections => "cluster redirection",
        })
    }
}

/// `Ok` when the identity `holds`, otherwise a
/// [`CoreError::LedgerImbalance`] naming `ledger` and showing `state`.
pub(crate) fn check_ledger(
    holds: bool,
    ledger: Ledger,
    state: &impl fmt::Debug,
) -> Result<(), CoreError> {
    if holds {
        Ok(())
    } else {
        Err(CoreError::LedgerImbalance {
            ledger,
            detail: format!("{state:?}"),
        })
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Mcu(e) => write!(f, "co-processor: {e}"),
            CoreError::Algo(e) => write!(f, "software baseline: {e}"),
            CoreError::OutputMismatch { algo_id, index } => write!(
                f,
                "hardware output for algorithm {algo_id} diverged from software at request {index}"
            ),
            CoreError::LedgerImbalance { ledger, detail } => {
                write!(f, "{ledger} ledger out of balance: {detail}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Mcu(e) => Some(e),
            CoreError::Algo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<McuError> for CoreError {
    fn from(e: McuError) -> Self {
        CoreError::Mcu(e)
    }
}

impl From<AlgoError> for CoreError {
    fn from(e: AlgoError) -> Self {
        CoreError::Algo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::from(AlgoError::UnknownAlgorithm(9));
        assert!(e.to_string().contains("software baseline"));
        assert!(e.source().is_some());
        let e = CoreError::OutputMismatch {
            algo_id: 1,
            index: 4,
        };
        assert!(e.to_string().contains("request 4"));
    }

    #[test]
    fn send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<CoreError>();
    }
}
