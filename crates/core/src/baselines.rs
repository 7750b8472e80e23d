//! The systems the agile co-processor is compared against (E5).
//!
//! * [`SoftwareExecutor`] — the host CPU runs every kernel itself. No
//!   PCI, no reconfiguration, but crypto throughput is limited by the
//!   software cycle counts.
//! * [`FixedFunctionCoProcessor`] — one function is implemented in
//!   dedicated hardware (the "application-specific co-processor" of
//!   the paper's introduction); every other request falls back to the
//!   host CPU. Fast on its one function, useless for agility.

use crate::coproc::CoProcessor;
use crate::error::CoreError;
use aaod_algos::AlgorithmBank;
use aaod_sim::{Clock, SimTime};

/// Host CPU clock for the software baseline: a 2005-era 2 GHz
/// desktop-class machine.
pub fn host_clock() -> Clock {
    Clock::from_hz(2_000_000_000)
}

/// The host CPU executing kernels in software.
#[derive(Debug, Clone)]
pub struct SoftwareExecutor {
    bank: AlgorithmBank,
    clock: Clock,
    total_time: SimTime,
    requests: u64,
}

impl SoftwareExecutor {
    /// Creates the baseline over the standard bank at the default
    /// host clock.
    pub fn new() -> Self {
        SoftwareExecutor::with_bank(AlgorithmBank::standard())
    }

    /// Creates the baseline over a specific bank.
    pub fn with_bank(bank: AlgorithmBank) -> Self {
        SoftwareExecutor {
            bank,
            clock: host_clock(),
            total_time: SimTime::ZERO,
            requests: 0,
        }
    }

    /// Executes `algo_id` in software, returning output and modelled
    /// CPU time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Algo`] for unknown ids or bad input.
    pub fn invoke(&mut self, algo_id: u16, input: &[u8]) -> Result<(Vec<u8>, SimTime), CoreError> {
        let kernel = self.bank.kernel(algo_id).ok_or(CoreError::Algo(
            aaod_algos::AlgoError::UnknownAlgorithm(algo_id),
        ))?;
        let output = kernel.execute(&kernel.default_params(), input)?;
        let t = self.clock.cycles(kernel.software_cycles(input.len()));
        self.total_time += t;
        self.requests += 1;
        Ok((output, t))
    }

    /// The bank the kernels run from.
    pub fn bank(&self) -> &AlgorithmBank {
        &self.bank
    }

    /// Total modelled CPU time so far.
    pub fn total_time(&self) -> SimTime {
        self.total_time
    }

    /// Requests serviced.
    pub fn requests(&self) -> u64 {
        self.requests
    }
}

impl Default for SoftwareExecutor {
    fn default() -> Self {
        SoftwareExecutor::new()
    }
}

/// A co-processor with exactly one function in silicon; everything
/// else runs on the host.
#[derive(Debug)]
pub struct FixedFunctionCoProcessor {
    fixed_algo: u16,
    card: CoProcessor,
    software: SoftwareExecutor,
}

impl FixedFunctionCoProcessor {
    /// Builds the baseline accelerating `fixed_algo`. The function is
    /// installed and made permanently resident (its one configuration
    /// cost is paid here, mimicking an ASIC/boot-time load).
    ///
    /// # Errors
    ///
    /// Propagates install errors for `fixed_algo`.
    pub fn new(fixed_algo: u16) -> Result<Self, CoreError> {
        let mut card = CoProcessor::default();
        card.install(fixed_algo)?;
        // one warm-up invoke so the function is resident; a fixed
        // co-processor ships configured
        card.invoke(fixed_algo, &[0u8; 16])?;
        Ok(FixedFunctionCoProcessor {
            fixed_algo,
            card,
            software: SoftwareExecutor::new(),
        })
    }

    /// The accelerated function's id.
    pub fn fixed_algo(&self) -> u16 {
        self.fixed_algo
    }

    /// Invokes `algo_id`: in hardware if it is the fixed function,
    /// otherwise on the host CPU.
    ///
    /// # Errors
    ///
    /// Propagates card or software errors.
    pub fn invoke(&mut self, algo_id: u16, input: &[u8]) -> Result<(Vec<u8>, SimTime), CoreError> {
        if algo_id == self.fixed_algo {
            let (out, report) = self.card.invoke(algo_id, input)?;
            debug_assert!(report.hit(), "fixed function must stay resident");
            Ok((out, report.total()))
        } else {
            self.software.invoke(algo_id, input)
        }
    }

    /// The bank both the card and the software fallback serve from.
    pub fn bank(&self) -> &AlgorithmBank {
        self.software.bank()
    }

    /// Requests that fell back to software.
    pub fn software_requests(&self) -> u64 {
        self.software.requests()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_algos::ids;
    use aaod_workload::mixes;

    #[test]
    fn software_matches_golden_and_takes_time() {
        let mut sw = SoftwareExecutor::new();
        let (out, t) = sw.invoke(ids::SHA1, b"abc").unwrap();
        assert_eq!(
            out,
            AlgorithmBank::standard()
                .execute_software(ids::SHA1, b"abc")
                .unwrap()
        );
        assert!(t > SimTime::ZERO);
        assert_eq!(sw.requests(), 1);
    }

    #[test]
    fn software_unknown_algo_errors() {
        let mut sw = SoftwareExecutor::new();
        assert!(sw.invoke(4242, b"").is_err());
    }

    #[test]
    fn fixed_function_is_fast_on_its_algo_only() {
        let mut fixed = FixedFunctionCoProcessor::new(ids::AES128).unwrap();
        let input = vec![0u8; mixes::default_input_len(ids::AES128)];
        let (_, hw_time) = fixed.invoke(ids::AES128, &input).unwrap();
        let mut sw = SoftwareExecutor::new();
        let (_, sw_time) = sw.invoke(ids::AES128, &input).unwrap();
        assert!(
            hw_time < sw_time,
            "hardware {hw_time} should beat software {sw_time}"
        );
        // a different algorithm falls back to software
        let (_, t) = fixed.invoke(ids::SHA1, b"abc").unwrap();
        assert_eq!(fixed.software_requests(), 1);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn fixed_function_outputs_match_software() {
        let mut fixed = FixedFunctionCoProcessor::new(ids::CRC32).unwrap();
        let (hw, _) = fixed.invoke(ids::CRC32, b"123456789").unwrap();
        assert_eq!(hw, 0xCBF4_3926u32.to_le_bytes().to_vec());
    }
}
