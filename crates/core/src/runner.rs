//! Workload runner: drives any executor through a request stream and
//! produces comparable summaries (the rows of every experiment table).

use crate::baselines::{FixedFunctionCoProcessor, SoftwareExecutor};
use crate::coproc::CoProcessor;
use crate::error::CoreError;
use aaod_sim::stats::TimeAccumulator;
use aaod_sim::SimTime;
use aaod_workload::Workload;

/// Anything that can service `(algo, input) -> (output, time)`
/// requests: the agile co-processor, the full-reconfig variant, the
/// fixed-function card or the software host.
pub trait Executor {
    /// A short name for result tables.
    fn name(&self) -> String;

    /// Services one request.
    ///
    /// # Errors
    ///
    /// Propagates the underlying system's errors.
    fn run(&mut self, algo_id: u16, input: &[u8]) -> Result<(Vec<u8>, SimTime), CoreError>;

    /// `(hits, misses, evictions)` if the executor has a residency
    /// cache; `None` for stateless executors.
    fn cache_stats(&self) -> Option<(u64, u64, u64)> {
        None
    }

    /// `(decoded_hits, decoded_misses, decoded_bytes_saved)` if the
    /// executor keeps a decoded-bitstream cache; `None` otherwise.
    fn decoded_stats(&self) -> Option<(u64, u64, u64)> {
        None
    }

    /// `(scrubs, scrub_repairs, redownloads)` if the executor can
    /// recover from configuration or ROM corruption; `None` otherwise.
    fn recovery_stats(&self) -> Option<(u64, u64, u64)> {
        None
    }
}

impl Executor for CoProcessor {
    fn name(&self) -> String {
        format!("agile({})", self.os().policy_name())
    }

    fn run(&mut self, algo_id: u16, input: &[u8]) -> Result<(Vec<u8>, SimTime), CoreError> {
        let (out, report) = self.invoke(algo_id, input)?;
        Ok((out, report.total()))
    }

    fn cache_stats(&self) -> Option<(u64, u64, u64)> {
        let s = self.stats();
        Some((s.hits, s.misses, s.evictions))
    }

    fn decoded_stats(&self) -> Option<(u64, u64, u64)> {
        let s = self.stats();
        Some((s.decoded_hits, s.decoded_misses, s.decoded_bytes_saved))
    }

    fn recovery_stats(&self) -> Option<(u64, u64, u64)> {
        let s = self.stats();
        Some((s.scrubs, s.scrub_repairs, s.redownloads))
    }
}

impl Executor for SoftwareExecutor {
    fn name(&self) -> String {
        "software".into()
    }

    fn run(&mut self, algo_id: u16, input: &[u8]) -> Result<(Vec<u8>, SimTime), CoreError> {
        self.invoke(algo_id, input)
    }
}

impl Executor for FixedFunctionCoProcessor {
    fn name(&self) -> String {
        format!("fixed({})", self.fixed_algo())
    }

    fn run(&mut self, algo_id: u16, input: &[u8]) -> Result<(Vec<u8>, SimTime), CoreError> {
        self.invoke(algo_id, input)
    }
}

/// The outcome of one workload run on one executor.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Executor name.
    pub executor: String,
    /// Workload name.
    pub workload: String,
    /// Requests serviced.
    pub requests: usize,
    /// Input bytes processed.
    pub input_bytes: u64,
    /// Total modelled service time.
    pub total_time: SimTime,
    /// Per-request latency distribution (nanoseconds).
    pub latency: TimeAccumulator,
    /// Residency hits, if the executor caches functions.
    pub hits: Option<u64>,
    /// Residency misses, if applicable.
    pub misses: Option<u64>,
    /// Evictions, if applicable.
    pub evictions: Option<u64>,
    /// Decoded-bitstream cache hits, if the executor keeps one.
    pub decoded_hits: Option<u64>,
    /// Decoded-bitstream cache misses, if applicable.
    pub decoded_misses: Option<u64>,
    /// Decompressed bytes the decoded cache avoided producing.
    pub decoded_bytes_saved: Option<u64>,
    /// Readback-scrub passes run during the workload, if the executor
    /// supports corruption recovery.
    pub scrubs: Option<u64>,
    /// Functions repaired from ROM by scrubbing, if applicable.
    pub scrub_repairs: Option<u64>,
    /// Corrupt ROM images re-downloaded afresh, if applicable.
    pub redownloads: Option<u64>,
}

impl RunResult {
    /// Hit rate, if the executor caches functions.
    pub fn hit_rate(&self) -> Option<f64> {
        match (self.hits, self.misses) {
            (Some(h), Some(m)) if h + m > 0 => Some(h as f64 / (h + m) as f64),
            _ => None,
        }
    }

    /// Mean service time per request.
    pub fn mean_latency(&self) -> SimTime {
        if self.requests == 0 {
            SimTime::ZERO
        } else {
            self.total_time / self.requests as u64
        }
    }

    /// Fraction of misses whose decoded frames were already cached,
    /// if the executor keeps a decoded-bitstream cache and saw a miss.
    pub fn decoded_hit_rate(&self) -> Option<f64> {
        match (self.decoded_hits, self.decoded_misses) {
            (Some(h), Some(m)) if h + m > 0 => Some(h as f64 / (h + m) as f64),
            _ => None,
        }
    }

    /// Modelled throughput in input megabytes per simulated second.
    pub fn throughput_mb_s(&self) -> f64 {
        if self.total_time.is_zero() {
            0.0
        } else {
            self.input_bytes as f64 / 1e6 / self.total_time.as_secs()
        }
    }
}

/// Drives `executor` through every request of `workload`.
///
/// When `verify` is set, each hardware output is checked against the
/// golden software model (slow; used by tests and examples, skipped in
/// timing sweeps).
///
/// # Errors
///
/// Propagates executor errors and reports
/// [`CoreError::OutputMismatch`] on a verification failure.
pub fn run_workload(
    executor: &mut dyn Executor,
    workload: &Workload,
    verify: bool,
) -> Result<RunResult, CoreError> {
    let golden = aaod_algos::AlgorithmBank::standard();
    let cache_before = executor.cache_stats();
    let decoded_before = executor.decoded_stats();
    let recovery_before = executor.recovery_stats();
    let mut latency = TimeAccumulator::new();
    let mut input_bytes = 0u64;
    for (i, req) in workload.requests().iter().enumerate() {
        let input = workload.input(i);
        input_bytes += input.len() as u64;
        let (output, t) = executor.run(req.algo_id, &input)?;
        latency.push(t);
        if verify {
            let expected = golden
                .execute_software(req.algo_id, &input)
                .map_err(CoreError::Algo)?;
            if output != expected {
                return Err(CoreError::OutputMismatch {
                    algo_id: req.algo_id,
                    index: i,
                });
            }
        }
    }
    let cache_after = executor.cache_stats();
    let decoded_after = executor.decoded_stats();
    let recovery_after = executor.recovery_stats();
    fn deltas(
        before: &Option<(u64, u64, u64)>,
        after: &Option<(u64, u64, u64)>,
        f: fn(&(u64, u64, u64)) -> u64,
    ) -> Option<u64> {
        match (before, after) {
            (Some(b), Some(a)) => Some(f(a) - f(b)),
            (None, Some(a)) => Some(f(a)),
            _ => None,
        }
    }
    let delta = |f: fn(&(u64, u64, u64)) -> u64| deltas(&cache_before, &cache_after, f);
    let decoded = |f: fn(&(u64, u64, u64)) -> u64| deltas(&decoded_before, &decoded_after, f);
    let recovery = |f: fn(&(u64, u64, u64)) -> u64| deltas(&recovery_before, &recovery_after, f);
    Ok(RunResult {
        executor: executor.name(),
        workload: workload.name().to_string(),
        requests: workload.len(),
        input_bytes,
        total_time: latency.total(),
        hits: delta(|s| s.0),
        misses: delta(|s| s.1),
        evictions: delta(|s| s.2),
        decoded_hits: decoded(|s| s.0),
        decoded_misses: decoded(|s| s.1),
        decoded_bytes_saved: decoded(|s| s.2),
        scrubs: recovery(|s| s.0),
        scrub_repairs: recovery(|s| s.1),
        redownloads: recovery(|s| s.2),
        latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_algos::ids;
    use aaod_workload::mixes;

    fn installed_coproc(algos: &[u16]) -> CoProcessor {
        let mut cp = CoProcessor::default();
        for &id in algos {
            cp.install(id).unwrap();
        }
        cp
    }

    #[test]
    fn run_verified_workload_on_coproc() {
        let algos = [ids::CRC32, ids::SHA1, ids::PARITY8];
        let mut cp = installed_coproc(&algos);
        let w = Workload::uniform(&algos, 30, 64, 7);
        let r = run_workload(&mut cp, &w, true).unwrap();
        assert_eq!(r.requests, 30);
        assert_eq!(r.hits.unwrap() + r.misses.unwrap(), 30);
        assert!(r.total_time > SimTime::ZERO);
        assert!(r.hit_rate().unwrap() > 0.5, "small set should mostly hit");
        assert_eq!(r.scrubs, Some(0), "no corruption, no scrubbing");
        assert_eq!(r.scrub_repairs, Some(0));
        assert_eq!(r.redownloads, Some(0));
    }

    #[test]
    fn run_on_software_has_no_cache_stats() {
        let mut sw = SoftwareExecutor::new();
        let w = Workload::round_robin(&mixes::crypto_mix(), 10, 64);
        let r = run_workload(&mut sw, &w, true).unwrap();
        assert!(r.hits.is_none());
        assert!(r.hit_rate().is_none());
        assert_eq!(r.requests, 10);
        assert!(r.throughput_mb_s() > 0.0);
        assert!(r.scrubs.is_none(), "software has nothing to scrub");
        assert!(r.redownloads.is_none());
    }

    #[test]
    fn mismatch_detected_when_frames_corrupted() {
        let mut cp = installed_coproc(&[ids::POPCNT8]);
        // make it resident, then corrupt a truth-table byte so decode
        // still succeeds structurally... the digest protects us, so
        // instead verify that the runner propagates the fabric error.
        cp.invoke(ids::POPCNT8, &[1]).unwrap();
        let frames = cp.os().table().get(ids::POPCNT8).unwrap().frames.clone();
        let mut bytes = cp.os().device().read_frame(frames[0]).unwrap().to_vec();
        bytes[60] ^= 0xFF;
        cp.os_mut()
            .device_mut()
            .write_frame(frames[0], &bytes)
            .unwrap();
        let w = Workload::from_trace([ids::POPCNT8], 16);
        let err = run_workload(&mut cp, &w, true).unwrap_err();
        assert!(matches!(err, CoreError::Mcu(_)), "{err}");
    }

    #[test]
    fn decoded_stats_surface_in_result() {
        // Hit-after-eviction behaviour is covered in aaod-mcu; this
        // only asserts the counters flow through the runner.
        let mut cp = installed_coproc(&[ids::CRC32]);
        let w = Workload::from_trace([ids::CRC32, ids::CRC32], 16);
        let r = run_workload(&mut cp, &w, true).unwrap();
        assert_eq!(r.decoded_hits, Some(0));
        assert_eq!(r.decoded_misses, Some(1));
        assert!(r.decoded_bytes_saved.is_some());
        assert_eq!(r.decoded_hit_rate(), Some(0.0));

        let mut sw = SoftwareExecutor::new();
        let r = run_workload(&mut sw, &w, true).unwrap();
        assert!(r.decoded_hits.is_none());
        assert!(r.decoded_hit_rate().is_none());
    }

    #[test]
    fn mean_latency_and_empty_run() {
        let mut sw = SoftwareExecutor::new();
        let w = Workload::from_trace(std::iter::empty::<u16>(), 8);
        let r = run_workload(&mut sw, &w, false).unwrap();
        assert_eq!(r.mean_latency(), SimTime::ZERO);
        assert_eq!(r.throughput_mb_s(), 0.0);
    }
}
