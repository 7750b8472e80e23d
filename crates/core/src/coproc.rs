//! The host-facing co-processor: PCI + microcontroller + fabric.
//!
//! [`CoProcessor`] puts the PCI bus in front of the mini-OS: every
//! operand and result crosses the bus, and every invocation is a batch
//! of one or more inputs for one function. The card has one detail
//! log, owned by the controller; the bus pushes its bursts into it as
//! transfers complete, so a drained stream reads in true time order.

use crate::error::CoreError;
use aaod_algos::AlgorithmBank;
use aaod_bitstream::codec::CodecId;
use aaod_fabric::DeviceGeometry;
use aaod_mcu::{InvokeReport, MiniOs, MiniOsConfig, OsStats, ReconfigMode, Replacement};
use aaod_pci::{Direction, PciBus, PciConfig, PciError};
use aaod_sim::trace::DetailEvent;
use aaod_sim::SimTime;

/// Host-visible timing of one invocation: the card-internal breakdown
/// plus the PCI transfers that bracket it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostReport {
    /// Host→card operand transfer time.
    pub pci_input_time: SimTime,
    /// Card→host result transfer time.
    pub pci_output_time: SimTime,
    /// The controller's own breakdown.
    pub os: InvokeReport,
}

impl HostReport {
    /// Total host-observed service time.
    pub fn total(&self) -> SimTime {
        self.pci_input_time + self.pci_output_time + self.os.total()
    }

    /// Whether the function was already resident.
    pub fn hit(&self) -> bool {
        self.os.hit
    }
}

/// Builder for [`CoProcessor`].
///
/// # Examples
///
/// ```
/// use aaod_core::CoProcessor;
/// use aaod_fabric::DeviceGeometry;
///
/// let cp = CoProcessor::builder()
///     .geometry(DeviceGeometry::new(48, 16))
///     .window(128)
///     .build();
/// assert_eq!(cp.geometry().frames(), 48);
/// ```
pub struct CoProcessorBuilder {
    os: MiniOsConfig,
    pci: PciConfig,
    trace: bool,
}

impl CoProcessorBuilder {
    /// Starts from the default configuration (96×16 device, LZSS,
    /// 256-byte window, LRU, partial reconfiguration, 64-bit/66 MHz
    /// PCI).
    pub fn new() -> Self {
        CoProcessorBuilder {
            os: MiniOsConfig::default(),
            pci: PciConfig::default(),
            trace: false,
        }
    }

    /// Sets the device geometry.
    pub fn geometry(mut self, geometry: DeviceGeometry) -> Self {
        self.os.geometry = geometry;
        self
    }

    /// Sets the decompression window (bytes).
    pub fn window(mut self, window: usize) -> Self {
        self.os.window = window;
        self
    }

    /// Sets the bitstream codec used for installs.
    pub fn codec(mut self, codec: CodecId) -> Self {
        self.os.codec = codec;
        self
    }

    /// Sets the replacement policy.
    pub fn policy(mut self, policy: Replacement) -> Self {
        self.os.policy = policy;
        self
    }

    /// Sets partial (paper) or full (baseline) reconfiguration.
    pub fn mode(mut self, mode: ReconfigMode) -> Self {
        self.os.mode = mode;
        self
    }

    /// Sets the algorithm bank.
    pub fn bank(mut self, bank: AlgorithmBank) -> Self {
        self.os.bank = bank;
        self
    }

    /// Sets the ROM capacity in bytes.
    pub fn rom_capacity(mut self, bytes: usize) -> Self {
        self.os.rom_capacity = bytes;
        self
    }

    /// Sets the PCI bus parameters.
    pub fn pci(mut self, pci: PciConfig) -> Self {
        self.pci = pci;
        self
    }

    /// Enables speculative (prefetch) configuration of the predicted
    /// next algorithm during idle time.
    pub fn prefetch(mut self, enabled: bool) -> Self {
        self.os.prefetch = enabled;
        self
    }

    /// Sets the decoded-bitstream cache budget in bytes (zero
    /// disables it; see [`aaod_mcu::DecodedCache`]).
    pub fn decoded_cache_bytes(mut self, bytes: usize) -> Self {
        self.os.decoded_cache_bytes = bytes;
        self
    }

    /// Sets the content-addressed frame store budget in bytes (zero
    /// disables it; only the [`CodecId::DeltaV2`] configuration path
    /// consults it — see [`aaod_bitstream::FrameStore`]).
    pub fn frame_store_bytes(mut self, bytes: usize) -> Self {
        self.os.frame_store_bytes = bytes;
        self
    }

    /// Enables the observability detail log from the start (see
    /// [`CoProcessor::set_trace`]).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Builds the co-processor.
    pub fn build(self) -> CoProcessor {
        let mut cp = CoProcessor {
            os: MiniOs::new(self.os),
            bus: PciBus::new(self.pci),
        };
        if self.trace {
            cp.set_trace(true);
        }
        cp
    }
}

impl Default for CoProcessorBuilder {
    fn default() -> Self {
        CoProcessorBuilder::new()
    }
}

/// The assembled card, as seen from the host.
#[derive(Debug, Clone)]
pub struct CoProcessor {
    os: MiniOs,
    bus: PciBus,
}

impl CoProcessor {
    /// Starts building a co-processor.
    pub fn builder() -> CoProcessorBuilder {
        CoProcessorBuilder::new()
    }

    /// Encodes and downloads a bank algorithm's bitstream over PCI
    /// into the card's ROM. Returns the modelled time (PCI transfer +
    /// ROM programming).
    ///
    /// # Errors
    ///
    /// Propagates controller errors (unknown algorithm, full ROM,
    /// duplicates…).
    pub fn install(&mut self, algo_id: u16) -> Result<SimTime, CoreError> {
        let encoded = self.os.bank_bitstream(algo_id)?;
        let pci = self.transfer(encoded.len() as u64, Direction::Write);
        let rom = self.os.download(&encoded)?;
        Ok(pci + rom)
    }

    /// Moves one payload across the bus. An armed transient abort
    /// (see [`PciBus::arm_transient_faults`]) is retried by the driver
    /// until the transfer lands, and each aborted attempt's bus time is
    /// folded into the returned transfer time. With the trace on, the
    /// transfer (retries included) is recorded as one burst detail;
    /// tracing only snapshots counters, it never adds modelled time.
    fn transfer(&mut self, bytes: u64, dir: Direction) -> SimTime {
        let before = self.os.trace_enabled().then(|| self.bus.stats());
        let mut aborted = SimTime::ZERO;
        let time = loop {
            match self.bus.try_transfer(bytes, dir) {
                Ok(t) => break aborted + t,
                Err(PciError::TransientAbort { wasted }) => aborted += wasted,
            }
        };
        if let Some(before) = before {
            let d = self.bus.stats().delta(&before);
            self.os.record_detail(DetailEvent::PciBurst {
                write: dir == Direction::Write,
                bytes: d.bytes_written + d.bytes_read,
                transactions: d.transactions,
            });
        }
        time
    }

    /// Invokes an installed function on `input`, returning the result
    /// bytes and the host-level timing report: a batch of one (see
    /// [`CoProcessor::invoke_batch`]).
    ///
    /// # Errors
    ///
    /// Propagates controller errors; see
    /// [`aaod_mcu::MiniOs::invoke`].
    pub fn invoke(
        &mut self,
        algo_id: u16,
        input: &[u8],
    ) -> Result<(Vec<u8>, HostReport), CoreError> {
        let mut results = self.invoke_batch(algo_id, &[input])?;
        Ok(results.pop().expect("one input yields one result"))
    }

    /// Invokes an installed function on several inputs in one batch:
    /// the controller pays the record lookup and any (re)configuration
    /// once for the whole batch (see
    /// [`aaod_mcu::MiniOs::invoke_batch`]), while each input and
    /// output still crosses the PCI bus individually. Every transfer
    /// rides the fallible bus path: an armed transient abort is
    /// retried until it lands, and an armed slow transfer completes at
    /// its degraded cost, both charged to that transfer's time. With
    /// nothing armed the bus behaves exactly as its infallible path.
    ///
    /// # Errors
    ///
    /// Propagates controller errors (PCI aborts never escape: the
    /// driver always retries them).
    pub fn invoke_batch(
        &mut self,
        algo_id: u16,
        inputs: &[&[u8]],
    ) -> Result<Vec<(Vec<u8>, HostReport)>, CoreError> {
        let mut pci_input_times = Vec::with_capacity(inputs.len());
        for input in inputs {
            pci_input_times.push(self.transfer(input.len() as u64, Direction::Write));
        }
        let os_results = self.os.invoke_batch(algo_id, inputs)?;
        let mut results = Vec::with_capacity(os_results.len());
        for ((output, os_report), pci_input_time) in os_results.into_iter().zip(pci_input_times) {
            let pci_output_time = self.transfer(output.len() as u64, Direction::Read);
            results.push((
                output,
                HostReport {
                    pci_input_time,
                    pci_output_time,
                    os: os_report,
                },
            ));
        }
        Ok(results)
    }

    /// Issues one instruction to the microcontroller over PCI — the
    /// paper's §2.1 operating model. The command bytes cross the bus
    /// host→card and the response bytes card→host; the returned time
    /// is the full round trip including the controller's work.
    ///
    /// # Errors
    ///
    /// Propagates controller errors.
    ///
    /// # Examples
    ///
    /// ```
    /// use aaod_core::CoProcessor;
    /// use aaod_mcu::{Command, Response};
    ///
    /// let mut cp = CoProcessor::default();
    /// let (resp, _) = cp.send_command(Command::QueryResident)?;
    /// assert_eq!(resp, Response::Resident(vec![]));
    /// # Ok::<(), aaod_core::CoreError>(())
    /// ```
    pub fn send_command(
        &mut self,
        command: aaod_mcu::Command,
    ) -> Result<(aaod_mcu::Response, SimTime), CoreError> {
        let cmd_time = self.bus.write(command.wire_len() as u64);
        let (response, os_time) = self.os.dispatch(command)?;
        let resp_time = self.bus.read(response.wire_len() as u64);
        Ok((response, cmd_time + os_time + resp_time))
    }

    /// Installed-and-resident algorithm ids.
    pub fn resident(&self) -> Vec<u16> {
        self.os.resident()
    }

    /// Runs a readback-scrub pass over the resident functions,
    /// repairing any corrupted configuration from ROM. See
    /// [`aaod_mcu::MiniOs::scrub`].
    ///
    /// # Errors
    ///
    /// Propagates repair failures.
    pub fn scrub(&mut self) -> Result<aaod_mcu::ScrubReport, CoreError> {
        Ok(self.os.scrub()?)
    }

    /// Controller statistics.
    pub fn stats(&self) -> OsStats {
        self.os.stats()
    }

    /// Directed speculative configuration of `algo` in host
    /// think-time — the engine's online predictive policy calls this
    /// during a shard's idle window so the predicted next miss is
    /// already resident when its batch arrives. Returns `true` when
    /// the function is resident afterwards. See
    /// [`aaod_mcu::MiniOs::prefetch_hint`].
    pub fn prefetch_hint(&mut self, algo: u16) -> bool {
        self.os.prefetch_hint(algo)
    }

    /// Enables or disables the card's detail log, which the
    /// controller owns (see [`aaod_mcu::MiniOs::set_trace`]). When on,
    /// PCI bursts and the controller's cache, eviction and
    /// reconfiguration details are buffered in the order they happen,
    /// a prefetch's before the next batch's input bursts, for the
    /// trace assembler to drain with [`CoProcessor::take_details_into`].
    /// Tracing never adds modelled time, so every timing result is
    /// identical with it on or off.
    pub fn set_trace(&mut self, on: bool) {
        self.os.set_trace(on);
    }

    /// Whether the detail log is recording.
    pub fn trace_enabled(&self) -> bool {
        self.os.trace_enabled()
    }

    /// Clears `buf` and drains the buffered detail events into it,
    /// reusing its capacity across calls. Hot loops (the engine's
    /// shard drivers) call this once per batch so the drain does not
    /// allocate a fresh `Vec` per batch.
    pub fn take_details_into(&mut self, buf: &mut Vec<DetailEvent>) {
        self.os.take_details_into(buf);
    }

    /// PCI bus statistics.
    pub fn pci_stats(&self) -> aaod_pci::PciStats {
        self.bus.stats()
    }

    /// Device geometry.
    pub fn geometry(&self) -> DeviceGeometry {
        self.os.geometry()
    }

    /// The controller (inspection / fault injection in tests).
    pub fn os(&self) -> &MiniOs {
        &self.os
    }

    /// Mutable controller access (fault injection in tests).
    pub fn os_mut(&mut self) -> &mut MiniOs {
        &mut self.os
    }

    /// The PCI bus (inspection).
    pub fn bus(&self) -> &PciBus {
        &self.bus
    }

    /// Mutable PCI bus access (fault arming).
    pub fn bus_mut(&mut self) -> &mut PciBus {
        &mut self.bus
    }
}

impl Default for CoProcessor {
    fn default() -> Self {
        CoProcessor::builder().build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_algos::ids;

    fn take_details(cp: &mut CoProcessor) -> Vec<DetailEvent> {
        let mut details = Vec::new();
        cp.take_details_into(&mut details);
        details
    }

    #[test]
    fn install_and_invoke() {
        let mut cp = CoProcessor::default();
        let t = cp.install(ids::CRC32).unwrap();
        assert!(t > SimTime::ZERO);
        let (out, report) = cp.invoke(ids::CRC32, b"123456789").unwrap();
        assert_eq!(out, 0xCBF4_3926u32.to_le_bytes().to_vec());
        assert!(!report.hit());
        assert!(report.pci_input_time > SimTime::ZERO);
        assert!(report.pci_output_time > SimTime::ZERO);
        assert!(report.total() > report.os.total());
    }

    #[test]
    fn pci_traffic_is_counted() {
        let mut cp = CoProcessor::default();
        cp.install(ids::PARITY8).unwrap();
        cp.invoke(ids::PARITY8, &[0xFF; 100]).unwrap();
        let s = cp.pci_stats();
        assert!(s.bytes_written > 100); // bitstream + input
        assert!(s.bytes_read > 0); // result
    }

    #[test]
    fn builder_options_apply() {
        let cp = CoProcessor::builder()
            .geometry(DeviceGeometry::new(32, 8))
            .window(64)
            .codec(CodecId::Rle)
            .mode(ReconfigMode::Full)
            .build();
        assert_eq!(cp.geometry().frames(), 32);
    }

    #[test]
    fn command_interface_matches_direct_calls() {
        use aaod_mcu::{Command, Response};
        let mut direct = CoProcessor::default();
        direct.install(ids::CRC32).unwrap();
        let (expected, _) = direct.invoke(ids::CRC32, b"123456789").unwrap();

        let mut driven = CoProcessor::default();
        let bitstream = driven.os().encode_bitstream(ids::CRC32).unwrap();
        let (resp, t) = driven
            .send_command(Command::Download { bitstream })
            .unwrap();
        assert_eq!(resp, Response::Done);
        assert!(t > SimTime::ZERO);
        let (resp, _) = driven
            .send_command(Command::Invoke {
                algo_id: ids::CRC32,
                input: b"123456789".to_vec(),
            })
            .unwrap();
        assert_eq!(resp, Response::Output(expected));
        let (resp, _) = driven.send_command(Command::QueryResident).unwrap();
        assert_eq!(resp, Response::Resident(vec![ids::CRC32]));
        let (resp, _) = driven.send_command(Command::QueryStats).unwrap();
        assert!(matches!(resp, Response::Stats { requests: 1, .. }));
        let (resp, _) = driven
            .send_command(Command::Evict {
                algo_id: ids::CRC32,
            })
            .unwrap();
        assert_eq!(resp, Response::Done);
        let (resp, _) = driven.send_command(Command::Reset).unwrap();
        assert_eq!(resp, Response::Done);
        assert!(driven.resident().is_empty());
        // ROM survives the reset: the function is still installable
        let (resp, _) = driven
            .send_command(Command::Invoke {
                algo_id: ids::CRC32,
                input: b"123456789".to_vec(),
            })
            .unwrap();
        assert!(matches!(resp, Response::Output(_)));
    }

    #[test]
    fn batch_matches_serial_over_pci() {
        let inputs: Vec<&[u8]> = vec![b"one", b"two", b"three"];
        let mut serial = CoProcessor::default();
        serial.install(ids::SHA1).unwrap();
        let expected: Vec<Vec<u8>> = inputs
            .iter()
            .map(|&i| serial.invoke(ids::SHA1, i).unwrap().0)
            .collect();
        let mut batched = CoProcessor::default();
        batched.install(ids::SHA1).unwrap();
        let got = batched.invoke_batch(ids::SHA1, &inputs).unwrap();
        assert_eq!(got.len(), 3);
        for ((out, report), want) in got.iter().zip(&expected) {
            assert_eq!(out, want);
            assert!(report.pci_input_time > SimTime::ZERO);
            assert!(report.pci_output_time > SimTime::ZERO);
        }
        assert!(!got[0].1.hit() && got[1].1.hit());
        assert_eq!(
            batched.pci_stats().bytes_read,
            serial.pci_stats().bytes_read
        );
    }

    #[test]
    fn traced_invoke_details_cover_pci_and_controller() {
        use aaod_sim::DetailEvent as D;
        let mut cp = CoProcessor::builder().trace(true).build();
        assert!(cp.trace_enabled());
        cp.install(ids::SHA1).unwrap();
        let install_details = take_details(&mut cp);
        assert!(matches!(
            install_details[..],
            [D::PciBurst { write: true, .. }]
        ));
        let inputs: Vec<&[u8]> = vec![b"one", b"two"];
        cp.invoke_batch(ids::SHA1, &inputs).unwrap();
        let details = take_details(&mut cp);
        // Temporal order: both input writes, controller work, then
        // both output reads.
        assert!(matches!(details[0], D::PciBurst { write: true, .. }));
        assert!(matches!(details[1], D::PciBurst { write: true, .. }));
        assert!(matches!(
            details[2],
            D::Residency { algo, hit: false } if algo == ids::SHA1
        ));
        assert!(matches!(
            details[details.len() - 1],
            D::PciBurst { write: false, .. }
        ));
        assert!(details
            .iter()
            .any(|d| matches!(d, D::RomFetch { bytes, .. } if *bytes > 0)));
        // Tracing never perturbs timing: same run untraced.
        let mut plain = CoProcessor::default();
        plain.install(ids::SHA1).unwrap();
        let plain_results = plain.invoke_batch(ids::SHA1, &inputs).unwrap();
        let mut traced = CoProcessor::builder().trace(true).build();
        traced.install(ids::SHA1).unwrap();
        let traced_results = traced.invoke_batch(ids::SHA1, &inputs).unwrap();
        assert_eq!(plain_results, traced_results);
    }

    #[test]
    fn prefetch_details_precede_the_next_batch_in_time_order() {
        use aaod_sim::DetailEvent as D;
        let mut cp = CoProcessor::builder().trace(true).build();
        cp.install(ids::CRC32).unwrap();
        cp.install(ids::SHA1).unwrap();
        cp.invoke(ids::CRC32, b"123456789").unwrap();
        take_details(&mut cp);
        assert!(cp.prefetch_hint(ids::SHA1));
        cp.invoke(ids::CRC32, b"123456789").unwrap();
        let details = take_details(&mut cp);
        // the prefetch ran first, so its configuration leads the stream
        assert!(
            matches!(
                details[..],
                [
                    D::RomFetch { algo: a, .. },
                    D::Decompress { algo: b, .. },
                    D::PortWrite { algo: c, frames: 12 },
                    D::DecodedCache { algo: d, hit: false },
                    D::PciBurst { write: true, bytes: 9, .. },
                    D::Residency { algo: e, hit: true },
                    D::PciBurst { write: false, bytes: 4, .. },
                ] if [a, b, c, d] == [ids::SHA1; 4] && e == ids::CRC32
            ),
            "{details:?}"
        );
    }

    #[test]
    fn invoke_is_a_batch_of_one() {
        let mut single = CoProcessor::builder().trace(true).build();
        let mut batched = CoProcessor::builder().trace(true).build();
        single.install(ids::SHA1).unwrap();
        batched.install(ids::SHA1).unwrap();
        assert_eq!(take_details(&mut single), take_details(&mut batched));
        // first call misses, second hits
        for _ in 0..2 {
            let got = single.invoke(ids::SHA1, b"abc").unwrap();
            let want = batched.invoke_batch(ids::SHA1, &[b"abc"]).unwrap();
            assert_eq!(want.len(), 1);
            assert_eq!(got, want[0]);
            assert_eq!(take_details(&mut single), take_details(&mut batched));
            assert_eq!(single.pci_stats(), batched.pci_stats());
        }
        assert_eq!(single.stats(), batched.stats());
    }

    #[test]
    fn resilient_invoke_retries_armed_pci_faults() {
        let mut cp = CoProcessor::default();
        cp.install(ids::CRC32).unwrap();
        let (clean_out, clean_report) = cp.invoke(ids::CRC32, b"123456789").unwrap();
        cp.bus_mut().arm_transient_faults(1);
        let (out, report) = cp.invoke(ids::CRC32, b"123456789").unwrap();
        assert_eq!(out, clean_out);
        assert_eq!(
            report.pci_input_time,
            clean_report.pci_input_time * 2,
            "the aborted attempt's full bus time is charged to the transfer"
        );
        assert_eq!(report.pci_output_time, clean_report.pci_output_time);
        assert_eq!(cp.pci_stats().faulted_transfers, 1);
        assert_eq!(cp.bus().armed_faults(), 0);
    }

    #[test]
    fn invoke_before_install_fails() {
        let mut cp = CoProcessor::default();
        assert!(matches!(cp.invoke(ids::SHA1, b"x"), Err(CoreError::Mcu(_))));
    }
}
