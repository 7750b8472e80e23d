//! Transaction-level PCI bus model.
//!
//! The paper's card "sits on a PCI card which can be fitted to a
//! standard desktop computer" and is "operated by issuing instructions
//! to the microcontroller through the PCI". This crate models the
//! 33 MHz / 32-bit PCI 2.2 bus at transaction level: every host↔card
//! transfer is broken into burst transactions with arbitration,
//! address-phase, wait-state and turnaround cycles, and the bus keeps
//! running totals so experiments can report effective bandwidth
//! (experiment E7).
//!
//! # Examples
//!
//! ```
//! use aaod_pci::{PciBus, PciConfig};
//!
//! let mut bus = PciBus::new(PciConfig::default());
//! let t = bus.write(4096); // host -> card, 4 KiB
//! assert!(t.as_us() > 0.0);
//! assert_eq!(bus.stats().bytes_written, 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aaod_sim::{Clock, SimTime};

/// Direction of a PCI transfer, from the host's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Host writes to the card.
    Write,
    /// Host reads from the card.
    Read,
}

/// Static bus parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PciConfig {
    /// Bus clock (33 MHz for PCI 2.2).
    pub clock: Clock,
    /// Data bus width in bytes (4 for 32-bit PCI).
    pub width_bytes: u64,
    /// Maximum data phases per burst before the transaction is split
    /// (models the latency timer / target disconnect).
    pub max_burst_words: u64,
    /// Cycles of arbitration before each transaction.
    pub arbitration_cycles: u64,
    /// Address-phase cycles per transaction.
    pub address_cycles: u64,
    /// Target initial-latency (wait-state) cycles per transaction;
    /// reads pay an extra turnaround cycle on top.
    pub wait_cycles: u64,
    /// Idle turnaround cycles after each transaction.
    pub turnaround_cycles: u64,
}

impl Default for PciConfig {
    /// 64-bit / 66 MHz PCI, as supported by the Altera Stratix PCI
    /// development board the paper's proof-of-concept uses.
    fn default() -> Self {
        PciConfig {
            clock: Clock::from_mhz(66),
            width_bytes: 8,
            max_burst_words: 64,
            arbitration_cycles: 2,
            address_cycles: 1,
            wait_cycles: 3,
            turnaround_cycles: 1,
        }
    }
}

impl PciConfig {
    /// Legacy 32-bit / 33 MHz PCI 2.2 (desktop slots of the era); the
    /// comparison point for experiment E7.
    pub fn pci33_32() -> Self {
        PciConfig {
            clock: aaod_sim::clock::domains::pci(),
            width_bytes: 4,
            ..PciConfig::default()
        }
    }

    /// Theoretical peak bandwidth in bytes/second (width × clock).
    pub fn peak_bandwidth(&self) -> f64 {
        self.width_bytes as f64 * self.clock.freq_hz() as f64
    }
}

/// Running totals of bus activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PciStats {
    /// Bytes moved host → card.
    pub bytes_written: u64,
    /// Bytes moved card → host.
    pub bytes_read: u64,
    /// Transactions issued (after burst splitting).
    pub transactions: u64,
    /// Total bus-busy cycles.
    pub busy_cycles: u64,
    /// Transfers aborted by an injected transient fault.
    pub faulted_transfers: u64,
    /// Transfers degraded by an injected slow-bus fault (they
    /// completed, at a multiple of the nominal cost).
    pub slowed_transfers: u64,
    /// Bus cycles burned by aborted transfers and by the slowdown
    /// overhead of degraded transfers (subset of `busy_cycles`).
    pub wasted_cycles: u64,
}

impl PciStats {
    /// Field-wise counter deltas since an `earlier` snapshot.
    ///
    /// The observability layer brackets a transfer with two snapshots
    /// and turns the delta into one PCI-burst trace event, so the bus
    /// model itself needs no tracing state.
    ///
    /// # Panics
    ///
    /// Panics if any counter in `earlier` exceeds the corresponding
    /// counter in `self` (i.e. `earlier` is not actually earlier).
    pub fn delta(&self, earlier: &PciStats) -> PciStats {
        PciStats {
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            transactions: self.transactions - earlier.transactions,
            busy_cycles: self.busy_cycles - earlier.busy_cycles,
            faulted_transfers: self.faulted_transfers - earlier.faulted_transfers,
            slowed_transfers: self.slowed_transfers - earlier.slowed_transfers,
            wasted_cycles: self.wasted_cycles - earlier.wasted_cycles,
        }
    }
}

/// A PCI transfer failure.
///
/// The model only produces transient aborts (master/target abort or a
/// parity error forcing a retry); the aborted transaction still burned
/// bus time, which the error carries so callers can charge it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PciError {
    /// The transfer aborted mid-flight and must be retried.
    TransientAbort {
        /// Bus time consumed by the aborted attempt.
        wasted: SimTime,
    },
}

impl std::fmt::Display for PciError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PciError::TransientAbort { wasted } => {
                write!(f, "transient PCI abort ({wasted} wasted)")
            }
        }
    }
}

impl std::error::Error for PciError {}

/// The bus itself: converts transfer sizes into time and keeps stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PciBus {
    config: PciConfig,
    stats: PciStats,
    armed_faults: u32,
    armed_slow: u32,
    slow_factor: u32,
}

impl PciBus {
    /// Creates a bus with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the width or burst limit is zero.
    pub fn new(config: PciConfig) -> Self {
        assert!(config.width_bytes > 0, "bus width must be non-zero");
        assert!(config.max_burst_words > 0, "burst limit must be non-zero");
        PciBus {
            config,
            stats: PciStats::default(),
            armed_faults: 0,
            armed_slow: 0,
            slow_factor: 1,
        }
    }

    /// The bus parameters.
    pub fn config(&self) -> PciConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PciStats {
        self.stats
    }

    /// Cycles one transaction of `words` data phases takes.
    fn transaction_cycles(&self, words: u64, dir: Direction) -> u64 {
        let read_turnaround = match dir {
            Direction::Read => 1,
            Direction::Write => 0,
        };
        self.config.arbitration_cycles
            + self.config.address_cycles
            + self.config.wait_cycles
            + read_turnaround
            + words
            + self.config.turnaround_cycles
    }

    /// Transfers `bytes` in `dir`, splitting into bursts, and returns
    /// the bus time consumed. Zero-byte transfers take zero time.
    pub fn transfer(&mut self, bytes: u64, dir: Direction) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        let words = bytes.div_ceil(self.config.width_bytes);
        let full = words / self.config.max_burst_words;
        let tail = words % self.config.max_burst_words;
        let mut cycles = full * self.transaction_cycles(self.config.max_burst_words, dir);
        let mut transactions = full;
        if tail > 0 {
            cycles += self.transaction_cycles(tail, dir);
            transactions += 1;
        }
        self.stats.transactions += transactions;
        self.stats.busy_cycles += cycles;
        match dir {
            Direction::Write => self.stats.bytes_written += bytes,
            Direction::Read => self.stats.bytes_read += bytes,
        }
        self.config.clock.cycles(cycles)
    }

    /// Host-to-card transfer.
    pub fn write(&mut self, bytes: u64) -> SimTime {
        self.transfer(bytes, Direction::Write)
    }

    /// Card-to-host transfer.
    pub fn read(&mut self, bytes: u64) -> SimTime {
        self.transfer(bytes, Direction::Read)
    }

    /// Arms `n` one-shot transient faults. Each subsequent *fallible*
    /// transfer ([`PciBus::try_transfer`]) consumes
    /// one armed fault and aborts; the infallible paths never consume
    /// them, so legacy callers are unaffected.
    pub fn arm_transient_faults(&mut self, n: u32) {
        self.armed_faults += n;
    }

    /// Armed faults not yet consumed.
    pub fn armed_faults(&self) -> u32 {
        self.armed_faults
    }

    /// Arms `n` one-shot slow transfers at `factor`× the nominal
    /// cost: each subsequent *fallible* transfer consumes one and
    /// completes, but occupies the bus `factor` times as long (a
    /// degraded link renegotiating, or a congested switch). The
    /// overhead beyond nominal is counted in `wasted_cycles`. Like
    /// armed transient faults, the infallible paths never consume
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn arm_slow_transfers(&mut self, n: u32, factor: u32) {
        assert!(factor >= 1, "slow factor must be at least 1");
        self.armed_slow += n;
        self.slow_factor = factor;
    }

    /// Armed slow transfers not yet consumed.
    pub fn armed_slow(&self) -> u32 {
        self.armed_slow
    }

    /// Disarms any remaining slow transfers, returning how many were
    /// still pending.
    pub fn disarm_slow(&mut self) -> u32 {
        std::mem::take(&mut self.armed_slow)
    }

    /// Fallible transfer: consumes an armed fault if one is pending.
    ///
    /// An aborted attempt still occupies the bus for the full transfer
    /// (worst-case retry timer), counted in `busy_cycles` and
    /// `faulted_transfers`, but delivers no bytes. An armed *slow*
    /// transfer completes at `factor`× cost; a transient abort takes
    /// precedence when both are armed.
    pub fn try_transfer(&mut self, bytes: u64, dir: Direction) -> Result<SimTime, PciError> {
        if self.armed_faults == 0 {
            if self.armed_slow > 0 && bytes > 0 {
                self.armed_slow -= 1;
                let before = self.stats.busy_cycles;
                let t = self.transfer(bytes, dir);
                let base_cycles = self.stats.busy_cycles - before;
                let extra_cycles = base_cycles * (self.slow_factor as u64 - 1);
                self.stats.busy_cycles += extra_cycles;
                self.stats.wasted_cycles += extra_cycles;
                self.stats.slowed_transfers += 1;
                return Ok(t * self.slow_factor as u64);
            }
            return Ok(self.transfer(bytes, dir));
        }
        self.armed_faults -= 1;
        let before = self.stats;
        let wasted = self.transfer(bytes, dir);
        // The attempt burned bus time but delivered nothing.
        self.stats.bytes_written = before.bytes_written;
        self.stats.bytes_read = before.bytes_read;
        self.stats.faulted_transfers += 1;
        self.stats.wasted_cycles += self.stats.busy_cycles - before.busy_cycles;
        Err(PciError::TransientAbort { wasted })
    }

    /// Effective bandwidth (bytes/s) a transfer of `bytes` achieves
    /// under the current parameters, without touching the stats.
    pub fn effective_bandwidth(&self, bytes: u64, dir: Direction) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let mut probe = PciBus::new(self.config);
        let t = probe.transfer(bytes, dir);
        bytes as f64 / t.as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_word_write_cost() {
        let mut bus = PciBus::new(PciConfig::default());
        let t = bus.write(4);
        // 2 arb + 1 addr + 3 wait + 1 data + 1 turnaround = 8 cycles
        assert_eq!(t, PciConfig::default().clock.cycles(8));
        assert_eq!(bus.stats().transactions, 1);
    }

    #[test]
    fn reads_cost_one_extra_cycle() {
        let mut bus = PciBus::new(PciConfig::default());
        let w = bus.write(4);
        let r = bus.read(4);
        let period = PciConfig::default().clock.period();
        assert_eq!(r, w + period);
    }

    #[test]
    fn burst_splitting() {
        let cfg = PciConfig {
            max_burst_words: 16,
            ..PciConfig::default()
        };
        let mut bus = PciBus::new(cfg);
        let w = cfg.width_bytes;
        bus.write(16 * w * 3 + w); // 3 full bursts + 1 word
        assert_eq!(bus.stats().transactions, 4);
    }

    #[test]
    fn larger_bursts_are_more_efficient() {
        let small = PciConfig {
            max_burst_words: 4,
            ..PciConfig::default()
        };
        let large = PciConfig {
            max_burst_words: 256,
            ..PciConfig::default()
        };
        let bytes = 64 * 1024;
        let bw_small = PciBus::new(small).effective_bandwidth(bytes, Direction::Write);
        let bw_large = PciBus::new(large).effective_bandwidth(bytes, Direction::Write);
        assert!(bw_large > bw_small * 1.5, "{bw_large} vs {bw_small}");
        assert!(bw_large < small.peak_bandwidth());
    }

    #[test]
    fn zero_transfer_is_free() {
        let mut bus = PciBus::new(PciConfig::default());
        assert_eq!(bus.write(0), SimTime::ZERO);
        assert_eq!(bus.stats().transactions, 0);
    }

    #[test]
    fn partial_word_rounds_up() {
        let mut bus = PciBus::new(PciConfig::default());
        let t3 = bus.write(3);
        let mut bus2 = PciBus::new(PciConfig::default());
        let t4 = bus2.write(4);
        assert_eq!(t3, t4);
    }

    #[test]
    fn stats_accumulate() {
        let mut bus = PciBus::new(PciConfig::default());
        bus.write(100);
        bus.read(200);
        let s = bus.stats();
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_read, 200);
        assert!(s.busy_cycles > 0);
    }

    #[test]
    fn stats_delta_isolates_one_transfer() {
        let mut bus = PciBus::new(PciConfig::default());
        bus.write(100);
        let before = bus.stats();
        bus.read(64);
        let d = bus.stats().delta(&before);
        assert_eq!(d.bytes_written, 0);
        assert_eq!(d.bytes_read, 64);
        assert!(d.transactions > 0);
        assert!(d.busy_cycles > 0);
        assert_eq!(d.faulted_transfers, 0);
        // A snapshot's delta against itself is all zeros.
        let s = bus.stats();
        assert_eq!(s.delta(&s), PciStats::default());
    }

    #[test]
    fn effective_bandwidth_below_peak() {
        let bus = PciBus::new(PciConfig::default());
        let bw = bus.effective_bandwidth(1 << 20, Direction::Write);
        let peak = PciConfig::default().peak_bandwidth();
        assert!(bw < peak);
        assert!(bw > peak * 0.5, "bandwidth collapsed: {bw}");
    }

    #[test]
    fn armed_fault_aborts_exactly_one_fallible_transfer() {
        let mut bus = PciBus::new(PciConfig::default());
        bus.arm_transient_faults(1);
        let err = bus.try_transfer(4096, Direction::Write).unwrap_err();
        let PciError::TransientAbort { wasted } = err;
        assert!(wasted > SimTime::ZERO);
        assert_eq!(bus.stats().bytes_written, 0, "aborted transfer delivered");
        assert_eq!(bus.stats().faulted_transfers, 1);
        assert_eq!(bus.armed_faults(), 0);
        // the retry succeeds
        let t = bus.try_transfer(4096, Direction::Write).unwrap();
        assert!(t > SimTime::ZERO);
        assert_eq!(bus.stats().bytes_written, 4096);
    }

    #[test]
    fn infallible_transfers_never_consume_armed_faults() {
        let mut bus = PciBus::new(PciConfig::default());
        bus.arm_transient_faults(1);
        bus.write(128);
        bus.read(128);
        assert_eq!(bus.armed_faults(), 1);
        assert_eq!(bus.stats().faulted_transfers, 0);
        assert_eq!(bus.stats().bytes_written, 128);
    }

    #[test]
    fn aborted_attempt_still_burns_bus_time() {
        let mut clean = PciBus::new(PciConfig::default());
        let clean_t = clean.try_transfer(2048, Direction::Write).unwrap();
        let mut faulty = PciBus::new(PciConfig::default());
        faulty.arm_transient_faults(1);
        let PciError::TransientAbort { wasted } =
            faulty.try_transfer(2048, Direction::Write).unwrap_err();
        assert_eq!(wasted, clean_t);
        assert_eq!(faulty.stats().busy_cycles, clean.stats().busy_cycles);
    }

    #[test]
    fn slow_transfer_costs_factor_times_nominal() {
        let mut clean = PciBus::new(PciConfig::default());
        let clean_t = clean.try_transfer(2048, Direction::Write).unwrap();
        let mut slow = PciBus::new(PciConfig::default());
        slow.arm_slow_transfers(1, 8);
        let t = slow.try_transfer(2048, Direction::Write).unwrap();
        assert_eq!(t, clean_t * 8);
        assert_eq!(slow.armed_slow(), 0);
        let s = slow.stats();
        assert_eq!(s.slowed_transfers, 1);
        assert_eq!(s.bytes_written, 2048, "slow transfer still delivers");
        assert_eq!(s.busy_cycles, clean.stats().busy_cycles * 8);
        assert_eq!(s.wasted_cycles, clean.stats().busy_cycles * 7);
        // the next transfer is back to nominal
        let t2 = slow.try_transfer(2048, Direction::Write).unwrap();
        assert_eq!(t2, clean_t);
    }

    #[test]
    fn infallible_transfers_never_consume_armed_slow() {
        let mut bus = PciBus::new(PciConfig::default());
        bus.arm_slow_transfers(2, 4);
        bus.write(128);
        bus.read(128);
        assert_eq!(bus.armed_slow(), 2);
        assert_eq!(bus.stats().slowed_transfers, 0);
        assert_eq!(bus.disarm_slow(), 2);
        assert_eq!(bus.armed_slow(), 0);
    }

    #[test]
    fn transient_abort_takes_precedence_over_slow() {
        let mut bus = PciBus::new(PciConfig::default());
        bus.arm_transient_faults(1);
        bus.arm_slow_transfers(1, 4);
        assert!(bus.try_transfer(256, Direction::Write).is_err());
        assert_eq!(bus.armed_slow(), 1, "abort consumed the slow arm");
        let mut clean = PciBus::new(PciConfig::default());
        let clean_t = clean.try_transfer(256, Direction::Write).unwrap();
        // the retry then hits the slow arm
        assert_eq!(
            bus.try_transfer(256, Direction::Write).unwrap(),
            clean_t * 4
        );
    }

    #[test]
    fn factor_one_slow_transfer_is_nominal() {
        let mut clean = PciBus::new(PciConfig::default());
        let clean_t = clean.try_transfer(512, Direction::Write).unwrap();
        let mut bus = PciBus::new(PciConfig::default());
        bus.arm_slow_transfers(1, 1);
        assert_eq!(bus.try_transfer(512, Direction::Write).unwrap(), clean_t);
        assert_eq!(bus.stats().wasted_cycles, 0);
        assert_eq!(bus.stats().slowed_transfers, 1);
    }

    #[test]
    #[should_panic(expected = "slow factor must be at least 1")]
    fn zero_slow_factor_panics() {
        let mut bus = PciBus::new(PciConfig::default());
        bus.arm_slow_transfers(1, 0);
    }

    #[test]
    #[should_panic(expected = "width must be non-zero")]
    fn zero_width_panics() {
        let cfg = PciConfig {
            width_bytes: 0,
            ..PciConfig::default()
        };
        let _ = PciBus::new(cfg);
    }
}
