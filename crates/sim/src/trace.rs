//! Deterministic modelled-time trace and metrics layer.
//!
//! Every component in the workspace accounts for latency in modelled
//! [`SimTime`]; this module makes that accounting *visible*. A
//! [`Tracer`] records typed [`TraceEvent`]s — job and stage spans plus
//! instantaneous markers for cache hits, evictions, PCI bursts, fault
//! injection and recovery, breaker transitions and watchdog resets —
//! keyed by modelled picosecond timestamps. Because every timestamp is
//! modelled, a trace is a pure function of (workload, seed, config):
//! the same run always produces the same bytes, which makes golden
//! snapshot tests byte-exact and turns the trace into a regression
//! oracle.
//!
//! # Levels
//!
//! Tracing is gated by [`TraceConfig`]:
//!
//! * [`TraceLevel::Off`] — every record call returns immediately; the
//!   hot path is unperturbed (this is the default).
//! * [`TraceLevel::Counters`] — events update the [`MetricsRegistry`]
//!   (counters + per-stage histograms) but are not stored.
//! * [`TraceLevel::Full`] — events are additionally kept in a bounded
//!   ring buffer for export.
//!
//! Tracing never advances modelled time: it only observes durations
//! the component models already computed, so enabling it cannot change
//! any simulation result.
//!
//! # Sharding
//!
//! Each worker shard owns its own [`Tracer`] (lock-free by
//! construction); per-shard event streams are deterministic and are
//! merged into a single [`TraceReport`] ordered by `(shard, seq)`.
//! A job is traced on the stream of the card that served it, a
//! redistributed job on its healthy shard's. Two pseudo-shards carry
//! engine-level events: [`PRODUCER_SHARD`] (the submission walk:
//! dispatch, steal and enqueue) and [`ENGINE_SHARD`] (the sheds of the
//! redistribution pass, and the requeue rescue's spare card).
//!
//! # Export
//!
//! [`TraceReport::to_jsonl`] writes one canonical JSON object per
//! event (fixed key order, integer picoseconds — byte-stable), and
//! [`TraceReport::to_chrome_trace`] writes Chrome `trace_event` JSON
//! loadable in `about:tracing` or [Perfetto](https://ui.perfetto.dev).

use crate::stats::TimeAccumulator;
use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Pseudo-shard id for the engine's submission walk (dispatch, steal
/// and enqueue events).
pub const PRODUCER_SHARD: u32 = u32::MAX;

/// Pseudo-shard id for the engine's own stream: jobs the
/// redistribution pass shed (no healthy shard, or past deadline), and
/// the requeue rescue's spare card, whose jobs carry the same
/// open/stage/close events as a shard's.
pub const ENGINE_SHARD: u32 = u32::MAX - 1;

/// Pseudo-shard id for fleet-level router events (failover and hedge
/// decisions). Per-card health edges ([`EventKind::CardDown`] /
/// [`EventKind::CardUp`]) are recorded on the card's own shard id so
/// each card's health timeline stays time-ordered.
pub const CLUSTER_SHARD: u32 = u32::MAX - 2;

/// How much the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TraceLevel {
    /// Record nothing; every tracer call is an early return.
    #[default]
    Off,
    /// Maintain the [`MetricsRegistry`] but store no events.
    Counters,
    /// Maintain the registry and keep events in the ring buffer.
    Full,
}

/// Tracer configuration: level plus ring-buffer capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// What to record.
    pub level: TraceLevel,
    /// Maximum events retained per shard at [`TraceLevel::Full`];
    /// older events are dropped (and counted) once full.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            level: TraceLevel::Off,
            capacity: 1 << 16,
        }
    }
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        TraceConfig::default()
    }

    /// Counters-only tracing.
    pub fn counters() -> Self {
        TraceConfig {
            level: TraceLevel::Counters,
            ..TraceConfig::default()
        }
    }

    /// Full event recording at the default capacity.
    pub fn full() -> Self {
        TraceConfig {
            level: TraceLevel::Full,
            ..TraceConfig::default()
        }
    }
}

/// A stage of a job's life, in service order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Host→card input transfer over PCI.
    PciIn,
    /// Record-table lookup in the mini OS.
    Lookup,
    /// Compressed bitstream fetch from the configuration ROM.
    RomFetch,
    /// Windowed decompression + config-port frame writes.
    Reconfig,
    /// Staging input bytes into the data-in module.
    DataIn,
    /// Kernel execution on the fabric.
    Execute,
    /// Collecting output bytes from the data-out module.
    Collect,
    /// Card→host output transfer over PCI.
    PciOut,
    /// Modelled retry backoff during fault recovery.
    Backoff,
    /// Scrub / re-download repair work during fault recovery.
    Repair,
    /// Watchdog-triggered card reset.
    Reset,
}

impl Stage {
    /// Every stage, in canonical service order.
    pub const ALL: [Stage; 11] = [
        Stage::PciIn,
        Stage::Lookup,
        Stage::RomFetch,
        Stage::Reconfig,
        Stage::DataIn,
        Stage::Execute,
        Stage::Collect,
        Stage::PciOut,
        Stage::Backoff,
        Stage::Repair,
        Stage::Reset,
    ];

    /// Stable snake_case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Stage::PciIn => "pci_in",
            Stage::Lookup => "lookup",
            Stage::RomFetch => "rom_fetch",
            Stage::Reconfig => "reconfig",
            Stage::DataIn => "data_in",
            Stage::Execute => "execute",
            Stage::Collect => "collect",
            Stage::PciOut => "pci_out",
            Stage::Backoff => "backoff",
            Stage::Repair => "repair",
            Stage::Reset => "reset",
        }
    }
}

/// Terminal state of a served job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobOutcome {
    /// Output produced (and verified, when verification is on).
    Completed,
    /// Retry budget exhausted; the job degraded to a fault error.
    Faulted,
    /// Served, but finished past its deadline; output dropped.
    DeadlineMissed,
}

impl JobOutcome {
    /// Stable snake_case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Faulted => "faulted",
            JobOutcome::DeadlineMissed => "deadline_missed",
        }
    }
}

/// Mechanism that resolved a fault back to a healthy card.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RepairKind {
    /// Frame readback scrub.
    Scrub,
    /// ROM image re-download.
    Redownload,
    /// Immediate PCI driver retry.
    PciRetry,
    /// Corrupt frames dissolved by a policy eviction.
    EvictClear,
}

impl RepairKind {
    /// Stable snake_case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            RepairKind::Scrub => "scrub",
            RepairKind::Redownload => "redownload",
            RepairKind::PciRetry => "pci_retry",
            RepairKind::EvictClear => "evict_clear",
        }
    }
}

/// Kind of injected fault (corruption and latency sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Frame SEU bit flip.
    FrameFlip,
    /// Torn (half-applied) configuration.
    TornConfig,
    /// ROM payload bit rot.
    RomRot,
    /// Transient PCI abort.
    PciTransient,
    /// Configuration-port stall.
    Stall,
    /// Slowed PCI transfer.
    SlowPci,
    /// Stuck card (healed by watchdog reset).
    StuckCard,
}

impl FaultKind {
    /// Stable snake_case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::FrameFlip => "frame_flip",
            FaultKind::TornConfig => "torn_config",
            FaultKind::RomRot => "rom_rot",
            FaultKind::PciTransient => "pci_transient",
            FaultKind::Stall => "stall",
            FaultKind::SlowPci => "slow_pci",
            FaultKind::StuckCard => "stuck_card",
        }
    }
}

/// Circuit-breaker phase, as seen by the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BreakerPhase {
    /// Admitting all work.
    Closed,
    /// Rejecting all work.
    Open,
    /// Admitting probe jobs.
    HalfOpen,
}

impl BreakerPhase {
    /// Stable snake_case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half_open",
        }
    }
}

/// Timestamp-free component-level event, recorded by the hardware
/// models ([`aaod-mcu`'s mini OS, the PCI driver]) into a [`DetailLog`]
/// and later stamped with a modelled time by the trace assembler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetailEvent {
    /// Residency check outcome for a batch's leading request.
    Residency {
        /// Target algorithm.
        algo: u16,
        /// `true` if the function was already configured on-fabric.
        hit: bool,
    },
    /// Decoded-bitstream cache outcome on a residency miss.
    DecodedCache {
        /// Target algorithm.
        algo: u16,
        /// `true` if the decoded frames were served from cache.
        hit: bool,
    },
    /// A resident function was evicted to free frames.
    Eviction {
        /// Evicted algorithm.
        algo: u16,
        /// Frames released.
        frames: u32,
    },
    /// Compressed bitstream fetched from the configuration ROM.
    RomFetch {
        /// Target algorithm.
        algo: u16,
        /// Compressed payload bytes read.
        bytes: u64,
    },
    /// Windowed decompression of a fetched bitstream.
    Decompress {
        /// Target algorithm.
        algo: u16,
        /// Decoder windows filled.
        windows: u64,
        /// Decompressed output bytes.
        bytes: u64,
    },
    /// Frames written through the configuration port.
    PortWrite {
        /// Target algorithm.
        algo: u16,
        /// Frames written.
        frames: u32,
    },
    /// An armed configuration-port stall was consumed.
    ConfigStall {
        /// Modelled time burned by the stall.
        time: SimTime,
    },
    /// A PCI transfer (one or more bursts) completed.
    PciBurst {
        /// `true` for host→card writes, `false` for reads.
        write: bool,
        /// Payload bytes moved.
        bytes: u64,
        /// Burst transactions issued.
        transactions: u64,
    },
}

/// Component-side buffer of [`DetailEvent`]s.
///
/// A card keeps exactly one: the mini-OS owns it and the PCI driver
/// pushes its bursts into the same log, so the buffered stream is in
/// true time order. The trace assembler (the engine's shard driver)
/// drains it after each batch and stamps the events with modelled
/// timestamps. Disabled logs drop pushes immediately.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DetailLog {
    enabled: bool,
    events: Vec<DetailEvent>,
}

impl DetailLog {
    /// A disabled, empty log.
    pub fn new() -> Self {
        DetailLog::default()
    }

    /// Enables or disables recording (disabling clears the buffer).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.events.clear();
        }
    }

    /// Whether pushes are currently recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `event` if enabled.
    pub fn push(&mut self, event: DetailEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Moves every buffered event into `buf` (appended in order),
    /// leaving this log empty but with its capacity intact, so hot
    /// loops that reuse a caller-owned buffer drain without
    /// allocating.
    pub fn drain_into(&mut self, buf: &mut Vec<DetailEvent>) {
        buf.append(&mut self.events);
    }
}

/// A typed trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A job entered service.
    JobOpen {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
    },
    /// A job left service.
    JobClose {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
        /// Terminal state.
        outcome: JobOutcome,
        /// `true` if the function was resident when the job ran.
        hit: bool,
    },
    /// A stage of a job began.
    StageOpen {
        /// Submission index of the job.
        job: u64,
        /// The stage.
        stage: Stage,
    },
    /// A stage of a job ended.
    StageClose {
        /// Submission index of the job.
        job: u64,
        /// The stage.
        stage: Stage,
    },
    /// The dynamic dispatcher dealt a job to the shard with the
    /// lowest modelled clock (`ShardPolicy::Dynamic` only; static
    /// partitions emit no deal events).
    Dispatch {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
        /// The shard the deal chose.
        to: u32,
        /// `true` when the deal landed on a shard where the
        /// algorithm was already resident (affinity preference).
        affinity: bool,
    },
    /// A work-stealing epoch moved a dealt-but-unserved job from the
    /// richest shard's queue tail to the poorest shard.
    Steal {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
        /// The shard the job was dealt to originally.
        from: u32,
        /// The shard that stole it.
        to: u32,
    },
    /// The submission walk routed a job to its shard.
    Enqueue {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
        /// Destination shard.
        to: u32,
    },
    /// A shard started the batch holding the job.
    Dequeue {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
    },
    /// Admission control dropped the job (deadline already passed).
    Shed {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
    },
    /// An open circuit breaker bounced the job off its shard.
    Bounced {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
    },
    /// A bounced job was re-served on a healthy shard.
    Redistributed {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
        /// The healthy shard that served it.
        to: u32,
    },
    /// A failed job was rescued on the spare card.
    Requeued {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
    },
    /// A component-level detail marker.
    Detail(DetailEvent),
    /// A scheduled fault activated on the card.
    FaultInjected {
        /// What landed.
        kind: FaultKind,
    },
    /// A scheduled fault could not land.
    FaultInert {
        /// What was scheduled.
        kind: FaultKind,
    },
    /// A fault was resolved back to a healthy card.
    FaultRepair {
        /// The mechanism that resolved it.
        kind: RepairKind,
    },
    /// A fault exhausted its retry budget.
    FaultFailed {
        /// Submission index of the failed job.
        job: u64,
        /// Target algorithm.
        algo: u16,
    },
    /// A recovery retry was spent.
    Retry {
        /// Submission index of the job.
        job: u64,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The watchdog reset a stuck card.
    WatchdogReset {
        /// Submission index of the in-flight job.
        job: u64,
    },
    /// The shard's circuit breaker changed phase.
    Breaker {
        /// Previous phase.
        from: BreakerPhase,
        /// New phase.
        to: BreakerPhase,
    },
    /// A cluster card became unreachable (crash, hang or link flap).
    CardDown {
        /// The card that went dark.
        card: u32,
    },
    /// A cluster card came back (hang outage over, flap up-phase).
    CardUp {
        /// The recovered card.
        card: u32,
    },
    /// The cluster router redirected a job to another replica before
    /// service started (breaker rejection or card down at dispatch).
    Failover {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
        /// The card the job was headed to.
        from: u32,
        /// The replica it failed over to.
        to: u32,
    },
    /// The cluster router re-dispatched a job stranded mid-service on
    /// a card that went down.
    Hedge {
        /// Submission index of the job.
        job: u64,
        /// Target algorithm.
        algo: u16,
        /// The card the job was stranded on.
        from: u32,
        /// The replica the hedge ran on.
        to: u32,
    },
    /// A shard speculatively pre-configured an algorithm in its idle
    /// window (online predictive policy; see `aaod_core::predict`).
    Prefetch {
        /// The algorithm configured ahead of demand.
        algo: u16,
        /// The shard whose idle window paid for it.
        shard: u32,
    },
    /// The online router replicated a hot algorithm to another card
    /// after its popularity crossed the upper hysteresis threshold.
    Replicate {
        /// The algorithm replicated.
        algo: u16,
        /// The card that gained the replica.
        card: u32,
    },
    /// The online router dropped a replica after the algorithm's
    /// popularity fell below the lower hysteresis threshold.
    Evict {
        /// The algorithm de-replicated.
        algo: u16,
        /// The card that lost the replica.
        card: u32,
    },
}

impl EventKind {
    /// The event's name: the JSONL `"event"` value and the Chrome
    /// instant name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::JobOpen { .. } => "job_open",
            EventKind::JobClose { .. } => "job_close",
            EventKind::StageOpen { .. } => "stage_open",
            EventKind::StageClose { .. } => "stage_close",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::Steal { .. } => "steal",
            EventKind::Enqueue { .. } => "enqueue",
            EventKind::Dequeue { .. } => "dequeue",
            EventKind::Shed { .. } => "shed",
            EventKind::Bounced { .. } => "bounced",
            EventKind::Redistributed { .. } => "redistributed",
            EventKind::Requeued { .. } => "requeued",
            EventKind::Detail(d) => match d {
                DetailEvent::Residency { .. } => "residency",
                DetailEvent::DecodedCache { .. } => "decoded_cache",
                DetailEvent::Eviction { .. } => "eviction",
                DetailEvent::RomFetch { .. } => "rom_fetch",
                DetailEvent::Decompress { .. } => "decompress",
                DetailEvent::PortWrite { .. } => "port_write",
                DetailEvent::ConfigStall { .. } => "config_stall",
                DetailEvent::PciBurst { .. } => "pci_burst",
            },
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::FaultInert { .. } => "fault_inert",
            EventKind::FaultRepair { .. } => "fault_repair",
            EventKind::FaultFailed { .. } => "fault_failed",
            EventKind::Retry { .. } => "retry",
            EventKind::WatchdogReset { .. } => "watchdog_reset",
            EventKind::Breaker { .. } => "breaker",
            EventKind::CardDown { .. } => "card_down",
            EventKind::CardUp { .. } => "card_up",
            EventKind::Failover { .. } => "failover",
            EventKind::Hedge { .. } => "hedge",
            EventKind::Prefetch { .. } => "prefetch",
            EventKind::Replicate { .. } => "replicate",
            EventKind::Evict { .. } => "evict",
        }
    }
}

/// One recorded event: modelled timestamp, shard, per-shard sequence
/// number and payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Modelled time of the event.
    pub ts: SimTime,
    /// Shard (or pseudo-shard) that recorded it.
    pub shard: u32,
    /// Per-shard sequence number (canonical sort key with `shard`).
    pub seq: u64,
    /// The payload.
    pub kind: EventKind,
}

/// Flat event counters derived from the trace stream.
///
/// These mirror the existing component ledgers (`OsStats`,
/// `FaultStats`, `OverloadStats`) so the invariant suite can check
/// that the trace and the ledgers agree exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub struct TraceCounters {
    pub jobs_opened: u64,
    pub jobs_completed: u64,
    pub jobs_faulted: u64,
    pub jobs_deadline_missed: u64,
    pub jobs_hit: u64,
    pub dispatched: u64,
    pub affinity_dispatches: u64,
    pub steals: u64,
    pub enqueued: u64,
    pub dequeued: u64,
    pub shed: u64,
    pub bounced: u64,
    pub redistributed: u64,
    pub requeued: u64,
    pub residency_hits: u64,
    pub residency_misses: u64,
    pub decoded_hits: u64,
    pub decoded_misses: u64,
    pub evictions: u64,
    pub evicted_frames: u64,
    pub rom_fetches: u64,
    pub rom_fetch_bytes: u64,
    pub decompress_windows: u64,
    pub decompress_bytes: u64,
    pub port_writes: u64,
    pub port_frames: u64,
    pub config_stalls: u64,
    pub pci_bursts: u64,
    pub pci_bytes: u64,
    pub pci_transactions: u64,
    pub faults_injected: u64,
    pub faults_inert: u64,
    pub repairs_scrub: u64,
    pub repairs_redownload: u64,
    pub repairs_pci_retry: u64,
    pub repairs_evict_clear: u64,
    pub faults_failed: u64,
    pub retries: u64,
    pub watchdog_resets: u64,
    pub breaker_trips: u64,
    pub breaker_transitions: u64,
    pub card_downs: u64,
    pub card_ups: u64,
    pub failovers: u64,
    pub hedges: u64,
    pub prefetches: u64,
    pub replications: u64,
    pub dereplications: u64,
}

impl TraceCounters {
    /// Faults resolved by any repair mechanism (mirrors
    /// `FaultStats::recovered`).
    pub fn repairs(&self) -> u64 {
        self.repairs_scrub
            + self.repairs_redownload
            + self.repairs_pci_retry
            + self.repairs_evict_clear
    }

    /// Sums another shard's counters into this one.
    pub fn merge(&mut self, o: &TraceCounters) {
        self.jobs_opened += o.jobs_opened;
        self.jobs_completed += o.jobs_completed;
        self.jobs_faulted += o.jobs_faulted;
        self.jobs_deadline_missed += o.jobs_deadline_missed;
        self.jobs_hit += o.jobs_hit;
        self.dispatched += o.dispatched;
        self.affinity_dispatches += o.affinity_dispatches;
        self.steals += o.steals;
        self.enqueued += o.enqueued;
        self.dequeued += o.dequeued;
        self.shed += o.shed;
        self.bounced += o.bounced;
        self.redistributed += o.redistributed;
        self.requeued += o.requeued;
        self.residency_hits += o.residency_hits;
        self.residency_misses += o.residency_misses;
        self.decoded_hits += o.decoded_hits;
        self.decoded_misses += o.decoded_misses;
        self.evictions += o.evictions;
        self.evicted_frames += o.evicted_frames;
        self.rom_fetches += o.rom_fetches;
        self.rom_fetch_bytes += o.rom_fetch_bytes;
        self.decompress_windows += o.decompress_windows;
        self.decompress_bytes += o.decompress_bytes;
        self.port_writes += o.port_writes;
        self.port_frames += o.port_frames;
        self.config_stalls += o.config_stalls;
        self.pci_bursts += o.pci_bursts;
        self.pci_bytes += o.pci_bytes;
        self.pci_transactions += o.pci_transactions;
        self.faults_injected += o.faults_injected;
        self.faults_inert += o.faults_inert;
        self.repairs_scrub += o.repairs_scrub;
        self.repairs_redownload += o.repairs_redownload;
        self.repairs_pci_retry += o.repairs_pci_retry;
        self.repairs_evict_clear += o.repairs_evict_clear;
        self.faults_failed += o.faults_failed;
        self.retries += o.retries;
        self.watchdog_resets += o.watchdog_resets;
        self.breaker_trips += o.breaker_trips;
        self.breaker_transitions += o.breaker_transitions;
        self.card_downs += o.card_downs;
        self.card_ups += o.card_ups;
        self.failovers += o.failovers;
        self.hedges += o.hedges;
        self.prefetches += o.prefetches;
        self.replications += o.replications;
        self.dereplications += o.dereplications;
    }
}

/// Aggregated metrics: flat counters, per-stage duration histograms
/// and per-algorithm reconfiguration / execution time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsRegistry {
    /// Flat event counters.
    pub counters: TraceCounters,
    /// Duration histogram per stage.
    pub stage_time: BTreeMap<Stage, TimeAccumulator>,
    /// Reconfiguration time per algorithm.
    pub algo_reconfig: BTreeMap<u16, TimeAccumulator>,
    /// Execution time per algorithm.
    pub algo_exec: BTreeMap<u16, TimeAccumulator>,
}

impl MetricsRegistry {
    fn absorb(&mut self, kind: &EventKind) {
        let c = &mut self.counters;
        match *kind {
            EventKind::JobOpen { .. } => c.jobs_opened += 1,
            EventKind::JobClose { outcome, hit, .. } => {
                match outcome {
                    JobOutcome::Completed => c.jobs_completed += 1,
                    JobOutcome::Faulted => c.jobs_faulted += 1,
                    JobOutcome::DeadlineMissed => c.jobs_deadline_missed += 1,
                }
                if hit {
                    c.jobs_hit += 1;
                }
            }
            EventKind::StageOpen { .. } | EventKind::StageClose { .. } => {}
            EventKind::Dispatch { affinity, .. } => {
                c.dispatched += 1;
                if affinity {
                    c.affinity_dispatches += 1;
                }
            }
            EventKind::Steal { .. } => c.steals += 1,
            EventKind::Enqueue { .. } => c.enqueued += 1,
            EventKind::Dequeue { .. } => c.dequeued += 1,
            EventKind::Shed { .. } => c.shed += 1,
            EventKind::Bounced { .. } => c.bounced += 1,
            EventKind::Redistributed { .. } => c.redistributed += 1,
            EventKind::Requeued { .. } => c.requeued += 1,
            EventKind::Detail(d) => match d {
                DetailEvent::Residency { hit, .. } => {
                    if hit {
                        c.residency_hits += 1;
                    } else {
                        c.residency_misses += 1;
                    }
                }
                DetailEvent::DecodedCache { hit, .. } => {
                    if hit {
                        c.decoded_hits += 1;
                    } else {
                        c.decoded_misses += 1;
                    }
                }
                DetailEvent::Eviction { frames, .. } => {
                    c.evictions += 1;
                    c.evicted_frames += frames as u64;
                }
                DetailEvent::RomFetch { bytes, .. } => {
                    c.rom_fetches += 1;
                    c.rom_fetch_bytes += bytes;
                }
                DetailEvent::Decompress { windows, bytes, .. } => {
                    c.decompress_windows += windows;
                    c.decompress_bytes += bytes;
                }
                DetailEvent::PortWrite { frames, .. } => {
                    c.port_writes += 1;
                    c.port_frames += frames as u64;
                }
                DetailEvent::ConfigStall { .. } => c.config_stalls += 1,
                DetailEvent::PciBurst {
                    bytes,
                    transactions,
                    ..
                } => {
                    c.pci_bursts += 1;
                    c.pci_bytes += bytes;
                    c.pci_transactions += transactions;
                }
            },
            EventKind::FaultInjected { .. } => c.faults_injected += 1,
            EventKind::FaultInert { .. } => c.faults_inert += 1,
            EventKind::FaultRepair { kind } => match kind {
                RepairKind::Scrub => c.repairs_scrub += 1,
                RepairKind::Redownload => c.repairs_redownload += 1,
                RepairKind::PciRetry => c.repairs_pci_retry += 1,
                RepairKind::EvictClear => c.repairs_evict_clear += 1,
            },
            EventKind::FaultFailed { .. } => c.faults_failed += 1,
            EventKind::Retry { .. } => c.retries += 1,
            EventKind::WatchdogReset { .. } => c.watchdog_resets += 1,
            EventKind::Breaker { from, to } => {
                c.breaker_transitions += 1;
                if from == BreakerPhase::Closed && to == BreakerPhase::Open {
                    c.breaker_trips += 1;
                }
            }
            EventKind::CardDown { .. } => c.card_downs += 1,
            EventKind::CardUp { .. } => c.card_ups += 1,
            EventKind::Failover { .. } => c.failovers += 1,
            EventKind::Hedge { .. } => c.hedges += 1,
            EventKind::Prefetch { .. } => c.prefetches += 1,
            EventKind::Replicate { .. } => c.replications += 1,
            EventKind::Evict { .. } => c.dereplications += 1,
        }
    }

    /// Merges another registry (counters summed, histograms appended).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.counters.merge(&other.counters);
        for (stage, hist) in &other.stage_time {
            self.stage_time.entry(*stage).or_default().merge(hist);
        }
        for (algo, hist) in &other.algo_reconfig {
            self.algo_reconfig.entry(*algo).or_default().merge(hist);
        }
        for (algo, hist) in &other.algo_exec {
            self.algo_exec.entry(*algo).or_default().merge(hist);
        }
    }
}

/// A per-shard event recorder.
///
/// Cheap when off: [`Tracer::record`] returns before constructing
/// anything. At [`TraceLevel::Full`] events land in a bounded ring
/// buffer (oldest dropped first, with a drop count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tracer {
    cfg: TraceConfig,
    shard: u32,
    seq: u64,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    metrics: MetricsRegistry,
}

impl Tracer {
    /// A tracer for `shard` under `cfg`.
    pub fn new(cfg: TraceConfig, shard: u32) -> Self {
        Tracer {
            cfg,
            shard,
            seq: 0,
            events: VecDeque::new(),
            dropped: 0,
            metrics: MetricsRegistry::default(),
        }
    }

    /// The configured level.
    pub fn level(&self) -> TraceLevel {
        self.cfg.level
    }

    /// `true` unless the level is [`TraceLevel::Off`].
    pub fn enabled(&self) -> bool {
        self.cfg.level != TraceLevel::Off
    }

    /// Records one event at modelled time `ts`.
    pub fn record(&mut self, ts: SimTime, kind: EventKind) {
        if self.cfg.level == TraceLevel::Off {
            return;
        }
        self.metrics.absorb(&kind);
        if self.cfg.level == TraceLevel::Full {
            if self.events.capacity() < self.cfg.capacity {
                // One-time ring allocation (lazy, so cheaper levels pay
                // nothing): without it the deque re-allocates and copies
                // itself ~17 times on the way to a 2^16 ring, all of it
                // inside the serving hot loop. At capacity the
                // pop-front/push-back recycle below is allocation-free.
                self.events
                    .reserve_exact(self.cfg.capacity - self.events.len());
            }
            if self.events.len() >= self.cfg.capacity {
                self.events.pop_front();
                self.dropped += 1;
            }
            self.events.push_back(TraceEvent {
                ts,
                shard: self.shard,
                seq: self.seq,
                kind,
            });
        }
        self.seq += 1;
    }

    /// Records a stage span: `StageOpen` at `start`, `StageClose` at
    /// `start + dur`, and the duration into the per-stage (and, for
    /// reconfiguration/execution, per-algorithm) histograms.
    /// Zero-duration stages are skipped.
    pub fn span(&mut self, start: SimTime, dur: SimTime, job: u64, stage: Stage, algo: u16) {
        if self.cfg.level == TraceLevel::Off || dur.is_zero() {
            return;
        }
        self.record(start, EventKind::StageOpen { job, stage });
        self.record(start + dur, EventKind::StageClose { job, stage });
        self.metrics.stage_time.entry(stage).or_default().push(dur);
        match stage {
            Stage::Reconfig => self
                .metrics
                .algo_reconfig
                .entry(algo)
                .or_default()
                .push(dur),
            Stage::Execute => self.metrics.algo_exec.entry(algo).or_default().push(dur),
            _ => {}
        }
    }

    /// Records a batch of component details at modelled time `ts`.
    pub fn details(&mut self, ts: SimTime, details: &[DetailEvent]) {
        if self.cfg.level == TraceLevel::Off {
            return;
        }
        for d in details {
            self.record(ts, EventKind::Detail(*d));
        }
    }

    /// Consumes the tracer into its shard's share of the report.
    pub fn finish(self) -> TraceShard {
        TraceShard {
            shard: self.shard,
            events: self.events.into_iter().collect(),
            dropped: self.dropped,
            metrics: self.metrics,
        }
    }
}

/// One shard's finished event stream and metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceShard {
    /// Which shard recorded this.
    pub shard: u32,
    /// The events, in sequence order.
    pub events: Vec<TraceEvent>,
    /// Events dropped by the ring buffer.
    pub dropped: u64,
    /// This shard's metrics.
    pub metrics: MetricsRegistry,
}

/// The merged trace of a run: events in canonical `(shard, seq)`
/// order, the drop count, and the aggregated [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Every retained event, sorted by `(shard, seq)`.
    pub events: Vec<TraceEvent>,
    /// Events dropped by ring buffers across all shards.
    pub dropped: u64,
    /// Aggregated metrics.
    pub metrics: MetricsRegistry,
}

impl TraceReport {
    /// Merges per-shard streams into one canonical report.
    pub fn assemble(shards: Vec<TraceShard>) -> Self {
        let mut shards = shards;
        shards.sort_by_key(|s| s.shard);
        let mut report = TraceReport::default();
        for shard in shards {
            report.dropped += shard.dropped;
            report.metrics.merge(&shard.metrics);
            report.events.extend(shard.events);
        }
        report
    }

    /// Canonical JSONL export: one event per line, fixed key order,
    /// integer picosecond timestamps — byte-identical for identical
    /// (workload, seed, config).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for e in &self.events {
            jsonl_line(&mut out, e);
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON (load in `about:tracing` or
    /// [Perfetto](https://ui.perfetto.dev)). Spans become `B`/`E`
    /// pairs, markers become thread-scoped instants; `tid` is the
    /// shard, timestamps are modelled microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 128 + 64);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for e in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            chrome_record(&mut out, e);
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

/// Formats a picosecond instant as fractional microseconds with a
/// fixed six-digit fraction (deterministic, no floats).
fn chrome_ts(t: SimTime) -> String {
    let ps = t.as_ps();
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

fn jsonl_line(out: &mut String, e: &TraceEvent) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"shard\":{},\"seq\":{},\"ts_ps\":{},\"event\":\"{}\"",
        e.shard,
        e.seq,
        e.ts.as_ps(),
        e.kind.name()
    );
    match e.kind {
        EventKind::JobOpen { job, algo }
        | EventKind::Dequeue { job, algo }
        | EventKind::Shed { job, algo }
        | EventKind::Bounced { job, algo }
        | EventKind::Requeued { job, algo }
        | EventKind::FaultFailed { job, algo } => {
            let _ = write!(out, ",\"job\":{job},\"algo\":{algo}");
        }
        EventKind::JobClose {
            job,
            algo,
            outcome,
            hit,
        } => {
            let _ = write!(
                out,
                ",\"job\":{job},\"algo\":{algo},\"outcome\":\"{}\",\"hit\":{hit}",
                outcome.name()
            );
        }
        EventKind::StageOpen { job, stage } | EventKind::StageClose { job, stage } => {
            let _ = write!(out, ",\"job\":{job},\"stage\":\"{}\"", stage.name());
        }
        EventKind::Dispatch {
            job,
            algo,
            to,
            affinity,
        } => {
            let _ = write!(
                out,
                ",\"job\":{job},\"algo\":{algo},\"to\":{to},\"affinity\":{affinity}"
            );
        }
        EventKind::Steal {
            job,
            algo,
            from,
            to,
        }
        | EventKind::Failover {
            job,
            algo,
            from,
            to,
        }
        | EventKind::Hedge {
            job,
            algo,
            from,
            to,
        } => {
            let _ = write!(
                out,
                ",\"job\":{job},\"algo\":{algo},\"from\":{from},\"to\":{to}"
            );
        }
        EventKind::Enqueue { job, algo, to } | EventKind::Redistributed { job, algo, to } => {
            let _ = write!(out, ",\"job\":{job},\"algo\":{algo},\"to\":{to}");
        }
        EventKind::Detail(d) => match d {
            DetailEvent::Residency { algo, hit } | DetailEvent::DecodedCache { algo, hit } => {
                let _ = write!(out, ",\"algo\":{algo},\"hit\":{hit}");
            }
            DetailEvent::Eviction { algo, frames } | DetailEvent::PortWrite { algo, frames } => {
                let _ = write!(out, ",\"algo\":{algo},\"frames\":{frames}");
            }
            DetailEvent::RomFetch { algo, bytes } => {
                let _ = write!(out, ",\"algo\":{algo},\"bytes\":{bytes}");
            }
            DetailEvent::Decompress {
                algo,
                windows,
                bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"algo\":{algo},\"windows\":{windows},\"bytes\":{bytes}"
                );
            }
            DetailEvent::ConfigStall { time } => {
                let _ = write!(out, ",\"stall_ps\":{}", time.as_ps());
            }
            DetailEvent::PciBurst {
                write,
                bytes,
                transactions,
            } => {
                let _ = write!(
                    out,
                    ",\"dir\":\"{}\",\"bytes\":{bytes},\"transactions\":{transactions}",
                    if write { "write" } else { "read" }
                );
            }
        },
        EventKind::FaultInjected { kind } | EventKind::FaultInert { kind } => {
            let _ = write!(out, ",\"kind\":\"{}\"", kind.name());
        }
        EventKind::FaultRepair { kind } => {
            let _ = write!(out, ",\"kind\":\"{}\"", kind.name());
        }
        EventKind::Retry { job, attempt } => {
            let _ = write!(out, ",\"job\":{job},\"attempt\":{attempt}");
        }
        EventKind::WatchdogReset { job } => {
            let _ = write!(out, ",\"job\":{job}");
        }
        EventKind::Breaker { from, to } => {
            let _ = write!(
                out,
                ",\"from\":\"{}\",\"to\":\"{}\"",
                from.name(),
                to.name()
            );
        }
        EventKind::CardDown { card } | EventKind::CardUp { card } => {
            let _ = write!(out, ",\"card\":{card}");
        }
        EventKind::Prefetch { algo, shard } => {
            let _ = write!(out, ",\"algo\":{algo},\"prefetch_shard\":{shard}");
        }
        EventKind::Replicate { algo, card } | EventKind::Evict { algo, card } => {
            let _ = write!(out, ",\"algo\":{algo},\"card\":{card}");
        }
    }
    out.push('}');
}

fn chrome_record(out: &mut String, e: &TraceEvent) {
    use std::fmt::Write;
    let ts = chrome_ts(e.ts);
    let tid = e.shard;
    match e.kind {
        EventKind::JobOpen { job, algo } => {
            let _ = write!(
                out,
                "{{\"name\":\"job {job} (algo {algo})\",\"cat\":\"job\",\"ph\":\"B\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
            );
        }
        EventKind::JobClose { job, algo, .. } => {
            let _ = write!(
                out,
                "{{\"name\":\"job {job} (algo {algo})\",\"cat\":\"job\",\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
            );
        }
        EventKind::StageOpen { stage, .. } => {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"B\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}",
                stage.name()
            );
        }
        EventKind::StageClose { stage, .. } => {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}",
                stage.name()
            );
        }
        _ => {
            // Everything else renders as a thread-scoped instant whose
            // name is the JSONL event name.
            let name = e.kind.name();
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"mark\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(capacity: usize) -> TraceConfig {
        TraceConfig {
            level: TraceLevel::Full,
            capacity,
        }
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(TraceConfig::off(), 0);
        t.record(SimTime::ZERO, EventKind::JobOpen { job: 0, algo: 1 });
        t.span(SimTime::ZERO, SimTime::from_ns(5), 0, Stage::Execute, 1);
        t.details(
            SimTime::ZERO,
            &[DetailEvent::Eviction { algo: 1, frames: 4 }],
        );
        let shard = t.finish();
        assert!(shard.events.is_empty());
        assert_eq!(shard.metrics, MetricsRegistry::default());
    }

    #[test]
    fn counters_level_updates_registry_without_storing() {
        let mut t = Tracer::new(TraceConfig::counters(), 3);
        t.record(SimTime::ZERO, EventKind::JobOpen { job: 7, algo: 2 });
        t.record(
            SimTime::from_ns(10),
            EventKind::JobClose {
                job: 7,
                algo: 2,
                outcome: JobOutcome::Completed,
                hit: true,
            },
        );
        let shard = t.finish();
        assert!(shard.events.is_empty());
        assert_eq!(shard.metrics.counters.jobs_opened, 1);
        assert_eq!(shard.metrics.counters.jobs_completed, 1);
        assert_eq!(shard.metrics.counters.jobs_hit, 1);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut t = Tracer::new(full(2), 0);
        for i in 0..5 {
            t.record(SimTime::from_ns(i), EventKind::Dequeue { job: i, algo: 1 });
        }
        let shard = t.finish();
        assert_eq!(shard.events.len(), 2);
        assert_eq!(shard.dropped, 3);
        assert_eq!(shard.events[0].seq, 3);
        assert_eq!(shard.events[1].seq, 4);
        assert_eq!(shard.metrics.counters.dequeued, 5);
    }

    #[test]
    fn span_skips_zero_durations_and_feeds_histograms() {
        let mut t = Tracer::new(full(64), 0);
        t.span(SimTime::ZERO, SimTime::ZERO, 0, Stage::RomFetch, 9);
        t.span(SimTime::ZERO, SimTime::from_ns(4), 0, Stage::Reconfig, 9);
        t.span(
            SimTime::from_ns(4),
            SimTime::from_ns(6),
            0,
            Stage::Execute,
            9,
        );
        let shard = t.finish();
        assert_eq!(shard.events.len(), 4);
        assert!(!shard.metrics.stage_time.contains_key(&Stage::RomFetch));
        assert_eq!(shard.metrics.algo_reconfig[&9].total(), SimTime::from_ns(4));
        assert_eq!(shard.metrics.algo_exec[&9].summary_ns().mean, 6.0);
    }

    #[test]
    fn time_hist_summaries() {
        let mut h = TimeAccumulator::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), SimTime::ZERO);
        for ns in [30u64, 10, 20] {
            h.push(SimTime::from_ns(ns));
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.total(), SimTime::from_ns(60));
        assert_eq!(h.quantile(0.0), SimTime::from_ns(10));
        assert_eq!(h.quantile(0.5), SimTime::from_ns(20));
        assert_eq!(h.quantile(1.0), SimTime::from_ns(30));
        assert_eq!(h.summary_ns().mean, 20.0);
        let mut other = TimeAccumulator::new();
        other.push(SimTime::from_ns(40));
        h.merge(&other);
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(1.0), SimTime::from_ns(40));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn time_hist_rejects_out_of_range_quantile() {
        TimeAccumulator::new().quantile(1.5);
    }

    #[test]
    fn assemble_orders_by_shard_then_seq() {
        let mut a = Tracer::new(full(8), 1);
        a.record(SimTime::from_ns(5), EventKind::Dequeue { job: 1, algo: 1 });
        let mut b = Tracer::new(full(8), 0);
        b.record(SimTime::from_ns(9), EventKind::Dequeue { job: 0, algo: 1 });
        let report = TraceReport::assemble(vec![a.finish(), b.finish()]);
        assert_eq!(report.events[0].shard, 0);
        assert_eq!(report.events[1].shard, 1);
        assert_eq!(report.metrics.counters.dequeued, 2);
    }

    #[test]
    fn jsonl_is_stable_and_one_line_per_event() {
        let mut t = Tracer::new(full(8), 2);
        t.record(SimTime::from_ns(1), EventKind::JobOpen { job: 4, algo: 40 });
        t.record(
            SimTime::from_ns(3),
            EventKind::Detail(DetailEvent::PciBurst {
                write: true,
                bytes: 64,
                transactions: 2,
            }),
        );
        let report = TraceReport::assemble(vec![t.finish()]);
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"shard\":2,\"seq\":0,\"ts_ps\":1000,\"event\":\"job_open\",\"job\":4,\"algo\":40}"
        );
        assert_eq!(
            lines[1],
            "{\"shard\":2,\"seq\":1,\"ts_ps\":3000,\"event\":\"pci_burst\",\"dir\":\"write\",\"bytes\":64,\"transactions\":2}"
        );
        // Byte-identical on re-export.
        assert_eq!(jsonl, report.to_jsonl());
    }

    #[test]
    fn chrome_trace_has_balanced_phases_and_fixed_point_ts() {
        let mut t = Tracer::new(full(16), 0);
        t.record(SimTime::ZERO, EventKind::JobOpen { job: 0, algo: 7 });
        t.span(SimTime::ZERO, SimTime::from_ns(1500), 0, Stage::Execute, 7);
        t.record(
            SimTime::from_ns(1500),
            EventKind::JobClose {
                job: 0,
                algo: 7,
                outcome: JobOutcome::Completed,
                hit: false,
            },
        );
        t.record(SimTime::from_ns(1500), EventKind::WatchdogReset { job: 0 });
        let report = TraceReport::assemble(vec![t.finish()]);
        let chrome = report.to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.ends_with("]}") || chrome.ends_with("\"}"));
        assert_eq!(chrome.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(chrome.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(chrome.matches("\"ph\":\"i\"").count(), 1);
        // 1500 ns = 1.5 us rendered as fixed-point "1.500000".
        assert!(chrome.contains("\"ts\":1.500000"));
    }

    #[test]
    fn detail_log_gates_pushes() {
        let mut log = DetailLog::new();
        let mut drained = Vec::new();
        log.push(DetailEvent::RomFetch { algo: 1, bytes: 10 });
        log.drain_into(&mut drained);
        assert!(drained.is_empty(), "a disabled log drops pushes");
        log.set_enabled(true);
        log.push(DetailEvent::RomFetch { algo: 1, bytes: 10 });
        log.drain_into(&mut drained);
        assert_eq!(drained, vec![DetailEvent::RomFetch { algo: 1, bytes: 10 }]);
        log.drain_into(&mut drained);
        assert_eq!(drained.len(), 1, "draining empties the log");
        log.push(DetailEvent::RomFetch { algo: 2, bytes: 20 });
        log.set_enabled(false);
        log.drain_into(&mut drained);
        assert_eq!(drained.len(), 1, "disabling clears the buffer");
    }

    #[test]
    fn detail_log_drain_into_reuses_buffer() {
        let mut log = DetailLog::new();
        log.set_enabled(true);
        log.push(DetailEvent::RomFetch { algo: 1, bytes: 10 });
        log.push(DetailEvent::RomFetch { algo: 2, bytes: 20 });
        let mut buf = Vec::with_capacity(8);
        log.drain_into(&mut buf);
        assert_eq!(buf.len(), 2);
        let cap = buf.capacity();
        buf.clear();
        log.push(DetailEvent::RomFetch { algo: 3, bytes: 30 });
        log.drain_into(&mut buf);
        assert_eq!(buf, vec![DetailEvent::RomFetch { algo: 3, bytes: 30 }]);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn breaker_trips_counted_from_closed_to_open() {
        let mut t = Tracer::new(TraceConfig::counters(), 0);
        t.record(
            SimTime::ZERO,
            EventKind::Breaker {
                from: BreakerPhase::Closed,
                to: BreakerPhase::Open,
            },
        );
        t.record(
            SimTime::from_ns(1),
            EventKind::Breaker {
                from: BreakerPhase::Open,
                to: BreakerPhase::HalfOpen,
            },
        );
        let shard = t.finish();
        assert_eq!(shard.metrics.counters.breaker_trips, 1);
        assert_eq!(shard.metrics.counters.breaker_transitions, 2);
    }

    #[test]
    fn empty_hist_is_all_zero() {
        let h = TimeAccumulator::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.total(), SimTime::ZERO);
        assert_eq!(h.quantile(0.0), SimTime::ZERO);
        assert_eq!(h.quantile(0.5), SimTime::ZERO);
        assert_eq!(h.quantile(1.0), SimTime::ZERO);
    }

    #[test]
    fn single_sample_hist_is_degenerate() {
        let mut h = TimeAccumulator::new();
        h.push(SimTime::from_ns(42));
        assert_eq!(h.count(), 1);
        assert_eq!(h.total(), SimTime::from_ns(42));
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), SimTime::from_ns(42));
        }
    }

    #[test]
    fn all_equal_hist_collapses_quantiles() {
        let mut h = TimeAccumulator::new();
        for _ in 0..32 {
            h.push(SimTime::from_us(3));
        }
        assert_eq!(h.quantile(0.0), SimTime::from_us(3));
        assert_eq!(h.quantile(0.5), SimTime::from_us(3));
        assert_eq!(h.quantile(0.99), SimTime::from_us(3));
        assert_eq!(h.total(), SimTime::from_us(3) * 32);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn hist_quantile_out_of_range_panics() {
        TimeAccumulator::new().quantile(-0.1);
    }

    #[test]
    fn hist_merge_appends_samples() {
        let mut a = TimeAccumulator::new();
        a.push(SimTime::from_ns(10));
        let mut b = TimeAccumulator::new();
        b.push(SimTime::from_ns(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.quantile(1.0), SimTime::from_ns(30));
        a.merge(&TimeAccumulator::new());
        assert_eq!(a.count(), 2, "merging empty is identity");
    }
}
