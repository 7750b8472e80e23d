//! Concurrent serving engine: a sharded pool of co-processors.
//!
//! The paper models a single card serving one host. A serving
//! deployment (e.g. a crypto gateway) runs many such cards and fans
//! requests out across them. [`Engine`] reproduces that: it partitions
//! a [`Workload`] across `N` independent [`CoProcessor`] shards, each
//! driven by its own OS thread walking its slice of the submission
//! stream in order, and reassembles the results in submission order —
//! outputs are byte-identical to running the workload serially on one
//! card.
//!
//! Two serving optimisations ride on the pool:
//!
//! * **miss batching** — a shard takes the run of consecutive requests
//!   in its stream for the same algorithm and serves them with one
//!   [`CoProcessor::invoke_batch`] call, paying the record lookup and
//!   any (re)configuration once per run instead of once per request;
//! * **sharding policies** ([`ShardPolicy`]) — requests can be routed
//!   by `algo_id % N` (maximum locality), round-robin (maximum
//!   spread), or by a balanced partition that splits hot algorithms
//!   across shards when one algorithm alone would exceed a shard's
//!   fair share of the load.
//!
//! One per-shard driver serves every job: it admits its shard's stream
//! and serves it as runs, each one `invoke_batch` call inside the
//! detect→backoff→repair→retry loop. Once the pool drains, the same
//! drivers serve the second pass: a bounced job continues the driver
//! of a healthy shard from its clock, and with
//! [`FaultConfig::requeue`] a failed job is rescued by a driver on a
//! spare card whose clock starts at the makespan. Outputs verify
//! against the serving card's own bank.
//!
//! Wall-clock parallelism is an artefact of the host machine; the
//! engine's figure of merit is *modelled* time. Each shard accumulates
//! the simulated busy time of the requests it served; the engine's
//! makespan is the maximum over shards, and
//! [`EngineResult::speedup`] compares that against the serial
//! service-time sum.
//!
//! # Overload layer
//!
//! The overload layer always runs: it is how the engine defends
//! itself against *time-domain* failure, all in modelled time. The
//! paper's closed loop, where the host hands over each request as
//! soon as the last one is served, is one configuration of it: with
//! [`EngineConfig::overload`] `None`, every request arrives at time
//! zero, no deadline ever passes and the breaker never opens, so
//! nothing is shed, missed or bounced. With an [`OverloadConfig`]:
//!
//! * every request arrives at `index × interarrival` and carries a
//!   deadline per [`crate::DeadlinePolicy`];
//!   admission control sheds jobs whose deadline has already passed,
//!   and late completions are dropped as deadline-missed;
//! * the latency faults of [`aaod_sim::FaultPlan`] (configuration
//!   stalls, slow PCI, stuck cards) are injected per the plan, and a
//!   watchdog detects a stuck card via modelled heartbeats, resets
//!   it, and re-runs the in-flight job;
//! * each shard sits behind a [`CircuitBreaker`]: consecutive
//!   failures trip it open, bounced jobs are redistributed to healthy
//!   shards after the pool drains, and a half-open probe re-admits
//!   traffic after a cool-down.
//!
//! Every terminal state is counted in
//! [`crate::OverloadStats`], whose
//! [`accounted`](crate::OverloadStats::accounted) identity guarantees
//! no job is silently lost. It is checked on every run, closed loop
//! included.

use crate::breaker::BreakerConfig;
use crate::breaker::{BreakerState, CircuitBreaker};
use crate::coproc::{CoProcessor, HostReport};
use crate::dispatch::{self, DispatchPlan, DispatchStats};
use crate::error::CoreError;
use crate::fault::{FaultConfig, FaultStats, JobError};
use crate::overload::{DeadlinePolicy, OverloadConfig, OverloadStats, TenantStats, WatchdogConfig};
use crate::predict::PredictModel;
use aaod_mcu::OsStats;
use aaod_sim::stats::TimeAccumulator;
use aaod_sim::trace::{
    BreakerPhase, EventKind, FaultKind, JobOutcome, RepairKind, Stage, TraceConfig, TraceLevel,
    TraceReport, TraceShard, Tracer, ENGINE_SHARD, PRODUCER_SHARD,
};
use aaod_sim::{FaultPlan, FaultRates, FaultSite, LatencySite, SimTime};
use aaod_workload::Workload;
use std::collections::{BTreeMap, BTreeSet};

/// How requests are partitioned across the shard pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// `algo_id % workers`: every request for an algorithm lands on
    /// the same shard, maximising residency locality. Throughput is
    /// limited by the hottest shard.
    #[default]
    AlgoModulo,
    /// `request index % workers`: perfect load spread, worst
    /// locality — every shard ends up serving every algorithm.
    RoundRobin,
    /// Greedy weighted partition: algorithms are assigned whole to the
    /// least-loaded shard, except that an algorithm whose total weight
    /// exceeds a shard's fair share is *split* (replicated) across
    /// just enough shards to fit. Balances skewed (Zipf) workloads
    /// while keeping cold algorithms on a single shard.
    Balanced,
    /// Deterministic work-stealing dispatch (see [`crate::dispatch`]):
    /// each job is dealt to the shard with the lowest *modelled*
    /// virtual clock at deal time, with an affinity bonus for shards
    /// where the algorithm is already resident, and the poorest shard
    /// steals the richest shard's queue tail at fixed
    /// submission-index epochs. Every decision is a pure function of
    /// the workload, so results stay byte-identical across runs and
    /// thread interleavings. Unlike the static policies, the deal
    /// weighs requests by estimated *fabric cycles*, not bytes — a
    /// compute-dense algorithm that would saturate one static shard
    /// gets spread.
    Dynamic,
}

impl ShardPolicy {
    /// A short name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ShardPolicy::AlgoModulo => "algo-mod",
            ShardPolicy::RoundRobin => "round-robin",
            ShardPolicy::Balanced => "balanced",
            ShardPolicy::Dynamic => "dynamic",
        }
    }

    /// Computes the full dispatch plan: a per-request shard
    /// assignment plus, for [`ShardPolicy::Dynamic`], the decision
    /// ledger that produced it. That planner calibrates its cost model
    /// on a scratch card built by `factory`, so plans track the
    /// engine's shard configuration (codec, frame store…).
    /// Deterministic.
    fn plan(
        self,
        workload: &Workload,
        workers: usize,
        factory: &(dyn Fn() -> CoProcessor + Send + Sync),
    ) -> DispatchPlan {
        let requests = workload.requests();
        let assignment = match self {
            ShardPolicy::Dynamic => return dispatch::plan_with(workload, workers, factory),
            ShardPolicy::AlgoModulo => requests
                .iter()
                .map(|r| r.algo_id as usize % workers)
                .collect(),
            ShardPolicy::RoundRobin => (0..requests.len()).map(|i| i % workers).collect(),
            ShardPolicy::Balanced => {
                // Per-algorithm service weight: payload plus a fixed
                // per-request overhead so zero-length inputs still
                // carry cost.
                let mut weight: BTreeMap<u16, u64> = BTreeMap::new();
                for r in requests {
                    *weight.entry(r.algo_id).or_insert(0) += r.input_len as u64 + 64;
                }
                let total: u64 = weight.values().sum();
                let target = (total / workers as u64).max(1);
                let mut by_weight: Vec<(u16, u64)> = weight.into_iter().collect();
                by_weight.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let mut loads = vec![0u64; workers];
                let mut algo_shards: BTreeMap<u16, Vec<usize>> = BTreeMap::new();
                for (algo, w) in by_weight {
                    let splits = (w.div_ceil(target) as usize).clamp(1, workers);
                    let mut order: Vec<usize> = (0..workers).collect();
                    order.sort_by_key(|&s| (loads[s], s));
                    let chosen: Vec<usize> = order[..splits].to_vec();
                    for &s in &chosen {
                        loads[s] += w / splits as u64;
                    }
                    algo_shards.insert(algo, chosen);
                }
                let mut counters: BTreeMap<u16, usize> = BTreeMap::new();
                requests
                    .iter()
                    .map(|r| {
                        let shards = &algo_shards[&r.algo_id];
                        let c = counters.entry(r.algo_id).or_insert(0);
                        let shard = shards[*c % shards.len()];
                        *c += 1;
                        shard
                    })
                    .collect()
            }
        };
        DispatchPlan::from_static(assignment)
    }
}

/// Longest same-algorithm run one `invoke_batch` call may absorb. Each
/// shard segments its stream at this cap, and the dynamic planner
/// deals runs of the same shape.
pub(crate) const BATCH_MAX: usize = 16;

/// Engine tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Shards (worker threads, each with its own co-processor).
    pub workers: usize,
    /// Check every output against the software model of the bank on
    /// the card that served it.
    pub verify: bool,
    /// Keep the output bytes (disable for pure timing sweeps).
    pub collect_outputs: bool,
    /// Request partitioning policy.
    pub shard: ShardPolicy,
    /// Deterministic fault injection + recovery policy. `None` (the
    /// default) is the zero-rate plan: nothing is injected, and the
    /// first shard error aborts the run.
    pub faults: Option<FaultConfig>,
    /// Deadline, admission-control, watchdog and breaker layer.
    /// `None` (the default) is the closed loop: every request arrives
    /// at time zero with a deadline that never passes, and the
    /// breaker never opens. Latency faults the plan schedules and
    /// tenant quotas the workload carries still apply.
    pub overload: Option<OverloadConfig>,
    /// Observability layer. [`TraceLevel::Off`] (the default) records
    /// nothing and leaves the hot path untouched; tracing only
    /// observes modelled durations, so enabling it never changes any
    /// simulation result.
    pub trace: TraceConfig,
    /// Online predictive prefetch (see [`crate::predict`]). When set,
    /// each shard feeds its own deterministic batch sequence into a
    /// [`crate::predict::PredictModel`] and speculatively
    /// pre-configures the predicted next algorithm after every batch
    /// ([`CoProcessor::prefetch_hint`]). `None` (the default) keeps
    /// the purely reactive behaviour. Decisions depend only on the
    /// shard's batch sequence — itself a pure function of the
    /// workload — so outputs stay byte-identical.
    pub predict: Option<crate::predict::PredictConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            verify: false,
            collect_outputs: true,
            shard: ShardPolicy::AlgoModulo,
            faults: None,
            overload: None,
            trace: TraceConfig::off(),
            predict: None,
        }
    }
}

/// The outcome of serving one workload through the pool.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// Shards that served the workload.
    pub workers: usize,
    /// Requests serviced.
    pub requests: usize,
    /// Input bytes processed.
    pub input_bytes: u64,
    /// Outputs in submission order (when collection was enabled).
    pub outputs: Option<Vec<Vec<u8>>>,
    /// Per-request residency-hit classification, submission order.
    pub per_request_hit: Vec<bool>,
    /// Per-request modelled service time distribution.
    pub latency: TimeAccumulator,
    /// Sum of every request's modelled service time (the serial cost
    /// of the same work on these shards).
    pub total_service_time: SimTime,
    /// Modelled busy time of each shard.
    pub shard_busy: Vec<SimTime>,
    /// Modelled completion time: the busiest shard's clock.
    pub makespan: SimTime,
    /// Aggregated controller statistics across all shards.
    pub stats: OsStats,
    /// `invoke_batch` calls issued.
    pub batches: u64,
    /// Requests that rode along in a batch after its first request.
    pub coalesced: u64,
    /// Dynamic-dispatch planner counters: deals, affinity hits and
    /// steals (all zero for the static policies).
    pub dispatch: DispatchStats,
    /// Jobs that degraded to a typed error after their fault
    /// exhausted the retry budget, by submission index. Their output
    /// slots are empty. Always empty for fault-free runs.
    pub failed: BTreeMap<usize, JobError>,
    /// Fault-injection ledger, merged across shards (all zero when
    /// [`EngineConfig::faults`] is `None`).
    pub faults: FaultStats,
    /// Modelled detection-to-healthy latency of each recovery.
    pub recovery_latency: TimeAccumulator,
    /// Jobs shed at admission ([`JobError::Shed`]), by submission
    /// index. Always empty in the closed loop.
    pub shed: BTreeMap<usize, JobError>,
    /// Jobs served past their deadline
    /// ([`JobError::DeadlineExceeded`]), by submission index. Their
    /// outputs were dropped.
    pub deadline_missed: BTreeMap<usize, JobError>,
    /// Jobs dropped at submission by their tenant's hard quota
    /// ([`JobError::QuotaExceeded`]), by submission index. They were
    /// never enqueued. Always empty without tenant quotas in the
    /// workload.
    pub quota_exceeded: BTreeMap<usize, JobError>,
    /// Per-tenant outcome totals, in tenant-spec order. Populated
    /// for every run over a workload carrying tenant specs.
    pub tenants: Vec<TenantStats>,
    /// Overload-layer counters, merged across shards. In the closed
    /// loop every submission ends completed, faulted or
    /// quota-exceeded.
    pub overload: OverloadStats,
    /// The resolved per-job deadline budget (`None` in the closed
    /// loop, whose jobs have no deadline).
    pub deadline_budget: Option<SimTime>,
    /// Each shard's circuit-breaker health timeline: `(modelled time,
    /// new state)` transitions, starting closed at time zero. A
    /// closed-loop shard stays `[(0, Closed)]`.
    pub shard_health: Vec<Vec<(SimTime, BreakerState)>>,
    /// Arrival-to-completion (queueing + service) modelled time of
    /// every completed job. Closed-loop jobs all arrive at time zero,
    /// so theirs is the shard clock at completion.
    pub sojourn: TimeAccumulator,
    /// The assembled trace (`None` when [`EngineConfig::trace`] is
    /// [`TraceLevel::Off`]). Events are in canonical `(shard, seq)`
    /// order: byte-identical across runs for the same workload, seed
    /// and config.
    pub trace: Option<TraceReport>,
}

impl EngineResult {
    /// Modelled speedup over serial service: total service time
    /// divided by the makespan.
    pub fn speedup(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.total_service_time.as_ns() / self.makespan.as_ns()
        }
    }

    /// Modelled throughput in input megabytes per simulated second of
    /// makespan.
    pub fn throughput_mb_s(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.input_bytes as f64 / 1e6 / self.makespan.as_secs()
        }
    }

    /// Residency hit rate across all shards.
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }

    /// Fraction of submitted jobs that completed within deadline —
    /// the goodput ratio against offered load (zero for an empty
    /// workload).
    pub fn goodput(&self) -> f64 {
        self.overload.goodput()
    }
}

/// One request on its way through a shard.
struct Job {
    index: usize,
    algo_id: u16,
    input: Vec<u8>,
    /// Modelled arrival time (`index × interarrival`, scaled by the
    /// workload's arrival tick when it carries a traffic model; zero
    /// in the closed loop).
    arrival: SimTime,
    /// Absolute modelled deadline ([`SimTime::MAX`] in the closed
    /// loop).
    deadline: SimTime,
    /// The submitting tenant's index in the workload's spec list
    /// (`None` for untagged workloads).
    tenant: Option<u16>,
}

/// The read-only half of the weighted-fair admission policy, shared
/// by every shard: tenant weights and the configured slack. The
/// mutable per-shard counters live in [`OverloadState`].
#[derive(Debug, Clone)]
struct FairnessShare {
    /// Admission weight per tenant, in spec order.
    weights: Vec<u64>,
    /// Sum of all weights (at least 1).
    total: u64,
    /// Percent a tenant may overshoot its share before shedding.
    slack_pct: u64,
    /// Unconditional admissions before the share test engages.
    base_allowance: u64,
}

/// A shard's weighted-fair admission counters.
struct FairnessState {
    share: FairnessShare,
    /// Jobs admitted per tenant on this shard.
    admitted: Vec<u64>,
    /// Jobs admitted on this shard across all tenants.
    admitted_total: u64,
}

/// The overload configuration [`EngineConfig::overload`] `None`
/// resolves to: the closed loop. Every request arrives at time zero,
/// no deadline ever passes, the breaker never opens and admission is
/// plain drop-newest, so nothing is shed, missed or bounced and each
/// shard serves its stream back to back.
fn closed_loop() -> OverloadConfig {
    OverloadConfig {
        interarrival: SimTime::ZERO,
        deadline: DeadlinePolicy::Absolute(SimTime::MAX),
        watchdog: WatchdogConfig::default(),
        breaker: BreakerConfig {
            failure_threshold: u32::MAX,
            ..BreakerConfig::default()
        },
        fairness: None,
    }
}

/// The fault configuration of a fault-free run: a zero-rate plan, so
/// every driver takes the same serving path and the plan decides "no
/// fault" for every index.
fn zero_rate() -> FaultConfig {
    FaultConfig::new(FaultPlan::new(0, FaultRates::ZERO))
}

/// Modelled arrival time of request `i`: the workload's arrival tick
/// (in milli-interarrivals) scales the configured interarrival when
/// the workload carries a traffic model; otherwise arrivals are
/// uniform at `i × interarrival`.
fn arrival_time(oc: &OverloadConfig, workload: &Workload, i: usize) -> SimTime {
    match workload.arrival_tick(i) {
        Some(tick) => {
            SimTime::from_ps((oc.interarrival.as_ps() as u128 * tick as u128 / 1000) as u64)
        }
        None => oc.interarrival * i as u64,
    }
}

struct JobResult {
    index: usize,
    output: Vec<u8>,
    hit: bool,
    time: SimTime,
    /// Set when the job degraded instead of producing an output.
    error: Option<JobError>,
    /// Arrival-to-completion time (completed jobs only).
    sojourn: SimTime,
}

impl JobResult {
    /// A job that ended in `error`, with no output.
    fn dropped(index: usize, error: JobError) -> Self {
        JobResult {
            index,
            output: Vec::new(),
            hit: false,
            time: SimTime::ZERO,
            error: Some(error),
            sojourn: SimTime::ZERO,
        }
    }
}

/// Every job's result reassembled in submission order: the per-index
/// vectors plus one map per terminal error kind.
struct Assembly {
    outputs: Option<Vec<Vec<u8>>>,
    per_request_hit: Vec<bool>,
    times: Vec<SimTime>,
    sojourn: TimeAccumulator,
    failed: BTreeMap<usize, JobError>,
    shed: BTreeMap<usize, JobError>,
    deadline_missed: BTreeMap<usize, JobError>,
}

impl Assembly {
    fn new(n: usize, collect: bool) -> Self {
        Assembly {
            outputs: collect.then(|| vec![Vec::new(); n]),
            per_request_hit: vec![false; n],
            times: vec![SimTime::ZERO; n],
            sojourn: TimeAccumulator::new(),
            failed: BTreeMap::new(),
            shed: BTreeMap::new(),
            deadline_missed: BTreeMap::new(),
        }
    }

    /// Files one job's result under its terminal state.
    fn land(&mut self, r: JobResult) {
        self.per_request_hit[r.index] = r.hit;
        self.times[r.index] = r.time;
        match r.error {
            Some(e @ JobError::Shed { .. }) => {
                self.shed.insert(r.index, e);
            }
            Some(e @ JobError::DeadlineExceeded { .. }) => {
                self.deadline_missed.insert(r.index, e);
            }
            Some(e) => {
                self.failed.insert(r.index, e);
            }
            None => {
                self.sojourn.push(r.sojourn);
                if let Some(outs) = self.outputs.as_mut() {
                    outs[r.index] = r.output;
                }
            }
        }
    }
}

/// Decides a served job's terminal state: the one classifier every
/// served job goes through, in either pass. A job that finished past
/// its deadline is deadline-exceeded, and its output is dropped
/// unverified. Every other job completes: with `bank` (the serving
/// card's own) its output is verified against the software model, it
/// is kept when collecting, and it records its arrival-to-finish
/// sojourn. A closed-loop deadline never passes, so there every served
/// job completes.
fn complete(
    job: &Job,
    output: Vec<u8>,
    hit: bool,
    time: SimTime,
    finish: SimTime,
    bank: Option<&aaod_algos::AlgorithmBank>,
    collect: bool,
) -> Result<JobResult, CoreError> {
    if finish > job.deadline {
        let error = JobError::DeadlineExceeded {
            algo_id: job.algo_id,
            deadline: job.deadline,
            finished: finish,
        };
        return Ok(JobResult {
            hit,
            time,
            ..JobResult::dropped(job.index, error)
        });
    }
    if let Some(bank) = bank {
        let expected = bank
            .execute_software(job.algo_id, &job.input)
            .map_err(CoreError::Algo)?;
        if output != expected {
            return Err(CoreError::OutputMismatch {
                algo_id: job.algo_id,
                index: job.index,
            });
        }
    }
    Ok(JobResult {
        index: job.index,
        output: if collect { output } else { Vec::new() },
        hit,
        time,
        error: None,
        sojourn: finish - job.arrival,
    })
}

/// A landed served job's terminal state, as the trace names it.
fn job_outcome(r: &JobResult) -> JobOutcome {
    match r.error {
        None => JobOutcome::Completed,
        Some(JobError::DeadlineExceeded { .. }) => JobOutcome::DeadlineMissed,
        Some(_) => JobOutcome::Faulted,
    }
}

/// Counts a served job under its terminal state.
fn tally(stats: &mut OverloadStats, r: &JobResult) {
    match job_outcome(r) {
        JobOutcome::Completed => stats.completed += 1,
        JobOutcome::DeadlineMissed => stats.deadline_missed += 1,
        JobOutcome::Faulted => stats.faulted += 1,
    }
}

/// Records a job shed at `at` and returns its dropped result.
fn shed(tracer: &mut Tracer, job: &Job, at: SimTime) -> JobResult {
    let algo_id = job.algo_id;
    tracer.record(
        at,
        EventKind::Shed {
            job: job.index as u64,
            algo: algo_id,
        },
    );
    let error = JobError::Shed {
        algo_id,
        deadline: job.deadline,
        decided_at: at,
    };
    JobResult::dropped(job.index, error)
}

#[derive(Default)]
struct WorkerOutcome {
    results: Vec<JobResult>,
    busy: SimTime,
    batches: u64,
    coalesced: u64,
    faults: FaultStats,
    recovery_latency: TimeAccumulator,
    /// Jobs bounced by this shard's open breaker, in stream order; the
    /// engine redistributes them to healthy shards after the pool
    /// drains.
    rejected: Vec<Job>,
}

/// The fault sites that live in the fabric's configuration frames: a
/// scrub repairs them, and a reset or eviction erases them.
const FRAME_SITES: [FaultSite; 2] = [FaultSite::FrameBitFlip, FaultSite::TornConfig];

/// Maps a corruption-fault site to its trace kind.
fn fault_kind(site: FaultSite) -> FaultKind {
    match site {
        FaultSite::FrameBitFlip => FaultKind::FrameFlip,
        FaultSite::TornConfig => FaultKind::TornConfig,
        FaultSite::RomPayload => FaultKind::RomRot,
        FaultSite::PciTransient => FaultKind::PciTransient,
    }
}

/// Maps a latency-fault site to its trace kind.
fn latency_kind(site: LatencySite) -> FaultKind {
    match site {
        LatencySite::StallConfig => FaultKind::Stall,
        LatencySite::SlowPci => FaultKind::SlowPci,
        LatencySite::StuckCard => FaultKind::StuckCard,
    }
}

/// Maps a breaker state to its trace phase.
fn breaker_phase(state: BreakerState) -> BreakerPhase {
    match state {
        BreakerState::Closed => BreakerPhase::Closed,
        BreakerState::Open => BreakerPhase::Open,
        BreakerState::HalfOpen => BreakerPhase::HalfOpen,
    }
}

/// Emits the stage-span tree of one fault-free job: `JobOpen`, the
/// eight sequential stages (zero-duration stages are skipped) and
/// returns the job's end time. The stage durations come straight from
/// the report, so their sum equals the job's service time.
fn trace_clean_stages(
    tracer: &mut Tracer,
    start: SimTime,
    index: usize,
    algo_id: u16,
    report: &HostReport,
) -> SimTime {
    let job = index as u64;
    tracer.record(start, EventKind::JobOpen { job, algo: algo_id });
    let mut cursor = start;
    for (stage, dur) in [
        (Stage::PciIn, report.pci_input_time),
        (Stage::Lookup, report.os.lookup_time),
        (Stage::RomFetch, report.os.rom_time),
        (Stage::Reconfig, report.os.reconfig_time),
        (Stage::DataIn, report.os.input_time),
        (Stage::Execute, report.os.exec_time),
        (Stage::Collect, report.os.output_time),
        (Stage::PciOut, report.pci_output_time),
    ] {
        tracer.span(cursor, dur, job, stage, algo_id);
        cursor += dur;
    }
    cursor
}

/// The sharded co-processor pool.
pub struct Engine {
    config: EngineConfig,
    factory: Box<dyn Fn() -> CoProcessor + Send + Sync>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// An engine whose shards are default co-processors.
    pub fn new(config: EngineConfig) -> Self {
        Engine::with_factory(config, CoProcessor::default)
    }

    /// An engine whose shards are built by `factory` — use this to
    /// give every shard a custom geometry, policy, codec or
    /// decoded-cache budget.
    pub fn with_factory(
        config: EngineConfig,
        factory: impl Fn() -> CoProcessor + Send + Sync + 'static,
    ) -> Self {
        Engine {
            config,
            factory: Box::new(factory),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Serves every request of `workload` through the pool and
    /// reassembles the results in submission order.
    ///
    /// One walk over the submission stream, on the calling thread,
    /// applies the per-tenant quota drops (and records the submission
    /// trace events) before any shard starts. Each shard then installs
    /// only the algorithms routed to it (install time is bring-up, not
    /// serving time), serves its own requests in submission order, and
    /// reports its modelled busy time.
    ///
    /// # Errors
    ///
    /// Propagates the first shard error: install/invoke failures, or
    /// [`CoreError::OutputMismatch`] when verification is on.
    pub fn serve(&self, workload: &Workload) -> Result<EngineResult, CoreError> {
        let workers = self.config.workers.max(1);
        let requests = workload.requests();
        let n = requests.len();
        let plan = self.config.shard.plan(workload, workers, &self.factory);
        let assignment = &plan.assignment;
        let mut shard_algos: Vec<BTreeSet<u16>> = vec![BTreeSet::new(); workers];
        for (req, &shard) in requests.iter().zip(assignment) {
            shard_algos[shard].insert(req.algo_id);
        }
        let collect = self.config.collect_outputs;
        let oc = self.config.overload.unwrap_or_else(closed_loop);
        oc.validate();
        let faults = self.config.faults.unwrap_or_else(zero_rate);
        let budget = self.resolve_deadline_budget(workload, oc)?;
        // Weighted-fair admission engages only when both halves are
        // present: a fairness config on the overload layer and tenant
        // specs on the workload.
        let fairness_share = match (oc.fairness, workload.tenant_specs()) {
            (Some(fc), Some(specs)) if !specs.is_empty() => {
                let weights: Vec<u64> = specs.iter().map(|s| s.weight as u64).collect();
                let total = weights.iter().sum::<u64>().max(1);
                Some(FairnessShare {
                    weights,
                    total,
                    slack_pct: fc.slack_pct as u64,
                    base_allowance: fc.base_allowance,
                })
            }
            _ => None,
        };
        let fairness = fairness_share.as_ref();
        let factory = &self.factory;
        let trace_cfg = self.config.trace;
        // Request `i` as a job: on its shard, and again for a rescue.
        let job_at = |i: usize| {
            let arrival = arrival_time(&oc, workload, i);
            Job {
                index: i,
                algo_id: requests[i].algo_id,
                input: workload.input(i),
                arrival,
                deadline: arrival.saturating_add(budget),
                tenant: workload.tenant_of(i),
            }
        };

        // The submission walk. Per-tenant hard quotas are enforced at
        // submission: a request past its tenant's quota is dropped
        // here, and no shard ever sees it. The walk also records the
        // submission pseudo-shard's trace: dynamic dispatch replays the
        // planner's deal/steal ledger as it goes, stamped at each
        // trigger's arrival time so the stream's timestamps stay
        // monotone, and every surviving request is enqueued to its
        // shard.
        let mut submit_tracer = Tracer::new(trace_cfg, PRODUCER_SHARD);
        let mut dropped = vec![false; n];
        let mut quota_exceeded: BTreeMap<usize, JobError> = BTreeMap::new();
        let emit_plan = submit_tracer.enabled() && !plan.decisions.is_empty();
        let mut steal_cursor = 0usize;
        let steal = |s: &dispatch::StealRecord| EventKind::Steal {
            job: s.job as u64,
            algo: s.algo_id,
            from: s.from,
            to: s.to,
        };
        let mut tenant_submitted: Vec<u64> = workload
            .tenant_specs()
            .map_or_else(Vec::new, |specs| vec![0; specs.len()]);
        for (i, req) in requests.iter().enumerate() {
            if let (Some(t), Some(specs)) = (workload.tenant_of(i), workload.tenant_specs()) {
                if let Some(quota) = specs.get(t as usize).and_then(|s| s.quota) {
                    let count = &mut tenant_submitted[t as usize];
                    *count += 1;
                    if *count > quota {
                        dropped[i] = true;
                        quota_exceeded.insert(
                            i,
                            JobError::QuotaExceeded {
                                algo_id: req.algo_id,
                                tenant: t,
                                quota,
                            },
                        );
                        continue;
                    }
                }
            }
            if !submit_tracer.enabled() {
                continue;
            }
            let arrival = arrival_time(&oc, workload, i);
            if emit_plan {
                while steal_cursor < plan.steals.len() && plan.steals[steal_cursor].at_index <= i {
                    submit_tracer.record(arrival, steal(&plan.steals[steal_cursor]));
                    steal_cursor += 1;
                }
                let d = plan.decisions[i];
                submit_tracer.record(
                    arrival,
                    EventKind::Dispatch {
                        job: i as u64,
                        algo: req.algo_id,
                        to: d.shard,
                        affinity: d.affinity,
                    },
                );
            }
            submit_tracer.record(
                arrival,
                EventKind::Enqueue {
                    job: i as u64,
                    algo: req.algo_id,
                    to: assignment[i] as u32,
                },
            );
        }
        if emit_plan {
            // the final drain epoch's steals trigger past the last
            // submission index
            let end = arrival_time(&oc, workload, n - 1) + oc.interarrival;
            for s in &plan.steals[steal_cursor..] {
                submit_tracer.record(end, steal(s));
            }
        }

        // One thread per shard, each walking its own slice of the
        // stream. Batch boundaries (and with them the per-batch shared
        // costs and the modelled makespan) are cut from that slice
        // alone, so they are a pure function of the workload, never of
        // thread timing.
        let config = &self.config;
        let drivers: Vec<Result<ShardDriver, CoreError>> = std::thread::scope(|scope| {
            let (dropped, job_at) = (&dropped, &job_at);
            let handles: Vec<_> = shard_algos
                .iter()
                .enumerate()
                .map(|(shard, algos)| {
                    let jobs = (0..n)
                        .filter(move |&i| assignment[i] == shard && !dropped[i])
                        .map(job_at);
                    scope.spawn(move || {
                        let shard = shard as u32;
                        let tracer = Tracer::new(trace_cfg, shard);
                        let mut driver =
                            ShardDriver::new(factory(), tracer, config, faults, oc, fairness);
                        driver.serve_stream(jobs, algos, shard)?;
                        Ok(driver)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("engine worker panicked"))
                .collect()
        });
        let mut drivers = drivers.into_iter().collect::<Result<Vec<_>, _>>()?;

        // The drained shards hand back their results, in stream order,
        // and the jobs their open breakers bounced.
        let mut results = Assembly::new(n, collect);
        let mut rejected: Vec<Job> = Vec::new();
        for d in &mut drivers {
            for r in std::mem::take(&mut d.outcome.results) {
                results.land(r);
            }
            rejected.append(&mut d.outcome.rejected);
        }
        let mut makespan = drivers
            .iter()
            .map(|d| d.outcome.busy)
            .fold(SimTime::ZERO, SimTime::max);
        let mut overload_stats = OverloadStats::default();
        let mut engine_tracer = Tracer::new(trace_cfg, ENGINE_SHARD);
        // Redistribution: jobs an open breaker bounced are re-served in
        // submission order, each continuing the driver of the healthy
        // shard whose clock is lowest. A job whose deadline passed while
        // it waited — or with no healthy shard left — is shed. A
        // closed-loop breaker never opens, so there is nothing to
        // redistribute.
        rejected.sort_by_key(|j| j.index);
        for job in rejected {
            let target = (0..workers)
                .filter(|&s| !drivers[s].overload.breaker.is_open())
                .min_by_key(|&s| (drivers[s].clock(), s));
            let now = target.map_or(makespan, |s| drivers[s].start(&job));
            let Some(s) = target.filter(|_| job.deadline > now) else {
                overload_stats.shed += 1;
                results.land(shed(&mut engine_tracer, &job, now));
                continue;
            };
            let d = &mut drivers[s];
            let r = d.serve_again(&job)?;
            if !matches!(r.error, Some(JobError::Faulted { .. })) {
                d.overload.stats.redistributed += 1;
                d.tracer.record(
                    d.clock(),
                    EventKind::Redistributed {
                        job: job.index as u64,
                        algo: job.algo_id,
                        to: s as u32,
                    },
                );
            }
            results.land(r);
        }

        // Every shard is done: merge their ledgers (controller stats
        // only now, so redistributed work is counted exactly once) and
        // extend the makespan to the slowest shard's clock, idle gaps
        // included. A closed-loop shard's clock stops at its last job,
        // within its busy time.
        let mut shard_busy = Vec::with_capacity(workers);
        let mut stats = OsStats::default();
        let mut batches = 0u64;
        let mut coalesced = 0u64;
        let mut fault_stats = FaultStats::default();
        let mut recovery_latency = TimeAccumulator::new();
        let mut shard_health = Vec::with_capacity(workers);
        let mut trace_shards: Vec<TraceShard> = Vec::new();
        for d in drivers {
            let ShardDriver {
                cp,
                tracer,
                outcome,
                overload: ov,
                ..
            } = d;
            shard_busy.push(outcome.busy);
            if tracer.enabled() {
                trace_shards.push(tracer.finish());
            }
            // what watchdog resets wiped off the card
            stats.merge(&ov.lost_stats);
            stats.merge(&cp.stats());
            batches += outcome.batches;
            coalesced += outcome.coalesced;
            fault_stats.merge(&outcome.faults);
            overload_stats.merge(&OverloadStats {
                breaker_trips: ov.breaker.trips(),
                breaker_rejections: ov.breaker.rejections(),
                probes: ov.breaker.probes(),
                ..ov.stats
            });
            recovery_latency.merge(&outcome.recovery_latency);
            makespan = makespan.max(ov.clock);
            shard_health.push(ov.breaker.timeline().to_vec());
        }
        // Quota drops happened at submission, before any shard saw the
        // job: account them here so conservation covers them.
        overload_stats.submitted += quota_exceeded.len() as u64;
        overload_stats.quota_exceeded += quota_exceeded.len() as u64;
        if faults.requeue && !results.failed.is_empty() {
            // Rescue pass: a driver on a fresh spare card re-serves
            // degraded jobs in submission order once the pool has
            // drained. Its clock starts at the makespan, so its service
            // extends the makespan serially: a job whose deadline
            // already passed is not rescued, and one that finishes past
            // it is deadline-missed. The spare records on the engine's
            // stream.
            let mut spare = ShardDriver::new(
                (self.factory)(),
                engine_tracer,
                config,
                zero_rate(),
                oc,
                None,
            );
            spare.overload.clock = makespan;
            let algos: BTreeSet<u16> = results.failed.values().map(|e| e.algo_id()).collect();
            spare.bring_up(&algos, makespan)?;
            let indices: Vec<usize> = results.failed.keys().copied().collect();
            for index in indices {
                let job = job_at(index);
                if job.deadline <= spare.start(&job) {
                    continue; // stays failed: no budget left
                }
                let mut r = spare.serve_again(&job)?;
                if matches!(r.error, Some(JobError::Faulted { .. })) {
                    continue; // the spare failed it too: keeps its first error
                }
                if r.error.is_none() {
                    fault_stats.requeues += 1;
                    spare.tracer.record(
                        spare.clock(),
                        EventKind::Requeued {
                            job: index as u64,
                            algo: job.algo_id,
                        },
                    );
                }
                r.time += results.times[index];
                overload_stats.faulted -= 1;
                tally(&mut overload_stats, &r);
                results.failed.remove(&index);
                results.land(r);
            }
            stats.merge(&spare.cp.stats());
            makespan = spare.clock();
            engine_tracer = spare.tracer;
        }
        let Assembly {
            outputs,
            per_request_hit,
            times,
            sojourn,
            failed,
            shed,
            deadline_missed,
        } = results;
        let mut latency = TimeAccumulator::new();
        let mut total_service_time = SimTime::ZERO;
        for (i, &t) in times.iter().enumerate() {
            if shed.contains_key(&i) || quota_exceeded.contains_key(&i) {
                continue; // shed and quota-dropped jobs were never served
            }
            latency.push(t);
            total_service_time += t;
        }
        overload_stats.check()?;
        // Per-tenant outcome totals: classify every submission of a
        // tenant-tagged workload by its terminal map.
        let mut tenants: Vec<TenantStats> = Vec::new();
        if let Some(specs) = workload.tenant_specs() {
            tenants = specs
                .iter()
                .enumerate()
                .map(|(t, s)| TenantStats {
                    tenant: t as u16,
                    name: s.name.clone(),
                    weight: s.weight,
                    ..TenantStats::default()
                })
                .collect();
            for i in 0..n {
                let Some(t) = workload.tenant_of(i) else {
                    continue;
                };
                let Some(ts) = tenants.get_mut(t as usize) else {
                    continue;
                };
                ts.submitted += 1;
                if quota_exceeded.contains_key(&i) {
                    ts.quota_exceeded += 1;
                } else if shed.contains_key(&i) {
                    ts.shed += 1;
                } else if deadline_missed.contains_key(&i) {
                    ts.deadline_missed += 1;
                } else if failed.contains_key(&i) {
                    ts.faulted += 1;
                } else {
                    ts.completed += 1;
                }
            }
            for t in &tenants {
                t.check()?;
            }
        }
        let input_bytes = requests.iter().map(|r| r.input_len as u64).sum();
        let trace = if trace_cfg.level == TraceLevel::Off {
            None
        } else {
            trace_shards.push(engine_tracer.finish());
            trace_shards.push(submit_tracer.finish());
            Some(TraceReport::assemble(trace_shards))
        };
        Ok(EngineResult {
            workers,
            requests: n,
            input_bytes,
            outputs,
            per_request_hit,
            latency,
            total_service_time,
            shard_busy,
            makespan,
            stats,
            batches,
            coalesced,
            dispatch: plan.stats,
            failed,
            faults: fault_stats,
            recovery_latency,
            shed,
            deadline_missed,
            quota_exceeded,
            tenants,
            overload: overload_stats,
            // a closed-loop run reports no budget: its jobs have none
            deadline_budget: self.config.overload.map(|_| budget),
            shard_health,
            sojourn,
            trace,
        })
    }

    /// Resolves the per-job deadline budget. An absolute policy is
    /// returned as-is; a percentile policy measures each distinct
    /// algorithm on a scratch card (`dispatch::measure`), takes the
    /// warm invocation as its steady-state service time, and sets the
    /// budget to `multiplier ×` the requested percentile of the
    /// per-request estimates. The first measurement error, in id
    /// order, is returned.
    fn resolve_deadline_budget(
        &self,
        workload: &Workload,
        oc: OverloadConfig,
    ) -> Result<SimTime, CoreError> {
        match oc.deadline {
            DeadlinePolicy::Absolute(budget) => Ok(budget),
            DeadlinePolicy::Percentile { pct, multiplier } => {
                let mut est: BTreeMap<u16, SimTime> = BTreeMap::new();
                for (algo, (_, times)) in dispatch::measure(workload, (self.factory)()) {
                    est.insert(algo, times?.1);
                }
                let mut samples = TimeAccumulator::new();
                for r in workload.requests() {
                    samples.push(est[&r.algo_id]);
                }
                // an empty workload has no samples: the base is zero
                // and the budget floors at 1 ps
                let base = samples.quantile(pct / 100.0);
                let ps = (base.as_ps() as f64 * multiplier).round() as u64;
                Ok(SimTime::from_ps(ps.max(1)))
            }
        }
    }
}

/// The overload-layer half of a shard's driver: its modelled
/// clock (service plus idle gaps waiting for arrivals), breaker,
/// counters, and the controller stats that watchdog resets zeroed.
struct OverloadState {
    cfg: OverloadConfig,
    /// The shard's modelled wall clock: each job starts at
    /// `max(clock, arrival)` and advances it by its service time.
    clock: SimTime,
    breaker: CircuitBreaker,
    stats: OverloadStats,
    /// Controller stats snapshotted just before each watchdog reset
    /// wiped them; merged back so no serving work goes uncounted.
    lost_stats: OsStats,
    /// Weighted-fair admission counters (`None` keeps pure
    /// drop-newest admission).
    fairness: Option<FairnessState>,
}

impl OverloadState {
    /// Whether weighted-fair admission would shed this job: the shard
    /// is congested (the job found a backlog) and its tenant's
    /// admitted count has run past its weighted share plus slack.
    /// Deterministic: depends only on the shard's stream so far.
    fn fair_shed_decision(&self, job: &Job) -> bool {
        let Some(f) = &self.fairness else {
            return false;
        };
        let Some(t) = job.tenant.map(usize::from) else {
            return false;
        };
        if t >= f.share.weights.len() || self.clock <= job.arrival {
            return false;
        }
        let allowed = f.share.base_allowance
            + (f.admitted_total + 1) * f.share.weights[t] * (100 + f.share.slack_pct)
                / (f.share.total * 100);
        f.admitted[t] + 1 > allowed
    }

    /// Notes a job admitted to service for the fair-share counters.
    fn note_admitted(&mut self, job: &Job) {
        let Some(f) = &mut self.fairness else {
            return;
        };
        let Some(t) = job.tenant.map(usize::from) else {
            return;
        };
        if t < f.admitted.len() {
            f.admitted[t] += 1;
            f.admitted_total += 1;
        }
    }
}

/// Per-shard driver: the one code path that serves a job. It owns the
/// card, trace stream and results of one shard. In the first pass it
/// serves the shard's own stream: admission control, the breaker and
/// the runs, each an `invoke_batch` call wrapped in the fault
/// machinery (scheduled faults, latency faults and the watchdog, and
/// the detect→backoff→repair→retry loop), all in modelled time. A
/// fault-free run is a zero-rate plan; the closed loop is the overload
/// configuration under which admission always serves and the breaker
/// never opens. Once drained, the driver goes back to the engine, card
/// included, and serves the second pass through
/// [`ShardDriver::serve_again`]: redistribution continues a healthy
/// shard's driver from its clock, and the rescue pass is a driver on a
/// spare card.
struct ShardDriver {
    cp: CoProcessor,
    tracer: Tracer,
    /// The shard's results so far.
    outcome: WorkerOutcome,
    /// Check outputs against the card's own bank.
    verify: bool,
    /// Keep output bytes.
    collect: bool,
    /// Detail drain buffer, reused across drains instead of a fresh
    /// `Vec` each time.
    details: Vec<aaod_sim::DetailEvent>,
    /// Functions downloaded to this card's ROM.
    installed: BTreeSet<u16>,
    /// Online next-algorithm model (see [`EngineConfig::predict`]).
    predictor: Option<PredictModel>,
    cfg: FaultConfig,
    /// Latent (activated, not yet detected) fault per function.
    outstanding: BTreeMap<u16, FaultSite>,
    /// Functions whose fault exhausted its retry budget; their
    /// corruption persists, so later jobs degrade without burning
    /// more retries.
    poisoned: BTreeSet<u16>,
    /// The overload layer's clock, breaker and counters.
    overload: OverloadState,
    /// Breaker timeline entries already emitted to the trace (the
    /// initial closed state is never an event).
    breaker_emitted: usize,
    /// Arrival of the latest job an open breaker bounced off this
    /// shard. An idle shard bounces at the job's arrival, ahead of its
    /// clock.
    bounced_at: SimTime,
}

impl ShardDriver {
    fn new(
        mut cp: CoProcessor,
        tracer: Tracer,
        config: &EngineConfig,
        cfg: FaultConfig,
        overload: OverloadConfig,
        fairness: Option<&FairnessShare>,
    ) -> Self {
        if tracer.enabled() {
            cp.set_trace(true);
        }
        ShardDriver {
            cp,
            tracer,
            outcome: WorkerOutcome::default(),
            verify: config.verify,
            collect: config.collect_outputs,
            details: Vec::new(),
            installed: BTreeSet::new(),
            predictor: config.predict.map(|p| PredictModel::new(p.ewma_shift)),
            cfg,
            outstanding: BTreeMap::new(),
            poisoned: BTreeSet::new(),
            overload: OverloadState {
                cfg: overload,
                clock: SimTime::ZERO,
                breaker: CircuitBreaker::new(overload.breaker),
                stats: OverloadStats::default(),
                lost_stats: OsStats::default(),
                fairness: fairness.map(|share| FairnessState {
                    admitted: vec![0; share.weights.len()],
                    admitted_total: 0,
                    share: share.clone(),
                }),
            },
            breaker_emitted: 1,
            bounced_at: SimTime::ZERO,
        }
    }

    /// The shard's modelled clock: service plus idle gaps waiting
    /// for arrivals. In the closed loop arrivals are all zero, so the
    /// clock is the busy time until the final drain.
    fn clock(&self) -> SimTime {
        self.overload.clock
    }

    /// Where the shard's batch-level events (dequeues, detail flushes,
    /// prefetches, the drain) are stamped: its clock, or a later
    /// bounce, so the stream stays time-ordered.
    fn stamp(&self) -> SimTime {
        self.clock().max(self.bounced_at)
    }

    /// When `job` would start here: once the shard is free and the job
    /// has arrived.
    fn start(&self, job: &Job) -> SimTime {
        self.clock().max(job.arrival)
    }

    /// Moves the card's buffered details into the trace, stamped at
    /// `ts`.
    fn flush_details(&mut self, ts: SimTime) {
        if self.tracer.enabled() {
            self.cp.take_details_into(&mut self.details);
            self.tracer.details(ts, &self.details);
        }
    }

    /// Records a scheduled fault that activated on the card, or, with
    /// `landed` false, one that found nothing to land on.
    fn fault_event(&mut self, at: SimTime, kind: FaultKind, landed: bool) {
        let event = if landed {
            EventKind::FaultInjected { kind }
        } else {
            EventKind::FaultInert { kind }
        };
        self.tracer.record(at, event);
    }

    /// Counts one fault resolved back to a healthy card by `kind` and
    /// records the repair at `at`.
    fn resolved(&mut self, at: SimTime, kind: RepairKind) {
        let faults = &mut self.outcome.faults;
        *match kind {
            RepairKind::Scrub => &mut faults.scrubbed,
            RepairKind::Redownload => &mut faults.redownloads,
            RepairKind::PciRetry => &mut faults.pci_retried,
            RepairKind::EvictClear => &mut faults.evict_cleared,
        } += 1;
        self.tracer.record(at, EventKind::FaultRepair { kind });
    }

    /// Downloads `algo_id` to the card unless it already holds it.
    /// Install is bring-up, not serving time.
    fn ensure_installed(&mut self, algo_id: u16) -> Result<(), CoreError> {
        if self.installed.insert(algo_id) {
            self.cp.install(algo_id)?;
        }
        Ok(())
    }

    /// Installs `algos` and stamps their details (ROM fetches,
    /// decompression, port writes) at `at`.
    fn bring_up(&mut self, algos: &BTreeSet<u16>, at: SimTime) -> Result<(), CoreError> {
        for &algo in algos {
            self.ensure_installed(algo)?;
        }
        self.flush_details(at);
        Ok(())
    }

    /// Serves the shard's own stream and drains the card. Bring-up is
    /// stamped at time zero. Each batch is a maximal run of
    /// consecutive same-algorithm jobs in the stream, capped at
    /// [`BATCH_MAX`], and is followed by the online prefetch.
    fn serve_stream(
        &mut self,
        jobs: impl Iterator<Item = Job>,
        algos: &BTreeSet<u16>,
        shard: u32,
    ) -> Result<(), CoreError> {
        self.bring_up(algos, SimTime::ZERO)?;
        let mut jobs = jobs.peekable();
        while let Some(first) = jobs.next() {
            let algo_id = first.algo_id;
            let mut batch = vec![first];
            while batch.len() < BATCH_MAX {
                match jobs.next_if(|j| j.algo_id == algo_id) {
                    Some(job) => batch.push(job),
                    None => break,
                }
            }
            self.outcome.batches += 1;
            self.outcome.coalesced += batch.len() as u64 - 1;
            if self.tracer.enabled() {
                let ts = self.stamp();
                for job in &batch {
                    self.tracer.record(
                        ts,
                        EventKind::Dequeue {
                            job: job.index as u64,
                            algo: algo_id,
                        },
                    );
                }
            }
            self.serve_batch(batch)?;
            // the fault machinery interleaves serving and recovery, so
            // per-stage attribution is not available: what a faulted job
            // left buffered is stamped at the shard's clock after it
            self.flush_details(self.stamp());
            // Online prefetch: feed the shard's (deterministic) batch
            // sequence into the model and pre-configure the predicted
            // next algorithm in the idle window after the batch. The
            // speculative configure charges `prefetch_time`, never the
            // request path, so modelled latency and outputs are
            // unchanged; only residency at the next miss differs.
            let predicted = self.predictor.as_mut().and_then(|model| {
                model.observe(algo_id);
                model.predict()
            });
            if let Some(next) = predicted.filter(|&next| next != algo_id) {
                let before = self.cp.stats().prefetches;
                self.cp.prefetch_hint(next);
                if self.tracer.enabled() && self.cp.stats().prefetches > before {
                    self.tracer
                        .record(self.stamp(), EventKind::Prefetch { algo: next, shard });
                }
            }
        }
        // A prefetch fired after the final batch leaves its details
        // (evictions, cache outcomes, port writes) buffered; drain them so
        // the trace's eviction count stays in lock-step with the ledger.
        if self.predictor.is_some() {
            self.flush_details(self.stamp());
        }
        self.drain()?;
        self.flush_details(self.stamp().max(self.outcome.busy));
        Ok(())
    }

    /// Emits any breaker transitions recorded since the last sync.
    /// Called right after every breaker interaction so the shard
    /// stream stays time-ordered; `floor` lifts back-dated
    /// transitions (a probe's success closes the breaker at the
    /// probe's *admission* time) up to the observation point — the
    /// faithful back-dated times stay in the `shard_health` timeline.
    fn sync_breaker(&mut self, floor: SimTime) {
        let timeline = self.overload.breaker.timeline();
        for pair in timeline[self.breaker_emitted - 1..].windows(2) {
            let ((_, from), (ts, to)) = (pair[0], pair[1]);
            self.tracer.record(
                ts.max(floor),
                EventKind::Breaker {
                    from: breaker_phase(from),
                    to: breaker_phase(to),
                },
            );
        }
        self.breaker_emitted = timeline.len();
    }

    /// Functions whose outstanding fault is at one of `sites`.
    fn outstanding_at(&self, sites: &[FaultSite]) -> Vec<u16> {
        self.outstanding
            .iter()
            .filter(|(_, s)| sites.contains(s))
            .map(|(&id, _)| id)
            .collect()
    }

    /// No latent or persisting fault on this function.
    fn algo_clean(&self, algo_id: u16) -> bool {
        !self.poisoned.contains(&algo_id) && !self.outstanding.contains_key(&algo_id)
    }

    /// The plan schedules no fault, corruption or latency, against
    /// this job.
    fn fault_free(&self, job: &Job) -> bool {
        let index = job.index as u64;
        self.cfg.plan.decide(index).is_none() && self.cfg.plan.decide_latency(index).is_none()
    }

    /// Marks the faults scheduled against an unserved (shed or
    /// bounced) job as inert: they never got a card to land on.
    fn mark_unserved_inert(&mut self, index: usize, ts: SimTime) {
        if let Some(site) = self.cfg.plan.decide(index as u64) {
            self.outcome.faults.inert += 1;
            self.fault_event(ts, fault_kind(site), false);
        }
        if let Some(site) = self.cfg.plan.decide_latency(index as u64) {
            self.overload.stats.latency_inert += 1;
            self.fault_event(ts, latency_kind(site), false);
        }
    }

    /// Admits a batch job by job at the shard's current clock and
    /// serves it as runs. A job whose deadline already passed, or whose
    /// tenant has run past its weighted share, is shed; one an open
    /// breaker bounces goes back to the engine for redistribution. A
    /// job with a scheduled fault, or on a function with a latent or
    /// persisting fault, is a run of one. Any other admitted job leads
    /// a run that absorbs the following fault-free jobs that would pass
    /// admission now; their own deadlines are still checked at
    /// completion.
    fn serve_batch(&mut self, batch: Vec<Job>) -> Result<(), CoreError> {
        let algo_id = batch[0].algo_id;
        let mut jobs = batch.into_iter().peekable();
        while let Some(job) = jobs.next() {
            let now = self.start(&job);
            let ov = &mut self.overload;
            ov.stats.submitted += 1;
            let fair_shed = job.deadline > now && ov.fair_shed_decision(&job);
            if job.deadline <= now || fair_shed {
                ov.stats.shed += 1;
                ov.stats.fair_shed += u64::from(fair_shed);
                let shed = shed(&mut self.tracer, &job, now);
                self.mark_unserved_inert(job.index, now);
                self.outcome.results.push(shed);
                continue;
            }
            let allowed = ov.breaker.allow(now);
            self.sync_breaker(SimTime::ZERO);
            if !allowed {
                let bounced = EventKind::Bounced {
                    job: job.index as u64,
                    algo: algo_id,
                };
                self.tracer.record(now, bounced);
                self.bounced_at = now;
                self.mark_unserved_inert(job.index, now);
                self.outcome.rejected.push(job);
                continue;
            }
            self.overload.note_admitted(&job);
            let mut run = vec![job];
            if self.fault_free(&run[0]) && self.algo_clean(algo_id) {
                while let Some(next) = jobs.next_if(|next| {
                    self.fault_free(next)
                        && next.deadline > self.start(next)
                        && !self.overload.fair_shed_decision(next)
                }) {
                    self.overload.stats.submitted += 1;
                    self.overload.note_admitted(&next);
                    run.push(next);
                }
            }
            self.serve_run(&run, true)?;
        }
        Ok(())
    }

    /// The second pass's one entry: serves a redistributed or rescued
    /// job as a run of one from the driver's clock, installing its
    /// function first if this card never hosted it. Like the first
    /// pass it traces the job, but it skips admission counting, the
    /// breaker, the fault plan and the shard's busy time. Returns the
    /// job's result for the engine to land.
    fn serve_again(&mut self, job: &Job) -> Result<JobResult, CoreError> {
        self.ensure_installed(job.algo_id)?;
        self.serve_run(std::slice::from_ref(job), false)?;
        self.flush_details(self.clock());
        let result = self.outcome.results.pop();
        Ok(result.expect("a served run lands its job"))
    }

    /// Serves one run of same-algorithm jobs with one `invoke_batch`
    /// call inside the detect→backoff→repair→retry loop. In the first
    /// pass it arms the faults the plan schedules against the run's
    /// job (such a run is a run of one), preceded by a watchdog reset
    /// for a stuck card, and lands any scheduled post-job corruption.
    fn serve_run(&mut self, run: &[Job], first_pass: bool) -> Result<(), CoreError> {
        let lead = &run[0];
        let (job, algo_id) = (lead.index as u64, lead.algo_id);
        let (scheduled, latency) = if first_pass {
            (self.cfg.plan.decide(job), self.cfg.plan.decide_latency(job))
        } else {
            (None, None)
        };
        // The fault machinery engages on a scheduled fault or on a
        // function with a latent or persisting fault. Recovery then
        // interleaves with service, so the trace carries no per-stage
        // spans for the job.
        let engaged = scheduled.is_some() || latency.is_some() || !self.algo_clean(algo_id);
        // The run's modelled start on the shard clock. Recovery spans
        // are laid from a cursor advancing from here.
        let t0 = self.start(lead);
        if engaged {
            let algo = algo_id;
            self.tracer.record(t0, EventKind::JobOpen { job, algo });
        }
        let mut cursor = t0;
        // The lead job's modelled time: reset and recovery, then its
        // service.
        let mut job_time = SimTime::ZERO;
        if latency == Some(LatencySite::StuckCard) {
            // The card hangs mid-stream: it burns the full watchdog
            // timeout before the missed heartbeats fire a reset, then
            // the job is served from a cold card (the reset erased
            // every frame and the decoded cache; the ROM survives).
            // Snapshot the controller stats first — the reset zeroes
            // them, and that work must stay counted.
            let ov = &mut self.overload;
            ov.lost_stats.merge(&self.cp.stats());
            let t_reset = ov.cfg.watchdog.timeout() + self.cp.os_mut().reset();
            ov.stats.stuck_injected += 1;
            ov.stats.watchdog_resets += 1;
            ov.stats.wasted_time += t_reset;
            job_time += t_reset;
            self.fault_event(cursor, FaultKind::StuckCard, true);
            self.tracer.record(cursor, EventKind::WatchdogReset { job });
            self.tracer
                .span(cursor, t_reset, job, Stage::Reset, algo_id);
            cursor += t_reset;
            self.outcome.recovery_latency.push(t_reset);
            // The wiped fabric dissolved any latent frame faults; the
            // scheduled ROM faults survive (ROM is off-fabric).
            for id in self.outstanding_at(&FRAME_SITES) {
                self.outstanding.remove(&id);
                self.resolved(cursor, RepairKind::EvictClear);
            }
        }
        let stall0 = self.cp.stats().config_stall_time;
        let rates = self.cfg.plan.latency();
        match latency {
            Some(LatencySite::StallConfig) => self.cp.os_mut().arm_config_stall(rates.stall_cycles),
            // Input write + output read: both transfers crawl.
            Some(LatencySite::SlowPci) => {
                self.cp.bus_mut().arm_slow_transfers(2, rates.slow_factor)
            }
            Some(LatencySite::StuckCard) | None => {}
        }
        if scheduled == Some(FaultSite::PciTransient) {
            // One-shot transient: the job's first transfer aborts and
            // the driver retries it. Activation is observed through
            // the bus stats below.
            self.cp.bus_mut().arm_transient_faults(1);
        }
        let pci0 = self.cp.pci_stats();
        let inputs: Vec<&[u8]> = run.iter().map(|j| j.input.as_slice()).collect();
        let mut attempts = 0u32;
        let mut recovery_elapsed = SimTime::ZERO;
        let verdict = loop {
            match self.cp.invoke_batch(algo_id, &inputs) {
                Ok(served) => {
                    if attempts > 0 {
                        self.outcome.recovery_latency.push(recovery_elapsed);
                    }
                    // a repaired (formerly poisoned) function serves
                    // again
                    self.poisoned.remove(&algo_id);
                    break Ok(served);
                }
                // A controller error aborts a clean first-pass run;
                // anywhere else it is a fault to recover or degrade.
                Err(CoreError::Mcu(detail)) if engaged || !first_pass => {
                    let outstanding = self.outstanding.get(&algo_id).copied();
                    if outstanding.is_some() && attempts == 0 {
                        self.outcome.faults.detected += 1;
                    }
                    if let Some(site) = outstanding.filter(|_| attempts < self.cfg.max_retries) {
                        attempts += 1;
                        self.outcome.faults.retries += 1;
                        let attempt = attempts;
                        self.tracer
                            .record(cursor, EventKind::Retry { job, attempt });
                        let backoff = self.cfg.backoff * (1u64 << (attempts - 1).min(20));
                        self.tracer
                            .span(cursor, backoff, job, Stage::Backoff, algo_id);
                        let repair = self.repair(algo_id, site, cursor + backoff)?;
                        let at = cursor + backoff;
                        self.tracer.span(at, repair, job, Stage::Repair, algo_id);
                        job_time += backoff + repair;
                        recovery_elapsed += backoff + repair;
                        cursor += backoff + repair;
                        continue;
                    }
                    // An exhausted fault poisons its function; corruption
                    // persisting from one degrades without burning
                    // retries.
                    if outstanding.is_some() {
                        self.outcome.faults.faults_failed += 1;
                        self.outstanding.remove(&algo_id);
                        self.poisoned.insert(algo_id);
                        let algo = algo_id;
                        self.tracer
                            .record(cursor, EventKind::FaultFailed { job, algo });
                    }
                    break Err(JobError::Faulted {
                        algo_id,
                        attempts,
                        detail: detail.to_string(),
                    });
                }
                Err(other) => return Err(other),
            }
        };
        if let Ok(served) = &verdict {
            job_time += served[0].1.total();
        }
        let pci1 = self.cp.pci_stats();
        let wasted =
            self.cp.bus().config().clock.period() * (pci1.wasted_cycles - pci0.wasted_cycles);
        let transient_fired = pci1.faulted_transfers > pci0.faulted_transfers;
        if transient_fired {
            self.outcome
                .faults
                .record_activated(FaultSite::PciTransient);
            self.outcome.recovery_latency.push(wasted);
            if verdict.is_err() {
                // a successful attempt folds the wasted bus time into
                // its report; a degraded job still burned it
                job_time += wasted;
            }
        }
        // Post-job events are stamped at the job's finish.
        let at = t0 + job_time;
        if transient_fired {
            self.fault_event(at, FaultKind::PciTransient, true);
            self.resolved(at, RepairKind::PciRetry);
        }
        // A latency fault lands when the job gave it something to slow
        // down; otherwise it is inert.
        let latency_landed = match latency {
            Some(LatencySite::StallConfig) => {
                // a residency hit leaves the stall armed: it never got
                // a reconfiguration to hang
                let landed = self.cp.os_mut().disarm_config_stall() == 0;
                if landed {
                    let ov = &mut self.overload.stats;
                    ov.stalls_injected += 1;
                    ov.wasted_time += self.cp.stats().config_stall_time.saturating_sub(stall0);
                }
                Some(landed)
            }
            Some(LatencySite::SlowPci) => {
                self.cp.bus_mut().disarm_slow();
                // no fallible transfer ran (e.g. an empty input on a
                // zero-transfer path): nothing to slow down
                let landed = pci1.slowed_transfers > pci0.slowed_transfers;
                if landed {
                    let ov = &mut self.overload.stats;
                    ov.slow_transfers_injected += 1;
                    if !transient_fired {
                        // the slow transfers' extra cycles are the
                        // whole wasted delta; with a transient on the
                        // same job the delta is already attributed to
                        // the retry above
                        ov.wasted_time += wasted;
                    }
                }
                Some(landed)
            }
            Some(LatencySite::StuckCard) | None => None,
        };
        if let (Some(site), Some(landed)) = (latency, latency_landed) {
            self.overload.stats.latency_inert += u64::from(!landed);
            self.fault_event(at, latency_kind(site), landed);
        }
        if let Some(
            site @ (FaultSite::FrameBitFlip | FaultSite::TornConfig | FaultSite::RomPayload),
        ) = scheduled
        {
            // Post-job injection: corrupt only a healthy, singly
            // faulted function so every activated fault has one
            // unambiguous resolution.
            let landed = verdict.is_ok() && self.algo_clean(algo_id) && {
                let mut rng = self.cfg.plan.rng_for(job);
                match site {
                    FaultSite::FrameBitFlip => self.cp.os_mut().inject_seu(algo_id, &mut rng),
                    FaultSite::TornConfig => self.cp.os_mut().inject_torn(algo_id),
                    FaultSite::RomPayload => {
                        self.cp.os_mut().inject_rom_rot(algo_id, &mut rng).is_ok()
                    }
                    FaultSite::PciTransient => unreachable!("matched above"),
                }
            };
            if landed {
                self.outcome.faults.record_activated(site);
                self.outstanding.insert(algo_id, site);
            } else {
                self.outcome.faults.inert += 1;
            }
            self.fault_event(at, fault_kind(site), landed);
        }
        match verdict {
            Err(error) => self.finish_served(lead, Err(error), job_time, first_pass),
            Ok(served) => {
                if !engaged {
                    // the run's details (residency, ROM fetch,
                    // decompression, port writes) are stamped at its
                    // start, before the jobs they delayed open
                    self.flush_details(t0);
                }
                for (i, (job, (output, report))) in run.iter().zip(served).enumerate() {
                    let time = if i == 0 { job_time } else { report.total() };
                    if !engaged && self.tracer.enabled() {
                        let start = self.start(job);
                        trace_clean_stages(&mut self.tracer, start, job.index, algo_id, &report);
                    }
                    self.finish_served(job, Ok((output, report.hit())), time, first_pass)?;
                }
                Ok(())
            }
        }
    }

    /// Lands a job served from its start for `time` in its terminal
    /// state: a degraded job stays faulted, any other is classified by
    /// [`complete`] against the card's own bank. It advances the shard
    /// clock and, in the first pass, the shard's busy time and breaker.
    fn finish_served(
        &mut self,
        job: &Job,
        served: Result<(Vec<u8>, bool), JobError>,
        time: SimTime,
        first_pass: bool,
    ) -> Result<(), CoreError> {
        let finish = self.start(job) + time;
        let result = match served {
            Ok((output, hit)) => {
                let bank = self.verify.then(|| self.cp.os().bank());
                complete(job, output, hit, time, finish, bank, self.collect)?
            }
            Err(e) => {
                self.outcome.faults.failed_jobs += 1;
                JobResult {
                    time,
                    ..JobResult::dropped(job.index, e)
                }
            }
        };
        let outcome = job_outcome(&result);
        let ov = &mut self.overload;
        ov.clock = finish;
        tally(&mut ov.stats, &result);
        if first_pass {
            self.outcome.busy += time;
            if outcome == JobOutcome::Completed {
                ov.breaker.record_success();
            } else {
                ov.breaker.record_failure(finish);
            }
        }
        self.tracer.record(
            finish,
            EventKind::JobClose {
                job: job.index as u64,
                algo: job.algo_id,
                outcome,
                hit: result.hit,
            },
        );
        self.outcome.results.push(result);
        if first_pass {
            self.sync_breaker(finish);
        }
        Ok(())
    }

    /// Repairs `site` on `algo_id`, resolving every outstanding fault
    /// the repair happens to fix, and returns the modelled repair
    /// time. Repair events are stamped at `at` (the repair's start).
    fn repair(&mut self, algo_id: u16, site: FaultSite, at: SimTime) -> Result<SimTime, CoreError> {
        match site {
            FaultSite::FrameBitFlip | FaultSite::TornConfig => {
                let report = self.cp.scrub()?;
                // one readback pass repairs *every* corrupt resident
                // function, so resolve any other latent frame faults
                // it happened to fix along the way
                for id in &report.repaired {
                    if self
                        .outstanding
                        .get(id)
                        .is_some_and(|s| FRAME_SITES.contains(s))
                    {
                        self.outstanding.remove(id);
                        self.resolved(at, RepairKind::Scrub);
                    }
                }
                // if the target dodged the scrub, an eviction already
                // erased the corrupt frames
                if self.outstanding.remove(&algo_id).is_some() {
                    self.resolved(at, RepairKind::EvictClear);
                }
                Ok(report.time)
            }
            FaultSite::RomPayload => {
                let t = self.cp.os_mut().redownload(algo_id)?;
                self.outstanding.remove(&algo_id);
                self.resolved(at, RepairKind::Redownload);
                Ok(t)
            }
            // PCI aborts recover at the driver, never via repair.
            FaultSite::PciTransient => unreachable!("transients are never outstanding"),
        }
    }

    /// Post-run sweep: repair latent faults the workload never
    /// touched again, so no corruption outlives the run.
    fn drain(&mut self) -> Result<(), CoreError> {
        // The shard clock stops at the last job (an open-loop clock
        // runs ahead of the busy time, a closed-loop one does not
        // count this sweep); the sweep stamps at whichever is later so
        // the stream stays time-ordered.
        let frame_faults = self.outstanding_at(&FRAME_SITES);
        if !frame_faults.is_empty() {
            let report = self.cp.scrub()?;
            self.outcome.busy += report.time;
            for id in frame_faults {
                self.outstanding.remove(&id);
                // without a scrub repair, a policy eviction erased the
                // corrupt frames before the sweep got here
                let kind = if report.repaired.contains(&id) {
                    RepairKind::Scrub
                } else {
                    RepairKind::EvictClear
                };
                self.resolved(self.stamp().max(self.outcome.busy), kind);
            }
        }
        let rom_faults = self.outstanding_at(&[FaultSite::RomPayload]);
        if !rom_faults.is_empty() {
            let (_corrupt, patrol_time) = self.cp.os_mut().rom_patrol();
            self.outcome.busy += patrol_time;
            for id in rom_faults {
                self.outstanding.remove(&id);
                self.outcome.busy += self.cp.os_mut().redownload(id)?;
                self.resolved(self.stamp().max(self.outcome.busy), RepairKind::Redownload);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_algos::ids;

    /// SHA1(12) + CRC32(2) + CRC8(<=2) + XTEA(6) frames all fit the
    /// default 96-frame device: no evictions, so hit/miss
    /// classification is position-independent.
    const FIT_SET: [u16; 4] = [ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA];

    fn serial_outputs(workload: &Workload) -> (Vec<Vec<u8>>, Vec<bool>) {
        let mut cp = CoProcessor::default();
        for &algo in &workload.distinct_algos() {
            cp.install(algo).unwrap();
        }
        let mut outs = Vec::new();
        let mut hits = Vec::new();
        for (i, req) in workload.requests().iter().enumerate() {
            let (out, report) = cp.invoke(req.algo_id, &workload.input(i)).unwrap();
            outs.push(out);
            hits.push(report.hit());
        }
        (outs, hits)
    }

    #[test]
    fn outputs_identical_to_serial_across_policies_and_widths() {
        let w = Workload::zipf(&FIT_SET, 60, 1.1, 48, 11);
        let (expected, _) = serial_outputs(&w);
        for shard in [
            ShardPolicy::AlgoModulo,
            ShardPolicy::RoundRobin,
            ShardPolicy::Balanced,
        ] {
            for workers in [1, 2, 4] {
                let engine = Engine::new(EngineConfig {
                    workers,
                    verify: true,
                    shard,
                    ..EngineConfig::default()
                });
                let r = engine.serve(&w).unwrap();
                assert_eq!(
                    r.outputs.as_ref().unwrap(),
                    &expected,
                    "{} x{workers} diverged",
                    shard.name()
                );
                assert_eq!(r.requests, 60);
                assert_eq!(r.stats.requests, 60);
            }
        }
    }

    #[test]
    fn hit_classification_matches_serial_when_everything_fits() {
        let w = Workload::zipf(&FIT_SET, 80, 1.1, 32, 3);
        let (_, expected_hits) = serial_outputs(&w);
        let engine = Engine::new(EngineConfig {
            workers: 4,
            shard: ShardPolicy::AlgoModulo,
            ..EngineConfig::default()
        });
        let r = engine.serve(&w).unwrap();
        assert_eq!(r.per_request_hit, expected_hits);
    }

    #[test]
    fn makespan_bounded_by_total_and_speedup_sane() {
        let w = Workload::zipf(&FIT_SET, 120, 1.1, 64, 5);
        let engine = Engine::new(EngineConfig {
            workers: 4,
            shard: ShardPolicy::Balanced,
            ..EngineConfig::default()
        });
        let r = engine.serve(&w).unwrap();
        assert!(r.makespan <= r.total_service_time);
        assert!(r.speedup() >= 1.0);
        assert_eq!(r.shard_busy.len(), 4);
        let busiest = r
            .shard_busy
            .iter()
            .copied()
            .fold(SimTime::ZERO, |a, b| if b > a { b } else { a });
        assert_eq!(busiest, r.makespan);
    }

    /// An independent recount of the batch rule under
    /// [`ShardPolicy::AlgoModulo`]: per shard, the maximal runs of
    /// consecutive same-algorithm requests in submission order, split
    /// every 16. Requests failing `kept` (quota drops) are skipped;
    /// with `split_at_drops` a drop also ends the run, the rule the
    /// engine must *not* follow.
    fn recount_batches(
        w: &Workload,
        workers: usize,
        kept: impl Fn(usize) -> bool,
        split_at_drops: bool,
    ) -> u64 {
        let mut batches = 0;
        for shard in 0..workers {
            let mut run: Option<(u16, usize)> = None;
            for (i, req) in w.requests().iter().enumerate() {
                if req.algo_id as usize % workers != shard {
                    continue;
                }
                if !kept(i) {
                    if split_at_drops {
                        run = None;
                    }
                    continue;
                }
                match &mut run {
                    Some((algo, len)) if *algo == req.algo_id && *len < 16 => *len += 1,
                    _ => {
                        batches += 1;
                        run = Some((req.algo_id, 1));
                    }
                }
            }
        }
        batches
    }

    #[test]
    fn bursty_workload_batches_requests() {
        let w = Workload::bursty(&FIT_SET, 64, 8, 32, 7);
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let r = engine.serve(&w).unwrap();
        assert!(
            r.batches < 64,
            "64 requests in bursts of 8 must coalesce, got {} batches",
            r.batches
        );
        assert!(r.coalesced > 0);
        assert_eq!(r.batches + r.coalesced, 64);
        assert_eq!(r.batches, recount_batches(&w, 2, |_| true, false));

        // A quota-dropped request inside a same-algorithm run leaves
        // the run whole: the drop is skipped, not a batch boundary.
        let w = Workload::multi_tenant(&two_tenant_specs(Some(10)), 200, 9);
        let r = Engine::new(EngineConfig {
            workers: 2,
            overload: Some(OverloadConfig {
                interarrival: SimTime::from_us(100),
                deadline: DeadlinePolicy::Absolute(SimTime::from_secs(100)),
                ..OverloadConfig::default()
            }),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        let kept = |i: usize| !r.quota_exceeded.contains_key(&i);
        assert!(!r.quota_exceeded.is_empty());
        assert_eq!(
            r.batches + r.coalesced,
            (w.len() - r.quota_exceeded.len()) as u64
        );
        assert_eq!(r.batches, recount_batches(&w, 2, kept, false));
        assert_ne!(
            r.batches,
            recount_batches(&w, 2, kept, true),
            "some quota drop must sit inside a same-algorithm run"
        );
    }

    /// An empty workload takes the general serving path and reports
    /// what any run reports for no work: zero requests and time, one
    /// idle shard per worker with a closed breaker, and in overload
    /// mode the resolved deadline budget.
    #[test]
    fn empty_workload_is_empty_result() {
        let w = Workload::from_trace(std::iter::empty::<u16>(), 8);
        let closed = vec![vec![(SimTime::ZERO, BreakerState::Closed)]; 4];
        for shard in [
            ShardPolicy::AlgoModulo,
            ShardPolicy::RoundRobin,
            ShardPolicy::Balanced,
            ShardPolicy::Dynamic,
        ] {
            let cfg = EngineConfig {
                shard,
                trace: TraceConfig::full(),
                ..EngineConfig::default()
            };
            let r = Engine::new(cfg).serve(&w).unwrap();
            assert_eq!(r.requests, 0);
            assert!(r.makespan.is_zero());
            assert_eq!(r.speedup(), 0.0);
            assert_eq!(r.outputs.unwrap().len(), 0);
            assert_eq!(r.shard_busy, vec![SimTime::ZERO; 4]);
            assert_eq!(r.stats, OsStats::default());
            assert_eq!(r.batches, 0);
            assert_eq!(r.dispatch, DispatchStats::default());
            assert_eq!(r.deadline_budget, None);
            assert_eq!(r.shard_health, closed, "{}", shard.name());
            assert_eq!(r.trace, Some(TraceReport::default()));
            for (deadline, budget) in [
                (
                    DeadlinePolicy::Absolute(SimTime::from_ms(1)),
                    SimTime::from_ms(1),
                ),
                (
                    DeadlinePolicy::Percentile {
                        pct: 95.0,
                        multiplier: 3.0,
                    },
                    SimTime::from_ps(1),
                ),
            ] {
                let r = Engine::new(EngineConfig {
                    overload: Some(OverloadConfig {
                        deadline,
                        ..OverloadConfig::default()
                    }),
                    ..cfg
                })
                .serve(&w)
                .unwrap();
                assert_eq!(r.requests, 0);
                assert!(r.makespan.is_zero());
                assert_eq!(r.stats, OsStats::default());
                assert_eq!(r.overload, OverloadStats::default());
                assert!(r.tenants.is_empty());
                assert_eq!(r.deadline_budget, Some(budget), "{}", shard.name());
                assert_eq!(r.shard_health, closed, "{}", shard.name());
            }
        }
    }

    /// The closed loop is one configuration of the overload layer:
    /// `overload: None` and an explicit [`closed_loop`] serve the same
    /// workload identically, down to the trace bytes, under every
    /// shard policy with degrading faults, the requeue rescue and
    /// prefetch engaged. Only the reported deadline budget differs.
    #[test]
    fn closed_loop_is_an_open_loop_configuration() {
        use aaod_sim::{FaultPlan, FaultRates};
        // 3DES, SHA-256, XTEA and AES-128 overcommit a 34-frame card,
        // so prefetches evict; with no retries every fault degrades
        // and the rescue pass has work.
        let w = Workload::zipf(
            &[ids::TDES, ids::SHA256, ids::XTEA, ids::AES128],
            160,
            1.1,
            48,
            5,
        );
        let card = || {
            CoProcessor::builder()
                .geometry(aaod_fabric::DeviceGeometry::new(34, 16))
                .build()
        };
        let faults = FaultConfig {
            max_retries: 0,
            requeue: true,
            ..FaultConfig::new(FaultPlan::new(0xC0FFEE, FaultRates::uniform(0.02)))
        };
        let mut prefetches = 0;
        for shard in [
            ShardPolicy::AlgoModulo,
            ShardPolicy::RoundRobin,
            ShardPolicy::Balanced,
            ShardPolicy::Dynamic,
        ] {
            let cfg = EngineConfig {
                workers: 2,
                verify: true,
                shard,
                faults: Some(faults),
                trace: TraceConfig::full(),
                predict: Some(crate::predict::PredictConfig::default()),
                ..EngineConfig::default()
            };
            let closed = Engine::with_factory(cfg, card).serve(&w).unwrap();
            let mut open = Engine::with_factory(
                EngineConfig {
                    overload: Some(closed_loop()),
                    ..cfg
                },
                card,
            )
            .serve(&w)
            .unwrap();
            let name = shard.name();
            assert!(closed.faults.requeues > 0, "{name}: nothing rescued");
            assert_eq!(closed.deadline_budget, None);
            assert_eq!(open.deadline_budget, Some(SimTime::MAX));
            open.deadline_budget = None;
            assert_eq!(format!("{open:?}"), format!("{closed:?}"), "{name}");
            assert_eq!(
                open.trace.as_ref().map(TraceReport::to_jsonl),
                closed.trace.as_ref().map(TraceReport::to_jsonl),
                "{name}"
            );
            // the closed loop keeps the overload ledger too
            assert_eq!(closed.overload.submitted, w.len() as u64);
            assert!(closed.overload.accounted(), "{name}");
            assert_eq!(closed.sojourn.count() as u64, closed.overload.completed);
            prefetches += closed.stats.prefetches;
        }
        assert!(prefetches > 0, "the sweep must prefetch");
    }

    #[test]
    fn collect_outputs_off_keeps_classification() {
        let w = Workload::uniform(&FIT_SET, 40, 16, 2);
        let engine = Engine::new(EngineConfig {
            collect_outputs: false,
            ..EngineConfig::default()
        });
        let r = engine.serve(&w).unwrap();
        assert!(r.outputs.is_none());
        assert_eq!(r.per_request_hit.len(), 40);
        assert_eq!(r.stats.hits + r.stats.misses, 40);
    }

    #[test]
    fn balanced_splits_a_dominant_algorithm() {
        // One algorithm carries ~90% of the load: balanced sharding
        // must spread it over several shards.
        let mut trace = vec![ids::SHA1; 90];
        trace.extend_from_slice(&[ids::CRC32; 10]);
        let w = Workload::from_trace(trace, 64);
        let assignment = ShardPolicy::Balanced
            .plan(&w, 4, &CoProcessor::default)
            .assignment;
        let sha1_shards: BTreeSet<usize> = assignment[..90].iter().copied().collect();
        assert!(
            sha1_shards.len() >= 3,
            "hot algorithm stayed on {sha1_shards:?}"
        );
    }

    /// `faults: None` and an explicit zero-rate plan are one
    /// configuration: same results, same trace bytes.
    #[test]
    fn zero_rate_fault_plan_matches_legacy_exactly() {
        use aaod_sim::{FaultPlan, FaultRates};
        let w = Workload::zipf(&FIT_SET, 40, 1.1, 32, 21);
        let base = Engine::new(EngineConfig {
            workers: 2,
            trace: TraceConfig::full(),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        let faulty = Engine::new(EngineConfig {
            workers: 2,
            faults: Some(FaultConfig::new(FaultPlan::new(1, FaultRates::ZERO))),
            trace: TraceConfig::full(),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        assert_eq!(
            faulty.trace.as_ref().map(TraceReport::to_jsonl),
            base.trace.as_ref().map(TraceReport::to_jsonl)
        );
        assert_eq!(faulty.stats, base.stats);
        assert_eq!(faulty.outputs, base.outputs);
        assert_eq!(faulty.makespan, base.makespan);
        assert_eq!(faulty.batches, base.batches);
        assert_eq!(faulty.faults, FaultStats::default());
        assert!(faulty.failed.is_empty());
        assert_eq!(faulty.recovery_latency.count(), 0);
    }

    #[test]
    fn chaos_run_accounts_every_fault() {
        use aaod_sim::{FaultPlan, FaultRates};
        let w = Workload::zipf(&FIT_SET, 120, 1.1, 48, 13);
        let plan = FaultPlan::new(0xC0FFEE, FaultRates::uniform(0.04));
        let r = Engine::new(EngineConfig {
            workers: 2,
            verify: true,
            faults: Some(FaultConfig::new(plan)),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        assert!(r.faults.injected > 0, "16% total rate over 120 jobs");
        assert!(r.faults.accounted(), "unaccounted faults: {:?}", r.faults);
        assert!(
            r.failed.is_empty(),
            "with retries enabled every job recovers: {:?}",
            r.failed
        );
    }

    #[test]
    fn custom_factory_configures_shards() {
        let w = Workload::uniform(&[ids::CRC32, ids::CRC8], 20, 16, 9);
        let engine = Engine::with_factory(
            EngineConfig {
                workers: 2,
                verify: true,
                ..EngineConfig::default()
            },
            || CoProcessor::builder().decoded_cache_bytes(0).build(),
        );
        let r = engine.serve(&w).unwrap();
        assert_eq!(r.stats.decoded_misses, 0, "cache disabled in factory");
        assert_eq!(r.requests, 20);
    }

    /// Tracing observes modelled time; it never advances it. A fully
    /// traced run must therefore reproduce the untraced run exactly.
    #[test]
    fn full_trace_does_not_perturb_the_simulation() {
        let w = Workload::zipf(&FIT_SET, 60, 1.1, 48, 11);
        let base = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        assert!(base.trace.is_none(), "tracing is off by default");
        let traced = Engine::new(EngineConfig {
            workers: 2,
            trace: TraceConfig::full(),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        assert_eq!(traced.outputs, base.outputs);
        assert_eq!(traced.makespan, base.makespan);
        assert_eq!(traced.total_service_time, base.total_service_time);
        assert_eq!(traced.batches, base.batches);
        assert_eq!(traced.stats, base.stats);
        assert!(traced.trace.is_some());
    }

    /// On a clean in-fit run the trace-derived counters must agree
    /// exactly with the controller ledger, job conservation must hold
    /// through the queue, and the per-stage histograms must sum to the
    /// total modelled service time.
    #[test]
    fn clean_trace_counters_reconcile_with_os_stats() {
        let n = 80u64;
        let w = Workload::zipf(&FIT_SET, n as usize, 1.1, 48, 3);
        let r = Engine::new(EngineConfig {
            workers: 2,
            verify: true,
            trace: TraceConfig::full(),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        let t = r.trace.as_ref().unwrap();
        let c = &t.metrics.counters;
        assert_eq!(t.dropped, 0, "default capacity must hold a small run");
        // Job conservation through the queue: one Enqueue and one
        // Dequeue per request, one open/close pair per served job.
        assert_eq!(c.enqueued, n);
        assert_eq!(c.dequeued, n);
        assert_eq!(c.jobs_opened, n);
        assert_eq!(c.jobs_completed, n);
        assert_eq!(c.jobs_faulted + c.jobs_deadline_missed + c.shed, 0);
        let hits = r.per_request_hit.iter().filter(|&&h| h).count() as u64;
        assert_eq!(c.jobs_hit, hits);
        // Component details vs the merged OsStats: residency checks
        // happen once per batch (non-first batch members are hits by
        // construction), the decoded-bitstream cache and eviction
        // ledgers match one-to-one.
        assert_eq!(c.residency_misses, r.stats.misses);
        assert_eq!(c.residency_hits + r.coalesced, r.stats.hits);
        assert_eq!(c.residency_hits + c.residency_misses, r.batches);
        assert_eq!(c.decoded_hits, r.stats.decoded_hits);
        assert_eq!(c.decoded_misses, r.stats.decoded_misses);
        assert_eq!(c.evictions, r.stats.evictions);
        assert_eq!(c.evictions, 0, "FIT_SET must not evict");
        // The eight clean stages partition each job's service time.
        let staged: SimTime = t
            .metrics
            .stage_time
            .values()
            .map(|h| h.total())
            .fold(SimTime::ZERO, |a, b| a + b);
        assert_eq!(staged, r.total_service_time);
        // Fault machinery must stay silent on a clean run.
        assert_eq!(c.faults_injected + c.faults_inert + c.retries, 0);
        assert_eq!(c.repairs() + c.faults_failed + c.watchdog_resets, 0);
        assert_eq!(c.breaker_transitions, 0);
    }

    /// Same (workload, config) must serialize to byte-identical JSONL
    /// across runs; [`TraceLevel::Counters`] keeps the metrics but
    /// records no events.
    #[test]
    fn trace_export_is_deterministic_and_counters_mode_is_eventless() {
        let w = Workload::zipf(&FIT_SET, 40, 1.1, 32, 21);
        let run = |cfg: TraceConfig| {
            Engine::new(EngineConfig {
                workers: 2,
                trace: cfg,
                ..EngineConfig::default()
            })
            .serve(&w)
            .unwrap()
        };
        let a = run(TraceConfig::full());
        let b = run(TraceConfig::full());
        let ja = a.trace.as_ref().unwrap().to_jsonl();
        let jb = b.trace.as_ref().unwrap().to_jsonl();
        assert!(!ja.is_empty());
        assert_eq!(ja, jb, "same inputs must produce identical traces");
        let counters_only = run(TraceConfig::counters());
        let t = counters_only.trace.as_ref().unwrap();
        assert!(t.events.is_empty(), "counters mode records no events");
        assert_eq!(
            t.metrics.counters,
            a.trace.as_ref().unwrap().metrics.counters,
            "counter ledger must be level-independent"
        );
        // Chrome export is deterministic too and wraps every event.
        assert_eq!(
            a.trace.as_ref().unwrap().to_chrome_trace(),
            b.trace.as_ref().unwrap().to_chrome_trace()
        );
    }

    /// Under corruption chaos every `FaultStats` bump has exactly one
    /// trace event: injected, inert, each repair kind, retries and
    /// rescue requeues all reconcile.
    #[test]
    fn chaos_trace_counters_reconcile_with_fault_stats() {
        use aaod_sim::{FaultPlan, FaultRates};
        let w = Workload::zipf(&FIT_SET, 120, 1.1, 48, 13);
        let plan = FaultPlan::new(0xC0FFEE, FaultRates::uniform(0.04));
        let r = Engine::new(EngineConfig {
            workers: 2,
            verify: true,
            faults: Some(FaultConfig::new(plan)),
            trace: TraceConfig::full(),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        assert!(r.faults.injected > 0);
        let c = &r.trace.as_ref().unwrap().metrics.counters;
        assert_eq!(c.faults_injected, r.faults.injected);
        assert_eq!(c.faults_inert, r.faults.inert);
        assert_eq!(c.retries, r.faults.retries);
        assert_eq!(c.requeued, r.faults.requeues);
        assert_eq!(c.faults_failed, r.faults.faults_failed);
        assert_eq!(c.repairs_scrub, r.faults.scrubbed);
        assert_eq!(c.repairs_redownload, r.faults.redownloads);
        assert_eq!(c.repairs_pci_retry, r.faults.pci_retried);
        assert_eq!(c.repairs_evict_clear, r.faults.evict_cleared);
        assert_eq!(c.repairs(), r.faults.recovered());
        assert_eq!(c.jobs_completed + c.jobs_faulted, r.requests as u64);
        assert_eq!(c.jobs_faulted, r.failed.len() as u64);
    }

    /// Under overload the shed/watchdog/redistribution/breaker events
    /// must mirror `OverloadStats` exactly, and every opened job must
    /// close once with the outcome the overload ledger counted. Beyond
    /// the mixed chaos run, two configurations drive the second pass:
    /// a threshold-1 breaker that stays open (most jobs are
    /// redistributed) and the requeue rescue with no retries.
    #[test]
    fn overload_trace_counters_reconcile_with_overload_stats() {
        use crate::breaker::BreakerConfig;
        use aaod_sim::{FaultPlan, FaultRates, LatencyRates};
        let w = Workload::zipf(&FIT_SET, 200, 1.1, 48, 31);
        let mixed = OverloadConfig {
            interarrival: SimTime::from_us(50),
            deadline: DeadlinePolicy::Percentile {
                pct: 95.0,
                multiplier: 200.0,
            },
            ..OverloadConfig::default()
        };
        let plan = FaultPlan::new(0x0D10AD, FaultRates::uniform(0.03))
            .with_latency(LatencyRates::uniform(0.04));
        let quarantine = OverloadConfig {
            interarrival: SimTime::from_us(100),
            deadline: DeadlinePolicy::Absolute(SimTime::from_secs(100)),
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown: SimTime::from_secs(1),
            },
            ..OverloadConfig::default()
        };
        let no_retries = FaultConfig {
            max_retries: 0,
            ..FaultConfig::new(FaultPlan::new(0x0D10AD, FaultRates::uniform(0.05)))
        };
        let rescue = OverloadConfig {
            breaker: BreakerConfig {
                failure_threshold: u32::MAX,
                ..quarantine.breaker
            },
            ..quarantine
        };
        let runs = [
            ("mixed", 3, mixed, FaultConfig::new(plan)),
            ("quarantine", 3, quarantine, no_retries),
            (
                "rescue",
                2,
                rescue,
                FaultConfig {
                    requeue: true,
                    ..no_retries
                },
            ),
        ];
        for (label, workers, oc, faults) in runs {
            let r = Engine::new(EngineConfig {
                workers,
                verify: true,
                overload: Some(oc),
                faults: Some(faults),
                trace: TraceConfig::full(),
                ..EngineConfig::default()
            })
            .serve(&w)
            .unwrap();
            assert!(r.overload.accounted(), "{label}");
            let c = &r.trace.as_ref().unwrap().metrics.counters;
            assert_eq!(c.enqueued, 200, "{label}");
            assert_eq!(c.dequeued, 200, "{label}");
            assert_eq!(c.shed, r.overload.shed, "{label}");
            assert_eq!(c.watchdog_resets, r.overload.watchdog_resets, "{label}");
            assert_eq!(c.redistributed, r.overload.redistributed, "{label}");
            assert_eq!(c.breaker_trips, r.overload.breaker_trips, "{label}");
            assert_eq!(c.bounced, r.overload.breaker_rejections, "{label}");
            assert_eq!(
                c.jobs_opened,
                c.jobs_completed + c.jobs_faulted + c.jobs_deadline_missed,
                "{label}"
            );
            assert_eq!(c.jobs_completed, r.overload.completed, "{label}");
            assert_eq!(
                c.jobs_deadline_missed, r.overload.deadline_missed,
                "{label}"
            );
            assert_eq!(c.requeued, r.faults.requeues, "{label}");
            // Latency-fault activations surface as FaultInjected events
            // alongside the corruption ones.
            assert_eq!(
                c.faults_injected,
                r.faults.injected
                    + r.overload.stalls_injected
                    + r.overload.slow_transfers_injected
                    + r.overload.stuck_injected,
                "{label}"
            );
            assert_eq!(
                c.faults_inert,
                r.faults.inert + r.overload.latency_inert,
                "{label}"
            );
            match label {
                "quarantine" => assert!(r.overload.redistributed > 0, "{:?}", r.overload),
                "rescue" => assert!(r.faults.requeues > 0, "{:?}", r.faults),
                _ => {}
            }
        }
    }

    fn two_tenant_specs(quota: Option<u64>) -> Vec<aaod_workload::TenantSpec> {
        vec![
            aaod_workload::TenantSpec {
                name: "gateway".into(),
                algos: vec![ids::SHA1],
                weight: 4,
                offered: 1,
                input_len: 65536,
                quota: None,
            },
            // same kernel and size as the gateway so the comparison
            // isolates admission policy from reconfiguration thrash
            aaod_workload::TenantSpec {
                name: "flood".into(),
                algos: vec![ids::SHA1],
                weight: 1,
                offered: 8,
                input_len: 65536,
                quota,
            },
        ]
    }

    /// Weighted-fair admission protects the light tenant: shedding the
    /// flooding tenant's excess keeps shard clocks low, so more
    /// gateway jobs complete than under drop-newest, and the fairness
    /// counters balance.
    #[test]
    fn weighted_fair_shed_protects_light_tenants() {
        use crate::overload::FairnessConfig;
        let w = Workload::multi_tenant(&two_tenant_specs(None), 300, 77);
        let serve_at = |ia: SimTime, budget: SimTime, fairness: Option<FairnessConfig>| {
            Engine::new(EngineConfig {
                workers: 2,
                shard: ShardPolicy::RoundRobin,
                overload: Some(OverloadConfig {
                    interarrival: ia,
                    deadline: DeadlinePolicy::Absolute(budget),
                    fairness,
                    ..OverloadConfig::default()
                }),
                ..EngineConfig::default()
            })
            .serve(&w)
            .unwrap()
        };
        // calibrate: the pool's drain time at instantaneous arrivals
        // sets capacity; offer 2x that and a budget that tolerates a
        // modest backlog, so admission (not raw deadlines) decides
        let drain = serve_at(SimTime::from_ns(1), SimTime::from_secs(100), None).makespan;
        let n = w.len() as u64;
        let ia = SimTime::from_ps((drain.as_ps() / (2 * n)).max(1));
        let budget = SimTime::from_ps((drain.as_ps() / 4).max(1));
        let serve = |fairness: Option<FairnessConfig>| serve_at(ia, budget, fairness);
        let unfair = serve(None);
        assert_eq!(unfair.overload.fair_shed, 0);
        assert!(unfair.overload.accounted());
        let fair = serve(Some(FairnessConfig::default()));
        assert!(fair.overload.accounted());
        assert!(fair.overload.fair_shed > 0, "flood must trip the policy");
        assert!(fair.overload.fair_shed <= fair.overload.shed);
        // per-tenant ledgers exist, conserve, and show the shift
        assert_eq!(fair.tenants.len(), 2);
        assert!(fair.tenants.iter().all(|t| t.accounted()));
        let gw_fair = &fair.tenants[0];
        let gw_unfair = &unfair.tenants[0];
        assert_eq!(gw_fair.name, "gateway");
        assert!(
            gw_fair.completed > gw_unfair.completed,
            "fairness must lift the light tenant: {} vs {}",
            gw_fair.completed,
            gw_unfair.completed
        );
        let flood = &fair.tenants[1];
        assert!(flood.shed > 0, "the flood pays for the lift");
    }

    /// A tenant quota drops excess submissions before any shard sees them:
    /// exactly `submitted − quota` jobs land in `quota_exceeded`,
    /// are never enqueued, and conservation still balances.
    #[test]
    fn tenant_quota_drops_excess_submissions() {
        let quota = 10u64;
        let w = Workload::multi_tenant(&two_tenant_specs(Some(quota)), 200, 9);
        let flood_offered = (0..w.len()).filter(|&i| w.tenant_of(i) == Some(1)).count() as u64;
        assert!(flood_offered > quota, "flood must exceed its quota");
        let r = Engine::new(EngineConfig {
            workers: 2,
            overload: Some(OverloadConfig {
                interarrival: SimTime::from_us(100),
                deadline: DeadlinePolicy::Absolute(SimTime::from_secs(100)),
                ..OverloadConfig::default()
            }),
            trace: TraceConfig::full(),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        assert!(r.overload.accounted());
        assert_eq!(r.overload.quota_exceeded, flood_offered - quota);
        assert_eq!(r.quota_exceeded.len() as u64, flood_offered - quota);
        assert!(r
            .quota_exceeded
            .values()
            .all(|e| matches!(e, JobError::QuotaExceeded { tenant: 1, .. })));
        let flood = &r.tenants[1];
        assert_eq!(flood.quota_exceeded, flood_offered - quota);
        assert!(flood.accounted());
        // quota drops were never enqueued: the trace saw only the rest
        let c = &r.trace.as_ref().unwrap().metrics.counters;
        assert_eq!(c.enqueued, w.len() as u64 - (flood_offered - quota));
        assert_eq!(c.enqueued, c.dequeued);
    }

    /// Tick-carrying workloads reshape arrivals: a flash crowd
    /// compresses the middle third of the stream, so a pool that keeps
    /// up with uniform arrivals sheds or misses during the spike.
    #[test]
    fn flash_crowd_ticks_shape_arrivals() {
        let algos = [ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA];
        let w = Workload::flash_crowd(&algos, ids::SHA1, 240, 50, 48, 3);
        assert!(w.arrival_tick(0).is_some());
        // calibrate a uniform-capacity interarrival: serial time / n
        let (_, hits) = serial_outputs(&w);
        assert_eq!(hits.len(), 240);
        let serve = |ia: SimTime| {
            Engine::new(EngineConfig {
                workers: 2,
                overload: Some(OverloadConfig {
                    interarrival: ia,
                    deadline: DeadlinePolicy::Percentile {
                        pct: 95.0,
                        multiplier: 3.0,
                    },
                    ..OverloadConfig::default()
                }),
                ..EngineConfig::default()
            })
            .serve(&w)
            .unwrap()
        };
        // generous spacing: even the 50x spike stays within deadline
        let calm = serve(SimTime::from_ms(10));
        assert!(calm.overload.accounted());
        // tight spacing: the spike's arrivals land 50x faster than the
        // mean gap and overwhelm the pool mid-run
        let tight = serve(SimTime::from_us(10));
        assert!(tight.overload.accounted());
        assert!(
            tight.overload.shed + tight.overload.deadline_missed
                > calm.overload.shed + calm.overload.deadline_missed,
            "the spike must hurt at tight spacing: {:?} vs {:?}",
            tight.overload,
            calm.overload
        );
    }

    /// Per-shard event streams must carry monotone non-decreasing
    /// modelled timestamps, balanced open/close pairs, and stage spans
    /// nested inside their job's open/close window — in clean, chaos
    /// and overload modes alike, with the prefetcher evicting on an
    /// over-committed card under open-loop arrivals, where idle gaps
    /// put the shard clock ahead of its busy time, and for jobs the
    /// second pass redistributed or rescued.
    #[test]
    fn trace_streams_are_well_formed_in_every_mode() {
        use crate::breaker::BreakerConfig;
        use crate::overload::WatchdogConfig;
        use aaod_sim::trace::EventKind;
        use aaod_sim::{FaultPlan, FaultRates, LatencyRates};
        let w = Workload::zipf(&FIT_SET, 150, 1.1, 48, 7);
        let clean = EngineConfig {
            workers: 2,
            trace: TraceConfig::full(),
            ..EngineConfig::default()
        };
        let chaos = EngineConfig {
            faults: Some(FaultConfig::new(FaultPlan::new(
                7,
                FaultRates::uniform(0.05),
            ))),
            ..clean
        };
        let overload = EngineConfig {
            workers: 3,
            overload: Some(OverloadConfig {
                interarrival: SimTime::from_us(50),
                deadline: DeadlinePolicy::Percentile {
                    pct: 95.0,
                    multiplier: 200.0,
                },
                watchdog: WatchdogConfig::default(),
                breaker: BreakerConfig::default(),
                fairness: None,
            }),
            faults: Some(FaultConfig::new(
                FaultPlan::new(9, FaultRates::uniform(0.03))
                    .with_latency(LatencyRates::uniform(0.05)),
            )),
            ..clean
        };
        // AES-128, 3DES and SHA-256 overcommit a 52-frame card, so the
        // prefetch after the final batch evicts.
        let churn = Workload::round_robin(&[ids::AES128, ids::TDES, ids::SHA256], 241, 64);
        let predict = EngineConfig {
            workers: 1,
            overload: Some(OverloadConfig {
                interarrival: SimTime::from_us(500),
                deadline: DeadlinePolicy::Absolute(SimTime::from_ms(50)),
                ..OverloadConfig::default()
            }),
            predict: Some(crate::predict::PredictConfig::default()),
            ..clean
        };
        let churn_card = || {
            CoProcessor::builder()
                .geometry(aaod_fabric::DeviceGeometry::new(52, 16))
                .build()
        };
        // The second pass: a threshold-1 breaker that stays open
        // redistributes most of the stream onto the healthy shards'
        // streams, and the requeue rescue serves on the engine's
        // stream after the pool drains.
        let quarantine_oc = OverloadConfig {
            interarrival: SimTime::from_us(100),
            deadline: DeadlinePolicy::Absolute(SimTime::from_secs(100)),
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown: SimTime::from_secs(1),
            },
            ..OverloadConfig::default()
        };
        let no_retries = FaultConfig {
            max_retries: 0,
            ..FaultConfig::new(FaultPlan::new(0x0D10AD, FaultRates::uniform(0.05)))
        };
        let quarantine = EngineConfig {
            workers: 3,
            overload: Some(quarantine_oc),
            faults: Some(no_retries),
            ..clean
        };
        let rescue = EngineConfig {
            overload: Some(OverloadConfig {
                breaker: BreakerConfig {
                    failure_threshold: u32::MAX,
                    ..quarantine_oc.breaker
                },
                ..quarantine_oc
            }),
            faults: Some(FaultConfig {
                requeue: true,
                ..no_retries
            }),
            ..clean
        };
        let quarantined = Engine::new(quarantine).serve(&w);
        let rescued = Engine::new(rescue).serve(&w);
        assert!(quarantined.as_ref().unwrap().overload.redistributed > 0);
        assert!(rescued.as_ref().unwrap().faults.requeues > 0);
        let runs = [
            ("clean", Engine::new(clean).serve(&w)),
            ("chaos", Engine::new(chaos).serve(&w)),
            ("overload", Engine::new(overload).serve(&w)),
            (
                "overload + predict",
                Engine::with_factory(predict, churn_card).serve(&churn),
            ),
            ("redistribution", quarantined),
            ("rescue", rescued),
        ];
        for (label, r) in runs {
            let r = r.unwrap();
            let t = r.trace.as_ref().unwrap();
            let mut last: BTreeMap<u32, SimTime> = BTreeMap::new();
            let mut open_jobs: BTreeMap<(u32, u64), SimTime> = BTreeMap::new();
            let mut open_stages = 0i64;
            for e in &t.events {
                let prev = last.entry(e.shard).or_insert(SimTime::ZERO);
                assert!(
                    e.ts >= *prev,
                    "{label}: shard {} time went backwards at seq {}",
                    e.shard,
                    e.seq
                );
                *prev = e.ts;
                match e.kind {
                    EventKind::JobOpen { job, .. } => {
                        assert!(
                            open_jobs.insert((e.shard, job), e.ts).is_none(),
                            "{label}: job {job} opened twice on shard {}",
                            e.shard
                        );
                    }
                    EventKind::JobClose { job, .. } => {
                        let opened = open_jobs
                            .remove(&(e.shard, job))
                            .unwrap_or_else(|| panic!("{label}: job {job} closed unopened"));
                        assert!(opened <= e.ts, "{label}: job {job} closed before open");
                    }
                    EventKind::StageOpen { job, .. } => {
                        assert!(
                            open_jobs.contains_key(&(e.shard, job)),
                            "{label}: stage outside job {job} window"
                        );
                        open_stages += 1;
                    }
                    EventKind::StageClose { .. } => open_stages -= 1,
                    _ => {}
                }
            }
            assert!(open_jobs.is_empty(), "{label}: unclosed jobs {open_jobs:?}");
            assert_eq!(open_stages, 0, "{label}: unbalanced stage spans");
        }
    }
}
