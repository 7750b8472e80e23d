//! Concurrent serving engine: a sharded pool of co-processors.
//!
//! The paper models a single card serving one host. A serving
//! deployment (e.g. a crypto gateway) runs many such cards and fans
//! requests out across them. [`Engine`] reproduces that: it partitions
//! a [`Workload`] across `N` independent [`CoProcessor`] shards, each
//! driven by its own OS thread behind a bounded job queue, and
//! reassembles the results in submission order — outputs are
//! byte-identical to running the workload serially on one card.
//!
//! Two serving optimisations ride on the pool:
//!
//! * **miss batching** — a worker drains the run of consecutive queued
//!   requests for the same algorithm and serves them with one
//!   [`CoProcessor::invoke_batch`] call, paying the record lookup and
//!   any (re)configuration once per run instead of once per request;
//! * **sharding policies** ([`ShardPolicy`]) — requests can be routed
//!   by `algo_id % N` (maximum locality), round-robin (maximum
//!   spread), or by a balanced partition that splits hot algorithms
//!   across shards when one algorithm alone would exceed a shard's
//!   fair share of the load.
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
//! With [`EngineConfig::overload`] set, the engine additionally
//! defends itself against *time-domain* failure, all in modelled
//! time:
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
//! no job is silently lost.

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::coproc::{CoProcessor, HostReport};
use crate::dispatch::{self, DispatchPlan, DispatchStats};
use crate::error::CoreError;
use crate::fault::{FaultConfig, FaultStats, JobError};
use crate::overload::{DeadlinePolicy, OverloadConfig, OverloadStats, TenantStats};
use aaod_mcu::OsStats;
use aaod_sim::stats::TimeAccumulator;
use aaod_sim::trace::{
    BreakerPhase, EventKind, FaultKind, JobOutcome, RepairKind, Stage, TraceConfig, TraceLevel,
    TraceReport, TraceShard, Tracer, ENGINE_SHARD, PRODUCER_SHARD,
};
use aaod_sim::{FaultPlan, FaultRates, FaultSite, LatencySite, SimTime};
use aaod_workload::Workload;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Condvar, Mutex};

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
    /// Bid-based (auction) assignment, the ablation arm against
    /// [`ShardPolicy::Dynamic`]: each same-algorithm run is sold to
    /// the shard with the lowest bid — modelled clock, plus a
    /// cold-start handicap where the algorithm is not yet resident,
    /// plus the shard's running price. The winner pays the marginal
    /// price (second-lowest bid minus its own), Bertsekas-style, so
    /// persistently popular shards price themselves out and load
    /// spreads without work stealing. Deterministic: pure function of
    /// the workload, ties to the lower shard index.
    Auction,
}

impl ShardPolicy {
    /// A short name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ShardPolicy::AlgoModulo => "algo-mod",
            ShardPolicy::RoundRobin => "round-robin",
            ShardPolicy::Balanced => "balanced",
            ShardPolicy::Dynamic => "dynamic",
            ShardPolicy::Auction => "auction",
        }
    }

    /// Computes the full dispatch plan: a per-request shard
    /// assignment plus, for [`ShardPolicy::Dynamic`] and
    /// [`ShardPolicy::Auction`], the decision ledger that produced it.
    /// Those planners calibrate their cost model on a scratch card
    /// built by `factory`, so plans track the engine's shard
    /// configuration (codec, frame store…). Deterministic.
    fn plan(
        self,
        workload: &Workload,
        workers: usize,
        factory: &(dyn Fn() -> CoProcessor + Send + Sync),
    ) -> DispatchPlan {
        let requests = workload.requests();
        let assignment = match self {
            ShardPolicy::Dynamic => return dispatch::plan_with(workload, workers, factory),
            ShardPolicy::Auction => return dispatch::plan_auction(workload, workers, factory),
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

/// Bound of each shard's job queue (requests).
const QUEUE_DEPTH: usize = 64;

/// Longest same-algorithm run one `invoke_batch` call may absorb. The
/// producer segments each shard's stream at this cap, and the dynamic
/// and auction planners deal runs of the same shape.
pub(crate) const BATCH_MAX: usize = 16;

/// Engine tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Shards (worker threads, each with its own co-processor).
    pub workers: usize,
    /// Check every output against the golden software model.
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
    /// `None` (the default) keeps the legacy closed-loop behaviour:
    /// no arrivals, no deadlines, no latency-fault injection.
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
    /// index. Always empty without [`EngineConfig::overload`].
    pub shed: BTreeMap<usize, JobError>,
    /// Jobs served past their deadline
    /// ([`JobError::DeadlineExceeded`]), by submission index. Their
    /// outputs were dropped.
    pub deadline_missed: BTreeMap<usize, JobError>,
    /// Jobs dropped at submission by their tenant's hard quota
    /// ([`JobError::QuotaExceeded`]), by submission index. They were
    /// never enqueued. Always empty without [`EngineConfig::overload`]
    /// or without tenant quotas in the workload.
    pub quota_exceeded: BTreeMap<usize, JobError>,
    /// Per-tenant outcome totals, in tenant-spec order. Populated
    /// only for overload runs over a workload carrying tenant specs.
    pub tenants: Vec<TenantStats>,
    /// Overload-layer counters, merged across shards (all zero
    /// without [`EngineConfig::overload`]).
    pub overload: OverloadStats,
    /// The resolved per-job deadline budget (`None` without
    /// [`EngineConfig::overload`]).
    pub deadline_budget: Option<SimTime>,
    /// Each shard's circuit-breaker health timeline: `(modelled time,
    /// new state)` transitions, starting closed at time zero. Empty
    /// without [`EngineConfig::overload`].
    pub shard_health: Vec<Vec<(SimTime, BreakerState)>>,
    /// Arrival-to-completion (queueing + service) modelled time of
    /// every completed job. Only populated in overload mode, where
    /// jobs have arrival times.
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
    /// the goodput ratio against offered load (zero without
    /// [`EngineConfig::overload`] submissions).
    pub fn goodput(&self) -> f64 {
        self.overload.goodput()
    }
}

/// One queued request.
struct Job {
    index: usize,
    algo_id: u16,
    input: Vec<u8>,
    /// Modelled arrival time (`index × interarrival`, scaled by the
    /// workload's arrival tick when it carries a traffic model; zero
    /// without the overload layer).
    arrival: SimTime,
    /// Absolute modelled deadline (`None` without the overload
    /// layer).
    deadline: Option<SimTime>,
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

/// A bounded FIFO of pre-segmented batches: producers block while the
/// queued job count is at capacity, consumers block while empty,
/// `close` wakes everyone for shutdown.
///
/// Batches are segmented by the *producer* from its full view of the
/// shard's stream, never by the consumer's racy view of the queue —
/// batch boundaries (and therefore the per-batch shared costs and the
/// modelled makespan) are a pure function of the workload, not of
/// thread timing.
struct BoundedQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct QueueState {
    batches: VecDeque<Vec<Job>>,
    /// Total jobs across `batches` (the capacity unit).
    jobs: usize,
    closed: bool,
}

impl BoundedQueue {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                batches: VecDeque::new(),
                jobs: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    fn push(&self, batch: Vec<Job>) {
        debug_assert!(!batch.is_empty(), "empty batch pushed");
        let mut st = self.state.lock().expect("queue lock poisoned");
        // an empty queue always admits a batch, so a batch larger
        // than the whole capacity cannot deadlock
        while st.jobs >= self.capacity && !st.batches.is_empty() {
            st = self.not_full.wait(st).expect("queue lock poisoned");
        }
        st.jobs += batch.len();
        st.batches.push_back(batch);
        drop(st);
        self.not_empty.notify_one();
    }

    fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Pops the next batch; `None` once the queue is closed and
    /// drained.
    fn pop_batch(&self) -> Option<Vec<Job>> {
        let mut st = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(batch) = st.batches.pop_front() {
                st.jobs -= batch.len();
                drop(st);
                self.not_full.notify_all();
                return Some(batch);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("queue lock poisoned");
        }
    }
}

struct JobResult {
    index: usize,
    output: Vec<u8>,
    hit: bool,
    time: SimTime,
    /// Set when the job degraded instead of producing an output.
    error: Option<JobError>,
    /// Arrival-to-completion time (completed overload-mode jobs).
    sojourn: Option<SimTime>,
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
            sojourn: None,
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
        if let Some(t) = r.sojourn {
            self.sojourn.push(t);
        }
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
                if let Some(outs) = self.outputs.as_mut() {
                    outs[r.index] = r.output;
                }
            }
        }
    }
}

/// Decides a served job's terminal state: the one classifier every
/// served job goes through, whether a shard, the redistribution pass
/// or the rescue pass served it. A job that carries a deadline
/// (overload mode) and finished past it is deadline-exceeded, and its
/// output is dropped unverified. Every other job completes: its output
/// is verified and kept when collecting, and an overload-mode job
/// records its arrival-to-finish sojourn. Without the overload layer
/// no job carries a deadline, so every served job completes.
fn complete(
    job: &Job,
    output: Vec<u8>,
    hit: bool,
    time: SimTime,
    finish: SimTime,
    golden: Option<&aaod_algos::AlgorithmBank>,
    collect: bool,
) -> Result<JobResult, CoreError> {
    if let Some(deadline) = job.deadline.filter(|&d| finish > d) {
        let error = JobError::DeadlineExceeded {
            algo_id: job.algo_id,
            deadline,
            finished: finish,
        };
        return Ok(JobResult {
            hit,
            time,
            ..JobResult::dropped(job.index, error)
        });
    }
    if let Some(golden) = golden {
        let expected = golden
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
        sojourn: job.deadline.map(|_| finish - job.arrival),
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

/// Counts a served overload-mode job under its terminal state.
fn tally(stats: &mut OverloadStats, r: &JobResult) {
    match job_outcome(r) {
        JobOutcome::Completed => stats.completed += 1,
        JobOutcome::DeadlineMissed => stats.deadline_missed += 1,
        JobOutcome::Faulted => stats.faulted += 1,
    }
}

#[derive(Default)]
struct WorkerOutcome {
    results: Vec<JobResult>,
    busy: SimTime,
    stats: OsStats,
    batches: u64,
    coalesced: u64,
    faults: FaultStats,
    recovery_latency: TimeAccumulator,
    /// Overload-layer counters for this shard.
    overload: OverloadStats,
    /// Jobs bounced by this shard's open breaker, in pop order; the
    /// engine redistributes them to healthy shards after the pool
    /// drains.
    rejected: Vec<Job>,
    /// The shard's modelled clock at drain: service plus idle gaps
    /// waiting for arrivals (overload mode only; `ZERO` otherwise).
    finish: SimTime,
    /// Breaker health timeline (overload mode only).
    breaker_timeline: Vec<(SimTime, BreakerState)>,
    /// Whether the breaker ended the run open (shard unhealthy).
    breaker_open: bool,
    /// The shard's card, returned so redistribution can serve bounced
    /// jobs on it (overload mode only).
    cp: Option<CoProcessor>,
    /// The shard's trace stream (absent at [`TraceLevel::Off`]).
    trace: Option<TraceShard>,
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
pub(crate) fn trace_clean_stages(
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

/// [`trace_clean_stages`] plus the closing `JobClose`, for paths that
/// classify the job as completed on the spot.
pub(crate) fn trace_clean_job(
    tracer: &mut Tracer,
    start: SimTime,
    index: usize,
    algo_id: u16,
    report: &HostReport,
) -> SimTime {
    let end = trace_clean_stages(tracer, start, index, algo_id, report);
    tracer.record(
        end,
        EventKind::JobClose {
            job: index as u64,
            algo: algo_id,
            outcome: JobOutcome::Completed,
            hit: report.hit(),
        },
    );
    end
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
    /// Each shard installs only the algorithms routed to it (install
    /// time is bring-up, not serving time), services its queue until
    /// the producer closes it, and reports its modelled busy time.
    ///
    /// # Errors
    ///
    /// Propagates the first shard error: install/invoke failures, or
    /// [`CoreError::OutputMismatch`] when verification is on.
    pub fn serve(&self, workload: &Workload) -> Result<EngineResult, CoreError> {
        let workers = self.config.workers.max(1);
        let requests = workload.requests();
        let n = requests.len();
        if n == 0 {
            return Ok(EngineResult {
                workers,
                requests: 0,
                input_bytes: 0,
                outputs: self.config.collect_outputs.then(Vec::new),
                per_request_hit: Vec::new(),
                latency: TimeAccumulator::new(),
                total_service_time: SimTime::ZERO,
                shard_busy: vec![SimTime::ZERO; workers],
                makespan: SimTime::ZERO,
                stats: OsStats::default(),
                batches: 0,
                coalesced: 0,
                dispatch: DispatchStats::default(),
                failed: BTreeMap::new(),
                faults: FaultStats::default(),
                recovery_latency: TimeAccumulator::new(),
                shed: BTreeMap::new(),
                deadline_missed: BTreeMap::new(),
                quota_exceeded: BTreeMap::new(),
                tenants: Vec::new(),
                overload: OverloadStats::default(),
                deadline_budget: None,
                shard_health: Vec::new(),
                sojourn: TimeAccumulator::new(),
                trace: (self.config.trace.level != TraceLevel::Off).then(TraceReport::default),
            });
        }
        let plan = self.config.shard.plan(workload, workers, &self.factory);
        let assignment = &plan.assignment;
        let mut shard_algos: Vec<BTreeSet<u16>> = vec![BTreeSet::new(); workers];
        for (req, &shard) in requests.iter().zip(assignment) {
            shard_algos[shard].insert(req.algo_id);
        }
        let verify = self.config.verify;
        let collect = self.config.collect_outputs;
        let overload = self.config.overload;
        if let Some(oc) = &overload {
            oc.validate();
        }
        // A fault-free run is a zero-rate plan: every shard drives the
        // same serving path, and the plan decides "no fault" for every
        // index.
        let faults = self
            .config
            .faults
            .unwrap_or_else(|| FaultConfig::new(FaultPlan::new(0, FaultRates::ZERO)));
        let deadline_budget = match overload {
            None => None,
            Some(oc) => Some(self.resolve_deadline_budget(workload, oc)?),
        };
        // Weighted-fair admission engages only when both halves are
        // present: a fairness config on the overload layer and tenant
        // specs on the workload.
        let fairness_share = match (overload.and_then(|oc| oc.fairness), workload.tenant_specs()) {
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
        let predict = self.config.predict;
        let mut producer_tracer = Tracer::new(trace_cfg, PRODUCER_SHARD);
        let queues: Vec<BoundedQueue> = (0..workers)
            .map(|_| BoundedQueue::new(QUEUE_DEPTH))
            .collect();
        // Per-tenant hard quotas are enforced at submission: a request
        // past its tenant's quota is dropped by the producer without
        // ever being enqueued. `(index, tenant, quota)` of each drop.
        let mut quota_drops: Vec<(usize, u16, u64)> = Vec::new();
        // Request `i` as a job: at submission, and again for a rescue.
        let job_at = |i: usize| {
            let arrival = overload.map_or(SimTime::ZERO, |oc| arrival_time(&oc, workload, i));
            Job {
                index: i,
                algo_id: requests[i].algo_id,
                input: workload.input(i),
                arrival,
                deadline: deadline_budget.map(|b| arrival + b),
                tenant: workload.tenant_of(i),
            }
        };

        let outcomes: Vec<Result<WorkerOutcome, CoreError>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (shard, queue) in queues.iter().enumerate() {
                let algos = &shard_algos[shard];
                handles.push(scope.spawn(move || {
                    worker_loop(
                        factory,
                        queue,
                        algos,
                        verify,
                        collect,
                        faults,
                        overload,
                        fairness,
                        shard as u32,
                        trace_cfg,
                        predict,
                    )
                }));
            }
            // This thread is the producer: walk the stream in
            // submission order, segmenting each shard's consecutive
            // same-algorithm run into a batch (capped at BATCH_MAX)
            // and pushing whole batches, blocking whenever a shard's
            // queue is full. Segmenting here — from the full stream,
            // not the consumer's racy view of its queue — keeps batch
            // boundaries, and with them the modelled makespan, a pure
            // function of the workload.
            let mut pending: Vec<Vec<Job>> = (0..workers).map(|_| Vec::new()).collect();
            // Dynamic dispatch replays the planner's deal/steal ledger
            // into the trace as it walks the stream, stamped at each
            // trigger's arrival time so per-shard timestamps stay
            // monotone.
            let emit_plan = producer_tracer.enabled() && !plan.decisions.is_empty();
            let mut steal_cursor = 0usize;
            let mut tenant_submitted: Vec<u64> = workload
                .tenant_specs()
                .map_or_else(Vec::new, |specs| vec![0; specs.len()]);
            for (i, req) in requests.iter().enumerate() {
                let tenant = workload.tenant_of(i);
                if overload.is_some() {
                    if let (Some(t), Some(specs)) = (tenant, workload.tenant_specs()) {
                        if let Some(quota) = specs.get(t as usize).and_then(|s| s.quota) {
                            let count = &mut tenant_submitted[t as usize];
                            *count += 1;
                            if *count > quota {
                                quota_drops.push((i, t, quota));
                                continue;
                            }
                        }
                    }
                }
                let shard = assignment[i];
                let run = &mut pending[shard];
                if !run.is_empty() && (run[0].algo_id != req.algo_id || run.len() >= BATCH_MAX) {
                    queues[shard].push(std::mem::take(run));
                }
                let job = job_at(i);
                let arrival = job.arrival;
                if emit_plan {
                    while steal_cursor < plan.steals.len()
                        && plan.steals[steal_cursor].at_index <= i
                    {
                        let s = &plan.steals[steal_cursor];
                        producer_tracer.record(
                            arrival,
                            EventKind::Steal {
                                job: s.job as u64,
                                algo: s.algo_id,
                                from: s.from,
                                to: s.to,
                            },
                        );
                        steal_cursor += 1;
                    }
                    let d = plan.decisions[i];
                    producer_tracer.record(
                        arrival,
                        EventKind::Dispatch {
                            job: i as u64,
                            algo: req.algo_id,
                            to: d.shard,
                            affinity: d.affinity,
                        },
                    );
                }
                producer_tracer.record(
                    arrival,
                    EventKind::Enqueue {
                        job: i as u64,
                        algo: req.algo_id,
                        to: shard as u32,
                    },
                );
                run.push(job);
            }
            if emit_plan {
                // the final drain epoch's steals trigger past the last
                // submission index
                let end = overload.map_or(SimTime::ZERO, |oc| {
                    arrival_time(&oc, workload, n - 1) + oc.interarrival
                });
                while steal_cursor < plan.steals.len() {
                    let s = &plan.steals[steal_cursor];
                    producer_tracer.record(
                        end,
                        EventKind::Steal {
                            job: s.job as u64,
                            algo: s.algo_id,
                            from: s.from,
                            to: s.to,
                        },
                    );
                    steal_cursor += 1;
                }
            }
            for (shard, run) in pending.into_iter().enumerate() {
                if !run.is_empty() {
                    queues[shard].push(run);
                }
                queues[shard].close();
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("engine worker panicked"))
                .collect()
        });

        let mut results = Assembly::new(n, collect);
        let mut shard_busy = Vec::with_capacity(workers);
        let mut stats = OsStats::default();
        let mut batches = 0u64;
        let mut coalesced = 0u64;
        let mut quota_exceeded: BTreeMap<usize, JobError> = BTreeMap::new();
        let mut fault_stats = FaultStats::default();
        let mut overload_stats = OverloadStats::default();
        let mut recovery_latency = TimeAccumulator::new();
        let mut shard_health = Vec::new();
        let mut shard_finish = Vec::with_capacity(workers);
        let mut shard_cp: Vec<Option<CoProcessor>> = Vec::with_capacity(workers);
        let mut shard_open = Vec::with_capacity(workers);
        let mut rejected: Vec<Job> = Vec::new();
        let mut trace_shards: Vec<TraceShard> = Vec::new();
        for outcome in outcomes {
            let outcome = outcome?;
            shard_busy.push(outcome.busy);
            if let Some(shard_trace) = outcome.trace {
                trace_shards.push(shard_trace);
            }
            stats.merge(&outcome.stats);
            batches += outcome.batches;
            coalesced += outcome.coalesced;
            fault_stats.merge(&outcome.faults);
            overload_stats.merge(&outcome.overload);
            recovery_latency.merge(&outcome.recovery_latency);
            shard_finish.push(outcome.finish);
            shard_cp.push(outcome.cp);
            shard_open.push(outcome.breaker_open);
            if overload.is_some() {
                shard_health.push(outcome.breaker_timeline);
            }
            rejected.extend(outcome.rejected);
            for r in outcome.results {
                results.land(r);
            }
        }
        // Quota drops happened at the producer, before any shard saw
        // the job: account them here so conservation covers them.
        for &(index, tenant, quota) in &quota_drops {
            overload_stats.submitted += 1;
            overload_stats.quota_exceeded += 1;
            quota_exceeded.insert(
                index,
                JobError::QuotaExceeded {
                    algo_id: requests[index].algo_id,
                    tenant,
                    quota,
                },
            );
        }
        let mut makespan =
            shard_busy
                .iter()
                .copied()
                .fold(SimTime::ZERO, |a, b| if b > a { b } else { a });
        let mut engine_tracer = Tracer::new(trace_cfg, ENGINE_SHARD);
        // shared drain buffer for the per-job redistribution and
        // rescue loops below — reused instead of a fresh Vec per job
        let mut details_buf: Vec<aaod_sim::DetailEvent> = Vec::new();
        if overload.is_some() {
            // Redistribution: jobs an open breaker bounced are
            // re-served in submission order on the healthy shard that
            // frees up first. A job whose deadline passed while it
            // waited — or with no healthy shard left — is shed.
            rejected.sort_by_key(|j| j.index);
            let golden = verify.then(aaod_algos::AlgorithmBank::standard);
            for job in rejected {
                let target = (0..workers)
                    .filter(|&s| !shard_open[s] && shard_cp[s].is_some())
                    .min_by_key(|&s| (shard_finish[s], s));
                let now = target.map_or(makespan, |s| shard_finish[s].max(job.arrival));
                let deadline = job.deadline.unwrap_or(SimTime::ZERO);
                let Some(s) = target.filter(|_| deadline > now) else {
                    overload_stats.shed += 1;
                    engine_tracer.record(
                        now,
                        EventKind::Shed {
                            job: job.index as u64,
                            algo: job.algo_id,
                        },
                    );
                    results.land(JobResult::dropped(
                        job.index,
                        JobError::Shed {
                            algo_id: job.algo_id,
                            deadline,
                            decided_at: now,
                        },
                    ));
                    continue;
                };
                let cp = shard_cp[s].as_mut().expect("candidate shard has a card");
                if !shard_algos[s].contains(&job.algo_id) {
                    // the healthy shard never hosted this function:
                    // bring-up install, same convention as pool start
                    cp.install(job.algo_id)?;
                    shard_algos[s].insert(job.algo_id);
                }
                let r = match cp.invoke(job.algo_id, &job.input) {
                    Ok((output, report)) => {
                        let t = report.total();
                        shard_finish[s] = now + t;
                        overload_stats.redistributed += 1;
                        if engine_tracer.enabled() {
                            cp.take_details_into(&mut details_buf);
                            engine_tracer.details(now, &details_buf);
                            engine_tracer.record(
                                now,
                                EventKind::Redistributed {
                                    job: job.index as u64,
                                    algo: job.algo_id,
                                    to: s as u32,
                                },
                            );
                        }
                        let hit = report.hit();
                        complete(&job, output, hit, t, now + t, golden.as_ref(), collect)?
                    }
                    Err(CoreError::Mcu(detail)) => {
                        fault_stats.failed_jobs += 1;
                        JobResult::dropped(
                            job.index,
                            JobError::Faulted {
                                algo_id: job.algo_id,
                                attempts: 0,
                                detail: detail.to_string(),
                            },
                        )
                    }
                    Err(other) => return Err(other),
                };
                tally(&mut overload_stats, &r);
                results.land(r);
            }
            // After redistribution every card is done: merge their
            // controller stats (deferred to here so redistributed
            // work is counted exactly once) and extend the makespan
            // to the slowest shard's clock, idle gaps included.
            for cp in shard_cp.into_iter().flatten() {
                stats.merge(&cp.stats());
            }
            makespan = shard_finish.iter().copied().fold(makespan, |a, b| a.max(b));
        }
        if faults.requeue && !results.failed.is_empty() {
            // Rescue pass: re-serve degraded jobs on a fresh spare card
            // once the pool has drained; the spare runs after the
            // pool, so its busy time extends the makespan serially. In
            // overload mode the rescue clock starts at the makespan: a
            // job whose deadline already passed is not rescued, and
            // one that finishes past it is deadline-missed.
            let mut spare = (self.factory)();
            if engine_tracer.enabled() {
                spare.set_trace(true);
            }
            let rescue_algos: BTreeSet<u16> =
                results.failed.values().map(|e| e.algo_id()).collect();
            for &algo in &rescue_algos {
                spare.install(algo)?;
            }
            if engine_tracer.enabled() {
                // spare bring-up is stamped at the rescue start
                spare.take_details_into(&mut details_buf);
                engine_tracer.details(makespan, &details_buf);
            }
            let golden = verify.then(aaod_algos::AlgorithmBank::standard);
            let mut rescue_busy = SimTime::ZERO;
            let indices: Vec<usize> = results.failed.keys().copied().collect();
            for index in indices {
                let job = job_at(index);
                let cursor = makespan + rescue_busy;
                if job.deadline.is_some_and(|d| d <= cursor) {
                    continue; // stays failed: no budget left
                }
                let Ok((output, report)) = spare.invoke(job.algo_id, &job.input) else {
                    continue; // stays degraded
                };
                let t = report.total();
                rescue_busy += t;
                let r = complete(
                    &job,
                    output,
                    report.hit(),
                    results.times[index] + t,
                    cursor + t,
                    golden.as_ref(),
                    collect,
                )?;
                let rescued = r.error.is_none();
                if engine_tracer.enabled() {
                    spare.take_details_into(&mut details_buf);
                    engine_tracer.details(cursor, &details_buf);
                    if rescued {
                        engine_tracer.record(
                            cursor,
                            EventKind::Requeued {
                                job: index as u64,
                                algo: job.algo_id,
                            },
                        );
                    }
                }
                if rescued {
                    fault_stats.requeues += 1;
                }
                if overload.is_some() {
                    overload_stats.faulted -= 1;
                    tally(&mut overload_stats, &r);
                }
                results.failed.remove(&index);
                results.land(r);
            }
            stats.merge(&spare.stats());
            makespan += rescue_busy;
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
        if overload.is_some() {
            overload_stats.check()?;
        }
        // Per-tenant outcome totals: classify every submission by its
        // terminal map. Only meaningful for overload runs over a
        // tenant-tagged workload.
        let mut tenants: Vec<TenantStats> = Vec::new();
        if overload.is_some() {
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
        }
        let input_bytes = requests.iter().map(|r| r.input_len as u64).sum();
        let trace = if trace_cfg.level == TraceLevel::Off {
            None
        } else {
            trace_shards.push(engine_tracer.finish());
            trace_shards.push(producer_tracer.finish());
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
            deadline_budget,
            shard_health,
            sojourn,
            trace,
        })
    }

    /// Resolves the per-job deadline budget. An absolute policy is
    /// returned as-is; a percentile policy calibrates on a scratch
    /// card: each distinct algorithm is installed and invoked twice
    /// with its first-seen input (the second, resident invocation
    /// estimates the steady-state service time), then the budget is
    /// `multiplier ×` the requested percentile of the per-request
    /// estimates. The scratch card is bring-up, not serving time —
    /// it contributes to no statistic.
    fn resolve_deadline_budget(
        &self,
        workload: &Workload,
        oc: OverloadConfig,
    ) -> Result<SimTime, CoreError> {
        match oc.deadline {
            DeadlinePolicy::Absolute(budget) => Ok(budget),
            DeadlinePolicy::Percentile { pct, multiplier } => {
                let requests = workload.requests();
                let mut first_input: BTreeMap<u16, Vec<u8>> = BTreeMap::new();
                for (i, req) in requests.iter().enumerate() {
                    first_input
                        .entry(req.algo_id)
                        .or_insert_with(|| workload.input(i));
                }
                let mut scratch = (self.factory)();
                let mut est: BTreeMap<u16, SimTime> = BTreeMap::new();
                for (&algo, input) in &first_input {
                    scratch.install(algo)?;
                    scratch.invoke(algo, input)?;
                    let (_, report) = scratch.invoke(algo, input)?;
                    est.insert(algo, report.total());
                }
                let mut samples: Vec<SimTime> = requests.iter().map(|r| est[&r.algo_id]).collect();
                samples.sort();
                // nearest-rank percentile over the sorted estimates
                let rank = ((pct / 100.0) * (samples.len() - 1) as f64).round() as usize;
                let base = samples[rank.min(samples.len() - 1)];
                let ps = (base.as_ps() as f64 * multiplier).round() as u64;
                Ok(SimTime::from_ps(ps.max(1)))
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    factory: &(dyn Fn() -> CoProcessor + Send + Sync),
    queue: &BoundedQueue,
    algos: &BTreeSet<u16>,
    verify: bool,
    collect: bool,
    faults: FaultConfig,
    overload: Option<OverloadConfig>,
    fairness: Option<&FairnessShare>,
    shard: u32,
    trace: TraceConfig,
    predict: Option<crate::predict::PredictConfig>,
) -> Result<WorkerOutcome, CoreError> {
    let mut predictor = predict.map(|p| crate::predict::PredictModel::new(p.ewma_shift));
    let mut driver = ShardDriver::new(
        factory(),
        Tracer::new(trace, shard),
        faults,
        overload,
        fairness,
        verify,
        collect,
    );
    for &algo in algos {
        driver.cp.install(algo)?;
    }
    // bring-up details (install-time ROM fetches, decompression, port
    // writes) are stamped at time zero: install is not serving time
    driver.flush_details(SimTime::ZERO);
    while let Some(batch) = queue.pop_batch() {
        let algo_id = batch[0].algo_id;
        driver.outcome.batches += 1;
        driver.outcome.coalesced += batch.len() as u64 - 1;
        if driver.tracer.enabled() {
            let ts = driver.clock();
            for job in &batch {
                driver.tracer.record(
                    ts,
                    EventKind::Dequeue {
                        job: job.index as u64,
                        algo: algo_id,
                    },
                );
            }
        }
        driver.serve_batch(batch)?;
        // the fault machinery interleaves serving and recovery, so
        // per-stage attribution is not available: what the batch left
        // buffered is stamped at the shard's clock after it
        driver.flush_details(driver.clock());
        // Online prefetch: feed the shard's (deterministic) batch
        // sequence into the model and pre-configure the predicted
        // next algorithm in the idle window after the batch. The
        // speculative configure charges `prefetch_time`, never the
        // request path, so modelled latency and outputs are
        // unchanged; only residency at the next miss differs.
        if let Some(model) = &mut predictor {
            model.observe(algo_id);
            if let Some(next) = model.predict() {
                if next != algo_id {
                    let before = driver.cp.stats().prefetches;
                    driver.cp.prefetch_hint(next);
                    if driver.tracer.enabled() && driver.cp.stats().prefetches > before {
                        driver
                            .tracer
                            .record(driver.clock(), EventKind::Prefetch { algo: next, shard });
                    }
                }
            }
        }
    }
    // A prefetch fired after the final batch leaves its details
    // (evictions, cache outcomes, port writes) buffered; drain them so
    // the trace's eviction count stays in lock-step with the ledger.
    if predictor.is_some() {
        driver.flush_details(driver.outcome.busy);
    }
    driver.drain()?;
    driver.flush_details(driver.clock().max(driver.outcome.busy));
    Ok(driver.finish())
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

/// An admission decision for one popped job.
enum Admission {
    /// Serve it.
    Serve,
    /// Deadline already passed at the decision time: drop unserved.
    Shed { decided_at: SimTime },
    /// The shard's breaker is open: hand the job back to the engine
    /// for redistribution.
    Bounce,
}

/// Per-shard driver, the one serving path of every shard. It owns the
/// shard's card, trace stream and results. It serves each maximal
/// fault-free run as one batch, activates the faults the plan
/// schedules, detects corruption at the next use of the faulted
/// function, and runs the backoff→repair→retry recovery loop, all in
/// modelled time. A fault-free run is a zero-rate plan. With the
/// overload layer on it additionally runs admission control, the
/// breaker, latency-fault injection and the watchdog.
struct ShardDriver {
    cp: CoProcessor,
    tracer: Tracer,
    /// The shard's results so far.
    outcome: WorkerOutcome,
    /// Golden software model when verifying outputs.
    golden: Option<aaod_algos::AlgorithmBank>,
    /// Keep output bytes.
    collect: bool,
    /// Detail drain buffer, reused across drains instead of a fresh
    /// `Vec` each time.
    details: Vec<aaod_sim::DetailEvent>,
    cfg: FaultConfig,
    /// Latent (activated, not yet detected) fault per function.
    outstanding: BTreeMap<u16, FaultSite>,
    /// Functions whose fault exhausted its retry budget; their
    /// corruption persists, so later jobs degrade without burning
    /// more retries.
    poisoned: BTreeSet<u16>,
    /// Overload layer; `None` keeps the closed-loop behaviour.
    overload: Option<OverloadState>,
    /// Breaker timeline entries already emitted to the trace (the
    /// initial closed state is never an event).
    breaker_emitted: usize,
}

impl ShardDriver {
    fn new(
        mut cp: CoProcessor,
        tracer: Tracer,
        cfg: FaultConfig,
        overload: Option<OverloadConfig>,
        fairness: Option<&FairnessShare>,
        verify: bool,
        collect: bool,
    ) -> Self {
        if tracer.enabled() {
            cp.set_trace(true);
        }
        ShardDriver {
            cp,
            tracer,
            outcome: WorkerOutcome::default(),
            golden: verify.then(aaod_algos::AlgorithmBank::standard),
            collect,
            details: Vec::new(),
            cfg,
            outstanding: BTreeMap::new(),
            poisoned: BTreeSet::new(),
            overload: overload.map(|oc| OverloadState {
                cfg: oc,
                clock: SimTime::ZERO,
                breaker: CircuitBreaker::new(oc.breaker),
                stats: OverloadStats::default(),
                lost_stats: OsStats::default(),
                fairness: fairness.map(|share| FairnessState {
                    admitted: vec![0; share.weights.len()],
                    admitted_total: 0,
                    share: share.clone(),
                }),
            }),
            breaker_emitted: 1,
        }
    }

    /// The shard's modelled clock: the overload layer's wall clock
    /// (service plus idle gaps waiting for arrivals), or the
    /// cumulative busy time of a closed-loop shard. A job starts at
    /// `clock().max(arrival)`; closed-loop arrivals are all zero.
    fn clock(&self) -> SimTime {
        self.overload
            .as_ref()
            .map_or(self.outcome.busy, |ov| ov.clock)
    }

    /// Moves the card's buffered details into the trace, stamped at
    /// `ts`.
    fn flush_details(&mut self, ts: SimTime) {
        if self.tracer.enabled() {
            self.cp.take_details_into(&mut self.details);
            self.tracer.details(ts, &self.details);
        }
    }

    /// Hands the shard's results back to the engine.
    fn finish(self) -> WorkerOutcome {
        let mut outcome = self.outcome;
        match self.overload {
            Some(ov) => {
                // Overload mode: the card travels back to the engine
                // so redistribution can re-serve bounced jobs on it,
                // and its controller stats are merged there (exactly
                // once). Here we only carry what watchdog resets
                // zeroed away, plus the breaker's final tallies.
                outcome.overload = ov.stats;
                outcome.overload.breaker_trips = ov.breaker.trips();
                outcome.overload.breaker_rejections = ov.breaker.rejections();
                outcome.overload.probes = ov.breaker.probes();
                outcome.finish = ov.clock;
                outcome.breaker_open = ov.breaker.is_open();
                outcome.breaker_timeline = ov.breaker.timeline().to_vec();
                outcome.stats = ov.lost_stats;
                outcome.cp = Some(self.cp);
            }
            None => outcome.stats = self.cp.stats(),
        }
        if self.tracer.enabled() {
            outcome.trace = Some(self.tracer.finish());
        }
        outcome
    }

    /// Emits any breaker transitions recorded since the last sync.
    /// Called right after every breaker interaction so the shard
    /// stream stays time-ordered; `floor` lifts back-dated
    /// transitions (a probe's success closes the breaker at the
    /// probe's *admission* time) up to the observation point — the
    /// faithful back-dated times stay in the `shard_health` timeline.
    fn sync_breaker(&mut self, floor: SimTime) {
        let Some(ov) = &self.overload else {
            return;
        };
        let timeline = ov.breaker.timeline();
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

    /// The latency fault (if any) the plan schedules for `index`.
    /// Latency faults only fire through the overload layer.
    fn latency_for(&self, index: usize) -> Option<LatencySite> {
        self.overload
            .as_ref()
            .and_then(|_| self.cfg.plan.decide_latency(index as u64))
    }

    /// Admission control for one popped job: counts the submission and
    /// decides serve / shed / bounce at the shard's current clock.
    fn admit(&mut self, job: &Job) -> Admission {
        let Some(ov) = &mut self.overload else {
            return Admission::Serve;
        };
        ov.stats.submitted += 1;
        let now = ov.clock.max(job.arrival);
        let deadline = job.deadline.expect("overload jobs carry deadlines");
        if deadline <= now {
            ov.stats.shed += 1;
            return Admission::Shed { decided_at: now };
        }
        if ov.fair_shed_decision(job) {
            ov.stats.shed += 1;
            ov.stats.fair_shed += 1;
            return Admission::Shed { decided_at: now };
        }
        if !ov.breaker.allow(now) {
            return Admission::Bounce;
        }
        ov.note_admitted(job);
        Admission::Serve
    }

    /// Marks the faults scheduled against an unserved (shed or
    /// bounced) job as inert: they never got a card to land on.
    fn mark_unserved_inert(&mut self, index: usize, ts: SimTime) {
        if let Some(site) = self.cfg.plan.decide(index as u64) {
            self.outcome.faults.inert += 1;
            self.tracer.record(
                ts,
                EventKind::FaultInert {
                    kind: fault_kind(site),
                },
            );
        }
        if let Some(site) = self.cfg.plan.decide_latency(index as u64) {
            if let Some(ov) = &mut self.overload {
                ov.stats.latency_inert += 1;
                self.tracer.record(
                    ts,
                    EventKind::FaultInert {
                        kind: latency_kind(site),
                    },
                );
            }
        }
    }

    fn serve_batch(&mut self, batch: Vec<Job>) -> Result<(), CoreError> {
        let algo_id = batch[0].algo_id;
        let mut jobs = batch.into_iter().peekable();
        while let Some(job) = jobs.next() {
            let admission = self.admit(&job);
            self.sync_breaker(SimTime::ZERO);
            match admission {
                Admission::Serve => {}
                Admission::Shed { decided_at } => {
                    self.tracer.record(
                        decided_at,
                        EventKind::Shed {
                            job: job.index as u64,
                            algo: algo_id,
                        },
                    );
                    self.mark_unserved_inert(job.index, decided_at);
                    self.outcome.results.push(JobResult::dropped(
                        job.index,
                        JobError::Shed {
                            algo_id,
                            deadline: job.deadline.unwrap_or(SimTime::ZERO),
                            decided_at,
                        },
                    ));
                    continue;
                }
                Admission::Bounce => {
                    let now = self.clock().max(job.arrival);
                    self.tracer.record(
                        now,
                        EventKind::Bounced {
                            job: job.index as u64,
                            algo: algo_id,
                        },
                    );
                    self.mark_unserved_inert(job.index, now);
                    self.outcome.rejected.push(job);
                    continue;
                }
            }
            let scheduled = self.cfg.plan.decide(job.index as u64);
            let latency = self.latency_for(job.index);
            if scheduled.is_some() || latency.is_some() || !self.algo_clean(algo_id) {
                self.serve_one(&job, scheduled, latency)?;
                continue;
            }
            // Maximal fault-free run: serve it as one batch. In
            // overload mode the whole run is admitted at the current
            // clock, so only jobs that would pass admission now may
            // ride along; their own deadlines are still checked at
            // completion.
            let mut run = vec![job];
            while let Some(next) = jobs.peek() {
                let clean = self.cfg.plan.decide(next.index as u64).is_none()
                    && self.latency_for(next.index).is_none();
                let admissible = match &self.overload {
                    None => true,
                    Some(ov) => {
                        next.deadline.expect("overload jobs carry deadlines")
                            > ov.clock.max(next.arrival)
                            && !ov.fair_shed_decision(next)
                    }
                };
                if !(clean && admissible) {
                    break;
                }
                let next = jobs.next().expect("peeked");
                if let Some(ov) = &mut self.overload {
                    ov.stats.submitted += 1;
                    ov.note_admitted(&next);
                }
                run.push(next);
            }
            let inputs: Vec<&[u8]> = run.iter().map(|j| j.input.as_slice()).collect();
            let served = self.cp.invoke_batch(algo_id, &inputs)?;
            if self.overload.is_none() {
                // a closed-loop run's details are stamped at its start
                self.flush_details(self.outcome.busy);
            }
            for (job, (output, report)) in run.iter().zip(served) {
                let start = self.clock().max(job.arrival);
                let time = report.total();
                self.outcome.busy += time;
                if self.tracer.enabled() {
                    trace_clean_stages(&mut self.tracer, start, job.index, algo_id, &report);
                }
                self.finish_served(job, Ok((output, report.hit())), start, time)?;
            }
        }
        Ok(())
    }

    /// Lands a job served from `start` for `time` in its terminal
    /// state: a degraded job stays faulted, any other is classified by
    /// [`complete`]. In overload mode it also advances the shard clock
    /// and drives the breaker.
    fn finish_served(
        &mut self,
        job: &Job,
        served: Result<(Vec<u8>, bool), JobError>,
        start: SimTime,
        time: SimTime,
    ) -> Result<(), CoreError> {
        let finish = start + time;
        let result = match served {
            Ok((output, hit)) => {
                let golden = self.golden.as_ref();
                complete(job, output, hit, time, finish, golden, self.collect)?
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
        if let Some(ov) = &mut self.overload {
            ov.clock = finish;
            tally(&mut ov.stats, &result);
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
        self.sync_breaker(finish);
        Ok(())
    }

    /// Serves one job with the fault machinery engaged: arms a
    /// scheduled PCI abort and any scheduled latency fault, runs the
    /// detect→backoff→repair→retry loop (preceded by a watchdog reset
    /// for a stuck card), and lands any scheduled post-job corruption.
    fn serve_one(
        &mut self,
        job: &Job,
        scheduled: Option<FaultSite>,
        latency: Option<LatencySite>,
    ) -> Result<(), CoreError> {
        let algo_id = job.algo_id;
        let mut job_time = SimTime::ZERO;
        // The job's modelled start: the shard clock (overload) or its
        // cumulative busy time (closed loop). Recovery spans are laid
        // from a cursor advancing from here.
        let t0 = self.clock().max(job.arrival);
        self.tracer.record(
            t0,
            EventKind::JobOpen {
                job: job.index as u64,
                algo: algo_id,
            },
        );
        let mut cursor = t0;
        if latency == Some(LatencySite::StuckCard) {
            // The card hangs mid-stream: it burns the full watchdog
            // timeout before the missed heartbeats fire a reset, then
            // the job is served from a cold card (the reset erased
            // every frame and the decoded cache; the ROM survives).
            // Snapshot the controller stats first — the reset zeroes
            // them, and that work must stay counted.
            let t_reset = {
                let ov = self.overload.as_mut().expect("latency implies overload");
                ov.lost_stats.merge(&self.cp.stats());
                let timeout = ov.cfg.watchdog.timeout();
                let t_reset = self.cp.os_mut().reset();
                ov.stats.stuck_injected += 1;
                ov.stats.watchdog_resets += 1;
                ov.stats.wasted_time += timeout + t_reset;
                job_time += timeout + t_reset;
                timeout + t_reset
            };
            self.tracer.record(
                cursor,
                EventKind::FaultInjected {
                    kind: FaultKind::StuckCard,
                },
            );
            self.tracer.record(
                cursor,
                EventKind::WatchdogReset {
                    job: job.index as u64,
                },
            );
            self.tracer
                .span(cursor, t_reset, job.index as u64, Stage::Reset, algo_id);
            cursor += t_reset;
            self.outcome.recovery_latency.push(t_reset);
            // The wiped fabric dissolved any latent frame faults; the
            // scheduled ROM faults survive (ROM is off-fabric).
            let frame_faults = self.outstanding_at(&FRAME_SITES);
            for id in frame_faults {
                self.outstanding.remove(&id);
                self.outcome.faults.evict_cleared += 1;
                self.tracer.record(
                    cursor,
                    EventKind::FaultRepair {
                        kind: RepairKind::EvictClear,
                    },
                );
            }
        }
        let stall0 = self.cp.stats().config_stall_time;
        match latency {
            Some(LatencySite::StallConfig) => {
                self.cp
                    .os_mut()
                    .arm_config_stall(self.cfg.plan.latency().stall_cycles);
            }
            Some(LatencySite::SlowPci) => {
                // Input write + output read: both transfers crawl.
                self.cp
                    .bus_mut()
                    .arm_slow_transfers(2, self.cfg.plan.latency().slow_factor);
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
        let mut attempts = 0u32;
        let mut recovery_elapsed = SimTime::ZERO;
        let verdict = loop {
            match self.cp.invoke(algo_id, &job.input) {
                Ok((output, report)) => {
                    job_time += report.total();
                    if attempts > 0 {
                        self.outcome.recovery_latency.push(recovery_elapsed);
                    }
                    // a repaired (formerly poisoned) function serves
                    // again
                    self.poisoned.remove(&algo_id);
                    break Ok((output, report.hit()));
                }
                Err(CoreError::Mcu(detail)) => {
                    let Some(site) = self.outstanding.get(&algo_id).copied() else {
                        // Corruption persisting from an exhausted
                        // fault: degrade without burning retries.
                        break Err(JobError::Faulted {
                            algo_id,
                            attempts,
                            detail: detail.to_string(),
                        });
                    };
                    if attempts == 0 {
                        self.outcome.faults.detected += 1;
                    }
                    if attempts >= self.cfg.max_retries {
                        self.outcome.faults.faults_failed += 1;
                        self.outstanding.remove(&algo_id);
                        self.poisoned.insert(algo_id);
                        self.tracer.record(
                            cursor,
                            EventKind::FaultFailed {
                                job: job.index as u64,
                                algo: algo_id,
                            },
                        );
                        break Err(JobError::Faulted {
                            algo_id,
                            attempts,
                            detail: detail.to_string(),
                        });
                    }
                    attempts += 1;
                    self.outcome.faults.retries += 1;
                    self.tracer.record(
                        cursor,
                        EventKind::Retry {
                            job: job.index as u64,
                            attempt: attempts,
                        },
                    );
                    let backoff = self.cfg.backoff * (1u64 << (attempts - 1).min(20));
                    self.tracer
                        .span(cursor, backoff, job.index as u64, Stage::Backoff, algo_id);
                    let repair = self.repair(algo_id, site, cursor + backoff)?;
                    self.tracer.span(
                        cursor + backoff,
                        repair,
                        job.index as u64,
                        Stage::Repair,
                        algo_id,
                    );
                    job_time += backoff + repair;
                    recovery_elapsed += backoff + repair;
                    cursor += backoff + repair;
                }
                Err(other) => return Err(other),
            }
        };
        let pci1 = self.cp.pci_stats();
        let transient_fired = pci1.faulted_transfers > pci0.faulted_transfers;
        if transient_fired {
            let wasted =
                self.cp.bus().config().clock.period() * (pci1.wasted_cycles - pci0.wasted_cycles);
            self.outcome
                .faults
                .record_activated(FaultSite::PciTransient);
            self.outcome.faults.pci_retried += 1;
            self.outcome.recovery_latency.push(wasted);
            if verdict.is_err() {
                // a successful attempt folds the wasted bus time into
                // its report; a degraded job still burned it
                job_time += wasted;
            }
            self.tracer.record(
                t0 + job_time,
                EventKind::FaultInjected {
                    kind: FaultKind::PciTransient,
                },
            );
            self.tracer.record(
                t0 + job_time,
                EventKind::FaultRepair {
                    kind: RepairKind::PciRetry,
                },
            );
        }
        match latency {
            Some(LatencySite::StallConfig) => {
                let ov = self.overload.as_mut().expect("latency implies overload");
                if self.cp.os().armed_config_stall() > 0 {
                    // the job was a residency hit: the stall never got
                    // a reconfiguration to hang
                    self.cp.os_mut().disarm_config_stall();
                    ov.stats.latency_inert += 1;
                    self.tracer.record(
                        t0 + job_time,
                        EventKind::FaultInert {
                            kind: FaultKind::Stall,
                        },
                    );
                } else {
                    ov.stats.stalls_injected += 1;
                    ov.stats.wasted_time +=
                        self.cp.stats().config_stall_time.saturating_sub(stall0);
                    self.tracer.record(
                        t0 + job_time,
                        EventKind::FaultInjected {
                            kind: FaultKind::Stall,
                        },
                    );
                }
            }
            Some(LatencySite::SlowPci) => {
                self.cp.bus_mut().disarm_slow();
                let ov = self.overload.as_mut().expect("latency implies overload");
                if pci1.slowed_transfers > pci0.slowed_transfers {
                    ov.stats.slow_transfers_injected += 1;
                    if !transient_fired {
                        // the slow transfers' extra cycles are the
                        // whole wasted delta; with a transient on the
                        // same job the delta is already attributed to
                        // the retry above
                        ov.stats.wasted_time += self.cp.bus().config().clock.period()
                            * (pci1.wasted_cycles - pci0.wasted_cycles);
                    }
                    self.tracer.record(
                        t0 + job_time,
                        EventKind::FaultInjected {
                            kind: FaultKind::SlowPci,
                        },
                    );
                } else {
                    // no fallible transfer ran (e.g. an empty input on
                    // a zero-transfer path): nothing to slow down
                    ov.stats.latency_inert += 1;
                    self.tracer.record(
                        t0 + job_time,
                        EventKind::FaultInert {
                            kind: FaultKind::SlowPci,
                        },
                    );
                }
            }
            Some(LatencySite::StuckCard) | None => {}
        }
        if let Some(
            site @ (FaultSite::FrameBitFlip | FaultSite::TornConfig | FaultSite::RomPayload),
        ) = scheduled
        {
            // Post-job injection: corrupt only a healthy, singly
            // faulted function so every activated fault has one
            // unambiguous resolution.
            let landed = verdict.is_ok() && self.algo_clean(algo_id) && {
                let mut rng = self.cfg.plan.rng_for(job.index as u64);
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
                self.tracer.record(
                    t0 + job_time,
                    EventKind::FaultInjected {
                        kind: fault_kind(site),
                    },
                );
            } else {
                self.outcome.faults.inert += 1;
                self.tracer.record(
                    t0 + job_time,
                    EventKind::FaultInert {
                        kind: fault_kind(site),
                    },
                );
            }
        }
        self.outcome.busy += job_time;
        self.finish_served(job, verdict, t0, job_time)
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
                        self.outcome.faults.scrubbed += 1;
                        self.tracer.record(
                            at,
                            EventKind::FaultRepair {
                                kind: RepairKind::Scrub,
                            },
                        );
                    }
                }
                // if the target dodged the scrub, an eviction already
                // erased the corrupt frames
                if self.outstanding.remove(&algo_id).is_some() {
                    self.outcome.faults.evict_cleared += 1;
                    self.tracer.record(
                        at,
                        EventKind::FaultRepair {
                            kind: RepairKind::EvictClear,
                        },
                    );
                }
                Ok(report.time)
            }
            FaultSite::RomPayload => {
                let t = self.cp.os_mut().redownload(algo_id)?;
                self.outstanding.remove(&algo_id);
                self.outcome.faults.redownloads += 1;
                self.tracer.record(
                    at,
                    EventKind::FaultRepair {
                        kind: RepairKind::Redownload,
                    },
                );
                Ok(t)
            }
            // PCI aborts recover at the driver, never via repair.
            FaultSite::PciTransient => unreachable!("transients are never outstanding"),
        }
    }

    /// Post-run sweep: repair latent faults the workload never
    /// touched again, so no corruption outlives the run.
    fn drain(&mut self) -> Result<(), CoreError> {
        // In overload mode the shard stream is stamped on the shard
        // clock (>= busy); the sweep stamps at whichever is later so
        // the stream stays time-ordered.
        let frame_faults = self.outstanding_at(&FRAME_SITES);
        if !frame_faults.is_empty() {
            let report = self.cp.scrub()?;
            self.outcome.busy += report.time;
            for id in frame_faults {
                self.outstanding.remove(&id);
                let kind = if report.repaired.contains(&id) {
                    self.outcome.faults.scrubbed += 1;
                    RepairKind::Scrub
                } else {
                    // a policy eviction erased the corrupt frames
                    // before the sweep got here
                    self.outcome.faults.evict_cleared += 1;
                    RepairKind::EvictClear
                };
                self.tracer.record(
                    self.clock().max(self.outcome.busy),
                    EventKind::FaultRepair { kind },
                );
            }
        }
        let rom_faults = self.outstanding_at(&[FaultSite::RomPayload]);
        if !rom_faults.is_empty() {
            let (_corrupt, patrol_time) = self.cp.os_mut().rom_patrol();
            self.outcome.busy += patrol_time;
            for id in rom_faults {
                self.outstanding.remove(&id);
                let t = self.cp.os_mut().redownload(id)?;
                self.outcome.busy += t;
                self.outcome.faults.redownloads += 1;
                self.tracer.record(
                    self.clock().max(self.outcome.busy),
                    EventKind::FaultRepair {
                        kind: RepairKind::Redownload,
                    },
                );
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
    }

    #[test]
    fn empty_workload_is_empty_result() {
        let w = Workload::from_trace(std::iter::empty::<u16>(), 8);
        let r = Engine::new(EngineConfig::default()).serve(&w).unwrap();
        assert_eq!(r.requests, 0);
        assert!(r.makespan.is_zero());
        assert_eq!(r.speedup(), 0.0);
        assert_eq!(r.outputs.unwrap().len(), 0);
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
    /// must mirror `OverloadStats` exactly.
    #[test]
    fn overload_trace_counters_reconcile_with_overload_stats() {
        use crate::breaker::BreakerConfig;
        use crate::overload::WatchdogConfig;
        use aaod_sim::{FaultPlan, FaultRates, LatencyRates};
        let w = Workload::zipf(&FIT_SET, 200, 1.1, 48, 31);
        let plan = FaultPlan::new(0x0D10AD, FaultRates::uniform(0.03))
            .with_latency(LatencyRates::uniform(0.04));
        let oc = OverloadConfig {
            interarrival: SimTime::from_us(50),
            deadline: DeadlinePolicy::Percentile {
                pct: 95.0,
                multiplier: 200.0,
            },
            watchdog: WatchdogConfig::default(),
            breaker: BreakerConfig::default(),
            fairness: None,
        };
        let r = Engine::new(EngineConfig {
            workers: 3,
            verify: true,
            overload: Some(oc),
            faults: Some(FaultConfig::new(plan)),
            trace: TraceConfig::full(),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        assert!(r.overload.accounted());
        let c = &r.trace.as_ref().unwrap().metrics.counters;
        assert_eq!(c.enqueued, 200);
        assert_eq!(c.dequeued, 200);
        assert_eq!(c.shed, r.overload.shed);
        assert_eq!(c.watchdog_resets, r.overload.watchdog_resets);
        assert_eq!(c.redistributed, r.overload.redistributed);
        assert_eq!(c.breaker_trips, r.overload.breaker_trips);
        assert_eq!(c.bounced, r.overload.breaker_rejections);
        assert_eq!(c.jobs_deadline_missed, r.overload.deadline_missed);
        assert_eq!(c.requeued, r.faults.requeues);
        // Latency-fault activations surface as FaultInjected events
        // alongside the corruption ones.
        assert_eq!(
            c.faults_injected,
            r.faults.injected
                + r.overload.stalls_injected
                + r.overload.slow_transfers_injected
                + r.overload.stuck_injected
        );
        assert_eq!(c.faults_inert, r.faults.inert + r.overload.latency_inert);
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

    /// A tenant quota drops excess submissions at the producer:
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
    /// and overload modes alike.
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
        for (label, cfg) in [("clean", clean), ("chaos", chaos), ("overload", overload)] {
            let r = Engine::new(cfg).serve(&w).unwrap();
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
