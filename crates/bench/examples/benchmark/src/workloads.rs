//! The five workloads: how each is generated from the seed, which
//! system serves it, what a rep measures on it, and the checks that
//! make a rep prove something.

use aaod_algos::{ids, AlgorithmBank};
use aaod_core::{
    Cluster, ClusterConfig, ClusterResult, CoProcessor, DeadlinePolicy, Engine, EngineConfig,
    EngineResult, FairnessConfig, FaultConfig, JobError, MetricsRegistry, OverloadConfig,
    ShardPolicy, TraceConfig, WatchdogConfig,
};
use aaod_pci::PciStats;
use aaod_sim::stats::TimeAccumulator;
use aaod_sim::{CardFaultRates, ClusterFaultPlan, FaultPlan, FaultRates, LatencyRates, SimTime};
use aaod_workload::{mixes, TenantSpec, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ZipfCard,
    DspChurn,
    HotEngine,
    OverloadChaos,
    FleetChaos,
}

/// Salts that derive the fault schedules' seeds from `--seed`, so one
/// seed drives every generator without the schedules sharing a stream
/// with the request mix.
const FAULT_SALT: u64 = 0x0BE7_C4A0_5FA1_7500;
const FLEET_SALT: u64 = 0x0BE7_F1EE_7C4A_0500;

/// Modelled gap between open-loop arrivals on `overload_chaos`. With the
/// flood tenant and the stuck-card episodes about one request in six is
/// refused (goodput ≈0.83); a tighter gap pushes goodput toward 0.5 but
/// makes it swing by ±7% from seed to seed instead of ±2%.
const OVERLOAD_INTERARRIVAL: SimTime = SimTime::from_us(60);
/// Absolute per-request deadline on `overload_chaos`.
const OVERLOAD_DEADLINE: SimTime = SimTime::from_ms(2);
/// Modelled gap between arrivals at the fleet router (the cluster
/// default); the kill lands at 30% of `N × FLEET_INTERARRIVAL`.
const FLEET_INTERARRIVAL: SimTime = SimTime::from_us(2);

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::ZipfCard,
        Kind::DspChurn,
        Kind::HotEngine,
        Kind::OverloadChaos,
        Kind::FleetChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ZipfCard => "zipf_card",
            Kind::DspChurn => "dsp_churn",
            Kind::HotEngine => "hot_engine",
            Kind::OverloadChaos => "overload_chaos",
            Kind::FleetChaos => "fleet_chaos",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Served one request at a time on a single card (the rest go
    /// through one batch `serve` call).
    pub fn is_card(self) -> bool {
        matches!(self, Kind::ZipfCard | Kind::DspChurn)
    }

    /// Requests per rep, calibrated once on the reference machine (2
    /// vCPU x86-64) and then frozen: changing N changes every number, so
    /// it is a benchmark change of its own. A card or cluster rep serves
    /// for about 2 s. The 2-worker engines vary most from rep to rep on
    /// a shared host, so their reps are 1 s or shorter, to fit more reps,
    /// and so more chances at an undisturbed one, into a run.
    pub fn n(self, smoke: bool) -> usize {
        let n = match self {
            Kind::ZipfCard => 60_000,
            Kind::DspChurn => 9_000,
            Kind::HotEngine => 50_000,
            Kind::OverloadChaos => 50_000,
            Kind::FleetChaos => 12_000,
        };
        if smoke {
            n / 20
        } else {
            n
        }
    }

    /// The bank the workload's kernels come from (also the software
    /// oracle outputs are checked against).
    pub fn bank(self) -> AlgorithmBank {
        match self {
            Kind::DspChurn => AlgorithmBank::extended(),
            _ => AlgorithmBank::standard(),
        }
    }

    /// The request stream: `--seed` drives every generator.
    pub fn generate(self, n: usize, seed: u64) -> Workload {
        match self {
            Kind::ZipfCard => Workload::zipf(&mixes::full_bank(), n, 1.1, 256, seed),
            Kind::DspChurn => mixes::kernel_workload(n, seed),
            Kind::HotEngine => mixes::straggler_workload(n, seed),
            Kind::OverloadChaos => {
                let tenant = |name: &str, algos: &[u16], weight: u32, offered: u32| TenantSpec {
                    name: name.into(),
                    algos: algos.to_vec(),
                    weight,
                    offered,
                    input_len: 256,
                    quota: None,
                };
                // Twelve of the 13 standard kernels. TDES costs ~100x
                // the host time of any other kernel, and which shard
                // Balanced's greedy partition gives it turns on a
                // near-tie the seed decides: with TDES, host throughput
                // split the seeds into two clusters 20% apart.
                Workload::multi_tenant(
                    &[
                        tenant("gateway", &[ids::AES128, ids::HMAC_SHA1, ids::XTEA], 4, 4),
                        tenant("telemetry", &[ids::SHA1, ids::SHA256, ids::CRC32], 2, 2),
                        // offers 6x its weighted share
                        tenant(
                            "flood",
                            &[
                                ids::CRC8,
                                ids::ADDER8,
                                ids::POPCNT8,
                                ids::PARITY8,
                                ids::FIR,
                                ids::MATMUL8,
                            ],
                            1,
                            6,
                        ),
                    ],
                    n,
                    seed,
                )
            }
            Kind::FleetChaos => mixes::fleet_workload(n, seed),
        }
    }

    /// Set-up: everything built before the first request is served.
    /// `traced` turns the program's own counters-level tracing on.
    pub fn build(self, w: &Workload, seed: u64, traced: bool) -> Result<System, String> {
        let trace = if traced {
            TraceConfig::counters()
        } else {
            TraceConfig::off()
        };
        Ok(match self {
            Kind::ZipfCard | Kind::DspChurn => {
                let algos: &[u16] = if self == Kind::ZipfCard {
                    &ids::ALL
                } else {
                    &ids::DSP_AI
                };
                System::Card(Box::new(installed_card(self.bank(), algos)?))
            }
            Kind::HotEngine => System::Engine(Engine::new(EngineConfig {
                workers: 2,
                shard: ShardPolicy::Dynamic,
                trace,
                ..EngineConfig::default()
            })),
            Kind::OverloadChaos => {
                let plan = FaultPlan::new(seed ^ FAULT_SALT, FaultRates::uniform(0.005 / 4.0))
                    .with_latency(LatencyRates::uniform(0.01 / 3.0));
                System::Engine(Engine::new(EngineConfig {
                    workers: 2,
                    shard: ShardPolicy::Balanced,
                    faults: Some(FaultConfig::new(plan)),
                    overload: Some(OverloadConfig {
                        interarrival: OVERLOAD_INTERARRIVAL,
                        deadline: DeadlinePolicy::Absolute(OVERLOAD_DEADLINE),
                        // a watchdog timeout well inside the deadline,
                        // so a reset job can still finish in time
                        watchdog: WatchdogConfig {
                            heartbeat: SimTime::from_us(100),
                            missed_beats: 3,
                        },
                        fairness: Some(FairnessConfig::default()),
                        ..OverloadConfig::default()
                    }),
                    trace,
                    ..EngineConfig::default()
                }))
            }
            Kind::FleetChaos => {
                let horizon = FLEET_INTERARRIVAL * w.len().max(1) as u64;
                let plan = ClusterFaultPlan::new(seed ^ FLEET_SALT, CardFaultRates::ZERO, horizon)
                    .with_kill(1, 0.30);
                let seu = FaultRates {
                    frame_bit_flip: 0.005,
                    ..FaultRates::ZERO
                };
                System::Cluster(
                    Cluster::new(ClusterConfig {
                        cards: 4,
                        replication: 2,
                        card_workers: 1,
                        interarrival: FLEET_INTERARRIVAL,
                        plan: Some(plan),
                        card_faults: Some(FaultConfig::new(FaultPlan::new(seed ^ FAULT_SALT, seu))),
                        trace,
                        ..ClusterConfig::default()
                    }),
                    self.bank(),
                )
            }
        })
    }
}

/// A card with `bank` and every id of `algos` downloaded into ROM.
pub fn installed_card(bank: AlgorithmBank, algos: &[u16]) -> Result<CoProcessor, String> {
    let mut cp = CoProcessor::builder().bank(bank).build();
    for &id in algos {
        cp.install(id).map_err(|e| format!("install {id}: {e}"))?;
    }
    Ok(cp)
}

/// The system under test, as set up for one rep.
pub enum System {
    Card(Box<CoProcessor>),
    Engine(Engine),
    Cluster(Cluster, AlgorithmBank),
}

/// How one request ended. Refusals are outcomes the model decides
/// (admission shed, missed deadline, exhausted fault recovery, lost
/// card): they are counted by `goodput`, not as failed operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// FNV-1a hash of the output bytes.
    Output(u64),
    Refused(Refusal),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    Shed,
    DeadlineMissed,
    Faulted,
    Lost,
    Quota,
}

fn refusal(e: &JobError) -> Refusal {
    match e {
        JobError::Shed { .. } => Refusal::Shed,
        JobError::DeadlineExceeded { .. } => Refusal::DeadlineMissed,
        JobError::Faulted { .. } => Refusal::Faulted,
        JobError::CardLost { .. } | JobError::NoReplica { .. } => Refusal::Lost,
        JobError::QuotaExceeded { .. } => Refusal::Quota,
    }
}

/// Modelled numbers of one rep: deterministic for a seed, so every rep
/// of a set must report them bit-identically.
pub type Model = BTreeMap<&'static str, f64>;

/// What one serve of the whole stream observed.
pub struct Served {
    /// Host seconds spent serving (card: sum of request latencies;
    /// engine/cluster: the one `serve` call).
    pub serve_s: f64,
    /// Host-clock start and end of serving.
    pub window: (Instant, Instant),
    /// Host latency of each request in ns. A batch `serve` call hands
    /// every result back at once, so there each request's latency is
    /// the call's wall time.
    pub req_ns: Vec<u64>,
    pub outcomes: Vec<Outcome>,
    pub model: Model,
    /// The program's own counters-level registry, when it traced.
    pub registry: Option<MetricsRegistry>,
    /// Non-vacuity and ledger failures.
    pub errors: Vec<String>,
}

/// FNV-1a, 64-bit: the output fingerprint the digests are built from.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Serves the whole stream once through the system's public entry
/// point.
pub fn serve(kind: Kind, system: &mut System, w: &Workload) -> Result<Served, String> {
    let mut served = match system {
        System::Card(cp) => serve_card(cp, w)?,
        System::Engine(engine) => {
            let t0 = Instant::now();
            let r = engine.serve(w).map_err(|e| format!("engine serve: {e}"))?;
            engine_served(r, w.len(), (t0, Instant::now()))
        }
        System::Cluster(cluster, bank) => {
            let t0 = Instant::now();
            let r = cluster
                .serve(w, bank)
                .map_err(|e| format!("cluster serve: {e}"))?;
            cluster_served(r, w.len(), (t0, Instant::now()))
        }
    };
    guard(kind, &served.model, &mut served.errors);
    Ok(served)
}

/// Closed loop on one card: one client builds a request's input and
/// calls `CoProcessor::invoke`, and sends the next one when it returns.
fn serve_card(cp: &mut CoProcessor, w: &Workload) -> Result<Served, String> {
    let pci0 = cp.pci_stats();
    let mut req_ns = Vec::with_capacity(w.len());
    let mut outcomes = Vec::with_capacity(w.len());
    let mut service = TimeAccumulator::new();
    let start = Instant::now();
    for (i, r) in w.requests().iter().enumerate() {
        let t0 = Instant::now();
        let input = w.input(i);
        let (out, report) = cp
            .invoke(r.algo_id, &input)
            .map_err(|e| format!("request {i}: {e}"))?;
        req_ns.push(t0.elapsed().as_nanos() as u64);
        service.push(report.total());
        outcomes.push(Outcome::Output(fnv(&out)));
    }
    let end = Instant::now();
    let serve_s = req_ns.iter().sum::<u64>() as f64 / 1e9;
    let mut model = card_model(&service, &outcomes);
    add_card_ledger(&mut model, cp, &pci0);
    Ok(Served {
        serve_s,
        window: (start, end),
        req_ns,
        outcomes,
        model,
        registry: None,
        errors: Vec::new(),
    })
}

/// End-to-end modelled metrics of a card run: the modelled service
/// times are the card's whole clock, so throughput is `N / Σ service`.
pub fn card_model(service: &TimeAccumulator, outcomes: &[Outcome]) -> Model {
    let n = outcomes.len() as f64;
    let s = service.summary_ns();
    Model::from([
        ("model_req_per_s", n / service.total().as_secs()),
        ("model_latency_p50", s.p50 / 1e3),
        ("model_latency_p99", s.p99 / 1e3),
        ("goodput", completed(outcomes) as f64 / n),
    ])
}

/// Controller and bus ledgers of a card after a run (`pci0` is the bus
/// before the first request, so install traffic is excluded).
pub fn add_card_ledger(model: &mut Model, cp: &CoProcessor, pci0: &PciStats) {
    let os = cp.stats();
    let pci = cp.pci_stats().delta(pci0);
    model.insert("mcu.hit_rate", os.hit_rate());
    model.insert("mcu.evictions", os.evictions as f64);
    model.insert("mcu.decoded_hit_rate", os.decoded_hit_rate());
    model.insert("mcu.frames_configured", os.frames_configured as f64);
    model.insert("pci.bytes", (pci.bytes_written + pci.bytes_read) as f64);
    model.insert("pci.transactions", pci.transactions as f64);
}

fn completed(outcomes: &[Outcome]) -> usize {
    outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Output(_)))
        .count()
}

/// Per-request outcomes of a batch run: an output where the program
/// produced one, else the refusal recorded in its failure maps.
fn batch_outcomes(
    n: usize,
    outputs: Option<&Vec<Vec<u8>>>,
    failures: &[&BTreeMap<usize, JobError>],
) -> Vec<Outcome> {
    (0..n)
        .map(|i| {
            failures
                .iter()
                .find_map(|m| m.get(&i))
                .map(|e| Outcome::Refused(refusal(e)))
                .unwrap_or_else(|| Outcome::Output(outputs.map_or(0, |o| fnv(&o[i]))))
        })
        .collect()
}

fn engine_served(r: EngineResult, n: usize, window: (Instant, Instant)) -> Served {
    let outcomes = batch_outcomes(
        n,
        r.outputs.as_ref(),
        &[&r.failed, &r.shed, &r.deadline_missed, &r.quota_exceeded],
    );
    // Open-loop runs are timed from arrival (sojourn); closed-loop runs
    // by service time.
    let latency = if r.deadline_budget.is_some() {
        &r.sojourn
    } else {
        &r.latency
    };
    let s = latency.summary_ns();
    let mut model = Model::from([
        ("model_req_per_s", n as f64 / r.makespan.as_secs()),
        ("model_latency_p50", s.p50 / 1e3),
        ("model_latency_p99", s.p99 / 1e3),
        ("goodput", completed(&outcomes) as f64 / n as f64),
    ]);
    let busy: Vec<f64> = r.shard_busy.iter().map(|t| t.as_ns()).collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    let d = &r.dispatch;
    let o = &r.overload;
    let f = &r.faults;
    for (name, value) in [
        ("mcu.hit_rate", r.stats.hit_rate()),
        ("mcu.evictions", r.stats.evictions as f64),
        ("mcu.decoded_hit_rate", r.stats.decoded_hit_rate()),
        ("mcu.frames_configured", r.stats.frames_configured as f64),
        ("core.engine.batches", r.batches as f64),
        ("core.engine.coalesced_frac", r.coalesced as f64 / n as f64),
        ("core.engine.shard_imbalance", ratio(max_busy, mean_busy)),
        ("core.dispatch.steals", d.steals as f64),
        (
            "core.dispatch.affinity_frac",
            ratio(d.affinity_hits as f64, d.dealt as f64),
        ),
        (
            "core.overload.shed_frac",
            ratio(o.shed as f64, o.submitted as f64),
        ),
        ("core.overload.fair_shed", o.fair_shed as f64),
        ("core.overload.watchdog_resets", o.watchdog_resets as f64),
        ("core.breaker.trips", o.breaker_trips as f64),
        ("core.fault.injected", f.injected as f64),
        ("core.fault.recovered", f.recovered() as f64),
        (
            "core.fault.recovery_p99",
            r.recovery_latency.summary_ns().p99 / 1e3,
        ),
    ] {
        model.insert(name, value);
    }
    let mut errors = Vec::new();
    if r.deadline_budget.is_some() {
        if !o.accounted() {
            errors.push(format!("OverloadStats::accounted fails: {o:?}"));
        }
        if o.completed as usize != completed(&outcomes) {
            errors.push(format!(
                "{} outputs but OverloadStats says {} completed",
                completed(&outcomes),
                o.completed
            ));
        }
    }
    if !f.accounted() {
        errors.push(format!("FaultStats::accounted fails: {f:?}"));
    }
    batch_served(window, outcomes, model, r.trace.map(|t| t.metrics), errors)
}

/// A batch call returns every result at once, so each request's host
/// latency is the call's wall time.
fn batch_served(
    window: (Instant, Instant),
    outcomes: Vec<Outcome>,
    model: Model,
    registry: Option<MetricsRegistry>,
    errors: Vec<String>,
) -> Served {
    let wall_ns = window.1.duration_since(window.0).as_nanos() as u64;
    Served {
        serve_s: wall_ns as f64 / 1e9,
        window,
        req_ns: vec![wall_ns],
        outcomes,
        model,
        registry,
        errors,
    }
}

fn cluster_served(r: ClusterResult, n: usize, window: (Instant, Instant)) -> Served {
    let outcomes = batch_outcomes(
        n,
        r.outputs.as_ref(),
        &[&r.failed, &r.shed, &r.deadline_missed],
    );
    let s = r.sojourn.summary_ns();
    let st = &r.stats;
    let model = Model::from([
        ("model_req_per_s", n as f64 / r.makespan.as_secs()),
        ("model_latency_p50", s.p50 / 1e3),
        ("model_latency_p99", s.p99 / 1e3),
        ("goodput", completed(&outcomes) as f64 / n as f64),
        (
            "core.breaker.trips",
            r.card_health.iter().map(|h| h.trips).sum::<u64>() as f64,
        ),
        ("core.cluster.failovers", st.failovers as f64),
        ("core.cluster.hedges", st.hedges as f64),
        ("core.cluster.lost", st.lost_unrecoverable as f64),
        (
            "core.cluster.breaker_rejections",
            st.breaker_rejections as f64,
        ),
        ("core.cluster.card_downs", st.card_downs as f64),
    ]);
    let mut errors = Vec::new();
    if !st.accounted() {
        errors.push(format!("ClusterStats::accounted fails: {st:?}"));
    }
    if !st.reconciled() {
        errors.push(format!("ClusterStats::reconciled fails: {st:?}"));
    }
    if st.completed as usize != completed(&outcomes) {
        errors.push(format!(
            "{} outputs but ClusterStats says {} completed",
            completed(&outcomes),
            st.completed
        ));
    }
    batch_served(window, outcomes, model, r.trace.map(|t| t.metrics), errors)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Non-vacuity: a workload that passes while its mechanism never ran
/// proves nothing, so that is a failure.
pub fn guard(kind: Kind, m: &Model, errors: &mut Vec<String>) {
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let mut need = |ok: bool, what: &str| {
        if !ok {
            errors.push(format!("{} is vacuous: {what}", kind.name()));
        }
    };
    match kind {
        Kind::ZipfCard => {
            need(get("mcu.evictions") > 0.0, "no evictions");
            let h = get("mcu.hit_rate");
            need(h > 0.5 && h < 0.95, "hit rate outside (0.5, 0.95)");
        }
        Kind::DspChurn => need(get("mcu.hit_rate") < 0.5, "misses do not outnumber hits"),
        Kind::HotEngine => {
            need(get("mcu.hit_rate") >= 0.99, "hit rate below 0.99");
            need(get("core.engine.coalesced_frac") > 0.0, "nothing coalesced");
            need(get("core.dispatch.steals") > 0.0, "no steals");
        }
        Kind::OverloadChaos => {
            need(get("core.overload.shed_frac") > 0.0, "nothing shed");
            need(get("core.overload.fair_shed") > 0.0, "no fair sheds");
            need(get("core.fault.injected") > 0.0, "no faults injected");
            need(
                get("core.overload.watchdog_resets") > 0.0,
                "no watchdog resets",
            );
        }
        Kind::FleetChaos => {
            need(get("core.cluster.card_downs") >= 1.0, "no card went down");
            need(get("core.cluster.failovers") > 0.0, "no failovers");
        }
    }
}
