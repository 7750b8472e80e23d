//! The fleet: a cluster of engine-backed cards behind a
//! health-checked deterministic router.
//!
//! A [`Cluster`] owns `cards` co-processor engines, each a full PR-3
//! [`Engine`] with its own shards, fault plan and frame store. Per-card
//! ROM contents differ: placement replicates hot algorithms across
//! several cards and leaves cold ones resident on exactly one, so a
//! card only installs (at bring-up) the algorithms routed to it. The
//! `router` module walks the request stream against per-card
//! virtual clocks and health breakers, failing over around dead or
//! quarantined cards and hedging jobs stranded mid-service; the
//! surviving assignment is then executed through the real card
//! engines, whose outputs are byte-identical to a serial oracle no
//! matter which replica served each job.
//!
//! Every run balances one conservation law, checked by the chaos
//! tests:
//!
//! ```text
//! submitted == completed + shed + deadline_missed + faulted + lost_unrecoverable
//! ```
//!
//! and reconciles its redirection ledger against the per-card breaker
//! timelines: `failovers + hedges == breaker_rejections + card_failures`
//! — every redirection decision is caused by exactly one breaker
//! rejection or one observed card failure, and vice versa.

use std::collections::BTreeMap;
use std::sync::Arc;

use aaod_algos::AlgorithmBank;
use aaod_sim::stats::TimeAccumulator;
use aaod_sim::trace::{EventKind, TraceConfig, TraceLevel, TraceReport, Tracer, CLUSTER_SHARD};
use aaod_sim::{CardTimeline, ClusterFaultPlan, FaultPlan, SimTime};
use aaod_workload::Workload;

use crate::breaker::{BreakerConfig, BreakerState};
use crate::coproc::CoProcessor;
use crate::dispatch;
use crate::engine::{Engine, EngineConfig};
use crate::error::{check_ledger, CoreError, Ledger};
use crate::fault::{FaultConfig, JobError};
use crate::router::{self, Route, RouteParams};

/// Salt mixed with the card index into each card's engine-level fault
/// plan seed, so per-card SEU streams are independent.
const CARD_FAULT_SALT: u64 = 0xCA2D_FA17_5EED_0B0E;

/// Fleet tuning parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Cards in the fleet (2–64).
    pub cards: usize,
    /// Replicas a hot algorithm is resident on (cold algorithms
    /// always have exactly one).
    pub replication: usize,
    /// Shards inside each card's engine.
    pub card_workers: usize,
    /// Modelled gap between consecutive job arrivals.
    pub interarrival: SimTime,
    /// Per-job latency budget from arrival; `None` is a deadline that
    /// never passes.
    pub deadline: Option<SimTime>,
    /// Redirections (failovers + hedges) allowed per job.
    pub max_failovers: u32,
    /// Base failover backoff; redirection `k` waits `backoff * 2^(k-1)`
    /// of modelled time.
    pub backoff: SimTime,
    /// Health-check breaker applied to every card by the router.
    pub breaker: BreakerConfig,
    /// Seeded card-level fault schedule (crashes, hangs, flapping
    /// links, per-card SEU pressure). `None` runs a healthy fleet.
    pub plan: Option<ClusterFaultPlan>,
    /// Engine-level fault template: each card gets an independent
    /// per-card plan derived from this seed, with its rates scaled by
    /// the card's SEU-pressure multiplier from `plan`.
    pub card_faults: Option<FaultConfig>,
    /// Check every output against the golden software model.
    pub verify: bool,
    /// Keep output bytes (disable for pure timing sweeps).
    pub collect_outputs: bool,
    /// Observability: card health edges on each card's shard,
    /// failover/hedge decisions on [`CLUSTER_SHARD`].
    pub trace: TraceConfig,
    /// Online predictive replication (see [`crate::predict`]). When
    /// set, placement pins every algorithm to a *single* card and the
    /// router grows/shrinks replica sets online: an algorithm is
    /// replicated once its popularity EWMA crosses the upper
    /// hysteresis threshold and de-replicated below the lower one,
    /// with a refractory period against flip-flapping under
    /// `flash_crowd` bursts. `None` (the default) keeps the offline
    /// placement with [`ClusterConfig::replication`] static copies.
    pub predict: Option<crate::predict::PredictConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cards: 16,
            replication: 3,
            card_workers: 2,
            interarrival: SimTime::from_us(2),
            deadline: None,
            max_failovers: 3,
            backoff: SimTime::from_us(5),
            breaker: BreakerConfig::default(),
            plan: None,
            card_faults: None,
            verify: false,
            collect_outputs: true,
            trace: TraceConfig::off(),
            predict: None,
        }
    }
}

impl ClusterConfig {
    /// Checks the knobs for consistency.
    ///
    /// # Panics
    ///
    /// Panics when a knob is out of range.
    pub fn validate(&self) {
        assert!(
            (2..=64).contains(&self.cards),
            "cluster needs 2..=64 cards, got {}",
            self.cards
        );
        assert!(
            (1..=self.cards).contains(&self.replication),
            "replication must be in 1..=cards, got {}",
            self.replication
        );
        assert!(self.card_workers >= 1, "each card needs at least one shard");
        self.breaker.validate();
    }
}

/// The fleet-run ledger. Conservation:
/// `submitted == completed + shed + deadline_missed + faulted + lost_unrecoverable`,
/// reconciled against breaker timelines via
/// `failovers + hedges == breaker_rejections + card_failures`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Jobs submitted to the router.
    pub submitted: u64,
    /// Jobs with exactly one surviving, in-time, correct result.
    pub completed: u64,
    /// Jobs dropped pre-dispatch (backoff pushed past the deadline).
    pub shed: u64,
    /// Jobs whose surviving result landed past the deadline.
    pub deadline_missed: u64,
    /// Jobs that failed inside a card engine (exhausted SEU recovery).
    pub faulted: u64,
    /// Jobs lost to a dead card with no replica, or unroutable.
    pub lost_unrecoverable: u64,
    /// Pre-dispatch redirections around down or quarantined cards.
    pub failovers: u64,
    /// Mid-service redirections off dying cards.
    pub hedges: u64,
    /// Jobs where dedup discarded a completed duplicate run.
    pub hedge_duplicates: u64,
    /// Dispatches rejected by open card breakers.
    pub breaker_rejections: u64,
    /// Card failures observed by the router (down at dispatch, or
    /// died mid-service).
    pub card_failures: u64,
    /// Card down edges across the fleet within the fault horizon.
    pub card_downs: u64,
    /// Card recovery edges across the fleet within the fault horizon.
    pub card_ups: u64,
    /// Modelled time burnt on aborted partial runs and losing
    /// duplicates.
    pub wasted_time: SimTime,
    /// Online replication flips applied (hysteresis upper crossings;
    /// zero without [`ClusterConfig::predict`]).
    pub replicates: u64,
    /// Online de-replication flips applied (lower crossings).
    pub dereplicates: u64,
}

impl ClusterStats {
    /// The conservation law: every submitted job is accounted to
    /// exactly one terminal bucket.
    pub fn accounted(&self) -> bool {
        self.submitted
            == self.completed
                + self.shed
                + self.deadline_missed
                + self.faulted
                + self.lost_unrecoverable
    }

    /// The redirection ledger reconciles against the breaker
    /// timelines: each failover or hedge was caused by exactly one
    /// breaker rejection or one observed card failure.
    pub fn reconciled(&self) -> bool {
        self.failovers + self.hedges == self.breaker_rejections + self.card_failures
    }

    /// [`ClusterStats::accounted`] then [`ClusterStats::reconciled`] as
    /// always-on checks.
    ///
    /// # Errors
    ///
    /// [`CoreError::LedgerImbalance`] naming [`Ledger::Cluster`] or
    /// [`Ledger::ClusterRedirections`], whichever fails first.
    pub fn check(&self) -> Result<(), CoreError> {
        check_ledger(self.accounted(), Ledger::Cluster, self)?;
        check_ledger(self.reconciled(), Ledger::ClusterRedirections, self)
    }

    /// Fraction of submitted jobs with a surviving in-time result.
    pub fn goodput(&self) -> f64 {
        if self.submitted == 0 {
            return 1.0;
        }
        self.completed as f64 / self.submitted as f64
    }
}

/// One card's health history over a fleet run.
#[derive(Debug, Clone, Default)]
pub struct CardHealth {
    /// Jobs this card won and served to completion.
    pub served: usize,
    /// Breaker trips (closed → open).
    pub trips: u64,
    /// Failed half-open probes (half-open → open).
    pub reopens: u64,
    /// Dispatches the breaker rejected while open.
    pub rejections: u64,
    /// Failures the router reported against this card.
    pub failures: u64,
    /// Half-open probes admitted.
    pub probes: u64,
    /// The breaker's state-transition timeline, in decision order.
    pub breaker_timeline: Vec<(SimTime, BreakerState)>,
    /// Physical down edges within the fault horizon.
    pub down_edges: u64,
    /// Physical recovery edges within the fault horizon.
    pub up_edges: u64,
    /// The card engine's modelled makespan over its served jobs.
    pub busy: SimTime,
}

/// The outcome of serving one workload through the fleet.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Fleet size.
    pub cards: usize,
    /// Jobs submitted.
    pub requests: usize,
    /// Output bytes per request in submission order (empty slots for
    /// jobs without a surviving result), when `collect_outputs` is on.
    pub outputs: Option<Vec<Vec<u8>>>,
    /// Terminal errors for faulted, lost and unroutable jobs.
    pub failed: BTreeMap<usize, JobError>,
    /// Jobs dropped pre-dispatch, with their shed decision.
    pub shed: BTreeMap<usize, JobError>,
    /// Jobs whose surviving result overran its deadline.
    pub deadline_missed: BTreeMap<usize, JobError>,
    /// Winning card per job (`None` for jobs without one).
    pub assignment: Vec<Option<u32>>,
    /// Sorted algorithm residency per card, as placed at bring-up.
    pub residency: Vec<Vec<u16>>,
    /// Per-card health history.
    pub card_health: Vec<CardHealth>,
    /// The run ledger.
    pub stats: ClusterStats,
    /// Latest modelled completion across the fleet (router clock).
    pub makespan: SimTime,
    /// Arrival-to-completion sojourn of every completed job.
    pub sojourn: TimeAccumulator,
    /// Online replication flips in submission order (empty without
    /// [`ClusterConfig::predict`]).
    pub flips: Vec<crate::predict::FlipRecord>,
    /// The merged trace, when tracing is enabled.
    pub trace: Option<TraceReport>,
}

impl ClusterResult {
    /// Fraction of submitted jobs with a surviving in-time result.
    pub fn goodput(&self) -> f64 {
        self.stats.goodput()
    }
}

/// A fleet of engine-backed cards behind the deterministic router.
pub struct Cluster {
    config: ClusterConfig,
    factory: Arc<dyn Fn() -> CoProcessor + Send + Sync>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// A fleet whose cards are default co-processors.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent
    /// (see [`ClusterConfig::validate`]).
    pub fn new(config: ClusterConfig) -> Self {
        Cluster::with_factory(config, CoProcessor::default)
    }

    /// A fleet whose cards are built by `factory`.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent
    /// (see [`ClusterConfig::validate`]).
    pub fn with_factory(
        config: ClusterConfig,
        factory: impl Fn() -> CoProcessor + Send + Sync + 'static,
    ) -> Self {
        config.validate();
        Cluster {
            config,
            factory: Arc::new(factory),
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Serves every request of `workload` through the fleet:
    /// placement, health-checked routing, then execution of the
    /// surviving assignment on the real card engines.
    ///
    /// # Errors
    ///
    /// Propagates the first card-engine error (install/invoke
    /// failures, or [`CoreError::OutputMismatch`] when verification
    /// is on). Router-level degradation never errors — it lands in
    /// the ledger as typed [`JobError`]s.
    pub fn serve(
        &self,
        workload: &Workload,
        bank: &AlgorithmBank,
    ) -> Result<ClusterResult, CoreError> {
        let cfg = &self.config;
        let n = workload.len();
        let cards = cfg.cards;
        let timelines: Vec<CardTimeline> = (0..cards)
            .map(|c| match &cfg.plan {
                Some(plan) => plan.timeline(c),
                None => CardTimeline::HEALTHY,
            })
            .collect();

        // Placement: calibrate once on a scratch card, replicate hot
        // algorithms, pin cold ones.
        let costs = dispatch::calibrate(workload, bank, (self.factory)());
        // Online mode starts every algorithm on a single card — the
        // router's hysteresis gate earns any further copies from the
        // stream itself.
        let replication = if cfg.predict.is_some() {
            1
        } else {
            cfg.replication
        };
        let placement = router::place(workload, bank, &costs, cards, replication);

        // Routing: the deterministic health-checked walk.
        let params = RouteParams {
            interarrival: cfg.interarrival,
            deadline: cfg.deadline.unwrap_or(SimTime::MAX),
            max_failovers: cfg.max_failovers,
            backoff: cfg.backoff,
            breaker: cfg.breaker,
            predict: cfg.predict,
        };
        let outcome = router::route(workload, bank, &costs, &placement, &timelines, &params);

        // Execution: serve each card's winning jobs through its real
        // engine, in submission order per card.
        let mut per_card: Vec<Vec<usize>> = vec![Vec::new(); cards];
        for (i, route) in outcome.routes.iter().enumerate() {
            if let Route::Completed { card, .. } = route {
                per_card[*card as usize].push(i);
            }
        }
        let mut outputs = cfg.collect_outputs.then(|| vec![Vec::new(); n]);
        let mut failed: BTreeMap<usize, JobError> = BTreeMap::new();
        let mut faulted = 0u64;
        let mut card_busy = vec![SimTime::ZERO; cards];
        for (c, indices) in per_card.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let engine = self.card_engine(c);
            let sub = workload.subset(indices);
            let mut result = engine.serve(&sub)?;
            card_busy[c] = result.makespan;
            let mut card_outs = result.outputs.take();
            for (k, &idx) in indices.iter().enumerate() {
                // A card engine applies the tenant quotas the workload
                // carries, on the card's share of the stream; a job it
                // drops that way is faulted here, never silently lost.
                let failed_at = result.failed.get(&k);
                if let Some(err) = failed_at.or_else(|| result.quota_exceeded.get(&k)) {
                    faulted += 1;
                    failed.insert(idx, err.clone());
                } else if let (Some(out), Some(card_outs)) = (outputs.as_mut(), card_outs.as_mut())
                {
                    out[idx] = std::mem::take(&mut card_outs[k]);
                }
            }
        }

        // The ledger: route buckets, minus engine-level faults moved
        // out of completed.
        let mut stats = ClusterStats {
            submitted: n as u64,
            failovers: outcome.failovers,
            hedges: outcome.hedges,
            hedge_duplicates: outcome.hedge_duplicates,
            wasted_time: outcome.wasted_time,
            replicates: outcome
                .flips
                .iter()
                .filter(|f| f.kind == crate::predict::Flip::Replicate)
                .count() as u64,
            dereplicates: outcome
                .flips
                .iter()
                .filter(|f| f.kind == crate::predict::Flip::Dereplicate)
                .count() as u64,
            ..ClusterStats::default()
        };
        let mut shed = BTreeMap::new();
        let mut deadline_missed = BTreeMap::new();
        let mut assignment: Vec<Option<u32>> = vec![None; n];
        let mut sojourn = TimeAccumulator::new();
        for (i, route) in outcome.routes.iter().enumerate() {
            let algo_id = workload.requests()[i].algo_id;
            match *route {
                Route::Completed {
                    card,
                    arrival,
                    finish,
                } => {
                    assignment[i] = Some(card);
                    if failed.contains_key(&i) {
                        // Counted under faulted below.
                        continue;
                    }
                    stats.completed += 1;
                    sojourn.push(finish.saturating_sub(arrival));
                }
                Route::Shed {
                    deadline,
                    decided_at,
                } => {
                    stats.shed += 1;
                    shed.insert(
                        i,
                        JobError::Shed {
                            algo_id,
                            deadline,
                            decided_at,
                        },
                    );
                }
                Route::DeadlineMissed {
                    card,
                    deadline,
                    finish,
                } => {
                    assignment[i] = Some(card);
                    stats.deadline_missed += 1;
                    deadline_missed.insert(
                        i,
                        JobError::DeadlineExceeded {
                            algo_id,
                            deadline,
                            finished: finish,
                        },
                    );
                }
                Route::Lost { card, lost_at } => {
                    stats.lost_unrecoverable += 1;
                    failed.insert(
                        i,
                        JobError::CardLost {
                            algo_id,
                            card,
                            lost_at,
                        },
                    );
                }
                Route::Unroutable {
                    attempts,
                    decided_at,
                } => {
                    stats.lost_unrecoverable += 1;
                    failed.insert(
                        i,
                        JobError::NoReplica {
                            algo_id,
                            attempts,
                            decided_at,
                        },
                    );
                }
            }
        }
        stats.faulted = faulted;

        // Per-card health, and the breaker-timeline reconciliation.
        let horizon = cfg
            .plan
            .as_ref()
            .map(|p| p.horizon())
            .unwrap_or(SimTime::ZERO);
        let mut card_health = Vec::with_capacity(cards);
        for (c, breaker) in outcome.breakers.iter().enumerate() {
            let edges = timelines[c].transitions(horizon);
            let downs = edges.iter().filter(|(_, up)| !up).count() as u64;
            let ups = edges.iter().filter(|(_, up)| *up).count() as u64;
            stats.breaker_rejections += breaker.rejections();
            stats.card_failures += breaker.failures();
            stats.card_downs += downs;
            stats.card_ups += ups;
            card_health.push(CardHealth {
                served: per_card[c].len(),
                trips: breaker.trips(),
                reopens: breaker.reopens(),
                rejections: breaker.rejections(),
                failures: breaker.failures(),
                probes: breaker.probes(),
                breaker_timeline: breaker.timeline().to_vec(),
                down_edges: downs,
                up_edges: ups,
                busy: card_busy[c],
            });
        }
        stats.check()?;

        let trace = self.assemble_trace(&timelines, horizon, &outcome.events);
        Ok(ClusterResult {
            cards,
            requests: n,
            outputs,
            failed,
            shed,
            deadline_missed,
            assignment,
            residency: placement.residency,
            card_health,
            stats,
            makespan: outcome.makespan,
            sojourn,
            flips: outcome.flips,
            trace,
        })
    }

    /// Builds card `c`'s engine: the shared factory, the fleet's
    /// shard/batch knobs, and a per-card engine-level fault plan with
    /// rates scaled by the card's SEU-pressure multiplier.
    fn card_engine(&self, c: usize) -> Engine {
        let cfg = &self.config;
        let faults = cfg.card_faults.map(|template| {
            let seu = cfg
                .plan
                .as_ref()
                .map(|p| p.seu_multiplier(c))
                .unwrap_or(1.0);
            let mut rates = template.plan.rates();
            rates.frame_bit_flip *= seu;
            rates.torn_config *= seu;
            rates.rom_payload *= seu;
            rates.pci_transient *= seu;
            let total = rates.total();
            if total > 1.0 {
                rates.frame_bit_flip /= total;
                rates.torn_config /= total;
                rates.rom_payload /= total;
                rates.pci_transient /= total;
            }
            let seed = template.plan.seed()
                ^ CARD_FAULT_SALT
                ^ (c as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            FaultConfig {
                plan: FaultPlan::new(seed, rates).with_latency(template.plan.latency()),
                ..template
            }
        });
        let engine_cfg = EngineConfig {
            workers: cfg.card_workers,
            verify: cfg.verify,
            collect_outputs: cfg.collect_outputs,
            faults,
            ..EngineConfig::default()
        };
        let factory = Arc::clone(&self.factory);
        Engine::with_factory(engine_cfg, move || factory())
    }

    /// Merges the cluster-shard routing events with per-card health
    /// edges into one [`TraceReport`] (card edges on the card's own
    /// shard id, so every shard stream stays time-ordered).
    fn assemble_trace(
        &self,
        timelines: &[CardTimeline],
        horizon: SimTime,
        events: &[(SimTime, EventKind)],
    ) -> Option<TraceReport> {
        let cfg = self.config.trace;
        if cfg.level == TraceLevel::Off {
            return None;
        }
        let mut shards = Vec::new();
        for (c, timeline) in timelines.iter().enumerate() {
            let mut tracer = Tracer::new(cfg, c as u32);
            for (t, up) in timeline.transitions(horizon) {
                let card = c as u32;
                let kind = if up {
                    EventKind::CardUp { card }
                } else {
                    EventKind::CardDown { card }
                };
                tracer.record(t, kind);
            }
            shards.push(tracer.finish());
        }
        let mut tracer = Tracer::new(cfg, CLUSTER_SHARD);
        for &(ts, kind) in events {
            tracer.record(ts, kind);
        }
        shards.push(tracer.finish());
        Some(TraceReport::assemble(shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_algos::ids;
    use aaod_workload::TenantSpec;

    /// A card engine applies the tenant quotas the workload carries,
    /// on the card's share of the stream. A job it drops that way is a
    /// typed failure in the fleet's ledger, never a completed job with
    /// no output.
    #[test]
    fn card_quota_drops_are_failed_not_lost() {
        let spec = |name: &str, algo: u16, quota: Option<u64>| TenantSpec {
            name: name.into(),
            algos: vec![algo],
            weight: 1,
            offered: 1,
            input_len: 32,
            quota,
        };
        let w = Workload::multi_tenant(
            &[
                spec("open", ids::CRC32, None),
                spec("capped", ids::SHA1, Some(2)),
            ],
            60,
            3,
        );
        let r = Cluster::new(ClusterConfig {
            cards: 2,
            replication: 1,
            verify: true,
            ..ClusterConfig::default()
        })
        .serve(&w, &AlgorithmBank::standard())
        .unwrap();
        let dropped = r
            .failed
            .values()
            .filter(|e| matches!(e, JobError::QuotaExceeded { tenant: 1, .. }))
            .count();
        assert!(dropped > 0, "the capped tenant must overrun its quota");
        assert_eq!(r.stats.faulted, r.failed.len() as u64);
        let outputs = r.outputs.as_ref().unwrap();
        for (i, out) in outputs.iter().enumerate() {
            let refused = r.failed.contains_key(&i)
                || r.shed.contains_key(&i)
                || r.deadline_missed.contains_key(&i);
            assert_eq!(refused, out.is_empty(), "job {i}");
        }
    }

    #[test]
    fn unbalanced_cluster_job_ledger_is_a_typed_error() {
        let s = ClusterStats {
            submitted: 4,
            completed: 2,
            lost_unrecoverable: 1,
            ..ClusterStats::default()
        };
        assert!(matches!(
            s.check(),
            Err(CoreError::LedgerImbalance {
                ledger: Ledger::Cluster,
                ..
            })
        ));
        assert_eq!(ClusterStats { completed: 3, ..s }.check(), Ok(()));
    }

    #[test]
    fn unreconciled_redirections_are_a_typed_error() {
        let s = ClusterStats {
            submitted: 2,
            completed: 2,
            failovers: 2,
            hedges: 1,
            breaker_rejections: 2,
            ..ClusterStats::default()
        };
        assert!(s.accounted());
        assert!(matches!(
            s.check(),
            Err(CoreError::LedgerImbalance {
                ledger: Ledger::ClusterRedirections,
                ..
            })
        ));
        assert_eq!(
            ClusterStats {
                card_failures: 1,
                ..s
            }
            .check(),
            Ok(())
        );
    }
}
