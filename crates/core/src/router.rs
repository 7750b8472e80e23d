//! Fleet-level placement and health-checked routing for the
//! multi-card cluster.
//!
//! The router is the second level of the dispatch hierarchy: PR 5's
//! calibrated cost model balanced *shards inside one engine*; here the
//! same model (one calibration pass on a scratch card, estimates
//! scaled along each kernel's shape curve) balances *cards inside a
//! fleet*. Placement decides which cards hold which algorithms — hot
//! algorithms (modelled weight above a fleet-fair share) are
//! replicated, cold ones stay resident on a single card. Routing then
//! walks the request stream in submission order against per-card
//! virtual clocks, per-card [`CircuitBreaker`]s and the seeded
//! [`CardTimeline`]s, producing a deterministic [`Route`] per job:
//! failover with bounded retries and exponential modelled backoff when
//! a card is down or quarantined at dispatch, a hedged re-dispatch
//! when a card dies mid-service, and typed degradation when every
//! replica is unreachable.
//!
//! The routing walk processes jobs in submission order, so breaker
//! state mutations happen in *processing* order even where their
//! modelled timestamps interleave; the schedule is deterministic
//! either way. Cluster-shard trace timestamps are clamped monotone to
//! keep the per-shard ordering invariant of the trace layer.

use std::collections::{BTreeMap, BTreeSet};

use aaod_algos::AlgorithmBank;
use aaod_sim::trace::EventKind;
use aaod_sim::{CardTimeline, SimTime};
use aaod_workload::Workload;

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::dispatch::{estimate, AlgoCost};
use crate::predict::{Flip, FlipRecord, HysteresisGate, PredictConfig, PredictModel};

/// Exponent cap for the failover backoff doubling, so the modelled
/// wait never overflows picoseconds.
const BACKOFF_EXP_CAP: u32 = 16;

/// Which cards hold which algorithms after placement.
#[derive(Debug, Clone)]
pub(crate) struct Placement {
    /// Sorted algorithm residency per card.
    pub(crate) residency: Vec<Vec<u16>>,
    /// Replica cards per algorithm, sorted by card id.
    pub(crate) replicas: BTreeMap<u16, Vec<u32>>,
}

/// Residency planning: hot algorithms (estimated weight above the
/// fleet-fair share `total / cards`) get `replication` replicas, cold
/// algorithms one; replicas go to the least-loaded card (ties by
/// lowest id) that does not already hold the algorithm.
pub(crate) fn place(
    workload: &Workload,
    bank: &AlgorithmBank,
    costs: &BTreeMap<u16, AlgoCost>,
    cards: usize,
    replication: usize,
) -> Placement {
    let mut weight: BTreeMap<u16, u64> = BTreeMap::new();
    for req in workload.requests() {
        let w = costs
            .get(&req.algo_id)
            .map(|c| estimate(c, bank, req.algo_id, req.input_len))
            .unwrap_or(1);
        *weight.entry(req.algo_id).or_insert(0) += w.max(1);
    }
    let total: u64 = weight.values().sum();
    let fair = total / cards as u64;

    // Heaviest first so the greedy fill packs the big rocks before
    // the gravel; ties broken by id for determinism.
    let mut order: Vec<(u16, u64)> = weight.iter().map(|(&a, &w)| (a, w)).collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut load = vec![0u64; cards];
    let mut residency: Vec<BTreeSet<u16>> = vec![BTreeSet::new(); cards];
    let mut replicas: BTreeMap<u16, Vec<u32>> = BTreeMap::new();
    for (algo, w) in order {
        let copies = if w > fair { replication.min(cards) } else { 1 };
        let share = w / copies as u64;
        for _ in 0..copies {
            let card = (0..cards)
                .filter(|&c| !residency[c].contains(&algo))
                .min_by_key(|&c| (load[c], c))
                .expect("replication bounded by card count");
            residency[card].insert(algo);
            load[card] += share.max(1);
            replicas.entry(algo).or_default().push(card as u32);
        }
        replicas
            .get_mut(&algo)
            .expect("just inserted")
            .sort_unstable();
    }
    Placement {
        residency: residency
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect(),
        replicas,
    }
}

/// Routing-time tuning knobs, split off [`ClusterConfig`] so the walk
/// does not depend on execution-phase settings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteParams {
    /// Modelled gap between consecutive job arrivals.
    pub(crate) interarrival: SimTime,
    /// Per-job latency budget from arrival; [`SimTime::MAX`] is a
    /// deadline that never passes.
    pub(crate) deadline: SimTime,
    /// Redirections (failovers + hedges) allowed per job.
    pub(crate) max_failovers: u32,
    /// Base modelled backoff; redirection `k` waits `backoff * 2^(k-1)`.
    pub(crate) backoff: SimTime,
    /// Health-check breaker applied to every card.
    pub(crate) breaker: BreakerConfig,
    /// Online predictive replication (see [`crate::predict`]): when
    /// set, the walk feeds the submission stream into a popularity
    /// model and replicates/de-replicates algorithms through a
    /// hysteresis + refractory gate instead of trusting the offline
    /// placement's replica counts. `None` keeps the static placement.
    pub(crate) predict: Option<PredictConfig>,
}

/// Where one job ended up after the routing walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Served to completion; exactly one surviving result.
    Completed {
        /// The winning card.
        card: u32,
        /// Modelled arrival time.
        arrival: SimTime,
        /// Modelled completion time on the winning card.
        finish: SimTime,
    },
    /// Dropped before dispatch: backoff pushed the earliest possible
    /// start past the deadline.
    Shed {
        /// The absolute deadline the job carried.
        deadline: SimTime,
        /// When the router gave up admitting it.
        decided_at: SimTime,
    },
    /// Served, but the surviving result landed past the deadline; the
    /// output is dropped and the card's clock stays charged.
    DeadlineMissed {
        /// The card that finished it late.
        card: u32,
        /// The absolute deadline the job carried.
        deadline: SimTime,
        /// The late completion time.
        finish: SimTime,
    },
    /// Stranded on a dead card with no replica to hedge onto.
    Lost {
        /// The card the job died with.
        card: u32,
        /// When that card went dark.
        lost_at: SimTime,
    },
    /// Every replica was down or quarantined at dispatch time.
    Unroutable {
        /// Redirections spent before giving up.
        attempts: u32,
        /// When the router gave up.
        decided_at: SimTime,
    },
}

/// Everything the routing walk decides, for the execution phase and
/// the ledger.
#[derive(Debug)]
pub(crate) struct RouteOutcome {
    /// Per-job route, submission order.
    pub(crate) routes: Vec<Route>,
    /// Per-card health breakers, final state and timelines.
    pub(crate) breakers: Vec<CircuitBreaker>,
    /// Pre-dispatch redirections (card down or quarantined).
    pub(crate) failovers: u64,
    /// Mid-service redirections (card died under the job).
    pub(crate) hedges: u64,
    /// Jobs where more than one run completed; dedup kept the winner.
    pub(crate) hedge_duplicates: u64,
    /// Modelled time burnt on aborted partial runs and losing
    /// duplicate runs.
    pub(crate) wasted_time: SimTime,
    /// Cluster-shard trace events (failover/hedge/replicate/evict),
    /// timestamps clamped monotone.
    pub(crate) events: Vec<(SimTime, EventKind)>,
    /// Latest modelled completion across all cards.
    pub(crate) makespan: SimTime,
    /// Online replication flips in submission order (empty unless
    /// [`RouteParams::predict`] is set).
    pub(crate) flips: Vec<FlipRecord>,
}

/// Walks the request stream in submission order and routes every job.
pub(crate) fn route(
    workload: &Workload,
    bank: &AlgorithmBank,
    costs: &BTreeMap<u16, AlgoCost>,
    placement: &Placement,
    timelines: &[CardTimeline],
    params: &RouteParams,
) -> RouteOutcome {
    let cards = timelines.len();
    let mut clocks = vec![SimTime::ZERO; cards];
    let mut breakers: Vec<CircuitBreaker> = (0..cards)
        .map(|_| CircuitBreaker::new(params.breaker))
        .collect();
    let mut routes = Vec::with_capacity(workload.len());
    let mut failovers = 0u64;
    let mut hedges = 0u64;
    let mut hedge_duplicates = 0u64;
    let mut wasted = SimTime::ZERO;
    let mut events: Vec<(SimTime, EventKind)> = Vec::new();
    let mut last_ts = SimTime::ZERO;
    let mut makespan = SimTime::ZERO;

    // Online predictive replication: the walk maintains a *live* copy
    // of the replica map and lets the hysteresis gate grow or shrink
    // it as the popularity model digests the stream. All decisions
    // are pure functions of the submission sequence, so routing stays
    // deterministic; execution correctness is unaffected because each
    // card later installs exactly the algorithms of the jobs routed
    // to it.
    let mut online = params.predict.map(|cfg| {
        (
            PredictModel::new(cfg.ewma_shift),
            HysteresisGate::new(cfg),
            placement.replicas.clone(),
        )
    });
    let mut flips: Vec<FlipRecord> = Vec::new();

    for (i, req) in workload.requests().iter().enumerate() {
        let arrival = params.interarrival * i as u64;
        if let Some((model, gate, live)) = &mut online {
            model.observe(req.algo_id);
            for flip in gate.decide((i + 1) as u64, model) {
                apply_flip(
                    flip,
                    live,
                    &clocks,
                    &mut events,
                    &mut last_ts,
                    arrival,
                    &mut flips,
                );
            }
        }
        let svc = SimTime::from_ps(
            costs
                .get(&req.algo_id)
                .map(|c| estimate(c, bank, req.algo_id, req.input_len))
                .unwrap_or(1)
                .max(1),
        );
        let replicas = online
            .as_ref()
            .map(|(_, _, live)| live)
            .unwrap_or(&placement.replicas)
            .get(&req.algo_id)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let deadline_abs = arrival.saturating_add(params.deadline);

        let mut tried: BTreeSet<u32> = BTreeSet::new();
        let mut attempts = 0u32;
        // Earliest completion among stranded runs whose card recovers
        // (the delayed original of a hedge), and how many such
        // completions exist.
        let mut recovered: Option<(SimTime, u32)> = None;
        let mut recovered_runs = 0u64;
        // The most recent mid-service stranding, for the `CardLost`
        // degradation when nothing survives.
        let mut last_strand: Option<(SimTime, u32)> = None;
        let route;

        'job: loop {
            let candidate = replicas
                .iter()
                .copied()
                .filter(|c| !tried.contains(c))
                .min_by_key(|&c| (clocks[c as usize], c));
            // Modelled dispatch time: arrival plus the accumulated
            // exponential backoff of every redirection so far.
            let mut now = arrival;
            let mut wait = params.backoff.as_ps();
            for _ in 0..attempts.min(BACKOFF_EXP_CAP) {
                now += SimTime::from_ps(wait);
                wait = wait.saturating_mul(2);
            }
            let next_of = |tried: &BTreeSet<u32>, clocks: &[SimTime], skip: u32| {
                replicas
                    .iter()
                    .copied()
                    .filter(|&c| c != skip && !tried.contains(&c))
                    .min_by_key(|&c| (clocks[c as usize], c))
                    .unwrap_or(skip)
            };
            let Some(card) = candidate else {
                // No untried replica left: degrade to whatever a
                // recovered original can still deliver.
                route = finish_or_lose(
                    recovered,
                    recovered_runs,
                    &mut hedge_duplicates,
                    &mut wasted,
                    svc,
                    arrival,
                    deadline_abs,
                    &mut clocks,
                    attempts,
                    now,
                    last_strand,
                );
                break 'job;
            };
            if attempts > params.max_failovers {
                route = finish_or_lose(
                    recovered,
                    recovered_runs,
                    &mut hedge_duplicates,
                    &mut wasted,
                    svc,
                    arrival,
                    deadline_abs,
                    &mut clocks,
                    attempts,
                    now,
                    last_strand,
                );
                break 'job;
            }
            if now >= deadline_abs {
                route = Route::Shed {
                    deadline: deadline_abs,
                    decided_at: now,
                };
                break 'job;
            }
            tried.insert(card);
            let c = card as usize;
            if !breakers[c].allow(now) {
                // Quarantined: the breaker counted the rejection.
                failovers += 1;
                attempts += 1;
                let to = next_of(&tried, &clocks, card);
                push_event(
                    &mut events,
                    &mut last_ts,
                    now,
                    EventKind::Failover {
                        job: i as u64,
                        algo: req.algo_id,
                        from: card,
                        to,
                    },
                );
                continue 'job;
            }
            if !timelines[c].is_up(now) {
                breakers[c].record_failure(now);
                failovers += 1;
                attempts += 1;
                let to = next_of(&tried, &clocks, card);
                push_event(
                    &mut events,
                    &mut last_ts,
                    now,
                    EventKind::Failover {
                        job: i as u64,
                        algo: req.algo_id,
                        from: card,
                        to,
                    },
                );
                continue 'job;
            }
            let start = now.max(clocks[c]);
            let finish = start + svc;
            if let Some(down) = timelines[c].next_down(start) {
                if down < finish {
                    // The card dies under the job: abort the partial
                    // run, hedge onto the next replica. If the card
                    // recovers, the original restarts after the
                    // outage and may still win the dedup race.
                    breakers[c].record_failure(down);
                    hedges += 1;
                    attempts += 1;
                    last_strand = Some((down, card));
                    wasted += down.saturating_sub(start);
                    if let Some(up) = timelines[c].next_up(down) {
                        let refinish = up + svc;
                        recovered_runs += 1;
                        if recovered.is_none_or(|(f, rc)| (refinish, card) < (f, rc)) {
                            recovered = Some((refinish, card));
                        }
                    }
                    let to = next_of(&tried, &clocks, card);
                    push_event(
                        &mut events,
                        &mut last_ts,
                        down,
                        EventKind::Hedge {
                            job: i as u64,
                            algo: req.algo_id,
                            from: card,
                            to,
                        },
                    );
                    continue 'job;
                }
            }
            // The run completes on this card. Dedup against any
            // recovered original: earliest finish wins, ties to the
            // lowest card id; every losing completed run is a
            // duplicate whose service time was wasted.
            breakers[c].record_success();
            let (win_finish, win_card) = match recovered {
                Some((rf, rc)) if (rf, rc) < (finish, card) => {
                    // The recovered original beats the hedge.
                    wasted += svc;
                    hedge_duplicates += 1;
                    clocks[c] = finish;
                    clocks[rc as usize] = clocks[rc as usize].max(rf);
                    (rf, rc)
                }
                Some((rf, rc)) => {
                    wasted += svc * recovered_runs;
                    hedge_duplicates += recovered_runs;
                    clocks[c] = finish;
                    clocks[rc as usize] = clocks[rc as usize].max(rf);
                    (finish, card)
                }
                None => {
                    clocks[c] = finish;
                    (finish, card)
                }
            };
            route = landed(win_card, arrival, deadline_abs, win_finish);
            break 'job;
        }
        if let Route::Completed { finish, .. } | Route::DeadlineMissed { finish, .. } = route {
            makespan = makespan.max(finish);
        }
        routes.push(route);
    }
    for &c in &clocks {
        makespan = makespan.max(c);
    }
    RouteOutcome {
        routes,
        breakers,
        failovers,
        hedges,
        hedge_duplicates,
        wasted_time: wasted,
        events,
        makespan,
        flips,
    }
}

/// Applies one hysteresis flip to the live replica map.
///
/// * [`Flip::Replicate`] adds a copy on the least-loaded card (by
///   virtual clock, ties to the lowest id) not already holding the
///   algorithm — the same tie-break the placement's greedy fill uses.
/// * [`Flip::Dereplicate`] removes the copy on the most-loaded holder
///   (highest clock, ties to the highest id), but never the last one:
///   an algorithm always keeps at least one card.
///
/// Both directions emit a cluster-shard trace event stamped at the
/// triggering job's arrival (clamped monotone like every router
/// event).
fn apply_flip(
    flip: FlipRecord,
    live: &mut BTreeMap<u16, Vec<u32>>,
    clocks: &[SimTime],
    events: &mut Vec<(SimTime, EventKind)>,
    last_ts: &mut SimTime,
    arrival: SimTime,
    flips: &mut Vec<FlipRecord>,
) {
    match flip.kind {
        Flip::Replicate => {
            let holders = live.entry(flip.algo).or_default();
            let target = (0..clocks.len() as u32)
                .filter(|c| !holders.contains(c))
                .min_by_key(|&c| (clocks[c as usize], c));
            let Some(card) = target else {
                return; // every card already holds it
            };
            holders.push(card);
            holders.sort_unstable();
            push_event(
                events,
                last_ts,
                arrival,
                EventKind::Replicate {
                    algo: flip.algo,
                    card,
                },
            );
            flips.push(flip);
        }
        Flip::Dereplicate => {
            let Some(holders) = live.get_mut(&flip.algo) else {
                return;
            };
            if holders.len() < 2 {
                return; // never drop the last copy
            }
            let (k, &card) = holders
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| (clocks[c as usize], c))
                .expect("holders checked non-empty");
            holders.remove(k);
            push_event(
                events,
                last_ts,
                arrival,
                EventKind::Evict {
                    algo: flip.algo,
                    card,
                },
            );
            flips.push(flip);
        }
    }
}

/// Terminal fallback once no untried replica remains (or the
/// redirection budget is spent): a recovered original can still
/// complete the job; otherwise it degrades to `Lost` (it was stranded
/// mid-service) or `Unroutable` (it never started).
#[allow(clippy::too_many_arguments)]
fn finish_or_lose(
    recovered: Option<(SimTime, u32)>,
    recovered_runs: u64,
    hedge_duplicates: &mut u64,
    wasted: &mut SimTime,
    svc: SimTime,
    arrival: SimTime,
    deadline_abs: SimTime,
    clocks: &mut [SimTime],
    attempts: u32,
    now: SimTime,
    last_strand: Option<(SimTime, u32)>,
) -> Route {
    if let Some((finish, card)) = recovered {
        // The earliest recovered run survives; any further recovered
        // duplicates are deduplicated away.
        let extra = recovered_runs.saturating_sub(1);
        *hedge_duplicates += extra;
        *wasted += svc * extra;
        clocks[card as usize] = clocks[card as usize].max(finish);
        return landed(card, arrival, deadline_abs, finish);
    }
    match last_strand {
        // The job died with a card mid-service and nothing survived.
        Some((lost_at, card)) => Route::Lost { card, lost_at },
        // It never started anywhere: every replica was down or
        // quarantined at dispatch time.
        None => Route::Unroutable {
            attempts,
            decided_at: now,
        },
    }
}

/// A job's surviving result landed on `card` at `finish`: completed,
/// or deadline-missed when it finished past `deadline`.
fn landed(card: u32, arrival: SimTime, deadline: SimTime, finish: SimTime) -> Route {
    if finish > deadline {
        Route::DeadlineMissed {
            card,
            deadline,
            finish,
        }
    } else {
        Route::Completed {
            card,
            arrival,
            finish,
        }
    }
}

/// Appends a cluster-shard event with its timestamp clamped monotone
/// (the walk emits in processing order, not time order).
fn push_event(
    events: &mut Vec<(SimTime, EventKind)>,
    last_ts: &mut SimTime,
    ts: SimTime,
    kind: EventKind,
) {
    let ts = ts.max(*last_ts);
    *last_ts = ts;
    events.push((ts, kind));
}
