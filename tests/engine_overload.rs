//! Engine-level overload tests: deadlines, admission control, latency
//! faults, the watchdog and per-shard circuit breakers, all in
//! modelled time.
//!
//! The invariants under test are the contract of the overload layer:
//!
//! * **job conservation** — every submitted job ends in exactly one
//!   terminal state: `shed + deadline_missed + completed + faulted ==
//!   submitted` ([`aaod_core::OverloadStats::accounted`]);
//! * **no silent corruption** — every output that completes within
//!   deadline is byte-identical to the fault-free serial run;
//! * **graceful degradation** — an overloaded pool sheds work instead
//!   of collapsing: goodput stays positive at any offered load;
//! * **determinism** — the same (workload, plan, seed) reproduces the
//!   identical result, counters and health timelines included.
//!
//! The latency-plan seed is taken from `AAOD_OVERLOAD_SEED` when set
//! (the CI overload matrix sweeps it) and falls back to a fixed
//! default.

use aaod_core::{
    BreakerConfig, BreakerState, CoProcessor, DeadlinePolicy, Engine, EngineConfig, EngineResult,
    FaultConfig, OverloadConfig, ShardPolicy, TraceConfig, WatchdogConfig,
};
use aaod_sim::{FaultPlan, FaultRates, LatencyRates, SimTime};
use aaod_workload::Workload;

/// Seed for the fault plan: `AAOD_OVERLOAD_SEED` if set, else fixed.
fn plan_seed() -> u64 {
    aaod_bench::env_seed("AAOD_OVERLOAD_SEED", 0x0D10AD)
}

/// Skewed traffic over a working set that fits the default device.
fn overload_workload() -> Workload {
    use aaod_algos::ids;
    Workload::zipf(
        &[ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA],
        200,
        1.1,
        48,
        31,
    )
}

/// Fault-free serial baseline: byte-exact outputs and the total
/// modelled service time of the whole workload on one card.
fn serial_baseline(workload: &Workload) -> (Vec<Vec<u8>>, SimTime) {
    let mut cp = CoProcessor::default();
    for &algo in &workload.distinct_algos() {
        cp.install(algo).unwrap();
    }
    let mut outs = Vec::new();
    let mut total = SimTime::ZERO;
    for (i, req) in workload.requests().iter().enumerate() {
        let (out, report) = cp.invoke(req.algo_id, &workload.input(i)).unwrap();
        total += report.total();
        outs.push(out);
    }
    (outs, total)
}

fn overload_config(interarrival: SimTime, deadline: DeadlinePolicy) -> OverloadConfig {
    OverloadConfig {
        interarrival,
        deadline,
        watchdog: WatchdogConfig::default(),
        breaker: BreakerConfig::default(),
        fairness: None,
    }
}

fn engine(workers: usize, oc: OverloadConfig, faults: Option<FaultConfig>) -> Engine {
    Engine::new(EngineConfig {
        workers,
        verify: true,
        shard: ShardPolicy::AlgoModulo,
        overload: Some(oc),
        faults,
        ..EngineConfig::default()
    })
}

/// Asserts the conservation identity both through the stats and
/// through the per-index maps the engine reassembled.
fn assert_conserved(r: &EngineResult) {
    assert!(r.overload.accounted(), "leaked jobs: {:?}", r.overload);
    assert_eq!(r.overload.submitted, r.requests as u64, "all jobs counted");
    assert_eq!(r.overload.shed, r.shed.len() as u64);
    assert_eq!(r.overload.deadline_missed, r.deadline_missed.len() as u64);
    assert_eq!(r.overload.faulted, r.failed.len() as u64);
    for &i in r.shed.keys() {
        assert!(
            !r.deadline_missed.contains_key(&i) && !r.failed.contains_key(&i),
            "job {i} in two terminal states"
        );
    }
}

/// Asserts every completed job's output is byte-identical to the
/// fault-free serial run, and every non-completed slot is empty.
fn assert_survivors_match(r: &EngineResult, baseline: &[Vec<u8>], label: &str) {
    let outputs = r.outputs.as_ref().expect("outputs collected");
    assert_eq!(outputs.len(), baseline.len(), "{label}: output slot count");
    for (i, (got, want)) in outputs.iter().zip(baseline).enumerate() {
        let terminal_error = r.shed.contains_key(&i)
            || r.deadline_missed.contains_key(&i)
            || r.failed.contains_key(&i);
        if terminal_error {
            assert!(got.is_empty(), "{label}: dropped job {i} left bytes behind");
        } else {
            assert_eq!(got, want, "{label}: surviving output {i} corrupted");
        }
    }
}

/// With generous absolute deadlines and no faults, the overload layer
/// is a no-op: everything completes in time, byte-exact.
#[test]
fn generous_deadlines_complete_everything() {
    let w = overload_workload();
    let (baseline, _) = serial_baseline(&w);
    let oc = overload_config(
        SimTime::from_us(100),
        DeadlinePolicy::Absolute(SimTime::from_secs(10)),
    );
    let r = engine(3, oc, None).serve(&w).unwrap();
    assert_conserved(&r);
    assert_eq!(r.overload.completed, 200);
    assert_eq!(r.overload.shed, 0);
    assert_eq!(r.overload.deadline_missed, 0);
    assert_eq!(r.goodput(), 1.0);
    assert_eq!(r.deadline_budget, Some(SimTime::from_secs(10)));
    assert_eq!(r.sojourn.count(), 200, "every completion has a sojourn");
    assert_survivors_match(&r, &baseline, "generous");
    assert_eq!(r.shard_health.len(), 3);
    for timeline in &r.shard_health {
        assert_eq!(
            timeline.as_slice(),
            &[(SimTime::ZERO, BreakerState::Closed)],
            "healthy run must leave every breaker closed"
        );
    }
}

/// A pool offered several times its capacity sheds late work at
/// admission instead of collapsing: goodput stays positive, sheds are
/// counted, and survivors stay byte-exact.
#[test]
fn overloaded_pool_sheds_gracefully() {
    let w = overload_workload();
    let (baseline, total) = serial_baseline(&w);
    // Everything arrives almost at once; the budget covers roughly a
    // quarter of the serial work, so each shard completes its early
    // jobs and sheds the tail.
    let budget = SimTime::from_ps((total.as_ps() / 4).max(1));
    let oc = overload_config(SimTime::from_ns(1), DeadlinePolicy::Absolute(budget));
    let r = engine(2, oc, None).serve(&w).unwrap();
    assert_conserved(&r);
    assert!(
        r.overload.shed > 0,
        "4x offered load must shed: {:?}",
        r.overload
    );
    assert!(
        r.overload.completed > 0,
        "overload must not collapse goodput to zero"
    );
    assert!(r.goodput() > 0.0 && r.goodput() < 1.0);
    assert_eq!(
        r.latency.count() as u64,
        r.requests as u64 - r.overload.shed,
        "shed jobs were never served, everything else was"
    );
    assert_survivors_match(&r, &baseline, "overloaded");
}

/// Stuck cards burn the watchdog timeout, get reset, and the job is
/// re-served from the cold card — with generous deadlines everything
/// still completes byte-exact, and no controller work is lost from
/// the merged stats despite the resets zeroing each card's counters.
#[test]
fn stuck_cards_trigger_watchdog_resets() {
    let w = overload_workload();
    let (baseline, _) = serial_baseline(&w);
    let latency = LatencyRates {
        stuck_card: 0.1,
        ..LatencyRates::ZERO
    };
    let plan = FaultPlan::new(plan_seed(), FaultRates::ZERO).with_latency(latency);
    let scheduled = plan.latency_scheduled_in(w.len() as u64);
    assert!(scheduled > 0, "10% stuck rate over 200 jobs must schedule");
    let oc = overload_config(
        SimTime::from_us(100),
        DeadlinePolicy::Absolute(SimTime::from_secs(100)),
    );
    let r = engine(2, oc, Some(FaultConfig::new(plan)))
        .serve(&w)
        .unwrap();
    assert_conserved(&r);
    assert_eq!(r.overload.completed, 200, "deadlines are generous");
    assert_eq!(r.overload.stuck_injected as usize, scheduled);
    assert_eq!(r.overload.watchdog_resets as usize, scheduled);
    assert!(r.overload.wasted_time >= oc.watchdog.timeout() * scheduled as u64);
    assert_eq!(
        r.stats.requests, 200,
        "watchdog resets must not lose controller stats"
    );
    assert_survivors_match(&r, &baseline, "stuck");
}

/// Every scheduled latency fault is consumed or explicitly inert:
/// `stalls + slow transfers + stuck + inert == scheduled`.
#[test]
fn latency_faults_are_fully_accounted() {
    let w = overload_workload();
    let (baseline, _) = serial_baseline(&w);
    let plan =
        FaultPlan::new(plan_seed(), FaultRates::ZERO).with_latency(LatencyRates::uniform(0.06));
    let scheduled = plan.latency_scheduled_in(w.len() as u64) as u64;
    assert!(scheduled > 0);
    let oc = overload_config(
        SimTime::from_us(100),
        DeadlinePolicy::Absolute(SimTime::from_secs(100)),
    );
    let r = engine(3, oc, Some(FaultConfig::new(plan)))
        .serve(&w)
        .unwrap();
    assert_conserved(&r);
    let consumed =
        r.overload.stalls_injected + r.overload.slow_transfers_injected + r.overload.stuck_injected;
    assert_eq!(
        consumed + r.overload.latency_inert,
        scheduled,
        "latency ledger leaked: {:?}",
        r.overload
    );
    assert!(r.overload.wasted_time > SimTime::ZERO);
    assert_survivors_match(&r, &baseline, "latency");
}

/// Corruption failures trip a shard's breaker; its bounced jobs are
/// rejected while it cools down and every job still lands in exactly
/// one terminal state.
#[test]
fn breaker_quarantines_failing_shard() {
    let w = overload_workload();
    let plan = FaultPlan::new(plan_seed(), FaultRates::uniform(0.05));
    let mut fc = FaultConfig::new(plan);
    fc.max_retries = 0; // every landed fault fails its job
    let oc = OverloadConfig {
        interarrival: SimTime::from_us(100),
        deadline: DeadlinePolicy::Absolute(SimTime::from_secs(100)),
        watchdog: WatchdogConfig::default(),
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: SimTime::from_secs(1), // stays open for the run
        },
        fairness: None,
    };
    let r = engine(3, oc, Some(fc)).serve(&w).unwrap();
    assert_conserved(&r);
    assert!(
        r.overload.faulted > 0,
        "5% rate, no retries: jobs must fail"
    );
    assert!(r.overload.breaker_trips > 0, "threshold 1 must trip");
    assert!(
        r.overload.breaker_rejections > 0,
        "an open breaker must bounce followers"
    );
    assert!(
        r.overload.redistributed + r.overload.shed >= 1,
        "bounced jobs must be resolved by redistribution or shed: {:?}",
        r.overload
    );
    let opened = r
        .shard_health
        .iter()
        .any(|t| t.iter().any(|&(_, s)| s == BreakerState::Open));
    assert!(opened, "health timeline must record the trip");
}

/// The requeue rescue pass respects the remaining deadline budget:
/// with deadlines that all expire before the pool drains nothing is
/// rescued, with generous deadlines every failed job is.
#[test]
fn requeue_rescue_respects_deadline_budget() {
    let w = overload_workload();
    let (_, total) = serial_baseline(&w);
    let plan = FaultPlan::new(plan_seed(), FaultRates::uniform(0.05));
    let mut fc = FaultConfig::new(plan);
    fc.max_retries = 0;
    fc.requeue = true;
    // a breaker that never trips keeps this test about the rescue pass
    let breaker = BreakerConfig {
        failure_threshold: u32::MAX,
        cooldown: SimTime::from_ms(5),
    };
    // Tight: every deadline passes before the pool drains (the budget
    // is a quarter of the serial work and arrivals are instantaneous),
    // so the rescue pass may not resurrect anything.
    let tight = OverloadConfig {
        interarrival: SimTime::from_ns(1),
        deadline: DeadlinePolicy::Absolute(SimTime::from_ps((total.as_ps() / 4).max(1))),
        watchdog: WatchdogConfig::default(),
        breaker,
        fairness: None,
    };
    let r_tight = engine(2, tight, Some(fc)).serve(&w).unwrap();
    assert_conserved(&r_tight);
    assert_eq!(
        r_tight.faults.requeues, 0,
        "no deadline budget remains after the drain, nothing to rescue"
    );
    // Generous: the same failures are all rescued in time.
    let generous = OverloadConfig {
        interarrival: SimTime::from_us(100),
        deadline: DeadlinePolicy::Absolute(SimTime::from_secs(100)),
        watchdog: WatchdogConfig::default(),
        breaker,
        fairness: None,
    };
    let r_gen = engine(2, generous, Some(fc)).serve(&w).unwrap();
    assert_conserved(&r_gen);
    assert!(r_gen.faults.requeues > 0, "generous budget must rescue");
    assert_eq!(r_gen.overload.faulted, 0, "every failure was rescued");
    assert_eq!(r_gen.overload.completed, 200);
}

/// A rescued job is classified like every other served job: one that
/// finishes on the spare past its deadline is deadline-missed, its
/// output is dropped, and it does not count as rescued. The spare's
/// service time still extends the makespan.
#[test]
fn late_rescues_are_deadline_missed_not_completed() {
    use aaod_algos::ids;
    let w = Workload::zipf(
        &[ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA],
        200,
        1.1,
        64,
        3,
    );
    let (baseline, _) = serial_baseline(&w);
    let budget = SimTime::from_us(1600);
    let run = |requeue: bool| {
        let mut fc = FaultConfig::new(FaultPlan::new(7, FaultRates::uniform(0.05)));
        fc.max_retries = 0;
        fc.requeue = requeue;
        let oc = OverloadConfig {
            interarrival: SimTime::from_us(5),
            deadline: DeadlinePolicy::Absolute(budget),
            watchdog: WatchdogConfig::default(),
            breaker: BreakerConfig {
                failure_threshold: u32::MAX,
                cooldown: SimTime::from_ms(5),
            },
            fairness: None,
        };
        Engine::new(EngineConfig {
            workers: 2,
            verify: true,
            shard: ShardPolicy::AlgoModulo,
            overload: Some(oc),
            faults: Some(fc),
            trace: TraceConfig::counters(),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap()
    };
    let pool_only = run(false);
    let r = run(true);
    assert_conserved(&r);
    r.overload.check().unwrap();
    for t in &r.tenants {
        t.check().unwrap();
    }
    assert_survivors_match(&r, &baseline, "late rescue");
    // Every completed job, rescued ones included, records a sojourn
    // within the budget: none finished late and still completed.
    assert_eq!(r.sojourn.count() as u64, r.overload.completed);
    assert!(
        r.sojourn.summary_ns().max <= budget.as_ns(),
        "a completed job overran its deadline: {} ns",
        r.sojourn.summary_ns().max
    );
    // Non-vacuous: the rescue pass re-served failed jobs, and some of
    // them finished past their deadline.
    let rescued_late = r.deadline_missed.len() - pool_only.deadline_missed.len();
    assert!(r.faults.requeues > 0, "the scenario must rescue jobs");
    assert!(rescued_late > 0, "the scenario must rescue some jobs late");
    assert_eq!(
        pool_only.failed.len() - r.failed.len(),
        r.faults.requeues as usize + rescued_late,
        "every re-served job is rescued or deadline-missed"
    );
    assert!(
        r.makespan > pool_only.makespan,
        "the spare extends the makespan"
    );
    let counters = &r.trace.as_ref().expect("trace requested").metrics.counters;
    assert_eq!(counters.requeued, r.faults.requeues);
}

/// Percentile deadline policies resolve to a positive budget that is
/// a pure function of the workload.
#[test]
fn percentile_policy_calibrates_deterministically() {
    let w = overload_workload();
    let oc = overload_config(
        SimTime::from_us(100),
        DeadlinePolicy::Percentile {
            pct: 95.0,
            multiplier: 8.0,
        },
    );
    let a = engine(2, oc, None).serve(&w).unwrap();
    let b = engine(2, oc, None).serve(&w).unwrap();
    let budget = a.deadline_budget.expect("overload mode resolves a budget");
    assert!(budget > SimTime::ZERO);
    assert_eq!(a.deadline_budget, b.deadline_budget);
}

/// A percentile budget is `multiplier ×` the nearest-rank percentile
/// of the per-request steady-state estimates: each algorithm's second,
/// resident invocation on a scratch card with its first-seen input.
#[test]
fn percentile_budget_is_the_nearest_rank_estimate() {
    use aaod_algos::ids;
    let w = Workload::zipf(&[ids::SHA1, ids::CRC8], 41, 1.1, 48, 17);
    let mut scratch = CoProcessor::default();
    let mut est = std::collections::BTreeMap::new();
    for (i, req) in w.requests().iter().enumerate() {
        if est.contains_key(&req.algo_id) {
            continue;
        }
        let input = w.input(i);
        scratch.install(req.algo_id).unwrap();
        scratch.invoke(req.algo_id, &input).unwrap();
        let (_, report) = scratch.invoke(req.algo_id, &input).unwrap();
        est.insert(req.algo_id, report.total());
    }
    assert_eq!(est.len(), 2, "both algorithms requested");
    let mut per_request: Vec<SimTime> = w.requests().iter().map(|r| est[&r.algo_id]).collect();
    per_request.sort();
    let n = per_request.len();
    assert!(per_request[0] < per_request[n - 1], "estimates differ");
    let median = per_request[((n - 1) as f64 * 0.5).round() as usize];
    for (pct, base) in [
        (0.0, per_request[0]),
        (50.0, median),
        (100.0, per_request[n - 1]),
    ] {
        let oc = overload_config(
            SimTime::from_us(100),
            DeadlinePolicy::Percentile {
                pct,
                multiplier: 3.0,
            },
        );
        let r = engine(2, oc, None).serve(&w).unwrap();
        assert_eq!(
            r.deadline_budget,
            Some(SimTime::from_ps(base.as_ps() * 3)),
            "pct {pct}"
        );
    }
}

/// The same seed reproduces the identical overload report — outputs,
/// terminal-state maps, counters, timing and health timelines.
#[test]
fn same_seed_reproduces_identical_overload_report() {
    let w = overload_workload();
    let run = || {
        let plan = FaultPlan::new(plan_seed(), FaultRates::uniform(0.03))
            .with_latency(LatencyRates::uniform(0.04));
        let oc = overload_config(
            SimTime::from_us(50),
            DeadlinePolicy::Percentile {
                pct: 95.0,
                multiplier: 200.0,
            },
        );
        engine(3, oc, Some(FaultConfig::new(plan)))
            .serve(&w)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_conserved(&a);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.deadline_missed, b.deadline_missed);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.overload, b.overload);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.deadline_budget, b.deadline_budget);
    assert_eq!(a.shard_health, b.shard_health);
    assert_eq!(a.stats, b.stats);
}
