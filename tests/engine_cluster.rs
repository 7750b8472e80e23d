//! Fleet-level cluster tests: card fault domains, health-checked
//! routing, failover, hedging and the conservation ledger.
//!
//! The invariants under test are the contract of the cluster layer:
//!
//! * **byte identity** — every surviving job output is byte-identical
//!   to a fault-free serial oracle, under any seeded card-kill
//!   schedule and no matter which replica served it;
//! * **job conservation** — `submitted == completed + shed +
//!   deadline_missed + faulted + lost_unrecoverable`
//!   ([`aaod_core::ClusterStats::accounted`]);
//! * **breaker reconciliation** — `failovers + hedges ==
//!   breaker_rejections + card_failures`: every redirection decision
//!   maps to exactly one breaker rejection or one observed card
//!   failure ([`aaod_core::ClusterStats::reconciled`]);
//! * **determinism** — the same (workload, plan, seed) reproduces the
//!   identical result, failover/hedge counts, health timelines and
//!   trace included.
//!
//! The cluster-plan seed is taken from `AAOD_CLUSTER_SEED` when set
//! (the CI cluster matrix sweeps it) and falls back to a fixed
//! default.

use aaod_algos::AlgorithmBank;
use aaod_core::{BreakerState, Cluster, ClusterConfig, CoProcessor, JobError, TraceConfig};
use aaod_sim::{CardFault, CardFaultRates, ClusterFaultPlan, SimTime};
use aaod_workload::mixes::fleet_workload;
use aaod_workload::Workload;

/// Seed for the cluster fault plan: `AAOD_CLUSTER_SEED` if set.
fn plan_seed() -> u64 {
    aaod_bench::env_seed("AAOD_CLUSTER_SEED", 0xC1A57E2)
}

/// The fault horizon every plan in this suite runs under, sized so
/// fault fractions land inside the arrival span of a 300–400 job run
/// (interarrival 2 us), not after it.
const HORIZON: SimTime = SimTime::from_us(800);

/// A small fleet config the tests share: 8 cards, hot algorithms on
/// three replicas.
fn fleet_config() -> ClusterConfig {
    ClusterConfig {
        cards: 8,
        replication: 3,
        card_workers: 2,
        ..ClusterConfig::default()
    }
}

/// Fault-free serial oracle: the whole workload on one card, in
/// submission order.
fn serial_oracle(workload: &Workload) -> Vec<Vec<u8>> {
    let mut cp = CoProcessor::default();
    for &algo in &workload.distinct_algos() {
        cp.install(algo).unwrap();
    }
    workload
        .requests()
        .iter()
        .enumerate()
        .map(|(i, req)| cp.invoke(req.algo_id, &workload.input(i)).unwrap().0)
        .collect()
}

/// Every surviving output must match the oracle byte-for-byte, and
/// the ledger must balance; returns the goodput for caller asserts.
fn check_run(cluster: &Cluster, workload: &Workload, oracle: &[Vec<u8>]) -> f64 {
    let bank = AlgorithmBank::standard();
    let result = cluster.serve(workload, &bank).unwrap();
    let outputs = result.outputs.as_ref().expect("outputs collected");
    for (i, out) in outputs.iter().enumerate() {
        let has_result = result.assignment[i].is_some()
            && !result.failed.contains_key(&i)
            && !result.deadline_missed.contains_key(&i);
        if has_result {
            assert_eq!(out, &oracle[i], "survivor output diverged at job {i}");
        } else {
            assert!(out.is_empty(), "non-surviving job {i} left bytes behind");
        }
    }
    assert!(result.stats.accounted(), "ledger: {:?}", result.stats);
    assert!(result.stats.reconciled(), "ledger: {:?}", result.stats);
    // The ledger's breaker tallies are the per-card timelines, summed.
    let rejections: u64 = result.card_health.iter().map(|h| h.rejections).sum();
    let failures: u64 = result.card_health.iter().map(|h| h.failures).sum();
    assert_eq!(result.stats.breaker_rejections, rejections);
    assert_eq!(result.stats.card_failures, failures);
    // Lost and unroutable jobs degrade to the typed cluster errors.
    for (i, err) in &result.failed {
        assert!(
            matches!(
                err,
                JobError::CardLost { .. } | JobError::NoReplica { .. } | JobError::Faulted { .. }
            ),
            "job {i} failed with unexpected error {err}"
        );
    }
    result.stats.goodput()
}

#[test]
fn healthy_fleet_completes_everything() {
    let workload = fleet_workload(300, plan_seed());
    let oracle = serial_oracle(&workload);
    let cluster = Cluster::new(fleet_config());
    let goodput = check_run(&cluster, &workload, &oracle);
    assert_eq!(goodput, 1.0, "healthy fleet must complete every job");
}

#[test]
fn survivors_match_the_oracle_under_any_kill_schedule() {
    let workload = fleet_workload(300, plan_seed());
    let oracle = serial_oracle(&workload);
    // Kill one card at several points in the run, including t = 0
    // (dead at bring-up) and a mid-run crash on two cards at once.
    for (card, frac) in [(0usize, 0.0), (3, 0.35), (5, 0.7)] {
        let plan =
            ClusterFaultPlan::new(plan_seed(), CardFaultRates::ZERO, HORIZON).with_kill(card, frac);
        let cluster = Cluster::new(ClusterConfig {
            plan: Some(plan),
            ..fleet_config()
        });
        let goodput = check_run(&cluster, &workload, &oracle);
        assert!(
            goodput > 0.8,
            "kill ({card}, {frac}) collapsed goodput to {goodput}"
        );
    }
    let plan = ClusterFaultPlan::new(plan_seed(), CardFaultRates::ZERO, HORIZON)
        .with_kill(1, 0.2)
        .with_kill(6, 0.5);
    let cluster = Cluster::new(ClusterConfig {
        plan: Some(plan),
        ..fleet_config()
    });
    check_run(&cluster, &workload, &oracle);
}

#[test]
fn same_seed_reproduces_the_run_exactly() {
    let workload = fleet_workload(250, plan_seed());
    let bank = AlgorithmBank::standard();
    let plan = || {
        ClusterFaultPlan::new(plan_seed(), CardFaultRates::uniform(0.08), HORIZON).with_kill(2, 0.4)
    };
    let config = || ClusterConfig {
        plan: Some(plan()),
        trace: TraceConfig::full(),
        ..fleet_config()
    };
    let a = Cluster::new(config()).serve(&workload, &bank).unwrap();
    let b = Cluster::new(config()).serve(&workload, &bank).unwrap();
    assert_eq!(a.stats, b.stats, "ledger must replay exactly");
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.residency, b.residency);
    for (ha, hb) in a.card_health.iter().zip(&b.card_health) {
        assert_eq!(ha.breaker_timeline, hb.breaker_timeline);
        assert_eq!(
            (ha.trips, ha.reopens, ha.probes),
            (hb.trips, hb.reopens, hb.probes)
        );
    }
    let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
    assert_eq!(
        ta.to_jsonl(),
        tb.to_jsonl(),
        "trace must replay byte-identically"
    );
    // A different seed must not replay the same fault schedule's
    // ledger (the workload is pinned, so any drift is the plan's).
    let shifted = ClusterFaultPlan::new(plan_seed() ^ 1, CardFaultRates::uniform(0.08), HORIZON);
    let c = Cluster::new(ClusterConfig {
        plan: Some(shifted),
        ..fleet_config()
    })
    .serve(&workload, &bank)
    .unwrap();
    assert!(c.stats.accounted() && c.stats.reconciled());
}

#[test]
fn conservation_holds_under_drawn_fleet_chaos() {
    let workload = fleet_workload(300, plan_seed() ^ 0xFEE7);
    let oracle = serial_oracle(&workload);
    // Seeded draws: crashes, hangs, flaps and SEU pressure all at
    // once, across three derived seeds.
    for salt in [0u64, 1, 2] {
        let rates = CardFaultRates {
            crash: 0.08,
            hang: 0.10,
            flap: 0.10,
            seu_pressure: 0.25,
            ..CardFaultRates::ZERO
        };
        let plan = ClusterFaultPlan::new(plan_seed().wrapping_add(salt), rates, HORIZON);
        let cluster = Cluster::new(ClusterConfig {
            plan: Some(plan),
            ..fleet_config()
        });
        check_run(&cluster, &workload, &oracle);
    }
}

#[test]
fn flapping_card_escalates_and_still_balances() {
    let workload = fleet_workload(400, plan_seed());
    let oracle = serial_oracle(&workload);
    // One card flaps faster than the breaker's cool-down: the breaker
    // keeps re-opening and the ledger must still balance, with the
    // flapping card's failures reconciled.
    let flap = CardFault::Flap {
        from: SimTime::from_us(50),
        period: SimTime::from_us(120),
        downtime: SimTime::from_us(60),
    };
    let plan =
        ClusterFaultPlan::new(plan_seed(), CardFaultRates::ZERO, HORIZON).with_fault(2, Some(flap));
    let cluster = Cluster::new(ClusterConfig {
        plan: Some(plan),
        ..fleet_config()
    });
    let bank = AlgorithmBank::standard();
    let result = cluster.serve(&workload, &bank).unwrap();
    assert!(result.stats.accounted(), "{:?}", result.stats);
    assert!(result.stats.reconciled(), "{:?}", result.stats);
    let health = &result.card_health[2];
    // 50 us onset, 120 us period over the 800 us horizon: six full
    // cycles, so the card must have bounced at least five times.
    assert!(
        health.down_edges >= 5,
        "flap produced only {} down edges",
        health.down_edges
    );
    assert!(
        result.stats.failovers + result.stats.hedges > 0,
        "router never redirected around the flapping card"
    );
    check_run(&cluster, &workload, &oracle);
}

#[test]
fn dead_card_emits_health_edges_and_failover_trace() {
    let workload = fleet_workload(200, plan_seed());
    let bank = AlgorithmBank::standard();
    let plan = ClusterFaultPlan::new(plan_seed(), CardFaultRates::ZERO, HORIZON).with_kill(4, 0.25);
    let cluster = Cluster::new(ClusterConfig {
        plan: Some(plan),
        trace: TraceConfig::full(),
        ..fleet_config()
    });
    let result = cluster.serve(&workload, &bank).unwrap();
    let trace = result.trace.expect("tracing on");
    let jsonl = trace.to_jsonl();
    assert!(jsonl.contains("card_down"), "missing card_down event");
    assert_eq!(trace.metrics.counters.card_downs, 1);
    assert_eq!(
        trace.metrics.counters.failovers + trace.metrics.counters.hedges,
        result.stats.failovers + result.stats.hedges,
        "trace counters must match the ledger"
    );
    // Per-shard timestamps stay monotone even though the router emits
    // in processing order.
    for shard_events in trace.events.chunk_by(|a, b| a.shard == b.shard) {
        let mut prev = SimTime::ZERO;
        for e in shard_events {
            assert!(e.ts >= prev, "shard {} went back in time", e.shard);
            prev = e.ts;
        }
    }
}

#[test]
fn seu_pressure_faults_jobs_but_keeps_the_ledger() {
    use aaod_core::FaultConfig;
    use aaod_sim::{FaultPlan, FaultRates};
    let workload = fleet_workload(300, plan_seed());
    let bank = AlgorithmBank::standard();
    // Engine-level SEU faults with zero retries, elevated on the
    // cards the plan marks as high-pressure.
    let template = FaultConfig {
        max_retries: 0,
        ..FaultConfig::new(FaultPlan::new(plan_seed(), FaultRates::uniform(0.02)))
    };
    let rates = CardFaultRates {
        seu_pressure: 0.5,
        ..CardFaultRates::ZERO
    };
    let plan = ClusterFaultPlan::new(plan_seed(), rates, HORIZON);
    let cluster = Cluster::new(ClusterConfig {
        plan: Some(plan),
        card_faults: Some(template),
        ..fleet_config()
    });
    let result = cluster.serve(&workload, &bank).unwrap();
    assert!(result.stats.accounted(), "{:?}", result.stats);
    assert!(result.stats.reconciled(), "{:?}", result.stats);
    assert!(
        result.stats.faulted > 0,
        "SEU plan at 8% per request never faulted a job"
    );
    assert_eq!(
        result.stats.faulted,
        result
            .failed
            .values()
            .filter(|e| matches!(e, JobError::Faulted { .. }))
            .count() as u64
    );
}

#[test]
fn deadline_budget_sheds_instead_of_collapsing() {
    let workload = fleet_workload(300, plan_seed());
    let bank = AlgorithmBank::standard();
    // A tight deadline with a killed card: backoff pushes some jobs
    // past their budget; they must shed or miss, never vanish.
    let plan = ClusterFaultPlan::new(plan_seed(), CardFaultRates::ZERO, HORIZON).with_kill(0, 0.0);
    let cluster = Cluster::new(ClusterConfig {
        plan: Some(plan),
        deadline: Some(SimTime::from_us(120)),
        ..fleet_config()
    });
    let result = cluster.serve(&workload, &bank).unwrap();
    assert!(result.stats.accounted(), "{:?}", result.stats);
    assert!(result.stats.reconciled(), "{:?}", result.stats);
    assert!(
        result.stats.completed > 0,
        "deadline pressure must degrade gracefully, not collapse"
    );
    assert_eq!(
        result.stats.shed + result.stats.deadline_missed,
        (result.shed.len() + result.deadline_missed.len()) as u64
    );
}

#[test]
fn residency_replicates_hot_algorithms_only() {
    let workload = fleet_workload(400, plan_seed());
    let bank = AlgorithmBank::standard();
    let cluster = Cluster::new(fleet_config());
    let result = cluster.serve(&workload, &bank).unwrap();
    let mut replica_counts = std::collections::BTreeMap::new();
    for residency in &result.residency {
        for &algo in residency {
            *replica_counts.entry(algo).or_insert(0usize) += 1;
        }
    }
    // Every workload algorithm is resident somewhere; at least one is
    // replicated and at least one stays single-resident.
    for algo in workload.distinct_algos() {
        assert!(replica_counts.contains_key(&algo), "algo {algo} unplaced");
    }
    assert!(
        replica_counts.values().any(|&c| c > 1),
        "no algorithm was replicated: {replica_counts:?}"
    );
    assert!(
        replica_counts.values().any(|&c| c == 1),
        "every algorithm was replicated: {replica_counts:?}"
    );
}

#[test]
fn empty_workload_yields_an_empty_balanced_result() {
    let bank = AlgorithmBank::standard();
    let workload = Workload::from_trace(std::iter::empty(), 8);
    let cluster = Cluster::new(fleet_config());
    let result = cluster.serve(&workload, &bank).unwrap();
    assert_eq!(result.requests, 0);
    assert!(result.stats.accounted());
    assert!(result.stats.reconciled());
    assert_eq!(result.goodput(), 1.0);
    assert!(result.makespan.is_zero());
    assert_eq!(result.outputs, Some(Vec::new()));
    // The general path reports what any run does for an idle card: it
    // served nothing, and its breaker starts (and stays) closed.
    assert_eq!(result.card_health.len(), 8);
    for health in &result.card_health {
        assert_eq!(health.served, 0);
        assert_eq!(health.trips, 0);
        assert_eq!(
            health.breaker_timeline,
            vec![(SimTime::ZERO, BreakerState::Closed)]
        );
    }
}

#[test]
#[should_panic(expected = "cluster needs 2..=64 cards")]
fn oversized_fleet_is_rejected() {
    let _ = Cluster::new(ClusterConfig {
        cards: 65,
        ..ClusterConfig::default()
    });
}
