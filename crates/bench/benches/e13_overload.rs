//! E13 (extension) — overload sweep through the deadline-aware engine.
//!
//! Calibrates the pool's capacity from a fault-free closed-loop run,
//! then offers the same skewed stream at 1x, 2x and 4x that capacity
//! with per-job deadlines, latency faults (configuration stalls, slow
//! PCI, stuck cards), the watchdog and per-shard circuit breakers all
//! engaged. The contract under test is *graceful* degradation: an
//! overloaded pool sheds late work at admission and keeps serving the
//! rest — goodput falls with offered load but never collapses — and
//! the job ledger stays conserved at every operating point.

use aaod_bench::criterion_fast;
use aaod_core::{
    BreakerConfig, DeadlinePolicy, Engine, EngineConfig, FaultConfig, OverloadConfig, ShardPolicy,
    WatchdogConfig,
};
use aaod_sim::report::Table;
use aaod_sim::{FaultPlan, FaultRates, LatencyRates, SimTime};
use aaod_workload::{mixes, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const PLAN_SEED: u64 = 0xE13;
const WORKERS: usize = 4;

fn overload_workload() -> Workload {
    Workload::zipf(&mixes::full_bank(), 400, 1.1, 192, 1307)
}

fn engine(overload: Option<OverloadConfig>, faults: Option<FaultConfig>) -> Engine {
    Engine::new(EngineConfig {
        workers: WORKERS,
        collect_outputs: false,
        shard: ShardPolicy::Balanced,
        overload,
        faults,
        ..EngineConfig::default()
    })
}

/// Overload tuning at `load` times the pool's calibrated capacity:
/// requests arrive every `capacity_interarrival / load`.
fn config_at(load: f64, capacity_interarrival: SimTime, budget: SimTime) -> OverloadConfig {
    let ia = (capacity_interarrival.as_ps() as f64 / load)
        .round()
        .max(1.0) as u64;
    OverloadConfig {
        interarrival: SimTime::from_ps(ia),
        deadline: DeadlinePolicy::Absolute(budget),
        // a watchdog timeout well under the deadline budget, so a
        // stuck card's job can still complete after the reset
        watchdog: WatchdogConfig {
            heartbeat: SimTime::from_us(100),
            missed_beats: 3,
        },
        // hair-trigger breaker: one deadline miss quarantines the
        // shard briefly, so the sweep exercises the trip / bounce /
        // redistribute path, not just admission shedding
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: SimTime::from_us(100),
        },
        fairness: None,
    }
}

fn latency_plan() -> FaultPlan {
    FaultPlan::new(PLAN_SEED, FaultRates::ZERO).with_latency(LatencyRates::uniform(0.02))
}

/// Capacity calibration: drain the stream under the *same* latency
/// faults with instantaneous arrivals and effectively infinite
/// deadlines — the resulting makespan is the fastest this (faulted)
/// pool can serve the work, so arrivals spaced `makespan / n` offer
/// exactly 1x effective capacity. The deadline budget is a quarter of
/// that drain time: roomy at 1x, hopeless for the backlog tail at 4x.
fn calibrate(w: &Workload) -> (SimTime, SimTime) {
    let generous = OverloadConfig {
        interarrival: SimTime::from_ns(1),
        deadline: DeadlinePolicy::Absolute(SimTime::from_secs(100)),
        watchdog: WatchdogConfig {
            heartbeat: SimTime::from_us(100),
            missed_beats: 3,
        },
        breaker: BreakerConfig::default(),
        fairness: None,
    };
    let drain = engine(Some(generous), Some(FaultConfig::new(latency_plan())))
        .serve(w)
        .expect("calibration serve");
    assert_eq!(
        drain.overload.completed,
        w.len() as u64,
        "calibration must complete everything: {:?}",
        drain.overload
    );
    let capacity_ia = SimTime::from_ps(drain.makespan.as_ps() / w.len() as u64);
    let budget = SimTime::from_ps(drain.makespan.as_ps() / 4);
    (capacity_ia, budget)
}

fn print_overload_table() {
    let w = overload_workload();
    let (capacity_ia, budget) = calibrate(&w);
    let mut t = Table::new(
        "E13: offered-load sweep, 4-shard engine, 2%/site latency faults, zipf(s=1.1) full bank (400 reqs)",
        &[
            "load",
            "completed",
            "shed",
            "missed",
            "faulted",
            "goodput",
            "watchdog",
            "trips",
            "p99 latency",
        ],
    );
    let mut json_rows = Vec::new();
    let mut goodput = Vec::new();
    for load in [1.0f64, 2.0, 4.0] {
        let oc = config_at(load, capacity_ia, budget);
        let r = engine(Some(oc), Some(FaultConfig::new(latency_plan())))
            .serve(&w)
            .expect("overload serve");
        assert!(
            r.overload.accounted(),
            "load {load}: leaked jobs: {:?}",
            r.overload
        );
        assert!(
            r.overload.watchdog_resets > 0,
            "load {load}: 2% stuck-card rate must reset something"
        );
        assert!(
            r.overload.breaker_trips > 0,
            "load {load}: the hair-trigger breaker must trip"
        );
        goodput.push(r.goodput());
        let p99 = r.latency.summary_ns().p99;
        t.row_owned(vec![
            format!("{load:.0}x"),
            r.overload.completed.to_string(),
            r.overload.shed.to_string(),
            r.overload.deadline_missed.to_string(),
            r.overload.faulted.to_string(),
            format!("{:.0}%", r.goodput() * 100.0),
            r.overload.watchdog_resets.to_string(),
            r.overload.breaker_trips.to_string(),
            format!("{:.1}us", p99 / 1000.0),
        ]);
        json_rows.push(format!(
            "{{\"load\":{load},\"submitted\":{},\"completed\":{},\"shed\":{},\
             \"deadline_missed\":{},\"faulted\":{},\"goodput\":{:.4},\"shed_rate\":{:.4},\
             \"watchdog_resets\":{},\"breaker_trips\":{},\"breaker_rejections\":{},\
             \"wasted_time_ns\":{:.0},\"p99_latency_ns\":{p99:.0},\"makespan_ns\":{:.0}}}",
            r.overload.submitted,
            r.overload.completed,
            r.overload.shed,
            r.overload.deadline_missed,
            r.overload.faulted,
            r.goodput(),
            r.overload.shed_rate(),
            r.overload.watchdog_resets,
            r.overload.breaker_trips,
            r.overload.breaker_rejections,
            r.overload.wasted_time.as_ns(),
            r.makespan.as_ns(),
        ));
    }
    println!("{t}");
    // Regression floors: goodput must degrade monotonically-ish with
    // offered load but never collapse — the admission control sheds
    // the tail instead of letting the backlog starve everything.
    assert!(
        goodput[0] >= 0.70,
        "regression: 1x offered load should mostly complete, got {:.0}%",
        goodput[0] * 100.0
    );
    assert!(
        goodput[2] >= 0.40,
        "regression: 4x offered load collapsed goodput to {:.0}%",
        goodput[2] * 100.0
    );
    assert!(
        goodput[0] >= goodput[2],
        "goodput should not improve under heavier load: {goodput:?}"
    );
    println!(
        "BENCH_JSON {{\"experiment\":\"e13_overload\",\"rows\":[{}]}}",
        json_rows.join(",")
    );
}

fn bench(c: &mut Criterion) {
    print_overload_table();
    let w = overload_workload();
    let (capacity_ia, budget) = calibrate(&w);
    let mut group = c.benchmark_group("e13_overload");
    for load in [1.0f64, 4.0] {
        let oc = config_at(load, capacity_ia, budget);
        let eng = engine(Some(oc), Some(FaultConfig::new(latency_plan())));
        group.bench_function(format!("zipf_full_bank_load_{load}x"), |b| {
            b.iter(|| black_box(eng.serve(&w).expect("serve")));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_fast();
    targets = bench
}
criterion_main!(benches);
