//! Dynamic-dispatch regression tests (E15): the work-stealing planner
//! of [`ShardPolicy::Dynamic`] must *win* on the adversarial straggler
//! mix and must stay a pure function of the workload — byte-identical
//! outputs, repeatable counters, and a trace whose dispatch/steal
//! events reconcile exactly with the planner's statistics.
//!
//! The invariants under test:
//!
//! * **makespan win** — on the straggler mix (a compute-dense hot
//!   algorithm hiding behind a small byte share) the dynamic planner
//!   beats both static policies, and beats `Balanced` by at least the
//!   1.2× floor the E15 experiment commits to;
//! * **correctness** — outputs are byte-identical to the serial
//!   reference at every worker count;
//! * **determinism** — two runs produce identical results, dispatch
//!   statistics included, and the trace stream is byte-identical;
//! * **reconciliation** — every job gets exactly one `dispatch` trace
//!   event, steal events chain `deal target → … → final shard`, and
//!   the event counts equal [`aaod_core::DispatchStats`];
//! * **conservation** — under an overloaded arrival process the
//!   terminal-state identity `submitted == completed + shed +
//!   deadline_missed + faulted` still holds with dynamic dispatch.
//!
//! The workload seed is taken from `AAOD_DISPATCH_SEED` when set (the
//! CI dispatch matrix sweeps it) and falls back to a fixed default.

use aaod_algos::{ids, AlgorithmBank};
use aaod_core::{
    CoProcessor, DeadlinePolicy, Engine, EngineConfig, EngineResult, OverloadConfig, ShardPolicy,
    TraceConfig,
};
use aaod_sim::trace::EventKind;
use aaod_sim::SimTime;
use aaod_workload::{mixes, TenantSpec, Workload};
use std::collections::BTreeMap;

/// Workload seed: `AAOD_DISPATCH_SEED` if set, else fixed.
fn dispatch_seed() -> u64 {
    aaod_bench::env_seed("AAOD_DISPATCH_SEED", 0xD15)
}

/// The canonical adversarial mix for this suite. 1000 requests: long
/// enough that replicating the hot algorithm amortizes its
/// reconfiguration on every seed the CI matrix sweeps.
fn straggler() -> Workload {
    mixes::straggler_workload(1000, dispatch_seed())
}

/// Serial reference outputs on one card (install is bring-up, not
/// serving time, so every distinct algorithm is installed first).
fn serial_reference(workload: &Workload) -> Vec<Vec<u8>> {
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

fn serve(policy: ShardPolicy, workers: usize, workload: &Workload) -> EngineResult {
    Engine::new(EngineConfig {
        workers,
        verify: true,
        shard: policy,
        ..EngineConfig::default()
    })
    .serve(workload)
    .expect("serve")
}

/// The E15 headline: on the straggler mix at 4 workers the dynamic
/// planner beats `Balanced` by at least the experiment's 1.2× floor,
/// and beats `AlgoModulo` (which pins the hot algorithm to one shard
/// by construction) at least as much.
#[test]
fn dynamic_beats_static_policies_on_straggler_mix() {
    let workload = straggler();
    let dynamic = serve(ShardPolicy::Dynamic, 4, &workload);
    let balanced = serve(ShardPolicy::Balanced, 4, &workload);
    let modulo = serve(ShardPolicy::AlgoModulo, 4, &workload);

    let dyn_ps = dynamic.makespan.as_ps();
    assert!(dyn_ps > 0, "empty makespan");
    let vs_balanced = balanced.makespan.as_ps() as f64 / dyn_ps as f64;
    let vs_modulo = modulo.makespan.as_ps() as f64 / dyn_ps as f64;
    assert!(
        vs_balanced >= 1.2,
        "dynamic vs balanced speedup {vs_balanced:.3} below the 1.2x floor \
         (dynamic {dyn_ps} ps, balanced {} ps)",
        balanced.makespan.as_ps()
    );
    assert!(
        vs_modulo >= 1.2,
        "dynamic vs algo-modulo speedup {vs_modulo:.3} below the 1.2x floor"
    );
    // The win comes from spreading the hot algorithm, which requires
    // actual planner activity: deals for every job, and at least one
    // affinity hit (the mix has long same-algorithm runs).
    assert_eq!(dynamic.dispatch.dealt, workload.len() as u64);
    assert!(dynamic.dispatch.affinity_hits > 0, "no affinity reuse");
    // Static policies never deal or steal.
    assert_eq!(balanced.dispatch, Default::default());
    assert_eq!(modulo.dispatch, Default::default());
}

/// Outputs under dynamic dispatch are byte-identical to the serial
/// reference at every worker count — stealing moves jobs between
/// queues but never reorders results or corrupts bytes.
#[test]
fn dynamic_outputs_match_serial_at_every_width() {
    let workload = straggler();
    let expected = serial_reference(&workload);
    for workers in [1, 2, 3, 4, 7] {
        let r = serve(ShardPolicy::Dynamic, workers, &workload);
        assert_eq!(
            r.outputs.as_ref().unwrap(),
            &expected,
            "{workers}-worker dynamic outputs diverged from serial"
        );
        assert_eq!(r.requests, workload.len());
        assert_eq!(r.dispatch.dealt, workload.len() as u64);
        if workers == 1 {
            // A single shard has nobody to steal from.
            assert_eq!(r.dispatch.steals, 0, "single-worker run stole");
        }
    }
}

/// Two runs of the same (workload, config) are identical in every
/// observable: outputs, timings, and the planner's own statistics.
#[test]
fn dynamic_run_is_repeatable() {
    let workload = straggler();
    let a = serve(ShardPolicy::Dynamic, 4, &workload);
    let b = serve(ShardPolicy::Dynamic, 4, &workload);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.per_request_hit, b.per_request_hit);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.shard_busy, b.shard_busy);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.dispatch, b.dispatch);
}

/// Traced run: the dispatch/steal event stream reconciles exactly
/// with the planner statistics, and per job the chain
/// `dispatch.to → steal.from → steal.to → … → enqueue.to` is
/// consistent — each steal's `from` is the job's current owner and
/// the last owner is the shard that enqueued it.
#[test]
fn trace_events_reconcile_with_dispatch_stats() {
    // Pinned seed, independent of `AAOD_DISPATCH_SEED`: whether the
    // amortized bundle steal fires is seed-dependent (the deal must
    // leave a gap wide enough to pay for the thief's reconfiguration),
    // and seed 1 is a known steal-producing instance. The
    // reconciliation equalities below hold for any workload; the
    // pinned seed is what makes the `steals > 0` leg meaningful.
    let workload = mixes::straggler_workload(1000, 1);
    let r = Engine::new(EngineConfig {
        workers: 4,
        verify: true,
        shard: ShardPolicy::Dynamic,
        trace: TraceConfig::full(),
        ..EngineConfig::default()
    })
    .serve(&workload)
    .expect("traced serve");
    let trace = r.trace.as_ref().expect("trace requested");
    assert_eq!(trace.dropped, 0, "ring buffer dropped events");

    let c = &trace.metrics.counters;
    assert_eq!(c.dispatched, workload.len() as u64);
    assert_eq!(c.dispatched, r.dispatch.dealt);
    assert_eq!(c.affinity_dispatches, r.dispatch.affinity_hits);
    assert_eq!(c.steals, r.dispatch.steals);
    assert_eq!(c.enqueued, workload.len() as u64);

    // Replay the submission walk's event stream per job. Steals are narrated
    // at their trigger index, which is always *after* the stolen job's
    // own enqueue (the enqueue already reflects the final assignment),
    // so the enqueue target is checked against the fully-replayed
    // owner chain at the end rather than mid-stream.
    let mut owner: BTreeMap<u64, u32> = BTreeMap::new();
    let mut dispatches: BTreeMap<u64, u32> = BTreeMap::new();
    let mut enqueued_on: BTreeMap<u64, u32> = BTreeMap::new();
    let mut steal_events = 0u64;
    for e in &trace.events {
        match e.kind {
            EventKind::Dispatch { job, to, .. } => {
                assert!(
                    dispatches.insert(job, to).is_none(),
                    "job {job} dealt twice"
                );
                owner.insert(job, to);
            }
            EventKind::Steal { job, from, to, .. } => {
                steal_events += 1;
                let prev = owner.insert(job, to);
                assert_eq!(
                    prev,
                    Some(from),
                    "steal of job {job} does not chain from its owner"
                );
            }
            EventKind::Enqueue { job, to, .. } => {
                assert!(
                    enqueued_on.insert(job, to).is_none(),
                    "job {job} enqueued twice"
                );
            }
            _ => {}
        }
    }
    assert_eq!(dispatches.len(), workload.len(), "one deal per job");
    assert_eq!(enqueued_on.len(), workload.len(), "one enqueue per job");
    for (job, shard) in &enqueued_on {
        assert_eq!(
            owner.get(job),
            Some(shard),
            "job {job}: owner chain does not terminate at the enqueueing shard"
        );
    }
    assert_eq!(steal_events, r.dispatch.steals, "steal events vs counter");
    // Seed 1 is adversarial enough that the planner actually steals,
    // so the chain replay above exercised the steal path for real.
    assert!(r.dispatch.steals > 0, "pinned mix produced no steals");

    // The trace itself is part of the determinism contract.
    let again = Engine::new(EngineConfig {
        workers: 4,
        verify: true,
        shard: ShardPolicy::Dynamic,
        trace: TraceConfig::full(),
        ..EngineConfig::default()
    })
    .serve(&workload)
    .expect("traced serve");
    assert_eq!(
        trace.to_jsonl(),
        again.trace.as_ref().unwrap().to_jsonl(),
        "dynamic trace stream is not byte-stable"
    );
}

/// Dynamic dispatch composes with the overload layer: under a tight
/// arrival process with an absolute deadline covering a quarter of
/// the serial work, every submitted job still lands in exactly one
/// terminal state, some work is shed and some completes.
#[test]
fn dynamic_conserves_jobs_under_overload() {
    let workload = straggler();
    // Total serial service time sizes the deadline budget, exactly
    // like the engine_overload suite does.
    let mut cp = CoProcessor::default();
    for &algo in &workload.distinct_algos() {
        cp.install(algo).unwrap();
    }
    let mut total = SimTime::ZERO;
    for (i, req) in workload.requests().iter().enumerate() {
        let (_, report) = cp.invoke(req.algo_id, &workload.input(i)).unwrap();
        total += report.total();
    }
    // A 4-worker pool cannot finish faster than ~serial/4, so a
    // budget of serial/8 forces the tail to shed while the early jobs
    // on every shard still complete comfortably.
    let budget = SimTime::from_ps((total.as_ps() / 8).max(1));
    let r = Engine::new(EngineConfig {
        workers: 4,
        verify: true,
        shard: ShardPolicy::Dynamic,
        overload: Some(OverloadConfig {
            // Everything arrives almost at once against a budget the
            // pool cannot meet: early jobs finish, the tail is shed
            // at admission.
            interarrival: SimTime::from_ns(1),
            deadline: DeadlinePolicy::Absolute(budget),
            ..OverloadConfig::default()
        }),
        ..EngineConfig::default()
    })
    .serve(&workload)
    .expect("overloaded serve");
    assert!(r.overload.accounted(), "leaked jobs: {:?}", r.overload);
    assert_eq!(r.overload.submitted, workload.len() as u64);
    assert_eq!(r.overload.shed, r.shed.len() as u64);
    assert_eq!(r.overload.deadline_missed, r.deadline_missed.len() as u64);
    assert!(
        r.overload.shed > 0,
        "4x offered load must shed: {:?}",
        r.overload
    );
    assert!(
        r.overload.completed > 0,
        "overloaded dynamic pool collapsed to zero goodput"
    );
    // Surviving outputs are still byte-exact.
    let expected = serial_reference(&workload);
    let outputs = r.outputs.as_ref().expect("outputs collected");
    for (i, (got, want)) in outputs.iter().zip(&expected).enumerate() {
        let dropped = r.shed.contains_key(&i)
            || r.deadline_missed.contains_key(&i)
            || r.failed.contains_key(&i);
        if dropped {
            assert!(got.is_empty(), "dropped job {i} left bytes behind");
        } else {
            assert_eq!(got, want, "surviving output {i} corrupted");
        }
    }
}

/// Regression: the dynamic planner used to scale its calibrated costs
/// along the standard bank's shapes whatever bank the cards carried,
/// so an extended-bank card's DSP/AI kernels got the `input_len + 8`
/// fallback instead of their own fabric cycles. Calibration runs at
/// each kernel's first request length, so the error showed only on
/// mixed lengths. There the misjudged runs were dealt and stolen
/// across both shards, and each shard reconfigured back and forth
/// between two ~60 KiB kernels (27–30 misses and a 12× busier shard
/// on these seeds). Planned with the cards' own bank, each kernel
/// keeps a shard of its own.
#[test]
fn dynamic_plans_with_the_cards_bank_on_mixed_lengths() {
    let tenant = |name: &str, algo: u16, input_len: usize| TenantSpec {
        name: name.into(),
        algos: vec![algo],
        weight: 1,
        offered: 1,
        input_len,
        quota: None,
    };
    let specs = [
        tenant("mm-small", ids::MATMUL16, 512),
        tenant("mm-large", ids::MATMUL16, 8192),
        tenant("ft-small", ids::FFT64, 128),
        tenant("ft-large", ids::FFT64, 8192),
    ];
    for seed in 1..=3 {
        let workload = Workload::multi_tenant(&specs, 300, seed);
        let r = Engine::with_factory(
            EngineConfig {
                workers: 2,
                verify: true,
                shard: ShardPolicy::Dynamic,
                ..EngineConfig::default()
            },
            || {
                CoProcessor::builder()
                    .bank(AlgorithmBank::extended())
                    .build()
            },
        )
        .serve(&workload)
        .expect("serve");
        assert_eq!(
            r.stats.misses, 2,
            "seed {seed}: one install per kernel, {:?}",
            r.dispatch
        );
        let busy: Vec<u64> = r.shard_busy.iter().map(|t| t.as_ps()).collect();
        let (lo, hi) = (busy.iter().min().unwrap(), busy.iter().max().unwrap());
        assert!(
            *hi * 4 <= *lo * 5,
            "seed {seed}: shard busy times {busy:?} are more than 1.25x apart"
        );
    }
}
