//! Determinism regression tests.
//!
//! The whole simulator is seeded and single-sourced: a workload built
//! twice from the same seed must be identical request-for-request, and
//! the concurrent `Engine` must be a pure reordering of work — its
//! outputs and per-request residency classification must match a
//! serial pass on one co-processor, regardless of worker count or
//! sharding policy.

use aaod_algos::ids;
use aaod_bitstream::codec::CodecId;
use aaod_core::{CoProcessor, Engine, EngineConfig, ShardPolicy};
use aaod_workload::{mixes, Workload};

/// SHA1 (12 frames) + CRC32 (2) + CRC8 (<=2) + XTEA (6) all fit the
/// default 96-frame fabric simultaneously, so residency hits/misses do
/// not depend on request interleaving.
const FIT_SET: [u16; 4] = [ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA];

#[test]
fn zipf_workload_reproduces_from_seed() {
    let a = Workload::zipf(&FIT_SET, 200, 1.1, 64, 99);
    let b = Workload::zipf(&FIT_SET, 200, 1.1, 64, 99);
    assert_eq!(a.requests(), b.requests());
    assert_eq!(a.algo_trace(), b.algo_trace());
    for i in 0..a.len() {
        assert_eq!(a.input(i), b.input(i), "input {i} diverged");
    }
    // A different seed must actually change the stream.
    let c = Workload::zipf(&FIT_SET, 200, 1.1, 64, 100);
    assert_ne!(a.algo_trace(), c.algo_trace());
}

#[test]
fn bursty_workload_reproduces_from_seed() {
    let a = Workload::bursty(&FIT_SET, 120, 8, 32, 7);
    let b = Workload::bursty(&FIT_SET, 120, 8, 32, 7);
    assert_eq!(a.requests(), b.requests());
    for i in 0..a.len() {
        assert_eq!(a.input(i), b.input(i), "input {i} diverged");
    }
}

/// Serves `workload` serially on one default co-processor with every
/// algorithm pre-installed, returning outputs and hit classification.
fn serial_reference(workload: &Workload) -> (Vec<Vec<u8>>, Vec<bool>) {
    let mut cp = CoProcessor::default();
    for &algo in &workload.distinct_algos() {
        cp.install(algo).unwrap();
    }
    let mut outputs = Vec::with_capacity(workload.len());
    let mut hits = Vec::with_capacity(workload.len());
    for (i, req) in workload.requests().iter().enumerate() {
        let (out, report) = cp.invoke(req.algo_id, &workload.input(i)).unwrap();
        outputs.push(out);
        hits.push(report.hit());
    }
    (outputs, hits)
}

#[test]
fn engine_matches_serial_outputs_and_hits_across_widths() {
    let workload = Workload::zipf(&FIT_SET, 150, 1.1, 48, 13);
    let (expected_outputs, expected_hits) = serial_reference(&workload);
    for workers in [2, 4] {
        let engine = Engine::new(EngineConfig {
            workers,
            verify: true,
            ..EngineConfig::default()
        });
        let r = engine.serve(&workload).unwrap();
        assert_eq!(
            r.outputs.as_ref().unwrap(),
            &expected_outputs,
            "{workers}-worker engine outputs diverged from serial"
        );
        assert_eq!(
            r.per_request_hit, expected_hits,
            "{workers}-worker engine hit/miss classification diverged"
        );
    }
}

#[test]
fn engine_matches_serial_across_policies_on_bursty() {
    // Splitting policies replicate a hot algorithm across shards, so
    // each replica takes its own first-touch miss: only the outputs —
    // not the hit classification — are policy-invariant.
    let workload = Workload::bursty(&FIT_SET, 96, 6, 32, 21);
    let (expected_outputs, expected_hits) = serial_reference(&workload);
    for policy in [
        ShardPolicy::AlgoModulo,
        ShardPolicy::RoundRobin,
        ShardPolicy::Balanced,
        ShardPolicy::Dynamic,
    ] {
        let engine = Engine::new(EngineConfig {
            workers: 4,
            verify: true,
            shard: policy,
            ..EngineConfig::default()
        });
        let r = engine.serve(&workload).unwrap();
        assert_eq!(
            r.outputs.as_ref().unwrap(),
            &expected_outputs,
            "{} engine outputs diverged from serial",
            policy.name()
        );
        if policy == ShardPolicy::AlgoModulo {
            assert_eq!(r.per_request_hit, expected_hits);
        } else {
            let serial_misses = expected_hits.iter().filter(|h| !**h).count();
            let engine_misses = r.per_request_hit.iter().filter(|h| !**h).count();
            assert!(engine_misses >= serial_misses, "{}", policy.name());
        }
    }
}

/// The exact BENCH_dispatch configuration (straggler mix, seed 1,
/// dynamic work-stealing at 4 workers) is byte-identical run-to-run
/// and matches the serial reference — the bit-sliced batch evaluator
/// behind `invoke_batch` must be a pure speedup, never a behavioural
/// change, even under stealing and rebalancing.
#[test]
fn dispatch_bench_seeded_run_is_byte_identical() {
    let workload = aaod_workload::mixes::straggler_workload(1000, 1);
    let (expected_outputs, _) = serial_reference(&workload);
    let engine = Engine::new(EngineConfig {
        workers: 4,
        shard: ShardPolicy::Dynamic,
        ..EngineConfig::default()
    });
    let a = engine.serve(&workload).unwrap();
    let b = engine.serve(&workload).unwrap();
    assert_eq!(a.outputs.as_ref().unwrap(), &expected_outputs);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.per_request_hit, b.per_request_hit);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.shard_busy, b.shard_busy);
    assert_eq!(a.dispatch, b.dispatch);
    assert_eq!(a.stats, b.stats);
}

/// The E17 dedup workload seed. `AAOD_COMPRESS_SEED` pins or sweeps
/// it, so CI can drive the same hook through this suite and the E17
/// bench with one knob.
fn compress_seed() -> u64 {
    aaod_bench::env_seed("AAOD_COMPRESS_SEED", 1717)
}

/// The E17 card: DeltaV2 + frame store over the dedup bank, decoded
/// cache off so every miss takes the configure path.
fn dedup_card() -> CoProcessor {
    CoProcessor::builder()
        .codec(CodecId::DeltaV2)
        .bank(mixes::dedup_bank())
        .decoded_cache_bytes(0)
        .build()
}

/// The dedup-heavy mix (SHA-1 published under two ids, ~92% of frames
/// shared) through the content-addressed store: engine outputs must be
/// byte-identical to a serial pass under every sharding policy, and
/// each policy's merged `OsStats` — including the frame-store dedup
/// counters — must be identical run-to-run. The alias id is not in the
/// golden bank, so identity is checked against the serial pass, not
/// `verify`.
#[test]
fn dedup_mix_matches_serial_and_dedup_counters_are_deterministic() {
    let workload = mixes::dedup_workload(240, compress_seed());
    let mut cp = dedup_card();
    for &algo in &workload.distinct_algos() {
        cp.install(algo).unwrap();
    }
    let expected: Vec<Vec<u8>> = workload
        .requests()
        .iter()
        .enumerate()
        .map(|(i, req)| cp.invoke(req.algo_id, &workload.input(i)).unwrap().0)
        .collect();
    let serial_stats = cp.stats();
    assert!(
        serial_stats.frame_store_hits > 0,
        "dedup mix never hit the frame store"
    );
    for policy in [
        ShardPolicy::AlgoModulo,
        ShardPolicy::RoundRobin,
        ShardPolicy::Balanced,
        ShardPolicy::Dynamic,
    ] {
        let engine = Engine::with_factory(
            EngineConfig {
                workers: 4,
                shard: policy,
                ..EngineConfig::default()
            },
            dedup_card,
        );
        let a = engine.serve(&workload).unwrap();
        let b = engine.serve(&workload).unwrap();
        assert_eq!(
            a.outputs.as_ref().unwrap(),
            &expected,
            "{} engine outputs diverged from serial on the dedup mix",
            policy.name()
        );
        assert_eq!(a.outputs, b.outputs, "{}", policy.name());
        assert_eq!(
            (
                a.stats.frame_store_hits,
                a.stats.frame_store_misses,
                a.stats.frame_store_bytes_deduped,
            ),
            (
                b.stats.frame_store_hits,
                b.stats.frame_store_misses,
                b.stats.frame_store_bytes_deduped,
            ),
            "{}: dedup counters must be identical run-to-run",
            policy.name()
        );
        assert_eq!(
            a.stats,
            b.stats,
            "{}: merged OsStats diverged between identical runs",
            policy.name()
        );
    }
}

#[test]
fn engine_run_is_repeatable() {
    let workload = Workload::zipf(&FIT_SET, 100, 1.1, 40, 5);
    let engine = Engine::new(EngineConfig {
        workers: 4,
        shard: ShardPolicy::Balanced,
        ..EngineConfig::default()
    });
    let a = engine.serve(&workload).unwrap();
    let b = engine.serve(&workload).unwrap();
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.per_request_hit, b.per_request_hit);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.total_service_time, b.total_service_time);
    assert_eq!(a.shard_busy, b.shard_busy);
    assert_eq!(a.stats, b.stats);
}

/// The E19 kernel-tier seed. `AAOD_KERNEL_SEED` pins or sweeps it,
/// so CI drives this suite, the conformance tier and the E19 bench
/// with one knob.
fn kernel_seed() -> u64 {
    aaod_bench::env_seed("AAOD_KERNEL_SEED", 42)
}

/// A card whose bank includes the DSP/AI tier.
fn kernel_card() -> CoProcessor {
    CoProcessor::builder()
        .bank(aaod_algos::AlgorithmBank::extended())
        .build()
}

/// The DSP/AI kernel mix (72/56/64-frame images on a 96-frame device,
/// so every policy is under constant reconfiguration pressure) is
/// byte-identical run-to-run under every sharding policy, makespan
/// and merged stats included, and every output verifies against the
/// card's own bank.
#[test]
fn kernel_mix_is_repeatable_across_policies() {
    let workload = mixes::kernel_workload(90, kernel_seed());
    for policy in [
        ShardPolicy::AlgoModulo,
        ShardPolicy::RoundRobin,
        ShardPolicy::Balanced,
        ShardPolicy::Dynamic,
    ] {
        let engine = Engine::with_factory(
            EngineConfig {
                workers: 4,
                verify: true,
                shard: policy,
                ..EngineConfig::default()
            },
            kernel_card,
        );
        let a = engine.serve(&workload).unwrap();
        let b = engine.serve(&workload).unwrap();
        assert_eq!(a.outputs, b.outputs, "{}", policy.name());
        assert_eq!(a.makespan, b.makespan, "{}", policy.name());
        assert_eq!(a.shard_busy, b.shard_busy, "{}", policy.name());
        assert_eq!(a.stats, b.stats, "{}", policy.name());
    }
}

/// The same mix through a replicated fleet: identical outputs, job
/// assignment and ledger run-to-run, every output verified.
#[test]
fn kernel_mix_cluster_is_repeatable() {
    use aaod_core::{Cluster, ClusterConfig};
    let workload = mixes::kernel_workload(90, kernel_seed());
    let bank = aaod_algos::AlgorithmBank::extended();
    let cluster = Cluster::with_factory(
        ClusterConfig {
            cards: 4,
            replication: 2,
            card_workers: 2,
            verify: true,
            ..ClusterConfig::default()
        },
        kernel_card,
    );
    let a = cluster.serve(&workload, &bank).unwrap();
    let b = cluster.serve(&workload, &bank).unwrap();
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.stats, b.stats);
}

/// Verifies the DSP/AI kernel mix on extended-bank cards under
/// `config`: every output is checked against the bank of the card
/// that served it.
fn serve_verified_kernel_mix(config: EngineConfig) -> aaod_core::EngineResult {
    let workload = mixes::kernel_workload(60, 1);
    Engine::with_factory(
        EngineConfig {
            verify: true,
            ..config
        },
        kernel_card,
    )
    .serve(&workload)
    .expect("outputs verify against the serving card's bank")
}

/// Jobs the shards serve from their own streams verify against the
/// extended bank their cards carry.
#[test]
fn shard_runs_verify_against_the_cards_bank() {
    let r = serve_verified_kernel_mix(EngineConfig {
        workers: 2,
        shard: ShardPolicy::Balanced,
        ..EngineConfig::default()
    });
    assert_eq!(r.overload.completed, 60);
}

/// Jobs redistributed to a healthy shard after a threshold-1 breaker
/// opened verify against that shard's card.
#[test]
fn redistributed_jobs_verify_against_the_cards_bank() {
    use aaod_core::{BreakerConfig, DeadlinePolicy, FaultConfig, OverloadConfig};
    use aaod_sim::{FaultPlan, FaultRates, SimTime};
    let r = serve_verified_kernel_mix(EngineConfig {
        workers: 3,
        shard: ShardPolicy::Balanced,
        faults: Some(FaultConfig {
            max_retries: 0,
            ..FaultConfig::new(FaultPlan::new(1, FaultRates::uniform(0.01)))
        }),
        overload: Some(OverloadConfig {
            interarrival: SimTime::from_us(100),
            deadline: DeadlinePolicy::Absolute(SimTime::from_secs(100)),
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown: SimTime::from_secs(1),
            },
            ..OverloadConfig::default()
        }),
        ..EngineConfig::default()
    });
    assert!(r.overload.redistributed > 0, "{:?}", r.overload);
}

/// Jobs the requeue pass rescues on the spare card verify against the
/// spare's bank.
#[test]
fn rescued_jobs_verify_against_the_cards_bank() {
    use aaod_core::FaultConfig;
    use aaod_sim::{FaultPlan, FaultRates};
    let r = serve_verified_kernel_mix(EngineConfig {
        workers: 2,
        shard: ShardPolicy::Balanced,
        faults: Some(FaultConfig {
            max_retries: 0,
            requeue: true,
            ..FaultConfig::new(FaultPlan::new(1, FaultRates::uniform(0.05)))
        }),
        ..EngineConfig::default()
    });
    assert!(r.faults.requeues > 0, "{:?}", r.faults);
}

/// A fleet of extended-bank cards verifies every output on the card
/// engine that served it.
#[test]
fn cluster_verifies_against_the_cards_bank() {
    use aaod_core::{Cluster, ClusterConfig};
    let workload = mixes::kernel_workload(60, 1);
    let r = Cluster::with_factory(
        ClusterConfig {
            cards: 4,
            card_workers: 2,
            verify: true,
            ..ClusterConfig::default()
        },
        kernel_card,
    )
    .serve(&workload, &aaod_algos::AlgorithmBank::extended())
    .expect("outputs verify against the serving card's bank");
    assert_eq!(r.outputs.map(|o| o.len()), Some(60));
}

/// The E20 predictive-policy seed. `AAOD_PREDICT_SEED` pins or sweeps
/// it, so CI drives this suite and the E20 bench with one knob.
fn predict_seed() -> u64 {
    aaod_bench::env_seed("AAOD_PREDICT_SEED", 11)
}

/// The E9/E20 over-committed card: 52 frames against a 58-frame
/// crypto working set, so residency churns constantly and speculation
/// has something to win.
fn churn_card() -> CoProcessor {
    CoProcessor::builder()
        .geometry(aaod_fabric::DeviceGeometry::new(52, 16))
        .build()
}

/// The engine-level predictive prefetcher is a pure function of each
/// shard's arrival subsequence: the same stream must drive bit-equal
/// prefetch decisions (merged `OsStats`, prefetch counters included)
/// run-to-run under every sharding policy,
/// and speculation must never change a single output byte.
#[test]
fn predictive_engine_is_repeatable_and_output_invariant_across_policies() {
    use aaod_core::PredictConfig;
    let big_three = [ids::AES128, ids::TDES, ids::SHA256];
    let workload = Workload::round_robin(&big_three, 240, 64);
    let (expected_outputs, _) = serial_reference(&workload);
    let mut prefetched_anywhere = false;
    for policy in [
        ShardPolicy::AlgoModulo,
        ShardPolicy::RoundRobin,
        ShardPolicy::Balanced,
        ShardPolicy::Dynamic,
    ] {
        let engine = Engine::with_factory(
            EngineConfig {
                workers: 2,
                shard: policy,
                predict: Some(PredictConfig::default()),
                ..EngineConfig::default()
            },
            churn_card,
        );
        let a = engine.serve(&workload).unwrap();
        let b = engine.serve(&workload).unwrap();
        assert_eq!(
            a.outputs.as_ref().unwrap(),
            &expected_outputs,
            "{}: speculative configuration changed output bytes",
            policy.name()
        );
        assert_eq!(
            a.stats,
            b.stats,
            "{}: same arrival stream must drive identical prefetch decisions",
            policy.name()
        );
        assert_eq!(a.outputs, b.outputs, "{}", policy.name());
        assert_eq!(a.makespan, b.makespan, "{}", policy.name());
        assert_eq!(a.shard_busy, b.shard_busy, "{}", policy.name());
        prefetched_anywhere |= a.stats.prefetches > 0;
    }
    // rotation over an over-committed device is the prefetcher's home
    // turf: if no policy speculated at all the test went vacuous
    assert!(prefetched_anywhere, "predictor never issued a prefetch");
}

/// The online replication policy in a 4-card fleet: the same
/// flash-crowd arrival stream must produce the identical hysteresis
/// flip sequence run-to-run, the gate must honour its refractory
/// window, the ledger must match the flips — and churning the replica
/// map must never change a single output byte versus the static
/// planner.
#[test]
fn predictive_cluster_flip_sequence_is_repeatable() {
    use aaod_algos::AlgorithmBank;
    use aaod_core::{Cluster, ClusterConfig, Flip, PredictConfig};
    // The hot id rides the *tail* Zipf rank (~12 % of the baseline),
    // so its popularity structurally rises through `hot_up` during the
    // spike and falls back through `cold_down` afterwards — a full
    // replicate/de-replicate cycle for any seed. A head-rank hot algo
    // would keep ~48 % of the baseline and never cool off.
    let crowd = [ids::CRC32, ids::CRC8, ids::XTEA, ids::SHA1];
    let workload = Workload::flash_crowd(&crowd, ids::SHA1, 400, 20, 32, predict_seed());
    let bank = AlgorithmBank::standard();
    let cfg = PredictConfig::default();
    let config = || ClusterConfig {
        cards: 4,
        card_workers: 2,
        predict: Some(cfg),
        ..ClusterConfig::default()
    };
    let a = Cluster::new(config()).serve(&workload, &bank).unwrap();
    let b = Cluster::new(config()).serve(&workload, &bank).unwrap();
    assert_eq!(
        a.flips, b.flips,
        "same arrival stream must produce the same flip sequence"
    );
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.stats, b.stats);
    // the spike must drive the policy through a full cycle: replicate
    // on the way up, de-replicate once the crowd disperses
    let reps = a.flips.iter().filter(|f| f.kind == Flip::Replicate).count() as u64;
    let dereps = a
        .flips
        .iter()
        .filter(|f| f.kind == Flip::Dereplicate)
        .count() as u64;
    assert!(reps >= 1, "flash crowd never triggered a replication");
    assert!(dereps >= 1, "dispersal never triggered a de-replication");
    assert_eq!((a.stats.replicates, a.stats.dereplicates), (reps, dereps));
    // hysteresis: no algorithm may flip twice inside the refractory
    // window — that is exactly the oscillation the gate exists to stop
    let mut last: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();
    for f in &a.flips {
        if let Some(prev) = last.insert(f.algo, f.at) {
            assert!(
                f.at - prev >= cfg.refractory,
                "algo {} flipped at {} and again at {} (refractory {})",
                f.algo,
                prev,
                f.at,
                cfg.refractory
            );
        }
    }
    // replica-map churn is pure placement: byte-identical to the
    // static offline planner on the same stream
    let offline = Cluster::new(ClusterConfig {
        cards: 4,
        card_workers: 2,
        replication: 2,
        ..ClusterConfig::default()
    })
    .serve(&workload, &bank)
    .unwrap();
    assert_eq!(
        a.outputs, offline.outputs,
        "online replication changed output bytes"
    );
}
