//! Model-stability snapshots.
//!
//! EXPERIMENTS.md cites exact modelled numbers and promises they
//! reproduce bit-for-bit. These tests pin a representative sample of
//! those numbers so an accidental change to a timing constant, codec,
//! or filler seed shows up as a loud, reviewable diff instead of
//! silently invalidating the documented tables.
//!
//! If you change the model *deliberately*, update the constants here
//! and regenerate EXPERIMENTS.md (`cargo bench`).

use aaod_algos::{ids, AlgorithmBank};
use aaod_bitstream::codec::{registry, CodecId};
use aaod_bitstream::Bitstream;
use aaod_core::CoProcessor;
use aaod_fabric::DeviceGeometry;

fn bank_flat(algo: u16) -> Vec<u8> {
    let geom = DeviceGeometry::default();
    let bank = AlgorithmBank::standard();
    let image = bank.build_image(algo, geom).unwrap();
    Bitstream::from_image(&image, geom).flat()
}

/// The AES-128 bitstream and its compressed sizes are fully
/// deterministic (filler seed = algorithm id).
#[test]
fn aes_bitstream_sizes_are_stable() {
    let flat = bank_flat(ids::AES128);
    assert_eq!(flat.len(), 24 * 896, "24 frames of 896 bytes");
    let sizes: Vec<usize> = CodecId::ALL
        .iter()
        .map(|&id| registry::codec(id, 896).compress(&flat).len())
        .collect();
    // null, rle, lzss, huffman, frame-xor
    assert_eq!(sizes[0], flat.len(), "null codec stores");
    // Pin the exact compressed sizes; see module docs before changing.
    let ratios: Vec<f64> = sizes
        .iter()
        .map(|&s| flat.len() as f64 / s as f64)
        .collect();
    assert!(
        ratios[1] > 1.5 && ratios[1] < 2.5,
        "rle ratio {:.2}",
        ratios[1]
    );
    assert!(
        ratios[2] > 3.5 && ratios[2] < 6.0,
        "lzss ratio {:.2}",
        ratios[2]
    );
    assert!(
        ratios[3] > 2.5 && ratios[3] < 5.0,
        "huffman ratio {:.2}",
        ratios[3]
    );
    assert!(
        ratios[4] > 2.0 && ratios[4] < 4.5,
        "frame-xor ratio {:.2}",
        ratios[4]
    );
    // determinism: same sizes on a second build
    let again: Vec<usize> = CodecId::ALL
        .iter()
        .map(|&id| {
            registry::codec(id, 896)
                .compress(&bank_flat(ids::AES128))
                .len()
        })
        .collect();
    assert_eq!(sizes, again);
}

/// The warm-hit latency of SHA-1 on the default card is a documented
/// headline number; pin it to the picosecond.
#[test]
fn warm_hit_latency_is_stable() {
    let mut cp = CoProcessor::default();
    cp.install(ids::SHA1).unwrap();
    let input = vec![0u8; 1500];
    cp.invoke(ids::SHA1, &input).unwrap(); // swap-in
    let (_, a) = cp.invoke(ids::SHA1, &input).unwrap();
    let (_, b) = cp.invoke(ids::SHA1, &input).unwrap();
    assert_eq!(a.total(), b.total(), "warm hits must be time-invariant");
    // documented order of magnitude (tens of microseconds)
    let us = a.total().as_us();
    assert!(
        (5.0..60.0).contains(&us),
        "warm SHA-1 hit drifted to {us}us"
    );
}

/// Swap-in (miss) reconfiguration for AES must stay in the
/// millisecond band the E1/E3 tables document.
#[test]
fn aes_swap_in_band_is_stable() {
    let mut cp = CoProcessor::default();
    cp.install(ids::AES128).unwrap();
    let (_, report) = cp.invoke(ids::AES128, &[0u8; 16]).unwrap();
    let ms = (report.os.reconfig_time + report.os.rom_time).as_ms();
    assert!((0.5..3.0).contains(&ms), "AES swap-in drifted to {ms}ms");
}

/// Frame counts per algorithm are part of the documented area model.
#[test]
fn area_model_is_stable() {
    let geom = DeviceGeometry::default();
    let bank = AlgorithmBank::standard();
    let expected: &[(u16, usize)] = &[
        (ids::AES128, 24),
        (ids::TDES, 18),
        (ids::SHA256, 16),
        (ids::HMAC_SHA1, 14),
        (ids::SHA1, 12),
        (ids::XTEA, 6),
        (ids::MATMUL8, 32),
        (ids::FIR, 4),
        (ids::CRC32, 2),
    ];
    for &(id, frames) in expected {
        let got = bank.build_image(id, geom).unwrap().frames_needed(geom);
        assert_eq!(got, frames, "area of algo {id} drifted");
    }
    // netlist kernels: small, exact size depends on the optimiser
    for id in [ids::CRC8, ids::ADDER8, ids::POPCNT8, ids::PARITY8] {
        let got = bank.build_image(id, geom).unwrap().frames_needed(geom);
        assert!(got <= 2, "netlist algo {id} grew to {got} frames");
    }
}

/// Public top-level types are Send (usable from worker threads).
#[test]
fn key_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<CoProcessor>();
    assert_send::<aaod_mcu::MiniOs>();
    assert_send::<AlgorithmBank>();
    assert_send::<aaod_workload::Workload>();
    assert_send::<aaod_fabric::Device>();
}

/// FNV-1a 64 fingerprint, for pinning long renderings compactly.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every modelled field of an engine run the second pass
/// (redistribution and the requeue rescue) can touch, rendered as
/// text: the clocks, breaker timelines, the four ledgers, the keys of
/// each terminal map, the latency, sojourn and recovery summaries and
/// a digest of the outputs.
fn engine_snapshot(r: &aaod_core::EngineResult) -> String {
    let outputs: Vec<u8> = r
        .outputs
        .iter()
        .flatten()
        .flat_map(|o| (o.len() as u64).to_le_bytes().into_iter().chain(o.clone()))
        .collect();
    format!(
        "makespan={:?}\nshard_busy={:?}\nshard_health={:?}\noverload={:?}\nfaults={:?}\n\
         stats={:?}\nfailed={:?}\nshed={:?}\ndeadline_missed={:?}\nlatency={:?}\n\
         sojourn={:?}\nrecovery={:?}\noutputs={:016x}",
        r.makespan,
        r.shard_busy,
        r.shard_health,
        r.overload,
        r.faults,
        r.stats,
        r.failed.keys().collect::<Vec<_>>(),
        r.shed.keys().collect::<Vec<_>>(),
        r.deadline_missed.keys().collect::<Vec<_>>(),
        r.latency.summary_ns(),
        r.sojourn.summary_ns(),
        r.recovery_latency.summary_ns(),
        fnv1a(&outputs),
    )
}

/// Checks a run against its pinned makespan and snapshot digest,
/// printing the whole snapshot on a mismatch so the diff is readable.
fn assert_snapshot(label: &str, r: &aaod_core::EngineResult, makespan_ps: u64, digest: u64) {
    let snap = engine_snapshot(r);
    assert_eq!(
        (r.makespan.as_ps(), fnv1a(snap.as_bytes())),
        (makespan_ps, digest),
        "{label} drifted; snapshot:\n{snap}"
    );
}

/// The skewed four-kernel stream of the engine overload suite.
fn overload_workload() -> aaod_workload::Workload {
    aaod_workload::Workload::zipf(
        &[ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA],
        200,
        1.1,
        48,
        31,
    )
}

/// A verifying engine of `workers` algo-modulo shards under `oc`.
fn overload_engine(
    workers: usize,
    oc: aaod_core::OverloadConfig,
    faults: aaod_core::FaultConfig,
) -> aaod_core::Engine {
    aaod_core::Engine::new(aaod_core::EngineConfig {
        workers,
        verify: true,
        shard: aaod_core::ShardPolicy::AlgoModulo,
        overload: Some(oc),
        faults: Some(faults),
        ..aaod_core::EngineConfig::default()
    })
}

/// Redistribution pinned: a threshold-1 breaker that stays open for
/// the run bounces most of the stream, and the healthy shards re-serve
/// it after the pool drains.
#[test]
fn redistribution_snapshot_is_stable() {
    use aaod_core::{BreakerConfig, DeadlinePolicy, FaultConfig, OverloadConfig, WatchdogConfig};
    use aaod_sim::{FaultPlan, FaultRates, SimTime};
    let mut fc = FaultConfig::new(FaultPlan::new(0x0D10AD, FaultRates::uniform(0.05)));
    fc.max_retries = 0;
    let oc = OverloadConfig {
        interarrival: SimTime::from_us(100),
        deadline: DeadlinePolicy::Absolute(SimTime::from_secs(100)),
        watchdog: WatchdogConfig::default(),
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: SimTime::from_secs(1),
        },
        fairness: None,
    };
    let r = overload_engine(3, oc, fc)
        .serve(&overload_workload())
        .unwrap();
    assert_eq!(r.overload.redistributed, 189);
    assert_snapshot("redistribution", &r, 19_903_173_334, 3663440525094750916);
}

/// The requeue rescue pinned at both ends of the deadline budget:
/// tight deadlines leave nothing to rescue, generous ones rescue every
/// failed job on the spare card.
#[test]
fn rescue_snapshots_are_stable() {
    use aaod_core::{BreakerConfig, DeadlinePolicy, FaultConfig, OverloadConfig, WatchdogConfig};
    use aaod_sim::{FaultPlan, FaultRates, SimTime};
    let w = overload_workload();
    let mut cp = CoProcessor::default();
    for &algo in &w.distinct_algos() {
        cp.install(algo).unwrap();
    }
    let total = (0..w.len()).fold(SimTime::ZERO, |t, i| {
        t + cp
            .invoke(w.requests()[i].algo_id, &w.input(i))
            .unwrap()
            .1
            .total()
    });
    let mut fc = FaultConfig::new(FaultPlan::new(0x0D10AD, FaultRates::uniform(0.05)));
    fc.max_retries = 0;
    fc.requeue = true;
    let oc = |interarrival: SimTime, budget: SimTime| OverloadConfig {
        interarrival,
        deadline: DeadlinePolicy::Absolute(budget),
        watchdog: WatchdogConfig::default(),
        breaker: BreakerConfig {
            failure_threshold: u32::MAX,
            cooldown: SimTime::from_ms(5),
        },
        fairness: None,
    };
    let tight = overload_engine(2, oc(SimTime::from_ns(1), total / 4), fc)
        .serve(&w)
        .unwrap();
    assert_eq!(tight.faults.requeues, 0);
    assert_snapshot("tight rescue", &tight, 906_477_973, 8994821448791383247);
    let generous = overload_engine(2, oc(SimTime::from_us(100), SimTime::from_secs(100)), fc)
        .serve(&w)
        .unwrap();
    assert!(generous.faults.requeues > 0);
    assert_snapshot(
        "generous rescue",
        &generous,
        21_866_163_720,
        1981332641463633023,
    );
}

/// The benchmark's `overload_chaos` engine (three weighted tenants,
/// corruption and latency faults, watchdog, fair shedding, 60 us open
/// loop, 2 ms deadline) pinned at N = 2,000, seed 1.
#[test]
fn overload_chaos_snapshot_is_stable() {
    use aaod_core::{
        DeadlinePolicy, Engine, EngineConfig, FairnessConfig, FaultConfig, OverloadConfig,
        ShardPolicy, WatchdogConfig,
    };
    use aaod_sim::{FaultPlan, FaultRates, LatencyRates, SimTime};
    use aaod_workload::{TenantSpec, Workload};
    let tenant = |name: &str, algos: &[u16], weight: u32, offered: u32| TenantSpec {
        name: name.into(),
        algos: algos.to_vec(),
        weight,
        offered,
        input_len: 256,
        quota: None,
    };
    let seed = 1u64;
    let w = Workload::multi_tenant(
        &[
            tenant("gateway", &[ids::AES128, ids::HMAC_SHA1, ids::XTEA], 4, 4),
            tenant("telemetry", &[ids::SHA1, ids::SHA256, ids::CRC32], 2, 2),
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
        2_000,
        seed,
    );
    let plan = FaultPlan::new(
        seed ^ 0x0BE7_C4A0_5FA1_7500,
        FaultRates::uniform(0.005 / 4.0),
    )
    .with_latency(LatencyRates::uniform(0.01 / 3.0));
    let r = Engine::new(EngineConfig {
        workers: 2,
        shard: ShardPolicy::Balanced,
        faults: Some(FaultConfig::new(plan)),
        overload: Some(OverloadConfig {
            interarrival: SimTime::from_us(60),
            deadline: DeadlinePolicy::Absolute(SimTime::from_ms(2)),
            watchdog: WatchdogConfig {
                heartbeat: SimTime::from_us(100),
                missed_beats: 3,
            },
            fairness: Some(FairnessConfig::default()),
            ..OverloadConfig::default()
        }),
        ..EngineConfig::default()
    })
    .serve(&w)
    .unwrap();
    assert_snapshot("overload_chaos", &r, 122_566_921_819, 9027506783174421054);
}

/// One card-level miss-path scenario on a 40-frame card (AES and
/// TDES alone overcommit it): demand misses and hits, explicit
/// prefetches (one of which must roll back its victims), an SEU
/// repaired by a scrub and ROM rot repaired by a re-download. Renders
/// every request's host report (or error), the scrub and prefetch
/// outcomes, the final `OsStats`, the frame-store counters, the
/// resident set and a digest of the outputs.
fn card_snapshot(
    codec: CodecId,
    mode: aaod_mcu::ReconfigMode,
    prefetch: bool,
    decoded_cache_bytes: usize,
    frame_store_bytes: usize,
) -> String {
    use std::fmt::Write;
    let mut cp = CoProcessor::builder()
        .geometry(DeviceGeometry::new(40, 16))
        .codec(codec)
        .mode(mode)
        .prefetch(prefetch)
        .decoded_cache_bytes(decoded_cache_bytes)
        .frame_store_bytes(frame_store_bytes)
        .build();
    let algos = [
        ids::CRC32,
        ids::SHA1,
        ids::AES128,
        ids::TDES,
        ids::XTEA,
        ids::SHA256,
        ids::CRC8,
    ];
    for &algo in &algos {
        cp.install(algo).unwrap();
    }
    let mut rng = aaod_sim::SplitMix64::new(0xCA4D);
    let mut log = String::new();
    let mut outputs = Vec::new();
    let mut step = 0u8;
    let mut invoke = |cp: &mut CoProcessor, log: &mut String, algo: u16| {
        step = step.wrapping_add(1);
        let input: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(step) ^ 0x5A).collect();
        match cp.invoke(algo, &input) {
            Ok((out, report)) => {
                writeln!(log, "{algo}: {report:?}").unwrap();
                outputs.extend_from_slice(&out);
            }
            Err(e) => writeln!(log, "{algo}: {e:?}").unwrap(),
        }
    };
    // CRC32 and a prefetched SHA1 leave just enough room for AES.
    invoke(&mut cp, &mut log, ids::CRC32);
    writeln!(log, "hint sha1: {}", cp.prefetch_hint(ids::SHA1)).unwrap();
    invoke(&mut cp, &mut log, ids::AES128);
    // TDES needs 18 frames: CRC32 and SHA1 free only 16 before the
    // LRU reaches the just-invoked AES, so the prefetch rolls back.
    writeln!(log, "hint tdes: {}", cp.prefetch_hint(ids::TDES)).unwrap();
    writeln!(log, "resident: {:?}", cp.resident()).unwrap();
    for algo in [ids::SHA1, ids::TDES, ids::XTEA, ids::CRC8, ids::AES128] {
        invoke(&mut cp, &mut log, algo);
    }
    writeln!(log, "hint sha256: {}", cp.prefetch_hint(ids::SHA256)).unwrap();
    for algo in [ids::SHA256, ids::CRC32, ids::TDES, ids::SHA1] {
        invoke(&mut cp, &mut log, algo);
    }
    // an upset on a resident function, found and repaired by a scrub
    let victim = cp.resident()[0];
    writeln!(
        log,
        "seu {victim}: {}",
        cp.os_mut().inject_seu(victim, &mut rng)
    )
    .unwrap();
    writeln!(log, "scrub: {:?}", cp.scrub().unwrap()).unwrap();
    invoke(&mut cp, &mut log, victim);
    // flash rot: the next miss fails its CRC until the re-download
    cp.os_mut().inject_rom_rot(ids::AES128, &mut rng).unwrap();
    invoke(&mut cp, &mut log, ids::AES128);
    writeln!(log, "redownload: {:?}", cp.os_mut().redownload(ids::AES128)).unwrap();
    writeln!(log, "hint xtea: {}", cp.prefetch_hint(ids::XTEA)).unwrap();
    for algo in [ids::AES128, ids::XTEA, ids::TDES, ids::SHA1, ids::CRC32] {
        invoke(&mut cp, &mut log, algo);
    }
    writeln!(
        log,
        "stats: {:?}\nstore: {:?}\nresident: {:?}\noutputs: {:016x}",
        cp.stats(),
        cp.os().frame_store().stats(),
        cp.resident(),
        fnv1a(&outputs)
    )
    .unwrap();
    log
}

/// The card's miss path pinned for every codec, both reconfiguration
/// modes, built-in prefetch off and on, the decoded cache on and off
/// and the frame store on and off: one digest of [`card_snapshot`] per
/// combination, listed codec-major in `CodecId::ALL` order, then
/// Partial before Full, then prefetch, cache and store off before on.
#[test]
fn card_miss_path_snapshots_are_stable() {
    use aaod_mcu::ReconfigMode;
    const PINNED: [u64; 96] = [
        0x173677ad44c35ccf,
        0x173677ad44c35ccf,
        0xcde3c3a2ec50177a,
        0xcde3c3a2ec50177a,
        0x84bc83a801628c6d,
        0x84bc83a801628c6d,
        0x96643c60d571296a,
        0x96643c60d571296a,
        0x41e522e69749a83f,
        0x41e522e69749a83f,
        0x15d5a3e8f6fc10ff,
        0x15d5a3e8f6fc10ff,
        0x41e522e69749a83f,
        0x41e522e69749a83f,
        0x15d5a3e8f6fc10ff,
        0x15d5a3e8f6fc10ff,
        0x28ac06611ca198f7,
        0x28ac06611ca198f7,
        0xda4f12c41ef38279,
        0xda4f12c41ef38279,
        0x85b724344f4963a4,
        0x85b724344f4963a4,
        0xb6dace7e6989e659,
        0xb6dace7e6989e659,
        0xa0c2dd6cf586f070,
        0xa0c2dd6cf586f070,
        0xc3152e78b31828bc,
        0xc3152e78b31828bc,
        0xa0c2dd6cf586f070,
        0xa0c2dd6cf586f070,
        0xc3152e78b31828bc,
        0xc3152e78b31828bc,
        0xdbf002af063bb739,
        0xdbf002af063bb739,
        0xb6866b2cc301a1bc,
        0xb6866b2cc301a1bc,
        0x0cad6842526c40f4,
        0x0cad6842526c40f4,
        0x39e5b9e5db7a1032,
        0x39e5b9e5db7a1032,
        0x37729247c7de67d3,
        0x37729247c7de67d3,
        0xb96f02bf7d14d0e5,
        0xb96f02bf7d14d0e5,
        0x37729247c7de67d3,
        0x37729247c7de67d3,
        0xb96f02bf7d14d0e5,
        0xb96f02bf7d14d0e5,
        0x20a309f877525787,
        0x20a309f877525787,
        0xf089508772d18cc4,
        0xf089508772d18cc4,
        0x9353fffece6dc322,
        0x9353fffece6dc322,
        0xec9e3c3cd363ebb0,
        0xec9e3c3cd363ebb0,
        0xc5e619e2c4cccb36,
        0xc5e619e2c4cccb36,
        0x933dcf0800ba6d33,
        0x933dcf0800ba6d33,
        0xc5e619e2c4cccb36,
        0xc5e619e2c4cccb36,
        0x933dcf0800ba6d33,
        0x933dcf0800ba6d33,
        0xd6c405fc2e5efb4c,
        0xd6c405fc2e5efb4c,
        0xf12ed5a4206bb01e,
        0xf12ed5a4206bb01e,
        0xf73c0e7561d6e672,
        0xf73c0e7561d6e672,
        0xf3be07b4c98066ad,
        0xf3be07b4c98066ad,
        0x1994a6582f1afa77,
        0x1994a6582f1afa77,
        0xa54e91b5b628a136,
        0xa54e91b5b628a136,
        0x1994a6582f1afa77,
        0x1994a6582f1afa77,
        0xa54e91b5b628a136,
        0xa54e91b5b628a136,
        0x1346704e6ac07619,
        0xaf0e28312740f49b,
        0x09153a7fa542f407,
        0x5212ee4c7744dd82,
        0x26f37255e75804c4,
        0x10ffece8147e968f,
        0x01f609ca52d8354f,
        0x7e42e7783b2f61a1,
        0xd03a7d701d2a4868,
        0xee43df55300c739a,
        0x1d5c09305ef9bf28,
        0x0705669e9a5ef06f,
        0xd03a7d701d2a4868,
        0xee43df55300c739a,
        0x1d5c09305ef9bf28,
        0x0705669e9a5ef06f,
    ];
    let mut got = Vec::new();
    let mut drifted = Vec::new();
    for codec in CodecId::ALL {
        for mode in [ReconfigMode::Partial, ReconfigMode::Full] {
            for prefetch in [false, true] {
                for cache in [0, 64 * 1024] {
                    for store in [0, 256 * 1024] {
                        let snap = card_snapshot(codec, mode, prefetch, cache, store);
                        let digest = fnv1a(snap.as_bytes());
                        if PINNED.get(got.len()) != Some(&digest) {
                            drifted.push(format!(
                                "{codec} {mode:?} prefetch={prefetch} cache={cache} \
                                 store={store}:\n{snap}"
                            ));
                        }
                        got.push(digest);
                    }
                }
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "{} card snapshots drifted; digests {got:#x?}\nfirst:\n{}",
        drifted.len(),
        drifted.first().map_or("", String::as_str)
    );
}
