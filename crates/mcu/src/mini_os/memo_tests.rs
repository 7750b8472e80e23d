//! The host-side image memo ([`ImageMemo`]) must change what a miss
//! costs the host and nothing else. These tests read the memo through
//! the controller's private fields: a twin card whose memo is cleared
//! before every operation is the uncached reference.

use super::*;
use aaod_algos::ids;
use aaod_bitstream::FrameStoreStats;
use aaod_fabric::FabricError;

fn take_details(os: &mut MiniOs) -> Vec<DetailEvent> {
    let mut details = Vec::new();
    os.take_details_into(&mut details);
    details
}

fn image(os: &MiniOs, algo: u16) -> &VerifiedImage {
    os.images[&algo].image.as_ref().expect("a verified image")
}

/// Whether `algo`'s last frame decode is its verified image's own
/// parse: a seeded decode shares the image's `Arc`, while a readback
/// always parses into a fresh one.
fn decode_is_seeded(os: &MiniOs, algo: u16) -> bool {
    let memo = &os.images[&algo];
    match (
        &memo.resident,
        memo.image.as_ref().and_then(|i| i.kind.as_ref()),
    ) {
        (Some(resident), Some(kind)) => Arc::ptr_eq(&resident.kind, kind),
        _ => false,
    }
}

/// The DSP/AI tier on the default 96-frame card: any two of the three
/// ~64-frame kernels over-commit the device, so every invocation of a
/// round robin is a miss.
fn dsp_card() -> MiniOs {
    let mut os = MiniOs::new(MiniOsConfig {
        bank: AlgorithmBank::extended(),
        ..MiniOsConfig::default()
    });
    for id in ids::DSP_AI {
        os.install(id).unwrap();
    }
    os
}

#[test]
fn warm_dsp_misses_replay_the_memo_and_skip_the_readback() {
    let mut os = dsp_card();
    let input = vec![0x5a; 4096];
    let mut cold = BTreeMap::new();
    for id in ids::DSP_AI {
        let (_, report) = os.invoke(id, &input).unwrap();
        assert!(!report.hit);
        assert!(!decode_is_seeded(&os, id), "a first miss reads back");
        cold.insert(id, report);
    }
    let frames: BTreeMap<u16, Arc<Vec<Vec<u8>>>> = ids::DSP_AI
        .iter()
        .map(|&id| (id, Arc::clone(&image(&os, id).frames)))
        .collect();
    for _ in 0..3 {
        for id in ids::DSP_AI {
            let (out, report) = os.invoke(id, &input).unwrap();
            assert!(!report.hit && !report.decoded_cache_hit, "{report:?}");
            assert_eq!(report.rom_time, cold[&id].rom_time);
            assert_eq!(report.reconfig_time, cold[&id].reconfig_time);
            assert!(
                Arc::ptr_eq(&frames[&id], &image(&os, id).frames),
                "algo {id}: the miss decompressed again"
            );
            assert!(decode_is_seeded(&os, id), "algo {id}: read back");
            assert_eq!(out, os.bank().execute_software(id, &input).unwrap());
        }
    }
    assert_eq!(os.stats().decoded_hits, 0);
    assert_eq!(os.stats().misses, 12);
}

/// Runs `fault` on the resident MatMul16 of a memoized card and of an
/// uncached twin (its clone with the memo cleared), then invokes it on
/// both: the memo may not hide the fault, so both must fail with the
/// same error.
fn faulted_invoke(fault: impl Fn(&mut MiniOs)) -> McuError {
    let input = vec![7u8; 4096];
    let mut memoized = dsp_card();
    // warm up, then make the next MatMul16 miss a seeded replay
    for id in ids::DSP_AI {
        memoized.invoke(id, &input).unwrap();
    }
    memoized.invoke(ids::MATMUL16, &input).unwrap();
    assert!(decode_is_seeded(&memoized, ids::MATMUL16));
    let mut uncached = memoized.clone();
    uncached.images.clear();
    fault(&mut memoized);
    fault(&mut uncached);
    let err = memoized.invoke(ids::MATMUL16, &input).unwrap_err();
    assert_eq!(Err(err.clone()), uncached.invoke(ids::MATMUL16, &input));
    err
}

#[test]
fn torn_and_upset_frames_still_force_the_readback() {
    let torn = faulted_invoke(|os| assert!(os.inject_torn(ids::MATMUL16)));
    assert!(
        matches!(torn, McuError::Fabric(FabricError::DigestMismatch { .. })),
        "{torn}"
    );
    let mut digest_mismatches = 0;
    for seed in 0..8 {
        let upset = faulted_invoke(|os| {
            assert!(os.inject_seu(ids::MATMUL16, &mut SplitMix64::new(seed)));
        });
        if matches!(upset, McuError::Fabric(FabricError::DigestMismatch { .. })) {
            digest_mismatches += 1;
        }
    }
    assert!(digest_mismatches > 0, "no upset reached the digest check");
}

#[test]
fn replay_after_a_patched_netlist_restores_the_banks_truth_table() {
    // Patch CRC8's frames with a valid image whose netlist XOR-folds
    // the stream: the readback tabulates that netlist. A replay then
    // writes the bank's image back, and its seeded decode must bring
    // the truth table back with it.
    let mut os = MiniOs::new(MiniOsConfig::default());
    os.install(ids::CRC8).unwrap();
    assert_eq!(os.invoke(ids::CRC8, b"1").unwrap().0, [0x97]);
    let mut b = aaod_fabric::NetlistBuilder::new();
    let ins = b.inputs(16);
    for i in 0..8 {
        let x = b.xor2(ins[i], ins[8 + i]);
        b.output(x);
    }
    let patch = aaod_fabric::FunctionImage::from_netlist(
        ids::CRC8,
        b.finish().unwrap(),
        aaod_fabric::NetlistMode::Streaming,
        1,
        1,
    );
    let frames = os.table().get(ids::CRC8).unwrap().frames.clone();
    for (addr, frame) in frames.iter().zip(&patch.encode(os.geometry())) {
        os.device_mut().write_frame(*addr, frame).unwrap();
    }
    assert_eq!(os.invoke(ids::CRC8, b"12").unwrap().0, [b'1' ^ b'2']);
    os.evict(ids::CRC8).unwrap();
    let (out, report) = os.invoke(ids::CRC8, b"1").unwrap();
    assert!(!report.hit && decode_is_seeded(&os, ids::CRC8));
    assert_eq!(out, [0x97]);
}

/// The functions of the equivalence sweep: 61 frames of them on a
/// 40-frame device, one a netlist.
const ALGOS: [u16; 6] = [
    ids::AES128,
    ids::SHA256,
    ids::SHA1,
    ids::XTEA,
    ids::CRC32,
    ids::CRC8,
];

/// One operation of the equivalence sweep.
#[derive(Debug, Clone, Copy)]
enum Op {
    Invoke { algo: u16, batch: usize },
    Prefetch(u16),
    Seu(u16, u64),
    Torn(u16),
    RomRot(u16, u64),
    Redownload(u16),
    Evict(u16),
    Reset,
    Scrub,
}

impl Op {
    fn draw(rng: &mut SplitMix64) -> Op {
        let algo = ALGOS[rng.index(ALGOS.len())];
        match rng.index(32) {
            0..=19 => Op::Invoke {
                algo,
                batch: 1 + rng.index(3),
            },
            20 | 21 => Op::Prefetch(algo),
            22 | 23 => Op::Seu(algo, rng.next_u64()),
            24 => Op::Torn(algo),
            25 => Op::RomRot(algo, rng.next_u64()),
            26 => Op::Redownload(algo),
            27 | 28 => Op::Evict(algo),
            29 => Op::Reset,
            _ => Op::Scrub,
        }
    }
}

/// What one operation returned.
#[derive(Debug, PartialEq)]
enum Outcome {
    Invoke(Result<Vec<(Vec<u8>, InvokeReport)>, McuError>),
    Flag(bool),
    Time(Result<SimTime, McuError>),
    Unit(Result<(), McuError>),
    Scrub(Result<ScrubReport, McuError>),
}

fn apply(os: &mut MiniOs, op: Op, inputs: &[Vec<u8>]) -> Outcome {
    match op {
        Op::Invoke { algo, batch } => {
            let batch: Vec<&[u8]> = inputs[..batch].iter().map(Vec::as_slice).collect();
            Outcome::Invoke(os.invoke_batch(algo, &batch))
        }
        Op::Prefetch(algo) => Outcome::Flag(os.prefetch_hint(algo)),
        Op::Seu(algo, seed) => Outcome::Flag(os.inject_seu(algo, &mut SplitMix64::new(seed))),
        Op::Torn(algo) => Outcome::Flag(os.inject_torn(algo)),
        Op::RomRot(algo, seed) => {
            Outcome::Unit(os.inject_rom_rot(algo, &mut SplitMix64::new(seed)))
        }
        Op::Redownload(algo) => Outcome::Time(os.redownload(algo)),
        Op::Evict(algo) => Outcome::Time(os.evict(algo)),
        Op::Reset => Outcome::Time(Ok(os.reset())),
        Op::Scrub => Outcome::Scrub(os.scrub()),
    }
}

/// Everything a card shows after an operation, detail stream drained.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: OsStats,
    store: FrameStoreStats,
    resident: Vec<u16>,
    now: SimTime,
    details: Vec<DetailEvent>,
    decoded: (usize, usize, u64, u64),
    rom: (u64, u64, u64),
    device: (u64, u64, Vec<Vec<u8>>),
}

fn observe(os: &mut MiniOs) -> Observed {
    let geom = os.geometry();
    let device = os.device();
    let frames = (0..geom.frames() as u16)
        .map(|i| device.read_frame(FrameAddress(i)).unwrap().to_vec())
        .collect();
    Observed {
        stats: os.stats(),
        store: os.frame_store().stats(),
        resident: os.resident(),
        now: os.now(),
        details: take_details(os),
        decoded: (
            os.decoded.len(),
            os.decoded.bytes(),
            os.decoded.lookups(),
            os.decoded.hits(),
        ),
        rom: (
            os.rom.bytes_read(),
            os.rom.fetch_count(),
            os.rom.record_probes(),
        ),
        device: (os.device.clock(), os.device.frame_writes(), frames),
    }
}

/// The memo never claims more than a readback would give: every
/// resident function whose remembered decode is still valid decodes
/// to exactly that payload.
fn assert_memo_sound(os: &MiniOs) {
    for (id, residency) in os.table.iter() {
        let Some(memo) = os.images.get(&id).and_then(|m| m.resident.as_ref()) else {
            continue;
        };
        if os.device.stamp(&residency.frames) <= memo.clock {
            let readback = os.device.decode_function(&residency.frames);
            let kind = readback
                .map_err(McuError::from)
                .and_then(|i| parse_kind(&i, id));
            assert_eq!(kind.as_ref(), Ok(memo.kind.as_ref()), "algo {id}");
        }
    }
}

fn sweep_card(
    codec: CodecId,
    decoded: bool,
    store: bool,
    mode: ReconfigMode,
    bitstreams: &[Vec<u8>],
) -> MiniOs {
    let mut os = MiniOs::new(MiniOsConfig {
        geometry: DeviceGeometry::new(40, 16),
        codec,
        mode,
        decoded_cache_bytes: if decoded { 16 * 1024 } else { 0 },
        frame_store_bytes: if store { 64 * 1024 } else { 0 },
        ..MiniOsConfig::default()
    });
    for encoded in bitstreams {
        os.download(encoded).unwrap();
    }
    os.set_trace(true);
    take_details(&mut os);
    os
}

/// Random interleavings on a memoized card and an uncached twin under
/// `codec`, with the decoded cache and the frame store each on and off
/// and Partial and Full reconfiguration: every return value, counter,
/// byte of the device and detail event must agree after every
/// operation.
fn sweep(codec: CodecId) {
    let encoder = sweep_card(codec, false, false, ReconfigMode::Partial, &[]);
    let bitstreams: Vec<Vec<u8>> = ALGOS
        .iter()
        .map(|&id| encoder.encode_bitstream(id).unwrap())
        .collect();
    for (decoded, store, mode) in [false, true]
        .into_iter()
        .flat_map(|d| [false, true].map(|s| (d, s)))
        .flat_map(|(d, s)| [ReconfigMode::Partial, ReconfigMode::Full].map(|m| (d, s, m)))
    {
        let case = format!("{codec} decoded={decoded} store={store} {mode:?}");
        let mut rng = SplitMix64::new(
            0x3e30
                ^ u64::from(codec.to_byte()) << 8
                ^ u64::from(decoded) << 4
                ^ u64::from(store) << 2
                ^ u64::from(mode == ReconfigMode::Full),
        );
        let mut memoized = sweep_card(codec, decoded, store, mode, &bitstreams);
        let mut uncached = memoized.clone();
        // a DeltaV2 bitstream probing the store never replays, and its
        // decode is the slowest, so a shorter walk covers it
        let replayable = !(codec == CodecId::DeltaV2 && store);
        let steps = if replayable { 160 } else { 60 };
        let (mut replays, mut seeded) = (0, 0);
        for step in 0..steps {
            let op = Op::draw(&mut rng);
            let inputs: Vec<Vec<u8>> = (0..3)
                .map(|_| {
                    let mut input = vec![0u8; 16 * (1 + rng.index(3))];
                    rng.fill(&mut input);
                    input
                })
                .collect();
            let before = match op {
                Op::Invoke { algo, .. } => memoized
                    .images
                    .get(&algo)
                    .and_then(|m| m.image.as_ref())
                    .map(|i| Arc::clone(&i.frames)),
                _ => None,
            };
            uncached.images.clear();
            let got = apply(&mut memoized, op, &inputs);
            let want = apply(&mut uncached, op, &inputs);
            assert_eq!(got, want, "{case}, step {step}: {op:?}");
            assert_eq!(
                observe(&mut memoized),
                observe(&mut uncached),
                "{case}, step {step}: {op:?}"
            );
            assert!(memoized.rom == uncached.rom, "{case}, step {step}: {op:?}");
            assert_memo_sound(&memoized);
            if let (Outcome::Invoke(Ok(reports)), Op::Invoke { algo, .. }) = (&got, op) {
                let report = &reports[0].1;
                if !report.hit && decode_is_seeded(&memoized, algo) {
                    seeded += 1;
                }
                let same = before.is_some_and(|b| Arc::ptr_eq(&b, &image(&memoized, algo).frames));
                if !report.hit && !report.decoded_cache_hit && same {
                    replays += 1;
                }
            }
        }
        // the sweep proves something only if the memo served misses
        assert_eq!(replays > 0, replayable, "{case}: {replays} replays");
        assert!(
            seeded >= replays,
            "{case}: {replays} replays, {seeded} seeded"
        );
    }
}

#[test]
fn memoized_card_matches_an_uncached_card_null() {
    sweep(CodecId::Null);
}

#[test]
fn memoized_card_matches_an_uncached_card_rle() {
    sweep(CodecId::Rle);
}

#[test]
fn memoized_card_matches_an_uncached_card_lzss() {
    sweep(CodecId::Lzss);
}

#[test]
fn memoized_card_matches_an_uncached_card_huffman() {
    sweep(CodecId::Huffman);
}

#[test]
fn memoized_card_matches_an_uncached_card_frame_xor() {
    sweep(CodecId::FrameXor);
}

#[test]
fn memoized_card_matches_an_uncached_card_delta_v2() {
    sweep(CodecId::DeltaV2);
}

/// The six sweep functions installed on a 40-frame card under `codec`,
/// traced, with every function's bitstream encoded by `install`.
fn installed_card(codec: CodecId) -> MiniOs {
    let mut os = MiniOs::new(MiniOsConfig {
        geometry: DeviceGeometry::new(40, 16),
        codec,
        ..MiniOsConfig::default()
    });
    for id in ALGOS {
        os.install(id).unwrap();
    }
    os.set_trace(true);
    take_details(&mut os);
    os
}

#[test]
fn redownloads_from_the_encoded_memo_match_fresh_encodings() {
    for codec in CodecId::ALL {
        let mut memoized = installed_card(codec);
        let mut fresh = installed_card(codec);
        let encoded: BTreeMap<u16, Arc<[u8]>> = ALGOS
            .iter()
            .map(|&id| {
                let bytes = memoized.images[&id]
                    .encoded
                    .clone()
                    .expect("install memoizes");
                assert_eq!(bytes[..], memoized.encode_bitstream(id).unwrap()[..]);
                (id, bytes)
            })
            .collect();
        let mut rng = SplitMix64::new(0xe2c0 ^ u64::from(codec.to_byte()));
        let mut redownloads = 0;
        for step in 0..36 {
            let algo = ALGOS[rng.index(ALGOS.len())];
            let op = match rng.index(3) {
                0 => Op::RomRot(algo, rng.next_u64()),
                1 => Op::Redownload(algo),
                _ => Op::Invoke { algo, batch: 2 },
            };
            let inputs: Vec<Vec<u8>> = (0..2)
                .map(|_| {
                    let mut input = vec![0u8; 32];
                    rng.fill(&mut input);
                    input
                })
                .collect();
            for memo in fresh.images.values_mut() {
                memo.encoded = None;
            }
            let got = apply(&mut memoized, op, &inputs);
            let want = apply(&mut fresh, op, &inputs);
            assert_eq!(got, want, "{codec}, step {step}: {op:?}");
            assert_eq!(
                observe(&mut memoized),
                observe(&mut fresh),
                "{codec}, step {step}: {op:?}"
            );
            assert!(memoized.rom == fresh.rom, "{codec}, step {step}: {op:?}");
            redownloads += matches!(op, Op::Redownload(_)) as usize;
        }
        assert_eq!(memoized.rom_patrol(), fresh.rom_patrol(), "{codec}");
        assert!(redownloads > 0, "{codec}: no re-download drawn");
        for (id, bytes) in &encoded {
            let now = memoized.images[id].encoded.as_ref().expect("kept");
            assert!(Arc::ptr_eq(bytes, now), "{codec}: algo {id} encoded again");
        }
    }
}

#[test]
fn rom_rot_of_one_algorithm_leaves_the_others_replayable() {
    let input = vec![0x3c; 4096];
    let mut os = dsp_card();
    for id in ids::DSP_AI {
        os.invoke(id, &input).unwrap();
    }
    let [rotten, healthy, other] = ids::DSP_AI;
    os.inject_rom_rot(rotten, &mut SplitMix64::new(7)).unwrap();
    let frames = Arc::clone(&image(&os, healthy).frames);
    let (out, report) = os.invoke(healthy, &input).unwrap();
    assert!(!report.hit && !report.decoded_cache_hit, "{report:?}");
    assert!(
        Arc::ptr_eq(&frames, &image(&os, healthy).frames),
        "another algorithm's rot forced a decompression"
    );
    assert!(decode_is_seeded(&os, healthy));
    assert_eq!(out, os.bank().execute_software(healthy, &input).unwrap());
    // the rotten algorithm takes the full path and fails its CRC, now
    // and after the healthy ones move again
    for _ in 0..2 {
        let err = os.invoke(rotten, &input).unwrap_err();
        assert!(
            matches!(
                err,
                McuError::Bitstream(aaod_bitstream::BitstreamError::CrcMismatch { .. })
            ),
            "{err}"
        );
        os.invoke(other, &input).unwrap();
    }
    // a re-download touches only its own record: the others still
    // replay, and the fresh one decodes once, then replays too
    os.redownload(rotten).unwrap();
    let frames = Arc::clone(&image(&os, other).frames);
    os.invoke(healthy, &input).unwrap();
    os.invoke(other, &input).unwrap();
    assert!(Arc::ptr_eq(&frames, &image(&os, other).frames));
    for _ in 0..2 {
        let (out, report) = os.invoke(rotten, &input).unwrap();
        assert!(!report.hit);
        assert_eq!(out, os.bank().execute_software(rotten, &input).unwrap());
        os.invoke(healthy, &input).unwrap();
    }
    assert!(decode_is_seeded(&os, rotten));
}

/// A scrub on the memo must report and repair exactly what a scrub
/// that reads every function back and repairs from ROM does, on a
/// clean card, after an SEU and after a torn configuration, under every
/// codec. Each repair replays the verified image, except for a DeltaV2
/// bitstream probing an enabled frame store, which never does.
#[test]
fn memo_aware_scrub_matches_a_full_readback() {
    let fault = |os: &mut MiniOs, what: &str, id: u16| match what {
        "seu" => assert!(os.inject_seu(id, &mut SplitMix64::new(u64::from(id)))),
        "torn" => assert!(os.inject_torn(id)),
        _ => {}
    };
    let input = vec![0xa7; 48];
    let cases = CodecId::ALL
        .into_iter()
        .map(|codec| (codec, true))
        .chain([(CodecId::DeltaV2, false)]);
    for (codec, store) in cases {
        let case = format!("{codec} store={store}");
        let mut card = MiniOs::new(MiniOsConfig {
            codec,
            frame_store_bytes: if store { 256 * 1024 } else { 0 },
            ..MiniOsConfig::default()
        });
        for id in ALGOS {
            card.install(id).unwrap();
            card.invoke(id, &input).unwrap();
        }
        card.set_trace(true);
        take_details(&mut card);
        let replayable = !(codec == CodecId::DeltaV2 && store);
        let mut replays = 0;
        for what in ["clean", "seu", "torn"] {
            for target in ALGOS {
                let (mut memoized, mut uncached) = (card.clone(), card.clone());
                assert_eq!(memoized.resident().len(), ALGOS.len());
                for id in ALGOS {
                    assert!(memoized.images[&id].resident.is_some(), "{case}: algo {id}");
                }
                fault(&mut memoized, what, target);
                fault(&mut uncached, what, target);
                uncached.images.clear();
                let before = memoized.image_replays;
                let got = memoized.scrub().unwrap();
                assert_eq!(
                    uncached.image_replays, 0,
                    "{case}: the uncached twin replayed"
                );
                assert_eq!(
                    Ok(got.clone()),
                    uncached.scrub(),
                    "{case}: {what} on {target}"
                );
                let repaired: &[u16] = if what == "clean" { &[] } else { &[target] };
                assert_eq!(got.repaired, repaired, "{case}: {what} on {target}");
                let replayed = memoized.image_replays - before;
                let want = if replayable { repaired.len() } else { 0 };
                assert_eq!(replayed as usize, want, "{case}: {what} on {target}");
                replays += replayed;
                assert_eq!(observe(&mut memoized), observe(&mut uncached), "{case}");
                for id in ALGOS {
                    assert_eq!(
                        memoized.invoke(id, &input),
                        uncached.invoke(id, &input),
                        "{case}: {what} on {target}: algo {id}"
                    );
                }
            }
        }
        assert_eq!(replays > 0, replayable, "{case}: {replays} replays");
    }
}

/// The uncached twins above are clones, so a clone must be a card of
/// its own. The same commands on a clone and on its original return
/// the same outputs, reports, stats and detail events and leave the
/// same device, ROM and table, and running them on the clone leaves
/// the original as it was.
#[test]
fn a_clone_runs_like_its_original_and_apart_from_it() {
    for (mode, policy) in [
        (ReconfigMode::Partial, Replacement::Lru),
        (ReconfigMode::Partial, Replacement::random(3)),
        (ReconfigMode::Full, Replacement::Lru),
    ] {
        let case = format!("{mode:?} {}", policy.name());
        let mut original = MiniOs::new(MiniOsConfig {
            geometry: DeviceGeometry::new(40, 16),
            mode,
            policy,
            ..MiniOsConfig::default()
        });
        for id in ALGOS {
            original.install(id).unwrap();
            original.invoke(id, &[0x11; 32]).unwrap();
        }
        original.set_trace(true);
        take_details(&mut original);
        let mut rng = SplitMix64::new(0xc107e);
        let script: Vec<(Op, Vec<Vec<u8>>)> = (0..200)
            .map(|_| {
                let op = Op::draw(&mut rng);
                let inputs = (0..3)
                    .map(|i| vec![rng.next_u64() as u8; 16 << i])
                    .collect();
                (op, inputs)
            })
            .collect();
        let kinds: std::collections::HashSet<_> = script
            .iter()
            .map(|(op, _)| std::mem::discriminant(op))
            .collect();
        assert_eq!(kinds.len(), 9, "{case}: the script misses a command");

        let before = observe(&mut original);
        let (rom, table) = (original.rom.clone(), original.table.clone());
        let mut clone = original.clone();
        let on_clone: Vec<(Outcome, Observed)> = script
            .iter()
            .map(|(op, inputs)| (apply(&mut clone, *op, inputs), observe(&mut clone)))
            .collect();
        assert_eq!(observe(&mut original), before, "{case}");
        assert!(original.rom == rom && original.table == table, "{case}");

        for (step, ((op, inputs), (outcome, seen))) in script.iter().zip(on_clone).enumerate() {
            assert_eq!(
                apply(&mut original, *op, inputs),
                outcome,
                "{case}, step {step}"
            );
            assert_eq!(observe(&mut original), seen, "{case}, step {step}");
        }
        assert!(original.device == clone.device, "{case}");
        assert!(original.rom == clone.rom, "{case}");
        assert_eq!(original.table, clone.table, "{case}");
    }
}
