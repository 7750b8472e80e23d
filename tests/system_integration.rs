//! Cross-crate integration tests: the whole card, end to end.

use aaod_algos::{ids, AlgorithmBank};
use aaod_bitstream::codec::CodecId;
use aaod_core::baselines::SoftwareExecutor;
use aaod_core::{run_workload, CoProcessor, ReconfigMode};
use aaod_fabric::DeviceGeometry;
use aaod_mcu::Replacement;
use aaod_workload::{mixes, Workload};

/// Installs every bank algorithm and checks hardware output equals the
/// golden software model for each — the fundamental correctness claim.
#[test]
fn every_algorithm_matches_software_end_to_end() {
    let mut cp = CoProcessor::default();
    let bank = AlgorithmBank::standard();
    for id in ids::ALL {
        cp.install(id).unwrap();
    }
    for id in ids::ALL {
        let len = mixes::default_input_len(id);
        let input: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let (hw, report) = cp.invoke(id, &input).unwrap();
        let sw = bank.execute_software(id, &input).unwrap();
        assert_eq!(hw, sw, "algo {id} diverged");
        assert!(report.total().as_ns() > 0.0);
    }
}

/// Constant eviction pressure must never corrupt results.
#[test]
fn eviction_storm_preserves_correctness() {
    // 26 frames: only one big function fits at a time alongside a
    // couple of small ones.
    let mut cp = CoProcessor::builder()
        .geometry(DeviceGeometry::new(26, 16))
        .build();
    let algos = [ids::XTEA, ids::SHA1, ids::SHA256, ids::CRC32, ids::CRC8];
    for &id in &algos {
        cp.install(id).unwrap();
    }
    let w = Workload::round_robin(&algos, 60, 128);
    let r = run_workload(&mut cp, &w, true).unwrap();
    assert!(
        r.evictions.unwrap() > 10,
        "expected heavy eviction, got {:?}",
        r.evictions
    );
}

/// Every codec must produce a working card.
#[test]
fn all_codecs_configure_correctly() {
    for codec in CodecId::ALL {
        let mut cp = CoProcessor::builder().codec(codec).build();
        cp.install(ids::SHA256).unwrap();
        let (out, _) = cp.invoke(ids::SHA256, b"abc").unwrap();
        assert_eq!(
            out[..4],
            [0xba, 0x78, 0x16, 0xbf],
            "codec {codec} broke configuration"
        );
    }
}

/// The decompression window size must not affect results, only timing.
#[test]
fn window_size_is_result_invariant() {
    let mut reference: Option<Vec<u8>> = None;
    for window in [16usize, 128, 896, 8192] {
        let mut cp = CoProcessor::builder().window(window).build();
        cp.install(ids::AES128).unwrap();
        let (out, _) = cp.invoke(ids::AES128, &[7u8; 64]).unwrap();
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "window {window} changed the result"),
        }
    }
}

/// Partial and full reconfiguration must compute identical results;
/// partial must be faster under swapping.
#[test]
fn full_and_partial_agree_on_outputs() {
    let algos = [ids::CRC32, ids::XTEA];
    let mut partial = CoProcessor::default();
    let mut full = CoProcessor::builder().mode(ReconfigMode::Full).build();
    for &id in &algos {
        partial.install(id).unwrap();
        full.install(id).unwrap();
    }
    let w = Workload::round_robin(&algos, 20, 64);
    let rp = run_workload(&mut partial, &w, true).unwrap();
    let rf = run_workload(&mut full, &w, true).unwrap();
    assert!(
        rf.total_time > rp.total_time,
        "full {} should exceed partial {}",
        rf.total_time,
        rp.total_time
    );
}

/// Belady's oracle must not lose to LRU on hit rate (allow equality).
#[test]
fn belady_upper_bounds_lru_hit_rate() {
    let algos = mixes::full_bank();
    let w = Workload::zipf(&algos, 250, 1.1, 64, 77);
    let hit_rate = |policy: Replacement| {
        let mut cp = CoProcessor::builder()
            .geometry(DeviceGeometry::new(48, 16))
            .policy(policy)
            .build();
        for &id in &algos {
            cp.install(id).unwrap();
        }
        run_workload(&mut cp, &w, false)
            .unwrap()
            .hit_rate()
            .unwrap()
    };
    let lru = hit_rate(Replacement::Lru);
    let belady = hit_rate(Replacement::belady(w.algo_trace()));
    assert!(
        belady >= lru - 1e-9,
        "belady {belady} must not lose to lru {lru}"
    );
}

/// Random policy should not decisively beat LRU on a skewed workload
/// (sanity on the policy machinery, with generous margin).
#[test]
fn lru_competitive_with_random_on_skewed_workloads() {
    let algos = mixes::full_bank();
    let w = Workload::zipf(&algos, 300, 1.4, 64, 123);
    let run_with = |policy: Replacement| {
        let mut cp = CoProcessor::builder()
            .geometry(DeviceGeometry::new(40, 16))
            .policy(policy)
            .build();
        for &id in &algos {
            cp.install(id).unwrap();
        }
        run_workload(&mut cp, &w, false)
            .unwrap()
            .hit_rate()
            .unwrap()
    };
    let lru = run_with(Replacement::Lru);
    let random = run_with(Replacement::random(5));
    assert!(
        lru + 0.02 >= random,
        "lru {lru} unexpectedly lost to random {random} by a wide margin"
    );
}

/// The ROM rejects overflow and the card keeps working afterwards.
/// A cloned card is a card of its own, PCI bus included: the same
/// workload on the clone and on its original gives the same run and
/// ledgers, and serving on the clone leaves the original untouched.
#[test]
fn a_cloned_card_serves_like_its_original() {
    let algos = mixes::full_bank();
    let w = Workload::zipf(&algos, 120, 1.1, 64, 9);
    let mut original = CoProcessor::builder()
        .geometry(DeviceGeometry::new(48, 16))
        .policy(Replacement::random(7))
        .build();
    for &id in &algos {
        original.install(id).unwrap();
    }
    run_workload(&mut original, &w, false).unwrap();
    let before = (original.stats(), original.pci_stats(), original.resident());
    let mut clone = original.clone();
    let on_clone = run_workload(&mut clone, &w, true).unwrap();
    assert_eq!(
        (original.stats(), original.pci_stats(), original.resident()),
        before
    );
    assert_eq!(run_workload(&mut original, &w, true).unwrap(), on_clone);
    assert_eq!(
        (original.stats(), original.pci_stats(), original.resident()),
        (clone.stats(), clone.pci_stats(), clone.resident())
    );
}

#[test]
fn rom_exhaustion_is_clean() {
    let mut cp = CoProcessor::builder()
        .rom_capacity(24 * 1024)
        .codec(CodecId::Null)
        .build();
    let mut installed = Vec::new();
    for id in ids::ALL {
        match cp.install(id) {
            Ok(_) => installed.push(id),
            Err(_) => break,
        }
    }
    assert!(
        !installed.is_empty() && installed.len() < ids::ALL.len(),
        "tiny rom should hold some but not all functions ({installed:?})"
    );
    // everything installed still runs
    let id = installed[0];
    let input = vec![0u8; mixes::default_input_len(id)];
    cp.invoke(id, &input).unwrap();
}

/// Host-side accounting: PCI totals reflect both bitstreams and data.
#[test]
fn pci_accounting_is_complete() {
    let mut cp = CoProcessor::default();
    cp.install(ids::CRC32).unwrap();
    let installed_bytes = cp.pci_stats().bytes_written;
    assert!(installed_bytes > 0, "bitstream download not counted");
    cp.invoke(ids::CRC32, &[1u8; 500]).unwrap();
    let s = cp.pci_stats();
    assert_eq!(s.bytes_written, installed_bytes + 500);
    assert_eq!(s.bytes_read, 4);
}

/// The agile card beats software on a cipher-heavy stream (the paper's
/// headline) and software beats it on a trivial-kernel stream (the
/// honest crossover).
#[test]
fn agility_payoff_shape() {
    let heavy = Workload::bursty(&[ids::AES128, ids::XTEA], 300, 15, 1504, 9);
    let trivial = Workload::bursty(&[ids::CRC32, ids::PARITY8], 300, 15, 256, 9);
    for (workload, coproc_should_win) in [(heavy, true), (trivial, false)] {
        let mut cp = CoProcessor::default();
        for id in workload.distinct_algos() {
            cp.install(id).unwrap();
        }
        let mut sw = SoftwareExecutor::new();
        let rc = run_workload(&mut cp, &workload, true).unwrap();
        let rs = run_workload(&mut sw, &workload, true).unwrap();
        if coproc_should_win {
            assert!(
                rc.total_time < rs.total_time,
                "co-processor should win heavy: {} vs {}",
                rc.total_time,
                rs.total_time
            );
        } else {
            assert!(
                rs.total_time < rc.total_time,
                "software should win trivial: {} vs {}",
                rs.total_time,
                rc.total_time
            );
        }
    }
}

/// Prefetching under an over-committed predictable rotation: results
/// stay correct and the hit rate improves dramatically.
#[test]
fn prefetch_correct_and_effective_under_pressure() {
    let big_three = [ids::AES128, ids::TDES, ids::SHA256]; // 58 > 52 frames
    let w = Workload::round_robin(&big_three, 90, 512);
    let run = |prefetch: bool| {
        let mut cp = CoProcessor::builder()
            .geometry(DeviceGeometry::new(52, 16))
            .prefetch(prefetch)
            .build();
        for &id in &big_three {
            cp.install(id).unwrap();
        }
        run_workload(&mut cp, &w, true).unwrap() // verified outputs
    };
    let off = run(false);
    let on = run(true);
    assert!(
        off.hit_rate().unwrap() < 0.1,
        "rotation should thrash reactively"
    );
    assert!(
        on.hit_rate().unwrap() > 0.8,
        "prefetch should rescue the rotation: {:?}",
        on.hit_rate()
    );
    assert!(on.total_time < off.total_time / 5);
}

/// Scrubbing keeps a workload correct while SEUs rain on the device.
#[test]
fn scrubbed_workload_survives_seu_rain() {
    use aaod_sim::SplitMix64;
    let algos = [ids::SHA1, ids::CRC32];
    let mut cp = CoProcessor::default();
    for &id in &algos {
        cp.install(id).unwrap();
    }
    let mut rng = SplitMix64::new(0xbad);
    let bank = AlgorithmBank::standard();
    for i in 0..120usize {
        let id = algos[i % 2];
        let input = vec![(i % 251) as u8; 64];
        match cp.invoke(id, &input) {
            Ok((out, _)) => {
                assert_eq!(
                    out,
                    bank.execute_software(id, &input).unwrap(),
                    "silent corruption at request {i}"
                );
            }
            Err(_) => {
                // detected corruption: scrub repairs it
                let repaired = cp.scrub().unwrap().repaired;
                assert!(
                    !repaired.is_empty(),
                    "invoke failed but scrub found nothing"
                );
            }
        }
        // one SEU every few requests, anywhere on the device
        if i % 5 == 4 {
            let geom = cp.geometry();
            let frame = aaod_fabric::FrameAddress(rng.index(geom.frames()) as u16);
            let offset = rng.index(geom.frame_bytes());
            let mut bytes = cp.os().device().read_frame(frame).unwrap().to_vec();
            bytes[offset] ^= 1 << rng.index(8);
            cp.os_mut().device_mut().write_frame(frame, &bytes).unwrap();
        }
        // periodic scrub
        if i % 10 == 9 {
            cp.scrub().unwrap();
        }
    }
}

/// The wire-level command interface drives a full session.
#[test]
fn command_session_end_to_end() {
    use aaod_mcu::{Command, Response};
    let mut cp = CoProcessor::default();
    let bitstream = cp.os().encode_bitstream(ids::SHA1).unwrap();
    // encode → decode across the "wire" before dispatch, as the real
    // driver would
    let wire = Command::Download { bitstream }.encode();
    let cmd = Command::decode(&wire).unwrap();
    let (resp, _) = cp.send_command(cmd).unwrap();
    assert_eq!(resp, Response::Done);
    let wire = Command::Invoke {
        algo_id: ids::SHA1,
        input: b"abc".to_vec(),
    }
    .encode();
    let (resp, t) = cp.send_command(Command::decode(&wire).unwrap()).unwrap();
    match resp {
        Response::Output(digest) => {
            assert_eq!(digest[..4], [0xa9, 0x99, 0x3e, 0x36]);
        }
        other => panic!("unexpected response {other:?}"),
    }
    assert!(t.as_us() > 0.0);
}

/// Configuration-matrix smoke: every (geometry, codec, window, mode)
/// combination yields a working, correct card.
#[test]
fn configuration_matrix_smoke() {
    for geometry in [DeviceGeometry::new(48, 8), DeviceGeometry::new(96, 16)] {
        for codec in [CodecId::Rle, CodecId::Lzss, CodecId::FrameXor] {
            for window in [32usize, 896] {
                for mode in [ReconfigMode::Partial, ReconfigMode::Full] {
                    let mut cp = CoProcessor::builder()
                        .geometry(geometry)
                        .codec(codec)
                        .window(window)
                        .mode(mode)
                        .build();
                    cp.install(ids::CRC32).unwrap();
                    let (out, _) = cp.invoke(ids::CRC32, b"123456789").unwrap();
                    assert_eq!(
                        out,
                        0xCBF4_3926u32.to_le_bytes().to_vec(),
                        "broken combination: {geometry} {codec} w={window} {mode:?}"
                    );
                }
            }
        }
    }
}

/// Statistics and residency stay consistent across a long mixed run.
#[test]
fn long_run_bookkeeping_invariants() {
    let algos = mixes::full_bank();
    let mut cp = CoProcessor::builder()
        .geometry(DeviceGeometry::new(64, 16))
        .build();
    for &id in &algos {
        cp.install(id).unwrap();
    }
    let w = Workload::uniform(&algos, 200, 96, 31);
    run_workload(&mut cp, &w, false).unwrap();
    let s = cp.stats();
    assert_eq!(s.requests, 200);
    assert_eq!(s.hits + s.misses, 200);
    // resident functions' frames fit the device and don't overlap
    let geom = cp.geometry();
    let mut seen = vec![false; geom.frames()];
    for id in cp.resident() {
        let residency = cp.os().table().get(id).unwrap();
        for f in &residency.frames {
            assert!(!seen[f.index()], "frame {f} owned twice");
            seen[f.index()] = true;
        }
    }
    let owned = seen.iter().filter(|&&b| b).count();
    assert_eq!(owned + cp.os().free_frames(), geom.frames());
}

/// A batch whose function was evicted by intervening traffic straddles
/// the eviction: the first request pays one reconfiguration (evicting
/// the squatter), the riders hit, and every output stays golden.
#[test]
fn batch_straddles_eviction() {
    // Measure both footprints on a roomy device, then build one that
    // holds either function alone but never both.
    let mut probe = CoProcessor::builder()
        .geometry(DeviceGeometry::new(64, 16))
        .build();
    probe.install(ids::SHA1).unwrap();
    probe.install(ids::SHA256).unwrap();
    probe.invoke(ids::SHA1, b"x").unwrap();
    probe.invoke(ids::SHA256, b"x").unwrap();
    let footprint = |cp: &CoProcessor, id| cp.os().table().get(id).unwrap().frames.len() as u16;
    let frames = footprint(&probe, ids::SHA1).max(footprint(&probe, ids::SHA256)) + 1;

    let mut cp = CoProcessor::builder()
        .geometry(DeviceGeometry::new(frames, 16))
        .build();
    cp.install(ids::SHA1).unwrap();
    cp.install(ids::SHA256).unwrap();
    cp.invoke(ids::SHA1, b"warm").unwrap();
    cp.invoke(ids::SHA256, b"squatter").unwrap(); // evicts SHA1
    assert_eq!(cp.resident(), vec![ids::SHA256]);

    let before = cp.stats();
    let inputs: Vec<&[u8]> = vec![b"one", b"two", b"three"];
    let served = cp.invoke_batch(ids::SHA1, &inputs).unwrap();
    let after = cp.stats();
    assert_eq!(served.len(), 3);
    assert_eq!(after.requests - before.requests, 3);
    assert_eq!(after.misses - before.misses, 1, "one reconfiguration");
    assert_eq!(after.hits - before.hits, 2, "riders hit by construction");
    assert_eq!(after.evictions - before.evictions, 1, "squatter evicted");
    assert!(!served[0].1.hit() && !served[0].1.os.evicted.is_empty());
    assert!(served[1].1.hit() && served[2].1.hit());
    let bank = AlgorithmBank::standard();
    for ((out, _), &input) in served.iter().zip(&inputs) {
        assert_eq!(*out, bank.execute_software(ids::SHA1, input).unwrap());
    }
}

/// An empty batch is a no-op: no results, no bus traffic, no charge.
#[test]
fn empty_batch_is_free() {
    let mut cp = CoProcessor::default();
    cp.install(ids::CRC8).unwrap();
    cp.invoke(ids::CRC8, b"warm").unwrap();
    let os_before = cp.stats();
    let pci_before = cp.pci_stats();
    let served = cp.invoke_batch(ids::CRC8, &[]).unwrap();
    assert!(served.is_empty());
    assert_eq!(cp.stats(), os_before, "no controller work charged");
    assert_eq!(cp.pci_stats(), pci_before, "no bus traffic");
}

/// Batching charges the shared costs once: same outputs as the serial
/// run, but one lookup and one residency check for the whole batch.
#[test]
fn batch_charges_shared_costs_once() {
    let inputs: Vec<&[u8]> = vec![b"alpha", b"beta", b"gamma", b"delta"];

    let mut serial = CoProcessor::default();
    serial.install(ids::CRC32).unwrap();
    let mut expected = Vec::new();
    for &input in &inputs {
        expected.push(serial.invoke(ids::CRC32, input).unwrap().0);
    }

    let mut batched = CoProcessor::default();
    batched.install(ids::CRC32).unwrap();
    let served = batched.invoke_batch(ids::CRC32, &inputs).unwrap();
    let outputs: Vec<_> = served.iter().map(|(out, _)| out.clone()).collect();
    assert_eq!(outputs, expected, "batching must not change results");

    let s = batched.stats();
    assert_eq!(s.requests, 4);
    assert_eq!(s.misses, 1, "one configuration for the whole batch");
    assert_eq!(s.hits, 3);
    assert!(
        s.lookup_time < serial.stats().lookup_time,
        "lookup paid once, not {} times",
        inputs.len()
    );
    // only the first report carries the shared costs
    assert!(served[0].1.os.lookup_time > aaod_sim::SimTime::ZERO);
    for (_, report) in &served[1..] {
        assert_eq!(report.os.lookup_time, aaod_sim::SimTime::ZERO);
        assert_eq!(report.os.reconfig_time, aaod_sim::SimTime::ZERO);
    }
}
