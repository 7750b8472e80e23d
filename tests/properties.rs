//! Property-based tests over the core data structures and invariants.

use aaod_bitstream::codec::{decompress_all, registry, CodecId};
use aaod_bitstream::Bitstream;
use aaod_fabric::{run_decoded_netlist, DeviceGeometry, FunctionImage, FunctionKind, NetlistMode};
use aaod_mcu::{DecodedCache, FreeFrameList, McuError, MiniOs, MiniOsConfig};
use aaod_mem::{RecordFields, Rom};
use proptest::prelude::*;

/// Executes `algo` on `input` from a fresh, uncached decode of the
/// frames it currently occupies: the oracle for the mini-OS's
/// memoized resident decode.
fn uncached_output(os: &MiniOs, algo: u16, input: &[u8]) -> Result<Vec<u8>, McuError> {
    let frames = &os.table().get(algo).expect("resident").frames;
    let image = os.device().decode_function(frames)?;
    if image.algo_id() != algo {
        return Err(McuError::RecordMismatch(format!(
            "frames decode to algorithm {}, record says {algo}",
            image.algo_id()
        )));
    }
    Ok(match image.kind()? {
        FunctionKind::Netlist { netlist, mode } => run_decoded_netlist(&netlist, mode, input)?,
        FunctionKind::Behavioral { params } => os
            .bank()
            .kernel(algo)
            .expect("bank kernel")
            .execute(&params, input)?,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every codec round-trips arbitrary data.
    #[test]
    fn codec_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096),
                       codec_idx in 0usize..CodecId::ALL.len(),
                       frame_bytes in 1usize..512) {
        let codec = registry::codec(CodecId::ALL[codec_idx], frame_bytes);
        let compressed = codec.compress(&data);
        let back = decompress_all(codec.as_ref(), &compressed).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Windowed decompression equals bulk decompression for any
    /// window size.
    #[test]
    fn windowed_equals_bulk(data in proptest::collection::vec(any::<u8>(), 0..2048),
                            codec_idx in 0usize..CodecId::ALL.len(),
                            window in 1usize..777) {
        let codec = registry::codec(CodecId::ALL[codec_idx], 64);
        let compressed = codec.compress(&data);
        let mut decoder = codec.decompressor(&compressed);
        let mut out = Vec::new();
        let mut buf = vec![0u8; window];
        loop {
            let n = decoder.read(&mut buf).unwrap();
            if n == 0 { break; }
            out.extend_from_slice(&buf[..n]);
        }
        prop_assert_eq!(out, data);
    }

    /// Bitstream encode/decode is the identity for any frames.
    #[test]
    fn bitstream_roundtrip(frame_bytes in 1usize..256,
                           n_frames in 1usize..12,
                           codec_idx in 0usize..CodecId::ALL.len(),
                           seed in any::<u64>()) {
        let mut rng = aaod_sim::SplitMix64::new(seed);
        let frames: Vec<Vec<u8>> = (0..n_frames).map(|_| {
            let mut f = vec![0u8; frame_bytes];
            rng.fill(&mut f);
            f
        }).collect();
        let bs = Bitstream::new(9, 4, 4, frame_bytes, frames).unwrap();
        let codec = registry::codec(CodecId::ALL[codec_idx], frame_bytes);
        let encoded = bs.encode(codec.as_ref());
        prop_assert_eq!(Bitstream::decode(&encoded).unwrap(), bs);
    }

    /// Flipping any single bit of an image's used bytes is detected
    /// at decode time (digest or structural failure) — the image never
    /// silently decodes to a *different valid* identity.
    #[test]
    fn image_single_bit_corruption_detected(
        params in proptest::collection::vec(any::<u8>(), 0..32),
        filler in proptest::collection::vec(any::<u8>(), 0..256),
        byte_idx in any::<usize>(),
        bit in 0u8..8,
    ) {
        let img = FunctionImage::from_behavioral(5, &params, &filler, 4, 4);
        let mut bytes = img.to_bytes();
        let idx = byte_idx % bytes.len();
        bytes[idx] ^= 1 << bit;
        match FunctionImage::from_bytes(&bytes) {
            Err(_) => {} // detected
            Ok(other) => {
                // accepting corrupt bytes is only allowed if they
                // decode to the identical image (cannot happen for a
                // real flip, so fail loudly)
                prop_assert_eq!(other, img, "corruption silently accepted");
                prop_assert!(false, "flip at {} bit {} changed nothing?", idx, bit);
            }
        }
    }

    /// Netlist adder image computes u8 addition from decoded bits for
    /// arbitrary operand streams.
    #[test]
    fn adder_image_matches_arithmetic(pairs in proptest::collection::vec(any::<(u8, u8)>(), 1..64)) {
        let img = FunctionImage::from_netlist(
            1,
            aaod_algos::netlists::adder8_netlist(),
            NetlistMode::Combinational,
            1,
            1,
        );
        let geom = DeviceGeometry::new(8, 16);
        let decoded = FunctionImage::decode_frames(&img.encode(geom), geom).unwrap();
        let input: Vec<u8> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        let out = decoded.run_netlist(&input).unwrap();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let got = u16::from_le_bytes([out[i * 2], out[i * 2 + 1]]);
            prop_assert_eq!(got, a as u16 + b as u16);
        }
    }

    /// CRC-8 netlist equals the reference implementation on arbitrary
    /// inputs.
    #[test]
    fn crc8_image_matches_reference(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let img = FunctionImage::from_netlist(
            2,
            aaod_algos::netlists::crc8_netlist(),
            NetlistMode::Streaming,
            1,
            1,
        );
        let out = img.run_netlist(&data).unwrap();
        prop_assert_eq!(out, vec![aaod_algos::netlists::crc8_reference(&data)]);
    }

    /// FreeFrameList: any interleaving of allocations and releases
    /// conserves frames and never double-allocates.
    #[test]
    fn free_frame_list_conserves_frames(ops in proptest::collection::vec(any::<(bool, u8)>(), 1..64)) {
        let total = 32usize;
        let mut list = FreeFrameList::new(total);
        let mut held: Vec<Vec<aaod_fabric::FrameAddress>> = Vec::new();
        for (alloc, amount) in ops {
            if alloc {
                let n = (amount as usize) % 8;
                if let Some(frames) = list.allocate(n) {
                    prop_assert_eq!(frames.len(), n);
                    // no frame may be handed out twice
                    for f in &frames {
                        for h in &held {
                            prop_assert!(!h.contains(f), "frame {} double-allocated", f);
                        }
                    }
                    if !frames.is_empty() {
                        held.push(frames);
                    }
                }
            } else if !held.is_empty() {
                let frames = held.remove((amount as usize) % held.len());
                list.release(&frames);
            }
            let held_count: usize = held.iter().map(Vec::len).sum();
            prop_assert_eq!(list.free_count() + held_count, total);
        }
    }

    /// ROM: any download sequence preserves the dual-ended layout
    /// invariant and lookups return exactly what was stored.
    #[test]
    fn rom_layout_invariant(sizes in proptest::collection::vec(1usize..500, 1..20)) {
        let mut rom = Rom::new(4096);
        let mut stored: Vec<(u16, Vec<u8>)> = Vec::new();
        for (i, size) in sizes.into_iter().enumerate() {
            let payload = vec![(i % 251) as u8; size];
            let fields = RecordFields {
                algo_id: i as u16,
                uncompressed_len: size as u32 * 2,
                codec: 1,
                input_width: 4,
                output_width: 4,
                n_frames: 1,
            };
            match rom.download(fields, &payload) {
                Ok(()) => stored.push((i as u16, payload)),
                Err(_) => break, // full: acceptable, layout must survive
            }
            prop_assert_eq!(
                rom.bitstream_bytes_used() + rom.table_bytes_used() + rom.free_bytes(),
                rom.capacity()
            );
        }
        for (id, payload) in &stored {
            let rec = rom.lookup(*id).expect("stored function must be found");
            prop_assert_eq!(rom.bitstream_bytes(&rec), &payload[..]);
        }
    }

    /// The netlist optimiser preserves semantics on randomly built
    /// netlists.
    #[test]
    fn optimizer_preserves_semantics(seed in any::<u64>(), n_inputs in 1usize..10, n_gates in 1usize..60) {
        use aaod_fabric::{NetId, NetlistBuilder};
        let mut rng = aaod_sim::SplitMix64::new(seed);
        let mut b = NetlistBuilder::new();
        let inputs = b.inputs(n_inputs);
        let mut nets: Vec<NetId> = vec![b.zero(), b.one()];
        nets.extend(&inputs);
        for _ in 0..n_gates {
            let pick = |rng: &mut aaod_sim::SplitMix64, nets: &[NetId]| nets[rng.index(nets.len())];
            let truth = rng.next_u64() as u16;
            let ins = [
                pick(&mut rng, &nets),
                pick(&mut rng, &nets),
                pick(&mut rng, &nets),
                pick(&mut rng, &nets),
            ];
            let out = b.lut4(truth, ins);
            nets.push(out);
        }
        // choose a few outputs from anywhere in the design
        let n_outputs = 1 + rng.index(4);
        for _ in 0..n_outputs {
            let net = nets[rng.index(nets.len())];
            b.output(net);
        }
        let original = b.finish().unwrap();
        let (optimized, stats) = aaod_fabric::opt::optimize(&original).unwrap();
        prop_assert!(optimized.n_luts() <= original.n_luts());
        prop_assert_eq!(stats.luts_after, optimized.n_luts());
        for _ in 0..16 {
            let ins: Vec<bool> = (0..n_inputs).map(|_| rng.chance(0.5)).collect();
            prop_assert_eq!(original.eval(&ins), optimized.eval(&ins));
        }
    }

    /// Bit-sliced batch evaluation is byte-identical to the scalar
    /// walk on randomly built netlists, for any lane count — including
    /// counts that do not divide 64 and spill across lane groups.
    #[test]
    fn eval_batch_matches_scalar_eval(
        seed in any::<u64>(),
        n_inputs in 1usize..12,
        n_gates in 1usize..60,
        n_lanes in 0usize..150,
    ) {
        use aaod_fabric::{NetId, NetlistBuilder};
        let mut rng = aaod_sim::SplitMix64::new(seed);
        let mut b = NetlistBuilder::new();
        let inputs = b.inputs(n_inputs);
        let mut nets: Vec<NetId> = vec![b.zero(), b.one()];
        nets.extend(&inputs);
        for _ in 0..n_gates {
            let pick = |rng: &mut aaod_sim::SplitMix64, nets: &[NetId]| nets[rng.index(nets.len())];
            let truth = rng.next_u64() as u16;
            let ins = [
                pick(&mut rng, &nets),
                pick(&mut rng, &nets),
                pick(&mut rng, &nets),
                pick(&mut rng, &nets),
            ];
            let out = b.lut4(truth, ins);
            nets.push(out);
        }
        let n_outputs = 1 + rng.index(4);
        for _ in 0..n_outputs {
            let net = nets[rng.index(nets.len())];
            b.output(net);
        }
        let netlist = b.finish().unwrap();
        let lanes: Vec<Vec<bool>> = (0..n_lanes)
            .map(|_| (0..n_inputs).map(|_| rng.chance(0.5)).collect())
            .collect();
        let refs: Vec<&[bool]> = lanes.iter().map(Vec::as_slice).collect();
        let batched = netlist.eval_batch(&refs);
        prop_assert_eq!(batched.len(), n_lanes);
        for (lane, got) in lanes.iter().zip(&batched) {
            prop_assert_eq!(got, &netlist.eval(lane));
        }
    }

    /// The byte-level batch runner and the truth-table runner match
    /// the scalar runner on the real bank netlists for arbitrary
    /// mixed-length inputs, in both combinational and streaming modes.
    #[test]
    fn run_netlist_batch_matches_scalar(
        inputs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..80), 0..90),
    ) {
        use aaod_fabric::{run_decoded_netlist, run_decoded_netlist_batch, BatchScratch, NetlistTable};
        let cases = [
            (aaod_algos::netlists::adder8_netlist(), NetlistMode::Combinational),
            (aaod_algos::netlists::crc8_netlist(), NetlistMode::Streaming),
        ];
        let mut scratch = BatchScratch::default();
        for (netlist, mode) in cases {
            let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
            let batched = run_decoded_netlist_batch(&netlist, mode, &refs, &mut scratch).unwrap();
            let mut table = NetlistTable::new(netlist.clone()).expect("bank netlists fit");
            let tabulated = table.run_batch(mode, &refs).unwrap();
            prop_assert_eq!(&tabulated, &batched);
            for (input, got) in inputs.iter().zip(&batched) {
                prop_assert_eq!(got, &run_decoded_netlist(&netlist, mode, input).unwrap());
            }
        }
    }

    /// Streaming decompressors never panic on arbitrary (garbage)
    /// compressed input — they either produce bytes or fail cleanly.
    #[test]
    fn decompressors_never_panic_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                            codec_idx in 0usize..CodecId::ALL.len()) {
        let codec = registry::codec(CodecId::ALL[codec_idx], 64);
        let mut decoder = codec.decompressor(&data);
        let mut buf = [0u8; 257];
        // bound the pull: garbage RLE can legitimately expand a lot
        for _ in 0..64 {
            match decoder.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }

    /// Zipf workloads honour the algorithm universe and length.
    #[test]
    fn workload_well_formed(n in 1usize..300, s in 0.2f64..2.5, seed in any::<u64>()) {
        let algos = [3u16, 7, 11, 13];
        let w = aaod_workload::Workload::zipf(&algos, n, s, 16, seed);
        prop_assert_eq!(w.len(), n);
        for r in w.requests() {
            prop_assert!(algos.contains(&r.algo_id));
            prop_assert_eq!(r.input_len, 16);
        }
    }

    /// DecodedCache: any interleaving of inserts, lookups, removals
    /// and resets stays inside the byte budget and keeps the counter
    /// identity `hits + misses == lookups` — including across a
    /// `clear()` (population dropped, ledger kept) and a full
    /// `clear() + reset_stats()` watchdog-style reset.
    #[test]
    fn decoded_cache_budget_and_counter_invariants(
        ops in proptest::collection::vec((0u8..6, any::<u8>(), 1usize..64), 1..64),
    ) {
        let mut cache = DecodedCache::new(256);
        for (op, key_sel, size) in ops {
            let key = ((key_sel % 8) as u16, 0u8);
            match op {
                0 => { cache.insert(key, vec![vec![0u8; size]]); }
                1 => { let _ = cache.get(&key); }
                2 => { cache.remove(&key); }
                3 => { cache.remove_algo(key.0); }
                4 => {
                    let ledger = (cache.lookups(), cache.hits());
                    cache.clear();
                    prop_assert!(cache.is_empty());
                    prop_assert_eq!((cache.lookups(), cache.hits()), ledger);
                }
                _ => {
                    cache.clear();
                    cache.reset_stats();
                    prop_assert_eq!(cache.lookups(), 0);
                    prop_assert_eq!(cache.hits(), 0);
                }
            }
            prop_assert!(
                cache.bytes() <= cache.capacity_bytes(),
                "budget burst: {} > {}", cache.bytes(), cache.capacity_bytes()
            );
            prop_assert_eq!(cache.hits() + cache.misses(), cache.lookups());
            prop_assert_eq!(cache.is_empty(), cache.bytes() == 0);
        }
    }

    /// A MiniOs watchdog reset restarts the decoded-cache ledger from
    /// zero, so the identity holds over exactly the post-reset
    /// population — no pre-reset lookups leak into the new epoch.
    #[test]
    fn mini_os_reset_restarts_decoded_ledger(
        invokes in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        use aaod_algos::ids;
        let algos = [ids::XTEA, ids::SHA1, ids::CRC32, ids::CRC8];
        // tight fabric: constant eviction keeps the decoded cache busy
        let mut os = MiniOs::new(MiniOsConfig {
            geometry: DeviceGeometry::new(26, 16),
            ..MiniOsConfig::default()
        });
        for &id in &algos {
            os.install(id).unwrap();
        }
        for sel in &invokes {
            let _ = os.invoke(algos[(*sel as usize) % algos.len()], b"data");
        }
        os.reset();
        let cache = os.decoded_cache();
        prop_assert_eq!(cache.lookups(), 0);
        prop_assert_eq!(cache.hits(), 0);
        prop_assert_eq!(cache.misses(), 0);
        prop_assert!(cache.is_empty());
        // the new epoch's ledger is internally consistent on its own
        for sel in &invokes {
            let _ = os.invoke(algos[(*sel as usize) % algos.len()], b"data");
        }
        let cache = os.decoded_cache();
        prop_assert_eq!(cache.hits() + cache.misses(), cache.lookups());
    }

    /// MiniOs frame ledger: any interleaving of invokes, evictions,
    /// prefetch hints, scrubs and SEU injections keeps every frame
    /// either free or owned by exactly one resident function, and the
    /// trace's `DetailEvent::Eviction` stream stays in lock-step with
    /// `stats.evictions` — prefetch-driven evictions included.
    #[test]
    fn mini_os_frame_ledger_conserved_under_chaos(
        ops in proptest::collection::vec((0u8..5, any::<u8>()), 1..40),
        seed in any::<u64>(),
    ) {
        use aaod_algos::ids;
        let algos = [ids::XTEA, ids::SHA1, ids::SHA256, ids::CRC32, ids::CRC8];
        // 26 frames: constant replacement pressure
        let mut os = MiniOs::new(MiniOsConfig {
            geometry: DeviceGeometry::new(26, 16),
            ..MiniOsConfig::default()
        });
        os.set_trace(true);
        for &id in &algos {
            os.install(id).unwrap();
        }
        let mut details = Vec::new();
        os.take_details_into(&mut details); // drop install-time noise; evictions start at a clean ledger
        let install_evictions = os.stats().evictions;
        let mut rng = aaod_sim::SplitMix64::new(seed);
        let total = os.geometry().frames();
        let mut traced_evictions = 0u64;
        for (op, detail) in ops {
            let algo = algos[(detail as usize) % algos.len()];
            match op {
                // corrupted functions legitimately fail to invoke and
                // missing residents fail to evict; the ledger must
                // survive either way
                0 => { let _ = os.invoke(algo, b"data"); }
                1 => { let _ = os.evict(algo); }
                2 => { let _ = os.scrub(); }
                3 => { let _ = os.prefetch_hint(algo); }
                _ => { os.inject_seu(algo, &mut rng); }
            }
            let mut owned = vec![false; total];
            for id in os.resident() {
                for f in &os.table().get(id).unwrap().frames {
                    prop_assert!(!owned[f.index()], "frame {} owned twice", f);
                    owned[f.index()] = true;
                }
            }
            let held = owned.iter().filter(|&&b| b).count();
            prop_assert_eq!(held + os.free_frames(), total);
            // the observability stream is a second bookkeeper: every
            // charged eviction (demand or prefetch) must appear as a
            // detail event, and nothing may appear uncharged
            os.take_details_into(&mut details);
            traced_evictions += details
                .iter()
                .filter(|e| matches!(e, aaod_sim::DetailEvent::Eviction { .. }))
                .count() as u64;
            prop_assert_eq!(
                traced_evictions + install_evictions,
                os.stats().evictions,
                "trace and ledger eviction counts diverged"
            );
        }
    }

    /// The memoized resident decode is invisible: under any
    /// interleaving of invokes, SEUs, torn configurations, evictions,
    /// scrubs, resets and prefetches, every invoke returns exactly what
    /// a fresh decode of the function's current frames computes —
    /// the same output, or the same error.
    #[test]
    fn memoized_decode_matches_uncached_decode(
        ops in proptest::collection::vec((0u8..8, any::<u8>()), 1..48),
        seed in any::<u64>(),
    ) {
        use aaod_algos::ids;
        let algos = [ids::XTEA, ids::SHA1, ids::CRC8, ids::CRC32, ids::PARITY8];
        let inputs: [&[u8]; 4] = [b"", b"abc", &[0x5A; 8], b"0123456789abcdef"];
        // 26 frames: constant replacement pressure
        let mut os = MiniOs::new(MiniOsConfig {
            geometry: DeviceGeometry::new(26, 16),
            ..MiniOsConfig::default()
        });
        for &id in &algos {
            os.install(id).unwrap();
        }
        let mut rng = aaod_sim::SplitMix64::new(seed);
        for (op, detail) in ops {
            let algo = algos[(detail as usize) % algos.len()];
            match op {
                0..=2 => {
                    let input = inputs[(detail as usize / algos.len()) % inputs.len()];
                    let got = os.invoke(algo, input).map(|(out, _)| out);
                    // a failed configuration leaves nothing resident
                    // to decode; everything else is checked
                    if os.table().contains(algo) {
                        prop_assert_eq!(got, uncached_output(&os, algo, input));
                    }
                }
                3 => { os.inject_seu(algo, &mut rng); }
                4 => { os.inject_torn(algo); }
                5 => { let _ = os.evict(algo); }
                6 => {
                    if detail % 4 == 0 { os.reset(); } else { let _ = os.scrub(); }
                }
                _ => { os.prefetch_hint(algo); }
            }
        }
    }

    /// LUT canonicalisation round-trips: for any truth table,
    /// decanonicalising the canonical form with the recorded
    /// permutation restores the original word exactly, and the
    /// canonical form is permutation-invariant (every input ordering
    /// of the same LUT canonicalises to the same word).
    #[test]
    fn lut_canonicalisation_roundtrips(t in any::<u16>(), perm in 0u8..aaod_bitstream::canon::N_PERMS as u8) {
        use aaod_bitstream::canon::{apply_perm, canon_word, decanon_word};
        let (canonical, p) = canon_word(t);
        prop_assert_eq!(decanon_word(canonical, p), t);
        // canonical form never compares above any permuted variant
        prop_assert!(canonical <= apply_perm(t, perm));
        // permuting the inputs must not change the canonical class
        let (canonical2, _) = canon_word(apply_perm(t, perm));
        prop_assert_eq!(canonical, canonical2);
    }

    /// Frame-level canonicalisation round-trips byte-for-byte for any
    /// frame, including odd-length frames with a trailing
    /// non-LUT byte.
    #[test]
    fn frame_canonicalisation_roundtrips(frame in proptest::collection::vec(any::<u8>(), 0..512)) {
        use aaod_bitstream::canon::{canon_frame, decanon_frame};
        let (canonical, perm) = canon_frame(&frame);
        prop_assert_eq!(canonical.len(), frame.len());
        prop_assert_eq!(decanon_frame(&canonical, perm), frame);
    }

    /// The frame store is a pure function of frame content: lookups
    /// after any insert sequence return bytes identical to what was
    /// inserted — hash-equal keys imply byte-equal frames, never a
    /// false dedup — and the byte ledger stays within budget.
    #[test]
    fn frame_store_never_serves_wrong_bytes(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..96), 1..24),
        capacity in 64usize..4096,
    ) {
        use aaod_bitstream::{frame_key, FrameStore};
        let mut store = FrameStore::new(capacity);
        for frame in &frames {
            store.insert(frame);
            prop_assert!(store.bytes() <= store.capacity_bytes());
        }
        for frame in &frames {
            // identical content always derives the identical key
            prop_assert_eq!(frame_key(frame), frame_key(frame));
            if let Some(got) = store.get_raw(frame_key(frame)) {
                prop_assert_eq!(&*got, frame, "store served different bytes");
            }
        }
    }

    /// SimTime arithmetic is consistent with picosecond integers.
    #[test]
    fn simtime_arithmetic(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        use aaod_sim::SimTime;
        let ta = SimTime::from_ps(a);
        let tb = SimTime::from_ps(b);
        prop_assert_eq!((ta + tb).as_ps(), a + b);
        prop_assert_eq!(ta.saturating_sub(tb).as_ps(), a.saturating_sub(b));
        prop_assert_eq!(ta.max(tb).as_ps(), a.max(b));
    }
}

// Engine runs are costly, so the overload property gets its own small
// case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under any seeded latency-fault plan and deadline tightness, the
    /// overload layer conserves jobs — `shed + deadline_missed +
    /// completed + faulted == submitted` — and every surviving output
    /// is byte-identical to the fault-free serial run.
    #[test]
    fn overload_conserves_jobs_and_survivors_match_serial(
        seed in any::<u64>(),
        latency_rate in 0.0f64..0.15,
        interarrival_ns in 1u64..200_000,
        budget_us in 1u64..100_000,
        workers in 1usize..4,
    ) {
        use aaod_algos::ids;
        use aaod_core::{
            CoProcessor, DeadlinePolicy, Engine, EngineConfig, FaultConfig, OverloadConfig,
        };
        use aaod_sim::{FaultPlan, FaultRates, LatencyRates, SimTime};
        let algos = [ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA];
        let w = aaod_workload::Workload::zipf(&algos, 48, 1.1, 32, seed);
        let mut serial = CoProcessor::default();
        for &algo in &w.distinct_algos() {
            serial.install(algo).unwrap();
        }
        let baseline: Vec<Vec<u8>> = w
            .requests()
            .iter()
            .enumerate()
            .map(|(i, req)| serial.invoke(req.algo_id, &w.input(i)).unwrap().0)
            .collect();
        let plan = FaultPlan::new(seed, FaultRates::ZERO)
            .with_latency(LatencyRates::uniform(latency_rate / 3.0));
        let r = Engine::new(EngineConfig {
            workers,
            verify: true,
            overload: Some(OverloadConfig {
                interarrival: SimTime::from_ns(interarrival_ns),
                deadline: DeadlinePolicy::Absolute(SimTime::from_us(budget_us)),
                ..OverloadConfig::default()
            }),
            faults: Some(FaultConfig::new(plan)),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        prop_assert!(r.overload.accounted(), "leaked jobs: {:?}", r.overload);
        prop_assert_eq!(r.overload.submitted, 48);
        prop_assert_eq!(r.overload.shed, r.shed.len() as u64);
        prop_assert_eq!(r.overload.deadline_missed, r.deadline_missed.len() as u64);
        prop_assert_eq!(r.overload.faulted, r.failed.len() as u64);
        let outputs = r.outputs.as_ref().unwrap();
        for (i, want) in baseline.iter().enumerate() {
            let dropped = r.shed.contains_key(&i)
                || r.deadline_missed.contains_key(&i)
                || r.failed.contains_key(&i);
            if dropped {
                prop_assert!(outputs[i].is_empty(), "dropped job {} left bytes", i);
            } else {
                prop_assert_eq!(&outputs[i], want, "survivor {} corrupted", i);
            }
        }
    }

    /// For any seeded workload and fault mix, the engine's trace is
    /// well-formed: per-shard timestamps are monotone non-decreasing,
    /// every opened job closes exactly once, stage spans balance, and
    /// the stream is reproducible byte-for-byte.
    #[test]
    fn trace_well_formed_on_random_workloads(
        seed in any::<u64>(),
        fault_rate in 0.0f64..0.05,
        n in 8usize..64,
        workers in 1usize..4,
    ) {
        use aaod_algos::ids;
        use aaod_core::{Engine, EngineConfig, FaultConfig, TraceConfig};
        use aaod_sim::trace::EventKind;
        use aaod_sim::{FaultPlan, FaultRates, SimTime};
        use std::collections::BTreeMap;
        let algos = [ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA];
        let w = aaod_workload::Workload::zipf(&algos, n, 1.1, 32, seed);
        let cfg = EngineConfig {
            workers,
            verify: true,
            faults: Some(FaultConfig::new(FaultPlan::new(
                seed,
                FaultRates::uniform(fault_rate),
            ))),
            trace: TraceConfig::full(),
            ..EngineConfig::default()
        };
        let r = Engine::new(cfg).serve(&w).unwrap();
        let t = r.trace.as_ref().unwrap();
        let mut last: BTreeMap<u32, SimTime> = BTreeMap::new();
        let mut open_jobs: BTreeMap<(u32, u64), SimTime> = BTreeMap::new();
        let mut open_stages = 0i64;
        let mut closed = 0u64;
        for e in &t.events {
            let prev = last.entry(e.shard).or_insert(SimTime::ZERO);
            prop_assert!(e.ts >= *prev, "shard {} reversed at seq {}", e.shard, e.seq);
            *prev = e.ts;
            match e.kind {
                EventKind::JobOpen { job, .. } => {
                    prop_assert!(
                        open_jobs.insert((e.shard, job), e.ts).is_none(),
                        "job {} opened twice", job
                    );
                }
                EventKind::JobClose { job, .. } => {
                    let at = open_jobs.remove(&(e.shard, job));
                    prop_assert!(at.is_some(), "job {} closed unopened", job);
                    prop_assert!(at.unwrap() <= e.ts);
                    closed += 1;
                }
                EventKind::StageOpen { .. } => open_stages += 1,
                EventKind::StageClose { .. } => open_stages -= 1,
                _ => {}
            }
        }
        prop_assert!(open_jobs.is_empty(), "unclosed jobs: {:?}", open_jobs);
        prop_assert_eq!(open_stages, 0, "unbalanced stage spans");
        prop_assert_eq!(closed, n as u64, "every job must close");
        let again = Engine::new(cfg).serve(&w).unwrap();
        prop_assert_eq!(
            again.trace.as_ref().unwrap().to_jsonl(),
            t.to_jsonl(),
            "trace not reproducible"
        );
    }

    /// For any seeded chaos + overload mix, the trace-derived counters
    /// are *identical* to the component ledgers — the observability
    /// layer is a second, independent bookkeeper that must always
    /// agree with the first.
    #[test]
    fn trace_counters_identical_to_ledgers(
        seed in any::<u64>(),
        fault_rate in 0.0f64..0.04,
        latency_rate in 0.0f64..0.05,
        interarrival_ns in 1u64..200_000,
        workers in 1usize..4,
    ) {
        use aaod_core::{DeadlinePolicy, FaultConfig, OverloadConfig};
        use aaod_sim::{FaultPlan, FaultRates, LatencyRates, SimTime};
        let plan = FaultPlan::new(seed, FaultRates::uniform(fault_rate))
            .with_latency(LatencyRates::uniform(latency_rate));
        let oc = OverloadConfig {
            interarrival: SimTime::from_ns(interarrival_ns),
            deadline: DeadlinePolicy::Absolute(SimTime::from_secs(1)),
            ..OverloadConfig::default()
        };
        trace_matches_ledgers(workers, seed, oc, FaultConfig::new(plan))?;
    }
}

/// Serves a 48-request chaos + overload mix with counters-level
/// tracing and checks every trace-derived counter against the ledger
/// it mirrors, including the job ledger: every opened job closes
/// exactly once, and the completed and deadline-missed closes match
/// the overload ledger in every mode, second pass included.
fn trace_matches_ledgers(
    workers: usize,
    seed: u64,
    oc: aaod_core::OverloadConfig,
    faults: aaod_core::FaultConfig,
) -> Result<aaod_core::EngineResult, TestCaseError> {
    use aaod_algos::ids;
    use aaod_core::{Engine, EngineConfig, TraceConfig};
    let algos = [ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA];
    let w = aaod_workload::Workload::zipf(&algos, 48, 1.1, 32, seed);
    let r = Engine::new(EngineConfig {
        workers,
        verify: true,
        overload: Some(oc),
        faults: Some(faults),
        trace: TraceConfig::counters(),
        ..EngineConfig::default()
    })
    .serve(&w)
    .unwrap();
    prop_assert!(r.overload.accounted());
    let c = &r.trace.as_ref().unwrap().metrics.counters;
    prop_assert_eq!(c.enqueued, 48);
    prop_assert_eq!(c.dequeued, 48);
    prop_assert_eq!(c.shed, r.overload.shed);
    prop_assert_eq!(c.bounced, r.overload.breaker_rejections);
    prop_assert_eq!(c.redistributed, r.overload.redistributed);
    prop_assert_eq!(c.watchdog_resets, r.overload.watchdog_resets);
    prop_assert_eq!(c.breaker_trips, r.overload.breaker_trips);
    prop_assert_eq!(
        c.jobs_opened,
        c.jobs_completed + c.jobs_faulted + c.jobs_deadline_missed
    );
    prop_assert_eq!(c.jobs_completed, r.overload.completed);
    prop_assert_eq!(c.jobs_deadline_missed, r.overload.deadline_missed);
    prop_assert_eq!(
        c.faults_injected,
        r.faults.injected
            + r.overload.stalls_injected
            + r.overload.slow_transfers_injected
            + r.overload.stuck_injected
    );
    prop_assert_eq!(c.faults_inert, r.faults.inert + r.overload.latency_inert);
    prop_assert_eq!(c.retries, r.faults.retries);
    prop_assert_eq!(c.requeued, r.faults.requeues);
    prop_assert_eq!(c.faults_failed, r.faults.faults_failed);
    prop_assert_eq!(c.repairs_scrub, r.faults.scrubbed);
    prop_assert_eq!(c.repairs_redownload, r.faults.redownloads);
    prop_assert_eq!(c.repairs_pci_retry, r.faults.pci_retried);
    prop_assert_eq!(c.repairs_evict_clear, r.faults.evict_cleared);
    Ok(r)
}

/// The trace ledger identities on the two second-pass configurations
/// the random inputs rarely reach: a threshold-1 breaker that stays
/// open (most jobs are redistributed) and the requeue rescue with no
/// retries (every landed fault's job is rescued on the spare).
#[test]
fn trace_counters_identical_to_ledgers_in_the_second_pass() {
    use aaod_core::{BreakerConfig, DeadlinePolicy, FaultConfig, OverloadConfig};
    use aaod_sim::{FaultPlan, FaultRates, SimTime};
    let oc = OverloadConfig {
        interarrival: SimTime::from_us(100),
        deadline: DeadlinePolicy::Absolute(SimTime::from_secs(100)),
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: SimTime::from_secs(1),
        },
        ..OverloadConfig::default()
    };
    let mut fc = FaultConfig::new(FaultPlan::new(0x0D10AD, FaultRates::uniform(0.05)));
    fc.max_retries = 0;
    let r = trace_matches_ledgers(3, 31, oc, fc).unwrap();
    assert!(r.overload.redistributed > 0, "{:?}", r.overload);
    fc.requeue = true;
    let never_trips = BreakerConfig {
        failure_threshold: u32::MAX,
        ..oc.breaker
    };
    let r = trace_matches_ledgers(
        2,
        31,
        OverloadConfig {
            breaker: never_trips,
            ..oc
        },
        fc,
    )
    .unwrap();
    assert!(r.faults.requeues > 0, "{:?}", r.faults);
}

// Realistic-traffic and multi-tenant admission properties (E19). The
// base seed folds in `AAOD_KERNEL_SEED` so the CI kernel matrix
// sweeps this suite with the same knob as the conformance tier.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Diurnal streams are a pure function of their arguments: the
    /// request stream and the arrival-tick curve reproduce exactly,
    /// ticks are monotone, and the mean gap stays pinned to one
    /// interarrival (1000 milliticks) regardless of the ratio.
    #[test]
    fn diurnal_reproduces_and_keeps_mean_gap(
        seed in any::<u64>(),
        n in 16usize..200,
        periods in 1u32..5,
        ratio in 2u32..30,
    ) {
        use aaod_workload::Workload;
        let seed = seed ^ aaod_bench::env_seed("AAOD_KERNEL_SEED", 0);
        let a = Workload::diurnal(&[3, 5, 8], n, periods, ratio, 32, seed);
        let b = Workload::diurnal(&[3, 5, 8], n, periods, ratio, 32, seed);
        prop_assert_eq!(a.requests(), b.requests());
        let ticks: Vec<u64> = (0..n).map(|i| a.arrival_tick(i).unwrap()).collect();
        prop_assert_eq!(
            ticks.clone(),
            (0..n).map(|i| b.arrival_tick(i).unwrap()).collect::<Vec<_>>()
        );
        prop_assert!(ticks.windows(2).all(|w| w[0] <= w[1]), "ticks reversed");
        if n >= 32 {
            let mean_gap = ticks[n - 1] / (n as u64 - 1);
            prop_assert!(
                (700..=1300).contains(&mean_gap),
                "mean gap {mean_gap} drifted from one interarrival"
            );
        }
    }

    /// Flash-crowd streams reproduce exactly, and the middle-third
    /// spike really compresses arrivals: the spike's mean gap is the
    /// baseline's divided by the multiplier.
    #[test]
    fn flash_crowd_reproduces_and_spike_compresses(
        seed in any::<u64>(),
        n in 30usize..200,
        mult in 2u32..50,
    ) {
        use aaod_workload::Workload;
        let seed = seed ^ aaod_bench::env_seed("AAOD_KERNEL_SEED", 0);
        let hot = 3u16;
        let a = Workload::flash_crowd(&[3, 5, 8], hot, n, mult, 32, seed);
        let b = Workload::flash_crowd(&[3, 5, 8], hot, n, mult, 32, seed);
        prop_assert_eq!(a.requests(), b.requests());
        let ticks: Vec<u64> = (0..n).map(|i| a.arrival_tick(i).unwrap()).collect();
        prop_assert_eq!(
            ticks.clone(),
            (0..n).map(|i| b.arrival_tick(i).unwrap()).collect::<Vec<_>>()
        );
        prop_assert!(ticks.windows(2).all(|w| w[0] <= w[1]));
        // gaps: baseline 1000 milliticks, spike max(1000/mult, 1)
        let spike = n / 3..2 * n / 3;
        for i in 1..n {
            let gap = ticks[i] - ticks[i - 1];
            if spike.contains(&(i - 1)) {
                prop_assert_eq!(gap, (1000 / mult as u64).max(1), "spike gap at {}", i);
            } else {
                prop_assert_eq!(gap, 1000, "baseline gap at {}", i);
            }
        }
        // the hot algorithm dominates the spike window
        let hot_in_spike = spike.clone().filter(|&i| a.requests()[i].algo_id == hot).count();
        prop_assert!(hot_in_spike * 2 >= spike.len(), "spike never got hot");
    }
}

// Weighted-fair engine runs are costly; small case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Under any tenant weights, quotas, slack and deadline tightness,
    /// the weighted-fair admission layer conserves jobs globally
    /// (`shed + deadline_missed + completed + faulted +
    /// quota_exceeded == submitted`), conserves them per tenant, the
    /// per-tenant ledgers sum to the global one, and the quota ledger
    /// equals the arithmetic excess of each tenant's offered load.
    #[test]
    fn weighted_fair_conserves_globally_and_per_tenant(
        seed in any::<u64>(),
        w_gw in 1u32..8,
        w_flood in 1u32..8,
        flood_quota in 20u64..200,
        slack_pct in 0u32..200,
        interarrival_ns in 100u64..50_000,
        budget_us in 10u64..10_000,
    ) {
        use aaod_core::{
            DeadlinePolicy, Engine, EngineConfig, FairnessConfig, OverloadConfig, ShardPolicy,
        };
        use aaod_sim::SimTime;
        use aaod_workload::{TenantSpec, Workload};
        let seed = seed ^ aaod_bench::env_seed("AAOD_KERNEL_SEED", 0);
        let spec = |name: &str, algo: u16, weight: u32, offered: u32, quota: Option<u64>| {
            TenantSpec {
                name: name.into(),
                algos: vec![algo],
                weight,
                offered,
                input_len: 64,
                quota,
            }
        };
        let n = 120usize;
        let w = Workload::multi_tenant(
            &[
                spec("gw", 3, w_gw, 1, None),
                spec("flood", 5, w_flood, 6, Some(flood_quota)),
            ],
            n,
            seed,
        );
        let r = Engine::new(EngineConfig {
            workers: 2,
            shard: ShardPolicy::RoundRobin,
            overload: Some(OverloadConfig {
                interarrival: SimTime::from_ns(interarrival_ns),
                deadline: DeadlinePolicy::Absolute(SimTime::from_us(budget_us)),
                fairness: Some(FairnessConfig {
                    slack_pct,
                    ..FairnessConfig::default()
                }),
                ..OverloadConfig::default()
            }),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        prop_assert!(r.overload.accounted(), "global leak: {:?}", r.overload);
        prop_assert_eq!(r.overload.submitted, n as u64);
        prop_assert!(r.overload.fair_shed <= r.overload.shed);
        prop_assert_eq!(r.tenants.len(), 2);
        for t in &r.tenants {
            prop_assert!(t.accounted(), "tenant leak: {:?}", t);
        }
        let sum = |f: fn(&aaod_core::TenantStats) -> u64| -> u64 {
            r.tenants.iter().map(f).sum()
        };
        prop_assert_eq!(sum(|t| t.submitted), r.overload.submitted);
        prop_assert_eq!(sum(|t| t.completed), r.overload.completed);
        prop_assert_eq!(sum(|t| t.shed), r.overload.shed);
        prop_assert_eq!(sum(|t| t.deadline_missed), r.overload.deadline_missed);
        prop_assert_eq!(sum(|t| t.faulted), r.overload.faulted);
        prop_assert_eq!(sum(|t| t.quota_exceeded), r.overload.quota_exceeded);
        // the quota ledger is exactly the arithmetic excess
        let flood_offered = (0..n).filter(|&i| w.tenant_of(i) == Some(1)).count() as u64;
        prop_assert_eq!(
            r.overload.quota_exceeded,
            flood_offered.saturating_sub(flood_quota),
            "quota ledger must equal offered − quota"
        );
        prop_assert_eq!(r.quota_exceeded.len() as u64, r.overload.quota_exceeded);
    }
}
