//! Kernel-conformance tier for the DSP/AI bank (E19).
//!
//! Two layers of byte-exactness, per kernel:
//!
//! * **reference conformance** — the banked kernel, the bank's
//!   software-fallback path and the full co-processor pipeline
//!   (PCI + MiniOS + fabric) all produce byte-identical output, and
//!   that output matches an independently written plain-Rust
//!   reference (or a pinned golden fingerprint where re-deriving the
//!   exact fixed-point rounding would just restate the kernel).
//!   Edge shapes ride along: a 1×N partial record, a
//!   non-power-of-two batch with a ragged tail, all-zero input and
//!   the saturating worst case. All thirteen standard kernels ride
//!   along on the same three paths with pinned fingerprints, and the
//!   four LUT-netlist kernels also run warm on one card per kernel.
//! * **system identity** — serving the canonical E19 kernel mix
//!   through the concurrent `Engine` (every sharding policy) and
//!   through a healthy `Cluster` yields outputs byte-identical to a
//!   serial pass on one card.
//!
//! The workload seed is taken from `AAOD_KERNEL_SEED` when set (the
//! CI kernel matrix sweeps it) and falls back to a fixed default.

use aaod_algos::dsp_ai::{CONV2D_EDGE, CONV2D_TILE_BYTES, FFT64_BLOCK_BYTES, MATMUL16_PAIR_BYTES};
use aaod_algos::{ids, AlgorithmBank};
use aaod_core::{Cluster, ClusterConfig, CoProcessor, Engine, EngineConfig, ShardPolicy};
use aaod_workload::{mixes, Workload};

/// Seed for the kernel-tier workloads: `AAOD_KERNEL_SEED` if set.
fn kernel_seed() -> u64 {
    aaod_bench::env_seed("AAOD_KERNEL_SEED", 42)
}

/// A card whose bank includes the DSP/AI tier.
fn kernel_card() -> CoProcessor {
    CoProcessor::builder()
        .bank(AlgorithmBank::extended())
        .build()
}

/// Deterministic pseudorandom input bytes.
fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; len];
    aaod_sim::SplitMix64::new(seed).fill(&mut v);
    v
}

/// FNV-1a 64 fingerprint, for pinning golden outputs compactly.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `input` through all three execution paths of `algo_id` —
/// the bank's software executor, the kernel's own `execute`, and the
/// full co-processor — asserting they agree, and returns the bytes.
fn all_paths(algo_id: u16, input: &[u8]) -> Vec<u8> {
    let bank = AlgorithmBank::extended();
    let kernel = bank.kernel(algo_id).expect("kernel registered");
    let direct = kernel.execute(&kernel.default_params(), input).unwrap();
    let software = bank.execute_software(algo_id, input).unwrap();
    assert_eq!(direct, software, "bank fallback diverged for {algo_id}");
    let mut cp = kernel_card();
    cp.install(algo_id).unwrap();
    let (card, _) = cp.invoke(algo_id, input).unwrap();
    assert_eq!(direct, card, "co-processor path diverged for {algo_id}");
    direct
}

/// Independent 16×16 matmul reference: transposed-B walk instead of
/// the kernel's row-major inner loop, widened before multiply.
fn matmul_reference(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for chunk in input.chunks(MATMUL16_PAIR_BYTES) {
        let mut pair = [0i32; MATMUL16_PAIR_BYTES];
        for (dst, &src) in pair.iter_mut().zip(chunk.iter()) {
            *dst = src as i8 as i32;
        }
        let (a, b) = pair.split_at(256);
        let mut bt = [0i32; 256];
        for r in 0..16 {
            for c in 0..16 {
                bt[c * 16 + r] = b[r * 16 + c];
            }
        }
        for i in 0..16 {
            for j in 0..16 {
                let dot: i32 = (0..16).map(|k| a[i * 16 + k] * bt[j * 16 + k]).sum();
                let y = dot.max(i16::MIN as i32).min(i16::MAX as i32) as i16;
                out.extend_from_slice(&y.to_le_bytes());
            }
        }
    }
    out
}

/// Independent 3×3 convolution reference: gather-style neighbourhood
/// walk with explicit bounds checks.
fn conv2d_reference(params: &[u8], input: &[u8]) -> Vec<u8> {
    let coeffs: Vec<i32> = params[..9].iter().map(|&p| p as i8 as i32).collect();
    let shift = params[9] as u32;
    let e = CONV2D_EDGE;
    let mut out = Vec::new();
    for chunk in input.chunks(CONV2D_TILE_BYTES) {
        let at = |y: isize, x: isize| -> i32 {
            if y < 0 || x < 0 || y >= e as isize || x >= e as isize {
                return 0;
            }
            let idx = y as usize * e + x as usize;
            *chunk.get(idx).unwrap_or(&0) as i32
        };
        for y in 0..e as isize {
            for x in 0..e as isize {
                let mut acc = 0i32;
                for (t, &c) in coeffs.iter().enumerate() {
                    let (ky, kx) = ((t / 3) as isize - 1, (t % 3) as isize - 1);
                    acc += c * at(y + ky, x + kx);
                }
                out.push((acc >> shift).clamp(0, 255) as u8);
            }
        }
    }
    out
}

#[test]
fn matmul16_matches_reference_on_random_and_edge_shapes() {
    let shapes = [
        seeded_bytes(8 * MATMUL16_PAIR_BYTES, 0xE1901), // full batch
        seeded_bytes(3 * MATMUL16_PAIR_BYTES + 100, 0xE1902), // ragged tail
        seeded_bytes(40, 0xE1903),                      // 1×N partial record
        vec![0u8; 2 * MATMUL16_PAIR_BYTES],             // all-zero
        vec![0x80u8; MATMUL16_PAIR_BYTES],              // saturating worst case
    ];
    for (s, input) in shapes.iter().enumerate() {
        let got = all_paths(ids::MATMUL16, input);
        assert_eq!(got, matmul_reference(input), "shape {s}");
    }
    // the saturating case really saturates
    let sat = all_paths(ids::MATMUL16, &[0x80u8; MATMUL16_PAIR_BYTES]);
    assert!(sat
        .chunks_exact(2)
        .all(|c| i16::from_le_bytes([c[0], c[1]]) == i16::MAX));
}

#[test]
fn conv2d_matches_reference_on_random_and_edge_shapes() {
    let params = AlgorithmBank::extended()
        .kernel(ids::CONV2D)
        .unwrap()
        .default_params();
    let shapes = [
        seeded_bytes(4 * CONV2D_TILE_BYTES, 0xE1911),
        seeded_bytes(3 * CONV2D_TILE_BYTES + 77, 0xE1912),
        seeded_bytes(CONV2D_EDGE, 0xE1913), // one row: 1×N
        vec![0u8; CONV2D_TILE_BYTES],
        vec![0xFFu8; CONV2D_TILE_BYTES], // clamp ceiling under blur
    ];
    for (s, input) in shapes.iter().enumerate() {
        let got = all_paths(ids::CONV2D, input);
        assert_eq!(got, conv2d_reference(&params, input), "shape {s}");
    }
}

#[test]
fn fft64_analytic_cases_and_golden_fingerprint() {
    // all-zero input transforms to all-zero bins
    let zero = all_paths(ids::FFT64, &[0u8; 2 * FFT64_BLOCK_BYTES]);
    assert!(zero.iter().all(|&b| b == 0));
    // DC of amplitude A lands wholly in bin 0 (the per-stage ½
    // scaling normalises the transform by 1/64)
    let dc: Vec<u8> = (0..64).flat_map(|_| [0x00, 0x19, 0, 0]).collect(); // re = 6400
    let bins = all_paths(ids::FFT64, &dc);
    assert_eq!(i16::from_le_bytes([bins[0], bins[1]]), 6400);
    assert!(bins[4..].iter().all(|&b| b == 0), "energy leaked from DC");
    // an impulse of amplitude A spreads A/64 into every bin
    let mut impulse = vec![0u8; FFT64_BLOCK_BYTES];
    impulse[..2].copy_from_slice(&6400i16.to_le_bytes());
    let flat = all_paths(ids::FFT64, &impulse);
    for (p, c) in flat.chunks_exact(4).enumerate() {
        assert_eq!(i16::from_le_bytes([c[0], c[1]]), 100, "re bin {p}");
        assert_eq!(i16::from_le_bytes([c[2], c[3]]), 0, "im bin {p}");
    }
    // the Nyquist tone re[n] = A·(−1)^n concentrates in bin 32
    let nyq: Vec<u8> = (0..64i16)
        .flat_map(|n| {
            let a: i16 = if n % 2 == 0 { 6400 } else { -6400 };
            let mut s = a.to_le_bytes().to_vec();
            s.extend_from_slice(&[0, 0]);
            s
        })
        .collect();
    let bins = all_paths(ids::FFT64, &nyq);
    assert_eq!(i16::from_le_bytes([bins[128], bins[129]]), 6400);
    assert!(bins[..128].iter().all(|&b| b == 0));
    assert!(bins[132..].iter().all(|&b| b == 0));
    // pinned fingerprint over pseudorandom blocks incl. a ragged
    // tail: any fixed-point or ordering drift changes it
    let noisy = all_paths(
        ids::FFT64,
        &seeded_bytes(5 * FFT64_BLOCK_BYTES + 9, 0xE1921),
    );
    assert_eq!(
        fnv1a(&noisy),
        GOLDEN_FFT64_NOISY,
        "fft64 output drifted; got fingerprint {:#018x}",
        fnv1a(&noisy)
    );
}

/// Pinned golden fingerprints (FNV-1a 64 of the full output bytes)
/// for pseudorandom inputs. Regenerate only for an intentional
/// semantic change, from the value in the assertion message.
const GOLDEN_FFT64_NOISY: u64 = 0x3142f146de8b6d46;
const GOLDEN_MATMUL16: u64 = 0xaad2495d1c54dfdd;
const GOLDEN_CONV2D: u64 = 0x22e823912fce61c1;
const GOLDEN_FFT64: u64 = 0x180b5034164a8017;

#[test]
fn golden_fingerprints_pin_all_kernels() {
    let mm = all_paths(ids::MATMUL16, &seeded_bytes(4096, 0xE19));
    let cv = all_paths(ids::CONV2D, &seeded_bytes(4096, 0xE19));
    let ft = all_paths(ids::FFT64, &seeded_bytes(4096, 0xE19));
    assert_eq!(
        [fnv1a(&mm), fnv1a(&cv), fnv1a(&ft)],
        [GOLDEN_MATMUL16, GOLDEN_CONV2D, GOLDEN_FFT64],
        "kernel outputs drifted; got {:#018x} {:#018x} {:#018x}",
        fnv1a(&mm),
        fnv1a(&cv),
        fnv1a(&ft)
    );
}

/// Input sizes for the standard-bank fingerprints: a 16-byte-aligned
/// buffer, a ragged tail that no block kernel divides, and the
/// 1504 B MTU-sized packet the fleet workloads send.
const STANDARD_SIZES: [usize; 3] = [256, 1501, 1504];

/// Pinned golden fingerprints (FNV-1a 64) of all thirteen standard
/// kernels (nine behavioural, four LUT netlists) over
/// `seeded_bytes(len, 0xE12 + len)` at each of `STANDARD_SIZES`,
/// taken through all three execution paths. They pin byte identity
/// across any rewrite of a kernel's host implementation (the cipher
/// kernels are table-driven and the netlists run from truth tables;
/// the values were recorded from the bit-serial ciphers and the
/// bit-sliced netlist evaluator).
const GOLDEN_STANDARD: [(u16, [u64; 3]); 13] = [
    (
        ids::AES128,
        [0xd3b82d2454c52d02, 0x8713872c6597f091, 0x87774e2da8f76ffd],
    ),
    (
        ids::TDES,
        [0x2985279da16d9d37, 0x610aadaae9c960e0, 0x99268d773e8a7676],
    ),
    (
        ids::XTEA,
        [0xaa74d952b77f381e, 0x2f92248e852d2205, 0x9ed4cea4acd67fde],
    ),
    (
        ids::SHA1,
        [0x6c215f527f52f42c, 0xa20671522ee0605e, 0x0a2bc3d2b87e98f1],
    ),
    (
        ids::SHA256,
        [0xd61d85b704a73071, 0x788efbe4172069fa, 0x2eb33ef70d3a21bc],
    ),
    (
        ids::HMAC_SHA1,
        [0xc4a6ddf7a6fc32aa, 0xec5f125f9cc0f6fa, 0xe03f0b9d6bcd3fce],
    ),
    (
        ids::CRC32,
        [0xf33e24faf5c586e1, 0xdf2291b26dc07a58, 0xc1c6bfc4a21a25ef],
    ),
    (
        ids::FIR,
        [0x995da0e6a69569dc, 0x910dcb47448dd205, 0x78c0e9cb2429708a],
    ),
    (
        ids::MATMUL8,
        [0xedd351b05b6cbd5e, 0x6a79dfa7c9ee3de3, 0x895dd294d65cffc7],
    ),
    (
        ids::CRC8,
        [0xaf646b4c8602df89, 0xaf64454c86029ef7, 0xaf63b94c8601b113],
    ),
    (
        ids::ADDER8,
        [0x15dcfa6e1a6e6683, 0x5130a3788a614fcf, 0xa2c142704ad5437b],
    ),
    (
        ids::POPCNT8,
        [0xfcf2fc8a4ae44d05, 0xd28e93aa180c6b63, 0x678aa98335a319c0],
    ),
    (
        ids::PARITY8,
        [0xcc3be93e514c664f, 0xd7a0dc4c19f40647, 0x1126736c7878aeec],
    ),
];

#[test]
fn golden_fingerprints_pin_standard_kernels() {
    let got: Vec<(u16, [u64; 3])> = GOLDEN_STANDARD
        .iter()
        .map(|&(algo, _)| {
            let prints = STANDARD_SIZES
                .map(|len| fnv1a(&all_paths(algo, &seeded_bytes(len, 0xE12 + len as u64))));
            (algo, prints)
        })
        .collect();
    assert_eq!(
        got, GOLDEN_STANDARD,
        "standard kernel outputs drifted; got {:#018x?}",
        got
    );
}

/// One warm card per LUT-netlist kernel serves 300 seeded inputs of
/// 0..=1504 bytes through `invoke`: after the first few calls most
/// outputs come from filled truth-table entries, and every one must
/// still equal the kernel's software `execute`.
#[test]
fn warm_card_netlist_kernels_match_software() {
    let bank = AlgorithmBank::standard();
    for algo in [ids::CRC8, ids::ADDER8, ids::POPCNT8, ids::PARITY8] {
        let kernel = bank.kernel(algo).expect("kernel registered");
        let params = kernel.default_params();
        let mut cp = CoProcessor::default();
        cp.install(algo).unwrap();
        let mut rng = aaod_sim::SplitMix64::new(0xca4d + algo as u64);
        for i in 0..300 {
            let mut input = vec![0u8; rng.index(1505)];
            rng.fill(&mut input);
            let (card, _) = cp.invoke(algo, &input).unwrap();
            assert_eq!(
                card,
                kernel.execute(&params, &input).unwrap(),
                "algo {algo} call {i} ({} bytes) diverged from software",
                input.len()
            );
        }
    }
}

/// Serves `workload` serially on one kernel card with every
/// algorithm pre-installed.
fn serial_reference(workload: &Workload) -> Vec<Vec<u8>> {
    let mut cp = kernel_card();
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

/// The E19 mix through the concurrent engine, every sharding policy:
/// outputs must be byte-identical to the serial pass even though the
/// three images (72 + 56 + 64 frames) can never co-reside on the
/// 96-frame device and every switch forces reconfiguration.
#[test]
fn kernel_mix_engine_matches_serial_across_policies() {
    let workload = mixes::kernel_workload(120, kernel_seed());
    let expected = serial_reference(&workload);
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
            kernel_card,
        );
        let r = engine.serve(&workload).unwrap();
        assert_eq!(
            r.outputs.as_ref().unwrap(),
            &expected,
            "{} engine outputs diverged from serial on the kernel mix",
            policy.name()
        );
    }
}

/// The E19 mix through a healthy fleet: every job completes and every
/// output is byte-identical to the serial card, no matter which
/// replica served it.
#[test]
fn kernel_mix_cluster_matches_serial() {
    let workload = mixes::kernel_workload(120, kernel_seed());
    let expected = serial_reference(&workload);
    let bank = AlgorithmBank::extended();
    let cluster = Cluster::with_factory(
        ClusterConfig {
            cards: 4,
            replication: 2,
            card_workers: 2,
            ..ClusterConfig::default()
        },
        kernel_card,
    );
    let result = cluster.serve(&workload, &bank).unwrap();
    assert!(result.stats.accounted(), "ledger: {:?}", result.stats);
    assert_eq!(
        result.stats.goodput(),
        1.0,
        "healthy fleet must complete the whole kernel mix: {:?}",
        result.stats
    );
    assert_eq!(result.outputs.as_ref().unwrap(), &expected);
}
