//! Oracle sweep for the truth-table netlist path: on every netlist,
//! [`NetlistTable::run_batch`] must return exactly what the scalar
//! [`run_decoded_netlist`] walk (`Netlist::eval`, one input vector at a
//! time) returns, errors included.
//!
//! Two populations: seeded random netlists of 1–16 inputs and 1–16
//! outputs in both modes, and netlists decoded from the four bank
//! netlist images after single-bit flips (digest re-sealed, so the
//! corrupted netlist reaches `kind()`).

use aaod_algos::{ids, AlgorithmBank};
use aaod_fabric::digest::fnv1a64;
use aaod_fabric::{
    run_decoded_netlist, DeviceGeometry, FunctionImage, FunctionKind, Netlist, NetlistBuilder,
    NetlistMode, NetlistTable,
};
use aaod_sim::SplitMix64;

/// Input lengths cycled through by every sweep: empty, sub-block,
/// around one 64-entry block of bytes, and a ragged MTU-sized packet.
const LENGTHS: [usize; 7] = [0, 1, 2, 63, 64, 65, 1501];

fn random_netlist(rng: &mut SplitMix64, n_inputs: usize, n_outputs: usize) -> Netlist {
    let mut b = NetlistBuilder::new();
    let mut nets = vec![b.zero(), b.one()];
    nets.extend(b.inputs(n_inputs));
    for _ in 0..1 + rng.index(50) {
        let ins = [0; 4].map(|_| nets[rng.index(nets.len())]);
        let out = b.lut4(rng.next_u64() as u16, ins);
        nets.push(out);
    }
    for _ in 0..n_outputs {
        b.output(nets[rng.index(nets.len())]);
    }
    b.finish().unwrap()
}

/// Runs `n` seeded inputs through one table, first one call per input
/// (so early calls fill entries and later ones hit filled blocks), then
/// all of them as one batch, comparing each with the scalar oracle.
fn check_against_scalar(
    netlist: &Netlist,
    mode: NetlistMode,
    n: usize,
    rng: &mut SplitMix64,
    what: &str,
) {
    let mut table = NetlistTable::new(netlist.clone()).expect("netlist fits a table");
    let inputs: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let mut v = vec![0u8; LENGTHS[i % LENGTHS.len()]];
            rng.fill(&mut v);
            v
        })
        .collect();
    for input in &inputs {
        let want = run_decoded_netlist(netlist, mode, input);
        let got = table
            .run_batch(mode, &[input])
            .map(|mut outs| outs.pop().expect("one output per input"));
        assert_eq!(got, want, "{what}: {mode:?} input of {} bytes", input.len());
    }
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let want: Result<Vec<Vec<u8>>, _> = refs
        .iter()
        .map(|input| run_decoded_netlist(netlist, mode, input))
        .collect();
    assert_eq!(table.run_batch(mode, &refs), want, "{what}: {mode:?} batch");
}

#[test]
fn table_matches_scalar_on_random_netlists() {
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(0x7ab1_e000 + seed);
        // Any widths, both modes: most pairs are malformed for the
        // mode, and the error must match the scalar path's.
        let n_inputs = 1 + rng.index(16);
        let n_outputs = 1 + rng.index(16);
        let nl = random_netlist(&mut rng, n_inputs, n_outputs);
        for mode in [NetlistMode::Combinational, NetlistMode::Streaming] {
            check_against_scalar(&nl, mode, 14, &mut rng, &format!("seed {seed} any"));
        }
        // Well-formed combinational: 8 or 16 inputs.
        let (n_inputs, n_outputs) = (8 * (1 + rng.index(2)), 1 + rng.index(16));
        let nl = random_netlist(&mut rng, n_inputs, n_outputs);
        let what = format!("seed {seed} combinational");
        check_against_scalar(&nl, NetlistMode::Combinational, 100, &mut rng, &what);
        // Well-formed streaming: 8 data + 1..=8 state inputs.
        let state = 1 + rng.index(8);
        let nl = random_netlist(&mut rng, 8 + state, state);
        let what = format!("seed {seed} streaming");
        check_against_scalar(&nl, NetlistMode::Streaming, 100, &mut rng, &what);
    }
}

/// Flips bit `bit` of the serialised image and re-seals its digest, as
/// a patch would, so the flipped netlist decodes.
fn flipped(flat: &[u8], bit: usize) -> Option<FunctionImage> {
    let mut bytes = flat.to_vec();
    bytes[bit / 8] ^= 1 << (bit % 8);
    bytes[16..24].fill(0);
    let digest = fnv1a64(&bytes);
    bytes[16..24].copy_from_slice(&digest.to_le_bytes());
    FunctionImage::from_bytes(&bytes).ok()
}

#[test]
fn table_matches_scalar_on_flipped_bank_images() {
    let bank = AlgorithmBank::standard();
    let geom = DeviceGeometry::default();
    let mut checked = 0;
    for algo in [ids::CRC8, ids::ADDER8, ids::POPCNT8, ids::PARITY8] {
        let image = bank.build_image(algo, geom).unwrap();
        let flat = image.to_bytes();
        let mut rng = SplitMix64::new(0xf11b + algo as u64);
        // Every bit of the netlist header (widths, LUT count, mode),
        // then a seeded sample of the output list and LUT bodies. Bits
        // 128..192 are the digest field itself and never flip.
        let header = 40 * 8..48 * 8;
        let sample: Vec<usize> = (0..40)
            .map(|_| 48 * 8 + rng.index(flat.len() * 8 - 48 * 8))
            .collect();
        for bit in header.chain(sample) {
            let Some(img) = flipped(&flat, bit) else {
                continue;
            };
            let Ok(FunctionKind::Netlist { netlist, mode }) = img.kind() else {
                continue;
            };
            if NetlistTable::new(netlist.clone()).is_none() {
                continue;
            }
            let what = format!("algo {algo} bit {bit}");
            check_against_scalar(&netlist, mode, 14, &mut rng, &what);
            checked += 1;
        }
    }
    assert!(checked >= 100, "only {checked} flipped netlists decoded");
}

/// Every combinational netlist of the extended bank, decoded from its
/// image: one table per netlist, fed every length 0..=300 one call at a
/// time and then as one batch, returns exactly the scalar walk's bytes.
/// An 8-input table fills on first use, so this also covers its
/// straight reads from the first call on.
#[test]
fn table_matches_scalar_on_every_combinational_bank_netlist() {
    let bank = AlgorithmBank::extended();
    let geom = DeviceGeometry::default();
    let mut rng = SplitMix64::new(0x0c0b_1300);
    let mut checked = Vec::new();
    for kernel in bank.iter() {
        let image = bank.build_image(kernel.algo_id(), geom).unwrap();
        let Ok(FunctionKind::Netlist {
            netlist,
            mode: NetlistMode::Combinational,
        }) = image.kind()
        else {
            continue;
        };
        let mut table = NetlistTable::new(netlist.clone()).expect("bank netlists fit");
        let inputs: Vec<Vec<u8>> = (0..=300)
            .map(|len| {
                let mut v = vec![0u8; len];
                rng.fill(&mut v);
                v
            })
            .collect();
        for input in &inputs {
            let want = run_decoded_netlist(&netlist, NetlistMode::Combinational, input).unwrap();
            let got = table
                .run_batch(NetlistMode::Combinational, &[input])
                .unwrap();
            assert_eq!(got, [want], "{}: {} bytes", kernel.name(), input.len());
            if netlist.n_inputs() == 8 {
                assert_eq!(table.filled_blocks(), 4, "{}: filled lazily", kernel.name());
            }
        }
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let want: Vec<Vec<u8>> = refs
            .iter()
            .map(|input| run_decoded_netlist(&netlist, NetlistMode::Combinational, input).unwrap())
            .collect();
        assert_eq!(
            table.run_batch(NetlistMode::Combinational, &refs).unwrap(),
            want,
            "{}: batch",
            kernel.name()
        );
        checked.push(kernel.algo_id());
    }
    checked.sort_unstable();
    let mut expected = vec![ids::ADDER8, ids::POPCNT8, ids::PARITY8];
    expected.sort_unstable();
    assert_eq!(checked, expected);
}

/// The truth table of an affine LUT: the XOR of the pattern bits in
/// `subset`, inverted when `invert`.
fn xor_truth(subset: u16, invert: bool) -> u16 {
    (0..16u16).fold(0, |truth, p| {
        truth | (((p & subset).count_ones() as u16 & 1) ^ u16::from(invert)) << p
    })
}

/// A streaming netlist of 8 data and `state` state inputs. Every LUT
/// is an XOR or XNOR of a random subset of four random nets, constants
/// and repeats among them, with random truth bits on the patterns a
/// constant input never reaches; outputs are random nets, inputs and
/// constants among them. A `near_miss` of `"first"`, `"last"` or
/// `"between"` makes that LUT an AND or an OR of two distinct inputs or
/// LUT outputs instead.
fn affine_netlist(rng: &mut SplitMix64, state: usize, near_miss: Option<&str>) -> Netlist {
    let mut b = NetlistBuilder::new();
    let mut nets = vec![b.zero(), b.one()];
    nets.extend(b.inputs(8 + state));
    let n_luts = 1 + rng.index(40);
    let and_at = near_miss.map(|at| match at {
        "first" => 0,
        "last" => n_luts - 1,
        _ => rng.index(n_luts),
    });
    for k in 0..n_luts {
        let out = if and_at == Some(k) {
            let x = 2 + rng.index(nets.len() - 2);
            let y = 2 + (x - 2 + 1 + rng.index(nets.len() - 3)) % (nets.len() - 2);
            let truth = if rng.index(2) == 0 { 0x8888 } else { 0xEEEE };
            b.lut4(truth, [nets[x], nets[y], b.zero(), b.zero()])
        } else {
            let ins = [0; 4].map(|_| nets[rng.index(nets.len())]);
            let (mut fixed, mut constant) = (0u16, 0u16);
            for (k, net) in ins.iter().enumerate() {
                if *net == b.one() {
                    fixed |= 1 << k;
                }
                if *net == b.one() || *net == b.zero() {
                    constant |= 1 << k;
                }
            }
            let reachable = (0..16u16)
                .filter(|p| p & constant == fixed)
                .fold(0u16, |mask, p| mask | 1 << p);
            let affine = xor_truth(rng.next_u64() as u16 & 0xF, rng.index(2) == 1);
            b.lut4(
                (affine & reachable) | (rng.next_u64() as u16 & !reachable),
                ins,
            )
        };
        nets.push(out);
    }
    for _ in 0..state {
        b.output(nets[rng.index(nets.len())]);
    }
    b.finish().unwrap()
}

/// Streams every length 0..=300 through one table, one call per input
/// and then as one batch, against the scalar walk; returns the table.
fn streams_like_the_scalar_walk(
    netlist: &Netlist,
    rng: &mut SplitMix64,
    what: &str,
) -> NetlistTable {
    let mut table = NetlistTable::new(netlist.clone()).expect("streaming steps fit a table");
    let inputs: Vec<Vec<u8>> = (0..=300)
        .map(|len| {
            let mut v = vec![0u8; len];
            rng.fill(&mut v);
            v
        })
        .collect();
    let mut want = Vec::with_capacity(inputs.len());
    for input in &inputs {
        let expected = run_decoded_netlist(netlist, NetlistMode::Streaming, input).unwrap();
        let got = table.run_batch(NetlistMode::Streaming, &[input]).unwrap();
        assert_eq!(got[..], [&expected[..]], "{what}: {} bytes", input.len());
        want.push(expected);
    }
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    assert_eq!(
        table.run_batch(NetlistMode::Streaming, &refs).unwrap(),
        want,
        "{what}: batch"
    );
    table
}

/// Affine streaming steps of every state width run from their affine
/// maps, fill no table block and stream exactly what the scalar walk
/// streams. One AND or OR LUT anywhere (first, last or between) sends
/// the step back to the lazily filled table, still byte-identical.
#[test]
fn affine_streaming_steps_match_the_scalar_walk() {
    for state in 1..=8 {
        let mut rng = SplitMix64::new(0xaff1_e000 + state as u64);
        for round in 0..2 {
            let nl = affine_netlist(&mut rng, state, None);
            let what = format!("state {state} affine {round}");
            let table = streams_like_the_scalar_walk(&nl, &mut rng, &what);
            assert!(table.affine(), "{what}: not taken as affine");
            assert_eq!(table.filled_blocks(), 0, "{what}: filled the table");
        }
        for at in ["first", "last", "between", "between"] {
            let nl = affine_netlist(&mut rng, state, Some(at));
            let what = format!("state {state} near miss, AND/OR {at} of {}", nl.n_luts());
            let table = streams_like_the_scalar_walk(&nl, &mut rng, &what);
            assert!(!table.affine(), "{what}: taken as affine");
            assert!(table.filled_blocks() > 0, "{what}: no table fill");
        }
    }
    // the bank's CRC-8, decoded from its image
    let image = AlgorithmBank::standard()
        .build_image(ids::CRC8, DeviceGeometry::default())
        .unwrap();
    let Ok(FunctionKind::Netlist { netlist, mode }) = image.kind() else {
        panic!("CRC-8 is a netlist image");
    };
    assert_eq!(mode, NetlistMode::Streaming);
    let table = streams_like_the_scalar_walk(&netlist, &mut SplitMix64::new(0xc8), "crc8");
    assert!(table.affine() && table.filled_blocks() == 0);
}

/// Best-of-`runs` wall time of each of `a` and `b`, interleaved so a
/// burst of machine noise hits both, in nanoseconds.
fn best_of<A: FnMut(), B: FnMut()>(runs: usize, mut a: A, mut b: B) -> (u128, u128) {
    let time = |f: &mut dyn FnMut()| {
        let start = std::time::Instant::now();
        f();
        start.elapsed().as_nanos()
    };
    (0..runs).fold((u128::MAX, u128::MAX), |(ta, tb), _| {
        (ta.min(time(&mut a)), tb.min(time(&mut b)))
    })
}

/// CRC-8's affine step is at least 4× its lazily filled table chain at
/// 1,500 B, and no slower at 256 B. The chain side streams the same netlist plus one dead AND
/// LUT, which leaves every output as it is but makes the step
/// non-affine. Both sides run warm in this process, best of 200, so the
/// ratio does not depend on the runner's speed. Optimised builds only.
#[test]
#[cfg_attr(debug_assertions, ignore = "times optimised code")]
fn affine_step_beats_the_table_chain() {
    use aaod_fabric::netlist::Lut;
    use aaod_fabric::NetId;
    use std::hint::black_box;

    let image = AlgorithmBank::standard()
        .build_image(ids::CRC8, DeviceGeometry::default())
        .unwrap();
    let Ok(FunctionKind::Netlist { netlist: crc8, .. }) = image.kind() else {
        panic!("CRC-8 is a netlist image");
    };
    let mut luts = crc8.luts().to_vec();
    luts.push(Lut {
        inputs: [NetId(2), NetId(3), NetId::ZERO, NetId::ZERO],
        truth: 0x8888,
    });
    let chained =
        Netlist::from_parts(crc8.n_inputs() as u16, luts, crc8.outputs().to_vec()).unwrap();
    let mut affine = NetlistTable::new(crc8).unwrap();
    let mut chain = NetlistTable::new(chained).unwrap();
    let mut rng = SplitMix64::new(0xc8_4a7e);
    let mut slow_sizes = Vec::new();
    for (len, floor) in [(256, 1.0), (1500, 4.0)] {
        let mut input = vec![0u8; len];
        rng.fill(&mut input);
        let want = vec![aaod_algos::netlists::crc8_reference(&input)];
        let run = |table: &mut NetlistTable| {
            let mut outs = table
                .run_batch(NetlistMode::Streaming, &[black_box(&input)])
                .unwrap();
            outs.pop().expect("one output per input")
        };
        assert_eq!(run(&mut affine), want);
        // warm the chain's table with every state this input reaches
        assert_eq!(run(&mut chain), want);
        assert!(affine.affine() && !chain.affine());
        let (fast, slow) = best_of(
            200,
            || drop(black_box(run(&mut affine))),
            || drop(black_box(run(&mut chain))),
        );
        let ratio = slow as f64 / fast as f64;
        println!("crc8 step @ {len} B: {slow} ns -> {fast} ns, {ratio:.2}x");
        if ratio < floor {
            slow_sizes.push(format!("{len} B {ratio:.2}x < {floor}x"));
        }
    }
    assert!(slow_sizes.is_empty(), "below floor: {slow_sizes:?}");
}
