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
