//! Test support for the lockstep block kernels (MatMul16, Conv2d,
//! Fft64, XTEA): the inputs their oracle sweeps share, and the
//! release-only floor on their host speed, and on the streaming
//! SHA-1 and HMAC-SHA-1, over the references they replaced.

use aaod_sim::SplitMix64;

/// Inputs for a kernel that runs `lanes` blocks of `block` bytes at a
/// time: empty, one block, `lanes + 1` blocks, all-zero and
/// all-`fill` (the saturating edge) groups, then seeded random
/// lengths of 0..=5 whole groups plus a ragged tail (a partial group
/// ending in a partial block).
pub(crate) fn sweep_inputs(
    rng: &mut SplitMix64,
    block: usize,
    lanes: usize,
    fill: u8,
) -> Vec<Vec<u8>> {
    let group = block * lanes;
    let mut inputs = vec![
        Vec::new(),
        random_bytes(rng, block),
        random_bytes(rng, block * (lanes + 1)),
        vec![0; 2 * group + block],
        vec![fill; 2 * group + block],
    ];
    // debug builds draw fewer random cases than release builds
    let per_count = if cfg!(debug_assertions) { 8 } else { 64 };
    for groups in 0..=5 {
        for _ in 0..per_count {
            let len = groups * group + rng.index(group + 1);
            inputs.push(random_bytes(rng, len));
        }
    }
    inputs
}

fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut bytes = vec![0; len];
    rng.fill(&mut bytes);
    bytes
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

/// One way to compute a kernel's output from its input.
type Run<'a> = &'a dyn Fn(&[u8]) -> Vec<u8>;

/// Each lockstep kernel is at least 1.3× its scalar reference on its
/// benchmark input size, and the streaming SHA-1 and HMAC-SHA-1 at
/// least 1.2× their message-copying references at 256 B. Both sides
/// run in this process, best of 200, so the ratio does not depend on
/// the runner's speed. Optimised builds only: the vectorised loops
/// are what is measured.
#[test]
#[cfg_attr(debug_assertions, ignore = "times optimised code")]
fn lockstep_kernels_beat_their_references() {
    use crate::crypto::hmac::{self, HmacSha1};
    use crate::crypto::sha1::{self, Sha1};
    use crate::crypto::xtea::{self, Xtea};
    use crate::dsp_ai::{self, Conv2d, Fft64, MatMul16};
    use crate::Kernel;
    use std::hint::black_box;

    let mut rng = SplitMix64::new(0x1_0C57);
    let conv = Conv2d.default_params();
    let coeffs: [i8; 9] = std::array::from_fn(|i| conv[i] as i8);
    let key = Xtea.default_params();
    let mac_key = HmacSha1.default_params();
    let cases: [(&str, usize, f64, Run, Run); 6] = [
        (
            "matmul16",
            4096,
            1.3,
            &|x| MatMul16.execute(&[], x).unwrap(),
            &dsp_ai::reference::matmul16,
        ),
        (
            "conv2d",
            4096,
            1.3,
            &|x| Conv2d.execute(&conv, x).unwrap(),
            &|x| dsp_ai::reference::conv2d(&coeffs, conv[9] as u32, x),
        ),
        (
            "fft64",
            4096,
            1.3,
            &|x| Fft64.execute(&[], x).unwrap(),
            &dsp_ai::reference::fft64,
        ),
        (
            "xtea",
            1504,
            1.3,
            &|x| Xtea.execute(&key, x).unwrap(),
            &|x| xtea::reference::ecb(&key, x),
        ),
        ("sha1", 256, 1.2, &|x| Sha1.execute(&[], x).unwrap(), &|x| {
            sha1::reference::sha1(x).to_vec()
        }),
        (
            "hmac-sha1",
            256,
            1.2,
            &|x| HmacSha1.execute(&mac_key, x).unwrap(),
            &|x| hmac::reference::hmac_sha1(&mac_key, x).to_vec(),
        ),
    ];
    let mut slow_kernels = Vec::new();
    for (name, len, floor, kernel, reference) in cases {
        let input = random_bytes(&mut rng, len);
        assert_eq!(kernel(&input), reference(&input), "{name}");
        let (fast, slow) = best_of(
            200,
            || drop(black_box(kernel(black_box(&input)))),
            || drop(black_box(reference(black_box(&input)))),
        );
        let ratio = slow as f64 / fast as f64;
        println!("{name} @ {len} B: {slow} ns -> {fast} ns, {ratio:.2}x");
        if ratio < floor {
            slow_kernels.push(format!("{name} {ratio:.2}x < {floor}x"));
        }
    }
    assert!(slow_kernels.is_empty(), "below floor: {slow_kernels:?}");
}
