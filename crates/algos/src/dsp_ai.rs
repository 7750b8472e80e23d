//! Large-footprint DSP/AI kernels: blocked 16×16 matrix multiply,
//! 3×3 image convolution and a 64-point fixed-point FFT.
//!
//! These are the "DSP/AI tier" of the bank: frame footprints 5–20×
//! the standard kernels (56–72 frames against the 96-frame default
//! device vs 2–32 for the rest of the bank) and proportionally larger
//! payloads, so bitstream download, frame-store dedup, PCI burst
//! staging and on-card RAM accounting are all actually stressed.
//! They live in [`AlgorithmBank::extended`](crate::AlgorithmBank::extended)
//! rather than `standard()` so existing experiments and golden traces
//! keep their exact bank.
//!
//! All three are behavioural kernels with bit-exact integer
//! reference semantics — no floating point anywhere on the data
//! path, so outputs are identical across hosts and the conformance
//! tier (`tests/kernel_conformance.rs`) can pin golden vectors.
//!
//! The host-side loops are laid out for the compiler's vectoriser,
//! in safe portable code. MatMul16 accumulates whole output rows
//! over B's rows interleaved as `i16` pairs; Conv2d runs nine
//! 32-wide row multiply-adds over a zero-bordered `i16` tile; Fft64
//! transforms `FFT_LANES` blocks in lockstep from const twiddle and
//! bit-reverse tables, with a short final group run block by block.
//! The scalar loops they replaced stay in the tests as the oracle.

use crate::filler::behavioral_image;
use crate::ids;
use crate::kernel::{AlgoError, Kernel};
use aaod_fabric::{DeviceGeometry, FunctionImage};

/// Blocked 16×16 signed matrix multiply.
///
/// Input: pairs of row-major 16×16 `i8` matrices `A`, `B` (256 bytes
/// each, 512 per pair; a partial trailing pair is zero-padded).
/// Output per pair: the 16×16 product, `i32`-accumulated and
/// saturated to `i16`, little-endian (512 bytes). No parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatMul16;

/// Bytes per input pair for [`MatMul16`]: two 16×16 `i8` matrices.
pub const MATMUL16_PAIR_BYTES: usize = 512;

/// Multiplies one `A`, `B` pair and appends the saturated product.
///
/// Row `i` of the product is `Σ_k A[i][k] · B[k]`, accumulated over
/// all 16 columns at once. B's rows are interleaved in pairs and the
/// row's two A entries repeated to match, so each step multiplies
/// adjacent `i16` pairs and adds them into `i32` lanes, the shape
/// LLVM lowers to `pmaddwd` on x86-64.
fn matmul16_pair(pair: &[u8; MATMUL16_PAIR_BYTES], out: &mut Vec<u8>) {
    let (a, b) = pair.split_at(256);
    // b_pairs[t][2j + s] = B[2t + s][j]
    let mut b_pairs = [[0i16; 32]; 8];
    for (dst, rows) in b_pairs.iter_mut().zip(b.chunks_exact(32)) {
        for (j, d) in dst.chunks_exact_mut(2).enumerate() {
            d[0] = rows[j] as i8 as i16;
            d[1] = rows[16 + j] as i8 as i16;
        }
    }
    let mut product = [0u8; MATMUL16_PAIR_BYTES];
    for (row, dst) in a.chunks_exact(16).zip(product.chunks_exact_mut(32)) {
        let mut acc = [0i32; 16];
        for (b_pair, a_pair) in b_pairs.iter().zip(row.chunks_exact(2)) {
            let mut a2 = [0i16; 32];
            for w in a2.chunks_exact_mut(2) {
                w[0] = a_pair[0] as i8 as i16;
                w[1] = a_pair[1] as i8 as i16;
            }
            for (j, y) in acc.iter_mut().enumerate() {
                *y += b_pair[2 * j] as i32 * a2[2 * j] as i32
                    + b_pair[2 * j + 1] as i32 * a2[2 * j + 1] as i32;
            }
        }
        for (d, y) in dst.chunks_exact_mut(2).zip(acc) {
            let y = y.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
            d.copy_from_slice(&y.to_le_bytes());
        }
    }
    out.extend_from_slice(&product);
}

impl Kernel for MatMul16 {
    fn algo_id(&self) -> u16 {
        ids::MATMUL16
    }

    fn name(&self) -> &'static str {
        "matmul16"
    }

    fn default_params(&self) -> Vec<u8> {
        Vec::new()
    }

    fn execute(&self, params: &[u8], input: &[u8]) -> Result<Vec<u8>, AlgoError> {
        if !params.is_empty() {
            return Err(AlgoError::BadParams {
                kernel: "matmul16",
                reason: "takes no parameters".into(),
            });
        }
        let mut out =
            Vec::with_capacity(input.len().div_ceil(MATMUL16_PAIR_BYTES) * MATMUL16_PAIR_BYTES);
        for chunk in input.chunks(MATMUL16_PAIR_BYTES) {
            // zero-pad a partial trailing pair, as the data-input
            // module pads transfers to the record's bus width
            let mut pair = [0u8; MATMUL16_PAIR_BYTES];
            pair[..chunk.len()].copy_from_slice(chunk);
            matmul16_pair(&pair, &mut out);
        }
        Ok(out)
    }

    fn input_width(&self) -> u16 {
        MATMUL16_PAIR_BYTES as u16
    }

    fn output_width(&self) -> u16 {
        MATMUL16_PAIR_BYTES as u16
    }

    fn build_image(&self, params: &[u8], geom: DeviceGeometry) -> Result<FunctionImage, AlgoError> {
        if !params.is_empty() {
            return Err(AlgoError::BadParams {
                kernel: "matmul16",
                reason: "takes no parameters".into(),
            });
        }
        // A 16×16 systolic array with i32 accumulators is by far the
        // largest function in the bank: 72 frames (3/4 of the default
        // device) — any co-resident function forces reconfiguration.
        Ok(behavioral_image(
            self.algo_id(),
            params,
            self.input_width(),
            self.output_width(),
            72,
            geom,
        ))
    }

    fn fabric_cycles(&self, input_len: usize) -> u64 {
        // systolic: one result column per cycle after a 32-cycle fill
        16 * input_len.div_ceil(MATMUL16_PAIR_BYTES) as u64 + 32
    }

    fn software_cycles(&self, input_len: usize) -> u64 {
        // 4096 MACs (~3 cycles each with loads) per pair
        12_288 * input_len.div_ceil(MATMUL16_PAIR_BYTES) as u64 + 100
    }
}

/// 3×3 convolution over 32×32 8-bit grayscale tiles.
///
/// Input: 1024-byte row-major 32×32 `u8` images (a partial trailing
/// tile is zero-padded). Parameters: nine `i8` coefficients in
/// row-major kernel order followed by one right-shift byte (0–7).
/// Each output pixel is the `i32` dot product over the 3×3
/// neighbourhood (zero padding outside the tile), arithmetically
/// shifted right and clamped to `0..=255`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Conv2d;

/// Tile edge for [`Conv2d`]: images are 32×32 pixels.
pub const CONV2D_EDGE: usize = 32;
/// Bytes per input tile for [`Conv2d`].
pub const CONV2D_TILE_BYTES: usize = CONV2D_EDGE * CONV2D_EDGE;

fn parse_conv_params(params: &[u8]) -> Result<([i8; 9], u32), AlgoError> {
    if params.len() != 10 {
        return Err(AlgoError::BadParams {
            kernel: "conv2d",
            reason: format!(
                "expected 9 i8 coefficients + 1 shift byte, got {} bytes",
                params.len()
            ),
        });
    }
    let mut coeffs = [0i8; 9];
    for (c, &p) in coeffs.iter_mut().zip(params.iter()) {
        *c = p as i8;
    }
    let shift = params[9] as u32;
    if shift > 7 {
        return Err(AlgoError::BadParams {
            kernel: "conv2d",
            reason: format!("shift must be 0..=7, got {shift}"),
        });
    }
    Ok((coeffs, shift))
}

/// Edge of [`conv2d_tile`]'s bordered tile: one zero pixel each side.
const CONV2D_PADDED: usize = CONV2D_EDGE + 2;

/// Convolves one tile (zero-padded if short) and appends its pixels.
///
/// The tile is copied into a zero-bordered `i16` grid, so every output
/// row is nine 32-wide multiply-adds of shifted grid rows with no edge
/// tests. A coefficient-pixel product fits `i16` (|−128 · 255| <
/// 2¹⁵); the nine-term sum is accumulated in `i32`.
fn conv2d_tile(tile: &[u8], coeffs: &[i16; 9], shift: u32, out: &mut Vec<u8>) {
    let mut grid = [[0i16; CONV2D_PADDED]; CONV2D_PADDED];
    for (row, src) in grid[1..].iter_mut().zip(tile.chunks(CONV2D_EDGE)) {
        for (d, &s) in row[1..].iter_mut().zip(src) {
            *d = s as i16;
        }
    }
    for rows in grid.windows(3) {
        let mut acc = [0i32; CONV2D_EDGE];
        for (tap, &c) in coeffs.iter().enumerate() {
            let (ky, kx) = (tap / 3, tap % 3);
            let src = &rows[ky][kx..kx + CONV2D_EDGE];
            for (a, &px) in acc.iter_mut().zip(src) {
                *a += (c * px) as i32;
            }
        }
        out.extend(acc.map(|a| (a >> shift).clamp(0, 255) as u8));
    }
}

impl Kernel for Conv2d {
    fn algo_id(&self) -> u16 {
        ids::CONV2D
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn default_params(&self) -> Vec<u8> {
        // Gaussian-ish 3×3 blur, sum 16, shift 4 → unity DC gain
        let coeffs: [i8; 9] = [1, 2, 1, 2, 4, 2, 1, 2, 1];
        let mut p: Vec<u8> = coeffs.iter().map(|&c| c as u8).collect();
        p.push(4);
        p
    }

    fn execute(&self, params: &[u8], input: &[u8]) -> Result<Vec<u8>, AlgoError> {
        let (coeffs, shift) = parse_conv_params(params)?;
        let coeffs = coeffs.map(i16::from);
        let mut out =
            Vec::with_capacity(input.len().div_ceil(CONV2D_TILE_BYTES) * CONV2D_TILE_BYTES);
        for tile in input.chunks(CONV2D_TILE_BYTES) {
            conv2d_tile(tile, &coeffs, shift, &mut out);
        }
        Ok(out)
    }

    fn input_width(&self) -> u16 {
        CONV2D_TILE_BYTES as u16
    }

    fn output_width(&self) -> u16 {
        CONV2D_TILE_BYTES as u16
    }

    fn build_image(&self, params: &[u8], geom: DeviceGeometry) -> Result<FunctionImage, AlgoError> {
        parse_conv_params(params)?;
        // 9-MAC window pipeline + two 32-pixel line buffers: 56 frames.
        Ok(behavioral_image(
            self.algo_id(),
            params,
            self.input_width(),
            self.output_width(),
            56,
            geom,
        ))
    }

    fn fabric_cycles(&self, input_len: usize) -> u64 {
        // pipelined window: one pixel per cycle after line-buffer fill
        input_len as u64 + 128
    }

    fn software_cycles(&self, input_len: usize) -> u64 {
        // 9 MACs + clamp (~3 cycles each) per pixel
        30 * input_len as u64 + 200
    }
}

/// 64-point radix-2 fixed-point FFT.
///
/// Input: 256-byte blocks of 64 interleaved little-endian `i16`
/// complex samples `(re, im)`; a partial trailing block is
/// zero-padded. Decimation-in-time with Q14 twiddles from a hardcoded
/// quarter-wave table, each butterfly stage scaled by ½ (so the
/// transform is normalised by 1/64) with saturation to `i16`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fft64;

/// Points per block for [`Fft64`].
pub const FFT64_POINTS: usize = 64;
/// Bytes per input block for [`Fft64`]: 64 × (i16 re + i16 im).
pub const FFT64_BLOCK_BYTES: usize = FFT64_POINTS * 4;

/// Quarter-wave cosine table, Q14: `round(cos(pi*k/32) * 16384)` for
/// `k = 0..=16`. Hardcoded so the data path never touches `f64` —
/// outputs are bit-identical on every host.
const COS_Q14: [i16; 17] = [
    16384, 16305, 16069, 15679, 15137, 14449, 13623, 12665, 11585, 10394, 9102, 7723, 6270, 4756,
    3196, 1606, 0,
];

/// Q14 twiddles `W_64^k = cos(2πk/64) − j·sin(2πk/64)` for `k < 32`
/// as `(re, im)`, folded out of the quarter-wave table.
const TWIDDLES: [(i16, i16); 32] = {
    let mut w = [(0, 0); 32];
    let mut k = 0;
    while k < 32 {
        let (cos, sin) = if k <= 16 {
            (COS_Q14[k], COS_Q14[16 - k])
        } else {
            (-COS_Q14[32 - k], COS_Q14[k - 16])
        };
        w[k] = (cos, -sin);
        k += 1;
    }
    w
};

/// `BIT_REVERSE[p]` is `p` with its six bits reversed: the input
/// sample that decimation-in-time loads into point `p`.
const BIT_REVERSE: [u8; FFT64_POINTS] = {
    let mut r = [0; FFT64_POINTS];
    let mut p = 0;
    while p < FFT64_POINTS {
        r[p] = ((p as u32).reverse_bits() >> 26) as u8;
        p += 1;
    }
    r
};

/// Blocks [`fft64`] transforms in lockstep. Every butterfly applies
/// the same twiddle across the group, so the lane loop vectorises. On
/// x86-64 at 4 KiB, four lanes measured 1.4–1.6× the scalar loop,
/// eight 3.8–4.4× and sixteen 3.3–3.6×.
const FFT_LANES: usize = 8;

/// Transforms the `L` consecutive 256-byte blocks of `blocks` and
/// appends their spectra.
fn fft64<const L: usize>(blocks: &[u8], out: &mut Vec<u8>) {
    // point-major, block-minor: re[p][j] is point p of block j
    let mut re = [[0i16; L]; FFT64_POINTS];
    let mut im = [[0i16; L]; FFT64_POINTS];
    for (j, block) in blocks.chunks_exact(FFT64_BLOCK_BYTES).enumerate() {
        for (p, &src) in BIT_REVERSE.iter().enumerate() {
            let o = src as usize * 4;
            re[p][j] = i16::from_le_bytes([block[o], block[o + 1]]);
            im[p][j] = i16::from_le_bytes([block[o + 2], block[o + 3]]);
        }
    }
    let mut m = 2;
    while m <= FFT64_POINTS {
        let stride = FFT64_POINTS / m;
        for (re, im) in re.chunks_exact_mut(m).zip(im.chunks_exact_mut(m)) {
            let (re_a, re_b) = re.split_at_mut(m / 2);
            let (im_a, im_b) = im.split_at_mut(m / 2);
            for (j, (((ra, ia), rb), ib)) in
                re_a.iter_mut().zip(im_a).zip(re_b).zip(im_b).enumerate()
            {
                let (wr, wi) = TWIDDLES[j * stride];
                let (wr, wi) = (wr as i32, wi as i32);
                for l in 0..L {
                    let (br, bi) = (rb[l] as i32, ib[l] as i32);
                    let tr = (br * wr - bi * wi) >> 14;
                    let ti = (br * wi + bi * wr) >> 14;
                    // scale each stage by ½: normalises the transform by
                    // 1/64 and keeps magnitudes inside i16 (saturating on
                    // the rare off-axis worst case)
                    let sat = |v: i32| v.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
                    let (ar, ai) = (ra[l] as i32, ia[l] as i32);
                    ra[l] = sat((ar + tr) >> 1);
                    ia[l] = sat((ai + ti) >> 1);
                    rb[l] = sat((ar - tr) >> 1);
                    ib[l] = sat((ai - ti) >> 1);
                }
            }
        }
        m *= 2;
    }
    for j in 0..L {
        for (r, i) in re.iter().zip(&im) {
            out.extend_from_slice(&r[j].to_le_bytes());
            out.extend_from_slice(&i[j].to_le_bytes());
        }
    }
}

impl Kernel for Fft64 {
    fn algo_id(&self) -> u16 {
        ids::FFT64
    }

    fn name(&self) -> &'static str {
        "fft64"
    }

    fn default_params(&self) -> Vec<u8> {
        Vec::new()
    }

    fn execute(&self, params: &[u8], input: &[u8]) -> Result<Vec<u8>, AlgoError> {
        if !params.is_empty() {
            return Err(AlgoError::BadParams {
                kernel: "fft64",
                reason: "takes no parameters".into(),
            });
        }
        let mut out =
            Vec::with_capacity(input.len().div_ceil(FFT64_BLOCK_BYTES) * FFT64_BLOCK_BYTES);
        let mut groups = input.chunks_exact(FFT64_BLOCK_BYTES * FFT_LANES);
        for group in &mut groups {
            fft64::<FFT_LANES>(group, &mut out);
        }
        // a short final group runs block by block, the last zero-padded
        for chunk in groups.remainder().chunks(FFT64_BLOCK_BYTES) {
            let mut block = [0u8; FFT64_BLOCK_BYTES];
            block[..chunk.len()].copy_from_slice(chunk);
            fft64::<1>(&block, &mut out);
        }
        Ok(out)
    }

    fn input_width(&self) -> u16 {
        FFT64_BLOCK_BYTES as u16
    }

    fn output_width(&self) -> u16 {
        FFT64_BLOCK_BYTES as u16
    }

    fn build_image(&self, params: &[u8], geom: DeviceGeometry) -> Result<FunctionImage, AlgoError> {
        if !params.is_empty() {
            return Err(AlgoError::BadParams {
                kernel: "fft64",
                reason: "takes no parameters".into(),
            });
        }
        // 6 pipelined butterfly stages + twiddle ROM + reorder
        // buffers: 64 frames (two thirds of the default device).
        Ok(behavioral_image(
            self.algo_id(),
            params,
            self.input_width(),
            self.output_width(),
            64,
            geom,
        ))
    }

    fn fabric_cycles(&self, input_len: usize) -> u64 {
        // 192 butterflies per block, two per cycle, pipelined
        96 * input_len.div_ceil(FFT64_BLOCK_BYTES) as u64 + 32
    }

    fn software_cycles(&self, input_len: usize) -> u64 {
        // 192 butterflies × ~10 cycles (4 muls, shifts, saturation)
        1_920 * input_len.div_ceil(FFT64_BLOCK_BYTES) as u64 + 100
    }
}

/// The scalar loops the kernels replaced: one output at a time, with
/// the 3×3 edge tests and the per-butterfly twiddle fold inline. Tests
/// compare the kernels against them.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn matmul16(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for chunk in input.chunks(MATMUL16_PAIR_BYTES) {
            let mut pair = [0u8; MATMUL16_PAIR_BYTES];
            pair[..chunk.len()].copy_from_slice(chunk);
            let (a, b) = pair.split_at(256);
            for i in 0..16 {
                for j in 0..16 {
                    let mut acc: i32 = 0;
                    for k in 0..16 {
                        acc += a[i * 16 + k] as i8 as i32 * b[k * 16 + j] as i8 as i32;
                    }
                    let y = acc.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
                    out.extend_from_slice(&y.to_le_bytes());
                }
            }
        }
        out
    }

    pub(crate) fn conv2d(coeffs: &[i8; 9], shift: u32, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for chunk in input.chunks(CONV2D_TILE_BYTES) {
            let mut tile = [0u8; CONV2D_TILE_BYTES];
            tile[..chunk.len()].copy_from_slice(chunk);
            let e = CONV2D_EDGE as isize;
            for y in 0..e {
                for x in 0..e {
                    let mut acc: i32 = 0;
                    for ky in 0..3isize {
                        for kx in 0..3isize {
                            let (sy, sx) = (y + ky - 1, x + kx - 1);
                            if (0..e).contains(&sy) && (0..e).contains(&sx) {
                                let px = tile[(sy * e + sx) as usize] as i32;
                                acc += coeffs[(ky * 3 + kx) as usize] as i32 * px;
                            }
                        }
                    }
                    out.push((acc >> shift).clamp(0, 255) as u8);
                }
            }
        }
        out
    }

    fn twiddle(k: usize) -> (i32, i32) {
        let cos = if k <= 16 {
            COS_Q14[k] as i32
        } else {
            -(COS_Q14[32 - k] as i32)
        };
        let sin = if k <= 16 {
            COS_Q14[16 - k] as i32
        } else {
            COS_Q14[k - 16] as i32
        };
        (cos, -sin)
    }

    fn fft64_block(block: &[u8]) -> [u8; FFT64_BLOCK_BYTES] {
        let mut re = [0i32; FFT64_POINTS];
        let mut im = [0i32; FFT64_POINTS];
        for p in 0..FFT64_POINTS {
            let src = (p as u32).reverse_bits() >> 26;
            let o = src as usize * 4;
            let get = |i: usize| -> i32 {
                let lo = *block.get(i).unwrap_or(&0);
                let hi = *block.get(i + 1).unwrap_or(&0);
                i16::from_le_bytes([lo, hi]) as i32
            };
            re[p] = get(o);
            im[p] = get(o + 2);
        }
        let mut m = 2;
        while m <= FFT64_POINTS {
            let stride = FFT64_POINTS / m;
            for base in (0..FFT64_POINTS).step_by(m) {
                for j in 0..m / 2 {
                    let (wr, wi) = twiddle(j * stride);
                    let (ai, bi) = (base + j, base + j + m / 2);
                    let tr = (re[bi] * wr - im[bi] * wi) >> 14;
                    let ti = (re[bi] * wi + im[bi] * wr) >> 14;
                    let sat = |v: i32| v.clamp(i16::MIN as i32, i16::MAX as i32);
                    let (ar, aim) = (re[ai], im[ai]);
                    re[ai] = sat((ar + tr) >> 1);
                    im[ai] = sat((aim + ti) >> 1);
                    re[bi] = sat((ar - tr) >> 1);
                    im[bi] = sat((aim - ti) >> 1);
                }
            }
            m *= 2;
        }
        let mut out = [0u8; FFT64_BLOCK_BYTES];
        for p in 0..FFT64_POINTS {
            out[p * 4..p * 4 + 2].copy_from_slice(&(re[p] as i16).to_le_bytes());
            out[p * 4 + 2..p * 4 + 4].copy_from_slice(&(im[p] as i16).to_le_bytes());
        }
        out
    }

    pub(crate) fn fft64(input: &[u8]) -> Vec<u8> {
        input
            .chunks(FFT64_BLOCK_BYTES)
            .flat_map(fft64_block)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::sweep_inputs;
    use aaod_sim::SplitMix64;

    /// Seeded sweeps over empty, one-block, `L + 1`-block, all-zero,
    /// saturating and random ragged inputs: each kernel is
    /// byte-identical to its scalar reference.
    #[test]
    fn matmul16_matches_scalar_reference() {
        let mut rng = SplitMix64::new(0x3A7_3A16);
        // A = -128, B = 127 everywhere saturates every entry to i16::MIN
        let negative = [[0x80; 256], [0x7F; 256]].concat();
        let inputs = sweep_inputs(&mut rng, MATMUL16_PAIR_BYTES, 1, 0x80);
        for input in inputs.into_iter().chain([negative]) {
            assert_eq!(
                MatMul16.execute(&[], &input).unwrap(),
                reference::matmul16(&input),
                "len {}",
                input.len()
            );
        }
    }

    #[test]
    fn conv2d_matches_scalar_reference() {
        let mut rng = SplitMix64::new(0xC0_2D);
        let mut params = [0u8; 10];
        for input in sweep_inputs(&mut rng, CONV2D_TILE_BYTES, 1, 0xFF) {
            // a fresh random kernel per input, and the extreme ones on
            // the saturating tiles
            for coeffs in [[0x80; 9], [0x7F; 9], std::array::from_fn(|_| rng.next_u8())] {
                params[..9].copy_from_slice(&coeffs);
                params[9] = rng.index(8) as u8;
                let c = coeffs.map(|c| c as i8);
                assert_eq!(
                    Conv2d.execute(&params, &input).unwrap(),
                    reference::conv2d(&c, params[9] as u32, &input),
                    "len {} params {params:?}",
                    input.len()
                );
            }
        }
    }

    #[test]
    fn fft64_matches_scalar_reference() {
        let mut rng = SplitMix64::new(0xFF7_0064);
        for fill in [0x80, 0x7F] {
            for input in sweep_inputs(&mut rng, FFT64_BLOCK_BYTES, FFT_LANES, fill) {
                assert_eq!(
                    Fft64.execute(&[], &input).unwrap(),
                    reference::fft64(&input),
                    "len {}",
                    input.len()
                );
            }
        }
    }

    fn pack_i16(samples: &[i16]) -> Vec<u8> {
        samples.iter().flat_map(|s| s.to_le_bytes()).collect()
    }

    fn unpack_i16(bytes: &[u8]) -> Vec<i16> {
        bytes
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect()
    }

    #[test]
    fn matmul16_identity() {
        let mut identity = [0u8; 256];
        for i in 0..16 {
            identity[i * 16 + i] = 1;
        }
        let a: Vec<u8> = (0..=255u8).collect();
        let mut input = a.clone();
        input.extend_from_slice(&identity);
        let out = MatMul16.execute(&[], &input).unwrap();
        let got = unpack_i16(&out);
        let want: Vec<i16> = a.iter().map(|&x| x as i8 as i16).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn matmul16_saturates() {
        // A = B = all -128: each entry 16 * (-128 * -128) = 262144 → +MAX
        let input = vec![0x80u8; MATMUL16_PAIR_BYTES];
        let out = MatMul16.execute(&[], &input).unwrap();
        assert!(unpack_i16(&out).iter().all(|&y| y == i16::MAX));
    }

    #[test]
    fn matmul16_pads_partials_and_rejects_params() {
        let out = MatMul16.execute(&[], &[7u8; 256]).unwrap();
        assert_eq!(out, vec![0u8; MATMUL16_PAIR_BYTES]);
        assert!(MatMul16.execute(&[1], &[0; 512]).is_err());
    }

    #[test]
    fn conv2d_identity_kernel_is_a_copy() {
        let mut params = vec![0u8; 10];
        params[4] = 1; // centre tap 1, shift 0
        let tile: Vec<u8> = (0..CONV2D_TILE_BYTES).map(|i| (i % 251) as u8).collect();
        let out = Conv2d.execute(&params, &tile).unwrap();
        assert_eq!(out, tile);
    }

    #[test]
    fn conv2d_blur_preserves_flat_interior_and_dims_borders() {
        let params = Conv2d.default_params();
        let tile = vec![100u8; CONV2D_TILE_BYTES];
        let out = Conv2d.execute(&params, &tile).unwrap();
        // interior: unity DC gain; corners lose 7/16 of the kernel mass
        assert_eq!(out[33], 100);
        assert_eq!(out[0] as u32, 100 * 9 / 16);
    }

    #[test]
    fn conv2d_clamps_and_validates_params() {
        // all-positive kernel with shift 0 overflows u8 → clamps to 255
        let mut params = vec![4u8; 9];
        params.push(0);
        let out = Conv2d
            .execute(&params, &vec![200u8; CONV2D_TILE_BYTES])
            .unwrap();
        assert_eq!(out[33], 255);
        assert!(Conv2d.execute(&[0u8; 9], &[]).is_err()); // missing shift
        let mut bad = Conv2d.default_params();
        bad[9] = 8;
        assert!(Conv2d.execute(&bad, &[]).is_err()); // shift too large
    }

    #[test]
    fn fft64_zero_input_is_zero() {
        let out = Fft64.execute(&[], &[0u8; FFT64_BLOCK_BYTES]).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn fft64_dc_input_concentrates_in_bin_zero() {
        // constant re = 6400 → bin 0 = 6400 (normalised), rest 0
        let samples: Vec<i16> = (0..FFT64_POINTS).flat_map(|_| [6400, 0]).collect();
        let out = Fft64.execute(&[], &pack_i16(&samples)).unwrap();
        let ys = unpack_i16(&out);
        assert_eq!(ys[0], 6400);
        assert_eq!(ys[1], 0);
        assert!(ys[2..].iter().all(|&y| y.abs() <= 1), "{:?}", &ys[..8]);
    }

    #[test]
    fn fft64_single_tone_lands_in_its_bin() {
        // re[n] = round-free cosine is awkward in pure ints; use an
        // impulse instead: x[0] = A → flat spectrum A/64 in every bin.
        let mut samples = vec![0i16; FFT64_POINTS * 2];
        samples[0] = 6400;
        let out = Fft64.execute(&[], &pack_i16(&samples)).unwrap();
        let ys = unpack_i16(&out);
        for p in 0..FFT64_POINTS {
            assert_eq!(ys[p * 2], 100, "re bin {p}");
            assert_eq!(ys[p * 2 + 1], 0, "im bin {p}");
        }
    }

    #[test]
    fn fft64_pads_partial_blocks_and_rejects_params() {
        let out = Fft64.execute(&[], &[1u8; 10]).unwrap();
        assert_eq!(out.len(), FFT64_BLOCK_BYTES);
        assert!(Fft64.execute(&[0], &[]).is_err());
    }

    #[test]
    fn images_are_large_and_fit_alone() {
        let geom = DeviceGeometry::default();
        for (kernel, frames) in [
            (&MatMul16 as &dyn Kernel, 72),
            (&Conv2d as &dyn Kernel, 56),
            (&Fft64 as &dyn Kernel, 64),
        ] {
            let img = kernel.build_image(&kernel.default_params(), geom).unwrap();
            assert_eq!(img.frames_needed(geom), frames, "{}", kernel.name());
            assert!(img.frames_needed(geom) <= geom.frames());
        }
    }
}
