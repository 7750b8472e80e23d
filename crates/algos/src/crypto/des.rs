//! DES and Triple-DES (EDE) kernels.
//!
//! The paper's reference \[1\] is an "algorithm agile co-processor"
//! for DES-era ciphers, and reference \[2\] an IPSec crypto engine — in
//! 2005, ESP tunnels ran 3DES far more often than AES. 3DES is also
//! the bank's best offload case: software 3DES is extremely slow
//! (~150 cycles/byte) while a pipelined FPGA core streams a block per
//! cycle.
//!
//! The host-side model is table-driven: every lookup table is derived
//! at compile time from the FIPS 46-3 tables below, which stay the only
//! source of truth. Each S-box is fused with P into a 64-entry word
//! table (a round is eight lookups), the E expansion is two rotations
//! and eight 6-bit windows against round keys pre-split to match, and
//! IP, FP, PC1 and PC2 are byte- or nibble-indexed. The kernel expands
//! the three key schedules once per call, and a 3DES-EDE block runs IP
//! once, 48 rounds and FP once: the FP·IP pairs between passes cancel.
//! Independent ECB blocks run four at a time in lockstep.

use crate::filler::behavioral_image;
use crate::ids;
use crate::kernel::{AlgoError, Kernel};
use aaod_fabric::{DeviceGeometry, FunctionImage};

/// Initial permutation (bit numbers are 1-based positions of the
/// input bit placed at each output position, per FIPS 46-3).
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, 62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8, 57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, 61,
    53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation (inverse of IP).
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, 38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29, 36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Expansion of the 32-bit half to 48 bits. The kernel computes it as
/// two rotations and eight 6-bit windows (see [`feistel`]); the
/// reference implementation in the tests walks this table.
#[cfg(test)]
const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18,
    19, 20, 21, 20, 21, 22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// P permutation after the S-boxes.
const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, 2, 8, 24, 14, 32, 27, 3, 9, 19,
    13, 30, 6, 22, 11, 4, 25,
];

/// Key schedule permuted choice 1 (56 bits from the 64-bit key).
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, 10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60,
    52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, 14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
];

/// Key schedule permuted choice 2 (48 bits per round key).
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, 23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, 41, 52,
    31, 37, 47, 55, 30, 40, 51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Left-shift counts per round.
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The eight S-boxes.
const SBOXES: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, 0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12,
        11, 9, 5, 3, 8, 4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, 15, 12, 8, 2, 4, 9,
        1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, 3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1,
        10, 6, 9, 11, 5, 0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, 13, 8, 10, 1, 3, 15,
        4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, 13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5,
        14, 12, 11, 15, 1, 13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, 1, 10, 13, 0, 6,
        9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, 13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2,
        12, 1, 10, 14, 9, 10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, 3, 15, 0, 6, 10, 1,
        13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, 14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15,
        10, 3, 9, 8, 6, 4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, 11, 8, 12, 7, 1, 14,
        2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, 10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13,
        14, 0, 11, 3, 8, 9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, 4, 3, 2, 12, 9, 5,
        15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, 13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5,
        12, 2, 15, 8, 6, 1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, 6, 11, 13, 8, 1, 4,
        10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, 1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6,
        11, 0, 14, 9, 2, 7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, 2, 1, 14, 7, 4, 10,
        8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

/// Applies a 1-based bit permutation: output bit `i` (MSB-first) is
/// input bit `table[i]`.
const fn permute(input: u64, input_bits: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < table.len() {
        out = (out << 1) | ((input >> (input_bits - table[i] as u32)) & 1);
        i += 1;
    }
    out
}

/// A bit permutation in lookup form. The input splits MSB-first into
/// `C` chunks of `log2(V)` bits; entry `[c][v]` is the permuted image
/// of an input whose chunk `c` holds `v` and whose other bits are
/// clear, so OR-ing one entry per chunk applies the permutation.
struct Spread<const C: usize, const V: usize>([[u64; V]; C]);

impl<const C: usize, const V: usize> Spread<C, V> {
    const WIDTH: u32 = V.trailing_zeros();

    const fn new(table: &[u8]) -> Self {
        assert!(V.is_power_of_two());
        let input_bits = C as u32 * Self::WIDTH;
        let mut out = [[0u64; V]; C];
        let mut c = 0;
        while c < C {
            let mut v = 0;
            while v < V {
                let at = input_bits - Self::WIDTH * (c as u32 + 1);
                out[c][v] = permute((v as u64) << at, input_bits, table);
                v += 1;
            }
            c += 1;
        }
        Self(out)
    }

    fn apply(&self, input: u64) -> u64 {
        let mut out = 0;
        for (c, images) in self.0.iter().enumerate() {
            let at = Self::WIDTH * (C - 1 - c) as u32;
            out |= images[(input >> at) as usize & (V - 1)];
        }
        out
    }
}

/// IP and FP run once per block, so they take the byte-indexed form
/// (8 lookups); PC1 and PC2 run once per key and take the compact
/// nibble-indexed one.
static IP_SPREAD: Spread<8, 256> = Spread::new(&IP);
static FP_SPREAD: Spread<8, 256> = Spread::new(&FP);
static PC1_SPREAD: Spread<16, 16> = Spread::new(&PC1);
static PC2_SPREAD: Spread<14, 16> = Spread::new(&PC2);

/// Each S-box fused with P: `SP[i][x]` is the P-permuted round-function
/// contribution of S-box `i` fed the 6-bit chunk `x` (row from its
/// outer bits, column from its inner four).
static SP: [[u32; 64]; 8] = {
    let mut sp = [[0u32; 64]; 8];
    let mut i = 0;
    while i < 8 {
        let mut x = 0;
        while x < 64 {
            let row = ((x & 0x20) >> 4) | (x & 1);
            let col = (x >> 1) & 0xF;
            let s = (SBOXES[i][row * 16 + col] as u64) << (28 - 4 * i);
            sp[i][x] = permute(s, 32, &P) as u32;
            x += 1;
        }
        i += 1;
    }
    sp
};

/// One round key, pre-split into its eight 6-bit chunks and packed to
/// line up with the windows [`feistel`] cuts: word 0 holds chunks
/// 0, 2, 4, 6 at bits 0, 24, 16, 8 and word 1 holds chunks 1, 3, 5, 7
/// at the same offsets.
type RoundKey = [u32; 2];

/// Splits a 48-bit round key into the packed [`RoundKey`] form.
fn split_round_key(k: u64) -> RoundKey {
    let chunk = |i: usize| ((k >> (42 - 6 * i)) & 0x3F) as u32;
    [
        chunk(0) | chunk(2) << 24 | chunk(4) << 16 | chunk(6) << 8,
        chunk(1) | chunk(3) << 24 | chunk(5) << 16 | chunk(7) << 8,
    ]
}

/// Expands a 64-bit key into 16 round keys in encryption order.
fn key_schedule(key: u64) -> [RoundKey; 16] {
    let cd = PC1_SPREAD.apply(key); // 56 bits
    let mut c = (cd >> 28) as u32;
    let mut d = cd as u32 & 0x0FFF_FFFF;
    let mut keys = [[0; 2]; 16];
    for (round_key, &shift) in keys.iter_mut().zip(SHIFTS.iter()) {
        c = ((c << shift) | (c >> (28 - shift as u32))) & 0x0FFF_FFFF;
        d = ((d << shift) | (d >> (28 - shift as u32))) & 0x0FFF_FFFF;
        *round_key = split_round_key(PC2_SPREAD.apply(((c as u64) << 28) | d as u64));
    }
    keys
}

/// The Feistel function: 32-bit half + round key → 32 bits.
///
/// E-expansion chunk `i` is input bits `4i .. 4i+5` (1-based, wrapping
/// 32 → 1), i.e. the low six bits of `r.rotate_left(4i + 5)`. Rotating
/// by 5 puts the even chunks at bits 0, 24, 16 and 8 of one word, and
/// rotating by 9 the odd chunks at the same bits of another.
#[inline(always)]
fn feistel(r: u32, k: RoundKey) -> u32 {
    let even = r.rotate_left(5) ^ k[0];
    let odd = r.rotate_left(9) ^ k[1];
    let sp = |i: usize, w: u32, at: u32| SP[i][(w >> at) as usize & 0x3F];
    sp(0, even, 0)
        ^ sp(1, odd, 0)
        ^ sp(2, even, 24)
        ^ sp(3, odd, 24)
        ^ sp(4, even, 16)
        ^ sp(5, odd, 16)
        ^ sp(6, even, 8)
        ^ sp(7, odd, 8)
}

/// Runs one DES pass per 16 round keys between a single IP and FP:
/// 16 for DES, 48 for 3DES-EDE. Each pass ends on the half swap; the
/// FP of one pass and the IP of the next cancel, so they are skipped.
///
/// The `L` blocks are independent and run in lockstep: one block's
/// rounds are a serial chain of dependent lookups, and interleaving
/// blocks lets the CPU overlap the chains.
fn crypt<const L: usize, const N: usize>(blocks: [u64; L], keys: &[RoundKey; N]) -> [u64; L] {
    let ip = blocks.map(|b| IP_SPREAD.apply(b));
    let (mut l, mut r) = (ip.map(|x| (x >> 32) as u32), ip.map(|x| x as u32));
    for pass in keys.chunks_exact(16) {
        for pair in pass.chunks_exact(2) {
            for j in 0..L {
                l[j] ^= feistel(r[j], pair[0]);
            }
            for j in 0..L {
                r[j] ^= feistel(l[j], pair[1]);
            }
        }
        (l, r) = (r, l);
    }
    std::array::from_fn(|j| FP_SPREAD.apply(((l[j] as u64) << 32) | r[j] as u64))
}

/// The 48 round keys of 3DES-EDE: K1 forward, K2 reversed (the middle
/// pass decrypts), K3 forward.
fn tdes_schedule(key: &[u8; 24]) -> [RoundKey; 48] {
    let mut keys = [[0; 2]; 48];
    for (pass, (k, out)) in key
        .chunks_exact(8)
        .zip(keys.chunks_exact_mut(16))
        .enumerate()
    {
        let k: [u8; 8] = k.try_into().expect("split sizes are fixed");
        out.copy_from_slice(&key_schedule(u64::from_be_bytes(k)));
        if pass == 1 {
            out.reverse();
        }
    }
    keys
}

/// Encrypts one 8-byte block with single DES.
pub fn des_encrypt_block(block: &[u8; 8], key: &[u8; 8]) -> [u8; 8] {
    let keys = key_schedule(u64::from_be_bytes(*key));
    let [out] = crypt([u64::from_be_bytes(*block)], &keys);
    out.to_be_bytes()
}

/// Decrypts one 8-byte block with single DES.
pub fn des_decrypt_block(block: &[u8; 8], key: &[u8; 8]) -> [u8; 8] {
    let mut keys = key_schedule(u64::from_be_bytes(*key));
    keys.reverse();
    let [out] = crypt([u64::from_be_bytes(*block)], &keys);
    out.to_be_bytes()
}

/// Encrypts one block with 3DES EDE (encrypt-K1, decrypt-K2,
/// encrypt-K3).
pub fn tdes_encrypt_block(block: &[u8; 8], key: &[u8; 24]) -> [u8; 8] {
    let [out] = crypt([u64::from_be_bytes(*block)], &tdes_schedule(key));
    out.to_be_bytes()
}

/// Blocks the kernel runs through [`crypt`] in lockstep. On x86-64,
/// four measured ~2.8× one block's throughput; two and three leave
/// part of the round latency exposed, and eight spill registers.
const LANES: usize = 4;

/// Encrypts the `L` consecutive 8-byte blocks of `bytes` in place with
/// 3DES-EDE.
fn crypt_in_place<const L: usize>(bytes: &mut [u8], keys: &[RoundKey; 48]) {
    let blocks = std::array::from_fn(|j| {
        u64::from_be_bytes(bytes[8 * j..8 * j + 8].try_into().expect("8-byte block"))
    });
    for (dst, ct) in bytes.chunks_exact_mut(8).zip(crypt::<L, 48>(blocks, keys)) {
        dst.copy_from_slice(&ct.to_be_bytes());
    }
}

/// The Triple-DES (EDE, 3-key) kernel. Parameters: 24-byte key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TripleDes;

impl Kernel for TripleDes {
    fn algo_id(&self) -> u16 {
        ids::TDES
    }

    fn name(&self) -> &'static str {
        "3des"
    }

    fn default_params(&self) -> Vec<u8> {
        (0u8..24)
            .map(|i| i.wrapping_mul(11).wrapping_add(1))
            .collect()
    }

    fn execute(&self, params: &[u8], input: &[u8]) -> Result<Vec<u8>, AlgoError> {
        let key: [u8; 24] = params.try_into().map_err(|_| AlgoError::BadParams {
            kernel: "3des",
            reason: format!("key must be 24 bytes, got {}", params.len()),
        })?;
        let keys = tdes_schedule(&key);
        // ECB over the zero-padded input, LANES blocks at a time; a
        // short final group runs block by block
        let mut out = vec![0u8; input.len().div_ceil(8) * 8];
        out[..input.len()].copy_from_slice(input);
        let mut groups = out.chunks_exact_mut(8 * LANES);
        for group in &mut groups {
            crypt_in_place::<LANES>(group, &keys);
        }
        for block in groups.into_remainder().chunks_exact_mut(8) {
            crypt_in_place::<1>(block, &keys);
        }
        Ok(out)
    }

    fn input_width(&self) -> u16 {
        8
    }

    fn output_width(&self) -> u16 {
        8
    }

    fn build_image(&self, params: &[u8], geom: DeviceGeometry) -> Result<FunctionImage, AlgoError> {
        if params.len() != 24 {
            return Err(AlgoError::BadParams {
                kernel: "3des",
                reason: format!("key must be 24 bytes, got {}", params.len()),
            });
        }
        // Three chained DES cores: ~18 frames.
        Ok(behavioral_image(
            self.algo_id(),
            params,
            self.input_width(),
            self.output_width(),
            18,
            geom,
        ))
    }

    fn fabric_cycles(&self, input_len: usize) -> u64 {
        // 48-stage pipeline (3 x 16 rounds), one block/cycle when full
        input_len.div_ceil(8) as u64 + 48
    }

    fn software_cycles(&self, input_len: usize) -> u64 {
        // software 3DES is notoriously slow: ~150 cycles/byte
        150 * input_len as u64 + 300
    }
}

/// The bit-serial FIPS 46-3 DES: every permutation walks its table
/// bit by bit and every block re-derives its key schedules. Tests
/// compare the table-driven kernel against it.
#[cfg(test)]
mod reference {
    use super::*;

    fn key_schedule(key: u64) -> [u64; 16] {
        let cd = permute(key, 64, &PC1); // 56 bits
        let mut c = (cd >> 28) as u32 & 0x0FFF_FFFF;
        let mut d = cd as u32 & 0x0FFF_FFFF;
        let mut keys = [0u64; 16];
        for (round, &shift) in SHIFTS.iter().enumerate() {
            c = ((c << shift) | (c >> (28 - shift as u32))) & 0x0FFF_FFFF;
            d = ((d << shift) | (d >> (28 - shift as u32))) & 0x0FFF_FFFF;
            let cd = ((c as u64) << 28) | d as u64;
            keys[round] = permute(cd, 56, &PC2);
        }
        keys
    }

    pub(super) fn feistel(r: u32, k: u64) -> u32 {
        let x = permute(r as u64, 32, &E) ^ k; // 48 bits
        let mut out = 0u32;
        for (i, sbox) in SBOXES.iter().enumerate() {
            let six = ((x >> (42 - 6 * i)) & 0x3F) as usize;
            let row = ((six & 0x20) >> 4) | (six & 1);
            let col = (six >> 1) & 0xF;
            out = (out << 4) | sbox[row * 16 + col] as u32;
        }
        permute(out as u64, 32, &P) as u32
    }

    fn des_rounds(block: u64, keys: &[u64; 16], decrypt: bool) -> u64 {
        let ip = permute(block, 64, &IP);
        let mut l = (ip >> 32) as u32;
        let mut r = ip as u32;
        for i in 0..16 {
            let k = if decrypt { keys[15 - i] } else { keys[i] };
            let next_r = l ^ feistel(r, k);
            l = r;
            r = next_r;
        }
        // note the final swap: R16 then L16
        permute(((r as u64) << 32) | l as u64, 64, &FP)
    }

    pub(super) fn des_block(block: [u8; 8], key: &[u8], decrypt: bool) -> [u8; 8] {
        let keys = key_schedule(u64::from_be_bytes(key.try_into().unwrap()));
        des_rounds(u64::from_be_bytes(block), &keys, decrypt).to_be_bytes()
    }

    /// Zero-padded 3DES-EDE ECB, one full encrypt-decrypt-encrypt
    /// (with fresh key schedules) per block.
    pub(super) fn tdes_ecb(key: &[u8; 24], input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for chunk in input.chunks(8) {
            let mut block = [0u8; 8];
            block[..chunk.len()].copy_from_slice(chunk);
            let a = des_block(block, &key[..8], false);
            let b = des_block(a, &key[8..16], true);
            out.extend_from_slice(&des_block(b, &key[16..], false));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_sim::SplitMix64;

    /// Seeded sweep over random keys and every input length 0..=130
    /// (empty, ragged tails, multi-block): the table-driven kernel is
    /// byte-identical to the bit-serial reference.
    #[test]
    fn kernel_matches_bit_serial_reference() {
        let mut rng = SplitMix64::new(0xDE5_3DE5);
        for len in 0..=130 {
            let mut key = [0u8; 24];
            rng.fill(&mut key);
            let mut input = vec![0u8; len];
            rng.fill(&mut input);
            assert_eq!(
                TripleDes.execute(&key, &input).unwrap(),
                reference::tdes_ecb(&key, &input),
                "len {len}"
            );
        }
        for _ in 0..32 {
            let (key, block) = (rng.next_u64().to_be_bytes(), rng.next_u64().to_be_bytes());
            assert_eq!(
                des_encrypt_block(&block, &key),
                reference::des_block(block, &key, false)
            );
            assert_eq!(
                des_decrypt_block(&block, &key),
                reference::des_block(block, &key, true)
            );
        }
    }

    /// The rotate-and-window E expansion and the fused SP tables give
    /// the same round function as walking E, the S-boxes and P.
    #[test]
    fn round_function_matches_fips_tables() {
        let mut rng = SplitMix64::new(0xE_5B0C);
        for _ in 0..256 {
            let (r, k) = (rng.next_u32(), rng.next_u64() & 0xFFFF_FFFF_FFFF);
            assert_eq!(feistel(r, split_round_key(k)), reference::feistel(r, k));
        }
    }

    /// The classic worked DES example (key 133457799BBCDFF1).
    #[test]
    fn des_known_vector() {
        let key = 0x1334_5779_9BBC_DFF1u64.to_be_bytes();
        let pt = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        let ct = des_encrypt_block(&pt, &key);
        assert_eq!(u64::from_be_bytes(ct), 0x85E8_1354_0F0A_B405);
        assert_eq!(des_decrypt_block(&ct, &key), pt);
    }

    /// FIPS all-zero vector.
    #[test]
    fn des_zero_vector() {
        let key = [0u8; 8];
        let pt = [0u8; 8];
        let ct = des_encrypt_block(&pt, &key);
        assert_eq!(u64::from_be_bytes(ct), 0x8CA6_4DE9_C1B1_23A7);
    }

    /// 3DES with K1=K2=K3 degenerates to single DES.
    #[test]
    fn tdes_degenerates_to_des() {
        let k = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        let mut key = [0u8; 24];
        key[..8].copy_from_slice(&k);
        key[8..16].copy_from_slice(&k);
        key[16..].copy_from_slice(&k);
        let pt = *b"ABCDEFGH";
        assert_eq!(tdes_encrypt_block(&pt, &key), des_encrypt_block(&pt, &k));
    }

    /// NIST SP 800-67 three-key TDEA example (ECB, three blocks).
    #[test]
    fn tdes_nist_sp800_67_three_key_vector() {
        let mut key = [0u8; 24];
        key[..8].copy_from_slice(&0x0123_4567_89AB_CDEFu64.to_be_bytes());
        key[8..16].copy_from_slice(&0x2345_6789_ABCD_EF01u64.to_be_bytes());
        key[16..].copy_from_slice(&0x4567_89AB_CDEF_0123u64.to_be_bytes());
        let out = TripleDes
            .execute(&key, b"The qufck brown fox jump")
            .unwrap();
        let expected: Vec<u8> = [
            0xA826_FD8C_E53B_855Fu64,
            0xCCE2_1C81_1225_6FE6,
            0x68D5_C05D_D9B6_B900,
        ]
        .iter()
        .flat_map(|w| w.to_be_bytes())
        .collect();
        assert_eq!(out, expected);
    }

    /// Default-key 3DES pads a partial block and is deterministic.
    #[test]
    fn tdes_three_key_roundtrip_structure() {
        let kernel = TripleDes;
        let params = kernel.default_params();
        let out = kernel.execute(&params, b"The qu1ck brown fox!").unwrap();
        assert_eq!(out.len(), 24); // 20 bytes -> 3 blocks
        assert_eq!(
            out,
            kernel.execute(&params, b"The qu1ck brown fox!").unwrap()
        );
    }

    #[test]
    fn kernel_rejects_bad_key() {
        assert!(TripleDes.execute(&[0; 8], b"x").is_err());
        assert!(TripleDes
            .build_image(&[0; 8], DeviceGeometry::default())
            .is_err());
    }

    #[test]
    fn best_offload_ratio_in_bank() {
        // software/fabric cycle ratio should dwarf AES's
        use crate::crypto::aes::Aes128;
        let tdes_ratio =
            TripleDes.software_cycles(4096) as f64 / TripleDes.fabric_cycles(4096) as f64;
        let aes_ratio = Aes128.software_cycles(4096) as f64 / Aes128.fabric_cycles(4096) as f64;
        assert!(tdes_ratio > aes_ratio);
    }
}
