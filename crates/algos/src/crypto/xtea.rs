//! XTEA block cipher kernel.
//!
//! Needham–Wheeler XTEA: 64-bit blocks, 128-bit key, 32 Feistel
//! cycles. A tiny cipher in hardware — a compact loop-rolled core fits
//! a handful of frames, making it the "small function" of the bank
//! (useful for replacement-policy experiments where area matters).
//!
//! On the host, the kernel expands the 64 round constants
//! (`sum + key[..]`) once per call and encrypts `LANES` independent
//! ECB blocks per round in lockstep: every block applies the same
//! constant, so the lane loops vectorise. A final group of at least
//! `PAD_MIN_BLOCKS` blocks is zero-padded into one more lockstep group
//! and only its real blocks are copied back; a shorter one runs block
//! by block, so a one-block input costs no more than the scalar loop.
//! The scalar one-block loop stays in the tests as the oracle.

use crate::filler::behavioral_image;
use crate::ids;
use crate::kernel::{AlgoError, Kernel};
use aaod_fabric::{DeviceGeometry, FunctionImage};

const DELTA: u32 = 0x9E37_79B9;
const ROUNDS: u32 = 32;

/// The 64 half-round constants of one key, in order: round `r`
/// adds `schedule[r][0]` into `v0`, then `schedule[r][1]` into `v1`.
type Schedule = [[u32; 2]; ROUNDS as usize];

fn schedule(key: &[u32; 4]) -> Schedule {
    let mut sum = 0u32;
    std::array::from_fn(|_| {
        let k0 = sum.wrapping_add(key[(sum & 3) as usize]);
        sum = sum.wrapping_add(DELTA);
        [k0, sum.wrapping_add(key[((sum >> 11) & 3) as usize])]
    })
}

/// The XTEA mix of one half: `((v << 4) ^ (v >> 5)) + v`.
#[inline(always)]
fn mix(v: u32) -> u32 {
    ((v << 4) ^ (v >> 5)).wrapping_add(v)
}

/// Encrypts the `L` consecutive 8-byte blocks of `bytes` in place.
///
/// The blocks are independent and run in lockstep, halves split into
/// `v0` and `v1` arrays, so each half-round is one loop over the lanes.
fn crypt_in_place<const L: usize>(bytes: &mut [u8], schedule: &Schedule) {
    let half = |j: usize| u32::from_be_bytes(bytes[4 * j..4 * j + 4].try_into().expect("4 bytes"));
    let mut v0: [u32; L] = std::array::from_fn(|j| half(2 * j));
    let mut v1: [u32; L] = std::array::from_fn(|j| half(2 * j + 1));
    for &[k0, k1] in schedule {
        for (a, &b) in v0.iter_mut().zip(&v1) {
            *a = a.wrapping_add(mix(b) ^ k0);
        }
        for (b, &a) in v1.iter_mut().zip(&v0) {
            *b = b.wrapping_add(mix(a) ^ k1);
        }
    }
    for ((dst, a), b) in bytes.chunks_exact_mut(8).zip(v0).zip(v1) {
        dst[..4].copy_from_slice(&a.to_be_bytes());
        dst[4..].copy_from_slice(&b.to_be_bytes());
    }
}

/// Blocks the kernel encrypts in lockstep. A round is a handful of
/// shifts, xors and adds per block, so wide groups keep the vector
/// units fed. On x86-64 at 1504 B, 8 or 16 lanes measured 1.7–2.1×
/// the scalar loop, 32 lanes 3.5–3.9× and 64 lanes 2.4–2.8×.
const LANES: usize = 32;

/// Fewest blocks in a short final group that run as one padded
/// `LANES`-wide group rather than block by block. On x86-64 one
/// `LANES`-wide group measured 506–513 ns, against 472–495 ns for 4
/// scalar blocks and 574–586 ns for 5.
const PAD_MIN_BLOCKS: usize = 5;

/// Encrypts one 8-byte block (two big-endian u32 halves).
pub fn encrypt_block(block: &[u8; 8], key: &[u32; 4]) -> [u8; 8] {
    let mut out = *block;
    crypt_in_place::<1>(&mut out, &schedule(key));
    out
}

/// Decrypts one 8-byte block (inverse of [`encrypt_block`]).
pub fn decrypt_block(block: &[u8; 8], key: &[u32; 4]) -> [u8; 8] {
    let mut v0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]);
    let mut v1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]);
    let mut sum = DELTA.wrapping_mul(ROUNDS);
    for _ in 0..ROUNDS {
        v1 = v1.wrapping_sub(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
        );
        sum = sum.wrapping_sub(DELTA);
        v0 = v0.wrapping_sub(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                ^ (sum.wrapping_add(key[(sum & 3) as usize])),
        );
    }
    let mut out = [0u8; 8];
    out[..4].copy_from_slice(&v0.to_be_bytes());
    out[4..].copy_from_slice(&v1.to_be_bytes());
    out
}

fn parse_key(params: &[u8]) -> Result<[u32; 4], AlgoError> {
    if params.len() != 16 {
        return Err(AlgoError::BadParams {
            kernel: "xtea",
            reason: format!("key must be 16 bytes, got {}", params.len()),
        });
    }
    let mut key = [0u32; 4];
    for (i, k) in key.iter_mut().enumerate() {
        *k = u32::from_be_bytes([
            params[i * 4],
            params[i * 4 + 1],
            params[i * 4 + 2],
            params[i * 4 + 3],
        ]);
    }
    Ok(key)
}

/// The XTEA encryption kernel (ECB over zero-padded 8-byte blocks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Xtea;

impl Kernel for Xtea {
    fn algo_id(&self) -> u16 {
        ids::XTEA
    }

    fn name(&self) -> &'static str {
        "xtea"
    }

    fn default_params(&self) -> Vec<u8> {
        (0u8..16).map(|i| i.wrapping_mul(17)).collect()
    }

    fn execute(&self, params: &[u8], input: &[u8]) -> Result<Vec<u8>, AlgoError> {
        let schedule = schedule(&parse_key(params)?);
        // ECB over the zero-padded input, LANES blocks at a time
        let mut out = vec![0u8; input.len().div_ceil(8) * 8];
        out[..input.len()].copy_from_slice(input);
        let mut groups = out.chunks_exact_mut(8 * LANES);
        for group in &mut groups {
            crypt_in_place::<LANES>(group, &schedule);
        }
        let tail = groups.into_remainder();
        if tail.len() >= 8 * PAD_MIN_BLOCKS {
            // one more lockstep group, padded; only the real blocks
            // are copied back
            let mut group = [0u8; 8 * LANES];
            group[..tail.len()].copy_from_slice(tail);
            crypt_in_place::<LANES>(&mut group, &schedule);
            tail.copy_from_slice(&group[..tail.len()]);
        } else {
            for block in tail.chunks_exact_mut(8) {
                crypt_in_place::<1>(block, &schedule);
            }
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
        parse_key(params)?;
        // A loop-rolled XTEA core is small: ~6 frames.
        Ok(behavioral_image(
            self.algo_id(),
            params,
            self.input_width(),
            self.output_width(),
            6,
            geom,
        ))
    }

    fn fabric_cycles(&self, input_len: usize) -> u64 {
        // 32-stage unrolled pipeline: one block per cycle once full
        input_len.div_ceil(8) as u64 + 64
    }

    fn software_cycles(&self, input_len: usize) -> u64 {
        // ~45 cycles/byte in software (64 Feistel rounds per 8 bytes)
        45 * input_len as u64 + 100
    }
}

/// The scalar loop the kernel replaced: one block at a time, the
/// round constants recomputed in every round. Tests compare the
/// kernel against it.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    fn encrypt_block(block: &[u8; 8], key: &[u32; 4]) -> [u8; 8] {
        let mut v0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]);
        let mut v1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]);
        let mut sum = 0u32;
        for _ in 0..ROUNDS {
            v0 = v0.wrapping_add(
                (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                    ^ (sum.wrapping_add(key[(sum & 3) as usize])),
            );
            sum = sum.wrapping_add(DELTA);
            v1 = v1.wrapping_add(
                (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                    ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
            );
        }
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&v0.to_be_bytes());
        out[4..].copy_from_slice(&v1.to_be_bytes());
        out
    }

    /// Zero-padded XTEA ECB under the 16-byte `key`.
    pub(crate) fn ecb(key: &[u8], input: &[u8]) -> Vec<u8> {
        let key = parse_key(key).expect("16-byte key");
        let mut out = Vec::new();
        for chunk in input.chunks(8) {
            let mut block = [0u8; 8];
            block[..chunk.len()].copy_from_slice(chunk);
            out.extend_from_slice(&encrypt_block(&block, &key));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::sweep_inputs;
    use aaod_sim::SplitMix64;

    /// Seeded sweep over random keys and empty, one-block,
    /// `LANES + 1`-block, all-zero, all-ones and random ragged inputs:
    /// the lockstep kernel is byte-identical to the scalar reference.
    #[test]
    fn kernel_matches_scalar_reference() {
        let mut rng = SplitMix64::new(0x7EA_7EA);
        for input in sweep_inputs(&mut rng, 8, LANES, 0xFF) {
            let mut key = [0u8; 16];
            rng.fill(&mut key);
            for key in [key, [0; 16], [0xFF; 16]] {
                assert_eq!(
                    Xtea.execute(&key, &input).unwrap(),
                    reference::ecb(&key, &input),
                    "len {} key {key:?}",
                    input.len()
                );
            }
        }
    }

    /// Every final group of 0..=31 blocks, after zero or two full
    /// groups, ending in a whole or a partial block, on both sides of
    /// `PAD_MIN_BLOCKS`: the padded group and the block-by-block tail
    /// are byte-identical to the scalar reference, and the padding
    /// never leaks into the output.
    #[test]
    fn every_tail_matches_scalar_reference() {
        let mut rng = SplitMix64::new(0x7A11);
        let mut key = [0u8; 16];
        rng.fill(&mut key);
        for groups in [0, 2] {
            for blocks in 0..LANES {
                for partial in [0, 1 + rng.index(7)] {
                    let len = (groups * LANES + blocks) * 8 + partial;
                    let mut input = vec![0u8; len];
                    rng.fill(&mut input);
                    let out = Xtea.execute(&key, &input).unwrap();
                    assert_eq!(out.len(), len.div_ceil(8) * 8);
                    assert_eq!(out, reference::ecb(&key, &input), "len {len}");
                }
            }
        }
    }

    /// Published XTEA test vector.
    #[test]
    fn known_vector() {
        // key = 000102...0f, pt = 4142434445464748 -> 497df3d072612cb5
        let key = parse_key(&(0u8..16).collect::<Vec<_>>()).unwrap();
        let pt = *b"ABCDEFGH";
        let ct = encrypt_block(&pt, &key);
        assert_eq!(ct, [0x49, 0x7d, 0xf3, 0xd0, 0x72, 0x61, 0x2c, 0xb5]);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = parse_key(&Xtea.default_params()).unwrap();
        for seed in 0..20u8 {
            let block = [seed; 8];
            assert_eq!(decrypt_block(&encrypt_block(&block, &key), &key), block);
        }
    }

    #[test]
    fn kernel_blocks_and_padding() {
        let x = Xtea;
        let out = x.execute(&x.default_params(), &[0xAA; 20]).unwrap();
        assert_eq!(out.len(), 24); // 20 -> 3 blocks
    }

    #[test]
    fn bad_key_rejected() {
        assert!(Xtea.execute(&[1, 2], &[]).is_err());
    }

    #[test]
    fn smaller_than_aes() {
        use crate::crypto::aes::Aes128;
        let geom = DeviceGeometry::default();
        let xtea_frames = Xtea
            .build_image(&Xtea.default_params(), geom)
            .unwrap()
            .frames_needed(geom);
        let aes_frames = Aes128
            .build_image(&Aes128.default_params(), geom)
            .unwrap()
            .frames_needed(geom);
        assert!(xtea_frames < aes_frames);
    }
}
