//! SHA-1 digest kernel.
//!
//! FIPS 180-1 implementation. IPSec AH/ESP authentication — the
//! paper's reference workload — used HMAC-SHA-1, so a hash core is a
//! natural resident of the algorithm bank. (SHA-1 is cryptographically
//! broken today; it is reproduced here as the 2005-era workload, not
//! as a security recommendation.)
//!
//! On the host the hash streams: the shared Merkle–Damgård framing
//! hands full blocks to `compress` straight from the input and pads
//! only the tail, on the stack. Compression keeps a rolling 16-word
//! schedule and runs each 20-round phase as its own loop of five-round
//! steps. The message-copying loop with an 80-word schedule stays in
//! the tests as the oracle.

use crate::crypto::md::{be_bytes, merkle_damgard};
use crate::filler::behavioral_image;
use crate::ids;
use crate::kernel::{AlgoError, Kernel};
use aaod_fabric::{DeviceGeometry, FunctionImage};

/// The SHA-1 initial hash value (FIPS 180-1).
pub(crate) const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// The round constant of each 20-round phase.
const K: [u32; 4] = [0x5A82_7999, 0x6ED9_EBA1, 0x8F1B_BCDC, 0xCA62_C1D6];

/// Computes the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = H0;
    merkle_damgard(data, 0, |block| compress(&mut h, block));
    be_bytes(&h)
}

/// Word `i` of the message schedule, kept in a rolling 16-word window:
/// for `i >= 16` it overwrites `w[i - 16]`, which no later round reads.
#[inline(always)]
fn schedule(w: &mut [u32; 16], i: usize) -> u32 {
    if i >= 16 {
        w[i & 15] =
            (w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15]).rotate_left(1);
    }
    w[i & 15]
}

/// Five SHA-1 rounds from round `i` on `s = [a, b, c, d, e]`, with
/// round function `f` and constant `k`. Each round adds into the word
/// that becomes the next `a` and rotates the one that becomes the next
/// `c`, so the five words only change roles and never move.
#[inline(always)]
fn rounds5(
    s: &mut [u32; 5],
    w: &mut [u32; 16],
    i: usize,
    k: u32,
    f: impl Fn(u32, u32, u32) -> u32,
) {
    let [mut a, mut b, mut c, mut d, mut e] = *s;
    // `k` plus schedule word `j`
    let mut kw = |j: usize| k.wrapping_add(schedule(w, j));
    e = e
        .wrapping_add(a.rotate_left(5))
        .wrapping_add(f(b, c, d))
        .wrapping_add(kw(i));
    b = b.rotate_left(30);
    d = d
        .wrapping_add(e.rotate_left(5))
        .wrapping_add(f(a, b, c))
        .wrapping_add(kw(i + 1));
    a = a.rotate_left(30);
    c = c
        .wrapping_add(d.rotate_left(5))
        .wrapping_add(f(e, a, b))
        .wrapping_add(kw(i + 2));
    e = e.rotate_left(30);
    b = b
        .wrapping_add(c.rotate_left(5))
        .wrapping_add(f(d, e, a))
        .wrapping_add(kw(i + 3));
    d = d.rotate_left(30);
    a = a
        .wrapping_add(b.rotate_left(5))
        .wrapping_add(f(c, d, e))
        .wrapping_add(kw(i + 4));
    c = c.rotate_left(30);
    *s = [a, b, c, d, e];
}

/// Compresses one 64-byte block into `h`. Each 20-round phase is its
/// own loop, so no round branches on its index to pick `f` and `k`.
pub(crate) fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w: [u32; 16] = std::array::from_fn(|i| {
        u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"))
    });
    let mut s = *h;
    for i in (0..20).step_by(5) {
        rounds5(&mut s, &mut w, i, K[0], |b, c, d| (b & c) | (!b & d));
    }
    for i in (20..40).step_by(5) {
        rounds5(&mut s, &mut w, i, K[1], |b, c, d| b ^ c ^ d);
    }
    for i in (40..60).step_by(5) {
        rounds5(&mut s, &mut w, i, K[2], |b, c, d| {
            (b & c) | (b & d) | (c & d)
        });
    }
    for i in (60..80).step_by(5) {
        rounds5(&mut s, &mut w, i, K[3], |b, c, d| b ^ c ^ d);
    }
    for (h, s) in h.iter_mut().zip(s) {
        *h = h.wrapping_add(s);
    }
}

/// The SHA-1 kernel. No parameters; output is the 20-byte digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sha1;

impl Kernel for Sha1 {
    fn algo_id(&self) -> u16 {
        ids::SHA1
    }

    fn name(&self) -> &'static str {
        "sha1"
    }

    fn default_params(&self) -> Vec<u8> {
        Vec::new()
    }

    fn execute(&self, params: &[u8], input: &[u8]) -> Result<Vec<u8>, AlgoError> {
        if !params.is_empty() {
            return Err(AlgoError::BadParams {
                kernel: "sha1",
                reason: "takes no parameters".into(),
            });
        }
        Ok(sha1(input).to_vec())
    }

    fn input_width(&self) -> u16 {
        64
    }

    fn output_width(&self) -> u16 {
        20
    }

    fn build_image(&self, params: &[u8], geom: DeviceGeometry) -> Result<FunctionImage, AlgoError> {
        if !params.is_empty() {
            return Err(AlgoError::BadParams {
                kernel: "sha1",
                reason: "takes no parameters".into(),
            });
        }
        // One-round-per-cycle SHA-1 core: ~12 frames.
        Ok(behavioral_image(
            self.algo_id(),
            params,
            self.input_width(),
            self.output_width(),
            12,
            geom,
        ))
    }

    fn fabric_cycles(&self, input_len: usize) -> u64 {
        // 80 rounds per 64-byte block, one round per cycle.
        let blocks = (input_len + 9).div_ceil(64) as u64;
        80 * blocks + 8
    }

    fn software_cycles(&self, input_len: usize) -> u64 {
        // ~15 cycles/byte in software
        15 * input_len as u64 + 500
    }
}

/// The message-copying SHA-1 the streaming one replaced: pads a heap
/// copy of the message and expands an 80-word schedule per block.
/// Tests compare [`sha1`] against it.
#[cfg(test)]
pub(crate) mod reference {
    /// The SHA-1 digest of `data`, copying the padded message.
    pub(crate) fn sha1(data: &[u8]) -> [u8; 20] {
        let mut h: [u32; 5] = [
            0x6745_2301,
            0xEFCD_AB89,
            0x98BA_DCFE,
            0x1032_5476,
            0xC3D2_E1F0,
        ];
        let mut msg = data.to_vec();
        let bit_len = (data.len() as u64) * 8;
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_be_bytes());

        for block in msg.chunks_exact(64) {
            let mut w = [0u32; 80];
            for (i, word) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
            }
            for i in 16..80 {
                w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            }
            let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
            for (i, &wi) in w.iter().enumerate() {
                let (f, k) = match i {
                    0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                    20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                    40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                    _ => (b ^ c ^ d, 0xCA62_C1D6),
                };
                let t = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = t;
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
        }
        let mut out = [0u8; 20];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Seeded sweep over every length 0..=300, the padding boundaries
    /// and random lengths up to 1600 bytes: the streaming hash is
    /// identical to the message-copying reference.
    #[test]
    fn streaming_matches_reference() {
        let mut rng = aaod_sim::SplitMix64::new(0x5A1);
        for len in crate::crypto::md::sweep_lengths(&mut rng) {
            let mut data = vec![0u8; len];
            rng.fill(&mut data);
            assert_eq!(sha1(&data), reference::sha1(&data), "len {len}");
        }
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn kernel_rejects_params() {
        assert!(Sha1.execute(&[1], b"x").is_err());
        assert!(Sha1.build_image(&[1], DeviceGeometry::default()).is_err());
    }

    #[test]
    fn kernel_digest_length() {
        let out = Sha1.execute(&[], b"hello").unwrap();
        assert_eq!(out.len(), 20);
    }
}
