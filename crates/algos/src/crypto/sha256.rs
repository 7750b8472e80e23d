//! SHA-256 digest kernel (FIPS 180-2).
//!
//! The "frequently changing specifications of standards" the paper's
//! abstract motivates: by 2005, IPSec deployments were migrating from
//! SHA-1 toward SHA-256 — exactly the algorithm swap an agile
//! co-processor performs without respinning silicon.
//!
//! On the host the hash streams through the shared Merkle–Damgård
//! framing, as SHA-1 does: full blocks are compressed straight from
//! the input and only the padded tail is built, on the stack. The
//! message-copying loop stays in the tests as the oracle.

use crate::crypto::md::{be_bytes, merkle_damgard};
use crate::filler::behavioral_image;
use crate::ids;
use crate::kernel::{AlgoError, Kernel};
use aaod_fabric::{DeviceGeometry, FunctionImage};

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Computes the SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = H0;
    merkle_damgard(data, 0, |block| compress(&mut h, block));
    be_bytes(&h)
}

/// One SHA-256 round: adds `t1` into `d` and writes the new `a` over
/// `h`, so across eight rounds the state words only change roles.
#[inline(always)]
fn round([a, b, c]: [u32; 3], d: &mut u32, [e, f, g]: [u32; 3], h: &mut u32, kw: u32) {
    let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
    let ch = (e & f) ^ ((!e) & g);
    let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(kw);
    let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
    let maj = (a & b) ^ (a & c) ^ (b & c);
    *d = d.wrapping_add(t1);
    *h = t1.wrapping_add(s0).wrapping_add(maj);
}

/// Compresses one 64-byte block into `h`, expanding the whole 64-word
/// schedule first. Eight rounds per step let the state words change
/// roles in place instead of shifting down one word per round.
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (w, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_be_bytes(word.try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in (0..64).step_by(8) {
        let kw = |j: usize| K[i + j].wrapping_add(w[i + j]);
        round([a, b, c], &mut d, [e, f, g], &mut hh, kw(0));
        round([hh, a, b], &mut c, [d, e, f], &mut g, kw(1));
        round([g, hh, a], &mut b, [c, d, e], &mut f, kw(2));
        round([f, g, hh], &mut a, [b, c, d], &mut e, kw(3));
        round([e, f, g], &mut hh, [a, b, c], &mut d, kw(4));
        round([d, e, f], &mut g, [hh, a, b], &mut c, kw(5));
        round([c, d, e], &mut f, [g, hh, a], &mut b, kw(6));
        round([b, c, d], &mut e, [f, g, hh], &mut a, kw(7));
    }
    for (h, s) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *h = h.wrapping_add(s);
    }
}

/// The SHA-256 kernel. No parameters; output is the 32-byte digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sha256;

impl Kernel for Sha256 {
    fn algo_id(&self) -> u16 {
        ids::SHA256
    }

    fn name(&self) -> &'static str {
        "sha256"
    }

    fn default_params(&self) -> Vec<u8> {
        Vec::new()
    }

    fn execute(&self, params: &[u8], input: &[u8]) -> Result<Vec<u8>, AlgoError> {
        if !params.is_empty() {
            return Err(AlgoError::BadParams {
                kernel: "sha256",
                reason: "takes no parameters".into(),
            });
        }
        Ok(sha256(input).to_vec())
    }

    fn input_width(&self) -> u16 {
        64
    }

    fn output_width(&self) -> u16 {
        32
    }

    fn build_image(&self, params: &[u8], geom: DeviceGeometry) -> Result<FunctionImage, AlgoError> {
        if !params.is_empty() {
            return Err(AlgoError::BadParams {
                kernel: "sha256",
                reason: "takes no parameters".into(),
            });
        }
        // Wider datapath than SHA-1: ~16 frames.
        Ok(behavioral_image(
            self.algo_id(),
            params,
            self.input_width(),
            self.output_width(),
            16,
            geom,
        ))
    }

    fn fabric_cycles(&self, input_len: usize) -> u64 {
        let blocks = (input_len + 9).div_ceil(64) as u64;
        64 * blocks + 8
    }

    fn software_cycles(&self, input_len: usize) -> u64 {
        // ~40 cycles/byte for portable SHA-256 on 2005 desktops
        40 * input_len as u64 + 600
    }
}

/// The message-copying SHA-256 the streaming one replaced: pads a
/// heap copy of the message. Tests compare [`sha256`] against it.
#[cfg(test)]
pub(crate) mod reference {
    use super::{H0, K};

    /// The SHA-256 digest of `data`, copying the padded message.
    pub(crate) fn sha256(data: &[u8]) -> [u8; 32] {
        let mut h = H0;
        let mut msg = data.to_vec();
        let bit_len = (data.len() as u64) * 8;
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_be_bytes());

        for block in msg.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, word) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let (mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh) =
                (h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ ((!e) & g);
                let t1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                hh = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
            h[5] = h[5].wrapping_add(f);
            h[6] = h[6].wrapping_add(g);
            h[7] = h[7].wrapping_add(hh);
        }
        let mut out = [0u8; 32];
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
        let mut rng = aaod_sim::SplitMix64::new(0x5A256);
        for len in crate::crypto::md::sweep_lengths(&mut rng) {
            let mut data = vec![0u8; len];
            rng.fill(&mut data);
            assert_eq!(sha256(&data), reference::sha256(&data), "len {len}");
        }
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn kernel_digest_length() {
        assert_eq!(Sha256.execute(&[], b"x").unwrap().len(), 32);
    }

    #[test]
    fn kernel_rejects_params() {
        assert!(Sha256.execute(&[0], b"").is_err());
    }
}
