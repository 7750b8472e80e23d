//! HMAC-SHA-1 kernel — the actual IPSec AH/ESP authenticator.
//!
//! Composes the bank's SHA-1 with the RFC 2104 construction. The key
//! lives in the function image's parameters, so "re-keying" the
//! authenticator is a reconfiguration — exactly the agile usage the
//! paper targets.
//!
//! On the host both hashes stream: each compresses its key block
//! (`k ^ ipad`, `k ^ opad`) first and then feeds the message, or the
//! inner digest, through the shared Merkle–Damgård framing, so no
//! padded message is built on the heap. The `Vec`-building
//! construction stays in the tests as the oracle.

use crate::crypto::md::{be_bytes, merkle_damgard, BLOCK};
use crate::crypto::sha1::{self, sha1};
use crate::filler::behavioral_image;
use crate::ids;
use crate::kernel::{AlgoError, Kernel};
use aaod_fabric::{DeviceGeometry, FunctionImage};

/// Computes HMAC-SHA-1 per RFC 2104.
pub fn hmac_sha1(key: &[u8], message: &[u8]) -> [u8; 20] {
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        k[..20].copy_from_slice(&sha1(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    // H(k ^ pad || text), with the key block compressed first and
    // `text` streamed after it
    let keyed_hash = |pad: u8, text: &[u8]| -> [u8; 20] {
        let mut h = sha1::H0;
        sha1::compress(&mut h, &k.map(|b| b ^ pad));
        merkle_damgard(text, BLOCK, |block| sha1::compress(&mut h, block));
        be_bytes(&h)
    };
    keyed_hash(0x5C, &keyed_hash(0x36, message))
}

/// The HMAC-SHA-1 kernel. Parameters: the MAC key (1..=64 bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HmacSha1;

fn check_key(params: &[u8]) -> Result<(), AlgoError> {
    if params.is_empty() || params.len() > BLOCK {
        return Err(AlgoError::BadParams {
            kernel: "hmac-sha1",
            reason: format!("key must be 1..=64 bytes, got {}", params.len()),
        });
    }
    Ok(())
}

impl Kernel for HmacSha1 {
    fn algo_id(&self) -> u16 {
        ids::HMAC_SHA1
    }

    fn name(&self) -> &'static str {
        "hmac-sha1"
    }

    fn default_params(&self) -> Vec<u8> {
        vec![0x0B; 20]
    }

    fn execute(&self, params: &[u8], input: &[u8]) -> Result<Vec<u8>, AlgoError> {
        check_key(params)?;
        Ok(hmac_sha1(params, input).to_vec())
    }

    fn input_width(&self) -> u16 {
        64
    }

    fn output_width(&self) -> u16 {
        20
    }

    fn build_image(&self, params: &[u8], geom: DeviceGeometry) -> Result<FunctionImage, AlgoError> {
        check_key(params)?;
        // SHA-1 core + the HMAC wrapper state: ~14 frames.
        Ok(behavioral_image(
            self.algo_id(),
            params,
            self.input_width(),
            self.output_width(),
            14,
            geom,
        ))
    }

    fn fabric_cycles(&self, input_len: usize) -> u64 {
        // inner hash over (block + message) + outer hash over 84 bytes
        let inner_blocks = (input_len + BLOCK + 9).div_ceil(BLOCK) as u64;
        80 * (inner_blocks + 2) + 16
    }

    fn software_cycles(&self, input_len: usize) -> u64 {
        15 * (input_len as u64 + 3 * BLOCK as u64) + 800
    }
}

/// The HMAC the streaming one replaced: builds the `inner` and
/// `outer` messages as `Vec`s and hashes them with the reference
/// SHA-1. Tests compare [`hmac_sha1`] against it.
#[cfg(test)]
pub(crate) mod reference {
    use super::BLOCK;
    use crate::crypto::sha1::reference::sha1;

    /// HMAC-SHA-1 over the reference SHA-1, building both padded
    /// messages on the heap.
    pub(crate) fn hmac_sha1(key: &[u8], message: &[u8]) -> [u8; 20] {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..20].copy_from_slice(&sha1(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Vec::with_capacity(BLOCK + message.len());
        let mut outer = Vec::with_capacity(BLOCK + 20);
        for &b in &k {
            inner.push(b ^ 0x36);
        }
        inner.extend_from_slice(message);
        for &b in &k {
            outer.push(b ^ 0x5C);
        }
        outer.extend_from_slice(&sha1(&inner));
        sha1(&outer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Seeded sweep: every key length 1..=64 plus keys longer than a
    /// block, over every message length 0..=300, the padding
    /// boundaries and random lengths up to 1600 bytes. The streaming
    /// MAC is identical to the `Vec`-building reference.
    #[test]
    fn streaming_matches_reference() {
        let mut rng = aaod_sim::SplitMix64::new(0x4AC);
        let lengths = crate::crypto::md::sweep_lengths(&mut rng);
        let key_lens = (1..=BLOCK).chain([65, 80, 128, 200]);
        for (i, key_len) in key_lens.enumerate() {
            let mut key = vec![0u8; key_len];
            rng.fill(&mut key);
            // every key meets the boundary lengths; the rest of the
            // lengths are spread across the keys
            for &len in lengths
                .iter()
                .skip(i % 7)
                .step_by(7)
                .chain(&[55, 56, 64, 119, 120, 128])
            {
                let mut msg = vec![0u8; len];
                rng.fill(&mut msg);
                assert_eq!(
                    hmac_sha1(&key, &msg),
                    reference::hmac_sha1(&key, &msg),
                    "key {key_len} B, message {len} B"
                );
            }
        }
        // the kernel rejects keys over a block, so the long-key path
        // is only reachable through `hmac_sha1`
        assert!(HmacSha1.execute(&[0; BLOCK + 1], b"x").is_err());
    }

    /// RFC 2202 test case 1.
    #[test]
    fn rfc2202_case1() {
        let key = [0x0Bu8; 20];
        let mac = hmac_sha1(&key, b"Hi There");
        assert_eq!(hex(&mac), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    /// RFC 2202 test case 2 ("Jefe").
    #[test]
    fn rfc2202_case2() {
        let mac = hmac_sha1(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&mac), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    /// RFC 2202 test case 3 (0xAA key, 0xDD data).
    #[test]
    fn rfc2202_case3() {
        let key = [0xAAu8; 20];
        let data = [0xDDu8; 50];
        let mac = hmac_sha1(&key, &data);
        assert_eq!(hex(&mac), "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
    }

    /// Keys longer than a block are hashed first (RFC 2202 case 6).
    #[test]
    fn long_key_is_hashed() {
        let key = [0xAAu8; 80];
        let mac = hmac_sha1(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(hex(&mac), "aa4ae5e15272d00e95705637ce8a3b55ed402112");
    }

    #[test]
    fn kernel_rejects_bad_keys() {
        assert!(HmacSha1.execute(&[], b"x").is_err());
        assert!(HmacSha1.execute(&[0; 65], b"x").is_err());
    }

    #[test]
    fn kernel_matches_function() {
        let k = HmacSha1;
        let out = k.execute(&k.default_params(), b"Hi There").unwrap();
        assert_eq!(hex(&out), "b617318655057264e28bc0b6fb378c8ef146be00");
    }
}
