//! The Merkle–Damgård framing shared by SHA-1, SHA-256 and
//! HMAC-SHA-1: full 64-byte blocks go to the compression function
//! straight from the caller's slice, and only the last partial block
//! plus the FIPS 180 padding (one `0x80` byte, zeros, the 64-bit
//! big-endian bit length) is built, in a 128-byte stack tail. No
//! message is ever copied to the heap.

/// Block size of the SHA-1/SHA-2-256 family, in bytes.
pub(crate) const BLOCK: usize = 64;

/// Feeds the padded `data` to `compress`, one 64-byte block at a time,
/// as the tail of a message whose first `prior` bytes (a whole number
/// of blocks) the caller has already compressed. The length field
/// counts all `prior + data.len()` bytes, so HMAC can compress its key
/// block itself and stream the message after it.
pub(crate) fn merkle_damgard(data: &[u8], prior: usize, mut compress: impl FnMut(&[u8; BLOCK])) {
    debug_assert_eq!(prior % BLOCK, 0, "prior bytes must be whole blocks");
    let mut blocks = data.chunks_exact(BLOCK);
    for block in &mut blocks {
        compress(block.try_into().expect("64-byte block"));
    }
    let rest = blocks.remainder();
    let mut tail = [0u8; 2 * BLOCK];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    // the length needs 8 bytes after the 0x80: a remainder of 56 or
    // more spills the padding into a second block
    let tail_len = if rest.len() < BLOCK - 8 {
        BLOCK
    } else {
        2 * BLOCK
    };
    let bit_len = ((prior + data.len()) as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..tail_len].chunks_exact(BLOCK) {
        compress(block.try_into().expect("64-byte block"));
    }
}

/// Big-endian serialisation of a hash state into its `M`-byte digest.
pub(crate) fn be_bytes<const M: usize>(state: &[u32]) -> [u8; M] {
    debug_assert_eq!(4 * state.len(), M);
    let mut out = [0u8; M];
    for (dst, word) in out.chunks_exact_mut(4).zip(state) {
        dst.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Test support: the message lengths the hash oracle sweeps cover.
/// Every length 0..=300, the padding boundaries around one and two
/// blocks, and seeded random lengths up to 1600 bytes.
#[cfg(test)]
pub(crate) fn sweep_lengths(rng: &mut aaod_sim::SplitMix64) -> Vec<usize> {
    let mut lengths: Vec<usize> = (0..=300).collect();
    lengths.extend([55, 56, 63, 64, 119, 120, 127, 128]);
    let randoms = if cfg!(debug_assertions) { 32 } else { 256 };
    lengths.extend((0..randoms).map(|_| rng.index(1601)));
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The blocks `merkle_damgard` feeds, concatenated, are the message
    /// followed by exactly the FIPS 180 padding, for every remainder.
    #[test]
    fn pads_like_fips_180() {
        for prior in [0, BLOCK] {
            for len in 0..=3 * BLOCK {
                let data: Vec<u8> = (0..len).map(|i| i as u8 | 1).collect();
                let mut fed = Vec::new();
                merkle_damgard(&data, prior, |b| fed.extend_from_slice(b));
                let mut want = data.clone();
                want.push(0x80);
                while want.len() % BLOCK != BLOCK - 8 {
                    want.push(0);
                }
                want.extend_from_slice(&(((prior + len) as u64) * 8).to_be_bytes());
                assert_eq!(fed, want, "prior {prior} len {len}");
            }
        }
    }
}
