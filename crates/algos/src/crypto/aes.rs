//! AES-128 (ECB encryption) kernel.
//!
//! From-scratch FIPS-197 implementation. The co-processor image embeds
//! the 16-byte key as kernel parameters; a pipelined AES core on a
//! Virtex-II-class fabric sustains about one block per cycle once the
//! 11-stage pipeline is full, which the fabric cycle model reflects.
//!
//! The host-side model is the 32-bit T-table form: four tables derived
//! at compile time from `SBOX` and `xtime` fold SubBytes, ShiftRows and
//! MixColumns into four lookups per column, and the last round goes
//! through `SBOX`.

use crate::filler::behavioral_image;
use crate::ids;
use crate::kernel::{AlgoError, Kernel};
use aaod_fabric::{DeviceGeometry, FunctionImage};

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn xtime(b: u8) -> u8 {
    let hi = b & 0x80 != 0;
    let mut r = b << 1;
    if hi {
        r ^= 0x1b;
    }
    r
}

/// Encryption T-table for state row `row`: SubBytes and the MixColumns
/// column `(2·S, S, S, 3·S)` of `S = SBOX[x]`, as a big-endian word
/// rotated right by one byte per row.
const fn t_table(row: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let column = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        t[x] = column.rotate_right(8 * row);
        x += 1;
    }
    t
}

static TE0: [u32; 256] = t_table(0);
static TE1: [u32; 256] = t_table(1);
static TE2: [u32; 256] = t_table(2);
static TE3: [u32; 256] = t_table(3);

/// Round keys as big-endian column words, the form the T-table rounds
/// XOR in: round `r`'s column `c` is key-schedule word `w[4r + c]`.
type RoundKeyWords = [[u32; 4]; 11];

/// Expands a 16-byte key into the 44 key-schedule words of FIPS-197
/// §5.2, built as big-endian words: `RotWord` is a rotate, `SubWord`
/// four S-box lookups, and `Rcon` lands in the top byte.
fn expand_key(key: &[u8; 16]) -> RoundKeyWords {
    let mut rk = [[0u32; 4]; 11];
    rk[0] = columns(*key);
    for (r, &rcon) in RCON.iter().enumerate() {
        let prev = rk[r];
        let last = prev[3].rotate_left(8).to_be_bytes();
        let mut t = u32::from_be_bytes(last.map(|b| SBOX[b as usize])) ^ (u32::from(rcon) << 24);
        rk[r + 1] = prev.map(|w| {
            t ^= w;
            t
        });
    }
    rk
}

/// The four big-endian column words of a 16-byte (column-major) block.
fn columns(block: [u8; 16]) -> [u32; 4] {
    std::array::from_fn(|c| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ])
    })
}

/// Encrypts one block with word round keys: nine T-table rounds (each
/// output column is four lookups, ShiftRows folded into which input
/// column feeds each row), then a final SubBytes/ShiftRows round
/// through `SBOX`.
fn encrypt_words(block: [u8; 16], rk: &RoundKeyWords) -> [u8; 16] {
    let mut s = columns(block);
    for (c, w) in s.iter_mut().enumerate() {
        *w ^= rk[0][c];
    }
    let byte = |w: u32, row: u32| (w >> (24 - 8 * row)) as u8 as usize;
    for k in &rk[1..10] {
        s = std::array::from_fn(|c| {
            TE0[byte(s[c], 0)]
                ^ TE1[byte(s[(c + 1) % 4], 1)]
                ^ TE2[byte(s[(c + 2) % 4], 2)]
                ^ TE3[byte(s[(c + 3) % 4], 3)]
                ^ k[c]
        });
    }
    let mut out = [0u8; 16];
    for (c, dst) in out.chunks_exact_mut(4).enumerate() {
        let sub = |row: u32| SBOX[byte(s[(c + row as usize) % 4], row)];
        let w = u32::from_be_bytes([sub(0), sub(1), sub(2), sub(3)]) ^ rk[10][c];
        dst.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// The AES-128 kernel (ECB encryption over zero-padded 16-byte blocks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aes128;

impl Kernel for Aes128 {
    fn algo_id(&self) -> u16 {
        ids::AES128
    }

    fn name(&self) -> &'static str {
        "aes128"
    }

    fn default_params(&self) -> Vec<u8> {
        (0u8..16).collect()
    }

    fn execute(&self, params: &[u8], input: &[u8]) -> Result<Vec<u8>, AlgoError> {
        let key: [u8; 16] = params.try_into().map_err(|_| AlgoError::BadParams {
            kernel: "aes128",
            reason: format!("key must be 16 bytes, got {}", params.len()),
        })?;
        let rk = expand_key(&key);
        let mut out = Vec::with_capacity(input.len().div_ceil(16) * 16);
        for chunk in input.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            out.extend_from_slice(&encrypt_words(block, &rk));
        }
        Ok(out)
    }

    fn input_width(&self) -> u16 {
        16
    }

    fn output_width(&self) -> u16 {
        16
    }

    fn build_image(&self, params: &[u8], geom: DeviceGeometry) -> Result<FunctionImage, AlgoError> {
        if params.len() != 16 {
            return Err(AlgoError::BadParams {
                kernel: "aes128",
                reason: format!("key must be 16 bytes, got {}", params.len()),
            });
        }
        // A pipelined AES-128 core is a large design: ~24 frames.
        Ok(behavioral_image(
            self.algo_id(),
            params,
            self.input_width(),
            self.output_width(),
            24,
            geom,
        ))
    }

    fn fabric_cycles(&self, input_len: usize) -> u64 {
        // 11-stage pipeline: fill once, then one block per cycle.
        11 + input_len.div_ceil(16) as u64
    }

    fn software_cycles(&self, input_len: usize) -> u64 {
        // ~60 cycles/byte for portable (non-assembly) AES on a 2005
        // desktop CPU, plus the key schedule.
        60 * input_len as u64 + 2000
    }
}

/// The byte-wise FIPS-197 cipher: SubBytes, ShiftRows, MixColumns and
/// AddRoundKey applied to the state one byte at a time. Tests compare
/// the T-table kernel against it.
#[cfg(test)]
mod reference {
    use super::*;

    /// Expands a 16-byte key into 11 byte-wise round keys.
    pub(super) fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ t[j];
            }
        }
        let mut rk = [[0u8; 16]; 11];
        for (r, round_key) in rk.iter_mut().enumerate() {
            for c in 0..4 {
                round_key[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        rk
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // state is column-major: state[c*4 + r]
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[c * 4],
                state[c * 4 + 1],
                state[c * 4 + 2],
                state[c * 4 + 3],
            ];
            state[c * 4] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            state[c * 4 + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            state[c * 4 + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            state[c * 4 + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    fn encrypt_block(block: &[u8; 16], round_keys: &[[u8; 16]; 11]) -> [u8; 16] {
        let mut state = *block;
        add_round_key(&mut state, &round_keys[0]);
        for rk in round_keys.iter().take(10).skip(1) {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, rk);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &round_keys[10]);
        state
    }

    /// Zero-padded AES-128 ECB over the byte-wise cipher.
    pub(super) fn ecb(key: &[u8; 16], input: &[u8]) -> Vec<u8> {
        let rk = expand_key(key);
        let mut out = Vec::new();
        for chunk in input.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            out.extend_from_slice(&encrypt_block(&block, &rk));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded sweep over random keys and every input length 0..=130
    /// (empty, ragged tails, multi-block): the T-table kernel is
    /// byte-identical to the byte-wise reference.
    #[test]
    fn kernel_matches_byte_wise_reference() {
        let mut rng = aaod_sim::SplitMix64::new(0xAE5_128);
        for len in 0..=130 {
            let mut key = [0u8; 16];
            rng.fill(&mut key);
            let mut input = vec![0u8; len];
            rng.fill(&mut input);
            assert_eq!(
                Aes128.execute(&key, &input).unwrap(),
                reference::ecb(&key, &input),
                "len {len}"
            );
        }
    }

    /// Seeded key sweep: the word-wise key schedule equals the
    /// byte-wise one read as big-endian column words.
    #[test]
    fn key_expansion_matches_byte_wise_reference() {
        let mut rng = aaod_sim::SplitMix64::new(0xAE5_C0DE);
        for _ in 0..512 {
            let mut key = [0u8; 16];
            rng.fill(&mut key);
            assert_eq!(expand_key(&key), reference::expand_key(&key).map(columns));
        }
    }

    /// FIPS-197 Appendix A.1: the expanded key of
    /// `2b7e1516 28aed2a6 abf71588 09cf4f3c`, all 44 words.
    #[test]
    fn fips197_appendix_a1_key_expansion() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let w: [u32; 44] = [
            0x2b7e1516, 0x28aed2a6, 0xabf71588, 0x09cf4f3c, 0xa0fafe17, 0x88542cb1, 0x23a33939,
            0x2a6c7605, 0xf2c295f2, 0x7a96b943, 0x5935807a, 0x7359f67f, 0x3d80477d, 0x4716fe3e,
            0x1e237e44, 0x6d7a883b, 0xef44a541, 0xa8525b7f, 0xb671253b, 0xdb0bad00, 0xd4d1c6f8,
            0x7c839d87, 0xcaf2b8bc, 0x11f915bc, 0x6d88a37a, 0x110b3efd, 0xdbf98641, 0xca0093fd,
            0x4e54f70e, 0x5f5fc9f3, 0x84a64fb2, 0x4ea6dc4f, 0xead27321, 0xb58dbad2, 0x312bf560,
            0x7f8d292f, 0xac7766f3, 0x19fadc21, 0x28d12941, 0x575c006e, 0xd014f9a8, 0xc9ee2589,
            0xe13f0cc8, 0xb6630ca6,
        ];
        assert_eq!(expand_key(&key).as_flattened(), &w[..]);
    }

    /// FIPS-197 Appendix B example.
    #[test]
    fn fips197_vector() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(encrypt_words(pt, &expand_key(&key)), expected);
    }

    /// FIPS-197 Appendix C.1 (key 000102...0f, pt 00112233...ff).
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = (0u8..16).collect::<Vec<_>>().try_into().unwrap();
        let pt: [u8; 16] = (0..16u8)
            .map(|i| i * 0x11)
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(encrypt_words(pt, &expand_key(&key)), expected);
    }

    /// NIST SP 800-38A F.1.1 (AES-128 ECB, 4 blocks).
    #[test]
    fn nist_sp800_38a_ecb_vectors() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let rk = expand_key(&key);
        let cases: [([u8; 16], [u8; 16]); 2] = [
            (
                [
                    0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73,
                    0x93, 0x17, 0x2a,
                ],
                [
                    0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24,
                    0x66, 0xef, 0x97,
                ],
            ),
            (
                [
                    0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45,
                    0xaf, 0x8e, 0x51,
                ],
                [
                    0xf5, 0xd3, 0xd5, 0x85, 0x03, 0xb9, 0x69, 0x9d, 0xe7, 0x85, 0x89, 0x5a, 0x96,
                    0xfd, 0xba, 0xaf,
                ],
            ),
        ];
        for (pt, ct) in cases {
            assert_eq!(encrypt_words(pt, &rk), ct);
        }
    }

    #[test]
    fn kernel_pads_partial_blocks() {
        let aes = Aes128;
        let out = aes.execute(&aes.default_params(), &[1, 2, 3]).unwrap();
        assert_eq!(out.len(), 16);
        // equals encrypting the zero-padded block
        let mut block = [0u8; 16];
        block[..3].copy_from_slice(&[1, 2, 3]);
        let direct = aes.execute(&aes.default_params(), &block).unwrap();
        assert_eq!(out, direct);
    }

    #[test]
    fn bad_key_rejected() {
        let aes = Aes128;
        assert!(matches!(
            aes.execute(&[0; 5], b"x"),
            Err(AlgoError::BadParams { .. })
        ));
        assert!(aes.build_image(&[0; 5], DeviceGeometry::default()).is_err());
    }

    #[test]
    fn image_embeds_key_and_occupies_24_frames() {
        use aaod_fabric::FunctionKind;
        let aes = Aes128;
        let geom = DeviceGeometry::default();
        let img = aes.build_image(&aes.default_params(), geom).unwrap();
        assert_eq!(img.frames_needed(geom), 24);
        match img.kind().unwrap() {
            FunctionKind::Behavioral { params } => assert_eq!(params, aes.default_params()),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn fabric_beats_software() {
        let aes = Aes128;
        assert!(aes.fabric_cycles(4096) * 60 < aes.software_cycles(4096));
    }

    #[test]
    fn empty_input_empty_output() {
        let aes = Aes128;
        assert!(aes.execute(&aes.default_params(), &[]).unwrap().is_empty());
    }
}
