//! CRC-32 (IEEE 802.3, reflected) over bitstream payloads.
//!
//! Also serves as the golden model for the algorithm bank's CRC-32
//! kernel, so hardware results can be checked against an independent
//! implementation path.
//!
//! The update is slicing-by-8: eight 256-entry tables, derived at
//! compile time from `POLY`, fold eight input bytes per step with
//! eight independent lookups. The bitwise loop they replace stays in
//! the tests as the oracle.

/// Reflected polynomial for CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC register after shifting the byte `b`
/// through the bitwise loop; `TABLES[k][b]` is that value pushed on
/// through `k` further zero bytes, so a byte `k` places ahead of the
/// register's low end is folded with `TABLES[k]`.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Computes CRC-32 (IEEE) of `data`.
///
/// # Examples
///
/// ```
/// use aaod_bitstream::crc::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF43926); // standard check value
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Incremental CRC-32 state.
///
/// # Examples
///
/// ```
/// use aaod_bitstream::crc::{crc32, Crc32};
///
/// let mut c = Crc32::new();
/// c.update(b"1234");
/// c.update(b"56789");
/// assert_eq!(c.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
                ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][w[4] as usize]
                ^ TABLES[2][w[5] as usize]
                ^ TABLES[1][w[6] as usize]
                ^ TABLES[0][w[7] as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Final CRC value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// The bitwise loop the tables replaced, one polynomial step per bit.
/// Tests compare [`Crc32::update`] against it.
#[cfg(test)]
mod reference {
    use super::POLY;

    pub(super) fn crc32(data: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in data {
            state ^= b as u32;
            for _ in 0..8 {
                let lsb = state & 1;
                state >>= 1;
                if lsb != 0 {
                    state ^= POLY;
                }
            }
        }
        !state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_sim::SplitMix64;

    /// Seeded sweep over every length 0..=4096, one-shot and split
    /// into two `update` calls at a random point: the table-driven
    /// CRC equals the bitwise reference.
    #[test]
    fn tables_match_bitwise_reference() {
        let mut rng = SplitMix64::new(0xC3C_3200);
        let mut data = vec![0u8; 4096];
        rng.fill(&mut data);
        for len in 0..=4096 {
            let data = &data[..len];
            let want = reference::crc32(data);
            assert_eq!(crc32(data), want, "len {len}");
            let split = rng.index(len + 1);
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), want, "len {len} split {split}");
        }
        assert_eq!(reference::crc32(b"123456789"), 0xCBF4_3926);
        for edge in [[0u8; 64], [0xFF; 64]] {
            assert_eq!(crc32(&edge), reference::crc32(&edge));
        }
    }

    /// The tables are at least 1.3× the bitwise loop on a 1500-byte
    /// packet, the CRC-32 kernel's benchmark input. Both run in this
    /// process, best of 200, so the ratio does not depend on the
    /// runner's speed. Optimised builds only.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "times optimised code")]
    fn tables_beat_bitwise_reference() {
        use std::hint::black_box;
        use std::time::Instant;
        let mut data = vec![0u8; 1500];
        SplitMix64::new(0xC3C).fill(&mut data);
        let time = |f: &dyn Fn(&[u8]) -> u32| {
            let start = Instant::now();
            black_box(f(black_box(&data)));
            start.elapsed().as_nanos()
        };
        let (fast, slow) = (0..200).fold((u128::MAX, u128::MAX), |(fast, slow), _| {
            (fast.min(time(&crc32)), slow.min(time(&reference::crc32)))
        });
        let ratio = slow as f64 / fast as f64;
        println!("crc32 @ 1500 B: {slow} ns -> {fast} ns, {ratio:.2}x");
        assert!(ratio >= 1.3, "crc32: only {ratio:.2}x its reference");
    }

    #[test]
    fn standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..200u8).collect();
        for split in [0, 1, 99, 200] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(&data));
        }
    }

    #[test]
    fn detects_single_byte_change() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
