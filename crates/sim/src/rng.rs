//! Deterministic pseudo-random number generation.
//!
//! Every stochastic element of the workspace — workload arrival order,
//! bitstream filler content, the random replacement policy — draws from
//! [`SplitMix64`], a tiny, well-mixed, fully deterministic generator.
//! Using our own generator (rather than an external crate) guarantees
//! experiment outputs are bit-stable across toolchain and dependency
//! upgrades.
//!
//! Every request payload is [`SplitMix64::fill`] output, so `fill` is on
//! the per-request host path: it writes whole 8-byte words, and its
//! bytes are pinned against the word stream in the tests.

/// SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).
///
/// Not cryptographically secure; used only for reproducible simulation
/// inputs.
///
/// # Examples
///
/// ```
/// use aaod_sim::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniformly distributed byte.
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// A uniform value in `[0, bound)` using Lemire's multiply-shift
    /// reduction (slight modulo bias is irrelevant at simulation scale).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fills `buf` with random bytes: the little-endian bytes of one
    /// [`next_u64`](Self::next_u64) per 8-byte word, written a whole
    /// word at a time, and the leading bytes of one more for a short
    /// remainder.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for word in &mut words {
            word.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = words.into_remainder();
        if !rest.is_empty() {
            let len = rest.len();
            rest.copy_from_slice(&self.next_u64().to_le_bytes()[..len]);
        }
    }

    /// Fisher-Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Splits off an independent generator (for giving sub-components
    /// their own streams).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_vector() {
        // Reference value for SplitMix64 with seed 0 (per the public
        // reference implementation): first output is 0xE220A8397B1DCDAF.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(2);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    /// `fill` is the concatenated little-endian `next_u64` words,
    /// truncated to the buffer, at every remainder.
    #[test]
    fn fill_matches_concatenated_words() {
        for len in (0..=67usize).chain([4096]) {
            let mut words = SplitMix64::new(len as u64);
            let want: Vec<u8> = (0..len.div_ceil(8))
                .flat_map(|_| words.next_u64().to_le_bytes())
                .take(len)
                .collect();
            let mut filler = SplitMix64::new(len as u64);
            let mut got = vec![0u8; len];
            filler.fill(&mut got);
            assert_eq!(got, want, "len {len}");
            assert_eq!(filler, words, "len {len}: same words drawn");
        }
    }

    #[test]
    fn fill_covers_partial_chunks() {
        let mut r = SplitMix64::new(3);
        let mut buf = [0u8; 13];
        r.fill(&mut buf);
        // Extremely unlikely to be all zero after filling.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(4);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn split_streams_differ() {
        let mut r = SplitMix64::new(5);
        let mut s = r.split();
        assert_ne!(r.next_u64(), s.next_u64());
    }

    #[test]
    fn mean_is_roughly_half() {
        let mut r = SplitMix64::new(6);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
