//! LZSS with a 4 KiB sliding window.
//!
//! Configuration bitstreams repeat identical CLB columns and routing
//! motifs at distances well within a few KiB, which back-references
//! capture better than pure run-length coding.
//!
//! Wire format: groups of up to eight tokens preceded by a flag byte
//! (LSB first; 1 = literal byte, 0 = match). A match is two bytes:
//! `offset[7:0]`, then `offset[11:8] << 4 | (len - MIN_MATCH)`, with
//! `offset` counting back from the current output position
//! (`1..=4096`) and `len` in `3..=18`.
//!
//! The decompressor keeps only a 4 KiB history ring — bounded memory,
//! as the windowed configuration module requires.

use super::{Codec, CodecId, Decompressor};
use crate::error::BitstreamError;

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;
const CHAIN_LIMIT: usize = 64;

/// LZSS codec (4 KiB window, 3–18 byte matches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lzss {
    _private: (),
}

impl Lzss {
    /// Creates the codec.
    pub fn new() -> Self {
        Lzss { _private: () }
    }
}

impl Default for Lzss {
    fn default() -> Self {
        Lzss::new()
    }
}

fn hash3(data: &[u8], pos: usize) -> usize {
    let h = (data[pos] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((data[pos + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add((data[pos + 2] as u32).wrapping_mul(0x7F4A));
    (h as usize) & (WINDOW - 1)
}

/// The longest match for `data[i..]` among the hash-chain candidates
/// starting at `cand`, as `(len, offset)`: at most [`CHAIN_LIMIT`]
/// candidates, newest first, stopping at the first one out of the
/// window; of equally long matches the newest wins.
///
/// A candidate can only beat `best_len` if it also matches at
/// `best_len`, so that byte is tested before comparing from offset 0.
/// Every hopeless candidate still counts one chain step, so the match
/// found is exactly that of a full comparison per candidate.
fn longest_match(data: &[u8], i: usize, mut cand: usize, prev: &[usize]) -> (usize, usize) {
    let max = MAX_MATCH.min(data.len() - i);
    let (mut best_len, mut best_off) = (0, 0);
    let mut steps = 0;
    while cand != usize::MAX && steps < CHAIN_LIMIT {
        // the chain is ordered by recency, so older candidates are
        // farther; the offset must fit the 12-bit field
        if i - cand >= WINDOW {
            break;
        }
        if data[cand + best_len] == data[i + best_len] {
            let l = data[cand..cand + max]
                .iter()
                .zip(&data[i..i + max])
                .take_while(|(a, b)| a == b)
                .count();
            if l > best_len {
                best_len = l;
                best_off = i - cand;
                if l == max {
                    break;
                }
            }
        }
        cand = prev[cand];
        steps += 1;
    }
    (best_len, best_off)
}

/// The matcher [`Lzss::compress`] runs at each position: `(data, i,
/// chain head, prev links) -> (len, offset)`.
type MatchFinder = fn(&[u8], usize, usize, &[usize]) -> (usize, usize);

/// LZSS-encodes `data`, taking each position's match from `find`.
fn compress_with(data: &[u8], find: MatchFinder) -> Vec<u8> {
    let mut out = Vec::new();
    let mut head = vec![usize::MAX; WINDOW];
    let mut prev = vec![usize::MAX; data.len()];

    let mut tokens: Vec<(bool, u8, u16, u8)> = Vec::with_capacity(8); // (is_literal, lit, offset, len)
    let flush = |out: &mut Vec<u8>, tokens: &mut Vec<(bool, u8, u16, u8)>| {
        if tokens.is_empty() {
            return;
        }
        let mut flags = 0u8;
        for (i, t) in tokens.iter().enumerate() {
            if t.0 {
                flags |= 1 << i;
            }
        }
        out.push(flags);
        for &(is_lit, lit, offset, len) in tokens.iter() {
            if is_lit {
                out.push(lit);
            } else {
                out.push((offset & 0xFF) as u8);
                out.push((((offset >> 8) as u8) << 4) | (len - MIN_MATCH as u8));
            }
        }
        tokens.clear();
    };

    let mut i = 0;
    while i < data.len() {
        let (best_len, best_off) = if i + MIN_MATCH <= data.len() {
            find(data, i, head[hash3(data, i)], &prev)
        } else {
            (0, 0)
        };
        if best_len >= MIN_MATCH {
            tokens.push((false, 0, best_off as u16, best_len as u8));
            // insert all covered positions into the hash chains
            #[allow(clippy::needless_range_loop)] // p is a position, not an element index
            for p in i..i + best_len {
                if p + MIN_MATCH <= data.len() {
                    let h = hash3(data, p);
                    prev[p] = head[h];
                    head[h] = p;
                }
            }
            i += best_len;
        } else {
            tokens.push((true, data[i], 0, 0));
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
        if tokens.len() == 8 {
            flush(&mut out, &mut tokens);
        }
    }
    flush(&mut out, &mut tokens);
    out
}

impl Codec for Lzss {
    fn id(&self) -> CodecId {
        CodecId::Lzss
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        compress_with(data, longest_match)
    }

    fn decompressor<'a>(&self, data: &'a [u8]) -> Box<dyn Decompressor + 'a> {
        Box::new(LzssDecompressor {
            data,
            pos: 0,
            flags: 0,
            flags_left: 0,
            history: vec![0u8; WINDOW],
            hist_pos: 0,
            match_off: 0,
            match_left: 0,
        })
    }

    fn cycles_per_output_byte(&self) -> u64 {
        2
    }
}

struct LzssDecompressor<'a> {
    data: &'a [u8],
    pos: usize,
    flags: u8,
    flags_left: u8,
    history: Vec<u8>,
    hist_pos: usize,
    match_off: usize,
    match_left: usize,
}

impl LzssDecompressor<'_> {
    fn emit(&mut self, byte: u8, out: &mut [u8], produced: &mut usize) {
        out[*produced] = byte;
        *produced += 1;
        self.history[self.hist_pos] = byte;
        self.hist_pos = (self.hist_pos + 1) & (WINDOW - 1);
    }
}

impl Decompressor for LzssDecompressor<'_> {
    fn read(&mut self, out: &mut [u8]) -> Result<usize, BitstreamError> {
        let mut produced = 0;
        while produced < out.len() {
            // Continue a match already in progress.
            if self.match_left > 0 {
                let src = (self.hist_pos + WINDOW - self.match_off) & (WINDOW - 1);
                let byte = self.history[src];
                self.emit(byte, out, &mut produced);
                self.match_left -= 1;
                continue;
            }
            if self.flags_left == 0 {
                if self.pos == self.data.len() {
                    break;
                }
                self.flags = self.data[self.pos];
                self.pos += 1;
                self.flags_left = 8;
            }
            // A flag byte may cover fewer than 8 tokens at stream end.
            if self.pos == self.data.len() {
                break;
            }
            let is_literal = self.flags & 1 == 1;
            self.flags >>= 1;
            self.flags_left -= 1;
            if is_literal {
                let byte = self.data[self.pos];
                self.pos += 1;
                self.emit(byte, out, &mut produced);
            } else {
                if self.pos + 2 > self.data.len() {
                    return Err(BitstreamError::CorruptPayload(
                        "lzss match token truncated".into(),
                    ));
                }
                let lo = self.data[self.pos] as usize;
                let second = self.data[self.pos + 1] as usize;
                self.pos += 2;
                let offset = lo | ((second >> 4) << 8);
                let len = (second & 0x0F) + MIN_MATCH;
                if offset == 0 {
                    return Err(BitstreamError::CorruptPayload("lzss zero offset".into()));
                }
                self.match_off = offset;
                self.match_left = len;
            }
        }
        Ok(produced)
    }
}

/// The match search before the early reject: every candidate is
/// compared from offset 0. Tests check that [`Lzss::compress`] emits
/// exactly the tokens this search gives.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn longest_match(
        data: &[u8],
        i: usize,
        mut cand: usize,
        prev: &[usize],
    ) -> (usize, usize) {
        let (mut best_len, mut best_off) = (0, 0);
        let mut steps = 0;
        while cand != usize::MAX && steps < CHAIN_LIMIT {
            // offset must fit the 12-bit field, so strictly < WINDOW
            if i - cand < WINDOW {
                let max = MAX_MATCH.min(data.len() - i);
                let mut l = 0;
                while l < max && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - cand;
                    if l == MAX_MATCH {
                        break;
                    }
                }
            } else {
                break; // chain is ordered by recency; older = farther
            }
            cand = prev[cand];
            steps += 1;
        }
        (best_len, best_off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decompress_all;
    use aaod_sim::SplitMix64;

    /// Seeded sweep: random, low-entropy and periodic buffers of every
    /// length class up to 5 KB encode to exactly the bytes of the
    /// compare-from-zero reference search, and round-trip.
    #[test]
    fn early_reject_matches_the_reference_search() {
        let mut rng = SplitMix64::new(0x1255);
        for case in 0..120 {
            let len = match case % 4 {
                0 => rng.index(40),
                1 => rng.index(600),
                _ => rng.index(5000),
            };
            let mut data = vec![0u8; len];
            match case % 3 {
                0 => rng.fill(&mut data),
                // a four-letter alphabet: long chains of short matches
                1 => data.iter_mut().for_each(|b| *b = rng.index(4) as u8),
                // a noisy period: matches of every length up to the cap
                _ => {
                    let period = 1 + rng.index(300);
                    for (k, b) in data.iter_mut().enumerate() {
                        *b = if rng.index(16) == 0 {
                            rng.next_u8()
                        } else {
                            (k % period) as u8
                        };
                    }
                }
            }
            let got = Lzss::new().compress(&data);
            assert_eq!(
                got,
                compress_with(&data, reference::longest_match),
                "case {case}, {len} B"
            );
            assert_eq!(decompress_all(&Lzss::new(), &got).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_repetitive() {
        let mut data = Vec::new();
        for _ in 0..100 {
            data.extend_from_slice(b"frame-config-pattern-0123456789");
        }
        let c = Lzss::new();
        let compressed = c.compress(&data);
        assert!(
            compressed.len() < data.len() / 4,
            "only {} -> {}",
            data.len(),
            compressed.len()
        );
        assert_eq!(decompress_all(&c, &compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = SplitMix64::new(42);
        let mut data = vec![0u8; 8192];
        rng.fill(&mut data);
        let c = Lzss::new();
        assert_eq!(decompress_all(&c, &c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn roundtrip_overlapping_match() {
        // "aaaa..." forces matches whose source overlaps the output.
        let data = vec![b'a'; 1000];
        let c = Lzss::new();
        let compressed = c.compress(&data);
        assert!(compressed.len() < 200);
        assert_eq!(decompress_all(&c, &compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_long_distance() {
        // Repeat separated by nearly the full window.
        let mut data = vec![0x11u8; 64];
        data.extend(vec![0xEEu8; 4000]);
        data.extend(vec![0x11u8; 64]);
        let c = Lzss::new();
        assert_eq!(decompress_all(&c, &c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn truncated_match_is_corrupt() {
        // flags byte says "match", then only one byte follows.
        let err = decompress_all(&Lzss::new(), &[0x00, 0x05]).unwrap_err();
        assert!(matches!(err, BitstreamError::CorruptPayload(_)));
    }

    #[test]
    fn zero_offset_is_corrupt() {
        let err = decompress_all(&Lzss::new(), &[0x00, 0x00, 0x00]).unwrap_err();
        assert!(matches!(err, BitstreamError::CorruptPayload(_)));
    }

    #[test]
    fn empty_input() {
        let c = Lzss::new();
        assert!(c.compress(&[]).is_empty());
        assert!(decompress_all(&c, &[]).unwrap().is_empty());
    }
}
