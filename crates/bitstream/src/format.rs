//! The on-ROM bitstream container format.
//!
//! Mirrors the structure of a Virtex-II SelectMAP stream at the level
//! the co-processor cares about: a sync word, a small header naming the
//! function and its codec, and a CRC-protected compressed payload that
//! expands to whole configuration frames.

use crate::codec::{registry, Codec, CodecId};
use crate::crc::crc32;
use crate::error::BitstreamError;
use aaod_fabric::{DeviceGeometry, FunctionImage};

/// The configuration sync word (as on Virtex-II).
pub const SYNC_WORD: u32 = 0xAA99_5566;
/// Container format version.
const VERSION: u8 = 1;
/// Serialised header length in bytes.
pub const HEADER_BYTES: usize = 32;

/// Parsed bitstream header.
///
/// The configuration module parses this straight out of ROM, then
/// streams the payload through the named codec window by window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstreamHeader {
    /// Algorithm this bitstream configures.
    pub algo_id: u16,
    /// Compression codec of the payload.
    pub codec: CodecId,
    /// Data-input transfer width (bytes).
    pub input_width: u16,
    /// Output transfer width (bytes).
    pub output_width: u16,
    /// Number of configuration frames the payload expands to.
    pub n_frames: u16,
    /// Size of one frame in bytes.
    pub frame_bytes: u32,
    /// Total decompressed length (`n_frames * frame_bytes`).
    pub uncompressed_len: u32,
    /// Compressed payload length.
    pub compressed_len: u32,
    /// CRC-32 over the compressed payload.
    pub payload_crc: u32,
}

impl BitstreamHeader {
    /// Parses a header from the front of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::Malformed`] for truncated data, a bad
    /// sync word, version or inconsistent lengths, and
    /// [`BitstreamError::UnknownCodec`] for an unassigned codec id.
    pub fn parse(bytes: &[u8]) -> Result<Self, BitstreamError> {
        if bytes.len() < HEADER_BYTES {
            return Err(BitstreamError::Malformed(format!(
                "{} bytes is shorter than the {HEADER_BYTES}-byte header",
                bytes.len()
            )));
        }
        let sync = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        if sync != SYNC_WORD {
            return Err(BitstreamError::Malformed(format!(
                "bad sync word {sync:#010x}"
            )));
        }
        if bytes[4] != VERSION {
            return Err(BitstreamError::Malformed(format!(
                "unsupported version {}",
                bytes[4]
            )));
        }
        let codec = CodecId::from_byte(bytes[5])?;
        let header = BitstreamHeader {
            codec,
            algo_id: u16::from_le_bytes([bytes[6], bytes[7]]),
            input_width: u16::from_le_bytes([bytes[8], bytes[9]]),
            output_width: u16::from_le_bytes([bytes[10], bytes[11]]),
            n_frames: u16::from_le_bytes([bytes[12], bytes[13]]),
            frame_bytes: u32::from_le_bytes([bytes[14], bytes[15], bytes[16], bytes[17]]),
            uncompressed_len: u32::from_le_bytes([bytes[18], bytes[19], bytes[20], bytes[21]]),
            compressed_len: u32::from_le_bytes([bytes[22], bytes[23], bytes[24], bytes[25]]),
            payload_crc: u32::from_le_bytes([bytes[26], bytes[27], bytes[28], bytes[29]]),
        };
        // widened: a hostile frame size must not overflow the product
        if u64::from(header.uncompressed_len)
            != u64::from(header.n_frames) * u64::from(header.frame_bytes)
        {
            return Err(BitstreamError::Malformed(format!(
                "uncompressed length {} != {} frames x {} bytes",
                header.uncompressed_len, header.n_frames, header.frame_bytes
            )));
        }
        if header.frame_bytes == 0 || header.n_frames == 0 {
            return Err(BitstreamError::Malformed(
                "zero frame size or frame count".into(),
            ));
        }
        Ok(header)
    }

    /// Serialises the header.
    pub fn to_bytes(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..4].copy_from_slice(&SYNC_WORD.to_le_bytes());
        out[4] = VERSION;
        out[5] = self.codec.to_byte();
        out[6..8].copy_from_slice(&self.algo_id.to_le_bytes());
        out[8..10].copy_from_slice(&self.input_width.to_le_bytes());
        out[10..12].copy_from_slice(&self.output_width.to_le_bytes());
        out[12..14].copy_from_slice(&self.n_frames.to_le_bytes());
        out[14..18].copy_from_slice(&self.frame_bytes.to_le_bytes());
        out[18..22].copy_from_slice(&self.uncompressed_len.to_le_bytes());
        out[22..26].copy_from_slice(&self.compressed_len.to_le_bytes());
        out[26..30].copy_from_slice(&self.payload_crc.to_le_bytes());
        out
    }

    /// Instantiates this header's codec.
    pub fn make_codec(&self) -> Box<dyn Codec> {
        registry::codec(self.codec, self.frame_bytes as usize)
    }

    /// Verifies the payload CRC against `payload`.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::CrcMismatch`] when the payload does
    /// not match the header's CRC, or [`BitstreamError::Malformed`] if
    /// the payload length disagrees with the header.
    pub fn verify_payload(&self, payload: &[u8]) -> Result<(), BitstreamError> {
        if payload.len() != self.compressed_len as usize {
            return Err(BitstreamError::Malformed(format!(
                "payload length {} != header compressed length {}",
                payload.len(),
                self.compressed_len
            )));
        }
        let computed = crc32(payload);
        if computed != self.payload_crc {
            return Err(BitstreamError::CrcMismatch {
                stored: self.payload_crc,
                computed,
            });
        }
        Ok(())
    }
}

/// A function's configuration bitstream: frames plus the metadata
/// needed to store, transport and reconfigure it.
///
/// # Examples
///
/// ```
/// use aaod_bitstream::{codec::{registry, CodecId}, Bitstream};
///
/// let frames = vec![vec![0u8; 64]; 3];
/// let bs = Bitstream::new(1, 8, 8, 64, frames)?;
/// let rom = bs.encode(registry::codec(CodecId::FrameXor, 64).as_ref());
/// assert_eq!(Bitstream::decode(&rom)?, bs);
/// # Ok::<(), aaod_bitstream::BitstreamError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    algo_id: u16,
    input_width: u16,
    output_width: u16,
    frame_bytes: usize,
    frames: Vec<Vec<u8>>,
}

impl Bitstream {
    /// Builds a bitstream from frames.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::Malformed`] if `frames` is empty or
    /// any frame's length differs from `frame_bytes`.
    pub fn new(
        algo_id: u16,
        input_width: u16,
        output_width: u16,
        frame_bytes: usize,
        frames: Vec<Vec<u8>>,
    ) -> Result<Self, BitstreamError> {
        if frames.is_empty() {
            return Err(BitstreamError::Malformed("no frames".into()));
        }
        if frame_bytes == 0 {
            return Err(BitstreamError::Malformed("zero frame size".into()));
        }
        for (i, f) in frames.iter().enumerate() {
            if f.len() != frame_bytes {
                return Err(BitstreamError::Malformed(format!(
                    "frame {i} has {} bytes, expected {frame_bytes}",
                    f.len()
                )));
            }
        }
        Ok(Bitstream {
            algo_id,
            input_width,
            output_width,
            frame_bytes,
            frames,
        })
    }

    /// Builds the bitstream for a function image under a device
    /// geometry (the normal production path: image → frames → stream).
    pub fn from_image(image: &FunctionImage, geom: DeviceGeometry) -> Self {
        Bitstream {
            algo_id: image.algo_id(),
            input_width: image.input_width(),
            output_width: image.output_width(),
            frame_bytes: geom.frame_bytes(),
            frames: image.encode(geom),
        }
    }

    /// Algorithm id.
    pub fn algo_id(&self) -> u16 {
        self.algo_id
    }

    /// Data-input transfer width in bytes.
    pub fn input_width(&self) -> u16 {
        self.input_width
    }

    /// Output transfer width in bytes.
    pub fn output_width(&self) -> u16 {
        self.output_width
    }

    /// Frame size in bytes.
    pub fn frame_bytes(&self) -> usize {
        self.frame_bytes
    }

    /// The configuration frames.
    pub fn frames(&self) -> &[Vec<u8>] {
        &self.frames
    }

    /// Number of frames.
    pub fn n_frames(&self) -> usize {
        self.frames.len()
    }

    /// Concatenated (uncompressed) frame bytes.
    pub fn flat(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.n_frames() * self.frame_bytes);
        for f in &self.frames {
            out.extend_from_slice(f);
        }
        out
    }

    /// Serialises header + compressed payload — the bytes downloaded
    /// into the co-processor's ROM.
    pub fn encode(&self, codec: &dyn Codec) -> Vec<u8> {
        let flat = self.flat();
        let payload = codec.compress(&flat);
        let header = BitstreamHeader {
            algo_id: self.algo_id,
            codec: codec.id(),
            input_width: self.input_width,
            output_width: self.output_width,
            n_frames: self.frames.len() as u16,
            frame_bytes: self.frame_bytes as u32,
            uncompressed_len: flat.len() as u32,
            compressed_len: payload.len() as u32,
            payload_crc: crc32(&payload),
        };
        let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
        out.extend_from_slice(&header.to_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses and fully decompresses an encoded bitstream.
    ///
    /// The configuration module does *not* use this (it streams
    /// window by window); this is the host-side / test path.
    ///
    /// # Errors
    ///
    /// Propagates header, CRC and codec errors; returns
    /// [`BitstreamError::FrameMisaligned`] if the decompressed data is
    /// not whole frames.
    pub fn decode(bytes: &[u8]) -> Result<Self, BitstreamError> {
        let header = BitstreamHeader::parse(bytes)?;
        let payload = &bytes[HEADER_BYTES..];
        header.verify_payload(payload)?;
        let codec = header.make_codec();
        let flat = crate::codec::decompress_all(codec.as_ref(), payload)?;
        if flat.len() != header.uncompressed_len as usize {
            return Err(BitstreamError::CorruptPayload(format!(
                "decompressed to {} bytes, header says {}",
                flat.len(),
                header.uncompressed_len
            )));
        }
        let fb = header.frame_bytes as usize;
        if flat.len() % fb != 0 {
            return Err(BitstreamError::FrameMisaligned {
                len: flat.len(),
                frame_bytes: fb,
            });
        }
        let frames = flat.chunks(fb).map(<[u8]>::to_vec).collect();
        Bitstream::new(
            header.algo_id,
            header.input_width,
            header.output_width,
            fb,
            frames,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::registry;
    use aaod_sim::SplitMix64;

    fn sample(frames: usize, fb: usize, seed: u64) -> Bitstream {
        let mut rng = SplitMix64::new(seed);
        let frames: Vec<Vec<u8>> = (0..frames)
            .map(|_| {
                let mut f = vec![0u8; fb];
                // sparse fill: realistic bitstream statistics
                for _ in 0..fb / 8 {
                    let i = rng.index(fb);
                    f[i] = rng.next_u8();
                }
                f
            })
            .collect();
        Bitstream::new(7, 16, 8, fb, frames).unwrap()
    }

    #[test]
    fn roundtrip_every_codec() {
        let bs = sample(12, 128, 1);
        for codec in registry::all(128) {
            let bytes = bs.encode(codec.as_ref());
            let back = Bitstream::decode(&bytes).unwrap_or_else(|e| panic!("{}: {e}", codec.id()));
            assert_eq!(back, bs, "{}", codec.id());
        }
    }

    #[test]
    fn header_roundtrip() {
        let bs = sample(3, 64, 2);
        let bytes = bs.encode(registry::codec(CodecId::Rle, 64).as_ref());
        let h = BitstreamHeader::parse(&bytes).unwrap();
        assert_eq!(h.algo_id, 7);
        assert_eq!(h.codec, CodecId::Rle);
        assert_eq!(h.n_frames, 3);
        assert_eq!(h.frame_bytes, 64);
        assert_eq!(h.uncompressed_len, 192);
        assert_eq!(h.input_width, 16);
        assert_eq!(h.output_width, 8);
    }

    #[test]
    fn bad_sync_rejected() {
        let bs = sample(2, 64, 3);
        let mut bytes = bs.encode(registry::codec(CodecId::Null, 64).as_ref());
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Bitstream::decode(&bytes),
            Err(BitstreamError::Malformed(_))
        ));
    }

    #[test]
    fn payload_corruption_caught_by_crc() {
        let bs = sample(4, 64, 4);
        let mut bytes = bs.encode(registry::codec(CodecId::Lzss, 64).as_ref());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Bitstream::decode(&bytes),
            Err(BitstreamError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn oversized_frame_size_is_malformed_not_an_overflow() {
        // frame_bytes' top byte flipped: n_frames × frame_bytes no
        // longer fits a u32, which used to overflow in debug builds
        let bs = sample(4, 64, 7);
        let mut bytes = bs.encode(registry::codec(CodecId::Null, 64).as_ref());
        bytes[17] ^= 0x80;
        assert!(matches!(
            BitstreamHeader::parse(&bytes),
            Err(BitstreamError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_payload_detected() {
        let bs = sample(4, 64, 5);
        let mut bytes = bs.encode(registry::codec(CodecId::Null, 64).as_ref());
        bytes.truncate(bytes.len() - 3);
        assert!(Bitstream::decode(&bytes).is_err());
    }

    #[test]
    fn empty_frames_rejected() {
        assert!(Bitstream::new(1, 1, 1, 64, vec![]).is_err());
    }

    #[test]
    fn ragged_frames_rejected() {
        let frames = vec![vec![0u8; 64], vec![0u8; 63]];
        assert!(Bitstream::new(1, 1, 1, 64, frames).is_err());
    }

    #[test]
    fn from_image_matches_geometry() {
        use aaod_fabric::{DeviceGeometry, FunctionImage};
        let geom = DeviceGeometry::new(8, 2);
        let img = FunctionImage::from_behavioral(5, &[1, 2], &[9u8; 400], 8, 8);
        let bs = Bitstream::from_image(&img, geom);
        assert_eq!(bs.algo_id(), 5);
        assert_eq!(bs.frame_bytes(), geom.frame_bytes());
        assert_eq!(bs.n_frames(), img.frames_needed(geom));
        // frames decode back into the image
        let back = FunctionImage::decode_frames(bs.frames(), geom).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn compressed_is_smaller_for_sparse_frames() {
        let bs = sample(32, 256, 6);
        let raw = bs.encode(registry::codec(CodecId::Null, 256).as_ref());
        let rle = bs.encode(registry::codec(CodecId::Rle, 256).as_ref());
        assert!(
            rle.len() < raw.len() / 2,
            "rle {} raw {}",
            rle.len(),
            raw.len()
        );
    }
}
