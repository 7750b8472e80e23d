//! Function images: what a configured region's bits *mean*.
//!
//! A [`FunctionImage`] is the serialised form of one co-processor
//! function as it lives in configuration frames. It starts with a fixed
//! descriptor (magic, kind, algorithm id, I/O widths, body length,
//! integrity digest) followed by a body:
//!
//! * **Netlist images** carry a fully serialised LUT netlist. After
//!   configuration the device re-decodes the netlist *from the frame
//!   bytes* and evaluates it — the bits are the behaviour.
//! * **Behavioural images** carry kernel parameters (e.g. an AES key
//!   schedule or FIR coefficients) plus structured filler standing in
//!   for the real LUT/routing data of a large core. The descriptor's
//!   digest covers the whole image, so any frame corruption is detected before
//!   the kernel is dispatched.
//!
//! Images are frame-relocatable: they carry no absolute frame
//! addresses, so the mini-OS may place them in any — possibly
//! non-contiguous — set of free frames, exactly as §2.5 of the paper
//! requires.

use crate::digest::fnv1a64;
use crate::error::FabricError;
use crate::geometry::DeviceGeometry;
use crate::netlist::{bits_to_bytes, bytes_to_bits, Lut, NetId, Netlist};

/// Image magic bytes.
const MAGIC: [u8; 4] = *b"AAOD";
/// Image format version.
const VERSION: u8 = 1;
/// Fixed descriptor length in bytes.
pub const DESCRIPTOR_BYTES: usize = 40;

/// How a netlist image consumes input data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetlistMode {
    /// Blockwise: each `n_inputs/8`-byte chunk of input produces one
    /// `ceil(n_outputs/8)`-byte chunk of output.
    Combinational,
    /// Byte-streaming with feedback: inputs are `8 + n_outputs` bits
    /// (data byte + state); each byte updates the state; the final
    /// state is the output (CRC-style kernels).
    Streaming,
}

impl NetlistMode {
    fn to_byte(self) -> u8 {
        match self {
            NetlistMode::Combinational => 0,
            NetlistMode::Streaming => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, FabricError> {
        match b {
            0 => Ok(NetlistMode::Combinational),
            1 => Ok(NetlistMode::Streaming),
            other => Err(FabricError::ImageDecode(format!(
                "unknown netlist mode {other}"
            ))),
        }
    }
}

/// The decoded payload of a function image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FunctionKind {
    /// A true LUT netlist, evaluable from the configured bits.
    Netlist {
        /// The decoded netlist.
        netlist: Netlist,
        /// Input framing mode.
        mode: NetlistMode,
    },
    /// A behavioural kernel identified by the algorithm id, with its
    /// instantiation parameters.
    Behavioral {
        /// Kernel parameters (key schedule, coefficients, …).
        params: Vec<u8>,
    },
}

/// A function image: descriptor + body, convertible to and from the
/// frame bytes of a configured region.
///
/// # Examples
///
/// ```
/// use aaod_fabric::{DeviceGeometry, FunctionImage, NetlistBuilder, NetlistMode};
///
/// let mut b = NetlistBuilder::new();
/// let x = b.input();
/// let o = b.not(x);
/// b.output(o);
/// let image = FunctionImage::from_netlist(7, b.finish().unwrap(), NetlistMode::Combinational, 1, 1);
/// let geom = DeviceGeometry::new(8, 4);
/// let frames = image.encode(geom);
/// let back = FunctionImage::decode_frames(&frames, geom).unwrap();
/// assert_eq!(back.algo_id(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionImage {
    algo_id: u16,
    input_width: u16,
    output_width: u16,
    kind_byte: u8,
    body: Vec<u8>,
}

impl FunctionImage {
    /// Builds an image around a LUT netlist.
    ///
    /// `input_width` / `output_width` are the data-bus transfer widths
    /// in bytes recorded in the ROM function record (paper §2.2).
    pub fn from_netlist(
        algo_id: u16,
        netlist: Netlist,
        mode: NetlistMode,
        input_width: u16,
        output_width: u16,
    ) -> Self {
        let mut body = Vec::new();
        body.extend_from_slice(&(netlist.n_inputs() as u16).to_le_bytes());
        body.extend_from_slice(&(netlist.n_luts() as u16).to_le_bytes());
        body.extend_from_slice(&(netlist.n_outputs() as u16).to_le_bytes());
        body.push(mode.to_byte());
        body.push(0); // reserved
        for out in netlist.outputs() {
            body.extend_from_slice(&out.0.to_le_bytes());
        }
        for lut in netlist.luts() {
            body.extend_from_slice(&lut.truth.to_le_bytes());
            for inp in lut.inputs {
                body.extend_from_slice(&inp.0.to_le_bytes());
            }
        }
        FunctionImage {
            algo_id,
            input_width,
            output_width,
            kind_byte: 0,
            body,
        }
    }

    /// Builds a behavioural image: `params` instantiate the kernel,
    /// `filler` stands in for the core's LUT/routing configuration
    /// (its statistics drive compression results; its bytes are covered
    /// by the digest).
    pub fn from_behavioral(
        algo_id: u16,
        params: &[u8],
        filler: &[u8],
        input_width: u16,
        output_width: u16,
    ) -> Self {
        let mut body = Vec::with_capacity(2 + params.len() + filler.len());
        body.extend_from_slice(&(params.len() as u16).to_le_bytes());
        body.extend_from_slice(params);
        body.extend_from_slice(filler);
        FunctionImage {
            algo_id,
            input_width,
            output_width,
            kind_byte: 1,
            body,
        }
    }

    /// The algorithm identifier this image implements.
    pub fn algo_id(&self) -> u16 {
        self.algo_id
    }

    /// Data-input transfer width in bytes (paper §2.3: every transfer
    /// is a multiple of this).
    pub fn input_width(&self) -> u16 {
        self.input_width
    }

    /// Output transfer width in bytes.
    pub fn output_width(&self) -> u16 {
        self.output_width
    }

    /// Total serialised length (descriptor + body).
    pub fn total_bytes(&self) -> usize {
        DESCRIPTOR_BYTES + self.body.len()
    }

    /// Number of frames the image occupies under `geom`.
    pub fn frames_needed(&self, geom: DeviceGeometry) -> usize {
        geom.frames_for_bytes(self.total_bytes())
    }

    /// Serialises the image into a flat byte vector
    /// (descriptor + body, no frame padding).
    ///
    /// The digest at descriptor bytes 16..24 covers the *entire*
    /// image — descriptor fields and body — computed with the digest
    /// field itself zeroed, so corruption anywhere in the configured
    /// bytes is detectable.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_bytes());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.kind_byte);
        out.extend_from_slice(&self.algo_id.to_le_bytes());
        out.extend_from_slice(&self.input_width.to_le_bytes());
        out.extend_from_slice(&self.output_width.to_le_bytes());
        out.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        out.extend_from_slice(&[0u8; 8]); // digest placeholder
                                          // 24..40 reserved
        out.extend_from_slice(&[0u8; DESCRIPTOR_BYTES - 24]);
        out.extend_from_slice(&self.body);
        let digest = fnv1a64(&out);
        out[16..24].copy_from_slice(&digest.to_le_bytes());
        out
    }

    /// Serialises into frame-sized chunks for `geom`, zero-padding the
    /// last frame. These are the bytes written through the
    /// configuration port.
    pub fn encode(&self, geom: DeviceGeometry) -> Vec<Vec<u8>> {
        let flat = self.to_bytes();
        let fb = geom.frame_bytes();
        let n = geom.frames_for_bytes(flat.len());
        let mut frames = Vec::with_capacity(n);
        for i in 0..n {
            let start = i * fb;
            let end = (start + fb).min(flat.len());
            let mut frame = vec![0u8; fb];
            if start < flat.len() {
                frame[..end - start].copy_from_slice(&flat[start..end]);
            }
            frames.push(frame);
        }
        frames
    }

    /// Decodes an image from a flat byte buffer (the concatenated
    /// frames of a configured region).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::ImageDecode`] for malformed bytes and
    /// [`FabricError::DigestMismatch`] when the body digest does not
    /// match the descriptor — i.e. the configuration is corrupt or
    /// torn.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FabricError> {
        if data.len() < DESCRIPTOR_BYTES {
            return Err(FabricError::ImageDecode(format!(
                "{} bytes is shorter than the descriptor",
                data.len()
            )));
        }
        if data[0..4] != MAGIC {
            return Err(FabricError::ImageDecode("bad magic".into()));
        }
        if data[4] != VERSION {
            return Err(FabricError::ImageDecode(format!(
                "unsupported version {}",
                data[4]
            )));
        }
        let kind_byte = data[5];
        if kind_byte > 1 {
            return Err(FabricError::ImageDecode(format!(
                "unknown function kind {kind_byte}"
            )));
        }
        let algo_id = u16::from_le_bytes([data[6], data[7]]);
        let input_width = u16::from_le_bytes([data[8], data[9]]);
        let output_width = u16::from_le_bytes([data[10], data[11]]);
        let body_len = u32::from_le_bytes([data[12], data[13], data[14], data[15]]) as usize;
        let stored =
            u64::from_le_bytes(data[16..24].try_into().expect("slice length checked above"));
        let body_start = DESCRIPTOR_BYTES;
        if data.len() < body_start + body_len {
            return Err(FabricError::ImageDecode(format!(
                "body truncated: need {body_len} bytes, have {}",
                data.len() - body_start
            )));
        }
        let body = data[body_start..body_start + body_len].to_vec();
        // digest spans descriptor + body, with the digest field zeroed
        let mut hasher = crate::digest::Fnv1a::new();
        hasher.update(&data[..16]);
        hasher.update(&[0u8; 8]);
        hasher.update(&data[24..body_start + body_len]);
        let computed = hasher.finish();
        if computed != stored {
            return Err(FabricError::DigestMismatch { stored, computed });
        }
        Ok(FunctionImage {
            algo_id,
            input_width,
            output_width,
            kind_byte,
            body,
        })
    }

    /// Decodes an image from a set of frames in placement order.
    ///
    /// # Errors
    ///
    /// As [`FunctionImage::from_bytes`]; additionally returns
    /// [`FabricError::FrameSizeMismatch`] if any frame has the wrong
    /// length for `geom`.
    pub fn decode_frames(frames: &[Vec<u8>], geom: DeviceGeometry) -> Result<Self, FabricError> {
        let fb = geom.frame_bytes();
        let mut flat = Vec::with_capacity(frames.len() * fb);
        for frame in frames {
            if frame.len() != fb {
                return Err(FabricError::FrameSizeMismatch {
                    got: frame.len(),
                    expected: fb,
                });
            }
            flat.extend_from_slice(frame);
        }
        FunctionImage::from_bytes(&flat)
    }

    /// Decodes the payload into an executable [`FunctionKind`].
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::ImageDecode`] or
    /// [`FabricError::NetlistInvalid`] for malformed bodies.
    pub fn kind(&self) -> Result<FunctionKind, FabricError> {
        match self.kind_byte {
            0 => {
                let b = &self.body;
                if b.len() < 8 {
                    return Err(FabricError::ImageDecode("netlist header truncated".into()));
                }
                let n_inputs = u16::from_le_bytes([b[0], b[1]]);
                let n_luts = u16::from_le_bytes([b[2], b[3]]) as usize;
                let n_outputs = u16::from_le_bytes([b[4], b[5]]) as usize;
                let mode = NetlistMode::from_byte(b[6])?;
                let mut off = 8;
                let need = off + n_outputs * 2 + n_luts * 10;
                if b.len() < need {
                    return Err(FabricError::ImageDecode(format!(
                        "netlist body truncated: need {need} bytes, have {}",
                        b.len()
                    )));
                }
                let mut outputs = Vec::with_capacity(n_outputs);
                for _ in 0..n_outputs {
                    outputs.push(NetId(u16::from_le_bytes([b[off], b[off + 1]])));
                    off += 2;
                }
                let mut luts = Vec::with_capacity(n_luts);
                for _ in 0..n_luts {
                    let truth = u16::from_le_bytes([b[off], b[off + 1]]);
                    off += 2;
                    let mut inputs = [NetId::ZERO; 4];
                    for slot in &mut inputs {
                        *slot = NetId(u16::from_le_bytes([b[off], b[off + 1]]));
                        off += 2;
                    }
                    luts.push(Lut { inputs, truth });
                }
                let netlist = Netlist::from_parts(n_inputs, luts, outputs)?;
                Ok(FunctionKind::Netlist { netlist, mode })
            }
            1 => {
                let b = &self.body;
                if b.len() < 2 {
                    return Err(FabricError::ImageDecode("params header truncated".into()));
                }
                let plen = u16::from_le_bytes([b[0], b[1]]) as usize;
                if b.len() < 2 + plen {
                    return Err(FabricError::ImageDecode("params truncated".into()));
                }
                Ok(FunctionKind::Behavioral {
                    params: b[2..2 + plen].to_vec(),
                })
            }
            other => Err(FabricError::ImageDecode(format!(
                "unknown function kind {other}"
            ))),
        }
    }

    /// Executes a netlist image on `input`, returning the output bytes.
    ///
    /// For [`NetlistMode::Combinational`] the input is consumed in
    /// `n_inputs/8`-byte blocks (zero-padded at the tail); for
    /// [`NetlistMode::Streaming`] each byte updates an
    /// `n_outputs`-bit state initialised to zero, and the final state is
    /// returned.
    ///
    /// # Errors
    ///
    /// Propagates decoding errors from [`FunctionImage::kind`], and
    /// returns [`FabricError::ImageDecode`] if called on a behavioural
    /// image or the netlist's widths are inconsistent with its mode.
    pub fn run_netlist(&self, input: &[u8]) -> Result<Vec<u8>, FabricError> {
        let FunctionKind::Netlist { netlist, mode } = self.kind()? else {
            return Err(FabricError::ImageDecode(
                "run_netlist called on a behavioural image".into(),
            ));
        };
        run_decoded_netlist(&netlist, mode, input)
    }

    /// Executes a netlist image on a batch of independent inputs using
    /// the bit-sliced evaluator (64 lanes per netlist walk), returning
    /// one output vector per input.
    ///
    /// Byte-identical to mapping [`FunctionImage::run_netlist`] over
    /// `inputs`, but decodes the netlist from the frame bytes once for
    /// the whole batch and never materialises per-input `Vec<bool>`
    /// frames — bytes go straight into bit-slice lanes.
    ///
    /// # Errors
    ///
    /// As [`FunctionImage::run_netlist`].
    pub fn run_netlist_batch(&self, inputs: &[&[u8]]) -> Result<Vec<Vec<u8>>, FabricError> {
        let FunctionKind::Netlist { netlist, mode } = self.kind()? else {
            return Err(FabricError::ImageDecode(
                "run_netlist called on a behavioural image".into(),
            ));
        };
        let mut scratch = BatchScratch::default();
        run_decoded_netlist_batch(&netlist, mode, inputs, &mut scratch)
    }
}

/// Validates a decoded netlist's width contract for `mode` and returns
/// the per-transfer byte widths `(in_bytes, out_bytes)` (streaming
/// consumes one byte per step, so `in_bytes` is 1 there).
fn netlist_io_bytes(netlist: &Netlist, mode: NetlistMode) -> Result<(usize, usize), FabricError> {
    match mode {
        NetlistMode::Combinational => {
            if !netlist.n_inputs().is_multiple_of(8) || netlist.n_inputs() == 0 {
                return Err(FabricError::ImageDecode(format!(
                    "combinational netlist input width {} is not byte aligned",
                    netlist.n_inputs()
                )));
            }
            Ok((netlist.n_inputs() / 8, netlist.n_outputs().div_ceil(8)))
        }
        NetlistMode::Streaming => {
            let state_bits = netlist.n_outputs();
            if netlist.n_inputs() != 8 + state_bits {
                return Err(FabricError::ImageDecode(format!(
                    "streaming netlist must have 8+state inputs, has {} with {} outputs",
                    netlist.n_inputs(),
                    state_bits
                )));
            }
            Ok((1, state_bits.div_ceil(8)))
        }
    }
}

/// Scalar execution of an already-decoded netlist (the per-input
/// `Vec<bool>` walk). Callers holding a [`FunctionKind::Netlist`] can
/// use this to skip re-decoding the frame bytes per input; the batch
/// path ([`run_decoded_netlist_batch`]) is faster still.
pub fn run_decoded_netlist(
    netlist: &Netlist,
    mode: NetlistMode,
    input: &[u8],
) -> Result<Vec<u8>, FabricError> {
    let (in_bytes, _) = netlist_io_bytes(netlist, mode)?;
    match mode {
        NetlistMode::Combinational => {
            let out_bytes = netlist.n_outputs().div_ceil(8);
            let mut out = Vec::with_capacity(input.len().div_ceil(in_bytes) * out_bytes);
            for chunk in input.chunks(in_bytes) {
                let mut block = chunk.to_vec();
                block.resize(in_bytes, 0);
                let bits = bytes_to_bits(&block);
                out.extend_from_slice(&bits_to_bytes(&netlist.eval(&bits)));
            }
            Ok(out)
        }
        NetlistMode::Streaming => {
            let state_bits = netlist.n_outputs();
            let mut state = vec![false; state_bits];
            for &byte in input {
                let mut bits = bytes_to_bits(&[byte]);
                bits.extend_from_slice(&state);
                state = netlist.eval(&bits);
            }
            Ok(bits_to_bytes(&state))
        }
    }
}

/// Reusable word buffers for [`run_decoded_netlist_batch`]; keep one
/// per execution site so repeated batches stay off the allocator.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    in_words: Vec<u64>,
    out_words: Vec<u64>,
    nets: Vec<u64>,
}

/// Bit-sliced batch execution of an already-decoded netlist: 64
/// independent lanes per netlist walk, bytes transposed directly into
/// lane words (no intermediate `Vec<bool>`).
///
/// For [`NetlistMode::Combinational`] every `n_inputs/8`-byte block of
/// every input is an independent lane, so a single large input is also
/// sliced. For [`NetlistMode::Streaming`] each *input* is a lane
/// (feedback makes steps within one input sequential); lanes whose
/// input is exhausted are frozen by masking so short and long inputs
/// mix freely in one group.
///
/// # Errors
///
/// As [`FunctionImage::run_netlist`], with identical width validation.
pub fn run_decoded_netlist_batch(
    netlist: &Netlist,
    mode: NetlistMode,
    inputs: &[&[u8]],
    scratch: &mut BatchScratch,
) -> Result<Vec<Vec<u8>>, FabricError> {
    let (in_bytes, out_bytes) = netlist_io_bytes(netlist, mode)?;
    let n_in_bits = netlist.n_inputs();
    let n_out_bits = netlist.n_outputs();
    scratch.in_words.clear();
    scratch.in_words.resize(n_in_bits, 0);
    scratch.out_words.clear();
    scratch.out_words.resize(n_out_bits, 0);
    let in_words = &mut scratch.in_words;
    let out_words = &mut scratch.out_words;
    let nets = &mut scratch.nets;
    match mode {
        NetlistMode::Combinational => {
            let mut outs: Vec<Vec<u8>> = inputs
                .iter()
                .map(|inp| vec![0u8; inp.len().div_ceil(in_bytes) * out_bytes])
                .collect();
            // Every block of every input is one lane; walk them in
            // input-major order, 64 at a time.
            let mut lanes: Vec<(u32, u32)> = Vec::with_capacity(64);
            let flush = |lanes: &mut Vec<(u32, u32)>,
                         in_words: &mut Vec<u64>,
                         out_words: &mut Vec<u64>,
                         nets: &mut Vec<u64>,
                         outs: &mut Vec<Vec<u8>>| {
                if lanes.is_empty() {
                    return;
                }
                for (lane, &(ii, blk)) in lanes.iter().enumerate() {
                    let inp = inputs[ii as usize];
                    let start = blk as usize * in_bytes;
                    let end = (start + in_bytes).min(inp.len());
                    for (j, &byte) in inp[start..end].iter().enumerate() {
                        let mut bits = byte;
                        while bits != 0 {
                            let i = bits.trailing_zeros() as usize;
                            in_words[8 * j + i] |= 1u64 << lane;
                            bits &= bits - 1;
                        }
                    }
                }
                netlist.eval_words(in_words, out_words, nets);
                // Sparse scatter: walk only the set bits of each
                // output word instead of probing every lane. Unused
                // trailing lanes of a partial group are masked out —
                // a LUT may output 1 even for the all-zero input.
                let lane_mask = match lanes.len() {
                    64 => !0u64,
                    n => (1u64 << n) - 1,
                };
                for (k, w) in out_words.iter().enumerate() {
                    let mut set = *w & lane_mask;
                    while set != 0 {
                        let lane = set.trailing_zeros() as usize;
                        let (ii, blk) = lanes[lane];
                        outs[ii as usize][blk as usize * out_bytes + k / 8] |= 1 << (k % 8);
                        set &= set - 1;
                    }
                }
                lanes.clear();
                in_words.fill(0);
            };
            for (ii, inp) in inputs.iter().enumerate() {
                for blk in 0..inp.len().div_ceil(in_bytes) {
                    lanes.push((ii as u32, blk as u32));
                    if lanes.len() == 64 {
                        flush(&mut lanes, in_words, out_words, nets, &mut outs);
                    }
                }
            }
            flush(&mut lanes, in_words, out_words, nets, &mut outs);
            Ok(outs)
        }
        NetlistMode::Streaming => {
            let state_bits = n_out_bits;
            let mut outs: Vec<Vec<u8>> = Vec::with_capacity(inputs.len());
            let mut state_words = vec![0u64; state_bits];
            for group in inputs.chunks(64) {
                state_words.fill(0);
                let max_len = group.iter().map(|i| i.len()).max().unwrap_or(0);
                for t in 0..max_len {
                    in_words[..8].fill(0);
                    let mut active = 0u64;
                    for (lane, inp) in group.iter().enumerate() {
                        if let Some(&byte) = inp.get(t) {
                            active |= 1u64 << lane;
                            let mut bits = byte;
                            while bits != 0 {
                                let i = bits.trailing_zeros() as usize;
                                in_words[i] |= 1u64 << lane;
                                bits &= bits - 1;
                            }
                        }
                    }
                    in_words[8..].copy_from_slice(&state_words);
                    netlist.eval_words(in_words, out_words, nets);
                    // Lanes whose input already ended keep their final
                    // state; only active lanes advance.
                    for (s, w) in state_words.iter_mut().enumerate() {
                        *w = (out_words[s] & active) | (*w & !active);
                    }
                }
                for lane in 0..group.len() {
                    let mut bytes = vec![0u8; out_bytes];
                    for (k, w) in state_words.iter().enumerate() {
                        if (w >> lane) & 1 == 1 {
                            bytes[k / 8] |= 1 << (k % 8);
                        }
                    }
                    outs.push(bytes);
                }
            }
            Ok(outs)
        }
    }
}

/// Widest netlist a [`NetlistTable`] tabulates: `2^16` entries of at
/// most two bytes, 128 KiB, at most (64 KiB for 8 or fewer outputs).
const TABLE_MAX_INPUTS: usize = 16;
/// Most outputs a [`NetlistTable`] entry holds (two bytes).
const TABLE_MAX_OUTPUTS: usize = 16;
/// Widest netlist whose [`NetlistTable`] fills on first use: at most
/// four 64-entry blocks.
const EAGER_TABLE_INPUTS: usize = 8;

/// Lane masks for one table-filling [`Netlist::eval_words`] walk: lane
/// `L` carries pattern bit `i` exactly when bit `i` of `L` is set, so
/// the 64 lanes enumerate the low six bits of an aligned block.
const LANE_PATTERN_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Whether `lut` is affine over GF(2) on the patterns its constant
/// inputs leave reachable: an XOR of a subset of its other inputs,
/// possibly inverted. An input read twice is checked as two free
/// inputs, which can only reject a LUT, never accept a wrong one.
fn lut_is_affine(lut: &Lut) -> bool {
    let (mut fixed, mut live) = (0usize, 0usize);
    for (k, &net) in lut.inputs.iter().enumerate() {
        match net {
            NetId::ZERO => {}
            NetId::ONE => fixed |= 1 << k,
            _ => live |= 1 << k,
        }
    }
    let bit = |pattern: usize| (lut.truth >> pattern) & 1;
    let c = bit(fixed);
    (0..16usize).filter(|&p| p & !live == fixed).all(|p| {
        let linear = (0..4)
            .filter(|&k| (p & live) >> k & 1 == 1)
            .fold(c, |acc, k| acc ^ bit(fixed | 1 << k) ^ c);
        bit(p) == linear
    })
}

/// `M·v` over GF(2) for the matrix whose column `i` is `cols[i]`.
fn gf2_apply(cols: &[u8; 8], v: u8) -> u8 {
    (0..8)
        .filter(|&i| (v >> i) & 1 == 1)
        .fold(0, |acc, i| acc ^ cols[i])
}

/// The columns of `a·m`.
fn gf2_compose(a: &[u8; 8], m: &[u8; 8]) -> [u8; 8] {
    m.map(|col| gf2_apply(a, col))
}

/// The 256-entry map `v → M·v`, built from the 8 column images by XOR:
/// entry `v` is entry `v` without its lowest set bit, XOR that bit's
/// column.
fn gf2_map(cols: &[u8; 8]) -> [u8; 256] {
    let mut map = [0u8; 256];
    for v in 1..256usize {
        map[v] = map[v & (v - 1)] ^ cols[v.trailing_zeros() as usize];
    }
    map
}

/// A streaming step whose every LUT is affine, so that the whole step
/// is `step(s, b) = A·s ⊕ B·b ⊕ c` over GF(2) for a state `s` of at
/// most 8 bits and a data byte `b`. Affine maps compose, so eight
/// steps are `s₈ = A⁸·s ⊕ (A⁷·B·b₀ ⊕ … ⊕ A⁰·B·b₇ ⊕ c₈)`, one dependent
/// lookup per eight bytes. This is slicing-by-8 (Kounavis & Berry,
/// 2005) derived from the decoded netlist instead of from a polynomial.
/// The eleven maps take 2.75 KiB.
#[derive(Debug, Clone)]
struct AffineStep {
    /// `A·s`, `B·b` and `c`: one step, for the bytes after the last
    /// whole group of eight.
    s1: [u8; 256],
    d1: [u8; 256],
    c1: u8,
    /// `A⁸·s`, `A⁷⁻ⁱ·B·b` for byte `i` of a group of eight, and
    /// `step⁸(0, 0…0)`.
    s8: [u8; 256],
    d8: [[u8; 256]; 8],
    c8: u8,
}

impl AffineStep {
    /// The maps of `netlist`'s streaming step (8 data inputs, then
    /// `w ≤ 8` state inputs and `w` outputs), or `None` when that
    /// shape does not hold or a LUT is not affine. `A`, `B` and `c`
    /// come from one walk of the netlist: lane 0 is the zero pattern,
    /// lane `1 + i` the unit pattern of input `i`.
    fn derive(netlist: &Netlist) -> Option<Self> {
        let w = netlist.n_outputs();
        if w > 8 || netlist.n_inputs() != 8 + w || !netlist.luts().iter().all(lut_is_affine) {
            return None;
        }
        let in_words: Vec<u64> = (0..8 + w).map(|i| 1 << (1 + i)).collect();
        let mut out_words = vec![0u64; w];
        netlist.eval_words(&in_words, &mut out_words, &mut Vec::new());
        let lane = |l: usize| {
            out_words
                .iter()
                .enumerate()
                .fold(0u8, |acc, (k, word)| acc | (((word >> l) & 1) as u8) << k)
        };
        let c = lane(0);
        let b: [u8; 8] = std::array::from_fn(|i| lane(1 + i) ^ c);
        let a: [u8; 8] = std::array::from_fn(|j| if j < w { lane(9 + j) ^ c } else { 0 });
        // d[i] = A⁷⁻ⁱ·B, so d[7] = B and each earlier byte takes one
        // more A; A⁸ is A times A⁷
        let mut d = [b; 8];
        for i in (0..7).rev() {
            d[i] = gf2_compose(&a, &d[i + 1]);
        }
        let identity: [u8; 8] = std::array::from_fn(|j| 1 << j);
        let a8 = (0..8).fold(identity, |p, _| gf2_compose(&a, &p));
        Some(AffineStep {
            s1: gf2_map(&a),
            d1: gf2_map(&b),
            c1: c,
            s8: gf2_map(&a8),
            d8: d.map(|cols| gf2_map(&cols)),
            c8: (0..8).fold(0, |s, _| gf2_apply(&a, s) ^ c),
        })
    }

    /// The state after streaming `input` from state zero. Each group's
    /// data terms are XORed before the state term, so the chain that
    /// depends on the state is one lookup and one XOR per eight bytes.
    fn run(&self, input: &[u8]) -> u8 {
        let mut groups = input.chunks_exact(8);
        let mut s = 0u8;
        for group in &mut groups {
            let d = group
                .iter()
                .zip(&self.d8)
                .fold(self.c8, |d, (&byte, map)| d ^ map[byte as usize]);
            s = self.s8[s as usize] ^ d;
        }
        groups.remainder().iter().fold(s, |s, &byte| {
            self.s1[s as usize] ^ self.d1[byte as usize] ^ self.c1
        })
    }
}

/// A decoded netlist with a lazily filled truth table,
/// `input pattern → output pattern`, for netlists of at most 16 inputs
/// and 16 outputs.
///
/// Input bit `i` of a pattern is netlist input `i`, and output bit `k`
/// of an entry is output `k`. A missing entry fills its whole aligned
/// 64-entry block with one bit-sliced walk of the netlist, so every
/// entry is still computed LUT by LUT from the decoded bits; the table
/// only spares re-walking a pattern it has seen. A table of at most 8
/// inputs (four blocks) fills every block on first use instead, so a
/// combinational input byte with a one-byte entry is read straight
/// (POPCNT8, PARITY8). Storage is
/// `2^n_inputs` entries of `n_outputs.div_ceil(8)` bytes each, little
/// endian in one strided byte array allocated on the first fill, plus
/// one "filled" bit per block.
///
/// A streaming step whose every LUT is affine over GF(2) (CRC-8's)
/// never touches the table: when the table is built it derives
/// 256-entry maps of the step and of eight steps at once from one walk
/// of the netlist, and streaming inputs then run eight bytes per
/// dependent lookup (see [`NetlistTable::affine`]). Any other
/// streaming step is one lookup of `byte | state << 8` per byte.
///
/// The table is a pure function of the netlist's value: it stays valid
/// for any netlist `==` to [`NetlistTable::netlist`], whichever frames
/// that netlist was decoded from.
///
/// # Examples
///
/// ```
/// use aaod_fabric::{run_decoded_netlist, NetlistBuilder, NetlistMode, NetlistTable};
///
/// let mut b = NetlistBuilder::new();
/// let data = b.inputs(8);
/// let state = b.inputs(8);
/// let next = b.xor_vec(&data, &state);
/// b.output_vec(&next);
/// let netlist = b.finish().unwrap();
/// let mut table = NetlistTable::new(netlist.clone()).expect("16 inputs fit");
/// let input: &[u8] = &[0xA5, 0x5A, 0xFF];
/// let out = table.run_batch(NetlistMode::Streaming, &[input]).unwrap();
/// assert_eq!(out[0], run_decoded_netlist(&netlist, NetlistMode::Streaming, input).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct NetlistTable {
    netlist: Netlist,
    /// Entry `p` is `entries[p * entry_bytes..][..entry_bytes]`.
    entries: Vec<u8>,
    entry_bytes: usize,
    filled: Vec<u64>,
    /// The maps of an affine streaming step, which streaming inputs run
    /// from instead of the table.
    affine: Option<Box<AffineStep>>,
    in_words: Vec<u64>,
    out_words: Vec<u64>,
    nets: Vec<u64>,
}

impl NetlistTable {
    /// An empty table for `netlist`, or `None` when the netlist has
    /// more than 16 inputs or more than 16 outputs.
    pub fn new(netlist: Netlist) -> Option<Self> {
        if netlist.n_inputs() > TABLE_MAX_INPUTS || netlist.n_outputs() > TABLE_MAX_OUTPUTS {
            return None;
        }
        let n_entries = 1usize << netlist.n_inputs();
        Some(NetlistTable {
            entries: Vec::new(),
            entry_bytes: netlist.n_outputs().div_ceil(8),
            filled: vec![0; n_entries.div_ceil(64).div_ceil(64)],
            affine: AffineStep::derive(&netlist).map(Box::new),
            in_words: vec![0; netlist.n_inputs()],
            out_words: vec![0; netlist.n_outputs()],
            nets: Vec::new(),
            netlist,
        })
    }

    /// The netlist this table tabulates.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// How many 64-entry blocks have been filled so far.
    pub fn filled_blocks(&self) -> usize {
        self.filled.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether streaming inputs run from the affine step's maps: the
    /// netlist has 8 data and `w ≤ 8` state inputs, `w` outputs, and
    /// every LUT is affine.
    pub fn affine(&self) -> bool {
        self.affine.is_some()
    }

    /// The output pattern of `pattern`, filling its block on first use.
    #[inline]
    fn lookup(&mut self, pattern: usize) -> u16 {
        let block = pattern >> 6;
        if (self.filled[block >> 6] >> (block & 63)) & 1 == 0 {
            self.fill(block);
        }
        // a netlist has 1..=16 outputs, so an entry is one or two bytes
        if self.entry_bytes == 1 {
            self.entries[pattern] as u16
        } else {
            u16::from_le_bytes([self.entries[2 * pattern], self.entries[2 * pattern + 1]])
        }
    }

    /// Evaluates the 64 patterns of `block` in one walk: the low six
    /// bits come from [`LANE_PATTERN_MASKS`], the high bits are
    /// broadcast. A table of fewer than 64 entries writes only those.
    #[cold]
    fn fill(&mut self, block: usize) {
        if self.entries.is_empty() {
            self.entries = vec![0; (1 << self.netlist.n_inputs()) * self.entry_bytes];
        }
        let base = block << 6;
        for (i, w) in self.in_words.iter_mut().enumerate() {
            *w = match LANE_PATTERN_MASKS.get(i) {
                Some(&mask) => mask,
                None => 0u64.wrapping_sub(((base >> i) & 1) as u64),
            };
        }
        self.netlist
            .eval_words(&self.in_words, &mut self.out_words, &mut self.nets);
        let width = self.entry_bytes;
        let lanes = (1usize << self.netlist.n_inputs()).min(64);
        for lane in 0..lanes {
            let entry = self
                .out_words
                .iter()
                .enumerate()
                .fold(0u16, |acc, (k, w)| acc | (((w >> lane) & 1) as u16) << k);
            let at = (base + lane) * width;
            self.entries[at..at + width].copy_from_slice(&entry.to_le_bytes()[..width]);
        }
        self.filled[block >> 6] |= 1 << (block & 63);
    }

    /// Executes the tabulated netlist on a batch of inputs, one output
    /// vector per input, byte-identical to [`run_decoded_netlist`] on
    /// each. A combinational block is one lookup of its little-endian
    /// bytes (zero-padded at the tail). A streaming input runs eight
    /// bytes per dependent lookup when the step is affine, else one
    /// lookup of `byte | state << 8` per byte.
    ///
    /// # Errors
    ///
    /// As [`run_decoded_netlist_batch`], with identical width
    /// validation.
    pub fn run_batch(
        &mut self,
        mode: NetlistMode,
        inputs: &[&[u8]],
    ) -> Result<Vec<Vec<u8>>, FabricError> {
        let (in_bytes, out_bytes) = netlist_io_bytes(&self.netlist, mode)?;
        if let (NetlistMode::Streaming, Some(step)) = (mode, &self.affine) {
            return Ok(inputs.iter().map(|input| vec![step.run(input)]).collect());
        }
        let eager = self.netlist.n_inputs() <= EAGER_TABLE_INPUTS;
        if eager {
            let n_blocks = (1usize << self.netlist.n_inputs()).div_ceil(64);
            for block in 0..n_blocks {
                if (self.filled[0] >> block) & 1 == 0 {
                    self.fill(block);
                }
            }
        }
        Ok(inputs
            .iter()
            .map(|input| match mode {
                // an eager table's combinational input is one byte per
                // block, and every entry is filled
                NetlistMode::Combinational if eager && out_bytes == 1 => {
                    input.iter().map(|&b| self.entries[b as usize]).collect()
                }
                NetlistMode::Combinational => {
                    let mut out = vec![0u8; input.len().div_ceil(in_bytes) * out_bytes];
                    for (block, dst) in input.chunks(in_bytes).zip(out.chunks_exact_mut(out_bytes))
                    {
                        let pattern = block
                            .iter()
                            .rev()
                            .fold(0usize, |acc, &b| acc << 8 | b as usize);
                        dst.copy_from_slice(&self.lookup(pattern).to_le_bytes()[..out_bytes]);
                    }
                    out
                }
                NetlistMode::Streaming => {
                    let state = input.iter().fold(0u16, |state, &byte| {
                        self.lookup(byte as usize | (state as usize) << 8)
                    });
                    state.to_le_bytes()[..out_bytes].to_vec()
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn tiny_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(8);
        let outs: Vec<_> = {
            let mut v = Vec::new();
            for &i in &ins {
                v.push(i);
            }
            v
        };
        // identity byte with one inverted bit to make it non-trivial
        let inv = b.not(outs[0]);
        b.output(inv);
        b.output_vec(&outs[1..]);
        b.finish().unwrap()
    }

    #[test]
    fn netlist_image_roundtrip() {
        let nl = tiny_netlist();
        let img = FunctionImage::from_netlist(42, nl.clone(), NetlistMode::Combinational, 1, 1);
        let geom = DeviceGeometry::new(16, 2);
        let frames = img.encode(geom);
        assert_eq!(frames.len(), img.frames_needed(geom));
        let back = FunctionImage::decode_frames(&frames, geom).unwrap();
        assert_eq!(back, img);
        match back.kind().unwrap() {
            FunctionKind::Netlist { netlist, mode } => {
                assert_eq!(netlist, nl);
                assert_eq!(mode, NetlistMode::Combinational);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn behavioral_image_roundtrip() {
        let img = FunctionImage::from_behavioral(9, &[1, 2, 3], &[0u8; 500], 16, 16);
        let geom = DeviceGeometry::new(16, 2);
        let back = FunctionImage::decode_frames(&img.encode(geom), geom).unwrap();
        assert_eq!(back.algo_id(), 9);
        assert_eq!(back.input_width(), 16);
        match back.kind().unwrap() {
            FunctionKind::Behavioral { params } => assert_eq!(params, vec![1, 2, 3]),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn corruption_is_detected() {
        let img = FunctionImage::from_behavioral(9, &[7; 10], &[0xAB; 300], 8, 8);
        let geom = DeviceGeometry::new(16, 2);
        let mut frames = img.encode(geom);
        // flip one byte in the body region of the second frame
        let fb = geom.frame_bytes();
        assert!(frames.len() >= 2, "image should span multiple frames");
        frames[1][fb / 2] ^= 0x01;
        let err = FunctionImage::decode_frames(&frames, geom).unwrap_err();
        assert!(matches!(err, FabricError::DigestMismatch { .. }), "{err}");
    }

    #[test]
    fn truncated_descriptor_rejected() {
        let err = FunctionImage::from_bytes(&[0u8; 10]).unwrap_err();
        assert!(matches!(err, FabricError::ImageDecode(_)));
    }

    #[test]
    fn bad_magic_rejected() {
        let img = FunctionImage::from_behavioral(1, &[], &[], 1, 1);
        let mut bytes = img.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            FunctionImage::from_bytes(&bytes).unwrap_err(),
            FabricError::ImageDecode(_)
        ));
    }

    #[test]
    fn combinational_execution_from_decoded_bits() {
        let nl = tiny_netlist();
        let img = FunctionImage::from_netlist(1, nl, NetlistMode::Combinational, 1, 1);
        let geom = DeviceGeometry::new(16, 2);
        let back = FunctionImage::decode_frames(&img.encode(geom), geom).unwrap();
        // function inverts bit 0 of each byte
        let out = back.run_netlist(&[0x00, 0xFF, 0x10]).unwrap();
        assert_eq!(out, vec![0x01, 0xFE, 0x11]);
    }

    #[test]
    fn streaming_execution_xors_bytes() {
        // 8-bit running XOR: state' = byte ^ state
        let mut b = NetlistBuilder::new();
        let data = b.inputs(8);
        let state = b.inputs(8);
        let next = b.xor_vec(&data, &state);
        b.output_vec(&next);
        let img = FunctionImage::from_netlist(2, b.finish().unwrap(), NetlistMode::Streaming, 1, 1);
        let out = img.run_netlist(&[0xA5, 0x5A, 0xFF]).unwrap();
        assert_eq!(out, vec![0xA5 ^ 0x5A ^ 0xFF]);
    }

    #[test]
    fn run_netlist_on_behavioral_errors() {
        let img = FunctionImage::from_behavioral(1, &[], &[], 1, 1);
        assert!(img.run_netlist(&[1]).is_err());
        assert!(img.run_netlist_batch(&[&[1]]).is_err());
    }

    #[test]
    fn batch_combinational_matches_scalar() {
        let nl = tiny_netlist();
        let img = FunctionImage::from_netlist(1, nl, NetlistMode::Combinational, 1, 1);
        // Mixed lengths, including empty, and enough blocks to spill
        // past one 64-lane group.
        let long: Vec<u8> = (0..200u16).map(|v| (v * 7) as u8).collect();
        let inputs: Vec<&[u8]> = vec![&[0x00, 0xFF, 0x10], &[], &long, &[0xA5]];
        let batch = img.run_netlist_batch(&inputs).unwrap();
        assert_eq!(batch.len(), inputs.len());
        for (inp, got) in inputs.iter().zip(&batch) {
            assert_eq!(*got, img.run_netlist(inp).unwrap());
        }
    }

    #[test]
    fn batch_streaming_matches_scalar_mixed_lengths() {
        let mut b = NetlistBuilder::new();
        let data = b.inputs(8);
        let state = b.inputs(8);
        let next = b.xor_vec(&data, &state);
        b.output_vec(&next);
        let img = FunctionImage::from_netlist(2, b.finish().unwrap(), NetlistMode::Streaming, 1, 1);
        let long: Vec<u8> = (0..300u16).map(|v| (v * 13 + 1) as u8).collect();
        let inputs: Vec<&[u8]> = vec![&[0xA5, 0x5A, 0xFF], &[], &long, &[0x01], &[0x80, 0x80]];
        let batch = img.run_netlist_batch(&inputs).unwrap();
        for (inp, got) in inputs.iter().zip(&batch) {
            assert_eq!(*got, img.run_netlist(inp).unwrap());
        }
    }

    #[test]
    fn batch_streaming_many_lanes() {
        // 70 lanes exercises the second streaming lane group.
        let mut b = NetlistBuilder::new();
        let data = b.inputs(8);
        let state = b.inputs(8);
        let next = b.xor_vec(&data, &state);
        b.output_vec(&next);
        let img = FunctionImage::from_netlist(2, b.finish().unwrap(), NetlistMode::Streaming, 1, 1);
        let owned: Vec<Vec<u8>> = (0..70u8).map(|v| vec![v, v ^ 0x3C, 0x11]).collect();
        let inputs: Vec<&[u8]> = owned.iter().map(|v| v.as_slice()).collect();
        let batch = img.run_netlist_batch(&inputs).unwrap();
        for (inp, got) in inputs.iter().zip(&batch) {
            assert_eq!(*got, img.run_netlist(inp).unwrap());
        }
    }

    #[test]
    fn decoded_scalar_helper_matches_method() {
        let nl = tiny_netlist();
        let img = FunctionImage::from_netlist(1, nl.clone(), NetlistMode::Combinational, 1, 1);
        let out = run_decoded_netlist(&nl, NetlistMode::Combinational, &[0x42, 0x99]).unwrap();
        assert_eq!(out, img.run_netlist(&[0x42, 0x99]).unwrap());
    }

    #[test]
    fn table_lookup_matches_eval_at_every_width() {
        // Every input width 0..=16, so tables smaller than one 64-entry
        // block are covered; every pattern up to 10 inputs, a seeded
        // sample above that.
        for n_inputs in 0..=TABLE_MAX_INPUTS {
            let mut rng = aaod_sim::SplitMix64::new(0x7ab1e + n_inputs as u64);
            let mut b = NetlistBuilder::new();
            let mut nets = vec![b.zero(), b.one()];
            nets.extend(b.inputs(n_inputs));
            for _ in 0..1 + rng.index(40) {
                let ins = [0; 4].map(|_| nets[rng.index(nets.len())]);
                let out = b.lut4(rng.next_u64() as u16, ins);
                nets.push(out);
            }
            for _ in 0..1 + rng.index(TABLE_MAX_OUTPUTS) {
                b.output(nets[rng.index(nets.len())]);
            }
            let nl = b.finish().unwrap();
            let mut table = NetlistTable::new(nl.clone()).expect("width fits");
            let n_entries = 1usize << n_inputs;
            let patterns: Vec<usize> = if n_inputs <= 10 {
                (0..n_entries).collect()
            } else {
                (0..2000).map(|_| rng.index(n_entries)).collect()
            };
            for p in patterns {
                let bits: Vec<bool> = (0..n_inputs).map(|i| (p >> i) & 1 == 1).collect();
                let want = nl
                    .eval(&bits)
                    .iter()
                    .enumerate()
                    .fold(0u16, |acc, (k, &o)| acc | (o as u16) << k);
                assert_eq!(table.lookup(p), want, "{n_inputs} inputs, pattern {p:#x}");
            }
        }
    }

    #[test]
    fn table_entries_are_as_wide_as_their_outputs() {
        for (n_outputs, width) in [(4, 1), (8, 1), (9, 2), (16, 2)] {
            let mut b = NetlistBuilder::new();
            let ins = b.inputs(8);
            for k in 0..n_outputs {
                b.output(ins[k % 8]);
            }
            let mut table = NetlistTable::new(b.finish().unwrap()).expect("width fits");
            assert!(table.entries.is_empty(), "allocated before the first fill");
            table.fill(0);
            assert_eq!(table.entry_bytes, width, "{n_outputs} outputs");
            assert_eq!(table.entries.len(), 256 * width, "{n_outputs} outputs");
        }
    }

    #[test]
    fn table_refuses_netlists_wider_than_sixteen() {
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(TABLE_MAX_INPUTS + 1);
        b.output(ins[0]);
        assert!(NetlistTable::new(b.finish().unwrap()).is_none());
        let mut b = NetlistBuilder::new();
        let x = b.input();
        for _ in 0..=TABLE_MAX_OUTPUTS {
            b.output(x);
        }
        assert!(NetlistTable::new(b.finish().unwrap()).is_none());
    }

    #[test]
    fn frame_size_mismatch_detected() {
        let img = FunctionImage::from_behavioral(1, &[], &[0; 100], 1, 1);
        let geom = DeviceGeometry::new(16, 2);
        let mut frames = img.encode(geom);
        frames[0].pop();
        assert!(matches!(
            FunctionImage::decode_frames(&frames, geom).unwrap_err(),
            FabricError::FrameSizeMismatch { .. }
        ));
    }

    #[test]
    fn trailing_frame_padding_is_ignored() {
        // Padding after the body must not affect decode (frames are
        // zero-padded to frame size).
        let img = FunctionImage::from_behavioral(3, &[9], &[1, 2, 3], 4, 4);
        let geom = DeviceGeometry::new(4, 4);
        let mut frames = img.encode(geom);
        // corrupt a byte beyond descriptor+body in the last frame: harmless
        let total = img.total_bytes();
        let fb = geom.frame_bytes();
        let pad_offset = total % fb;
        if pad_offset != 0 {
            let last = frames.len() - 1;
            frames[last][pad_offset] = 0xEE;
            let back = FunctionImage::decode_frames(&frames, geom).unwrap();
            assert_eq!(back.algo_id(), 3);
        }
    }
}
