//! The configuration module (paper §2.3).
//!
//! "The configuration module decompresses the compressed bit-stream
//! window by window and passes the configuration bit-stream to the
//! FPGA to configure it." [`ConfigModule`] does exactly that: it holds
//! a fixed decompression window buffer, pulls windows from the codec's
//! streaming decoder, assembles them into whole frames, and writes each
//! completed frame through the [`ConfigPort`] to its assigned (possibly
//! non-contiguous) frame address.
//!
//! The window size bounds on-card buffer memory; experiment E8 sweeps
//! it to expose the window/latency trade-off.

use crate::error::McuError;
use aaod_bitstream::canon::decanon_frame;
use aaod_bitstream::codec::deltav2::DeltaV2Reader;
use aaod_bitstream::codec::CodecId;
use aaod_bitstream::crc::crc32;
use aaod_bitstream::{BitstreamError, BitstreamHeader, FrameKey, FrameStore, HEADER_BYTES};
use aaod_fabric::{ConfigPort, Device, FrameAddress};
use aaod_sim::{Clock, SimTime};
use std::sync::Arc;

/// Fixed per-window management overhead (buffer pointer updates,
/// handshake with the port) in microcontroller cycles.
const WINDOW_OVERHEAD_CYCLES: u64 = 20;

/// Cycles per byte to serve a frame from the content-addressed store
/// (a RAM copy plus the CRC guard) — cheaper than any decompressor.
const STORE_HIT_CYCLES_PER_BYTE: u64 = 1;

/// Timing breakdown of one configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfigReport {
    /// Time spent decompressing (microcontroller domain).
    pub decompress_time: SimTime,
    /// Time spent shifting frames through the configuration port.
    pub port_time: SimTime,
    /// Number of decompression windows pulled.
    pub windows: u64,
    /// Frames written.
    pub frames_written: usize,
    /// Decompressed bytes produced.
    pub bytes: usize,
}

impl ConfigReport {
    /// Total configuration time.
    pub fn total(&self) -> SimTime {
        self.decompress_time + self.port_time
    }
}

/// The windowed decompress-and-configure engine.
///
/// The window and frame-assembly buffers live in the module (as the
/// paper's fixed on-card buffer does) and are reused across
/// configurations, so the reconfiguration hot path performs no
/// per-call buffer allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigModule {
    window: usize,
    clock: Clock,
    /// Reusable decompression window (exactly `window` bytes).
    window_buf: Vec<u8>,
    /// Reusable frame-assembly buffer (grows to one frame).
    frame_buf: Vec<u8>,
}

impl ConfigModule {
    /// Creates a module with a `window`-byte decompression buffer.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize, clock: Clock) -> Self {
        assert!(window > 0, "window must be non-zero");
        ConfigModule {
            window,
            clock,
            window_buf: vec![0u8; window],
            frame_buf: Vec::new(),
        }
    }

    /// The window buffer size in bytes.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Decompresses `encoded` (header + payload, as stored in ROM) and
    /// configures `device` at `addrs` through `port`.
    ///
    /// `addrs` must supply exactly the number of frames the header
    /// declares; frames are written in order as they complete, so a
    /// failure mid-stream leaves a *torn* configuration — which the
    /// image digest will catch at execution time, exactly the hazard
    /// the digest exists for.
    ///
    /// # Errors
    ///
    /// Returns header/CRC/codec errors from the bitstream layer,
    /// [`McuError::RecordMismatch`] if `addrs` disagrees with the
    /// header's frame count, and fabric errors from the port writes.
    pub fn configure(
        &mut self,
        encoded: &[u8],
        device: &mut Device,
        port: &ConfigPort,
        addrs: &[FrameAddress],
    ) -> Result<ConfigReport, McuError> {
        self.configure_inner(encoded, device, port, addrs, false)
            .map(|(report, _)| report)
    }

    /// As [`ConfigModule::configure`], but also returns the decoded
    /// frames so the caller can retain them (the decoded-bitstream
    /// cache does).
    ///
    /// # Errors
    ///
    /// As [`ConfigModule::configure`].
    pub fn configure_collect(
        &mut self,
        encoded: &[u8],
        device: &mut Device,
        port: &ConfigPort,
        addrs: &[FrameAddress],
    ) -> Result<(ConfigReport, Vec<Vec<u8>>), McuError> {
        self.configure_inner(encoded, device, port, addrs, true)
    }

    /// Configures `device` at `addrs` from already-decoded `frames`
    /// (a decoded-bitstream cache hit): no ROM fetch and no
    /// decompression happen, so the report carries configuration-port
    /// time only.
    ///
    /// # Errors
    ///
    /// Returns [`McuError::RecordMismatch`] if the frame count or any
    /// frame's size disagrees with `addrs`/the device geometry, and
    /// fabric errors from the port writes.
    pub fn configure_decoded(
        &self,
        frames: &[Vec<u8>],
        device: &mut Device,
        port: &ConfigPort,
        addrs: &[FrameAddress],
    ) -> Result<ConfigReport, McuError> {
        if addrs.len() != frames.len() {
            return Err(McuError::RecordMismatch(format!(
                "{} frame addresses supplied for {} decoded frames",
                addrs.len(),
                frames.len()
            )));
        }
        let frame_bytes = device.geometry().frame_bytes();
        let mut report = ConfigReport::default();
        for (frame, &addr) in frames.iter().zip(addrs) {
            if frame.len() != frame_bytes {
                return Err(McuError::RecordMismatch(format!(
                    "decoded frame size {} != device frame size {frame_bytes}",
                    frame.len()
                )));
            }
            report.port_time += port.write_frame(device, addr, frame)?;
            report.frames_written += 1;
            report.bytes += frame.len();
        }
        Ok(report)
    }

    /// Configures from a DeltaV2 bitstream through the
    /// content-addressed frame `store` (the v2 partial-reconfig miss
    /// path): each frame record's store hint is probed first — an
    /// exact-content hit serves the resident bytes, a canonical-class
    /// hit rebuilds them via the recorded inverse permutation — and
    /// only missing frames are decoded. Every served frame is
    /// CRC-guarded against the record's hint, so a store hit is always
    /// byte-equal to a full decode; decoded frames are inserted for
    /// future bitstreams. Returns the decoded frames alongside the
    /// report, as [`ConfigModule::configure_collect`] does.
    ///
    /// Timing: store-served bytes cost `STORE_HIT_CYCLES_PER_BYTE`,
    /// decoded bytes the codec's per-byte rate; each frame counts as
    /// one window.
    ///
    /// # Errors
    ///
    /// Returns header/CRC/codec errors from the bitstream layer,
    /// [`McuError::RecordMismatch`] if the bitstream is not DeltaV2 or
    /// disagrees with `addrs`/the device geometry, and fabric errors
    /// from the port writes.
    pub fn configure_v2(
        &mut self,
        encoded: &[u8],
        store: &mut FrameStore,
        device: &mut Device,
        port: &ConfigPort,
        addrs: &[FrameAddress],
    ) -> Result<(ConfigReport, Vec<Vec<u8>>), McuError> {
        let header = BitstreamHeader::parse(encoded)?;
        let payload = &encoded[HEADER_BYTES..];
        header.verify_payload(payload)?;
        if header.codec != CodecId::DeltaV2 {
            return Err(McuError::RecordMismatch(format!(
                "configure_v2 on a {} bitstream",
                header.codec
            )));
        }
        if addrs.len() != header.n_frames as usize {
            return Err(McuError::RecordMismatch(format!(
                "{} frame addresses supplied for a {}-frame bitstream",
                addrs.len(),
                header.n_frames
            )));
        }
        let frame_bytes = header.frame_bytes as usize;
        if frame_bytes != device.geometry().frame_bytes() {
            return Err(McuError::RecordMismatch(format!(
                "bitstream frame size {} != device frame size {}",
                frame_bytes,
                device.geometry().frame_bytes()
            )));
        }
        let decode_cost = header.make_codec().cycles_per_output_byte();
        let mut reader = DeltaV2Reader::new(frame_bytes, payload)?;
        if reader.total_len() != addrs.len() * frame_bytes {
            return Err(McuError::Bitstream(BitstreamError::CorruptPayload(
                format!(
                    "delta-v2 stream declares {} bytes for {} frames of {frame_bytes}",
                    reader.total_len(),
                    addrs.len()
                ),
            )));
        }
        let mut report = ConfigReport::default();
        let mut collected: Vec<Vec<u8>> = Vec::with_capacity(addrs.len());
        let mut decompress_cycles = 0u64;
        let mut next_frame = 0usize;
        while let Some(record) = reader.next_record()? {
            // probe the store before spending decompressor cycles; the
            // CRC guard turns any hash mismatch into a plain decode
            let mut served: Option<Arc<Vec<u8>>> = None;
            if let Some(hint) = record.hint.filter(|_| store.is_enabled()) {
                let key = FrameKey {
                    canon: hint.canon_hash,
                    raw: hint.raw_hash,
                };
                if store.contains(key) {
                    let frame = store.get_raw(key).expect("contains checked");
                    if frame.len() == record.expected_len && crc32(&frame) == hint.frame_crc {
                        served = Some(frame);
                    }
                } else if let Some(canonical) = store.get_canon(hint.canon_hash) {
                    let frame = decanon_frame(&canonical, hint.perm);
                    if frame.len() == record.expected_len && crc32(&frame) == hint.frame_crc {
                        served = Some(Arc::new(frame));
                    }
                }
            }
            let frame = match served {
                Some(frame) => {
                    decompress_cycles += STORE_HIT_CYCLES_PER_BYTE * frame.len() as u64;
                    reader.accept_frame(&record, Arc::clone(&frame))?;
                    frame
                }
                None => {
                    let frame = reader.decode_record(&record)?;
                    decompress_cycles += decode_cost * frame.len() as u64;
                    store.insert(&frame);
                    frame
                }
            };
            report.windows += 1;
            report.bytes += frame.len();
            report.port_time += port.write_frame(device, addrs[next_frame], &frame)?;
            collected.push(frame.as_ref().clone());
            next_frame += 1;
        }
        decompress_cycles += WINDOW_OVERHEAD_CYCLES * report.windows;
        report.decompress_time = self.clock.cycles(decompress_cycles);
        report.frames_written = next_frame;
        Ok((report, collected))
    }

    fn configure_inner(
        &mut self,
        encoded: &[u8],
        device: &mut Device,
        port: &ConfigPort,
        addrs: &[FrameAddress],
        collect: bool,
    ) -> Result<(ConfigReport, Vec<Vec<u8>>), McuError> {
        let header = BitstreamHeader::parse(encoded)?;
        let payload = &encoded[HEADER_BYTES..];
        header.verify_payload(payload)?;
        if addrs.len() != header.n_frames as usize {
            return Err(McuError::RecordMismatch(format!(
                "{} frame addresses supplied for a {}-frame bitstream",
                addrs.len(),
                header.n_frames
            )));
        }
        let frame_bytes = header.frame_bytes as usize;
        if frame_bytes != device.geometry().frame_bytes() {
            return Err(McuError::RecordMismatch(format!(
                "bitstream frame size {} != device frame size {}",
                frame_bytes,
                device.geometry().frame_bytes()
            )));
        }
        let codec = header.make_codec();
        let mut decoder = codec.decompressor(payload);
        let window_buf = &mut self.window_buf;
        let frame_buf = &mut self.frame_buf;
        frame_buf.clear();
        frame_buf.reserve(frame_bytes);
        let mut report = ConfigReport::default();
        let mut next_frame = 0usize;
        let mut collected: Vec<Vec<u8>> = Vec::new();

        loop {
            let n = decoder.read(window_buf)?;
            if n == 0 {
                break;
            }
            report.windows += 1;
            report.bytes += n;
            let mut off = 0;
            while off < n {
                let take = (frame_bytes - frame_buf.len()).min(n - off);
                frame_buf.extend_from_slice(&window_buf[off..off + take]);
                off += take;
                if frame_buf.len() == frame_bytes {
                    if next_frame >= addrs.len() {
                        return Err(McuError::Bitstream(BitstreamError::CorruptPayload(
                            "payload expands past the declared frame count".into(),
                        )));
                    }
                    report.port_time += port.write_frame(device, addrs[next_frame], frame_buf)?;
                    if collect {
                        collected.push(frame_buf.clone());
                    }
                    next_frame += 1;
                    frame_buf.clear();
                }
            }
        }
        if !frame_buf.is_empty() || next_frame != addrs.len() {
            return Err(McuError::Bitstream(BitstreamError::CorruptPayload(
                format!(
                    "payload ended after {next_frame} frames + {} bytes, expected {} frames",
                    frame_buf.len(),
                    addrs.len()
                ),
            )));
        }
        let decompress_cycles = codec.cycles_per_output_byte() * report.bytes as u64
            + WINDOW_OVERHEAD_CYCLES * report.windows;
        report.decompress_time = self.clock.cycles(decompress_cycles);
        report.frames_written = next_frame;
        Ok((report, collected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_bitstream::codec::{registry, CodecId};
    use aaod_bitstream::Bitstream;
    use aaod_fabric::{DeviceGeometry, FunctionImage};

    fn setup() -> (DeviceGeometry, Device, ConfigPort, Vec<u8>, usize) {
        let geom = DeviceGeometry::new(16, 2);
        let device = Device::new(geom);
        let port = ConfigPort::selectmap8();
        let image = FunctionImage::from_behavioral(3, &[9, 9], &[0x5A; 300], 8, 8);
        let n = image.frames_needed(geom);
        let bs = Bitstream::from_image(&image, geom);
        let encoded = bs.encode(registry::codec(CodecId::Rle, geom.frame_bytes()).as_ref());
        (geom, device, port, encoded, n)
    }

    #[test]
    fn configures_and_decodes_back() {
        let (_geom, mut device, port, encoded, n) = setup();
        let addrs: Vec<FrameAddress> = (0..n as u16).map(FrameAddress).collect();
        let mut module = ConfigModule::new(64, aaod_sim::clock::domains::mcu());
        let report = module
            .configure(&encoded, &mut device, &port, &addrs)
            .unwrap();
        assert_eq!(report.frames_written, n);
        assert!(report.decompress_time > SimTime::ZERO);
        assert!(report.port_time > SimTime::ZERO);
        let img = device.decode_function(&addrs).unwrap();
        assert_eq!(img.algo_id(), 3);
    }

    #[test]
    fn non_contiguous_placement_works() {
        let (_geom, mut device, port, encoded, n) = setup();
        // scatter across the device, reversed order of even frames
        let addrs: Vec<FrameAddress> = (0..16u16)
            .rev()
            .filter(|i| i % 2 == 0)
            .take(n)
            .map(FrameAddress)
            .collect();
        assert_eq!(addrs.len(), n, "test needs {n} even frames");
        let mut module = ConfigModule::new(32, aaod_sim::clock::domains::mcu());
        module
            .configure(&encoded, &mut device, &port, &addrs)
            .unwrap();
        let img = device.decode_function(&addrs).unwrap();
        assert_eq!(img.algo_id(), 3);
    }

    #[test]
    fn window_size_changes_window_count_not_result() {
        let (_geom, _d, port, encoded, n) = setup();
        let addrs: Vec<FrameAddress> = (0..n as u16).map(FrameAddress).collect();
        let mut counts = Vec::new();
        for window in [8usize, 64, 1024] {
            let mut device = Device::new(DeviceGeometry::new(16, 2));
            let mut module = ConfigModule::new(window, aaod_sim::clock::domains::mcu());
            let report = module
                .configure(&encoded, &mut device, &port, &addrs)
                .unwrap();
            counts.push(report.windows);
            assert_eq!(device.decode_function(&addrs).unwrap().algo_id(), 3);
        }
        assert!(counts[0] > counts[1], "smaller window => more windows");
        assert!(counts[1] >= counts[2]);
    }

    #[test]
    fn collect_returns_device_identical_frames() {
        let (_geom, mut device, port, encoded, n) = setup();
        let addrs: Vec<FrameAddress> = (0..n as u16).map(FrameAddress).collect();
        let mut module = ConfigModule::new(64, aaod_sim::clock::domains::mcu());
        let (report, frames) = module
            .configure_collect(&encoded, &mut device, &port, &addrs)
            .unwrap();
        assert_eq!(frames.len(), n);
        assert_eq!(report.frames_written, n);
        for (frame, &addr) in frames.iter().zip(&addrs) {
            assert_eq!(device.read_frame(addr).unwrap(), frame.as_slice());
        }
    }

    #[test]
    fn configure_decoded_skips_decompression_cost() {
        let (_geom, mut device, port, encoded, n) = setup();
        let addrs: Vec<FrameAddress> = (0..n as u16).map(FrameAddress).collect();
        let mut module = ConfigModule::new(64, aaod_sim::clock::domains::mcu());
        let (full, frames) = module
            .configure_collect(&encoded, &mut device, &port, &addrs)
            .unwrap();
        // replay the decoded frames onto a fresh device
        let mut fresh = Device::new(DeviceGeometry::new(16, 2));
        let report = module
            .configure_decoded(&frames, &mut fresh, &port, &addrs)
            .unwrap();
        assert_eq!(report.decompress_time, SimTime::ZERO);
        assert_eq!(report.port_time, full.port_time);
        assert_eq!(report.frames_written, n);
        assert_eq!(fresh.decode_function(&addrs).unwrap().algo_id(), 3);
    }

    #[test]
    fn configure_decoded_validates_shapes() {
        let (_geom, mut device, port, encoded, n) = setup();
        let addrs: Vec<FrameAddress> = (0..n as u16).map(FrameAddress).collect();
        let mut module = ConfigModule::new(64, aaod_sim::clock::domains::mcu());
        let (_, frames) = module
            .configure_collect(&encoded, &mut device, &port, &addrs)
            .unwrap();
        assert!(matches!(
            module.configure_decoded(&frames[1..], &mut device, &port, &addrs),
            Err(McuError::RecordMismatch(_))
        ));
        let mut short = frames.clone();
        short[0].pop();
        assert!(matches!(
            module.configure_decoded(&short, &mut device, &port, &addrs),
            Err(McuError::RecordMismatch(_))
        ));
    }

    #[test]
    fn wrong_address_count_rejected() {
        let (_geom, mut device, port, encoded, n) = setup();
        let addrs: Vec<FrameAddress> = (0..(n as u16 - 1)).map(FrameAddress).collect();
        let mut module = ConfigModule::new(64, aaod_sim::clock::domains::mcu());
        assert!(matches!(
            module.configure(&encoded, &mut device, &port, &addrs),
            Err(McuError::RecordMismatch(_))
        ));
    }

    #[test]
    fn wrong_geometry_rejected() {
        let (_geom, _device, port, encoded, n) = setup();
        let mut other = Device::new(DeviceGeometry::new(16, 4)); // different frame size
        let addrs: Vec<FrameAddress> = (0..n as u16).map(FrameAddress).collect();
        let mut module = ConfigModule::new(64, aaod_sim::clock::domains::mcu());
        assert!(matches!(
            module.configure(&encoded, &mut other, &port, &addrs),
            Err(McuError::RecordMismatch(_))
        ));
    }

    #[test]
    fn corrupt_payload_rejected_by_crc() {
        let (_geom, mut device, port, mut encoded, n) = setup();
        let last = encoded.len() - 1;
        encoded[last] ^= 1;
        let addrs: Vec<FrameAddress> = (0..n as u16).map(FrameAddress).collect();
        let mut module = ConfigModule::new(64, aaod_sim::clock::domains::mcu());
        assert!(matches!(
            module.configure(&encoded, &mut device, &port, &addrs),
            Err(McuError::Bitstream(BitstreamError::CrcMismatch { .. }))
        ));
    }

    #[test]
    #[should_panic(expected = "window must be non-zero")]
    fn zero_window_panics() {
        let _ = ConfigModule::new(0, aaod_sim::clock::domains::mcu());
    }
}
