//! Hostile-input sweep over the bytes a reconfiguration miss parses:
//! every truncation and every single-bit flip of a ROM bitstream goes
//! through [`ConfigModule::configure`] and through a card's
//! [`MiniOs::download`] + [`MiniOs::invoke`]. Each must end in `Ok` or
//! a typed [`McuError`], never a panic.
//!
//! The inputs are MatMul16's LZSS bitstream (13,908 bytes) and the
//! one-frame PARITY8 bitstream under each other codec. Each flip
//! builds and feeds fresh cards, and MatMul16's payload has about
//! 111,000 bits, so in debug builds its payload flips are taken at a
//! stride of 509 bits (every byte offset class and bit position is
//! still reached); a release build (`cargo test --release`) flips
//! every bit. Header
//! bits, truncations and the small bitstreams are exhaustive in both.

use aaod_algos::{ids, AlgorithmBank};
use aaod_bitstream::codec::CodecId;
use aaod_bitstream::{FrameStore, HEADER_BYTES};
use aaod_fabric::{ConfigPort, Device, FrameAddress};
use aaod_mcu::{ConfigModule, McuError, MiniOs, MiniOsConfig};
use aaod_sim::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn card(codec: CodecId) -> MiniOs {
    MiniOs::new(MiniOsConfig {
        codec,
        bank: AlgorithmBank::extended(),
        ..MiniOsConfig::default()
    })
}

/// One hostile input through both parsers. Returns a description of
/// the first panic, if any.
fn feed(codec: CodecId, algo: u16, n_frames: usize, bytes: &[u8]) -> Option<String> {
    let run = || {
        let mut os = card(codec);
        let addrs: Vec<FrameAddress> = (0..n_frames as u16).map(FrameAddress).collect();
        let mut module = ConfigModule::new(256, os.mcu_clock());
        let mut store = FrameStore::new(64 * 1024);
        for store in [None, Some(&mut store)] {
            let mut device = Device::new(os.geometry());
            let port = ConfigPort::selectmap8();
            let _: Result<_, McuError> = module.configure(bytes, store, &mut device, &port, &addrs);
        }
        if os.download(bytes).is_ok() {
            let _: Result<_, McuError> = os.invoke(algo, &[0x3c; 64]);
        }
    };
    catch_unwind(AssertUnwindSafe(run))
        .err()
        .map(|_| format!("{codec} algo {algo}: {} bytes", bytes.len()))
}

/// Feeds every truncation of `algo`'s bitstream under `codec`, then
/// the single-bit flips of every header bit and of every
/// `payload_stride`-th payload bit. Panics listing the inputs that
/// panicked.
fn sweep(codec: CodecId, algo: u16, payload_stride: usize) {
    let os = card(codec);
    let encoded = os.encode_bitstream(algo).unwrap();
    let n_frames = encoded[12] as usize | (encoded[13] as usize) << 8;
    let mut panics = Vec::new();
    for len in 0..encoded.len() {
        if let Some(p) = feed(codec, algo, n_frames, &encoded[..len]) {
            panics.push(format!("{p} (truncated)"));
        }
    }
    let header_bits = HEADER_BYTES * 8;
    let bits = (0..header_bits).chain((header_bits..encoded.len() * 8).step_by(payload_stride));
    let mut flipped = encoded.clone();
    for bit in bits {
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Some(p) = feed(codec, algo, n_frames, &flipped) {
            panics.push(format!("{p} (bit {bit} flipped)"));
        }
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    assert!(
        panics.is_empty(),
        "{} panics: {:?}",
        panics.len(),
        &panics[..panics.len().min(8)]
    );
}

#[test]
fn matmul16_lzss_bitstream_survives_truncation_and_bit_flips() {
    let stride = if cfg!(debug_assertions) { 509 } else { 1 };
    sweep(CodecId::Lzss, ids::MATMUL16, stride);
}

#[test]
fn small_bitstreams_survive_truncation_and_bit_flips() {
    for codec in CodecId::ALL.into_iter().filter(|&c| c != CodecId::Lzss) {
        sweep(codec, ids::PARITY8, 1);
    }
}

/// A card that memoized MatMul16's verified image, had that ROM image
/// rot and re-downloaded it, must serve exactly what a fresh card
/// serves: the rot surfaces as a CRC error, and the re-downloaded
/// image is decoded afresh.
#[test]
fn memoized_card_after_rom_rot_and_redownload_matches_a_fresh_card() {
    let input = vec![0xa5; 4096];
    let mut os = card(CodecId::Lzss);
    for id in ids::DSP_AI {
        os.install(id).unwrap();
    }
    for _ in 0..2 {
        for id in ids::DSP_AI {
            os.invoke(id, &input).unwrap();
        }
    }
    os.inject_rom_rot(ids::MATMUL16, &mut SplitMix64::new(9))
        .unwrap();
    assert!(matches!(
        os.invoke(ids::MATMUL16, &input),
        Err(McuError::Bitstream(
            aaod_bitstream::BitstreamError::CrcMismatch { .. }
        ))
    ));
    os.redownload(ids::MATMUL16).unwrap();
    let mut fresh = card(CodecId::Lzss);
    fresh.install(ids::MATMUL16).unwrap();
    for _ in 0..2 {
        let (out, report) = os.invoke(ids::MATMUL16, &input).unwrap();
        let (want, fresh_report) = fresh.invoke(ids::MATMUL16, &input).unwrap();
        assert_eq!(out, want);
        assert_eq!(report.hit, fresh_report.hit);
        assert_eq!(report.rom_time, fresh_report.rom_time);
        assert_eq!(report.reconfig_time, fresh_report.reconfig_time);
        assert_eq!(report.exec_time, fresh_report.exec_time);
    }
}
