//! The algorithm bank: every function the co-processor can execute
//! on demand.
//!
//! The paper's motivating workload (its references \[1\] and \[2\]) is
//! *algorithm-agile cryptography* — IPSec engines that must switch
//! ciphers on demand. This crate therefore provides a bank of
//! crypto and DSP kernels, in two implementation styles:
//!
//! * **Behavioural kernels** (AES-128, 3DES, XTEA, SHA-1, SHA-256,
//!   HMAC-SHA-1, CRC-32, FIR, 8×8 matrix multiply): executed by a software model, but
//!   bound to the fabric bit-faithfully — their configuration frames
//!   carry the kernel id, instantiation parameters (key schedule,
//!   coefficients) and a digest over the whole image, so corrupted
//!   frames are caught before dispatch.
//! * **Netlist kernels** (CRC-8, 8-bit adder, popcount, parity):
//!   genuine LUT netlists synthesised by this crate, serialised into
//!   frames and *evaluated from the decoded frame bits* by
//!   [`aaod_fabric`].
//!
//! Every kernel also carries two cycle models — fabric cycles (the
//! co-processor's execution cost) and host-CPU cycles (the software
//! baseline) — which drive the agility experiments (E5).
//!
//! # Examples
//!
//! ```
//! use aaod_algos::{ids, AlgorithmBank};
//!
//! let bank = AlgorithmBank::standard();
//! let aes = bank.kernel(ids::AES128).expect("in the bank");
//! let params = aes.default_params();
//! let ct = aes.execute(&params, b"sixteen byte blk")?;
//! assert_eq!(ct.len(), 16);
//! # Ok::<(), aaod_algos::AlgoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod checksum;
pub mod crypto;
pub mod dsp;
pub mod dsp_ai;
pub mod filler;
pub mod kernel;
#[cfg(test)]
mod lockstep;
pub mod netlists;

pub use bank::AlgorithmBank;
pub use kernel::{AlgoError, AliasKernel, Kernel};

/// Well-known algorithm identifiers for the standard bank.
pub mod ids {
    /// AES-128 ECB encryption.
    pub const AES128: u16 = 1;
    /// XTEA block encryption.
    pub const XTEA: u16 = 2;
    /// SHA-1 digest.
    pub const SHA1: u16 = 3;
    /// SHA-256 digest.
    pub const SHA256: u16 = 4;
    /// CRC-32 (IEEE).
    pub const CRC32: u16 = 5;
    /// FIR filter over i16 samples.
    pub const FIR: u16 = 6;
    /// 8×8 byte matrix multiply.
    pub const MATMUL8: u16 = 7;
    /// CRC-8/ATM as a true LUT netlist.
    pub const CRC8: u16 = 8;
    /// 8-bit adder as a true LUT netlist.
    pub const ADDER8: u16 = 9;
    /// 8-bit popcount as a true LUT netlist.
    pub const POPCNT8: u16 = 10;
    /// 8-bit parity as a true LUT netlist.
    pub const PARITY8: u16 = 11;
    /// Triple-DES (EDE, 3-key) encryption.
    pub const TDES: u16 = 12;
    /// HMAC-SHA-1 message authentication.
    pub const HMAC_SHA1: u16 = 13;

    /// Blocked 16×16 i8→i16 matrix multiply (DSP/AI tier).
    pub const MATMUL16: u16 = 14;
    /// 3×3 convolution over 32×32 u8 tiles (DSP/AI tier).
    pub const CONV2D: u16 = 15;
    /// 64-point radix-2 fixed-point FFT (DSP/AI tier).
    pub const FFT64: u16 = 16;

    /// Every id in the standard bank, in id order.
    pub const ALL: [u16; 13] = [
        AES128, XTEA, SHA1, SHA256, CRC32, FIR, MATMUL8, CRC8, ADDER8, POPCNT8, PARITY8, TDES,
        HMAC_SHA1,
    ];

    /// The large-footprint DSP/AI tier, only present in
    /// [`AlgorithmBank::extended`](crate::AlgorithmBank::extended).
    pub const DSP_AI: [u16; 3] = [MATMUL16, CONV2D, FFT64];
}
