//! Cryptographic kernels — the paper's motivating workload.
//!
//! The paper's references describe algorithm-agile crypto engines for
//! IPSec; this module provides the ciphers and hashes such an engine
//! swaps between: [`aes::Aes128`], [`des::TripleDes`], [`xtea::Xtea`],
//! [`sha1::Sha1`], [`sha256::Sha256`] and [`hmac::HmacSha1`]. All are
//! implemented from scratch and verified
//! against published test vectors.

pub mod aes;
pub mod des;
pub mod hmac;
mod md;
pub mod sha1;
pub mod sha256;
pub mod xtea;

pub use aes::Aes128;
pub use des::TripleDes;
pub use hmac::HmacSha1;
pub use sha1::Sha1;
pub use sha256::Sha256;
pub use xtea::Xtea;
