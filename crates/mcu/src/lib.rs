//! The PCI microcontroller and its "mini OS".
//!
//! This crate is the paper's core contribution (§2.3 and §2.5): the
//! controller that makes an FPGA co-processor *algorithm-agile*. It
//! provides:
//!
//! * [`FreeFrameList`] — the mini-OS's ledger of frames "currently not
//!   used to realize any logic", allocated first-fit and possibly
//!   non-contiguously.
//! * [`ReplacementTable`] and [`Replacement`] — the Frame Replacement
//!   Table ("list of frames occupied by each algorithm … along with a
//!   time stamp") and the one enum of victim rules. The paper specifies
//!   least-recently-used, the default; FIFO, LFU, random and the Belady
//!   oracle are the experiment baselines.
//! * [`ConfigModule`] — fetches a compressed bitstream from ROM and
//!   "decompresses the compressed bit-stream window by window",
//!   driving the configuration port frame by frame.
//! * [`DataInputModule`] / [`OutputCollectionModule`] — stage operands
//!   in local RAM and move them across the FPGA data bus in multiples
//!   of the record's interface width.
//! * [`MiniOs`] — the complete controller: on an `invoke` it looks up
//!   the ROM record, swaps the function in if it is not resident
//!   (evicting per policy when the free-frame list is insufficient),
//!   executes it *from the configured frame bits*, and collects the
//!   output. Every step is accounted in simulated time.
//!
//! # Examples
//!
//! ```
//! use aaod_algos::{ids, AlgorithmBank};
//! use aaod_mcu::{MiniOs, MiniOsConfig};
//!
//! let mut os = MiniOs::new(MiniOsConfig::default());
//! let encoded = os.encode_bitstream(ids::CRC32)?;
//! os.download(&encoded)?;
//! let (out, report) = os.invoke(ids::CRC32, b"123456789")?;
//! assert_eq!(out, 0xCBF43926u32.to_le_bytes().to_vec());
//! assert!(!report.hit); // first use had to configure the FPGA
//! # Ok::<(), aaod_mcu::McuError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod config_module;
pub mod data_modules;
pub mod decoded_cache;
pub mod error;
pub mod free_frames;
pub mod mini_os;
pub mod prefetch;
pub mod replacement;
pub mod stats;

pub use command::{Command, Response};
pub use config_module::{ConfigModule, ConfigReport};
pub use data_modules::{DataInputModule, OutputCollectionModule};
pub use decoded_cache::DecodedCache;
pub use error::McuError;
pub use free_frames::FreeFrameList;
pub use mini_os::{InvokeReport, MiniOs, MiniOsConfig, ReconfigMode, ScrubReport};
pub use replacement::{Replacement, ReplacementTable, Residency};
pub use stats::OsStats;
