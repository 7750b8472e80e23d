//! A frame-addressable, partially reconfigurable FPGA fabric model.
//!
//! This crate models the third block of the co-processor of
//! *"FPGA based Agile Algorithm-On-Demand Co-Processor"* (DATE 2005): a
//! Virtex-II-class device whose configuration plane is divided into
//! **frames** — "a prespecified number of Logic Blocks and the relevant
//! Switch Blocks" (paper, footnote 1). Individual frames can be
//! rewritten through the configuration port while the rest of the device
//! keeps operating, which is what lets the mini-OS swap algorithms in
//! and out on demand.
//!
//! The model is *bit-faithful*: what a configured region does is decoded
//! from the frame bytes themselves (see [`image::FunctionImage`]), so a
//! corrupted or half-written frame really produces a broken function.
//! Small kernels are true LUT netlists ([`netlist::Netlist`]) that are
//! placed into CLB slots, serialised into frames and *evaluated from the
//! decoded bits*; large kernels (AES, SHA…) are behavioural images whose
//! frames carry the kernel identity, parameters and an integrity digest.
//!
//! # Examples
//!
//! ```
//! use aaod_fabric::{Device, DeviceGeometry, FrameAddress};
//!
//! let geom = DeviceGeometry::new(64, 16); // 64 frames x 16 CLBs
//! let dev = Device::new(geom);
//! assert_eq!(dev.geometry().frames(), 64);
//! assert!(dev.read_frame(FrameAddress(3)).unwrap().iter().all(|&b| b == 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config_port;
pub mod device;
pub mod digest;
pub mod error;
pub mod geometry;
pub mod image;
pub mod netlist;
pub mod opt;

pub use config_port::ConfigPort;
pub use device::Device;
pub use error::FabricError;
pub use geometry::{DeviceGeometry, FrameAddress, CLB_CONFIG_BYTES};
pub use image::{
    run_decoded_netlist, run_decoded_netlist_batch, BatchScratch, FunctionImage, FunctionKind,
    NetlistMode, NetlistTable,
};
pub use netlist::{NetId, Netlist, NetlistBuilder};
