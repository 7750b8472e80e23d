//! The configurable device: a configuration plane of frames.
//!
//! [`Device`] stores the raw configuration bytes of every frame and
//! counts configuration traffic. It deliberately knows nothing about
//! which algorithm owns which frame — that bookkeeping (free-frame
//! list, replacement table) belongs to the microcontroller's mini-OS,
//! as in the paper.
//!
//! Every frame also carries a write stamp drawn from a monotonic
//! mutation clock, so a caller that decoded a region can tell cheaply
//! whether any of its bytes changed since (see [`Device::stamp`]).

use crate::error::FabricError;
use crate::geometry::{DeviceGeometry, FrameAddress};
use crate::image::FunctionImage;

/// A partially reconfigurable device's configuration plane.
///
/// Equality compares the geometry and the frame bytes only: two
/// devices holding the same configuration are equal whatever their
/// write history.
///
/// # Examples
///
/// ```
/// use aaod_fabric::{Device, DeviceGeometry, FrameAddress};
///
/// let geom = DeviceGeometry::new(8, 2);
/// let mut dev = Device::new(geom);
/// let frame = vec![0xAB; geom.frame_bytes()];
/// dev.write_frame(FrameAddress(5), &frame).unwrap();
/// assert_eq!(dev.read_frame(FrameAddress(5)).unwrap(), &frame[..]);
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    geometry: DeviceGeometry,
    frames: Vec<Vec<u8>>,
    /// Per-frame value of `clock` at the frame's last mutation.
    stamps: Vec<u64>,
    /// Mutation clock: advanced once per mutating call.
    clock: u64,
    frame_writes: u64,
    full_configs: u64,
}

impl PartialEq for Device {
    fn eq(&self, other: &Self) -> bool {
        self.geometry == other.geometry && self.frames == other.frames
    }
}

impl Eq for Device {}

impl Device {
    /// Creates a blank (all-zero) device.
    pub fn new(geometry: DeviceGeometry) -> Self {
        let fb = geometry.frame_bytes();
        Device {
            geometry,
            frames: vec![vec![0u8; fb]; geometry.frames()],
            stamps: vec![0; geometry.frames()],
            clock: 0,
            frame_writes: 0,
            full_configs: 0,
        }
    }

    /// The device's geometry.
    pub fn geometry(&self) -> DeviceGeometry {
        self.geometry
    }

    /// Writes one frame (partial reconfiguration). Only the addressed
    /// frame changes; all others are untouched (paper §2.4).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::FrameOutOfRange`] or
    /// [`FabricError::FrameSizeMismatch`].
    pub fn write_frame(&mut self, addr: FrameAddress, bytes: &[u8]) -> Result<(), FabricError> {
        self.geometry.check(addr)?;
        if bytes.len() != self.geometry.frame_bytes() {
            return Err(FabricError::FrameSizeMismatch {
                got: bytes.len(),
                expected: self.geometry.frame_bytes(),
            });
        }
        self.frames[addr.index()].copy_from_slice(bytes);
        self.touch(addr.index());
        self.frame_writes += 1;
        Ok(())
    }

    /// Reads one frame's configuration bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::FrameOutOfRange`].
    pub fn read_frame(&self, addr: FrameAddress) -> Result<&[u8], FabricError> {
        self.geometry.check(addr)?;
        Ok(&self.frames[addr.index()])
    }

    /// Zeroes one frame (the mini-OS erases evicted functions).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::FrameOutOfRange`].
    pub fn clear_frame(&mut self, addr: FrameAddress) -> Result<(), FabricError> {
        self.geometry.check(addr)?;
        self.frames[addr.index()].fill(0);
        self.touch(addr.index());
        self.frame_writes += 1;
        Ok(())
    }

    /// Full (non-partial) reconfiguration: every frame is erased before
    /// the new frames are written starting at frame 0. This is the
    /// baseline behaviour of a device *without* partial
    /// reconfigurability.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::CapacityExceeded`] if more frames are
    /// supplied than the device has, or
    /// [`FabricError::FrameSizeMismatch`] for wrong-sized frames.
    pub fn full_configure(&mut self, frames: &[Vec<u8>]) -> Result<(), FabricError> {
        if frames.len() > self.geometry.frames() {
            return Err(FabricError::CapacityExceeded {
                what: "frames",
                needed: frames.len(),
                available: self.geometry.frames(),
            });
        }
        for frame in frames {
            if frame.len() != self.geometry.frame_bytes() {
                return Err(FabricError::FrameSizeMismatch {
                    got: frame.len(),
                    expected: self.geometry.frame_bytes(),
                });
            }
        }
        for f in &mut self.frames {
            f.fill(0);
        }
        for (i, frame) in frames.iter().enumerate() {
            self.frames[i].copy_from_slice(frame);
        }
        self.clock += 1;
        self.stamps.fill(self.clock);
        self.full_configs += 1;
        Ok(())
    }

    /// Decodes the function image configured at `addrs`.
    ///
    /// This is the bit-faithful execution entry point: whatever bytes
    /// are in the frames — including corrupted or half-written ones —
    /// determine the result.
    ///
    /// # Errors
    ///
    /// Propagates address errors and all
    /// [`FunctionImage`] decode errors (bad magic, digest mismatch…).
    pub fn decode_function(&self, addrs: &[FrameAddress]) -> Result<FunctionImage, FabricError> {
        let mut flat = Vec::new();
        self.decode_function_with(addrs, &mut flat)
    }

    /// As [`Device::decode_function`], but concatenates the frame bytes
    /// into the caller-supplied `flat` buffer instead of allocating a
    /// `Vec` per frame — the execution hot path hands the same buffer
    /// back on every decode so readback stays off the allocator.
    ///
    /// # Errors
    ///
    /// As [`Device::decode_function`].
    pub fn decode_function_with(
        &self,
        addrs: &[FrameAddress],
        flat: &mut Vec<u8>,
    ) -> Result<FunctionImage, FabricError> {
        flat.clear();
        flat.reserve(addrs.len() * self.geometry.frame_bytes());
        for &addr in addrs {
            flat.extend_from_slice(self.read_frame(addr)?);
        }
        FunctionImage::from_bytes(flat)
    }

    /// Flips one configuration bit in place — the single-event-upset
    /// injection point used by the fault campaigns. Unlike
    /// [`Device::write_frame`] this does not count as configuration
    /// traffic: an SEU is radiation, not a port transaction.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::FrameOutOfRange`] for a bad address.
    ///
    /// # Panics
    ///
    /// Panics if `byte` is outside the frame or `bit` is not 0–7.
    pub fn flip_bit(
        &mut self,
        addr: FrameAddress,
        byte: usize,
        bit: u8,
    ) -> Result<(), FabricError> {
        self.geometry.check(addr)?;
        assert!(byte < self.geometry.frame_bytes(), "byte offset {byte}");
        assert!(bit < 8, "bit index {bit}");
        self.frames[addr.index()][byte] ^= 1 << bit;
        self.touch(addr.index());
        Ok(())
    }

    /// Advances the mutation clock and stamps frame `index` with it.
    fn touch(&mut self, index: usize) {
        self.clock += 1;
        self.stamps[index] = self.clock;
    }

    /// The mutation clock: how many mutating calls (frame writes,
    /// clears, bit flips, full configurations) have succeeded so far.
    /// A blank device reads 0.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The latest write stamp over `addrs`: the [`Device::clock`] value
    /// at the most recent mutation of any of those frames (0 if none
    /// was ever mutated, or `addrs` is empty). If a region was decoded
    /// when the clock read `c` and `stamp(region) <= c` now, none of its
    /// bytes changed in between. An out-of-range address reads
    /// `u64::MAX`, so it never passes that test.
    pub fn stamp(&self, addrs: &[FrameAddress]) -> u64 {
        addrs
            .iter()
            .map(|a| self.stamps.get(a.index()).copied().unwrap_or(u64::MAX))
            .max()
            .unwrap_or(0)
    }

    /// Number of single-frame writes performed so far.
    pub fn frame_writes(&self) -> u64 {
        self.frame_writes
    }

    /// Number of full reconfigurations performed so far.
    pub fn full_configs(&self) -> u64 {
        self.full_configs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::NetlistMode;
    use crate::netlist::NetlistBuilder;

    fn geom() -> DeviceGeometry {
        DeviceGeometry::new(8, 2)
    }

    #[test]
    fn starts_blank() {
        let dev = Device::new(geom());
        for i in 0..8 {
            assert!(dev
                .read_frame(FrameAddress(i))
                .unwrap()
                .iter()
                .all(|&b| b == 0));
        }
        assert_eq!(dev.frame_writes(), 0);
    }

    #[test]
    fn write_only_touches_addressed_frame() {
        let g = geom();
        let mut dev = Device::new(g);
        let marked = vec![0x5A; g.frame_bytes()];
        dev.write_frame(FrameAddress(3), &marked).unwrap();
        for i in 0..8u16 {
            let frame = dev.read_frame(FrameAddress(i)).unwrap();
            if i == 3 {
                assert_eq!(frame, &marked[..]);
            } else {
                assert!(frame.iter().all(|&b| b == 0), "frame {i} perturbed");
            }
        }
    }

    #[test]
    fn wrong_size_rejected() {
        let mut dev = Device::new(geom());
        assert!(matches!(
            dev.write_frame(FrameAddress(0), &[1, 2, 3]),
            Err(FabricError::FrameSizeMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let g = geom();
        let mut dev = Device::new(g);
        let frame = vec![0; g.frame_bytes()];
        assert!(matches!(
            dev.write_frame(FrameAddress(8), &frame),
            Err(FabricError::FrameOutOfRange { .. })
        ));
        assert!(dev.read_frame(FrameAddress(100)).is_err());
    }

    #[test]
    fn clear_frame_zeroes() {
        let g = geom();
        let mut dev = Device::new(g);
        dev.write_frame(FrameAddress(1), &vec![0xFF; g.frame_bytes()])
            .unwrap();
        dev.clear_frame(FrameAddress(1)).unwrap();
        assert!(dev
            .read_frame(FrameAddress(1))
            .unwrap()
            .iter()
            .all(|&b| b == 0));
    }

    #[test]
    fn full_configure_erases_everything_first() {
        let g = geom();
        let mut dev = Device::new(g);
        dev.write_frame(FrameAddress(7), &vec![0xEE; g.frame_bytes()])
            .unwrap();
        dev.full_configure(&[vec![0x11; g.frame_bytes()]]).unwrap();
        assert!(dev
            .read_frame(FrameAddress(7))
            .unwrap()
            .iter()
            .all(|&b| b == 0));
        assert_eq!(dev.read_frame(FrameAddress(0)).unwrap()[0], 0x11);
        assert_eq!(dev.full_configs(), 1);
    }

    #[test]
    fn full_configure_capacity_check() {
        let g = geom();
        let mut dev = Device::new(g);
        let frames = vec![vec![0u8; g.frame_bytes()]; 9];
        assert!(matches!(
            dev.full_configure(&frames),
            Err(FabricError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn configured_function_roundtrips_through_device() {
        let g = DeviceGeometry::new(16, 2);
        let mut dev = Device::new(g);
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(8);
        let one = b.one();
        let flipped = b.xor2(ins[7], one);
        b.output_vec(&ins[..7]);
        b.output(flipped);
        let img =
            FunctionImage::from_netlist(5, b.finish().unwrap(), NetlistMode::Combinational, 1, 1);
        let frames = img.encode(g);
        // place non-contiguously: frames 2, 9, 4, ...
        let addrs: Vec<FrameAddress> = [2u16, 9, 4, 11, 6, 13, 0, 15]
            .into_iter()
            .take(frames.len())
            .map(FrameAddress)
            .collect();
        assert!(addrs.len() >= frames.len(), "test geometry too small");
        for (addr, frame) in addrs.iter().zip(&frames) {
            dev.write_frame(*addr, frame).unwrap();
        }
        let decoded = dev.decode_function(&addrs[..frames.len()]).unwrap();
        assert_eq!(decoded.algo_id(), 5);
        let out = decoded.run_netlist(&[0x00]).unwrap();
        assert_eq!(out, vec![0x80]); // bit 7 flipped
    }

    #[test]
    fn flip_bit_is_a_seu_not_a_write() {
        let g = geom();
        let mut dev = Device::new(g);
        dev.flip_bit(FrameAddress(2), 10, 3).unwrap();
        assert_eq!(dev.read_frame(FrameAddress(2)).unwrap()[10], 1 << 3);
        assert_eq!(dev.frame_writes(), 0, "SEU must not count as a write");
        dev.flip_bit(FrameAddress(2), 10, 3).unwrap();
        assert!(dev
            .read_frame(FrameAddress(2))
            .unwrap()
            .iter()
            .all(|&b| b == 0));
        assert!(dev.flip_bit(FrameAddress(99), 0, 0).is_err());
    }

    /// Every frame's stamp, in address order.
    fn stamps(dev: &Device) -> Vec<u64> {
        (0..dev.geometry().frames() as u16)
            .map(|i| dev.stamp(&[FrameAddress(i)]))
            .collect()
    }

    /// Asserts that exactly the frames in `touched` moved to a stamp
    /// above every stamp in `before`, and all others kept theirs.
    fn assert_advanced(dev: &Device, before: &[u64], touched: &[usize]) {
        let old_max = before.iter().copied().max().unwrap_or(0);
        for (i, (&b, a)) in before.iter().zip(stamps(dev)).enumerate() {
            if touched.contains(&i) {
                assert!(a > old_max, "frame {i} not advanced: {b} -> {a}");
                assert!(a <= dev.clock(), "frame {i} stamp ahead of the clock");
            } else {
                assert_eq!(a, b, "frame {i} stamp moved");
            }
        }
    }

    #[test]
    fn blank_device_stamps_read_zero() {
        let dev = Device::new(geom());
        assert_eq!(dev.clock(), 0);
        assert!(stamps(&dev).iter().all(|&s| s == 0));
        assert_eq!(dev.stamp(&[]), 0);
        assert_eq!(dev.stamp(&[FrameAddress(8)]), u64::MAX, "out of range");
    }

    #[test]
    fn each_mutator_advances_exactly_the_frames_it_touched() {
        let g = geom();
        let mut dev = Device::new(g);
        let before = stamps(&dev);
        dev.write_frame(FrameAddress(3), &vec![0x5A; g.frame_bytes()])
            .unwrap();
        assert_advanced(&dev, &before, &[3]);

        let before = stamps(&dev);
        dev.clear_frame(FrameAddress(6)).unwrap();
        assert_advanced(&dev, &before, &[6]);

        let before = stamps(&dev);
        dev.flip_bit(FrameAddress(1), 4, 2).unwrap();
        assert_advanced(&dev, &before, &[1]);

        // a rewrite of an already-written frame still advances it
        let before = stamps(&dev);
        dev.write_frame(FrameAddress(3), &vec![0x5A; g.frame_bytes()])
            .unwrap();
        assert_advanced(&dev, &before, &[3]);

        // a full configuration erases (touches) every frame
        let before = stamps(&dev);
        dev.full_configure(&[vec![0x11; g.frame_bytes()]]).unwrap();
        assert_advanced(&dev, &before, &(0..8).collect::<Vec<_>>());

        assert_eq!(
            dev.stamp(&[FrameAddress(0), FrameAddress(5)]),
            dev.clock(),
            "stamp is the max over the region"
        );
    }

    #[test]
    fn rejected_mutations_leave_stamps_unchanged() {
        let g = geom();
        let mut dev = Device::new(g);
        dev.write_frame(FrameAddress(2), &vec![1; g.frame_bytes()])
            .unwrap();
        let before = stamps(&dev);
        let clock = dev.clock();
        let frame = vec![0; g.frame_bytes()];
        assert!(dev.write_frame(FrameAddress(8), &frame).is_err());
        assert!(dev.write_frame(FrameAddress(2), &[1, 2, 3]).is_err());
        assert!(dev.clear_frame(FrameAddress(9)).is_err());
        assert!(dev.flip_bit(FrameAddress(99), 0, 0).is_err());
        assert!(dev.full_configure(&vec![frame.clone(); 9]).is_err());
        assert!(dev.full_configure(&[frame.clone(), vec![0; 3]]).is_err());
        assert_eq!(stamps(&dev), before);
        assert_eq!(dev.clock(), clock);
    }

    #[test]
    fn equality_ignores_write_history() {
        let g = geom();
        let frame = vec![0x77; g.frame_bytes()];
        let mut once = Device::new(g);
        once.write_frame(FrameAddress(4), &frame).unwrap();
        let mut churned = Device::new(g);
        churned.write_frame(FrameAddress(4), &frame).unwrap();
        churned.flip_bit(FrameAddress(0), 0, 0).unwrap();
        churned.flip_bit(FrameAddress(0), 0, 0).unwrap();
        churned.clear_frame(FrameAddress(7)).unwrap();
        assert_ne!(once.clock(), churned.clock());
        assert_eq!(once, churned);
        churned.flip_bit(FrameAddress(0), 0, 0).unwrap();
        assert_ne!(once, churned);
    }

    #[test]
    fn decode_of_blank_region_fails_cleanly() {
        let dev = Device::new(geom());
        let err = dev.decode_function(&[FrameAddress(0)]).unwrap_err();
        assert!(matches!(err, FabricError::ImageDecode(_)));
    }
}
