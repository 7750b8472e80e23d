//! The dual-ended configuration ROM.
//!
//! Bitstreams are "loaded from one end of the ROM while the record
//! table is populated from the other end" (paper §2.2). [`Rom`] models
//! exactly that layout: the bitstream region grows upward from byte 0,
//! the record table grows downward from the top, and a download that
//! would make them overlap fails with [`MemError::RomFull`].

use crate::error::MemError;
use crate::record::{FunctionRecord, RecordFields, RECORD_BYTES};
use std::collections::BTreeMap;

/// The co-processor's configuration ROM image.
///
/// # Examples
///
/// ```
/// use aaod_mem::{RecordFields, Rom};
///
/// let mut rom = Rom::new(1024);
/// let fields = RecordFields {
///     algo_id: 1, uncompressed_len: 64, codec: 0,
///     input_width: 8, output_width: 8, n_frames: 1,
/// };
/// rom.download(fields, b"stream")?;
/// assert_eq!(rom.record_count(), 1);
/// # Ok::<(), aaod_mem::MemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rom {
    data: Vec<u8>,
    /// First free byte of the bitstream region (grows upward).
    bitstream_end: usize,
    /// Number of records in the table (grows downward from the top).
    n_records: usize,
    /// Bytes read from the ROM since creation (for timing/statistics).
    bytes_read: std::cell::Cell<u64>,
    /// Record-table probes performed by lookups (E6 metric).
    record_probes: std::cell::Cell<u64>,
    /// Payload fetches served (observability-layer gauge).
    fetches: std::cell::Cell<u64>,
    /// Per-algorithm mutation stamps: bumped by every call that changes
    /// that algorithm's record or payload, so a host-side copy derived
    /// from them can tell they are unchanged since it was made. An entry
    /// outlives its record, so a re-download never repeats a reading.
    stamps: BTreeMap<u16, u64>,
}

impl Rom {
    /// Creates an empty ROM of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` cannot hold even one record.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > RECORD_BYTES,
            "rom must be larger than one record"
        );
        Rom {
            data: vec![0u8; capacity],
            bitstream_end: 0,
            n_records: 0,
            bytes_read: std::cell::Cell::new(0),
            record_probes: std::cell::Cell::new(0),
            fetches: std::cell::Cell::new(0),
            stamps: BTreeMap::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Bytes used by the bitstream region.
    pub fn bitstream_bytes_used(&self) -> usize {
        self.bitstream_end
    }

    /// Bytes used by the record table.
    pub fn table_bytes_used(&self) -> usize {
        self.n_records * RECORD_BYTES
    }

    /// Bytes still free between the two regions.
    pub fn free_bytes(&self) -> usize {
        self.capacity() - self.bitstream_bytes_used() - self.table_bytes_used()
    }

    /// Number of functions recorded.
    pub fn record_count(&self) -> usize {
        self.n_records
    }

    /// Downloads a compressed bitstream plus its record.
    ///
    /// The bitstream is appended to the low region; the record is
    /// prepended to the high region, with the start address and
    /// compressed length filled in.
    ///
    /// # Errors
    ///
    /// * [`MemError::RomFull`] if the regions would collide.
    /// * [`MemError::DuplicateFunction`] if `fields.algo_id` is already
    ///   recorded.
    pub fn download(&mut self, fields: RecordFields, bitstream: &[u8]) -> Result<(), MemError> {
        if self.lookup_silent(fields.algo_id).is_some() {
            return Err(MemError::DuplicateFunction(fields.algo_id));
        }
        let needed = bitstream.len() + RECORD_BYTES;
        if needed > self.free_bytes() {
            return Err(MemError::RomFull {
                needed,
                free: self.free_bytes(),
            });
        }
        let record = FunctionRecord {
            algo_id: fields.algo_id,
            start: self.bitstream_end as u32,
            compressed_len: bitstream.len() as u32,
            uncompressed_len: fields.uncompressed_len,
            codec: fields.codec,
            input_width: fields.input_width,
            output_width: fields.output_width,
            n_frames: fields.n_frames,
        };
        self.data[self.bitstream_end..self.bitstream_end + bitstream.len()]
            .copy_from_slice(bitstream);
        self.bitstream_end += bitstream.len();
        let slot = self.capacity() - (self.n_records + 1) * RECORD_BYTES;
        self.data[slot..slot + RECORD_BYTES].copy_from_slice(&record.to_bytes());
        self.n_records += 1;
        self.touch(fields.algo_id);
        Ok(())
    }

    fn record_at(&self, i: usize) -> FunctionRecord {
        let slot = self.capacity() - (i + 1) * RECORD_BYTES;
        FunctionRecord::from_bytes(&self.data[slot..slot + RECORD_BYTES])
    }

    fn lookup_silent(&self, algo_id: u16) -> Option<FunctionRecord> {
        (0..self.n_records)
            .map(|i| self.record_at(i))
            .find(|r| r.algo_id == algo_id)
    }

    /// Finds the record for `algo_id` by scanning the table, as the
    /// microcontroller does. Each probe is counted toward
    /// [`Rom::record_probes`].
    pub fn lookup(&self, algo_id: u16) -> Option<FunctionRecord> {
        for i in 0..self.n_records {
            self.record_probes.set(self.record_probes.get() + 1);
            let r = self.record_at(i);
            if r.algo_id == algo_id {
                return Some(r);
            }
        }
        None
    }

    /// Iterates over all records in download order.
    pub fn records(&self) -> Vec<FunctionRecord> {
        (0..self.n_records).map(|i| self.record_at(i)).collect()
    }

    /// The compressed bitstream bytes for `record`.
    ///
    /// # Panics
    ///
    /// Panics if the record does not describe a region inside the
    /// ROM — records produced by [`Rom::lookup`] always do.
    pub fn bitstream_bytes(&self, record: &FunctionRecord) -> &[u8] {
        let start = record.start as usize;
        let end = start + record.compressed_len as usize;
        assert!(end <= self.bitstream_end, "record outside bitstream region");
        self.bytes_read
            .set(self.bytes_read.get() + record.compressed_len as u64);
        self.fetches.set(self.fetches.get() + 1);
        &self.data[start..end]
    }

    /// XORs `mask` into byte `offset` of `algo_id`'s stored payload —
    /// the flash bit-rot injection point used by the fault campaigns.
    /// The record (and its CRC-bearing header, stored in the payload's
    /// first bytes) is found via a silent lookup so probes and timing
    /// stats are unaffected.
    ///
    /// # Errors
    ///
    /// * [`MemError::RecordNotFound`] for an unknown function.
    /// * [`MemError::OutOfBounds`] if `offset` is past the payload.
    pub fn corrupt_payload(
        &mut self,
        algo_id: u16,
        offset: usize,
        mask: u8,
    ) -> Result<(), MemError> {
        let r = self
            .lookup_silent(algo_id)
            .ok_or(MemError::RecordNotFound(algo_id))?;
        let len = r.compressed_len as usize;
        if offset >= len {
            return Err(MemError::OutOfBounds {
                what: "rom payload",
                offset,
                len: 1,
                size: len,
            });
        }
        self.data[r.start as usize + offset] ^= mask;
        self.touch(algo_id);
        Ok(())
    }

    /// Removes `algo_id`'s record from the table so a fresh image can
    /// be re-downloaded (the mini OS's corruption-recovery path).
    ///
    /// Later records shift up one slot, preserving download order. The
    /// payload bytes are reclaimed only when they sit at the top of the
    /// bitstream region; otherwise they remain as dead flash — real
    /// cards fragment the same way until a bulk erase.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RecordNotFound`] for an unknown function.
    pub fn remove_record(&mut self, algo_id: u16) -> Result<(), MemError> {
        let k = (0..self.n_records)
            .find(|&i| self.record_at(i).algo_id == algo_id)
            .ok_or(MemError::RecordNotFound(algo_id))?;
        let removed = self.record_at(k);
        for i in k + 1..self.n_records {
            let moved = self.record_at(i).to_bytes();
            let slot = self.capacity() - i * RECORD_BYTES;
            self.data[slot..slot + RECORD_BYTES].copy_from_slice(&moved);
        }
        let freed = self.capacity() - self.n_records * RECORD_BYTES;
        self.data[freed..freed + RECORD_BYTES].fill(0);
        self.n_records -= 1;
        let end = removed.start as usize + removed.compressed_len as usize;
        if end == self.bitstream_end {
            self.bitstream_end = removed.start as usize;
        }
        self.touch(algo_id);
        Ok(())
    }

    fn touch(&mut self, algo_id: u16) {
        *self.stamps.entry(algo_id).or_default() += 1;
    }

    /// Total payload bytes read so far (timing input).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    /// Record-table probes performed so far (E6 metric).
    pub fn record_probes(&self) -> u64 {
        self.record_probes.get()
    }

    /// `algo_id`'s mutation stamp: how many successful `download`,
    /// `corrupt_payload` and `remove_record` calls have touched that
    /// algorithm. Those are the only writes to the ROM, and each changes
    /// one algorithm's bytes alone (a removal shifts later records up a
    /// slot but changes none of their fields, and a download only
    /// writes past every live payload), so two equal readings mean the
    /// algorithm's record and payload read the same in between.
    pub fn record_stamp(&self, algo_id: u16) -> u64 {
        self.stamps.get(&algo_id).copied().unwrap_or(0)
    }

    /// Payload fetches served so far. Together with
    /// [`Rom::bytes_read`] this is the ROM's contribution to the
    /// observability layer's `rom_fetch` accounting: the mini OS
    /// cross-checks its traced fetch events against this gauge.
    pub fn fetch_count(&self) -> u64 {
        self.fetches.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(id: u16) -> RecordFields {
        RecordFields {
            algo_id: id,
            uncompressed_len: 100,
            codec: 1,
            input_width: 8,
            output_width: 8,
            n_frames: 2,
        }
    }

    #[test]
    fn download_and_lookup() {
        let mut rom = Rom::new(1024);
        rom.download(fields(1), &[1u8; 50]).unwrap();
        rom.download(fields(2), &[2u8; 60]).unwrap();
        let r1 = rom.lookup(1).unwrap();
        let r2 = rom.lookup(2).unwrap();
        assert_eq!(r1.start, 0);
        assert_eq!(r2.start, 50);
        assert_eq!(rom.bitstream_bytes(&r1), &[1u8; 50][..]);
        assert_eq!(rom.bitstream_bytes(&r2), &[2u8; 60][..]);
        assert!(rom.lookup(3).is_none());
    }

    #[test]
    fn regions_grow_toward_each_other() {
        let mut rom = Rom::new(1024);
        rom.download(fields(1), &[0u8; 100]).unwrap();
        assert_eq!(rom.bitstream_bytes_used(), 100);
        assert_eq!(rom.table_bytes_used(), RECORD_BYTES);
        assert_eq!(rom.free_bytes(), 1024 - 100 - RECORD_BYTES);
    }

    #[test]
    fn collision_rejected_exactly() {
        let mut rom = Rom::new(200);
        // free = 200; first download: 100 + 24 = 124 -> ok, free = 76
        rom.download(fields(1), &[0u8; 100]).unwrap();
        // second: needs 60 + 24 = 84 > 76 -> reject
        let err = rom.download(fields(2), &[0u8; 60]).unwrap_err();
        assert!(matches!(
            err,
            MemError::RomFull {
                needed: 84,
                free: 76
            }
        ));
        // a 52-byte stream (52+24=76) fits exactly
        rom.download(fields(2), &[0u8; 52]).unwrap();
        assert_eq!(rom.free_bytes(), 0);
    }

    #[test]
    fn duplicate_rejected() {
        let mut rom = Rom::new(1024);
        rom.download(fields(7), &[0u8; 10]).unwrap();
        assert!(matches!(
            rom.download(fields(7), &[0u8; 10]),
            Err(MemError::DuplicateFunction(7))
        ));
    }

    #[test]
    fn failed_download_leaves_rom_unchanged() {
        let mut rom = Rom::new(200);
        rom.download(fields(1), &[0u8; 100]).unwrap();
        let before = rom.clone();
        let _ = rom.download(fields(2), &[0u8; 150]);
        assert_eq!(rom, before);
    }

    #[test]
    fn lookup_counts_probes() {
        let mut rom = Rom::new(4096);
        for i in 0..10 {
            rom.download(fields(i), &[0u8; 8]).unwrap();
        }
        let before = rom.record_probes();
        rom.lookup(9).unwrap(); // last downloaded = 10th probe
        assert_eq!(rom.record_probes() - before, 10);
        let before = rom.record_probes();
        rom.lookup(0).unwrap();
        assert_eq!(rom.record_probes() - before, 1);
    }

    #[test]
    fn records_in_download_order() {
        let mut rom = Rom::new(4096);
        for i in [5u16, 3, 9] {
            rom.download(fields(i), &[0u8; 4]).unwrap();
        }
        let ids: Vec<u16> = rom.records().iter().map(|r| r.algo_id).collect();
        assert_eq!(ids, vec![5, 3, 9]);
    }

    #[test]
    fn bytes_read_accumulates() {
        let mut rom = Rom::new(1024);
        rom.download(fields(1), &[0u8; 30]).unwrap();
        let r = rom.lookup(1).unwrap();
        let _ = rom.bitstream_bytes(&r);
        let _ = rom.bitstream_bytes(&r);
        assert_eq!(rom.bytes_read(), 60);
    }

    #[test]
    #[should_panic(expected = "larger than one record")]
    fn tiny_rom_panics() {
        let _ = Rom::new(10);
    }

    #[test]
    fn corrupt_payload_flips_stored_byte() {
        let mut rom = Rom::new(1024);
        rom.download(fields(1), &[0xAA; 40]).unwrap();
        rom.corrupt_payload(1, 5, 0x0F).unwrap();
        let r = rom.lookup(1).unwrap();
        let bytes = rom.bitstream_bytes(&r);
        assert_eq!(bytes[5], 0xAA ^ 0x0F);
        assert!(bytes.iter().enumerate().all(|(i, &b)| i == 5 || b == 0xAA));
        assert!(matches!(
            rom.corrupt_payload(9, 0, 1),
            Err(MemError::RecordNotFound(9))
        ));
        assert!(matches!(
            rom.corrupt_payload(1, 40, 1),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn remove_middle_record_keeps_order_and_lookup() {
        let mut rom = Rom::new(4096);
        for i in [5u16, 3, 9] {
            rom.download(fields(i), &[i as u8; 16]).unwrap();
        }
        rom.remove_record(3).unwrap();
        let ids: Vec<u16> = rom.records().iter().map(|r| r.algo_id).collect();
        assert_eq!(ids, vec![5, 9]);
        assert!(rom.lookup(3).is_none());
        let r9 = rom.lookup(9).unwrap();
        assert_eq!(rom.bitstream_bytes(&r9), &[9u8; 16][..]);
        // payload of 3 is dead flash: bitstream region did not shrink
        assert_eq!(rom.bitstream_bytes_used(), 48);
        assert_eq!(rom.table_bytes_used(), 2 * RECORD_BYTES);
    }

    #[test]
    fn remove_tail_record_reclaims_payload() {
        let mut rom = Rom::new(1024);
        rom.download(fields(1), &[1u8; 30]).unwrap();
        rom.download(fields(2), &[2u8; 20]).unwrap();
        rom.remove_record(2).unwrap();
        assert_eq!(rom.bitstream_bytes_used(), 30);
        // re-download of the same id now succeeds (no duplicate)
        rom.download(fields(2), &[7u8; 20]).unwrap();
        let r = rom.lookup(2).unwrap();
        assert_eq!(rom.bitstream_bytes(&r), &[7u8; 20][..]);
        assert!(matches!(
            rom.remove_record(42),
            Err(MemError::RecordNotFound(42))
        ));
    }

    #[test]
    fn record_stamp_moves_on_every_write_to_its_algorithm_and_only_then() {
        let mut rom = Rom::new(300);
        assert_eq!(rom.record_stamp(1), 0);
        rom.download(fields(1), &[1u8; 30]).unwrap();
        let r = rom.lookup(1).unwrap();
        rom.bitstream_bytes(&r);
        rom.records();
        assert_eq!(rom.record_stamp(1), 1, "reads leave the stamp alone");
        assert!(rom.download(fields(1), &[1u8; 30]).is_err());
        assert!(rom.download(fields(2), &[2u8; 300]).is_err());
        assert!(rom.corrupt_payload(1, 30, 1).is_err());
        assert!(rom.remove_record(9).is_err());
        assert_eq!(rom.record_stamp(1), 1, "failed writes leave it too");
        assert_eq!(rom.record_stamp(2), 0);
        // writes to other algorithms leave it, a removal shifting its
        // record included
        rom.download(fields(2), &[2u8; 20]).unwrap();
        rom.download(fields(3), &[3u8; 20]).unwrap();
        rom.corrupt_payload(2, 3, 1).unwrap();
        rom.remove_record(2).unwrap();
        assert_eq!(rom.record_stamp(1), 1);
        assert_eq!(rom.record_stamp(2), 3);
        assert_eq!(rom.record_stamp(3), 1);
        rom.corrupt_payload(1, 3, 1).unwrap();
        assert_eq!(rom.record_stamp(1), 2);
        rom.remove_record(1).unwrap();
        assert_eq!(rom.record_stamp(1), 3);
        // a re-download never repeats an earlier reading
        rom.download(fields(1), &[1u8; 30]).unwrap();
        assert_eq!(rom.record_stamp(1), 4);
        assert_eq!(rom.record_stamp(3), 1);
    }

    #[test]
    fn fetch_count_tracks_payload_reads() {
        let mut rom = Rom::new(1024);
        rom.download(fields(1), &[1u8; 30]).unwrap();
        assert_eq!(rom.fetch_count(), 0);
        let r = rom.lookup(1).unwrap();
        rom.bitstream_bytes(&r);
        rom.bitstream_bytes(&r);
        assert_eq!(rom.fetch_count(), 2);
        assert_eq!(rom.bytes_read(), 60);
    }
}
