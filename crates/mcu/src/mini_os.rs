//! The mini-OS: the paper's on-demand algorithm controller (§2.5).
//!
//! "When the host requests the execution of a particular algorithm …
//! the micro-controller is responsible for configuring the FPGA with
//! that relevant configuration bit-stream if the function is not
//! already present on the FPGA." [`MiniOs::invoke`] implements the
//! full request path:
//!
//! 1. look the function up in the ROM record table;
//! 2. if it is not resident, allocate frames from the Free Frame List —
//!    evicting per the replacement policy when the list is
//!    insufficient — and configure them window by window;
//! 3. stage the operands through the data-input module;
//! 4. execute **from the configured frame bits** (netlist evaluation or
//!    digest-checked behavioural dispatch);
//! 5. collect the result through the output-collection module.
//!
//! Every step contributes to a per-invocation [`InvokeReport`] and the
//! cumulative [`OsStats`].

use crate::config_module::{ConfigModule, ConfigReport};
use crate::data_modules::{DataInputModule, OutputCollectionModule};
use crate::decoded_cache::DecodedCache;
use crate::error::McuError;
use crate::free_frames::FreeFrameList;
use crate::replacement::{LruPolicy, ReplacementPolicy, ReplacementTable};
use crate::stats::OsStats;
use aaod_algos::{AlgoError, AlgorithmBank};
use aaod_bitstream::codec::{registry, CodecId};
use aaod_bitstream::{Bitstream, BitstreamHeader, FrameStore, HEADER_BYTES};
use aaod_fabric::{
    run_decoded_netlist, run_decoded_netlist_batch, BatchScratch, ConfigPort, Device,
    DeviceGeometry, FrameAddress, FunctionKind,
};
use aaod_mem::{FunctionRecord, LocalRam, MemError, MemTiming, RecordFields, Rom, RECORD_BYTES};
use aaod_sim::{Clock, SimTime, SplitMix64};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the controller reconfigures the device on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigMode {
    /// Partial reconfiguration: only the victim/new frames change —
    /// the paper's design.
    Partial,
    /// Full reconfiguration: the whole device is erased and rewritten
    /// on every miss (the baseline a non-partially-reconfigurable
    /// FPGA forces); at most one function is resident at a time.
    Full,
}

/// Construction parameters for [`MiniOs`].
pub struct MiniOsConfig {
    /// Device shape.
    pub geometry: DeviceGeometry,
    /// Configuration ROM capacity in bytes.
    pub rom_capacity: usize,
    /// Local RAM size in bytes.
    pub ram_size: usize,
    /// Decompression window in bytes (paper §2.3).
    pub window: usize,
    /// Codec used by [`MiniOs::encode_bitstream`].
    pub codec: CodecId,
    /// Frame replacement policy.
    pub policy: Box<dyn ReplacementPolicy>,
    /// The algorithm bank behavioural images dispatch into.
    pub bank: AlgorithmBank,
    /// Partial (paper) or full (baseline) reconfiguration.
    pub mode: ReconfigMode,
    /// Speculatively pre-configure the predicted next algorithm
    /// during idle time (extension; see [`crate::prefetch`]). May
    /// evict per the replacement policy, but never the just-invoked
    /// function.
    pub prefetch: bool,
    /// Controller RAM devoted to the decoded-bitstream cache
    /// (extension; see [`crate::decoded_cache`]). Zero disables it,
    /// making every miss decompress from ROM.
    pub decoded_cache_bytes: usize,
    /// Card RAM devoted to the content-addressed frame store probed
    /// by DeltaV2 bitstreams (extension; see
    /// [`aaod_bitstream::FrameStore`]). Zero disables it, making every
    /// DeltaV2 frame decode from its record body. Bitstreams in other
    /// codecs never touch the store, so their behaviour and timing are
    /// unaffected by this knob.
    pub frame_store_bytes: usize,
}

impl Default for MiniOsConfig {
    fn default() -> Self {
        MiniOsConfig {
            geometry: DeviceGeometry::default(),
            rom_capacity: 512 * 1024,
            ram_size: 64 * 1024,
            window: 256,
            codec: CodecId::Lzss,
            policy: Box::new(LruPolicy),
            bank: AlgorithmBank::standard(),
            mode: ReconfigMode::Partial,
            prefetch: false,
            decoded_cache_bytes: 64 * 1024,
            frame_store_bytes: 256 * 1024,
        }
    }
}

impl std::fmt::Debug for MiniOsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiniOsConfig")
            .field("geometry", &self.geometry)
            .field("rom_capacity", &self.rom_capacity)
            .field("ram_size", &self.ram_size)
            .field("window", &self.window)
            .field("codec", &self.codec)
            .field("policy", &self.policy.name())
            .field("mode", &self.mode)
            .field("prefetch", &self.prefetch)
            .field("decoded_cache_bytes", &self.decoded_cache_bytes)
            .field("frame_store_bytes", &self.frame_store_bytes)
            .finish()
    }
}

/// Timing and outcome of one invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeReport {
    /// The function invoked.
    pub algo_id: u16,
    /// Whether the function was already resident.
    pub hit: bool,
    /// Whether a miss was served from the decoded-bitstream cache
    /// (skipping ROM fetch and decompression). Always false on a hit.
    pub decoded_cache_hit: bool,
    /// Algorithms evicted to make room (empty on a hit).
    pub evicted: Vec<u16>,
    /// Record-table lookup time.
    pub lookup_time: SimTime,
    /// ROM bitstream fetch time (zero on a hit).
    pub rom_time: SimTime,
    /// Decompression + configuration time (zero on a hit).
    pub reconfig_time: SimTime,
    /// Input staging time.
    pub input_time: SimTime,
    /// Fabric execution time.
    pub exec_time: SimTime,
    /// Output collection time.
    pub output_time: SimTime,
}

impl InvokeReport {
    /// Total service time of the invocation.
    pub fn total(&self) -> SimTime {
        self.lookup_time
            + self.rom_time
            + self.reconfig_time
            + self.input_time
            + self.exec_time
            + self.output_time
    }
}

/// What [`MiniOs::ensure_resident`] did to make a function resident.
struct ResidencyOutcome {
    hit: bool,
    decoded_cache_hit: bool,
    evicted: Vec<u16>,
    rom_time: SimTime,
    reconfig_time: SimTime,
}

/// A resident function's decoded payload, memoized against the frame
/// write stamps: it stands for the configured bits only while none of
/// the function's frames has been mutated since the device clock read
/// `clock`. A function only ever comes to occupy frames by having them
/// configured, which advances their stamps, so a move to other frames
/// invalidates the entry too.
struct ResidentDecode {
    clock: u64,
    kind: Arc<FunctionKind>,
}

/// The outcome of one scrub pass over the resident functions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Frames read back and checked.
    pub frames_checked: usize,
    /// Functions found corrupt and reconfigured from ROM.
    pub repaired: Vec<u16>,
    /// Total readback + repair time.
    pub time: SimTime,
}

/// The complete microcontroller: memories, modules, ledgers and policy.
pub struct MiniOs {
    device: Device,
    port: ConfigPort,
    rom: Rom,
    ram: LocalRam,
    mem_timing: MemTiming,
    config_module: ConfigModule,
    data_in: DataInputModule,
    data_out: OutputCollectionModule,
    free: FreeFrameList,
    table: ReplacementTable,
    decoded: DecodedCache,
    frame_store: FrameStore,
    policy: Box<dyn ReplacementPolicy>,
    bank: AlgorithmBank,
    codec: CodecId,
    mode: ReconfigMode,
    mcu_clock: Clock,
    fabric_clock: Clock,
    now: SimTime,
    stats: OsStats,
    details: aaod_sim::trace::DetailLog,
    armed_config_stall: u64,
    prefetch_enabled: bool,
    predictor: crate::prefetch::MarkovPredictor,
    prefetched: std::collections::BTreeSet<u16>,
    last_invoked: Option<u16>,
    /// Reusable word buffers for bit-sliced netlist batches.
    batch_scratch: BatchScratch,
    /// Reusable flat buffer for frame readback decode.
    frame_flat: Vec<u8>,
    /// Last successful frame decode per function; see
    /// [`ResidentDecode`].
    resident_decodes: BTreeMap<u16, ResidentDecode>,
}

impl std::fmt::Debug for MiniOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiniOs")
            .field("geometry", &self.device.geometry())
            .field("policy", &self.policy.name())
            .field("mode", &self.mode)
            .field("resident", &self.table.resident_ids())
            .field("now", &self.now)
            .finish()
    }
}

impl MiniOs {
    /// Builds the controller from its configuration.
    pub fn new(config: MiniOsConfig) -> Self {
        let mcu_clock = aaod_sim::clock::domains::mcu();
        let fabric_clock = aaod_sim::clock::domains::fabric();
        MiniOs {
            device: Device::new(config.geometry),
            port: ConfigPort::selectmap8(),
            rom: Rom::new(config.rom_capacity),
            ram: LocalRam::new(config.ram_size),
            mem_timing: MemTiming::default(),
            config_module: ConfigModule::new(config.window, mcu_clock),
            data_in: DataInputModule::new(mcu_clock),
            data_out: OutputCollectionModule::new(mcu_clock),
            free: FreeFrameList::new(config.geometry.frames()),
            table: ReplacementTable::new(),
            decoded: DecodedCache::new(config.decoded_cache_bytes),
            frame_store: FrameStore::new(config.frame_store_bytes),
            policy: config.policy,
            bank: config.bank,
            codec: config.codec,
            mode: config.mode,
            mcu_clock,
            fabric_clock,
            now: SimTime::ZERO,
            stats: OsStats::default(),
            details: aaod_sim::trace::DetailLog::new(),
            armed_config_stall: 0,
            prefetch_enabled: config.prefetch,
            predictor: crate::prefetch::MarkovPredictor::new(),
            prefetched: std::collections::BTreeSet::new(),
            last_invoked: None,
            batch_scratch: BatchScratch::default(),
            frame_flat: Vec::new(),
            resident_decodes: BTreeMap::new(),
        }
    }

    /// Encodes the ROM bitstream for a bank algorithm with its default
    /// parameters and this controller's codec — the host-side tooling
    /// step that precedes [`MiniOs::download`].
    ///
    /// # Errors
    ///
    /// Returns [`McuError::Algo`] for unknown ids or parameter errors.
    pub fn encode_bitstream(&self, algo_id: u16) -> Result<Vec<u8>, McuError> {
        let geom = self.device.geometry();
        let image = self.bank.build_image(algo_id, geom)?;
        let bs = Bitstream::from_image(&image, geom);
        let codec = registry::codec(self.codec, geom.frame_bytes());
        Ok(bs.encode(codec.as_ref()))
    }

    /// Downloads an encoded bitstream into the ROM, deriving the
    /// function record from its header. Returns the modelled download
    /// time (ROM programming is ~4× slower than reading).
    ///
    /// # Errors
    ///
    /// Returns bitstream errors for a malformed stream and ROM errors
    /// for duplicates or a full ROM.
    pub fn download(&mut self, encoded: &[u8]) -> Result<SimTime, McuError> {
        let header = BitstreamHeader::parse(encoded)?;
        let fields = RecordFields {
            algo_id: header.algo_id,
            uncompressed_len: header.uncompressed_len,
            codec: header.codec.to_byte(),
            input_width: header.input_width,
            output_width: header.output_width,
            n_frames: header.n_frames,
        };
        self.rom.download(fields, encoded)?;
        let t = self.mem_timing.rom_read_time(encoded.len() as u64) * 4;
        self.now += t;
        Ok(t)
    }

    /// Convenience: encode + download a bank algorithm.
    ///
    /// # Errors
    ///
    /// As [`MiniOs::encode_bitstream`] and [`MiniOs::download`].
    pub fn install(&mut self, algo_id: u16) -> Result<SimTime, McuError> {
        let encoded = self.encode_bitstream(algo_id)?;
        self.download(&encoded)
    }

    /// Services one host request: ensures the function is resident and
    /// executes it on `input`.
    ///
    /// # Errors
    ///
    /// * [`McuError::Mem`] with [`MemError::RecordNotFound`] if the
    ///   function was never downloaded.
    /// * [`McuError::FunctionTooLarge`] if it cannot fit the device.
    /// * Fabric/bitstream errors if the configuration is corrupt.
    /// * [`McuError::Algo`] for kernel-level input errors.
    pub fn invoke(
        &mut self,
        algo_id: u16,
        input: &[u8],
    ) -> Result<(Vec<u8>, InvokeReport), McuError> {
        let mut results = self.invoke_batch(algo_id, &[input])?;
        Ok(results.pop().expect("one input yields one result"))
    }

    /// Services a batch of requests for the *same* function,
    /// coalescing the miss cost: the record lookup, residency check,
    /// (re)configuration and frame-bits image decode are paid once for
    /// the whole batch, then each input is staged, executed and
    /// collected individually. The first report carries the shared
    /// costs; the remaining requests are hits by construction.
    ///
    /// Outputs are byte-identical to invoking the inputs one by one —
    /// this is what lets the serving engine batch queued misses.
    ///
    /// # Errors
    ///
    /// As [`MiniOs::invoke`]. A per-input failure (e.g. a kernel input
    /// error) aborts the batch; earlier inputs' effects stand, exactly
    /// as if they had been invoked serially.
    pub fn invoke_batch(
        &mut self,
        algo_id: u16,
        inputs: &[&[u8]],
    ) -> Result<Vec<(Vec<u8>, InvokeReport)>, McuError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        for _ in inputs {
            self.policy.on_request(algo_id);
            self.predictor.observe(algo_id);
        }

        // 1. record lookup — once per batch
        let (record, lookup_time) = self.lookup_record(algo_id)?;

        // 2. residency — once per batch
        let outcome = self.ensure_resident(&record)?;

        // 3. decode the configured bits back into an executable payload
        // — once per batch, and only if a frame changed since the last
        // decode. Any mutation (reconfiguration, SEU, tear, patch)
        // advances the frames' stamps and forces the full readback,
        // digest check and parse again.
        let frames = &self
            .table
            .get(algo_id)
            .expect("function resident at this point")
            .frames;
        let kind = match self.resident_decodes.get(&algo_id) {
            Some(memo) if self.device.stamp(frames) <= memo.clock => Arc::clone(&memo.kind),
            _ => {
                let image = self
                    .device
                    .decode_function_with(frames, &mut self.frame_flat)?;
                if image.algo_id() != algo_id {
                    return Err(McuError::RecordMismatch(format!(
                        "frames decode to algorithm {}, record says {algo_id}",
                        image.algo_id()
                    )));
                }
                let kind = Arc::new(image.kind()?);
                self.resident_decodes.insert(
                    algo_id,
                    ResidentDecode {
                        clock: self.device.clock(),
                        kind: Arc::clone(&kind),
                    },
                );
                kind
            }
        };

        // 4. netlist functions evaluate every input bit-sliced in one
        // pass (64 lanes per netlist walk) before the per-input
        // staging loop.
        let mut sliced_outputs = match kind.as_ref() {
            FunctionKind::Netlist { netlist, mode } => Some(run_decoded_netlist_batch(
                netlist,
                *mode,
                inputs,
                &mut self.batch_scratch,
            )?),
            FunctionKind::Behavioral { .. } => None,
        };

        // 5. stage/execute/collect each input
        let mut results = Vec::with_capacity(inputs.len());
        for (i, &input) in inputs.iter().enumerate() {
            let precomputed = sliced_outputs
                .as_mut()
                .map(|outs| std::mem::take(&mut outs[i]));
            let (output, input_time, exec_time, output_time) =
                self.execute_one(algo_id, &record, &kind, input, precomputed)?;
            let first = i == 0;
            let report = InvokeReport {
                algo_id,
                hit: if first { outcome.hit } else { true },
                decoded_cache_hit: first && outcome.decoded_cache_hit,
                evicted: if first {
                    outcome.evicted.clone()
                } else {
                    Vec::new()
                },
                lookup_time: if first { lookup_time } else { SimTime::ZERO },
                rom_time: if first {
                    outcome.rom_time
                } else {
                    SimTime::ZERO
                },
                reconfig_time: if first {
                    outcome.reconfig_time
                } else {
                    SimTime::ZERO
                },
                input_time,
                exec_time,
                output_time,
            };
            self.now += report.total();
            self.table.touch(algo_id, self.now);
            self.stats.requests += 1;
            if !first {
                self.stats.hits += 1;
            }
            self.stats.lookup_time += report.lookup_time;
            self.stats.rom_time += report.rom_time;
            self.stats.reconfig_time += report.reconfig_time;
            self.stats.input_time += input_time;
            self.stats.exec_time += exec_time;
            self.stats.output_time += output_time;
            results.push((output, report));
        }
        self.last_invoked = Some(algo_id);
        if self.prefetch_enabled && self.mode == ReconfigMode::Partial {
            self.maybe_prefetch();
        }
        Ok(results)
    }

    /// Looks the function record up, charging the probe cost.
    fn lookup_record(&mut self, algo_id: u16) -> Result<(FunctionRecord, SimTime), McuError> {
        let probes_before = self.rom.record_probes();
        let record = self
            .rom
            .lookup(algo_id)
            .ok_or(McuError::Mem(MemError::RecordNotFound(algo_id)))?;
        let probes = self.rom.record_probes() - probes_before;
        let lookup_time = self.mem_timing.rom_read_time(probes * RECORD_BYTES as u64);
        Ok((record, lookup_time))
    }

    /// Makes the function resident, evicting per policy and
    /// configuring from the decoded-bitstream cache or ROM as needed.
    fn ensure_resident(&mut self, record: &FunctionRecord) -> Result<ResidencyOutcome, McuError> {
        let algo_id = record.algo_id;
        let hit = self.table.contains(algo_id);
        self.details
            .push(aaod_sim::DetailEvent::Residency { algo: algo_id, hit });
        let mut outcome = ResidencyOutcome {
            hit,
            decoded_cache_hit: false,
            evicted: Vec::new(),
            rom_time: SimTime::ZERO,
            reconfig_time: SimTime::ZERO,
        };
        if hit {
            self.stats.hits += 1;
            if self.prefetched.remove(&algo_id) {
                self.stats.prefetch_hits += 1;
            }
            return Ok(outcome);
        }
        let needed = record.n_frames as usize;
        if needed > self.device.geometry().frames() {
            return Err(McuError::FunctionTooLarge {
                algo_id,
                frames: needed,
                device_frames: self.device.geometry().frames(),
            });
        }
        match self.mode {
            ReconfigMode::Partial => {
                while self.free.free_count() < needed {
                    let victim = self
                        .policy
                        .victim(&self.table)
                        .expect("non-empty table when frames are insufficient");
                    let residency = self
                        .table
                        .remove(victim)
                        .expect("policy returned a resident algorithm");
                    self.free.release(&residency.frames);
                    self.prefetched.remove(&victim);
                    self.details.push(aaod_sim::DetailEvent::Eviction {
                        algo: victim,
                        frames: residency.frames.len() as u32,
                    });
                    outcome.evicted.push(victim);
                    self.stats.evictions += 1;
                }
                let frames = self
                    .free
                    .allocate(needed)
                    .expect("free count verified above");
                let (report, rom_time, decoded_hit) = match self.configure_resident(record, &frames)
                {
                    Ok(r) => r,
                    Err(e) => {
                        // a failed configuration must not leak the
                        // frames it was given
                        self.free.release(&frames);
                        return Err(e);
                    }
                };
                outcome.rom_time = rom_time;
                outcome.reconfig_time = report.total();
                outcome.decoded_cache_hit = decoded_hit;
                self.stats.frames_configured += report.frames_written as u64;
                self.table.insert(algo_id, frames, self.now);
            }
            ReconfigMode::Full => {
                // Everything resident is lost on a full reconfig.
                for id in self.table.resident_ids() {
                    let frames = self.table.remove(id).map_or(0, |r| r.frames.len());
                    self.details.push(aaod_sim::DetailEvent::Eviction {
                        algo: id,
                        frames: frames as u32,
                    });
                    outcome.evicted.push(id);
                    self.stats.evictions += 1;
                }
                self.free.reset();
                let frames = self
                    .free
                    .allocate(needed)
                    .expect("fresh free list fits any checked function");
                // decompress (windowed, same engine), then pay the
                // full-device configuration cost instead of the
                // per-frame cost.
                let (report, rom_time, decoded_hit) = match self.configure_resident(record, &frames)
                {
                    Ok(r) => r,
                    Err(e) => {
                        self.free.release(&frames);
                        return Err(e);
                    }
                };
                let full_penalty = self
                    .port
                    .full_time(self.device.geometry())
                    .saturating_sub(report.port_time);
                outcome.rom_time = rom_time;
                outcome.reconfig_time = report.total() + full_penalty;
                outcome.decoded_cache_hit = decoded_hit;
                self.stats.frames_configured += self.device.geometry().frames() as u64;
                self.table.insert(algo_id, frames, self.now);
            }
        }
        if self.armed_config_stall > 0 {
            // An armed stall hangs the configuration port for the
            // armed cycle count on top of the real reconfiguration.
            // It only fires when a configuration actually happens —
            // a residency hit returns above without consuming it.
            let stall = std::mem::take(&mut self.armed_config_stall);
            let t = self.mcu_clock.cycles(stall);
            outcome.reconfig_time += t;
            self.details
                .push(aaod_sim::DetailEvent::ConfigStall { time: t });
            self.stats.config_stalls += 1;
            self.stats.config_stall_time += t;
        }
        self.stats.misses += 1;
        Ok(outcome)
    }

    /// Configures `frames` with the function, preferring the
    /// decoded-bitstream cache over an ROM fetch + decompression.
    /// Returns the configuration report, the ROM read time (zero on a
    /// decoded-cache hit) and whether the cache served the frames.
    fn configure_resident(
        &mut self,
        record: &FunctionRecord,
        frames: &[FrameAddress],
    ) -> Result<(ConfigReport, SimTime, bool), McuError> {
        let key = (record.algo_id, record.codec);
        if self.decoded.is_enabled() {
            if let Some(cached) = self.decoded.get(&key) {
                let report = self.config_module.configure_decoded(
                    &cached,
                    &mut self.device,
                    &self.port,
                    frames,
                )?;
                self.stats.decoded_hits += 1;
                self.stats.decoded_bytes_saved += u64::from(record.uncompressed_len);
                // the Arc hit handed the frames out without copying them
                self.stats.decoded_clone_bytes_avoided +=
                    cached.iter().map(|f| f.len() as u64).sum::<u64>();
                self.details.push(aaod_sim::DetailEvent::DecodedCache {
                    algo: record.algo_id,
                    hit: true,
                });
                self.details.push(aaod_sim::DetailEvent::PortWrite {
                    algo: record.algo_id,
                    frames: report.frames_written as u32,
                });
                return Ok((report, SimTime::ZERO, true));
            }
        }
        // borrow the bitstream straight out of ROM — disjoint fields,
        // so no per-miss copy of the encoded bytes
        let encoded = self.rom.bitstream_bytes(record);
        let rom_time = self.mem_timing.rom_read_time(encoded.len() as u64);
        self.details.push(aaod_sim::DetailEvent::RomFetch {
            algo: record.algo_id,
            bytes: encoded.len() as u64,
        });
        let (report, produced) = if record.codec == CodecId::DeltaV2.to_byte()
            && self.frame_store.is_enabled()
        {
            // v2 path: probe the content-addressed store per frame
            // record, decode only what is missing
            let before = self.frame_store.stats();
            let result = self.config_module.configure_v2(
                encoded,
                &mut self.frame_store,
                &mut self.device,
                &self.port,
                frames,
            )?;
            let after = self.frame_store.stats();
            self.stats.frame_store_hits += after.hits - before.hits;
            self.stats.frame_store_misses += after.misses - before.misses;
            self.stats.frame_store_bytes_deduped += after.bytes_deduped - before.bytes_deduped;
            result
        } else {
            self.config_module
                .configure_collect(encoded, &mut self.device, &self.port, frames)?
        };
        self.details.push(aaod_sim::DetailEvent::Decompress {
            algo: record.algo_id,
            windows: report.windows,
            bytes: report.bytes as u64,
        });
        self.details.push(aaod_sim::DetailEvent::PortWrite {
            algo: record.algo_id,
            frames: report.frames_written as u32,
        });
        if self.decoded.is_enabled() {
            self.stats.decoded_misses += 1;
            self.details.push(aaod_sim::DetailEvent::DecodedCache {
                algo: record.algo_id,
                hit: false,
            });
            self.decoded.insert(key, produced);
        }
        Ok((report, rom_time, false))
    }

    /// Stages one input, executes the decoded payload on it, and
    /// collects the output. Netlist batches are evaluated bit-sliced
    /// up front by [`MiniOs::invoke_batch`] and arrive here as
    /// `precomputed`; a `None` falls back to the scalar walk.
    fn execute_one(
        &mut self,
        algo_id: u16,
        record: &FunctionRecord,
        kind: &FunctionKind,
        input: &[u8],
        precomputed: Option<Vec<u8>>,
    ) -> Result<(Vec<u8>, SimTime, SimTime, SimTime), McuError> {
        let (_, input_time) = self.data_in.stage(
            &mut self.ram,
            &self.mem_timing,
            0,
            input,
            record.input_width,
        )?;
        let output = match (precomputed, kind) {
            (Some(out), _) => out,
            (None, FunctionKind::Netlist { netlist, mode }) => {
                run_decoded_netlist(netlist, *mode, input)?
            }
            (None, FunctionKind::Behavioral { params }) => {
                let kernel = self
                    .bank
                    .kernel(algo_id)
                    .ok_or(McuError::Algo(AlgoError::UnknownAlgorithm(algo_id)))?;
                kernel.execute(params, input)?
            }
        };
        let exec_cycles = match self.bank.kernel(algo_id) {
            Some(k) => k.fabric_cycles(input.len()),
            None => input.len() as u64 + 8,
        };
        let exec_time = self.fabric_clock.cycles(exec_cycles);
        let out_offset = self.ram.size() / 2;
        let (_, output_time) = self.data_out.collect(
            &mut self.ram,
            &self.mem_timing,
            out_offset,
            &output,
            record.output_width,
        )?;
        Ok((output, input_time, exec_time, output_time))
    }

    /// Best-effort speculative configuration of the predicted next
    /// algorithm. Runs off the critical path — the configuration
    /// happens in host think-time, so it costs
    /// [`OsStats::prefetch_time`] but does not delay any request.
    ///
    /// Prefetch may evict per the replacement policy (configuration
    /// prefetching is pointless on a full device otherwise), but it
    /// refuses to evict the function that was just invoked or the
    /// prediction target, and aborts rather than force either out.
    fn maybe_prefetch(&mut self) {
        let Some(next) = self.predictor.predict() else {
            return;
        };
        self.prefetch_hint(next);
    }

    /// Directed speculative configuration of `next` — the entry point
    /// the serving engine's predictive policy drives during a shard's
    /// idle window; `MiniOs::maybe_prefetch` routes the built-in
    /// Markov prediction through it too. Returns `true` when the
    /// function ended up resident (already installed or prefetched).
    ///
    /// Prefetches ride the exact same residency machinery as a demand
    /// miss (`configure_resident`): the decoded-bitstream cache and
    /// the DeltaV2 content-addressed frame store both serve them, and
    /// the usual `RomFetch`/`Decompress`/`PortWrite`/`DecodedCache`
    /// detail events are emitted. Evictions it performs emit
    /// [`DetailEvent::Eviction`](aaod_sim::DetailEvent) and charge
    /// `stats.evictions` exactly like demand evictions, but only once
    /// room has actually been made; an eviction pass that cannot free
    /// enough frames is rolled back untouched (nothing was erased). A
    /// speculative configuration that *fails* after its victims were
    /// released cannot resurrect them (the configure may have partly
    /// overwritten their frames), so the ledger records it in
    /// `stats.prefetch_aborted` instead.
    pub fn prefetch_hint(&mut self, next: u16) -> bool {
        if self.mode != ReconfigMode::Partial {
            return false;
        }
        if self.table.contains(next) {
            return true;
        }
        let Some(record) = self.rom.lookup(next) else {
            return false;
        };
        let needed = record.n_frames as usize;
        if needed > self.device.geometry().frames() {
            return false;
        }
        let mut evicted_for_prefetch: Vec<(u16, Vec<aaod_fabric::FrameAddress>)> = Vec::new();
        while self.free.free_count() < needed {
            let Some(victim) = self.policy.victim(&self.table) else {
                break;
            };
            if Some(victim) == self.last_invoked || victim == next {
                break; // never displace the active or target function
            }
            let residency = self
                .table
                .remove(victim)
                .expect("policy returned a resident algorithm");
            self.free.release(&residency.frames);
            self.prefetched.remove(&victim);
            evicted_for_prefetch.push((victim, residency.frames));
        }
        if self.free.free_count() < needed {
            // could not make room without touching protected functions:
            // roll the speculative evictions back (nothing was erased)
            for (victim, frames) in evicted_for_prefetch {
                self.free.reserve(&frames);
                self.table.insert(victim, frames, self.now);
            }
            return false;
        }
        for (victim, frames) in &evicted_for_prefetch {
            self.details.push(aaod_sim::DetailEvent::Eviction {
                algo: *victim,
                frames: frames.len() as u32,
            });
            self.stats.evictions += 1;
        }
        let frames = self
            .free
            .allocate(needed)
            .expect("free count verified above");
        match self.configure_resident(&record, &frames) {
            Ok((report, rom_time, _decoded_hit)) => {
                self.stats.frames_configured += report.frames_written as u64;
                self.stats.prefetches += 1;
                self.stats.prefetch_time += rom_time + report.total();
                self.table.insert(next, frames, self.now);
                self.prefetched.insert(next);
                true
            }
            Err(_) => {
                // speculative work is best-effort: give the frames
                // back and reconcile the ledger — the victims are
                // gone (their frames may be partly overwritten) with
                // no resident target to show for it.
                self.free.release(&frames);
                self.stats.prefetch_aborted += 1;
                false
            }
        }
    }

    /// Executes one host [`Command`](crate::command::Command),
    /// returning its [`Response`](crate::command::Response) and the
    /// controller time consumed. This is the instruction interface of
    /// paper §2.1; the host driver in `aaod-core` ships these over
    /// PCI.
    ///
    /// # Errors
    ///
    /// Propagates the underlying operation's error.
    pub fn dispatch(
        &mut self,
        command: crate::command::Command,
    ) -> Result<(crate::command::Response, SimTime), McuError> {
        use crate::command::{Command, Response};
        // fixed decode/dispatch overhead on the controller
        let overhead = self.mcu_clock.cycles(32);
        match command {
            Command::Download { bitstream } => {
                let t = self.download(&bitstream)?;
                Ok((Response::Done, t + overhead))
            }
            Command::Invoke { algo_id, input } => {
                let (output, report) = self.invoke(algo_id, &input)?;
                Ok((Response::Output(output), report.total() + overhead))
            }
            Command::Evict { algo_id } => {
                let t = self.evict(algo_id)?;
                Ok((Response::Done, t + overhead))
            }
            Command::QueryResident => Ok((Response::Resident(self.resident()), overhead)),
            Command::QueryStats => Ok((
                Response::Stats {
                    requests: self.stats.requests,
                    hits: self.stats.hits,
                    misses: self.stats.misses,
                    evictions: self.stats.evictions,
                },
                overhead,
            )),
            Command::Reset => {
                let t = self.reset();
                Ok((Response::Done, t + overhead))
            }
        }
    }

    /// Fault injection: arms a one-shot configuration-port stall. The
    /// next reconfiguration (a residency *miss* — hits never touch the
    /// port) takes `cycles` extra controller cycles, as if the port
    /// hung mid-configuration before recovering. Arming again before
    /// the stall fires replaces the pending cycle count.
    pub fn arm_config_stall(&mut self, cycles: u64) {
        self.armed_config_stall = cycles;
    }

    /// Pending stall cycles not yet consumed (zero when disarmed).
    pub fn armed_config_stall(&self) -> u64 {
        self.armed_config_stall
    }

    /// Disarms a pending configuration stall, returning the cycle
    /// count that was still armed.
    pub fn disarm_config_stall(&mut self) -> u64 {
        std::mem::take(&mut self.armed_config_stall)
    }

    /// Power-cycles the fabric: erases every frame, clears the free
    /// frame list, replacement table and counters. The ROM contents
    /// (flash) survive, so downloaded functions remain installable.
    /// Returns the time of the full-device erase.
    pub fn reset(&mut self) -> SimTime {
        let geom = self.device.geometry();
        self.device = Device::new(geom);
        // the fresh device's mutation clock restarts at zero, so no
        // earlier decode can be validated against its stamps
        self.resident_decodes.clear();
        self.free.reset();
        self.table = ReplacementTable::new();
        // The watchdog ledger restarts from zero: drop the decoded
        // population AND its counters, so `hits + misses == lookups`
        // holds over the post-reset population alone.
        self.decoded.clear();
        self.decoded.reset_stats();
        self.frame_store.clear();
        self.frame_store.reset_stats();
        self.stats = OsStats::default();
        self.armed_config_stall = 0;
        self.predictor.clear();
        self.prefetched.clear();
        self.last_invoked = None;
        let t = self.port.full_time(geom);
        self.now += t;
        t
    }

    /// Readback scrubbing: re-reads every resident function's frames,
    /// verifies the image digest, and repairs any corrupted function
    /// by reconfiguring it in place from its ROM bitstream.
    ///
    /// Real Virtex-class devices suffer configuration-memory upsets
    /// (SEUs); periodic scrubbing is the standard defence, and the
    /// image digest gives this controller an end-to-end check that
    /// readback-CRC hardware would provide on silicon.
    ///
    /// # Errors
    ///
    /// Returns an error only if a repair itself fails (e.g. the ROM
    /// copy is also corrupt); detection alone never fails.
    pub fn scrub(&mut self) -> Result<ScrubReport, McuError> {
        let geom = self.device.geometry();
        let ids = self.table.resident_ids();
        let mut report = ScrubReport::default();
        for id in ids {
            let frames = &self
                .table
                .get(id)
                .expect("resident id from the table")
                .frames;
            // readback cost: pulling the frames back through the port
            report.time += self.port.frames_time(geom, frames.len());
            report.frames_checked += frames.len();
            let healthy = matches!(
                self.device.decode_function_with(frames, &mut self.frame_flat),
                Ok(img) if img.algo_id() == id
            );
            if healthy {
                continue;
            }
            // repair in place from ROM
            let record = self
                .rom
                .lookup(id)
                .ok_or(McuError::Mem(MemError::RecordNotFound(id)))?;
            let encoded = self.rom.bitstream_bytes(&record);
            report.time += self.mem_timing.rom_read_time(encoded.len() as u64);
            let config =
                self.config_module
                    .configure(encoded, &mut self.device, &self.port, frames)?;
            report.time += config.total();
            report.repaired.push(id);
        }
        self.now += report.time;
        self.stats.scrubs += 1;
        self.stats.scrub_repairs += report.repaired.len() as u64;
        self.stats.scrub_time += report.time;
        Ok(report)
    }

    /// Fault injection: flips one configuration bit of a resident
    /// function (a single-event upset). The flipped bit lands in the
    /// function's first frame, inside the image header/digest region,
    /// so the upset is always detectable on the next decode. Returns
    /// `false` (no injection) when the function is not resident —
    /// radiation can only strike configured frames.
    ///
    /// Injections are free of modelled time: an SEU is an event, not
    /// an operation the controller performs.
    pub fn inject_seu(&mut self, algo_id: u16, rng: &mut SplitMix64) -> bool {
        let Some(residency) = self.table.get(algo_id) else {
            return false;
        };
        let target = residency.frames[0];
        let limit = 64.min(self.device.geometry().frame_bytes());
        let byte = rng.index(limit);
        let bit = rng.index(8) as u8;
        self.device
            .flip_bit(target, byte, bit)
            .expect("resident frame address is valid");
        true
    }

    /// Fault injection: tears a resident function's configuration, as
    /// if a background reconfiguration died partway — the tail half of
    /// its frames (at least one) is erased. Returns `false` when the
    /// function is not resident.
    pub fn inject_torn(&mut self, algo_id: u16) -> bool {
        let Some(residency) = self.table.get(algo_id) else {
            return false;
        };
        let frames = residency.frames.clone();
        let start = (frames.len() / 2).min(frames.len() - 1);
        for &addr in &frames[start..] {
            self.device
                .clear_frame(addr)
                .expect("resident frame address is valid");
        }
        true
    }

    /// Fault injection: corrupts one byte of the function's stored ROM
    /// payload (flash bit-rot), past the header so the damage is
    /// caught by the bitstream CRC rather than rejected at parse. The
    /// function is evicted and its decoded-cache entries purged, so
    /// the next use must re-read the rotten ROM image — guaranteeing
    /// the fault activates instead of hiding behind a cached decode.
    ///
    /// # Errors
    ///
    /// Returns [`McuError::Mem`] with [`MemError::RecordNotFound`] if
    /// the function was never downloaded.
    pub fn inject_rom_rot(&mut self, algo_id: u16, rng: &mut SplitMix64) -> Result<(), McuError> {
        let record = self
            .rom
            .records()
            .into_iter()
            .find(|r| r.algo_id == algo_id)
            .ok_or(McuError::Mem(MemError::RecordNotFound(algo_id)))?;
        let payload_len = record.compressed_len as usize - HEADER_BYTES;
        let offset = HEADER_BYTES + rng.index(payload_len);
        let mask = rng.next_u8() | 1;
        self.rom.corrupt_payload(algo_id, offset, mask)?;
        if self.table.contains(algo_id) {
            self.evict(algo_id)?;
        }
        self.purge_decoded(algo_id);
        Ok(())
    }

    /// Drops every decoded-bitstream cache entry for `algo_id`,
    /// returning how many were held. Recovery calls this after ROM
    /// corruption so a stale decode cannot mask the damage.
    pub fn purge_decoded(&mut self, algo_id: u16) -> usize {
        self.decoded.remove_algo(algo_id)
    }

    /// ROM patrol: CRC-verifies every stored bitstream payload and
    /// returns the ids whose image is corrupt, charging the read time
    /// to the controller clock. The recovery layer runs this as its
    /// final sweep so flash rot that never surfaced during serving is
    /// still found and repaired — zero silent corruption.
    pub fn rom_patrol(&mut self) -> (Vec<u16>, SimTime) {
        let mut corrupt = Vec::new();
        let mut scanned = 0u64;
        for record in self.rom.records() {
            let encoded = self.rom.bitstream_bytes(&record).to_vec();
            scanned += encoded.len() as u64;
            let ok = BitstreamHeader::parse(&encoded)
                .and_then(|h| h.verify_payload(&encoded[HEADER_BYTES..]))
                .is_ok();
            if !ok {
                corrupt.push(record.algo_id);
            }
        }
        let t = self.mem_timing.rom_read_time(scanned);
        self.now += t;
        (corrupt, t)
    }

    /// Corruption recovery: re-downloads a function whose ROM image
    /// went bad. The function is evicted (if resident), its decoded
    /// cache entries are purged, the rotten record is removed from the
    /// ROM, and a fresh image is encoded and downloaded. Returns the
    /// total modelled recovery time, also charged to the clock.
    ///
    /// # Errors
    ///
    /// Returns [`McuError::Mem`] with [`MemError::RecordNotFound`] if
    /// the function was never downloaded, or a ROM error if the fresh
    /// image no longer fits (fragmented flash).
    pub fn redownload(&mut self, algo_id: u16) -> Result<SimTime, McuError> {
        let mut t = SimTime::ZERO;
        if self.table.contains(algo_id) {
            t += self.evict(algo_id)?;
        }
        self.purge_decoded(algo_id);
        self.rom.remove_record(algo_id)?;
        t += self.install(algo_id)?;
        self.stats.redownloads += 1;
        self.stats.redownload_time += t;
        Ok(t)
    }

    /// Manually evicts a resident function, erasing its frames.
    ///
    /// # Errors
    ///
    /// Returns [`McuError::Mem`] with [`MemError::RecordNotFound`] if
    /// the function is not resident.
    pub fn evict(&mut self, algo_id: u16) -> Result<SimTime, McuError> {
        let residency = self
            .table
            .remove(algo_id)
            .ok_or(McuError::Mem(MemError::RecordNotFound(algo_id)))?;
        let mut t = SimTime::ZERO;
        for &addr in &residency.frames {
            t += self.port.clear_frame(&mut self.device, addr)?;
        }
        self.free.release(&residency.frames);
        self.prefetched.remove(&algo_id);
        self.now += t;
        Ok(t)
    }

    /// Currently resident algorithm ids.
    pub fn resident(&self) -> Vec<u16> {
        self.table.resident_ids()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    /// Enables or disables the observability detail log. When
    /// enabled, residency checks, cache outcomes, evictions, ROM
    /// fetches, decompressions, port writes and config stalls are
    /// buffered as [`aaod_sim::DetailEvent`]s for the trace assembler
    /// to drain. Recording never advances modelled time.
    pub fn set_trace(&mut self, on: bool) {
        self.details.set_enabled(on);
    }

    /// Whether the detail log is recording.
    pub fn trace_enabled(&self) -> bool {
        self.details.enabled()
    }

    /// Drains the buffered detail events.
    pub fn take_details(&mut self) -> Vec<aaod_sim::DetailEvent> {
        self.details.take()
    }

    /// Moves the buffered detail events into `dst` without allocating
    /// (the allocation-free counterpart of
    /// [`MiniOs::take_details`]; see
    /// [`aaod_sim::DetailLog::drain_into_log`]).
    pub fn drain_details_into(&mut self, dst: &mut aaod_sim::DetailLog) {
        self.details.drain_into_log(dst);
    }

    /// The controller's monotonic simulated clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The replacement policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The device geometry.
    pub fn geometry(&self) -> DeviceGeometry {
        self.device.geometry()
    }

    /// Free frames currently available.
    pub fn free_frames(&self) -> usize {
        self.free.free_count()
    }

    /// Immutable view of the device (inspection/tests).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable view of the device — the fault-injection hook used by
    /// tests to corrupt configured frames.
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Immutable view of the ROM.
    pub fn rom(&self) -> &Rom {
        &self.rom
    }

    /// The frame replacement table.
    pub fn table(&self) -> &ReplacementTable {
        &self.table
    }

    /// The decoded-bitstream cache (inspection/tests).
    pub fn decoded_cache(&self) -> &DecodedCache {
        &self.decoded
    }

    /// The content-addressed frame store (inspection/tests).
    pub fn frame_store(&self) -> &FrameStore {
        &self.frame_store
    }

    /// The bank the controller dispatches into.
    pub fn bank(&self) -> &AlgorithmBank {
        &self.bank
    }

    /// The mini-OS clock domain.
    pub fn mcu_clock(&self) -> Clock {
        self.mcu_clock
    }

    /// Renders the device's frame ownership as a one-line-per-16-frames
    /// text map: `.` = free, otherwise the owning algorithm id modulo
    /// 16 as a hex digit. Purely diagnostic.
    ///
    /// # Examples
    ///
    /// ```
    /// use aaod_mcu::{MiniOs, MiniOsConfig};
    ///
    /// let os = MiniOs::new(MiniOsConfig::default());
    /// assert!(os.frame_map().chars().filter(|&c| c == '.').count() >= 96);
    /// ```
    pub fn frame_map(&self) -> String {
        let frames = self.device.geometry().frames();
        let mut owner = vec![None::<u16>; frames];
        for (id, residency) in self.table.iter() {
            for f in &residency.frames {
                owner[f.index()] = Some(id);
            }
        }
        let mut out = String::with_capacity(frames + frames / 16 * 8);
        for (i, slot) in owner.iter().enumerate() {
            if i % 16 == 0 {
                if i > 0 {
                    out.push('\n');
                }
                out.push_str(&format!("{i:>4}  "));
            }
            match slot {
                None => out.push('.'),
                Some(id) => out.push(char::from_digit((id % 16) as u32, 16).expect("mod 16 digit")),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_algos::ids;
    use aaod_fabric::FabricError;

    fn small_os(frames: u16, policy: Box<dyn ReplacementPolicy>) -> MiniOs {
        MiniOs::new(MiniOsConfig {
            geometry: DeviceGeometry::new(frames, 16),
            policy,
            ..MiniOsConfig::default()
        })
    }

    fn os_with(algos: &[u16]) -> MiniOs {
        let mut os = MiniOs::new(MiniOsConfig::default());
        for &id in algos {
            os.install(id).unwrap();
        }
        os
    }

    #[test]
    fn end_to_end_crc32() {
        let mut os = os_with(&[ids::CRC32]);
        let (out, report) = os.invoke(ids::CRC32, b"123456789").unwrap();
        assert_eq!(out, 0xCBF4_3926u32.to_le_bytes().to_vec());
        assert!(!report.hit);
        assert!(report.reconfig_time > SimTime::ZERO);
        let (_, report2) = os.invoke(ids::CRC32, b"123456789").unwrap();
        assert!(report2.hit);
        assert_eq!(report2.reconfig_time, SimTime::ZERO);
        assert!(report2.total() < report.total());
    }

    #[test]
    fn netlist_function_executes_from_bits() {
        let mut os = os_with(&[ids::CRC8]);
        let (out, _) = os.invoke(ids::CRC8, b"123456789").unwrap();
        assert_eq!(out, vec![0xF4]);
    }

    #[test]
    fn aes_on_demand_matches_software() {
        let mut os = os_with(&[ids::AES128]);
        let input = b"exactly 16 bytes";
        let (hw, _) = os.invoke(ids::AES128, input).unwrap();
        let sw = os.bank().execute_software(ids::AES128, input).unwrap();
        assert_eq!(hw, sw);
    }

    #[test]
    fn unknown_function_errors() {
        let mut os = os_with(&[]);
        assert!(matches!(
            os.invoke(777, b"x"),
            Err(McuError::Mem(MemError::RecordNotFound(777)))
        ));
    }

    #[test]
    fn eviction_under_pressure_lru() {
        // Device with 40 frames: AES (24) + SHA1 (12) fit; adding
        // SHA256 (16) must evict the least recently used (AES).
        let mut os = small_os(40, Box::new(LruPolicy));
        for id in [ids::AES128, ids::SHA1, ids::SHA256] {
            os.install(id).unwrap();
        }
        os.invoke(ids::AES128, &[0; 16]).unwrap();
        os.invoke(ids::SHA1, b"x").unwrap(); // SHA1 more recent than AES
        let (_, report) = os.invoke(ids::SHA256, b"y").unwrap();
        assert_eq!(report.evicted, vec![ids::AES128]);
        assert_eq!(os.resident(), vec![ids::SHA1, ids::SHA256]);
        // AES comes back on demand
        let (_, report) = os.invoke(ids::AES128, &[0; 16]).unwrap();
        assert!(!report.hit);
    }

    #[test]
    fn multiple_evictions_when_one_is_not_enough() {
        // 30 frames; CRC32 (2) + XTEA (6) + SHA1 (12) resident = 20 used.
        // AES needs 24 -> must evict enough algorithms to free 14+ frames.
        let mut os = small_os(30, Box::new(LruPolicy));
        for id in [ids::CRC32, ids::XTEA, ids::SHA1, ids::AES128] {
            os.install(id).unwrap();
        }
        os.invoke(ids::CRC32, b"a").unwrap();
        os.invoke(ids::XTEA, &[0; 8]).unwrap();
        os.invoke(ids::SHA1, b"b").unwrap();
        let (_, report) = os.invoke(ids::AES128, &[0; 16]).unwrap();
        assert!(report.evicted.len() >= 2, "evicted {:?}", report.evicted);
        assert!(os.resident().contains(&ids::AES128));
    }

    #[test]
    fn function_too_large_rejected() {
        let mut os = small_os(8, Box::new(LruPolicy));
        os.install(ids::AES128).unwrap(); // needs 24 > 8
        assert!(matches!(
            os.invoke(ids::AES128, &[0; 16]),
            Err(McuError::FunctionTooLarge { frames: 24, .. })
        ));
    }

    #[test]
    fn full_mode_keeps_single_resident() {
        let mut os = MiniOs::new(MiniOsConfig {
            mode: ReconfigMode::Full,
            ..MiniOsConfig::default()
        });
        for id in [ids::CRC32, ids::XTEA] {
            os.install(id).unwrap();
        }
        os.invoke(ids::CRC32, b"a").unwrap();
        assert_eq!(os.resident(), vec![ids::CRC32]);
        let (_, report) = os.invoke(ids::XTEA, &[0; 8]).unwrap();
        assert_eq!(report.evicted, vec![ids::CRC32]);
        assert_eq!(os.resident(), vec![ids::XTEA]);
    }

    #[test]
    fn full_mode_costs_more_than_partial() {
        let mut partial = os_with(&[ids::CRC32]);
        let mut full = MiniOs::new(MiniOsConfig {
            mode: ReconfigMode::Full,
            ..MiniOsConfig::default()
        });
        full.install(ids::CRC32).unwrap();
        let (_, rp) = partial.invoke(ids::CRC32, b"a").unwrap();
        let (_, rf) = full.invoke(ids::CRC32, b"a").unwrap();
        assert!(
            rf.reconfig_time > rp.reconfig_time * 3,
            "full {} vs partial {}",
            rf.reconfig_time,
            rp.reconfig_time
        );
    }

    #[test]
    fn corrupted_frame_detected_at_execution() {
        let mut os = os_with(&[ids::SHA1]);
        os.invoke(ids::SHA1, b"seed").unwrap();
        // corrupt one byte of one frame SHA1 occupies
        let frames = os.table().get(ids::SHA1).unwrap().frames.clone();
        let addr = frames[frames.len() / 2];
        let mut bytes = os.device().read_frame(addr).unwrap().to_vec();
        bytes[7] ^= 0x40;
        os.device_mut().write_frame(addr, &bytes).unwrap();
        let err = os.invoke(ids::SHA1, b"seed").unwrap_err();
        assert!(
            matches!(err, McuError::Fabric(_)),
            "corruption slipped through: {err}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut os = os_with(&[ids::CRC32, ids::PARITY8]);
        os.invoke(ids::CRC32, b"a").unwrap();
        os.invoke(ids::CRC32, b"b").unwrap();
        os.invoke(ids::PARITY8, b"c").unwrap();
        let s = os.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert!(s.total_time() > SimTime::ZERO);
    }

    #[test]
    fn manual_evict_clears_frames() {
        let mut os = os_with(&[ids::CRC32]);
        os.invoke(ids::CRC32, b"a").unwrap();
        let frames = os.table().get(ids::CRC32).unwrap().frames.clone();
        let free_before = os.free_frames();
        os.evict(ids::CRC32).unwrap();
        assert_eq!(os.free_frames(), free_before + frames.len());
        assert!(os.resident().is_empty());
        for addr in frames {
            assert!(os
                .device()
                .read_frame(addr)
                .unwrap()
                .iter()
                .all(|&b| b == 0));
        }
        assert!(os.evict(ids::CRC32).is_err());
    }

    #[test]
    fn time_is_monotonic() {
        let mut os = os_with(&[ids::CRC32]);
        let t0 = os.now();
        os.invoke(ids::CRC32, b"a").unwrap();
        let t1 = os.now();
        os.invoke(ids::CRC32, b"b").unwrap();
        let t2 = os.now();
        assert!(t0 < t1 && t1 < t2);
    }

    #[test]
    fn prefetch_preconfigures_predicted_next() {
        // Alternate XTEA/MATMUL8 so the predictor learns the pattern;
        // after evicting MATMUL8 and invoking XTEA, the controller
        // should speculatively bring MATMUL8 back.
        let mut os = MiniOs::new(MiniOsConfig {
            prefetch: true,
            ..MiniOsConfig::default()
        });
        os.install(ids::XTEA).unwrap();
        os.install(ids::MATMUL8).unwrap();
        os.invoke(ids::XTEA, &[0; 8]).unwrap();
        os.invoke(ids::MATMUL8, &[0; 128]).unwrap();
        os.evict(ids::MATMUL8).unwrap();
        os.invoke(ids::XTEA, &[0; 8]).unwrap();
        assert!(
            os.resident().contains(&ids::MATMUL8),
            "predicted next function was not prefetched: {:?}",
            os.resident()
        );
        let (_, report) = os.invoke(ids::MATMUL8, &[0; 128]).unwrap();
        assert!(report.hit, "prefetched function should hit");
        let s = os.stats();
        assert!(s.prefetches >= 1);
        assert_eq!(s.prefetch_hits, 1);
        assert!(s.prefetch_time > SimTime::ZERO);
    }

    #[test]
    fn prefetch_never_evicts_and_keeps_ledgers_consistent() {
        // Device too small for both big functions: prefetch must
        // refuse to displace the resident one.
        let mut os = MiniOs::new(MiniOsConfig {
            geometry: DeviceGeometry::new(26, 16),
            prefetch: true,
            ..MiniOsConfig::default()
        });
        os.install(ids::AES128).unwrap(); // 24 frames
        os.install(ids::SHA1).unwrap(); // 12 frames
        for _ in 0..3 {
            os.invoke(ids::AES128, &[0; 16]).unwrap();
            os.invoke(ids::SHA1, b"x").unwrap();
        }
        let resident = os.resident();
        let used: usize = resident
            .iter()
            .map(|&id| os.table().get(id).unwrap().frames.len())
            .sum();
        assert_eq!(used + os.free_frames(), 26, "frame ledger out of balance");
        // correctness under prefetch pressure
        let (out, _) = os.invoke(ids::SHA1, b"abc").unwrap();
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn prefetch_rides_the_decoded_cache() {
        // Regression: prefetch used to configure through the raw v1
        // path (ConfigModule::configure + raw ROM read), bypassing
        // the decoded-bitstream cache the demand path uses — so a
        // speculative configure of an already-decoded function still
        // paid full ROM + decompression.
        let mut os = os_with(&[ids::SHA1]);
        os.invoke(ids::SHA1, b"x").unwrap(); // decodes + caches SHA1
        os.evict(ids::SHA1).unwrap();
        let before = os.stats();
        assert!(os.prefetch_hint(ids::SHA1), "prefetch should succeed");
        let s = os.stats();
        assert_eq!(
            s.decoded_hits,
            before.decoded_hits + 1,
            "prefetch bypassed the decoded cache"
        );
        assert_eq!(s.prefetches, before.prefetches + 1);
        assert!(os.resident().contains(&ids::SHA1));
        // the speculative configure must not touch demand-path timers
        assert_eq!(s.rom_time, before.rom_time);
        assert_eq!(s.reconfig_time, before.reconfig_time);
        assert!(s.prefetch_time > before.prefetch_time);
    }

    #[test]
    fn prefetch_deltav2_hits_the_frame_store() {
        // Same regression, v2 arm: a DeltaV2 prefetch must probe the
        // content-addressed frame store like a demand miss does.
        let mut os = MiniOs::new(MiniOsConfig {
            codec: CodecId::DeltaV2,
            decoded_cache_bytes: 0,
            ..MiniOsConfig::default()
        });
        os.install(ids::SHA1).unwrap();
        os.invoke(ids::SHA1, b"x").unwrap(); // populates the store
        os.evict(ids::SHA1).unwrap();
        let before = os.stats();
        assert!(os.prefetch_hint(ids::SHA1));
        let s = os.stats();
        assert!(
            s.frame_store_hits > before.frame_store_hits,
            "prefetch bypassed the frame store: {s:?}"
        );
    }

    #[test]
    fn prefetch_evictions_emit_detail_events() {
        // Regression: prefetch evictions never emitted
        // DetailEvent::Eviction, so trace eviction counts disagreed
        // with stats.evictions whenever prefetch evicted.
        let mut os = MiniOs::new(MiniOsConfig {
            geometry: DeviceGeometry::new(40, 16),
            ..MiniOsConfig::default()
        });
        os.set_trace(true);
        os.install(ids::SHA256).unwrap(); // 16 frames (ROM record)
        os.install(ids::AES128).unwrap(); // 24 frames
        os.install(ids::SHA1).unwrap(); // 12 frames — evicts SHA256
        os.invoke(ids::AES128, &[0; 16]).unwrap();
        os.invoke(ids::SHA1, b"x").unwrap();
        assert!(!os.resident().contains(&ids::SHA256));
        os.take_details(); // discard bring-up + serving details
                           // SHA256 (16 frames) needs room: AES (LRU victim) must go.
        let before = os.stats().evictions;
        assert!(os.prefetch_hint(ids::SHA256));
        let evicted = os.stats().evictions - before;
        assert!(evicted >= 1, "prefetch should have evicted");
        let details = os.take_details();
        let detail_evictions = details
            .iter()
            .filter(|e| matches!(e, aaod_sim::DetailEvent::Eviction { .. }))
            .count() as u64;
        assert_eq!(
            detail_evictions, evicted,
            "trace and ledger eviction counts disagree: {details:?}"
        );
    }

    #[test]
    fn aborted_prefetch_reconciles_the_ledger() {
        // Regression: a speculative configure that failed after its
        // victims were evicted left the card with fewer residents and
        // no installed target, with nothing in OsStats tying the two
        // together. The abort now shows up in `prefetch_aborted`.
        let mut os = MiniOs::new(MiniOsConfig {
            geometry: DeviceGeometry::new(40, 16),
            ..MiniOsConfig::default()
        });
        os.install(ids::SHA256).unwrap(); // 16 frames (ROM record)
        os.install(ids::AES128).unwrap(); // 24 frames
        os.install(ids::SHA1).unwrap(); // 12 frames — evicts SHA256
        os.invoke(ids::AES128, &[0; 16]).unwrap();
        os.invoke(ids::SHA1, b"x").unwrap();
        // Rot SHA256's ROM image so its speculative configure fails
        // at the CRC check, *after* the eviction pass made room.
        let mut rng = SplitMix64::new(42);
        os.inject_rom_rot(ids::SHA256, &mut rng).unwrap();
        let free_before = os.free_frames();
        let before = os.stats();
        assert!(!os.prefetch_hint(ids::SHA256), "rotten image must fail");
        let s = os.stats();
        assert_eq!(s.prefetch_aborted, before.prefetch_aborted + 1);
        assert_eq!(s.prefetches, before.prefetches, "no prefetch charged");
        assert!(!os.resident().contains(&ids::SHA256));
        // The target's frames were released back: the ledger balances
        // (victims stay evicted, and their frames are free again).
        let used: usize = os
            .resident()
            .iter()
            .map(|&id| os.table().get(id).unwrap().frames.len())
            .sum();
        assert_eq!(used + os.free_frames(), 40, "frame ledger out of balance");
        assert!(
            os.free_frames() >= free_before,
            "aborted prefetch leaked frames"
        );
        // The eviction the abort charged is visible in the ledger.
        assert_eq!(s.evictions, before.evictions + 1);
    }

    #[test]
    fn prefetch_disabled_by_default() {
        let mut os = os_with(&[ids::XTEA, ids::CRC32]);
        for _ in 0..4 {
            os.invoke(ids::XTEA, &[0; 8]).unwrap();
            os.invoke(ids::CRC32, b"x").unwrap();
        }
        assert_eq!(os.stats().prefetches, 0);
    }

    #[test]
    fn scrub_clean_device_repairs_nothing() {
        let mut os = os_with(&[ids::SHA1, ids::CRC8]);
        os.invoke(ids::SHA1, b"x").unwrap();
        os.invoke(ids::CRC8, b"y").unwrap();
        let report = os.scrub().unwrap();
        assert!(report.repaired.is_empty());
        assert_eq!(report.frames_checked, 13); // 12 + 1
        assert!(report.time > SimTime::ZERO);
        assert_eq!(os.stats().scrubs, 1);
    }

    #[test]
    fn scrub_repairs_seu_corruption_in_place() {
        let mut os = os_with(&[ids::SHA256]);
        os.invoke(ids::SHA256, b"x").unwrap();
        let frames = os.table().get(ids::SHA256).unwrap().frames.clone();
        let mut bytes = os.device().read_frame(frames[3]).unwrap().to_vec();
        bytes[100] ^= 0x08; // single-event upset
        os.device_mut().write_frame(frames[3], &bytes).unwrap();
        let report = os.scrub().unwrap();
        assert_eq!(report.repaired, vec![ids::SHA256]);
        assert_eq!(os.stats().scrub_repairs, 1);
        // the function works again, still at the same placement
        let (out, r) = os.invoke(ids::SHA256, b"abc").unwrap();
        assert!(r.hit);
        assert_eq!(out[..4], [0xba, 0x78, 0x16, 0xbf]);
        assert_eq!(os.table().get(ids::SHA256).unwrap().frames, frames);
    }

    #[test]
    fn reset_clears_fabric_but_not_rom() {
        let mut os = os_with(&[ids::CRC32]);
        os.invoke(ids::CRC32, b"x").unwrap();
        let t = os.reset();
        assert!(t > SimTime::ZERO);
        assert!(os.resident().is_empty());
        assert_eq!(os.free_frames(), os.geometry().frames());
        assert_eq!(os.stats().requests, 0);
        // ROM survives: re-invoke reconfigures without re-download
        let (out, r) = os.invoke(ids::CRC32, b"123456789").unwrap();
        assert!(!r.hit);
        assert_eq!(out, 0xCBF4_3926u32.to_le_bytes().to_vec());
    }

    #[test]
    fn download_requires_valid_stream() {
        let mut os = os_with(&[]);
        assert!(os.download(&[0u8; 10]).is_err());
    }

    #[test]
    fn frame_map_shows_ownership() {
        let mut os = os_with(&[ids::CRC32, ids::SHA1]);
        os.invoke(ids::CRC32, b"a").unwrap(); // id 5, 2 frames
        os.invoke(ids::SHA1, b"b").unwrap(); // id 3, 12 frames
        let cells: String = os
            .frame_map()
            .lines()
            .map(|l| &l[6..]) // strip the "  NNN  " index prefix
            .collect();
        assert_eq!(cells.matches('5').count(), 2);
        assert_eq!(cells.matches('3').count(), 12);
        assert_eq!(cells.matches('.').count(), 96 - 14);
    }

    #[test]
    fn decoded_cache_hit_skips_rom_and_decompression() {
        let mut os = os_with(&[ids::SHA1]);
        let (out1, first) = os.invoke(ids::SHA1, b"payload").unwrap();
        assert!(!first.hit && !first.decoded_cache_hit);
        assert!(first.rom_time > SimTime::ZERO);
        os.evict(ids::SHA1).unwrap();
        let (out2, second) = os.invoke(ids::SHA1, b"payload").unwrap();
        assert_eq!(out1, out2);
        assert!(!second.hit, "eviction forces a residency miss");
        assert!(second.decoded_cache_hit);
        assert_eq!(second.rom_time, SimTime::ZERO, "ROM fetch skipped");
        assert!(
            second.reconfig_time < first.reconfig_time,
            "port-only reconfig {} must beat decompress+port {}",
            second.reconfig_time,
            first.reconfig_time
        );
        let s = os.stats();
        assert_eq!(s.decoded_misses, 1);
        assert_eq!(s.decoded_hits, 1);
        assert!(s.decoded_bytes_saved >= 12 * 896, "12 frames of 896 bytes");
        assert_eq!(
            s.decoded_clone_bytes_avoided,
            12 * 896,
            "the Arc hit hands out the 12 decoded frames uncopied"
        );
    }

    #[test]
    fn decoded_cache_disabled_always_decompresses() {
        let mut os = MiniOs::new(MiniOsConfig {
            decoded_cache_bytes: 0,
            ..MiniOsConfig::default()
        });
        os.install(ids::CRC32).unwrap();
        os.invoke(ids::CRC32, b"a").unwrap();
        os.evict(ids::CRC32).unwrap();
        let (_, report) = os.invoke(ids::CRC32, b"a").unwrap();
        assert!(!report.decoded_cache_hit);
        assert!(report.rom_time > SimTime::ZERO);
        let s = os.stats();
        assert_eq!(s.decoded_hits, 0);
        assert_eq!(s.decoded_misses, 0);
        assert_eq!(s.decoded_bytes_saved, 0);
    }

    #[test]
    fn decoded_cache_bounded_by_capacity() {
        // Cache sized for one small function only (default geometry
        // has 896-byte frames): CRC32 (2 frames = 1792B) fits, XTEA
        // (6 frames = 5376B) does not.
        let mut os = MiniOs::new(MiniOsConfig {
            decoded_cache_bytes: 2048,
            ..MiniOsConfig::default()
        });
        os.install(ids::CRC32).unwrap();
        os.install(ids::XTEA).unwrap();
        os.invoke(ids::CRC32, b"a").unwrap();
        assert_eq!(os.decoded_cache().len(), 1);
        os.invoke(ids::XTEA, &[0; 8]).unwrap(); // too big to cache
        assert_eq!(os.decoded_cache().len(), 1);
        assert!(os.decoded_cache().bytes() <= 2048);
        os.evict(ids::CRC32).unwrap();
        let (_, r) = os.invoke(ids::CRC32, b"a").unwrap();
        assert!(r.decoded_cache_hit, "small function stayed cached");
    }

    #[test]
    fn deltav2_reconfig_is_served_from_the_frame_store() {
        // Decoded cache off so the second configuration exercises the
        // ROM + frame-store path instead of the decoded cache.
        let mut os = MiniOs::new(MiniOsConfig {
            codec: CodecId::DeltaV2,
            decoded_cache_bytes: 0,
            ..MiniOsConfig::default()
        });
        os.install(ids::SHA1).unwrap();
        let (out, first) = os.invoke(ids::SHA1, b"abc").unwrap();
        assert_eq!(out, os.bank().execute_software(ids::SHA1, b"abc").unwrap());
        let s = os.stats();
        assert!(s.frame_store_misses > 0, "first config decodes: {s:?}");
        assert_eq!(s.frame_store_hits, 0);
        assert!(!os.frame_store().is_empty());
        // The store is content-addressed, so it survives eviction:
        // re-configuring ships only references.
        os.evict(ids::SHA1).unwrap();
        let (out, second) = os.invoke(ids::SHA1, b"abc").unwrap();
        assert_eq!(out, os.bank().execute_software(ids::SHA1, b"abc").unwrap());
        let s = os.stats();
        assert!(s.frame_store_hits > 0, "{s:?}");
        assert!(s.frame_store_bytes_deduped > 0);
        assert!(s.frame_store_hit_rate() > 0.0);
        assert!(
            second.reconfig_time < first.reconfig_time,
            "store hits must undercut decoding: {:?} vs {:?}",
            second.reconfig_time,
            first.reconfig_time
        );
    }

    #[test]
    fn deltav2_store_dedups_across_algorithms() {
        use aaod_algos::AliasKernel;
        use std::sync::Arc;
        let mut bank = aaod_algos::AlgorithmBank::standard();
        bank.register(Arc::new(AliasKernel::new(
            100,
            "sha1-alias",
            Arc::new(aaod_algos::crypto::Sha1),
        )));
        let mut os = MiniOs::new(MiniOsConfig {
            codec: CodecId::DeltaV2,
            decoded_cache_bytes: 0,
            bank,
            ..MiniOsConfig::default()
        });
        os.install(ids::SHA1).unwrap();
        os.install(100).unwrap();
        let (sha, _) = os.invoke(ids::SHA1, b"abc").unwrap();
        let before = os.stats();
        assert_eq!(before.frame_store_hits, 0);
        // The alias's 11 body frames are byte-identical to SHA-1's,
        // so its first-ever configuration is already mostly hits.
        let (alias, _) = os.invoke(100, b"abc").unwrap();
        assert_eq!(alias, sha, "alias behaves exactly like SHA-1");
        let s = os.stats();
        assert!(s.frame_store_hits >= 11, "{s:?}");
        assert!(s.frame_store_bytes_deduped >= 11 * 896, "{s:?}");
    }

    #[test]
    fn non_deltav2_codecs_never_touch_the_frame_store() {
        let mut os = MiniOs::new(MiniOsConfig {
            decoded_cache_bytes: 0,
            ..MiniOsConfig::default() // Lzss
        });
        os.install(ids::SHA1).unwrap();
        os.invoke(ids::SHA1, b"abc").unwrap();
        os.evict(ids::SHA1).unwrap();
        os.invoke(ids::SHA1, b"abc").unwrap();
        let s = os.stats();
        assert_eq!(s.frame_store_hits, 0);
        assert_eq!(s.frame_store_misses, 0);
        assert_eq!(s.frame_store_bytes_deduped, 0);
        assert!(os.frame_store().is_empty());
    }

    #[test]
    fn deltav2_timing_matches_with_store_disabled_or_cold() {
        // With the store disabled the DeltaV2 stream must still
        // configure correctly through the plain decode path.
        let mut os = MiniOs::new(MiniOsConfig {
            codec: CodecId::DeltaV2,
            decoded_cache_bytes: 0,
            frame_store_bytes: 0,
            ..MiniOsConfig::default()
        });
        os.install(ids::SHA1).unwrap();
        let (out, _) = os.invoke(ids::SHA1, b"abc").unwrap();
        assert_eq!(out, os.bank().execute_software(ids::SHA1, b"abc").unwrap());
        let s = os.stats();
        assert_eq!(s.frame_store_hits, 0);
        assert_eq!(s.frame_store_misses, 0);
        assert!(os.frame_store().is_empty());
    }

    #[test]
    fn reset_clears_the_frame_store() {
        let mut os = MiniOs::new(MiniOsConfig {
            codec: CodecId::DeltaV2,
            decoded_cache_bytes: 0,
            ..MiniOsConfig::default()
        });
        os.install(ids::SHA1).unwrap();
        os.invoke(ids::SHA1, b"abc").unwrap();
        assert!(!os.frame_store().is_empty());
        os.reset();
        assert!(os.frame_store().is_empty());
        assert_eq!(os.frame_store().stats(), Default::default());
    }

    #[test]
    fn batch_outputs_match_serial_invokes() {
        let inputs: Vec<&[u8]> = vec![b"alpha", b"beta", b"gamma-long-input"];
        let mut serial = os_with(&[ids::SHA256]);
        let mut expected = Vec::new();
        for &input in &inputs {
            expected.push(serial.invoke(ids::SHA256, input).unwrap());
        }
        let mut batched = os_with(&[ids::SHA256]);
        let got = batched.invoke_batch(ids::SHA256, &inputs).unwrap();
        assert_eq!(got.len(), expected.len());
        for ((out_b, rep_b), (out_s, rep_s)) in got.iter().zip(&expected) {
            assert_eq!(out_b, out_s, "batch output must be byte-identical");
            assert_eq!(rep_b.hit, rep_s.hit);
            assert_eq!(rep_b.exec_time, rep_s.exec_time);
        }
        // both controllers agree on hit/miss bookkeeping
        assert_eq!(batched.stats().hits, serial.stats().hits);
        assert_eq!(batched.stats().misses, serial.stats().misses);
        // the batch pays the record lookup once
        assert!(got[0].1.lookup_time > SimTime::ZERO);
        assert_eq!(got[1].1.lookup_time, SimTime::ZERO);
        assert!(
            batched.stats().lookup_time < serial.stats().lookup_time,
            "batching must shave repeated lookups"
        );
    }

    #[test]
    fn batch_first_request_carries_miss_cost() {
        let mut os = os_with(&[ids::CRC32]);
        let inputs: Vec<&[u8]> = vec![b"a", b"b", b"c"];
        let reports = os.invoke_batch(ids::CRC32, &inputs).unwrap();
        assert!(!reports[0].1.hit);
        assert!(reports[0].1.reconfig_time > SimTime::ZERO);
        for (_, r) in &reports[1..] {
            assert!(r.hit);
            assert_eq!(r.reconfig_time, SimTime::ZERO);
            assert_eq!(r.rom_time, SimTime::ZERO);
        }
        assert_eq!(os.stats().requests, 3);
        assert_eq!(os.stats().misses, 1);
        assert_eq!(os.stats().hits, 2);
    }

    #[test]
    fn batch_empty_is_a_no_op() {
        let mut os = os_with(&[ids::CRC32]);
        let before = os.now();
        assert!(os.invoke_batch(ids::CRC32, &[]).unwrap().is_empty());
        assert_eq!(os.stats().requests, 0);
        assert_eq!(os.now(), before);
    }

    #[test]
    fn config_stall_delays_next_miss_only() {
        let mut clean = os_with(&[ids::CRC32]);
        let (_, clean_miss) = clean.invoke(ids::CRC32, b"123456789").unwrap();
        let mut os = os_with(&[ids::CRC32]);
        os.arm_config_stall(10_000);
        let (out, report) = os.invoke(ids::CRC32, b"123456789").unwrap();
        assert_eq!(out, 0xCBF4_3926u32.to_le_bytes().to_vec());
        let stall = os.mcu_clock().cycles(10_000);
        assert_eq!(report.reconfig_time, clean_miss.reconfig_time + stall);
        assert_eq!(os.armed_config_stall(), 0);
        let s = os.stats();
        assert_eq!(s.config_stalls, 1);
        assert_eq!(s.config_stall_time, stall);
        // the next miss is back to nominal
        os.evict(ids::CRC32).unwrap();
        let (_, again) = os.invoke(ids::CRC32, b"a").unwrap();
        assert!(again.reconfig_time < report.reconfig_time);
        assert_eq!(os.stats().config_stalls, 1);
    }

    #[test]
    fn config_stall_not_consumed_by_residency_hit() {
        let mut os = os_with(&[ids::CRC32]);
        os.invoke(ids::CRC32, b"a").unwrap(); // now resident
        os.arm_config_stall(5_000);
        let (_, hit) = os.invoke(ids::CRC32, b"b").unwrap();
        assert!(hit.hit);
        assert_eq!(hit.reconfig_time, SimTime::ZERO);
        assert_eq!(os.armed_config_stall(), 5_000, "hit must not consume");
        assert_eq!(os.stats().config_stalls, 0);
        assert_eq!(os.disarm_config_stall(), 5_000);
        assert_eq!(os.armed_config_stall(), 0);
    }

    #[test]
    fn reset_clears_armed_config_stall() {
        let mut os = os_with(&[ids::CRC32]);
        os.arm_config_stall(7_000);
        os.reset();
        assert_eq!(os.armed_config_stall(), 0);
    }

    #[test]
    fn duplicate_download_rejected() {
        let mut os = os_with(&[ids::CRC32]);
        assert!(matches!(
            os.install(ids::CRC32),
            Err(McuError::Mem(MemError::DuplicateFunction(_)))
        ));
    }

    #[test]
    fn detail_log_is_off_by_default_and_free() {
        let mut os = os_with(&[ids::CRC32]);
        os.invoke(ids::CRC32, b"123456789").unwrap();
        assert!(!os.trace_enabled());
        assert!(os.take_details().is_empty());
    }

    #[test]
    fn detail_log_records_miss_then_hit_without_time_skew() {
        let mut untraced = os_with(&[ids::CRC32]);
        let mut os = os_with(&[ids::CRC32]);
        os.set_trace(true);
        os.invoke(ids::CRC32, b"123456789").unwrap();
        let details = os.take_details();
        use aaod_sim::DetailEvent as D;
        // Miss path: residency miss, ROM fetch, decompress, port
        // write, decoded-cache miss note.
        assert!(matches!(
            details[0],
            D::Residency { algo, hit: false } if algo == ids::CRC32
        ));
        assert!(details
            .iter()
            .any(|d| matches!(d, D::RomFetch { bytes, .. } if *bytes > 0)));
        assert!(details
            .iter()
            .any(|d| matches!(d, D::Decompress { windows, .. } if *windows > 0)));
        assert!(details
            .iter()
            .any(|d| matches!(d, D::PortWrite { frames, .. } if *frames > 0)));
        assert!(details
            .iter()
            .any(|d| matches!(d, D::DecodedCache { hit: false, .. })));
        // Hit path: just the residency hit.
        os.invoke(ids::CRC32, b"123456789").unwrap();
        let details = os.take_details();
        assert_eq!(details.len(), 1);
        assert!(matches!(details[0], D::Residency { hit: true, .. }));
        // Tracing observed, never perturbed, the modelled clock.
        untraced.invoke(ids::CRC32, b"123456789").unwrap();
        untraced.invoke(ids::CRC32, b"123456789").unwrap();
        assert_eq!(os.now(), untraced.now());
    }

    /// What an uncached decode of `algo`'s current frames computes on
    /// `input` — the reference a memoized invoke must agree with,
    /// errors included.
    fn uncached(os: &MiniOs, algo: u16, input: &[u8]) -> Result<Vec<u8>, McuError> {
        let frames = &os.table().get(algo).expect("resident").frames;
        let image = os.device().decode_function(frames)?;
        if image.algo_id() != algo {
            return Err(McuError::RecordMismatch(format!(
                "frames decode to algorithm {}, record says {algo}",
                image.algo_id()
            )));
        }
        Ok(match image.kind()? {
            FunctionKind::Netlist { netlist, mode } => run_decoded_netlist(&netlist, mode, input)?,
            FunctionKind::Behavioral { params } => os
                .bank()
                .kernel(algo)
                .expect("bank kernel")
                .execute(&params, input)?,
        })
    }

    /// Invokes `algo` and checks the result against [`uncached`].
    fn invoke_checked(os: &mut MiniOs, algo: u16, input: &[u8]) -> Result<Vec<u8>, McuError> {
        let got = os.invoke(algo, input).map(|(out, _)| out);
        assert_eq!(got, uncached(os, algo, input), "memoized decode went stale");
        got
    }

    #[test]
    fn seu_between_hits_surfaces_digest_mismatch() {
        let mut os = os_with(&[ids::SHA1]);
        let good = invoke_checked(&mut os, ids::SHA1, b"abc").unwrap();
        assert_eq!(invoke_checked(&mut os, ids::SHA1, b"abc").unwrap(), good);
        // seed 3 lands the flip inside the digest-covered descriptor
        assert!(os.inject_seu(ids::SHA1, &mut SplitMix64::new(3)));
        let err = invoke_checked(&mut os, ids::SHA1, b"abc").unwrap_err();
        assert!(
            matches!(err, McuError::Fabric(FabricError::DigestMismatch { .. })),
            "{err}"
        );
    }

    #[test]
    fn torn_configuration_is_never_served_from_the_memo() {
        let mut os = os_with(&[ids::XTEA]);
        invoke_checked(&mut os, ids::XTEA, &[7; 8]).unwrap();
        assert!(os.inject_torn(ids::XTEA));
        assert!(invoke_checked(&mut os, ids::XTEA, &[7; 8]).is_err());
    }

    #[test]
    fn patched_frames_change_behaviour_on_the_next_hit() {
        // Rewrite CRC8's frame with a *valid* image for the same id
        // whose netlist XOR-folds the stream instead: the digest
        // passes, so only a fresh decode can notice the new function.
        let mut os = os_with(&[ids::CRC8]);
        assert_eq!(
            invoke_checked(&mut os, ids::CRC8, b"123456789").unwrap(),
            vec![0xF4]
        );
        let mut b = aaod_fabric::NetlistBuilder::new();
        let ins = b.inputs(16); // 8 data bits + 8 state bits
        for i in 0..8 {
            let x = b.xor2(ins[i], ins[8 + i]);
            b.output(x);
        }
        let image = aaod_fabric::FunctionImage::from_netlist(
            ids::CRC8,
            b.finish().unwrap(),
            aaod_fabric::NetlistMode::Streaming,
            1,
            1,
        );
        let encoded = image.encode(os.geometry());
        let frames = os.table().get(ids::CRC8).unwrap().frames.clone();
        assert_eq!(encoded.len(), frames.len());
        for (addr, frame) in frames.iter().zip(&encoded) {
            os.device_mut().write_frame(*addr, frame).unwrap();
        }
        let xor_fold = b"123456789".iter().fold(0u8, |acc, b| acc ^ b);
        assert_eq!(
            invoke_checked(&mut os, ids::CRC8, b"123456789").unwrap(),
            vec![xor_fold]
        );
    }

    #[test]
    fn reconfiguration_into_other_frames_decodes_afresh() {
        let mut os = os_with(&[ids::CRC32, ids::XTEA]);
        let want = invoke_checked(&mut os, ids::XTEA, &[1; 8]).unwrap();
        let before = os.table().get(ids::XTEA).unwrap().frames.clone();
        os.evict(ids::XTEA).unwrap();
        // CRC32 takes the lowest freed frames, pushing XTEA elsewhere
        invoke_checked(&mut os, ids::CRC32, b"x").unwrap();
        assert_eq!(invoke_checked(&mut os, ids::XTEA, &[1; 8]).unwrap(), want);
        assert_ne!(os.table().get(ids::XTEA).unwrap().frames, before);
        assert_eq!(invoke_checked(&mut os, ids::XTEA, &[1; 8]).unwrap(), want);
    }

    #[test]
    fn prefetched_function_decodes_its_new_frames() {
        let mut os = os_with(&[ids::SHA256, ids::CRC8]);
        let want = invoke_checked(&mut os, ids::SHA256, b"abc").unwrap();
        os.evict(ids::SHA256).unwrap();
        invoke_checked(&mut os, ids::CRC8, b"y").unwrap();
        assert!(os.prefetch_hint(ids::SHA256));
        let (out, report) = os.invoke(ids::SHA256, b"abc").unwrap();
        assert!(report.hit);
        assert_eq!(out, want);
        assert_eq!(Ok(out), uncached(&os, ids::SHA256, b"abc"));
    }

    #[test]
    fn scrub_repair_restores_the_memoized_function() {
        let mut os = os_with(&[ids::SHA256]);
        let want = invoke_checked(&mut os, ids::SHA256, b"abc").unwrap();
        os.inject_seu(ids::SHA256, &mut SplitMix64::new(11));
        assert_eq!(os.scrub().unwrap().repaired, vec![ids::SHA256]);
        assert_eq!(invoke_checked(&mut os, ids::SHA256, b"abc").unwrap(), want);
        // and a fresh upset after the repair is caught again
        os.inject_seu(ids::SHA256, &mut SplitMix64::new(11));
        assert!(invoke_checked(&mut os, ids::SHA256, b"abc").is_err());
    }

    #[test]
    fn reset_drops_decodes_made_under_the_old_clock() {
        // Run the old device's mutation clock far ahead, decode CRC32
        // under it, then reset: the fresh device counts from zero, so
        // a decode kept across the reset would outrank every later
        // mutation and hide this upset.
        let mut os = os_with(&[ids::CRC32]);
        let spare = FrameAddress(os.geometry().frames() as u16 - 1);
        for _ in 0..100 {
            os.device_mut().clear_frame(spare).unwrap();
        }
        invoke_checked(&mut os, ids::CRC32, b"abc").unwrap();
        os.reset();
        invoke_checked(&mut os, ids::CRC32, b"abc").unwrap();
        let frame = os.table().get(ids::CRC32).unwrap().frames[0];
        os.device_mut().flip_bit(frame, 30, 0).unwrap();
        assert!(invoke_checked(&mut os, ids::CRC32, b"abc").is_err());
    }

    #[test]
    fn detail_log_records_evictions() {
        // 40 frames: AES (24) + SHA1 (12) fit; SHA256 (16) evicts AES.
        let mut os = small_os(40, Box::new(LruPolicy));
        for id in [ids::AES128, ids::SHA1, ids::SHA256] {
            os.install(id).unwrap();
        }
        os.invoke(ids::AES128, &[0; 16]).unwrap();
        os.invoke(ids::SHA1, b"x").unwrap();
        os.set_trace(true);
        os.invoke(ids::SHA256, b"y").unwrap();
        let details = os.take_details();
        assert!(details.iter().any(|d| matches!(
            d,
            aaod_sim::DetailEvent::Eviction { algo, frames } if *algo == ids::AES128 && *frames > 0
        )));
    }
}
