//! The traced card pass: host-clock spans around the three calls that
//! `CoProcessor::invoke` makes, plus replays of the layer functions
//! that run inside `MiniOs::invoke`, re-called with the same arguments
//! right after the request. The modelled side is fed to a
//! counters-level `Tracer`, so its stage breakdown comes from the
//! program's own `MetricsRegistry`.

use crate::spans::{Spans, NONE};
use crate::stats::{quantile_i64, quantile_u64};
use crate::workloads::{add_card_ledger, card_model, fnv, Model, Outcome};
use aaod_bitstream::Bitstream;
use aaod_core::{CoProcessor, MetricsRegistry, TraceConfig};
use aaod_sim::stats::TimeAccumulator;
use aaod_sim::trace::{Stage, Tracer};
use aaod_sim::SimTime;
use aaod_workload::Workload;
use std::hint::black_box;
use std::time::Instant;

/// The modelled stages reported per layer, with their metric names.
const STAGES: [(Stage, &str); 8] = [
    (Stage::PciIn, "stage.pci_in"),
    (Stage::Lookup, "stage.lookup"),
    (Stage::RomFetch, "stage.rom_fetch"),
    (Stage::Reconfig, "stage.reconfig"),
    (Stage::DataIn, "stage.data_in"),
    (Stage::Execute, "stage.execute"),
    (Stage::Collect, "stage.collect"),
    (Stage::PciOut, "stage.pci_out"),
];

pub struct CardPass {
    pub outcomes: Vec<Outcome>,
    /// End-to-end modelled metrics, card ledgers and registry-derived
    /// per-layer metrics.
    pub model: Model,
    /// Host per-layer metrics derived from the spans.
    pub layers: Model,
    /// Sum of the request spans: the traced counterpart of an
    /// untraced card rep's serving time.
    pub traced_serve_s: f64,
    /// Outputs that differ from `AlgorithmBank::execute_software`.
    pub mismatches: usize,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let start = Instant::now();
    let value = f();
    (value, start, Instant::now())
}

/// Serves requests `0..count` of `w` on `cp`, recording spans into
/// `spans`.
pub fn card_pass(
    cp: &mut CoProcessor,
    w: &Workload,
    count: usize,
    spans: &mut Spans,
) -> Result<CardPass, String> {
    let first_span = spans.spans.len();
    cp.set_trace(true);
    let pci0 = cp.pci_stats();
    let mut tracer = Tracer::new(TraceConfig::counters(), 0);
    let mut details = Vec::new();
    let mut flat = Vec::new();
    let mut clock = SimTime::ZERO;
    let mut service = TimeAccumulator::new();
    let mut outcomes = Vec::with_capacity(count);
    let mut hits = Vec::with_capacity(count);
    let mut mismatches = 0;
    for (i, r) in w.requests().iter().enumerate().take(count) {
        let algo = r.algo_id;
        let req = i as u64;
        // The request, exactly as `CoProcessor::invoke` makes it.
        let (input, in0, in1) = timed(|| w.input(i));
        let (pci_in, pw0, pw1) = timed(|| cp.bus_mut().write(input.len() as u64));
        let (invoked, inv0, inv1) = timed(|| cp.os_mut().invoke(algo, &input));
        let (out, os) = invoked.map_err(|e| format!("request {i}: {e}"))?;
        let (pci_out, pr0, pr1) = timed(|| cp.bus_mut().read(out.len() as u64));

        // Replays of the layers inside `MiniOs::invoke`.
        let replay0 = Instant::now();
        let os_ref = cp.os();
        let frames = &os_ref
            .table()
            .get(algo)
            .ok_or_else(|| format!("request {i}: algorithm {algo} not resident after invoke"))?
            .frames;
        let (image, fd0, fd1) = timed(|| os_ref.device().decode_function_with(frames, &mut flat));
        black_box(image.map_err(|e| format!("request {i}: frame decode: {e}"))?);
        let (software, k0, k1) = timed(|| os_ref.bank().execute_software(algo, &input));
        let software = software.map_err(|e| format!("request {i}: software kernel: {e}"))?;
        let decompressed = !os.hit && !os.decoded_cache_hit;
        let bitstream = if decompressed {
            let record = os_ref
                .rom()
                .lookup(algo)
                .ok_or_else(|| format!("request {i}: no ROM record for {algo}"))?;
            let (bs, b0, b1) = timed(|| Bitstream::decode(os_ref.rom().bitstream_bytes(&record)));
            black_box(bs.map_err(|e| format!("request {i}: bitstream decode: {e}"))?);
            Some((b0, b1))
        } else {
            None
        };
        let replay1 = Instant::now();

        let root = spans.open("request", NONE, req, in0);
        spans.push("workload.input", root, req, in0, in1);
        spans.push("pci.write", root, req, pw0, pw1);
        spans.push("mcu.invoke", root, req, inv0, inv1);
        spans.push("pci.read", root, req, pr0, pr1);
        spans.close(root, pr1);
        let replay = spans.open("replay", NONE, req, replay0);
        spans.push("fabric.decode", replay, req, fd0, fd1);
        spans.push("algos.kernel", replay, req, k0, k1);
        if let Some((b0, b1)) = bitstream {
            spans.push("bitstream.decode", replay, req, b0, b1);
        }
        spans.close(replay, replay1);

        if software != out {
            mismatches += 1;
        }
        for (stage, t) in [
            (Stage::PciIn, pci_in),
            (Stage::Lookup, os.lookup_time),
            (Stage::RomFetch, os.rom_time),
            (Stage::Reconfig, os.reconfig_time),
            (Stage::DataIn, os.input_time),
            (Stage::Execute, os.exec_time),
            (Stage::Collect, os.output_time),
            (Stage::PciOut, pci_out),
        ] {
            tracer.span(clock, t, req, stage, algo);
            clock += t;
        }
        cp.take_details_into(&mut details);
        tracer.details(clock, &details);
        service.push(pci_in + os.total() + pci_out);
        outcomes.push(Outcome::Output(fnv(&out)));
        hits.push(os.hit);
    }
    cp.set_trace(false);

    let mut model = card_model(&service, &outcomes);
    add_card_ledger(&mut model, cp, &pci0);
    add_registry(&mut model, &tracer.finish().metrics, count);
    let (layers, traced_serve_s) = layer_metrics(spans, first_span, &hits);
    Ok(CardPass {
        outcomes,
        model,
        layers,
        traced_serve_s,
        mismatches,
    })
}

/// Per-layer modelled metrics from the program's registry: each
/// stage's mean modelled time per request, and the configuration
/// bytes decompressed and fetched from ROM.
pub fn add_registry(model: &mut Model, reg: &MetricsRegistry, n: usize) {
    for (stage, name) in STAGES {
        let total = reg
            .stage_time
            .get(&stage)
            .map_or(0.0, |h| h.total().as_us());
        model.insert(name, total / n.max(1) as f64);
    }
    model.insert(
        "bitstream.decompress_bytes",
        reg.counters.decompress_bytes as f64,
    );
    model.insert("mem.rom_fetch_bytes", reg.counters.rom_fetch_bytes as f64);
}

/// Host per-layer metrics (ns) from the card pass's spans, which start
/// at index `first`; `hits[r]` says whether request `r` was a
/// residency hit. Returns them with the summed request time (s).
fn layer_metrics(spans: &Spans, first: usize, hits: &[bool]) -> (Model, f64) {
    let n = hits.len();
    let (mut input, mut pci, mut invoke) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    let (mut fabric, mut kernel) = (vec![0u64; n], vec![0u64; n]);
    let mut bitstream: Vec<Option<u64>> = vec![None; n];
    let self_ns = spans.self_ns();
    let (mut request_ns, mut request_self_ns) = (0u64, 0u64);
    for (id, s) in spans.spans.iter().enumerate().skip(first) {
        let r = s.req as usize;
        match s.name {
            "request" => {
                request_ns += s.ns();
                request_self_ns += self_ns[id];
            }
            "workload.input" => input[r] = s.ns(),
            "pci.write" | "pci.read" => pci[r] += s.ns(),
            "mcu.invoke" => invoke[r] = s.ns(),
            "fabric.decode" => fabric[r] = s.ns(),
            "algos.kernel" => kernel[r] = s.ns(),
            "bitstream.decode" => bitstream[r] = Some(s.ns()),
            _ => {}
        }
    }
    let split = |want: bool| -> Vec<u64> {
        (0..n)
            .filter(|&r| hits[r] == want)
            .map(|r| invoke[r])
            .collect()
    };
    let decoded: Vec<u64> = bitstream.iter().flatten().copied().collect();
    // Derived, not measured: what `MiniOs::invoke` spent outside the
    // replayed layers (bookkeeping, configuration, staging).
    let mcu_self: Vec<i64> = (0..n)
        .map(|r| {
            invoke[r] as i64
                - fabric[r] as i64
                - kernel[r] as i64
                - bitstream[r].unwrap_or(0) as i64
        })
        .collect();
    let entry: u64 = (0..n).map(|r| pci[r] + invoke[r]).sum();
    let mut m = Model::new();
    for (p50, p99, values) in [
        ("workload.input_ns_p50", "workload.input_ns_p99", &input),
        ("pci.transfer_ns_p50", "pci.transfer_ns_p99", &pci),
        (
            "mcu.invoke_hit_ns_p50",
            "mcu.invoke_hit_ns_p99",
            &split(true),
        ),
        (
            "mcu.invoke_miss_ns_p50",
            "mcu.invoke_miss_ns_p99",
            &split(false),
        ),
        ("fabric.decode_ns_p50", "fabric.decode_ns_p99", &fabric),
        ("algos.kernel_ns_p50", "algos.kernel_ns_p99", &kernel),
        (
            "bitstream.decode_ns_p50",
            "bitstream.decode_ns_p99",
            &decoded,
        ),
    ] {
        m.insert(p50, quantile_u64(values, 0.5) as f64);
        m.insert(p99, quantile_u64(values, 0.99) as f64);
    }
    m.insert("mcu.self_ns_p50", quantile_i64(&mcu_self, 0.5) as f64);
    m.insert("mcu.self_ns_p99", quantile_i64(&mcu_self, 0.99) as f64);
    m.insert("core.serve_ns", entry as f64 / n.max(1) as f64);
    m.insert(
        "sim.trace.coverage",
        1.0 - request_self_ns as f64 / request_ns.max(1) as f64,
    );
    (m, request_ns as f64 / 1e9)
}
