//! One rep, run in a fresh child process: time several set-ups, serve
//! the stream once, check it, and print one JSON report line.

use crate::json::Json;
use crate::layers::{add_registry, card_pass};
use crate::spans::{Spans, NONE};
use crate::stats::quantile_u64;
use crate::workloads::{fnv, guard, installed_card, serve, Kind, Model, Outcome, Refusal, System};
use aaod_algos::AlgorithmBank;
use aaod_workload::Workload;
use std::path::PathBuf;
use std::time::Instant;

/// Requests of an engine or cluster workload replayed through the
/// traced card pass: enough for stable per-call layer quantiles, small
/// enough to keep the traced rep near an untraced one.
const CARD_PASS_REQUESTS: usize = 2_000;
/// Set-ups timed per rep; the first of each rep is cold (fresh
/// process), so a rep's median is a warm set-up.
const SETUPS_PER_REP: usize = 25;

pub struct RepArgs {
    pub kind: Kind,
    pub seed: u64,
    pub smoke: bool,
    /// Run the traced pass instead of an untraced serve.
    pub traced: bool,
    /// Check every output against the software oracle.
    pub verify: bool,
    /// Where the traced pass writes its spans.
    pub out: PathBuf,
}

pub fn run(a: &RepArgs) -> Result<Json, String> {
    let kind = a.kind;
    let n = kind.n(a.smoke);
    let mut setup_s = Vec::new();
    let mut built = None;
    // Every set-up is timed; the last one serves.
    for _ in 0..SETUPS_PER_REP {
        drop(built.take());
        let t0 = Instant::now();
        let w = kind.generate(n, a.seed);
        let system = kind.build(&w, a.seed, a.traced)?;
        setup_s.push(Json::Num(t0.elapsed().as_secs_f64()));
        built = Some((w, system));
    }
    let (w, mut system) = built.expect("at least one set-up ran");
    let mut report = Json::obj()
        .with("workload", kind.name())
        .with("seed", a.seed)
        .with("n", n)
        .with("traced", a.traced)
        .with("setup_s", setup_s);

    let mut spans = Spans::new();
    let served = serve_maybe_traced(kind, &mut system, &w, a.traced, &mut spans)?;
    let failed = match served.mismatches {
        Some(m) => m,
        None if a.verify => verify(&kind.bank(), &w, &served.outcomes)?,
        None => 0,
    };
    let req_ns = &served.req_ns;
    report.set("serve_s", served.serve_s);
    report.set("req_us_p50", quantile_u64(req_ns, 0.5) as f64 / 1e3);
    report.set("req_us_p99", quantile_u64(req_ns, 0.99) as f64 / 1e3);
    report.set("digest", format!("{:016x}", digest(&served.outcomes)));
    report.set("verified", a.verify || served.mismatches.is_some());
    report.set("failed", failed);
    report.set("model", model_json(&served.model));
    if a.traced {
        report.set("layers", model_json(&served.layers));
        let path = a.out.join(format!("{}.spans.jsonl", kind.name()));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.set("spans", path.display().to_string());
    }
    let mut errors = served.errors;
    if failed > 0 {
        errors.push(format!("{failed} outputs differ from the software oracle"));
    }
    if a.traced {
        let coverage = served
            .layers
            .get("sim.trace.coverage")
            .copied()
            .unwrap_or(0.0);
        if coverage < 0.95 {
            errors.push(format!(
                "input, PCI and invoke spans cover only {coverage:.3} of the request spans"
            ));
        }
    }
    report.set("peak_rss_mb", peak_rss_mb()?);
    report.set(
        "errors",
        errors.into_iter().map(Json::Str).collect::<Vec<_>>(),
    );
    Ok(report)
}

/// A serve plus, on the traced rep, the per-layer host metrics.
struct RepServe {
    serve_s: f64,
    req_ns: Vec<u64>,
    outcomes: Vec<Outcome>,
    model: Model,
    layers: Model,
    /// Oracle mismatches, when the serve itself already checked them.
    mismatches: Option<usize>,
    errors: Vec<String>,
}

fn serve_maybe_traced(
    kind: Kind,
    system: &mut System,
    w: &Workload,
    traced: bool,
    spans: &mut Spans,
) -> Result<RepServe, String> {
    if let (true, System::Card(cp)) = (traced, &mut *system) {
        // The traced card rep issues the three calls `invoke` makes.
        let pass = card_pass(cp, w, w.len(), spans)?;
        let mut errors = Vec::new();
        guard(kind, &pass.model, &mut errors);
        return Ok(RepServe {
            serve_s: pass.traced_serve_s,
            req_ns: Vec::new(),
            outcomes: pass.outcomes,
            model: pass.model,
            layers: pass.layers,
            mismatches: Some(pass.mismatches),
            errors,
        });
    }
    let served = serve(kind, system, w)?;
    let mut rep = RepServe {
        serve_s: served.serve_s,
        req_ns: served.req_ns,
        outcomes: served.outcomes,
        model: served.model,
        layers: Model::new(),
        mismatches: None,
        errors: served.errors,
    };
    if traced {
        // Engine or cluster: one span for the serve call, the
        // program's registry for the modelled layers, and a card pass
        // over the head of the stream for the per-call host layers.
        let name = match system {
            System::Cluster(..) => "core.cluster.serve",
            _ => "core.engine.serve",
        };
        spans.push(name, NONE, NONE, served.window.0, served.window.1);
        let registry = served
            .registry
            .ok_or("tracing was on but the program returned no registry")?;
        let n = w.len();
        add_registry(&mut rep.model, &registry, n);
        if !matches!(system, System::Cluster(..)) {
            let c = &registry.counters;
            rep.model.insert("pci.bytes", c.pci_bytes as f64);
            rep.model
                .insert("pci.transactions", c.pci_transactions as f64);
        }
        let mut cp = installed_card(kind.bank(), &w.distinct_algos())?;
        let pass = card_pass(&mut cp, w, CARD_PASS_REQUESTS.min(n), spans)?;
        rep.layers = pass.layers;
        rep.layers
            .insert("core.serve_ns", rep.serve_s * 1e9 / n as f64);
        rep.mismatches = Some(verify(&kind.bank(), w, &rep.outcomes)? + pass.mismatches);
    }
    Ok(rep)
}

/// Outputs that differ from `AlgorithmBank::execute_software` on the
/// same input. Runs outside every timed region.
fn verify(bank: &AlgorithmBank, w: &Workload, outcomes: &[Outcome]) -> Result<usize, String> {
    let mut wrong = 0;
    for (i, (r, o)) in w.requests().iter().zip(outcomes).enumerate() {
        if let Outcome::Output(hash) = o {
            let expected = bank
                .execute_software(r.algo_id, &w.input(i))
                .map_err(|e| format!("oracle for request {i}: {e}"))?;
            if fnv(&expected) != *hash {
                wrong += 1;
            }
        }
    }
    Ok(wrong)
}

/// Fingerprint of every request's outcome, in submission order.
fn digest(outcomes: &[Outcome]) -> u64 {
    let mut bytes = Vec::with_capacity(outcomes.len() * 9);
    for o in outcomes {
        let (tag, value) = match o {
            Outcome::Output(h) => (0u8, *h),
            Outcome::Refused(r) => (
                match r {
                    Refusal::Shed => 1,
                    Refusal::DeadlineMissed => 2,
                    Refusal::Faulted => 3,
                    Refusal::Lost => 4,
                    Refusal::Quota => 5,
                },
                0,
            ),
        };
        bytes.push(tag);
        bytes.extend_from_slice(&value.to_le_bytes());
    }
    fnv(&bytes)
}

fn model_json(m: &Model) -> Json {
    Json::Obj(
        m.iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect(),
    )
}

/// The process's resident-set high-water mark in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
