//! `compare A.json B.json`: for every (workload, end-to-end metric) of
//! two `results.json` files, applies the metric's bound from
//! `BENCHMARK.json` and says whether B is better, the same, worse, or
//! unresolved against A.

use crate::json::Json;
use crate::stats::rel_iqr;
use crate::workloads::Kind;
use crate::{derived, headline, modelled};

/// What a modelled latency quantile may move on one seed: a bucketed
/// latency histogram with a documented error up to this share must not
/// read as a regression. Every other modelled metric must match exactly.
const QUANTILE_ALLOWANCE: f64 = 0.01;

pub fn run(args: &[String]) -> Result<i32, String> {
    let [a_path, b_path] = args else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let manifest = read("BENCHMARK.json")?;
    let (a, b) = (read(a_path)?, read(b_path)?);
    let same_seed = a.get("seed") == b.get("seed");
    println!(
        "{:<16} {:<18} {:>14} {:>7} {:>14} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "A iqr%", "B", "B iqr%", "change%", "bound%"
    );
    let mut bad = 0;
    for (workload, wa) in a.get("workloads").map(Json::fields).unwrap_or(&[]) {
        let kind = Kind::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<16} missing from {b_path}");
            bad += 1;
            continue;
        };
        for m in manifest.get("end_to_end").map(Json::arr).unwrap_or(&[]) {
            let name = m.req_str("name")?;
            let higher = m.req_str("better")? == "higher";
            let values = |w: &Json| -> Vec<f64> {
                w.get("end_to_end")
                    .and_then(|e| e.get(name))
                    .and_then(|e| e.get("values"))
                    .map(Json::arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::num)
                    .collect()
            };
            let (va, vb) = (values(wa), values(wb));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {name:<18} missing");
                bad += 1;
                continue;
            }
            let (ma, mb) = (headline(name, &va), headline(name, &vb));
            let change = gain(ma, mb, higher);
            // Modelled metrics are deterministic: on one seed they get
            // no noise allowance.
            let (bound, v) = if derived(kind, name) {
                (f64::NAN, "derived, not judged")
            } else if same_seed && modelled(name) {
                let allowance = if name.starts_with("model_latency_") {
                    QUANTILE_ALLOWANCE
                } else {
                    0.0
                };
                (allowance, classify(change, allowance))
            } else {
                let bound = m.req_num("bound")?;
                (bound, verdict(&va, &vb, change, bound))
            };
            if matches!(v, "worse" | "unresolved") {
                bad += 1;
            }
            let bound = if bound.is_nan() {
                "-".to_string()
            } else {
                format!("{:.1}", 100.0 * bound)
            };
            println!(
                "{workload:<16} {name:<18} {ma:>14.6} {:>7.2} {mb:>14.6} {:>7.2} {:>8.2} {bound:>6}  {v}",
                100.0 * rel_iqr(&va),
                100.0 * rel_iqr(&vb),
                100.0 * change,
            );
        }
    }
    println!(
        "{bad} worse, unresolved or missing{}",
        if same_seed {
            "; same seed, so modelled metrics are judged exactly"
        } else {
            "; seeds differ, so modelled metrics are judged against their bounds"
        }
    );
    Ok(if bad == 0 { 0 } else { 1 })
}

/// How much better B's value `mb` is than A's `ma`, as a share of A's
/// (negative when worse).
fn gain(ma: f64, mb: f64, higher_better: bool) -> f64 {
    let gain = if higher_better { mb - ma } else { ma - mb };
    if ma == 0.0 {
        if gain == 0.0 {
            0.0
        } else {
            gain.signum() * f64::INFINITY
        }
    } else {
        gain / ma.abs()
    }
}

fn classify(change: f64, allowance: f64) -> &'static str {
    if change < -allowance {
        "worse"
    } else if change > allowance {
        "better"
    } else {
        "same"
    }
}

/// B against A for one measured metric, given B's `change`. The result
/// is unresolved when either side's rep IQR is wider than the bound,
/// unless every rep of one side beats every rep of the other.
fn verdict(a: &[f64], b: &[f64], change: f64, bound: f64) -> &'static str {
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let separated = min(a) > max(b) || min(b) > max(a);
    if rel_iqr(a).max(rel_iqr(b)) > bound && !separated {
        "unresolved"
    } else {
        classify(change, bound)
    }
}
