//! Golden-trace tests: the observability layer's JSONL export is a
//! *contract*. For a fixed (workload, seed, config) the engine must
//! emit a byte-identical event stream on every run, on every machine —
//! that is what makes traces diffable across commits and what lets CI
//! catch an accidental behaviour change as a one-line diff.
//!
//! The goldens live in `tests/golden/*.jsonl`. When a change
//! *intentionally* alters the trace (a new event, a timing-model fix),
//! regenerate them with:
//!
//! ```text
//! AAOD_BLESS=1 cargo test --test trace_golden
//! ```
//!
//! and commit the rewritten files. The failure message prints the
//! first differing line so an unintentional drift is obvious.

#[path = "support/golden.rs"]
mod golden;

use aaod_algos::ids;
use aaod_core::{Engine, EngineConfig, ShardPolicy, TraceConfig};
use aaod_workload::Workload;
use golden::check_golden;

/// The quickstart working set: fits the default 96-frame device, so
/// the trace exercises hits, misses and batching but no evictions.
const MIX: [u16; 4] = [ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA];

/// Workload seed for the determinism tests: `AAOD_TRACE_SEED` if set
/// (the CI trace matrix sweeps it), else fixed. The golden files use
/// pinned seeds regardless — their bytes are part of the repo.
fn sweep_seed() -> u64 {
    aaod_bench::env_seed("AAOD_TRACE_SEED", 7)
}

/// One deterministic traced serve of the quickstart-style mix.
fn traced_jsonl(seed: u64, workers: usize) -> String {
    let w = Workload::zipf(&MIX, 24, 1.1, 32, seed);
    let r = Engine::new(EngineConfig {
        workers,
        verify: true,
        shard: ShardPolicy::AlgoModulo,
        trace: TraceConfig::full(),
        ..EngineConfig::default()
    })
    .serve(&w)
    .expect("traced serve");
    r.trace.expect("trace requested").to_jsonl()
}

#[test]
fn quickstart_mix_seed_1_matches_golden() {
    check_golden("quickstart_seed1.jsonl", &traced_jsonl(1, 2));
}

#[test]
fn quickstart_mix_seed_42_matches_golden() {
    check_golden("quickstart_seed42.jsonl", &traced_jsonl(42, 2));
}

/// Same (workload, seed, config) must serialize identically run after
/// run, at every pool width — the determinism half of the golden
/// contract, independent of the checked-in files.
#[test]
fn repeated_runs_are_byte_identical_at_every_width() {
    for workers in [1, 2, 4] {
        let a = traced_jsonl(sweep_seed(), workers);
        let b = traced_jsonl(sweep_seed(), workers);
        assert!(!a.is_empty());
        assert_eq!(a, b, "{workers}-worker trace not reproducible");
    }
}

/// Job-level counters are a pure function of the workload: they must
/// not change with the shard count (per-shard detail counters like
/// decoded-cache misses legitimately do, since each shard brings up
/// its own card).
#[test]
fn job_counters_are_invariant_across_pool_widths() {
    let w = Workload::zipf(&MIX, 48, 1.1, 32, sweep_seed());
    let counters = |workers: usize| {
        let r = Engine::new(EngineConfig {
            workers,
            trace: TraceConfig::counters(),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap();
        r.trace.unwrap().metrics.counters
    };
    let one = counters(1);
    for workers in [2, 4] {
        let c = counters(workers);
        assert_eq!(c.enqueued, one.enqueued);
        assert_eq!(c.dequeued, one.dequeued);
        assert_eq!(c.jobs_opened, one.jobs_opened);
        assert_eq!(c.jobs_completed, one.jobs_completed);
        assert_eq!(c.jobs_hit, one.jobs_hit, "residency is width-invariant");
    }
    assert_eq!(one.enqueued, 48);
    assert_eq!(one.jobs_completed, 48);
}

/// Parses `"key":value` for a numeric field out of a canonical JSONL
/// line (the format is fixed-order, zero-dependency by design).
fn field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// The exported JSONL must itself be well-formed: per-shard
/// timestamps monotone, `seq` dense per shard, and open/close events
/// balanced — checked on the serialized form, which is what a
/// downstream consumer actually parses.
#[test]
fn exported_jsonl_is_well_formed() {
    use std::collections::BTreeMap;
    let jsonl = traced_jsonl(42, 2);
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut next_seq: BTreeMap<u64, u64> = BTreeMap::new();
    let mut open_jobs: BTreeMap<(u64, u64), ()> = BTreeMap::new();
    let mut opens = 0u64;
    let mut closes = 0u64;
    for line in jsonl.lines() {
        let shard = field(line, "shard").expect("shard field");
        let seq = field(line, "seq").expect("seq field");
        let ts = field(line, "ts_ps").expect("ts_ps field");
        let expected = next_seq.entry(shard).or_insert(0);
        assert_eq!(seq, *expected, "shard {shard} seq not dense: {line}");
        *expected += 1;
        let prev = last_ts.entry(shard).or_insert(0);
        assert!(ts >= *prev, "shard {shard} time reversed: {line}");
        *prev = ts;
        match str_field(line, "event") {
            Some("job_open") => {
                let job = field(line, "job").unwrap();
                assert!(open_jobs.insert((shard, job), ()).is_none());
                opens += 1;
            }
            Some("job_close") => {
                let job = field(line, "job").unwrap();
                assert!(open_jobs.remove(&(shard, job)).is_some());
                closes += 1;
            }
            Some(_) => {}
            None => panic!("line without event: {line}"),
        }
    }
    assert!(open_jobs.is_empty(), "unclosed jobs in export");
    assert_eq!(opens, 24, "one open per request");
    assert_eq!(opens, closes);
}

/// The Chrome `trace_event` export wraps the same stream and is a
/// single JSON document with balanced B/E duration events.
#[test]
fn chrome_export_is_deterministic_and_balanced() {
    let w = Workload::zipf(&MIX, 24, 1.1, 32, 1);
    let run = || {
        Engine::new(EngineConfig {
            workers: 2,
            trace: TraceConfig::full(),
            ..EngineConfig::default()
        })
        .serve(&w)
        .unwrap()
        .trace
        .unwrap()
        .to_chrome_trace()
    };
    let a = run();
    assert_eq!(a, run());
    assert!(a.starts_with("{\"traceEvents\":["));
    assert!(a.ends_with("]}") || a.ends_with("\"}"));
    let begins = a.matches("\"ph\":\"B\"").count();
    let ends = a.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "unbalanced duration events");
    assert!(begins > 0, "stage spans must appear as durations");
}

/// One deterministic traced serve of a flash-crowd stream through the
/// overload layer: the SHA1 spike compresses the tick-shaped arrival
/// curve 20×, so the golden pins sheds and deadline misses — the
/// realistic-traffic arrival replay is part of the trace contract.
fn flash_crowd_jsonl(seed: u64) -> String {
    use aaod_core::{DeadlinePolicy, OverloadConfig};
    use aaod_sim::SimTime;
    let w = Workload::flash_crowd(&MIX, ids::SHA1, 48, 20, 32, seed);
    let r = Engine::new(EngineConfig {
        workers: 2,
        verify: true,
        shard: ShardPolicy::AlgoModulo,
        overload: Some(OverloadConfig {
            interarrival: SimTime::from_us(2),
            deadline: DeadlinePolicy::Absolute(SimTime::from_us(40)),
            ..OverloadConfig::default()
        }),
        trace: TraceConfig::full(),
        ..EngineConfig::default()
    })
    .serve(&w)
    .expect("traced flash-crowd serve");
    r.trace.expect("trace requested").to_jsonl()
}

#[test]
fn flash_crowd_seed_5_matches_golden() {
    check_golden("flash_crowd_seed5.jsonl", &flash_crowd_jsonl(5));
}

/// The spike must actually register in the golden scenario — if the
/// overload layer ever stopped replaying `arrival_tick`, the stream
/// would serve cleanly and the golden would silently degenerate.
#[test]
fn flash_crowd_golden_scenario_is_under_pressure() {
    let jsonl = flash_crowd_jsonl(5);
    let sheds = jsonl
        .lines()
        .filter(|l| str_field(l, "event") == Some("shed"))
        .count();
    assert!(sheds > 0, "flash-crowd golden lost its overload pressure");
}

/// Every job that reconfigures was delayed by a residency miss the
/// trace stamps before it: the miss's card details (residency, ROM
/// fetch, decompression, port writes) open no later than the job they
/// delayed, in the closed loop and the open loop alike. Each
/// reconfiguring job consumes one earlier miss for its algorithm on
/// its shard's stream.
#[test]
fn residency_misses_precede_the_jobs_they_delay() {
    use std::collections::BTreeMap;
    for (label, jsonl) in [
        ("quickstart seed 1", traced_jsonl(1, 2)),
        ("quickstart seed 42", traced_jsonl(42, 2)),
        ("flash crowd seed 5", flash_crowd_jsonl(5)),
    ] {
        // stamps of the not yet consumed misses per (shard, algo)
        let mut misses: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new();
        // open jobs per (shard, job): (algo, open stamp, misses seen)
        let mut open: BTreeMap<(u64, u64), (u64, u64, usize)> = BTreeMap::new();
        let mut reconfigs = 0;
        for line in jsonl.lines() {
            let shard = field(line, "shard").expect("shard field");
            let ts = field(line, "ts_ps").expect("ts_ps field");
            match str_field(line, "event") {
                Some("residency") if line.contains("\"hit\":false") => {
                    let algo = field(line, "algo").expect("algo field");
                    misses.entry((shard, algo)).or_default().push(ts);
                }
                Some("job_open") => {
                    let job = field(line, "job").expect("job field");
                    let algo = field(line, "algo").expect("algo field");
                    let before = misses.get(&(shard, algo)).map_or(0, Vec::len);
                    open.insert((shard, job), (algo, ts, before));
                }
                Some("stage_open") if str_field(line, "stage") == Some("reconfig") => {
                    let job = field(line, "job").expect("job field");
                    let (algo, opened, before) = open[&(shard, job)];
                    let pending = misses.entry((shard, algo)).or_default();
                    assert!(
                        before > 0 && pending.first().is_some_and(|&t| t <= opened),
                        "{label}: job {job} reconfigures algo {algo} on shard {shard} \
                         with no residency miss stamped before it opened at {opened} ps"
                    );
                    pending.remove(0);
                    reconfigs += 1;
                }
                _ => {}
            }
        }
        assert!(reconfigs > 0, "{label}: no job reconfigured");
    }
}

/// The online predictive router's hysteresis flip sequence for a
/// pinned flash-crowd stream, one JSON line per flip in submission
/// order. The hot id rides the tail Zipf rank so the golden pins a
/// full replicate → de-replicate cycle; a drift here means the
/// popularity EWMA, the thresholds or the refractory changed
/// behaviour.
fn predict_flips_jsonl(seed: u64) -> String {
    use aaod_core::{Cluster, ClusterConfig, Flip, PredictConfig};
    use std::fmt::Write;
    let crowd = [ids::CRC32, ids::CRC8, ids::XTEA, ids::SHA1];
    let w = Workload::flash_crowd(&crowd, ids::SHA1, 400, 20, 32, seed);
    let bank = aaod_algos::AlgorithmBank::standard();
    let r = Cluster::new(ClusterConfig {
        cards: 4,
        card_workers: 2,
        predict: Some(PredictConfig::default()),
        ..ClusterConfig::default()
    })
    .serve(&w, &bank)
    .expect("predictive cluster serve");
    let mut out = String::new();
    for f in &r.flips {
        let kind = match f.kind {
            Flip::Replicate => "replicate",
            Flip::Dereplicate => "dereplicate",
        };
        writeln!(
            out,
            "{{\"at\":{},\"algo\":{},\"flip\":\"{kind}\"}}",
            f.at, f.algo
        )
        .expect("write flip line");
    }
    out
}

#[test]
fn predict_flip_sequence_matches_golden() {
    let got = predict_flips_jsonl(5);
    assert!(
        got.contains("replicate") && got.contains("dereplicate"),
        "golden scenario lost its full hysteresis cycle:\n{got}"
    );
    check_golden("predict_flips_seed5.jsonl", &got);
}
