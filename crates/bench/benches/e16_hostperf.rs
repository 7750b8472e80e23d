//! E16 (extension) — host wall-clock performance of the simulator
//! itself.
//!
//! Every other experiment reports *modelled* time; this one reports
//! how fast the host actually grinds through simulated requests. Two
//! tables:
//!
//! 1. Throughput: simulated requests per wall-clock second (and input
//!    bytes per second) for the serial runner and the engine at
//!    1/2/4 workers, on the E11 zipf full-bank mix and the E15
//!    straggler mix.
//! 2. Ablation: the bit-sliced batch netlist evaluator
//!    ([`run_decoded_netlist_batch`], 64 lanes per walk) against the
//!    scalar per-input walk ([`run_decoded_netlist`]) on the bank's
//!    LUT netlists with E11-sized (256 B) inputs. The controller's
//!    [`aaod_mcu::MiniOs::invoke_batch`] runs netlists of up to 16
//!    inputs and outputs from a truth table whose blocks this
//!    evaluator fills, and wider netlists on it directly.
//! 3. Card hits: a warm resident hit through
//!    [`CoProcessor::invoke`] against the kernel's
//!    `execute_software`, for the four LUT-netlist kernels at 1500 B.
//!
//! Regression floors this bench commits to (and CI re-asserts):
//! **combinational bit-sliced speedup ≥ 4×** over the scalar walk,
//! **a warm CRC-8 card hit at 1500 B ≤ 1× `execute_software`** (its
//! affine streaming step runs eight bytes per dependent lookup), and
//! absolute req/s floors set conservatively (~half of the recorded
//! baseline in `BENCH_hostperf.json`) so shared-runner noise cannot
//! trip them but losing an allocation-free, bit-sliced or tabulated
//! hot path will.

use aaod_bench::criterion_fast;
use aaod_core::{run_workload, CoProcessor, Engine, EngineConfig, ShardPolicy};
use aaod_fabric::{run_decoded_netlist, run_decoded_netlist_batch, BatchScratch, NetlistMode};
use aaod_sim::report::Table;
use aaod_workload::{mixes, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// The E11 serving mix: zipf(s=1.1) over the full bank, 600 requests
/// of 256 bytes.
fn e11_mix() -> Workload {
    Workload::zipf(&mixes::full_bank(), 600, 1.1, 256, 1711)
}

/// The E15 adversarial straggler mix (1000 requests).
fn e15_mix() -> Workload {
    mixes::straggler_workload(1000, 1)
}

/// Best-of-`reps` wall time for one execution of `f`, in seconds.
/// Minimum (not mean) so scheduler noise on a shared runner biases
/// the figure up in throughput terms, never down.
fn best_wall_s<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn workload_bytes(w: &Workload) -> u64 {
    w.requests().iter().map(|r| r.input_len as u64).sum()
}

/// Wall-clock baselines (requests per second) for the CI floor. The
/// reference machine recorded ~34,900 (serial) and ~41,300 (engine
/// x4) in `BENCH_hostperf.json`; these are derated ~4x so a slower
/// shared CI runner still clears them, and the assert trips when a
/// run falls more than 20% below the derated baseline — a structural
/// regression (lost bit-sliced path, per-request allocation storm),
/// not scheduler noise.
const CI_BASELINE_SERIAL_E11_REQS_PER_S: f64 = 8_000.0;
const CI_BASELINE_ENGINE_X4_E11_REQS_PER_S: f64 = 9_000.0;
/// Trip level: more than 20% below the derated baseline fails.
const FLOOR_FRACTION: f64 = 0.8;
/// The acceptance floor for the tentpole: bit-sliced combinational
/// evaluation must beat the scalar walk by at least this factor.
const FLOOR_COMBINATIONAL_SPEEDUP: f64 = 4.0;
/// A warm CRC-8 card hit at 1500 B may cost at most this many times
/// the kernel's `execute_software`: no more than the software kernel,
/// since the netlist's affine step runs eight bytes per dependent
/// lookup. A ratio, so it holds on any runner.
const CEILING_CRC8_HIT_OVER_SOFTWARE: f64 = 1.0;

fn print_throughput_table() {
    let reps = 5;
    let mut t = Table::new(
        "E16: host throughput (wall clock), serial runner vs engine",
        &["mix", "config", "reqs", "wall", "req/s", "MB/s (input)"],
    );
    let mut json_rows = Vec::new();
    let mut floor_checks: Vec<(String, f64, f64)> = Vec::new();
    for (mix_name, w) in [("e11_zipf", e11_mix()), ("e15_straggler", e15_mix())] {
        let bytes = workload_bytes(&w);
        // Serial runner: one pre-installed card, repeated runs.
        let mut cp = CoProcessor::default();
        for &id in &w.distinct_algos() {
            cp.install(id).expect("install");
        }
        let serial_s = best_wall_s(reps, || {
            black_box(run_workload(&mut cp, &w, false).expect("serial run"));
        });
        let mut emit = |config: &str, wall_s: f64| {
            let reqs_per_s = w.len() as f64 / wall_s;
            let mb_per_s = bytes as f64 / wall_s / 1e6;
            t.row_owned(vec![
                mix_name.to_string(),
                config.to_string(),
                w.len().to_string(),
                format!("{:.2}ms", wall_s * 1e3),
                format!("{reqs_per_s:.0}"),
                format!("{mb_per_s:.1}"),
            ]);
            json_rows.push(format!(
                "{{\"mix\":\"{mix_name}\",\"config\":\"{config}\",\"reqs\":{},\
                 \"wall_ms\":{:.3},\"reqs_per_s\":{reqs_per_s:.0},\"input_bytes_per_s\":{:.0}}}",
                w.len(),
                wall_s * 1e3,
                bytes as f64 / wall_s,
            ));
            reqs_per_s
        };
        let serial_rps = emit("serial", serial_s);
        if mix_name == "e11_zipf" {
            floor_checks.push((
                "serial e11".into(),
                serial_rps,
                CI_BASELINE_SERIAL_E11_REQS_PER_S * FLOOR_FRACTION,
            ));
        }
        for workers in [1usize, 2, 4] {
            let engine = Engine::new(EngineConfig {
                workers,
                collect_outputs: false,
                shard: ShardPolicy::Balanced,
                ..EngineConfig::default()
            });
            let s = best_wall_s(reps, || {
                black_box(engine.serve(&w).expect("engine serve"));
            });
            let rps = emit(&format!("engine_x{workers}"), s);
            if mix_name == "e11_zipf" && workers == 4 {
                floor_checks.push((
                    "engine x4 e11".into(),
                    rps,
                    CI_BASELINE_ENGINE_X4_E11_REQS_PER_S * FLOOR_FRACTION,
                ));
            }
        }
    }
    println!("{t}");
    for (name, got, floor) in floor_checks {
        assert!(
            got >= floor,
            "regression: {name} host throughput fell to {got:.0} req/s (floor {floor:.0})"
        );
    }
    println!(
        "BENCH_JSON {{\"experiment\":\"e16_hostperf_throughput\",\"rows\":[{}]}}",
        json_rows.join(",")
    );
}

fn print_ablation_table() {
    let reps = 5;
    // E11-sized inputs: 600 requests of 256 bytes, deterministic fill.
    let mut rng = aaod_sim::SplitMix64::new(16);
    let inputs: Vec<Vec<u8>> = (0..600)
        .map(|_| {
            let mut v = vec![0u8; 256];
            rng.fill(&mut v);
            v
        })
        .collect();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let total_bytes: usize = inputs.iter().map(Vec::len).sum();
    let cases = [
        (
            "adder8",
            aaod_algos::netlists::adder8_netlist(),
            NetlistMode::Combinational,
        ),
        (
            "parity8",
            aaod_algos::netlists::parity8_netlist(),
            NetlistMode::Combinational,
        ),
        (
            "popcount8",
            aaod_algos::netlists::popcount8_netlist(),
            NetlistMode::Combinational,
        ),
        (
            "crc8",
            aaod_algos::netlists::crc8_netlist(),
            NetlistMode::Streaming,
        ),
    ];
    let mut t = Table::new(
        "E16b: miss-batch netlist evaluation, scalar walk vs bit-sliced (600 x 256 B)",
        &[
            "netlist",
            "mode",
            "scalar",
            "sliced",
            "speedup",
            "MB/s sliced",
        ],
    );
    let mut json_rows = Vec::new();
    let mut worst_comb_speedup = f64::INFINITY;
    for (name, netlist, mode) in cases {
        let scalar_s = best_wall_s(reps, || {
            for input in &refs {
                black_box(run_decoded_netlist(&netlist, mode, input).expect("scalar"));
            }
        });
        let mut scratch = BatchScratch::default();
        let sliced_s = best_wall_s(reps, || {
            black_box(
                run_decoded_netlist_batch(&netlist, mode, &refs, &mut scratch).expect("sliced"),
            );
        });
        // Sanity: the two paths must agree before we time them apart.
        let batched = run_decoded_netlist_batch(&netlist, mode, &refs, &mut scratch).unwrap();
        for (input, got) in refs.iter().zip(&batched) {
            assert_eq!(got, &run_decoded_netlist(&netlist, mode, input).unwrap());
        }
        let speedup = scalar_s / sliced_s;
        if mode == NetlistMode::Combinational {
            worst_comb_speedup = worst_comb_speedup.min(speedup);
        }
        let mode_name = match mode {
            NetlistMode::Combinational => "combinational",
            NetlistMode::Streaming => "streaming",
        };
        t.row_owned(vec![
            name.to_string(),
            mode_name.to_string(),
            format!("{:.2}ms", scalar_s * 1e3),
            format!("{:.2}ms", sliced_s * 1e3),
            format!("{speedup:.1}x"),
            format!("{:.1}", total_bytes as f64 / sliced_s / 1e6),
        ]);
        json_rows.push(format!(
            "{{\"netlist\":\"{name}\",\"mode\":\"{mode_name}\",\"inputs\":{},\"bytes\":{total_bytes},\
             \"scalar_ms\":{:.3},\"sliced_ms\":{:.3},\"speedup\":{speedup:.2},\
             \"sliced_bytes_per_s\":{:.0}}}",
            refs.len(),
            scalar_s * 1e3,
            sliced_s * 1e3,
            total_bytes as f64 / sliced_s,
        ));
    }
    println!("{t}");
    assert!(
        worst_comb_speedup >= FLOOR_COMBINATIONAL_SPEEDUP,
        "regression: bit-sliced combinational evaluation speedup fell to \
         {worst_comb_speedup:.2}x (floor {FLOOR_COMBINATIONAL_SPEEDUP}x)"
    );
    println!(
        "BENCH_JSON {{\"experiment\":\"e16_hostperf_ablation\",\"rows\":[{}]}}",
        json_rows.join(",")
    );
}

/// Mean wall time of `f` over `calls` calls, after `warmup` calls that
/// are not timed, in seconds. `f` receives the call index.
fn mean_wall_s<F: FnMut(usize)>(warmup: usize, calls: usize, mut f: F) -> f64 {
    for i in 0..warmup {
        f(i);
    }
    let t = Instant::now();
    for i in warmup..warmup + calls {
        f(i);
    }
    t.elapsed().as_secs_f64() / calls as f64
}

fn print_card_hit_table() {
    let (warmup, calls, len) = (50, 200, 1500);
    let bank = aaod_algos::AlgorithmBank::standard();
    let mut rng = aaod_sim::SplitMix64::new(1500);
    let inputs: Vec<Vec<u8>> = (0..warmup + calls)
        .map(|_| {
            let mut v = vec![0u8; len];
            rng.fill(&mut v);
            v
        })
        .collect();
    let mut t = Table::new(
        "E16c: warm card hit vs execute_software (1500 B, mean of 200 calls)",
        &["kernel", "card hit", "software", "ratio"],
    );
    let mut json_rows = Vec::new();
    let mut crc8_ratio = f64::INFINITY;
    for (name, algo) in [
        ("crc8", aaod_algos::ids::CRC8),
        ("adder8", aaod_algos::ids::ADDER8),
        ("popcount8", aaod_algos::ids::POPCNT8),
        ("parity8", aaod_algos::ids::PARITY8),
    ] {
        let mut cp = CoProcessor::default();
        cp.install(algo).expect("install");
        let hit_s = mean_wall_s(warmup, calls, |i| {
            black_box(cp.invoke(algo, &inputs[i]).expect("card hit"));
        });
        let sw_s = mean_wall_s(warmup, calls, |i| {
            black_box(bank.execute_software(algo, &inputs[i]).expect("software"));
        });
        let ratio = hit_s / sw_s;
        if algo == aaod_algos::ids::CRC8 {
            crc8_ratio = ratio;
        }
        t.row_owned(vec![
            name.to_string(),
            format!("{:.1}us", hit_s * 1e6),
            format!("{:.1}us", sw_s * 1e6),
            format!("{ratio:.1}x"),
        ]);
        json_rows.push(format!(
            "{{\"kernel\":\"{name}\",\"bytes\":{len},\"calls\":{calls},\
             \"card_hit_us\":{:.2},\"software_us\":{:.2},\"ratio\":{ratio:.2}}}",
            hit_s * 1e6,
            sw_s * 1e6,
        ));
    }
    println!("{t}");
    assert!(
        crc8_ratio <= CEILING_CRC8_HIT_OVER_SOFTWARE,
        "regression: a warm CRC-8 card hit costs {crc8_ratio:.1}x execute_software \
         (ceiling {CEILING_CRC8_HIT_OVER_SOFTWARE}x)"
    );
    println!(
        "BENCH_JSON {{\"experiment\":\"e16_hostperf_card_hit\",\"rows\":[{}]}}",
        json_rows.join(",")
    );
}

fn bench(c: &mut Criterion) {
    print_throughput_table();
    print_ablation_table();
    print_card_hit_table();
    let w = e11_mix();
    let mut group = c.benchmark_group("e16_hostperf");
    let engine = Engine::new(EngineConfig {
        workers: 4,
        collect_outputs: false,
        shard: ShardPolicy::Balanced,
        ..EngineConfig::default()
    });
    group.bench_function("e11_engine_x4", |b| {
        b.iter(|| black_box(engine.serve(&w).expect("serve")));
    });
    let netlist = aaod_algos::netlists::adder8_netlist();
    let mut rng = aaod_sim::SplitMix64::new(16);
    let inputs: Vec<Vec<u8>> = (0..64)
        .map(|_| {
            let mut v = vec![0u8; 256];
            rng.fill(&mut v);
            v
        })
        .collect();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let mut scratch = BatchScratch::default();
    group.bench_function("adder8_sliced_64x256B", |b| {
        b.iter(|| {
            black_box(
                run_decoded_netlist_batch(
                    &netlist,
                    NetlistMode::Combinational,
                    &refs,
                    &mut scratch,
                )
                .expect("sliced"),
            )
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_fast();
    targets = bench
}
criterion_main!(benches);
