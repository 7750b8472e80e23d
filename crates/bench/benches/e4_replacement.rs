//! E4 — frame replacement policy: hit rate and mean service time.
//!
//! The paper mandates evicting the algorithm with the oldest access
//! timestamp (LRU over whole functions). This experiment sweeps that
//! policy against FIFO, LFU, random and the Belady oracle across
//! workload shapes and device capacities.

use aaod_bench::{criterion_fast, installed_coproc};
use aaod_core::run_workload;
use aaod_fabric::DeviceGeometry;
use aaod_mcu::replacement::policy_by_name;
use aaod_mcu::{BeladyPolicy, LruPolicy, ReplacementPolicy};
use aaod_sim::report::Table;
use aaod_workload::{mixes, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const POLICIES: [&str; 5] = ["lru", "fifo", "lfu", "random", "belady"];

fn make_policy(name: &str, trace: &Workload) -> Box<dyn ReplacementPolicy> {
    if name == "belady" {
        Box::new(BeladyPolicy::new(trace.algo_trace()))
    } else {
        policy_by_name(name, 42)
    }
}

fn workloads(algos: &[u16]) -> Vec<Workload> {
    vec![
        Workload::zipf(algos, 250, 1.2, 256, 21),
        Workload::uniform(algos, 250, 256, 22),
        Workload::round_robin(algos, 250, 256),
        Workload::phased(algos, 250, 25, 3, 256, 23),
        Workload::bursty(algos, 250, 10, 256, 24),
    ]
}

fn print_tables() {
    let algos = mixes::full_bank();
    for frames in [40u16, 64, 96] {
        let geom = DeviceGeometry::new(frames, 16);
        let mut t = Table::new(
            &format!("E4: hit rate / mean service by policy ({frames} frames)"),
            &["workload", "lru", "fifo", "lfu", "random", "belady"],
        );
        for w in workloads(&algos) {
            let mut row = vec![w.name().to_string()];
            for name in POLICIES {
                let mut cp = installed_coproc(geom, make_policy(name, &w), &algos);
                let r = run_workload(&mut cp, &w, false).expect("run");
                row.push(format!(
                    "{:.0}% {}",
                    r.hit_rate().unwrap_or(0.0) * 100.0,
                    r.mean_latency()
                ));
            }
            t.row_owned(row);
        }
        println!("{t}");
    }
    println!(
        "expected shape: round-robin at capacity is LRU's worst case; hit\n\
         rates rise monotonically with device size. Belady (a next-use\n\
         oracle) does not bound mean service for variable-size functions,\n\
         and LFU, not LRU, leads the practical policies on zipf.\n"
    );
}

fn bench(c: &mut Criterion) {
    print_tables();
    let algos = mixes::full_bank();
    let w = Workload::zipf(&algos, 100, 1.2, 256, 77);
    let mut group = c.benchmark_group("e4_replacement");
    group.bench_function("zipf_100req_lru_64frames", |b| {
        b.iter(|| {
            let mut cp = installed_coproc(DeviceGeometry::new(64, 16), Box::new(LruPolicy), &algos);
            black_box(run_workload(&mut cp, &w, false).expect("run"))
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
