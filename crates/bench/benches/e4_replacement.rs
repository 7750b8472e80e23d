//! E4 — frame replacement policy: hit rate and mean service time.
//!
//! The paper mandates evicting the algorithm with the oldest access
//! timestamp (LRU over whole functions). This experiment sweeps that
//! policy against FIFO, LFU, random and the Belady oracle across
//! workload shapes and device capacities (see [`aaod_bench::e4`]).

use aaod_bench::e4::E4;
use aaod_bench::{criterion_fast, installed_coproc};
use aaod_core::run_workload;
use aaod_fabric::DeviceGeometry;
use aaod_mcu::Replacement;
use aaod_workload::{mixes, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn print_tables() {
    println!("{}", E4::run().tables());
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
            let mut cp = installed_coproc(DeviceGeometry::new(64, 16), Replacement::Lru, &algos);
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
