//! E1 / Figure 1 — the end-to-end architecture path.
//!
//! Regenerates the block-diagram walk: host → PCI → microcontroller →
//! ROM → configuration module → FPGA → output collection → host, as a
//! latency-breakdown table for a cold (miss) and warm (hit)
//! invocation of each function class, then Criterion-measures the
//! simulator's wall-clock cost for the same paths.

use aaod_algos::ids;
use aaod_bench::{criterion_fast, installed_coproc};
use aaod_core::CoProcessor;
use aaod_fabric::DeviceGeometry;
use aaod_mcu::Replacement;
use aaod_sim::report::Table;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn print_table() {
    let mut cp = installed_coproc(
        DeviceGeometry::default(),
        Replacement::Lru,
        &[ids::AES128, ids::SHA1, ids::CRC32, ids::CRC8],
    );
    let mut t = Table::new(
        "E1 (Fig.1): per-block latency, cold then warm",
        &[
            "function", "state", "pci-in", "lookup", "rom", "reconfig", "input", "exec", "output",
            "pci-out", "total",
        ],
    );
    for (id, input) in [
        (ids::AES128, vec![0u8; 1504]),
        (ids::SHA1, vec![0u8; 1500]),
        (ids::CRC32, vec![0u8; 1500]),
        (ids::CRC8, vec![0u8; 256]),
    ] {
        for state in ["cold", "warm"] {
            let (_, r) = cp.invoke(id, &input).expect("bench invoke");
            t.row_owned(vec![
                format!("algo {id}"),
                state.into(),
                r.pci_input_time.to_string(),
                r.os.lookup_time.to_string(),
                r.os.rom_time.to_string(),
                r.os.reconfig_time.to_string(),
                r.os.input_time.to_string(),
                r.os.exec_time.to_string(),
                r.os.output_time.to_string(),
                r.pci_output_time.to_string(),
                r.total().to_string(),
            ]);
        }
    }
    println!("{t}");
}

fn bench(c: &mut Criterion) {
    print_table();
    let mut group = c.benchmark_group("e1_end_to_end");

    // warm path: function resident
    let mut cp = installed_coproc(DeviceGeometry::default(), Replacement::Lru, &[ids::SHA1]);
    cp.invoke(ids::SHA1, b"warm-up").expect("warm-up");
    group.bench_function("invoke_hit_sha1_1500B", |b| {
        let input = vec![0u8; 1500];
        b.iter(|| {
            let (out, _) = cp.invoke(ids::SHA1, black_box(&input)).expect("invoke");
            black_box(out)
        });
    });

    // cold path: build + install + first invoke (full swap-in)
    group.bench_function("cold_install_and_swap_in_crc32", |b| {
        b.iter(|| {
            let mut cp = CoProcessor::default();
            cp.install(ids::CRC32).expect("install");
            let (out, _) = cp
                .invoke(ids::CRC32, black_box(b"123456789" as &[u8]))
                .expect("invoke");
            black_box(out)
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
