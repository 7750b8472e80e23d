//! E8 — configuration-module window ablation.
//!
//! The paper decompresses "window by window" to bound the on-card
//! buffer. This ablation sweeps the window size and reports the
//! modelled configuration latency, window count and buffer memory —
//! the design trade the configuration module embodies — and verifies
//! the window size never changes results (it must not).

use aaod_algos::ids;
use aaod_bench::criterion_fast;
use aaod_bitstream::codec::{registry, CodecId};
use aaod_bitstream::Bitstream;
use aaod_core::CoProcessor;
use aaod_fabric::{ConfigPort, Device, DeviceGeometry, FrameAddress};
use aaod_mcu::ConfigModule;
use aaod_sim::report::Table;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn encoded_aes(geom: DeviceGeometry) -> (Vec<u8>, usize) {
    let bank = aaod_algos::AlgorithmBank::standard();
    let image = bank.build_image(ids::AES128, geom).expect("image");
    let n = image.frames_needed(geom);
    let bs = Bitstream::from_image(&image, geom);
    (
        bs.encode(registry::codec(CodecId::Lzss, geom.frame_bytes()).as_ref()),
        n,
    )
}

fn print_table() {
    let geom = DeviceGeometry::default();
    let (encoded, n) = encoded_aes(geom);
    let addrs: Vec<FrameAddress> = (0..n as u16).map(FrameAddress).collect();
    let port = ConfigPort::selectmap8();
    let mut t = Table::new(
        "E8: window size vs configuration cost (AES-128, lzss)",
        &["window B", "windows", "decompress", "port", "total"],
    );
    for window in [8usize, 32, 128, 512, 2048, 8192] {
        let mut device = Device::new(geom);
        let mut module = ConfigModule::new(window, aaod_sim::clock::domains::mcu());
        let (report, _) = module
            .configure(&encoded, None, &mut device, &port, &addrs)
            .expect("configure");
        t.row_owned(vec![
            window.to_string(),
            report.windows.to_string(),
            report.decompress_time.to_string(),
            report.port_time.to_string(),
            report.total().to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "expected shape: tiny windows pay per-window management overhead;\n\
         beyond ~the frame size the curve flattens — the paper's windowed\n\
         design gets full speed from a small, bounded buffer.\n"
    );
}

fn bench(c: &mut Criterion) {
    print_table();
    let mut group = c.benchmark_group("e8_window");
    for window in [16usize, 896, 8192] {
        group.bench_function(format!("configure_aes_window_{window}"), |b| {
            b.iter(|| {
                let mut cp = CoProcessor::builder().window(window).build();
                cp.install(ids::AES128).expect("install");
                let (out, _) = cp
                    .invoke(ids::AES128, black_box(&[1u8; 64]))
                    .expect("invoke");
                black_box(out)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_fast();
    targets = bench
}
criterion_main!(benches);
