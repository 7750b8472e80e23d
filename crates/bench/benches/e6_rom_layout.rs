//! E6 — the dual-ended ROM: capacity behaviour and record-lookup cost.
//!
//! The ROM stores bitstreams from one end and the record table from
//! the other (paper §2.2). This experiment measures (a) how many
//! functions fit as ROM capacity grows, codec by codec, and (b) the
//! linear-scan record-lookup cost as the bank grows — the paper's
//! microcontroller walks the table for every request.

use aaod_bench::criterion_fast;
use aaod_bitstream::codec::CodecId;
use aaod_core::CoProcessor;
use aaod_mem::{RecordFields, Rom, RECORD_BYTES};
use aaod_sim::report::Table;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn print_tables() {
    // capacity: functions installed before the regions collide; one
    // column per codec, named from the codec list so the header cannot
    // fall out of step with the cells
    let codecs: Vec<String> = CodecId::ALL.iter().map(ToString::to_string).collect();
    let mut headers = vec!["rom KiB"];
    headers.extend(codecs.iter().map(String::as_str));
    let mut t = Table::new(
        "E6: bank functions fitting in ROM vs capacity and codec",
        &headers,
    );
    for kib in [16usize, 32, 64, 128] {
        let mut row = vec![kib.to_string()];
        for codec in CodecId::ALL {
            let mut cp = CoProcessor::builder()
                .rom_capacity(kib * 1024)
                .codec(codec)
                .build();
            let mut installed = 0;
            for id in aaod_algos::ids::ALL {
                if cp.install(id).is_ok() {
                    installed += 1;
                }
            }
            row.push(installed.to_string());
        }
        t.row_owned(row);
    }
    println!("{t}");

    // lookup cost: linear record-table scan
    let mut t = Table::new(
        "E6b: record lookup probes (linear table scan)",
        &["records", "probes: first", "probes: last", "probes: miss"],
    );
    for n in [4u16, 16, 64, 256] {
        let mut rom = Rom::new(1 << 20);
        for i in 0..n {
            rom.download(
                RecordFields {
                    algo_id: i,
                    uncompressed_len: 64,
                    codec: 0,
                    input_width: 4,
                    output_width: 4,
                    n_frames: 1,
                },
                &[0u8; 16],
            )
            .expect("fits");
        }
        let probes = |rom: &Rom, id: u16| {
            let before = rom.record_probes();
            let _ = rom.lookup(id);
            rom.record_probes() - before
        };
        t.row_owned(vec![
            n.to_string(),
            probes(&rom, 0).to_string(),
            probes(&rom, n - 1).to_string(),
            probes(&rom, 9999).to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "expected shape: capacity scales with codec ratio (lzss fits the most);\n\
         lookup probes are O(position) with worst case = table size.\n"
    );
}

fn bench(c: &mut Criterion) {
    print_tables();
    let mut group = c.benchmark_group("e6_rom");
    let mut rom = Rom::new(1 << 20);
    for i in 0..256u16 {
        rom.download(
            RecordFields {
                algo_id: i,
                uncompressed_len: 64,
                codec: 0,
                input_width: 4,
                output_width: 4,
                n_frames: 1,
            },
            &[0u8; 16],
        )
        .expect("fits");
    }
    group.bench_function("lookup_last_of_256", |b| {
        b.iter(|| black_box(rom.lookup(black_box(255))));
    });
    group.bench_function("download_plus_record", |b| {
        b.iter(|| {
            let mut rom = Rom::new(64 * 1024);
            for i in 0..16u16 {
                rom.download(
                    RecordFields {
                        algo_id: i,
                        uncompressed_len: 1024,
                        codec: 1,
                        input_width: 8,
                        output_width: 8,
                        n_frames: 2,
                    },
                    black_box(&[7u8; 512]),
                )
                .expect("fits");
            }
            black_box(rom.free_bytes())
        });
    });
    group.finish();
    let _ = RECORD_BYTES;
}

criterion_group! {
    name = benches;
    config = criterion_fast();
    targets = bench
}
criterion_main!(benches);
