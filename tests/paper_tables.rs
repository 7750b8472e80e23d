//! The paper-experiment tables are checked, not transcribed: each is
//! rendered here and compared with its golden under
//! `tests/golden/paper/`, its stated shape is asserted, and every table
//! row that EXPERIMENTS.md quotes must appear in the golden. When a
//! change intentionally moves a number, regenerate with
//!
//! ```text
//! AAOD_BLESS=1 cargo test --test paper_tables
//! ```
//!
//! and update EXPERIMENTS.md from the rewritten golden.

#[path = "support/golden.rs"]
mod golden;

use aaod_algos::ids;
use aaod_bench::e4::{E4, FRAMES, POLICIES};
use aaod_core::CoProcessor;
use aaod_fabric::DeviceGeometry;
use aaod_mcu::Replacement;
use golden::{check_golden, golden_dir};
use std::sync::OnceLock;

fn e4() -> &'static E4 {
    static E4_RUNS: OnceLock<E4> = OnceLock::new();
    E4_RUNS.get_or_init(E4::run)
}

/// The lines of every fenced block in EXPERIMENTS.md's section
/// headed `heading`.
fn quoted_rows(heading: &str) -> Vec<String> {
    let doc = include_str!("../EXPERIMENTS.md");
    let start = doc.find(heading).expect("section present");
    let section = &doc[start + heading.len()..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    let mut rows = Vec::new();
    let mut fenced = false;
    for line in section.lines() {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            rows.push(line.trim_end().to_string());
        }
    }
    rows
}

#[test]
fn e4_tables_match_golden() {
    check_golden("paper/e4.txt", &e4().tables());
}

#[test]
fn e4_hits_never_fall_as_the_device_grows() {
    let e4 = e4();
    for (w, name) in e4.workloads.iter().enumerate() {
        for (p, policy) in POLICIES.iter().enumerate() {
            let hits: Vec<u64> = e4.runs.iter().map(|f| f[w][p].hits.unwrap()).collect();
            assert!(
                hits.windows(2).all(|h| h[0] <= h[1]),
                "{policy} on {name}: hits {hits:?} at {FRAMES:?} frames"
            );
        }
    }
}

#[test]
fn e4_round_robin_at_capacity_defeats_lru_fifo_and_lfu() {
    let e4 = e4();
    let w = e4
        .workloads
        .iter()
        .position(|n| n == "round-robin")
        .expect("a round-robin workload");
    let largest = e4.runs.last().expect("a device size");
    for policy in ["lru", "fifo", "lfu"] {
        let p = POLICIES.iter().position(|&n| n == policy).unwrap();
        assert_eq!(largest[w][p].hits, Some(0), "{policy}");
    }
}

/// E4's LRU column measures the paper's rule: the algorithm with the
/// oldest access stamp gives up its frames. No E4 run ever sees two
/// equal stamps, so the golden cannot show how a tie is broken. A
/// prefetch configures its target at the stamp of the invocation
/// before it, and that tie goes to the smaller id, whichever of the
/// two was invoked.
#[test]
fn e4_lru_evicts_the_oldest_stamp_and_ties_go_to_the_smaller_id() {
    let (small, large, next) = (ids::CRC32, ids::CRC8, ids::SHA1);
    let frames = |id| {
        let mut cp = CoProcessor::default();
        cp.install(id).unwrap();
        cp.os().rom().lookup(id).unwrap().n_frames
    };
    // room for all three but one frame: the miss on `next` evicts one
    let device = frames(small) + frames(large) + frames(next) - 1;
    for (invoked, prefetched) in [(small, large), (large, small)] {
        let mut cp = CoProcessor::builder()
            .geometry(DeviceGeometry::new(device, 16))
            .policy(Replacement::Lru)
            .build();
        for id in [small, large, next] {
            cp.install(id).unwrap();
        }
        cp.invoke(invoked, b"stamp").unwrap();
        assert!(cp.prefetch_hint(prefetched));
        let table = cp.os().table();
        assert_eq!(
            table.get(invoked).unwrap().last_access,
            table.get(prefetched).unwrap().last_access
        );
        let (_, report) = cp.invoke(next, b"evict").unwrap();
        assert_eq!(report.os.evicted, [small], "{invoked} invoked");
    }
}

#[test]
fn experiments_md_quotes_e4_from_the_golden() {
    let golden = std::fs::read_to_string(golden_dir().join("paper/e4.txt")).expect("read golden");
    let lines: Vec<&str> = golden.lines().map(str::trim_end).collect();
    let rows = quoted_rows("## E4 ");
    assert!(!rows.is_empty(), "E4 quotes no table");
    for row in rows {
        assert!(lines.contains(&row.as_str()), "not in the golden: {row:?}");
    }
}
