//! E4 — frame replacement policy (paper §2.5).
//!
//! The paper evicts "that algorithm which has the oldest time stamp":
//! LRU over whole algorithms. This sweep runs that policy against FIFO,
//! LFU, random and the Belady next-use oracle across five workload
//! shapes and three device sizes. The `e4_replacement` bench and the
//! `policy_explorer` example print [`E4::tables`], and
//! `tests/paper_tables.rs` checks it against its golden file.

use crate::installed_coproc;
use aaod_core::{run_workload, RunResult};
use aaod_fabric::DeviceGeometry;
use aaod_mcu::Replacement;
use aaod_sim::report::Table;
use aaod_workload::{mixes, Workload};

/// Device sizes swept, in frames of 16 CLBs.
pub const FRAMES: [u16; 3] = [40, 64, 96];

/// Policies swept, in column order.
pub const POLICIES: [&str; 5] = ["lru", "fifo", "lfu", "random", "belady"];

/// The policies of [`POLICIES`], the oracle reading `w`'s trace.
fn policies(w: &Workload) -> [Replacement; 5] {
    [
        Replacement::Lru,
        Replacement::Fifo,
        Replacement::Lfu,
        Replacement::random(42),
        Replacement::belady(w.algo_trace()),
    ]
}

/// The five workload shapes over the full bank, 250 requests each.
fn workloads() -> Vec<Workload> {
    let algos = mixes::full_bank();
    vec![
        Workload::zipf(&algos, 250, 1.2, 256, 21),
        Workload::uniform(&algos, 250, 256, 22),
        Workload::round_robin(&algos, 250, 256),
        Workload::phased(&algos, 250, 25, 3, 256, 23),
        Workload::bursty(&algos, 250, 10, 256, 24),
    ]
}

/// The sweep's runs: `runs[f][w][p]` served the `w`-th workload
/// under `POLICIES[p]` on a `FRAMES[f]`-frame card.
#[derive(Debug, Clone)]
pub struct E4 {
    /// The workload names, in row order.
    pub workloads: Vec<String>,
    /// One run per device size, workload and policy.
    pub runs: Vec<Vec<Vec<RunResult>>>,
}

impl E4 {
    /// Runs the sweep; every card has the full bank installed.
    ///
    /// # Panics
    ///
    /// Panics if an install or a run fails.
    pub fn run() -> E4 {
        let algos = mixes::full_bank();
        let workloads = workloads();
        let runs = FRAMES
            .iter()
            .map(|&frames| {
                workloads
                    .iter()
                    .map(|w| {
                        policies(w)
                            .into_iter()
                            .map(|policy| {
                                let geom = DeviceGeometry::new(frames, 16);
                                let mut cp = installed_coproc(geom, policy, &algos);
                                run_workload(&mut cp, w, false).expect("E4 run")
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        E4 {
            workloads: workloads.iter().map(|w| w.name().to_string()).collect(),
            runs,
        }
    }

    /// The E4 tables: hit rate and mean service per workload and
    /// policy at each device size, then the first workload's (zipf)
    /// mean service by device size.
    pub fn tables(&self) -> String {
        let mut header = vec!["workload"];
        header.extend(POLICIES);
        let mut out = String::new();
        for (frames, by_workload) in FRAMES.iter().zip(&self.runs) {
            let mut t = Table::new(
                &format!("E4: hit rate / mean service by policy ({frames} frames)"),
                &header,
            );
            for (name, runs) in self.workloads.iter().zip(by_workload) {
                let mut row = vec![name.clone()];
                row.extend(runs.iter().map(|r| {
                    format!(
                        "{:.0}% {}",
                        r.hit_rate().unwrap_or(0.0) * 100.0,
                        r.mean_latency()
                    )
                }));
                t.row_owned(row);
            }
            out += &format!("{t}\n");
        }
        header[0] = "frames";
        let mut t = Table::new(
            &format!("E4: mean service on {} by device size", self.workloads[0]),
            &header,
        );
        for (frames, by_workload) in FRAMES.iter().zip(&self.runs) {
            let mut row = vec![frames.to_string()];
            row.extend(by_workload[0].iter().map(|r| r.mean_latency().to_string()));
            t.row_owned(row);
        }
        out += &format!("{t}");
        out
    }
}
