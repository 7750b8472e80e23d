//! Deterministic dynamic dispatch: least-loaded dealing with residency
//! affinity and epoch-based work stealing.
//!
//! The static [`ShardPolicy`](crate::ShardPolicy) partitions fix every
//! request's shard before serving starts, so the makespan is bounded by
//! the unluckiest shard even while others sit idle. The planner here
//! closes that gap *without* giving up determinism: instead of letting
//! workers race for jobs at wall-clock time (which would make batch
//! boundaries, residency patterns and the modelled makespan a function
//! of thread scheduling), the planner simulates the pool's load with
//! one **virtual modelled clock per shard** and deals the work up
//! front:
//!
//! * **run dealing** — consecutive same-algorithm requests are dealt
//!   as one unit (capped at the engine's batch cap), so the miss
//!   batching the shards rely on survives the dispatch: a run stays
//!   contiguous in its shard's stream and coalesces into one
//!   `invoke_batch` call;
//! * **least-loaded deal** — each run goes to the shard whose
//!   projected clock is lowest, where a shard that has never hosted
//!   the algorithm is handicapped by *twice* its measured
//!   reconfiguration cost: once for the real install time the shard
//!   would pay, and once more as an affinity bonus, because cloning a
//!   bitstream burns pool-wide work (frames, decode, configuration
//!   bus) that a per-shard clock cannot see. A hot algorithm therefore
//!   stays put until its home shard is a full reconfiguration ahead —
//!   then it spills, and the clone pays for itself;
//! * **work stealing** — at fixed submission-index epochs (and once
//!   after the final deal), the poorest shard steals a *bundle* of
//!   whole runs from the tail of the richest shard's dealt queue: the
//!   shortest tail suffix whose moved work amortizes the installs it
//!   triggers on the thief, provided the move strictly narrows the
//!   clock gap. Migrations therefore always pay for their own
//!   reconfigurations — a stream too cheap to amortize an install is
//!   never scattered.
//!
//! Every decision is a pure function of the workload, the worker count
//! and these rules — never of wall-clock time — so a `Dynamic` run is
//! byte-identical across repetitions and thread interleavings, exactly
//! like the static policies.
//!
//! The cost model is *calibrated*, not guessed: before planning, each
//! distinct algorithm is installed and invoked twice on a scratch card
//! with its first-seen input (the same bring-up trick the deadline
//! layer uses). The second, resident invocation gives the steady-state
//! service time; the first minus the second gives the reconfiguration
//! cost. Both are modelled picoseconds, so the virtual clocks live in
//! the same unit as the simulation they predict. Other payload sizes
//! are scaled along the kernel's documented fabric-cycle curve. The
//! calibration depends only on the workload, so the plan stays pure.

use crate::coproc::CoProcessor;
use crate::engine::BATCH_MAX;
use crate::error::CoreError;
use aaod_algos::AlgorithmBank;
use aaod_sim::SimTime;
use aaod_workload::Workload;
use std::collections::{BTreeMap, BTreeSet};

/// Deal a steal epoch every this many submissions.
const STEAL_EPOCH: usize = 32;
/// Most runs one periodic epoch may move (the final drain epoch is
/// bounded by the run count instead).
const EPOCH_MOVE_CAP: usize = 4;
/// Fixed per-request overhead in the fallback shape (lookup +
/// dispatch), in shape units.
const OVERHEAD: u64 = 96;

/// Counters describing what the dynamic dispatch planner did. All
/// zero for the static policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchStats {
    /// Jobs dealt by the least-loaded rule.
    pub dealt: u64,
    /// Deals that landed on a shard where the algorithm was already
    /// resident (the affinity preference held).
    pub affinity_hits: u64,
    /// Jobs moved from the richest to the poorest shard by stealing.
    pub steals: u64,
    /// Steal epochs that moved at least one run.
    pub steal_epochs: u64,
}

/// One job moved by a steal epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StealRecord {
    /// Submission index of the stolen job.
    pub job: usize,
    /// The job's algorithm.
    pub algo_id: u16,
    /// Shard the job was dealt to (or last stolen to) before.
    pub from: u32,
    /// Shard that stole it.
    pub to: u32,
    /// The submission index whose deal triggered the epoch (`n` for
    /// the final drain epoch) — the submission walk emits the trace event
    /// when it reaches this index, keeping per-shard timestamps
    /// monotone.
    pub at_index: usize,
}

/// How the planner dealt one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decision {
    /// The shard the least-loaded rule chose (before any steal).
    pub shard: u32,
    /// Whether the deal was an affinity hit.
    pub affinity: bool,
}

/// The full dispatch plan for one workload: the final per-request
/// shard assignment plus the deal/steal ledger that produced it.
#[derive(Debug, Clone, Default)]
pub(crate) struct DispatchPlan {
    /// Final shard of every request (steals already applied).
    pub assignment: Vec<usize>,
    /// Per-request deal decisions (empty for static policies).
    pub decisions: Vec<Decision>,
    /// Steal moves in trigger order (empty for static policies).
    pub steals: Vec<StealRecord>,
    /// Planner counters.
    pub stats: DispatchStats,
}

impl DispatchPlan {
    /// Wraps a static policy's fixed assignment: no deals, no steals.
    pub fn from_static(assignment: Vec<usize>) -> Self {
        DispatchPlan {
            assignment,
            ..DispatchPlan::default()
        }
    }
}

/// The scaling shape along which one algorithm's calibrated cost is
/// stretched to other payload sizes: documented fabric cycles plus a
/// transfer term and a fixed overhead. Only ratios of this function
/// are ever used.
fn shape(bank: &AlgorithmBank, algo_id: u16, input_len: usize) -> u64 {
    let exec = match bank.kernel(algo_id) {
        Some(k) => k.fabric_cycles(input_len),
        None => input_len as u64 + 8,
    };
    (exec + input_len as u64 / 2 + OVERHEAD).max(1)
}

/// One algorithm's calibrated costs, in modelled picoseconds. Shared
/// with the cluster router, which runs the same calibrated model at
/// the second level of the hierarchy (cards instead of shards).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AlgoCost {
    /// Steady-state (resident) service time at the calibration length.
    pub(crate) warm_ps: u64,
    /// First-touch cost: reconfiguration + decode, i.e. cold minus
    /// warm invocation.
    pub(crate) miss_ps: u64,
    /// `shape()` at the calibration length, the scaling denominator.
    shape_base: u64,
}

/// A cold then a warm invocation's host total, or the first error.
type ColdWarm = Result<(SimTime, SimTime), CoreError>;

/// Installs each distinct algorithm of `workload` on `scratch` in id
/// order and invokes it twice with its first-seen input: per id, that
/// input's length and the two times. The scratch card is bring-up,
/// not serving time, and is dropped.
pub(crate) fn measure(
    workload: &Workload,
    mut scratch: CoProcessor,
) -> BTreeMap<u16, (usize, ColdWarm)> {
    let mut first_input: BTreeMap<u16, Vec<u8>> = BTreeMap::new();
    for (i, req) in workload.requests().iter().enumerate() {
        first_input
            .entry(req.algo_id)
            .or_insert_with(|| workload.input(i));
    }
    first_input
        .into_iter()
        .map(|(algo, input)| {
            let times = scratch.install(algo).and_then(|_| {
                let (_, cold) = scratch.invoke(algo, &input)?;
                let (_, warm) = scratch.invoke(algo, &input)?;
                Ok((cold.total(), warm.total()))
            });
            (algo, (input.len(), times))
        })
        .collect()
}

/// Calibrates every distinct algorithm of `workload` on `scratch` (see
/// [`measure`]). Building the scratch card with the *engine's* factory
/// means the measured miss costs reflect the shards' actual codec and
/// frame-store settings: when the DeltaV2 store shrinks
/// reconfiguration, the planner's affinity handicap shrinks with it
/// and spill decisions improve automatically. An algorithm the card
/// rejects falls back to a pure shape estimate so planning never
/// fails.
pub(crate) fn calibrate(
    workload: &Workload,
    bank: &AlgorithmBank,
    scratch: CoProcessor,
) -> BTreeMap<u16, AlgoCost> {
    measure(workload, scratch)
        .into_iter()
        .map(|(algo, (input_len, times))| {
            let shape_base = shape(bank, algo, input_len);
            let cost = match times {
                Ok((cold, warm)) => AlgoCost {
                    warm_ps: warm.as_ps().max(1),
                    miss_ps: cold.as_ps().saturating_sub(warm.as_ps()),
                    shape_base,
                },
                // Shape units read as ~nanoseconds; the ranking still
                // works and the miss bias stays conservative.
                Err(_) => AlgoCost {
                    warm_ps: shape_base * 1_000,
                    miss_ps: shape_base * 16_000,
                    shape_base,
                },
            };
            (algo, cost)
        })
        .collect()
}

/// Estimated modelled service time of one request in picoseconds: the
/// calibrated warm cost scaled along the kernel's shape curve.
pub(crate) fn estimate(
    cost: &AlgoCost,
    bank: &AlgorithmBank,
    algo_id: u16,
    input_len: usize,
) -> u64 {
    let s = shape(bank, algo_id, input_len);
    (cost.warm_ps as u128 * s as u128 / cost.shape_base as u128) as u64
}

/// A maximal batchable unit: consecutive same-algorithm requests,
/// capped at the engine's [`BATCH_MAX`].
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Submission index of the first member.
    start: usize,
    /// Number of members.
    len: usize,
    /// The run's algorithm.
    algo_id: u16,
    /// Summed member service estimates, picoseconds.
    cost: u64,
}

/// The mutable planner state a steal epoch rebalances.
struct PoolState {
    /// Virtual modelled clock of each shard, picoseconds.
    clocks: Vec<u64>,
    /// Algorithms ever dealt to each shard.
    resident: Vec<BTreeSet<u16>>,
    /// Runs dealt to each shard, deal order (the stealable tail).
    dealt: Vec<Vec<usize>>,
    /// Cost charged to the owning shard's clock for each run.
    charged: Vec<u64>,
}

/// Most runs one stolen bundle may contain.
const BUNDLE_CAP: usize = 32;

/// Runs one steal epoch at `at_index`: up to `max_moves` times, the
/// poorest shard (by virtual clock) steals a *bundle* of runs from
/// the tail of the richest shard's dealt queue. A bundle is the
/// shortest tail suffix whose summed service cost **amortizes** the
/// reconfigurations it would trigger on the thief (each distinct
/// algorithm the thief has never hosted costs one install) — so a
/// migration always pays for its own installs — and the move must
/// leave the thief strictly below the victim's old clock, so the
/// pool maximum never grows and the epoch terminates. Ties break on
/// the lowest shard index: the epoch is a pure function of the
/// clocks.
fn steal_epoch(
    at_index: usize,
    max_moves: usize,
    state: &mut PoolState,
    runs: &[Run],
    misses: &BTreeMap<u16, u64>,
    plan: &mut DispatchPlan,
) {
    let workers = state.clocks.len();
    let mut moved = false;
    for _ in 0..max_moves {
        let rich = (0..workers)
            .max_by_key(|&s| (state.clocks[s], std::cmp::Reverse(s)))
            .expect("workers >= 1");
        let poor = (0..workers)
            .min_by_key(|&s| (state.clocks[s], s))
            .expect("workers >= 1");
        if rich == poor {
            break;
        }
        // Grow the bundle from the victim's tail until the moved work
        // amortizes the thief's new installs; `give` grows with every
        // run, so the first amortized prefix is also the cheapest.
        let tail = &state.dealt[rich];
        let mut bundle_cost = 0u64;
        let mut bundle_miss = 0u64;
        let mut new_algos: BTreeSet<u16> = BTreeSet::new();
        let mut take = None;
        for (k, &run_idx) in tail
            .iter()
            .rev()
            .take(BUNDLE_CAP.min(tail.len()))
            .enumerate()
        {
            let run = &runs[run_idx];
            bundle_cost += run.cost;
            if !state.resident[poor].contains(&run.algo_id) && new_algos.insert(run.algo_id) {
                bundle_miss += misses.get(&run.algo_id).copied().unwrap_or(0);
            }
            if state.clocks[poor] + bundle_cost + bundle_miss >= state.clocks[rich] {
                break; // overshoot — a larger bundle only gives more
            }
            if bundle_cost >= bundle_miss {
                take = Some(k + 1);
                break;
            }
        }
        let Some(take) = take else {
            break; // no amortizable bundle fits under the gap
        };
        let cut = state.dealt[rich].len() - take;
        let bundle: Vec<usize> = state.dealt[rich].split_off(cut);
        let mut give = 0u64;
        let mut charged_miss: BTreeSet<u16> = BTreeSet::new();
        for &run_idx in &bundle {
            let run = &runs[run_idx];
            state.clocks[rich] -= state.charged[run_idx];
            // the first moved run of each newly installed algorithm
            // carries that algorithm's install in its charge
            let miss = if new_algos.contains(&run.algo_id) && charged_miss.insert(run.algo_id) {
                misses.get(&run.algo_id).copied().unwrap_or(0)
            } else {
                0
            };
            state.charged[run_idx] = run.cost + miss;
            give += run.cost + miss;
            state.resident[poor].insert(run.algo_id);
            state.dealt[poor].push(run_idx);
            let slots = &mut plan.assignment[run.start..run.start + run.len];
            for (offset, slot) in slots.iter_mut().enumerate() {
                let from = *slot as u32;
                *slot = poor;
                plan.steals.push(StealRecord {
                    job: run.start + offset,
                    algo_id: run.algo_id,
                    from,
                    to: poor as u32,
                    at_index,
                });
                plan.stats.steals += 1;
            }
        }
        state.clocks[poor] += give;
        moved = true;
    }
    if moved {
        plan.stats.steal_epochs += 1;
    }
}

/// Groups `workload` into batchable runs of up to [`BATCH_MAX`]
/// consecutive same-algorithm requests, each carrying its members'
/// summed service estimates (memoized per `(algo, len)`). Both
/// planners deal this one segmentation.
fn batch_runs(
    workload: &Workload,
    bank: &AlgorithmBank,
    calibrated: &BTreeMap<u16, AlgoCost>,
) -> Vec<Run> {
    let mut memo: BTreeMap<(u16, usize), u64> = BTreeMap::new();
    let mut runs: Vec<Run> = Vec::new();
    for (i, r) in workload.requests().iter().enumerate() {
        let cost = *memo
            .entry((r.algo_id, r.input_len))
            .or_insert_with(|| estimate(&calibrated[&r.algo_id], bank, r.algo_id, r.input_len));
        match runs.last_mut() {
            Some(run) if run.algo_id == r.algo_id && run.len < BATCH_MAX => {
                run.len += 1;
                run.cost += cost;
            }
            _ => runs.push(Run {
                start: i,
                len: 1,
                algo_id: r.algo_id,
                cost,
            }),
        }
    }
    runs
}

/// Computes the dynamic dispatch plan for `workload` over `workers`
/// shards with a default scratch card. Pure: same (workload, workers)
/// → same plan, bit for bit.
#[cfg(test)]
pub(crate) fn plan(workload: &Workload, workers: usize) -> DispatchPlan {
    plan_with(workload, workers, &CoProcessor::default)
}

/// Computes the dynamic dispatch plan for `workload` over `workers`
/// shards, dealing runs of up to [`BATCH_MAX`] same-algorithm requests
/// and calibrating costs on a scratch card built by `factory` (the
/// engine passes its shard factory, so plans track the shards' codec
/// and frame-store configuration). Pure for any pure factory: same
/// (workload, workers, factory-config) → same plan, bit for bit.
pub(crate) fn plan_with(
    workload: &Workload,
    workers: usize,
    factory: &(dyn Fn() -> CoProcessor + Send + Sync),
) -> DispatchPlan {
    let requests = workload.requests();
    let n = requests.len();
    let scratch = factory();
    let bank = scratch.os().bank().clone();
    let calibrated = calibrate(workload, &bank, scratch);
    let misses: BTreeMap<u16, u64> = calibrated
        .iter()
        .map(|(&algo, c)| (algo, c.miss_ps))
        .collect();

    let runs = batch_runs(workload, &bank, &calibrated);

    let mut state = PoolState {
        clocks: vec![0; workers],
        resident: vec![BTreeSet::new(); workers],
        dealt: vec![Vec::new(); workers],
        charged: vec![0; runs.len()],
    };
    let mut out = DispatchPlan {
        assignment: vec![0usize; n],
        decisions: Vec::with_capacity(n),
        steals: Vec::new(),
        stats: DispatchStats::default(),
    };
    let mut next_epoch = STEAL_EPOCH;
    // Inside an epoch window the deal runs at *arrival* speed: it
    // knows the calibrated clocks only as of the last epoch boundary
    // and tracks what it dealt since then by a cheap byte proxy (all
    // a dispatcher can tally without weighing each kernel). The steal
    // epoch then re-reads the cycle-aware clocks and repairs what the
    // byte proxy got wrong — a compute-dense algorithm hiding behind
    // a small byte share piles up inside a window and is spread by
    // the very next epoch. That modelled information gap is what
    // gives stealing real work to do.
    let mut snapshot = state.clocks.clone();
    let mut window_proxy = vec![0u64; workers];
    // proxy→picosecond conversion: the pool-average service rate
    let total_bytes: u64 = requests.iter().map(|r| r.input_len as u64 + 64).sum();
    let total_cost: u64 = runs.iter().map(|r| r.cost).sum();
    let rate = |bytes: u64| -> u64 {
        (bytes as u128 * total_cost as u128 / total_bytes.max(1) as u128) as u64
    };

    for (run_idx, run) in runs.iter().enumerate() {
        if run.start >= next_epoch {
            steal_epoch(
                run.start,
                EPOCH_MOVE_CAP,
                &mut state,
                &runs,
                &misses,
                &mut out,
            );
            next_epoch = (run.start / STEAL_EPOCH + 1) * STEAL_EPOCH;
            snapshot.copy_from_slice(&state.clocks);
            window_proxy.fill(0);
        }
        let miss = misses.get(&run.algo_id).copied().unwrap_or(0);
        let run_bytes: u64 = requests[run.start..run.start + run.len]
            .iter()
            .map(|r| r.input_len as u64 + 64)
            .sum();
        let mut best = 0usize;
        let mut best_key = u64::MAX;
        for s in 0..workers {
            // Cold shards are handicapped twice the reconfiguration:
            // once for the install the shard would really pay, once
            // as the affinity bonus (cloning burns pool-wide work).
            let penalty = if state.resident[s].contains(&run.algo_id) {
                0
            } else {
                miss.saturating_mul(2)
            };
            let key = snapshot[s]
                .saturating_add(window_proxy[s])
                .saturating_add(penalty);
            // strict `<`: ties break on the lowest shard index
            if key < best_key {
                best_key = key;
                best = s;
            }
        }
        let affinity = state.resident[best].contains(&run.algo_id);
        let add = run.cost + if affinity { 0 } else { miss };
        window_proxy[best] += rate(run_bytes) + if affinity { 0 } else { miss };
        state.clocks[best] += add;
        state.charged[run_idx] = add;
        state.resident[best].insert(run.algo_id);
        state.dealt[best].push(run_idx);
        for slot in &mut out.assignment[run.start..run.start + run.len] {
            *slot = best;
            out.decisions.push(Decision {
                shard: best as u32,
                affinity,
            });
            out.stats.dealt += 1;
            if affinity {
                out.stats.affinity_hits += 1;
            }
        }
    }
    // final drain epoch: rebalance the tails until no move helps
    steal_epoch(n, runs.len(), &mut state, &runs, &misses, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_algos::ids;

    fn zipf_mix(n: usize, seed: u64) -> Workload {
        let algos = [ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA];
        Workload::zipf(&algos, n, 1.2, 256, seed)
    }

    #[test]
    fn plan_is_deterministic() {
        let w = zipf_mix(200, 7);
        let a = plan(&w, 4);
        let b = plan(&w, 4);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.steals, b.steals);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn plan_covers_every_job_exactly_once() {
        let w = zipf_mix(150, 3);
        let p = plan(&w, 3);
        assert_eq!(p.assignment.len(), 150);
        assert_eq!(p.decisions.len(), 150);
        assert!(p.assignment.iter().all(|&s| s < 3));
        assert_eq!(p.stats.dealt, 150);
        assert_eq!(p.stats.steals, p.steals.len() as u64);
    }

    #[test]
    fn steals_chain_deal_to_final_assignment() {
        let w = zipf_mix(300, 11);
        let p = plan(&w, 4);
        // replay: start from the deal target, apply steals in order,
        // land on the final assignment
        let mut shard: Vec<u32> = p.decisions.iter().map(|d| d.shard).collect();
        for s in &p.steals {
            assert_eq!(shard[s.job], s.from, "steal chains from the previous owner");
            assert_ne!(s.from, s.to);
            shard[s.job] = s.to;
        }
        for (i, &s) in shard.iter().enumerate() {
            assert_eq!(s as usize, p.assignment[i]);
        }
        // steal trigger indices are non-decreasing (the submission walk replays
        // them with monotone timestamps)
        for pair in p.steals.windows(2) {
            assert!(pair[0].at_index <= pair[1].at_index);
        }
    }

    #[test]
    fn single_worker_degenerates_to_serial() {
        let w = zipf_mix(64, 5);
        let p = plan(&w, 1);
        assert!(p.assignment.iter().all(|&s| s == 0));
        assert_eq!(p.stats.steals, 0);
    }

    #[test]
    fn runs_stay_whole_on_one_shard() {
        // every batchable run (consecutive same-algo, capped at
        // BATCH_MAX) must land contiguously on a single shard, or the
        // workers' miss batching silently degrades
        let w = Workload::bursty(
            &[ids::SHA1, ids::CRC32, ids::CRC8, ids::XTEA],
            160,
            8,
            64,
            3,
        );
        let p = plan(&w, 4);
        let algos = w.algo_trace();
        let mut run_start = 0;
        for i in 1..=algos.len() {
            let boundary =
                i == algos.len() || algos[i] != algos[run_start] || i - run_start == BATCH_MAX;
            if boundary {
                let shard = p.assignment[run_start];
                assert!(
                    p.assignment[run_start..i].iter().all(|&s| s == shard),
                    "run [{run_start}, {i}) split across shards"
                );
                run_start = i;
            }
        }
    }

    #[test]
    fn affinity_keeps_runs_together_under_light_load() {
        // one algorithm, a stream far cheaper than a reconfiguration:
        // the affinity bonus must not scatter it across cold shards
        let w = Workload::uniform(&[ids::CRC32], 40, 64, 9);
        let p = plan(&w, 4);
        assert!(
            p.assignment.iter().all(|&s| s == p.assignment[0]),
            "cheap uniform stream scattered across cold shards"
        );
        // every deal after the first run rides the affinity bonus
        assert_eq!(
            p.stats.affinity_hits as usize,
            40 - BATCH_MAX,
            "{:?}",
            p.stats
        );
    }
}
