//! Request-stream generators for the co-processor experiments.
//!
//! The paper's host "requests the execution of a particular algorithm,
//! from a bank of algorithms" — the interesting system behaviour
//! (hit rates, evictions, agility payoff) depends entirely on the
//! *pattern* of those requests. This crate generates deterministic
//! request streams with the shapes the experiments need:
//!
//! * [`Workload::uniform`] — every algorithm equally likely,
//! * [`Workload::zipf`] — skewed popularity (realistic: a few hot
//!   ciphers, a long tail),
//! * [`Workload::round_robin`] — the worst case for any cache,
//! * [`Workload::phased`] — working-set shifts (an IPSec gateway
//!   renegotiating cipher suites),
//! * [`Workload::bursty`] — long runs of one algorithm,
//! * [`Workload::from_trace`] — replay an explicit id sequence.
//!
//! # Examples
//!
//! ```
//! use aaod_workload::Workload;
//!
//! let w = Workload::zipf(&[1, 2, 3, 4], 100, 1.1, 256, 42);
//! assert_eq!(w.len(), 100);
//! let trace = w.algo_trace(); // feed to Replacement::belady
//! assert_eq!(trace.len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aaod_sim::SplitMix64;

pub mod mixes;

/// One host request: which algorithm, on how many input bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Algorithm id to invoke.
    pub algo_id: u16,
    /// Input payload length in bytes.
    pub input_len: usize,
}

/// Zipf(s = 1) CDF over `len` ranks (rank 1 hottest).
fn zipf_cdf(len: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=len).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(len);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    cdf
}

/// Deterministic input payload for request number `index` of a
/// workload seeded with `seed`.
pub fn request_input(seed: u64, index: usize, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut buf = vec![0u8; len];
    rng.fill(&mut buf);
    buf
}

/// Per-tenant traffic contract for a multi-tenant stream: which
/// algorithms the tenant calls, how much traffic it offers, and what
/// the admission layer owes it (weight) or caps it at (quota).
///
/// Weights are integers so [`Workload`] stays `Eq`; only their ratios
/// matter to weighted-fair shedding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant label (for experiment tables).
    pub name: String,
    /// The algorithms this tenant invokes (Zipf s = 1 within).
    pub algos: Vec<u16>,
    /// Weighted-fair entitlement under overload. Zero is treated as 1.
    pub weight: u32,
    /// Share of *offered* traffic, relative to the other tenants'
    /// `offered` values. A flooding tenant has `offered` far above
    /// its `weight`.
    pub offered: u32,
    /// Payload bytes per request.
    pub input_len: usize,
    /// Hard cap on jobs admitted for this tenant per engine run;
    /// beyond it jobs degrade to `QuotaExceeded`. `None` = unmetered.
    pub quota: Option<u64>,
}

/// A finite request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    name: String,
    seed: u64,
    requests: Vec<Request>,
    /// For a [`subset`](Workload::subset), the original index each
    /// request came from, so `input()` reproduces the source payload
    /// byte-for-byte. `None` for a freshly generated stream.
    source: Option<Vec<usize>>,
    /// Tenant index per request, for multi-tenant streams.
    tenant: Option<Vec<u16>>,
    /// The tenant contracts behind `tenant`, indexed by tenant id.
    specs: Option<Vec<TenantSpec>>,
    /// Arrival offset per request in *milli-interarrivals* (request
    /// `i` arrives at `interarrival × ticks[i] / 1000`), for streams
    /// with a shaped load curve. `None` = uniform open-loop spacing.
    ticks: Option<Vec<u64>>,
}

impl Workload {
    fn with_name(name: String, seed: u64, requests: Vec<Request>) -> Self {
        Workload {
            name,
            seed,
            requests,
            source: None,
            tenant: None,
            specs: None,
            ticks: None,
        }
    }

    /// Uniform-random algorithm choice.
    ///
    /// # Panics
    ///
    /// Panics if `algos` is empty.
    pub fn uniform(algos: &[u16], n: usize, input_len: usize, seed: u64) -> Self {
        assert!(!algos.is_empty(), "need at least one algorithm");
        let mut rng = SplitMix64::new(seed);
        let requests = (0..n)
            .map(|_| Request {
                algo_id: algos[rng.index(algos.len())],
                input_len,
            })
            .collect();
        Workload::with_name("uniform".into(), seed, requests)
    }

    /// Zipf-distributed popularity with exponent `s` (larger = more
    /// skewed). Rank 1 is the first algorithm in `algos`.
    ///
    /// # Panics
    ///
    /// Panics if `algos` is empty or `s` is not finite and positive.
    pub fn zipf(algos: &[u16], n: usize, s: f64, input_len: usize, seed: u64) -> Self {
        assert!(!algos.is_empty(), "need at least one algorithm");
        assert!(s.is_finite() && s > 0.0, "zipf exponent must be positive");
        let weights: Vec<f64> = (1..=algos.len())
            .map(|rank| 1.0 / (rank as f64).powf(s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        let mut rng = SplitMix64::new(seed);
        let requests = (0..n)
            .map(|_| {
                let u = rng.next_f64();
                let idx = cdf.partition_point(|&c| c < u).min(algos.len() - 1);
                Request {
                    algo_id: algos[idx],
                    input_len,
                }
            })
            .collect();
        Workload::with_name(format!("zipf(s={s})"), seed, requests)
    }

    /// Strict rotation through `algos` — defeats every non-clairvoyant
    /// policy once the working set exceeds the device.
    ///
    /// # Panics
    ///
    /// Panics if `algos` is empty.
    pub fn round_robin(algos: &[u16], n: usize, input_len: usize) -> Self {
        assert!(!algos.is_empty(), "need at least one algorithm");
        let requests = (0..n)
            .map(|i| Request {
                algo_id: algos[i % algos.len()],
                input_len,
            })
            .collect();
        Workload::with_name("round-robin".into(), 0, requests)
    }

    /// Phased working sets: every `phase_len` requests, a fresh subset
    /// of `working_set` algorithms becomes the active set.
    ///
    /// # Panics
    ///
    /// Panics if `algos` is empty, or `working_set` is zero or larger
    /// than `algos`.
    pub fn phased(
        algos: &[u16],
        n: usize,
        phase_len: usize,
        working_set: usize,
        input_len: usize,
        seed: u64,
    ) -> Self {
        assert!(!algos.is_empty(), "need at least one algorithm");
        assert!(
            (1..=algos.len()).contains(&working_set),
            "working set must be within the algorithm list"
        );
        let phase_len = phase_len.max(1);
        let mut rng = SplitMix64::new(seed);
        let mut active: Vec<u16> = Vec::new();
        let mut requests = Vec::with_capacity(n);
        for i in 0..n {
            if i % phase_len == 0 || active.is_empty() {
                let mut pool = algos.to_vec();
                rng.shuffle(&mut pool);
                active = pool[..working_set].to_vec();
            }
            requests.push(Request {
                algo_id: active[rng.index(active.len())],
                input_len,
            });
        }
        Workload::with_name(
            format!("phased(ws={working_set},len={phase_len})"),
            seed,
            requests,
        )
    }

    /// Bursts: pick an algorithm, issue `burst_len` consecutive
    /// requests to it, repeat.
    ///
    /// # Panics
    ///
    /// Panics if `algos` is empty.
    pub fn bursty(algos: &[u16], n: usize, burst_len: usize, input_len: usize, seed: u64) -> Self {
        assert!(!algos.is_empty(), "need at least one algorithm");
        let burst_len = burst_len.max(1);
        let mut rng = SplitMix64::new(seed);
        let mut requests = Vec::with_capacity(n);
        while requests.len() < n {
            let algo = algos[rng.index(algos.len())];
            for _ in 0..burst_len.min(n - requests.len()) {
                requests.push(Request {
                    algo_id: algo,
                    input_len,
                });
            }
        }
        Workload::with_name(format!("bursty(len={burst_len})"), seed, requests)
    }

    /// Adversarial straggler mix for shard-dispatch experiments: the
    /// `hot` algorithm is drawn with probability `hot_share` at
    /// `hot_len` bytes, and the remainder is Zipf-distributed (s = 1)
    /// over the `cold` algorithms at `cold_len` bytes.
    ///
    /// Pair a compute-dense hot kernel on *small* payloads with cheap
    /// cold kernels on *large* payloads and every static policy
    /// straggles: `algo_id % N` pins the whole hot stream to one
    /// shard, while a byte-weighted balanced partition sees the hot
    /// algorithm's tiny byte share and concentrates it too — even
    /// though its modelled fabric time dominates the run.
    ///
    /// # Panics
    ///
    /// Panics if `cold` is empty or `hot_share` is outside `(0, 1)`.
    pub fn straggler(
        hot: u16,
        hot_len: usize,
        cold: &[u16],
        cold_len: usize,
        n: usize,
        hot_share: f64,
        seed: u64,
    ) -> Self {
        assert!(!cold.is_empty(), "need at least one cold algorithm");
        assert!(
            hot_share > 0.0 && hot_share < 1.0,
            "hot share must be in (0, 1)"
        );
        let weights: Vec<f64> = (1..=cold.len()).map(|rank| 1.0 / rank as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        let mut rng = SplitMix64::new(seed);
        let requests = (0..n)
            .map(|_| {
                if rng.next_f64() < hot_share {
                    Request {
                        algo_id: hot,
                        input_len: hot_len,
                    }
                } else {
                    let u = rng.next_f64();
                    let idx = cdf.partition_point(|&c| c < u).min(cold.len() - 1);
                    Request {
                        algo_id: cold[idx],
                        input_len: cold_len,
                    }
                }
            })
            .collect();
        Workload::with_name(
            format!("straggler(hot={hot},share={hot_share})"),
            seed,
            requests,
        )
    }

    /// Multi-tenant fleet mix: each tenant is `(algos, weight,
    /// input_len)`. Every request first draws a tenant with
    /// probability proportional to its weight, then a Zipf(s = 1)
    /// algorithm within that tenant's list — so each tenant keeps a
    /// hot head and a cold tail, and the fleet interleaves them all.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty, any tenant has no algorithms, or
    /// any weight is not finite and positive.
    pub fn tenants(tenants: &[(&[u16], f64, usize)], n: usize, seed: u64) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        let mut tenant_cdf = Vec::with_capacity(tenants.len());
        let mut total = 0.0;
        for (algos, weight, _) in tenants {
            assert!(
                !algos.is_empty(),
                "every tenant needs at least one algorithm"
            );
            assert!(
                weight.is_finite() && *weight > 0.0,
                "tenant weight must be positive"
            );
            total += weight;
        }
        let mut acc = 0.0;
        for (_, weight, _) in tenants {
            acc += weight / total;
            tenant_cdf.push(acc);
        }
        // Per-tenant Zipf(s = 1) CDFs over that tenant's algorithms.
        let algo_cdfs: Vec<Vec<f64>> = tenants
            .iter()
            .map(|(algos, _, _)| {
                let weights: Vec<f64> = (1..=algos.len()).map(|rank| 1.0 / rank as f64).collect();
                let total: f64 = weights.iter().sum();
                let mut cdf = Vec::with_capacity(weights.len());
                let mut acc = 0.0;
                for w in &weights {
                    acc += w / total;
                    cdf.push(acc);
                }
                cdf
            })
            .collect();
        let mut rng = SplitMix64::new(seed);
        let mut tenant_of = Vec::with_capacity(n);
        let requests = (0..n)
            .map(|_| {
                let u = rng.next_f64();
                let t = tenant_cdf
                    .partition_point(|&c| c < u)
                    .min(tenants.len() - 1);
                tenant_of.push(t as u16);
                let (algos, _, input_len) = tenants[t];
                let v = rng.next_f64();
                let idx = algo_cdfs[t]
                    .partition_point(|&c| c < v)
                    .min(algos.len() - 1);
                Request {
                    algo_id: algos[idx],
                    input_len,
                }
            })
            .collect();
        let specs = tenants
            .iter()
            .enumerate()
            .map(|(i, (algos, weight, input_len))| TenantSpec {
                name: format!("t{i}"),
                algos: algos.to_vec(),
                // weights only matter by ratio; scale to keep Eq
                weight: ((weight * 1000.0).round() as u32).max(1),
                offered: ((weight * 1000.0).round() as u32).max(1),
                input_len: *input_len,
                quota: None,
            })
            .collect();
        let mut w = Workload::with_name(format!("tenants(k={})", tenants.len()), seed, requests);
        w.tenant = Some(tenant_of);
        w.specs = Some(specs);
        w
    }

    /// Multi-tenant mix driven by explicit [`TenantSpec`] contracts:
    /// every request draws a tenant with probability proportional to
    /// its `offered` share, then a Zipf(s = 1) algorithm within the
    /// tenant's list at the tenant's `input_len`. The resulting
    /// stream carries tenant ids and the specs themselves, so the
    /// engine's weighted-fair admission and per-tenant quotas can act
    /// on it — and [`subset`](Workload::subset) preserves both, so
    /// per-tenant accounting survives cluster partitioning.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, any tenant has no algorithms, or
    /// every `offered` share is zero.
    pub fn multi_tenant(specs: &[TenantSpec], n: usize, seed: u64) -> Self {
        assert!(!specs.is_empty(), "need at least one tenant");
        let total: u64 = specs.iter().map(|s| s.offered as u64).sum();
        assert!(total > 0, "at least one tenant must offer traffic");
        for s in specs {
            assert!(
                !s.algos.is_empty(),
                "every tenant needs at least one algorithm"
            );
        }
        let mut tenant_cdf = Vec::with_capacity(specs.len());
        let mut acc = 0u64;
        for s in specs {
            acc += s.offered as u64;
            tenant_cdf.push(acc);
        }
        let algo_cdfs: Vec<Vec<f64>> = specs.iter().map(|s| zipf_cdf(s.algos.len())).collect();
        let mut rng = SplitMix64::new(seed);
        let mut tenant_of = Vec::with_capacity(n);
        let requests = (0..n)
            .map(|_| {
                let u = (rng.next_f64() * total as f64) as u64;
                let t = tenant_cdf.partition_point(|&c| c <= u).min(specs.len() - 1);
                tenant_of.push(t as u16);
                let v = rng.next_f64();
                let idx = algo_cdfs[t]
                    .partition_point(|&c| c < v)
                    .min(specs[t].algos.len() - 1);
                Request {
                    algo_id: specs[t].algos[idx],
                    input_len: specs[t].input_len,
                }
            })
            .collect();
        let mut w = Workload::with_name(format!("multi-tenant(k={})", specs.len()), seed, requests);
        w.tenant = Some(tenant_of);
        w.specs = Some(specs.to_vec());
        w
    }

    /// Diurnal load curve: a deterministic triangle wave modulates the
    /// open-loop arrival gap between a peak (gap `g/ratio`) and a
    /// trough (gap `g`), repeating `periods` times over the stream,
    /// with the mean gap normalised to one interarrival. Algorithms
    /// are Zipf(s = 1) over `algos`. The curve is carried as
    /// [`arrival_tick`](Workload::arrival_tick) offsets, which the
    /// engine's overload layer replays instead of uniform spacing.
    ///
    /// # Panics
    ///
    /// Panics if `algos` is empty, `periods` is zero, or
    /// `peak_to_trough < 2`.
    pub fn diurnal(
        algos: &[u16],
        n: usize,
        periods: u32,
        peak_to_trough: u32,
        input_len: usize,
        seed: u64,
    ) -> Self {
        assert!(!algos.is_empty(), "need at least one algorithm");
        assert!(periods >= 1, "need at least one period");
        assert!(peak_to_trough >= 2, "peak:trough ratio must be >= 2");
        let ratio = peak_to_trough as u64;
        // trough gap g_max and peak gap g_max/ratio with the *mean*
        // gap pinned to 1000 milliticks: (g_min + g_max)/2 = 1000
        let g_max = 2000 * ratio / (ratio + 1);
        let g_min = g_max / ratio;
        let cdf = zipf_cdf(algos.len());
        let mut rng = SplitMix64::new(seed);
        let mut ticks = Vec::with_capacity(n);
        let mut now = 0u64;
        let requests = (0..n)
            .map(|i| {
                ticks.push(now);
                // triangle phase in [0, 1000]: 0 = peak, 1000 = trough
                let span = (n as u64).max(1);
                let ph = (i as u64 * periods as u64 * 2000) / span % 2000;
                let tri = if ph < 1000 { ph } else { 2000 - ph };
                now += g_min + (g_max - g_min) * tri / 1000;
                let u = rng.next_f64();
                let idx = cdf.partition_point(|&c| c < u).min(algos.len() - 1);
                Request {
                    algo_id: algos[idx],
                    input_len,
                }
            })
            .collect();
        let mut w = Workload::with_name(
            format!("diurnal(p={periods},ratio={peak_to_trough})"),
            seed,
            requests,
        );
        w.ticks = Some(ticks);
        w
    }

    /// Flash crowd: a Zipf(s = 1) baseline over `algos`, except that
    /// in the middle third of the stream the `hot` algorithm spikes —
    /// it is drawn with probability 0.9 and the arrival gap shrinks
    /// by `spike_mult` (10–50× is the interesting range). The spike
    /// is carried in both the algorithm choice and the
    /// [`arrival_tick`](Workload::arrival_tick) curve.
    ///
    /// # Panics
    ///
    /// Panics if `algos` is empty or `spike_mult < 2`.
    pub fn flash_crowd(
        algos: &[u16],
        hot: u16,
        n: usize,
        spike_mult: u32,
        input_len: usize,
        seed: u64,
    ) -> Self {
        assert!(!algos.is_empty(), "need at least one algorithm");
        assert!(spike_mult >= 2, "spike multiplier must be >= 2");
        let cdf = zipf_cdf(algos.len());
        let mut rng = SplitMix64::new(seed);
        let mut ticks = Vec::with_capacity(n);
        let mut now = 0u64;
        let requests = (0..n)
            .map(|i| {
                ticks.push(now);
                let in_spike = (n / 3..2 * n / 3).contains(&i);
                now += if in_spike {
                    (1000 / spike_mult as u64).max(1)
                } else {
                    1000
                };
                let algo_id = if in_spike && rng.next_f64() < 0.9 {
                    hot
                } else {
                    let u = rng.next_f64();
                    algos[cdf.partition_point(|&c| c < u).min(algos.len() - 1)]
                };
                Request { algo_id, input_len }
            })
            .collect();
        let mut w = Workload::with_name(
            format!("flash-crowd(hot={hot},x{spike_mult})"),
            seed,
            requests,
        );
        w.ticks = Some(ticks);
        w
    }

    /// Replays an explicit id trace with a fixed input length.
    pub fn from_trace<I: IntoIterator<Item = u16>>(trace: I, input_len: usize) -> Self {
        let requests = trace
            .into_iter()
            .map(|algo_id| Request { algo_id, input_len })
            .collect();
        Workload::with_name("trace".into(), 0, requests)
    }

    /// The workload's descriptive name (for experiment tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The seed the stream was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The requests in order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Just the algorithm ids, in order — the trace a
    /// Belady oracle needs.
    pub fn algo_trace(&self) -> Vec<u16> {
        self.requests.iter().map(|r| r.algo_id).collect()
    }

    /// Deterministic input payload for request `index`. For a
    /// [`subset`](Workload::subset) this is the payload of the
    /// *original* request, so a job carries identical bytes no matter
    /// which derived stream serves it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn input(&self, index: usize) -> Vec<u8> {
        let r = self.requests[index];
        request_input(self.seed, self.source_index(index), r.input_len)
    }

    /// The index this request had in the original (pre-subset)
    /// stream. Identity for a freshly generated workload.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn source_index(&self, index: usize) -> usize {
        match &self.source {
            Some(map) => map[index],
            None => {
                assert!(index < self.requests.len(), "request index out of range");
                index
            }
        }
    }

    /// A derived workload containing the picked requests, in the
    /// given order, that still reproduces the original payload bytes:
    /// `subset.input(k) == self.input(indices[k])`. Subsetting a
    /// subset composes through to the root stream.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Self {
        let requests = indices.iter().map(|&i| self.requests[i]).collect();
        let source = indices.iter().map(|&i| self.source_index(i)).collect();
        // Tenant ids and arrival ticks travel with the picked
        // requests, so per-tenant stats and the load curve survive
        // cluster partitioning.
        let tenant = self
            .tenant
            .as_ref()
            .map(|t| indices.iter().map(|&i| t[i]).collect());
        let ticks = self
            .ticks
            .as_ref()
            .map(|t| indices.iter().map(|&i| t[i]).collect());
        Workload {
            name: format!("{}[{}]", self.name, indices.len()),
            seed: self.seed,
            requests,
            source: Some(source),
            tenant,
            specs: self.specs.clone(),
            ticks,
        }
    }

    /// The tenant behind request `index`, for multi-tenant streams.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range on a multi-tenant stream.
    pub fn tenant_of(&self, index: usize) -> Option<u16> {
        self.tenant.as_ref().map(|t| t[index])
    }

    /// The tenant contracts behind a multi-tenant stream, indexed by
    /// the ids [`tenant_of`](Workload::tenant_of) returns.
    pub fn tenant_specs(&self) -> Option<&[TenantSpec]> {
        self.specs.as_deref()
    }

    /// Arrival offset of request `index` in milli-interarrivals
    /// (request `i` arrives at `interarrival × tick / 1000`), for
    /// streams with a shaped load curve ([`diurnal`](Workload::diurnal),
    /// [`flash_crowd`](Workload::flash_crowd)). `None` means uniform
    /// open-loop spacing (`interarrival × i`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range on a shaped stream.
    pub fn arrival_tick(&self, index: usize) -> Option<u64> {
        self.ticks.as_ref().map(|t| t[index])
    }

    /// The arrival stream an online predictor consumes: every request
    /// as `(index, algo_id, tick)` in submission order, where `tick`
    /// is the shaped [`arrival_tick`](Workload::arrival_tick) when the
    /// stream carries a load curve and the uniform open-loop offset
    /// `index × 1000` milli-interarrivals otherwise — so consumers see
    /// one continuous timebase regardless of how the stream was
    /// generated.
    pub fn arrivals(&self) -> impl Iterator<Item = (usize, u16, u64)> + '_ {
        self.requests.iter().enumerate().map(|(i, r)| {
            let tick = self.arrival_tick(i).unwrap_or(i as u64 * 1000);
            (i, r.algo_id, tick)
        })
    }

    /// Distinct algorithms referenced, sorted.
    pub fn distinct_algos(&self) -> Vec<u16> {
        let mut ids = self.algo_trace();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALGOS: [u16; 5] = [1, 2, 3, 4, 5];

    /// Payload bytes are part of every golden: their FNV-1a digests are
    /// pinned, so a change to the generator or its `fill` cannot drift
    /// the payloads under the goldens unnoticed.
    #[test]
    fn request_input_digests_are_pinned() {
        use aaod_fabric::digest::fnv1a64;
        assert_eq!(fnv1a64(&request_input(1, 5, 4096)), 0xeec5_8f66_1741_2527);
        assert_eq!(
            fnv1a64(&request_input(97531, 3, 1500)),
            0xfab1_26d0_5e06_2845
        );
    }

    #[test]
    fn generators_produce_n_requests() {
        assert_eq!(Workload::uniform(&ALGOS, 50, 8, 1).len(), 50);
        assert_eq!(Workload::zipf(&ALGOS, 50, 1.0, 8, 1).len(), 50);
        assert_eq!(Workload::round_robin(&ALGOS, 50, 8).len(), 50);
        assert_eq!(Workload::phased(&ALGOS, 50, 10, 2, 8, 1).len(), 50);
        assert_eq!(Workload::bursty(&ALGOS, 50, 7, 8, 1).len(), 50);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Workload::zipf(&ALGOS, 200, 1.2, 16, 9);
        let b = Workload::zipf(&ALGOS, 200, 1.2, 16, 9);
        assert_eq!(a, b);
        let c = Workload::zipf(&ALGOS, 200, 1.2, 16, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_skewed_toward_rank_one() {
        let w = Workload::zipf(&ALGOS, 10_000, 1.5, 8, 3);
        let count_1 = w.algo_trace().iter().filter(|&&a| a == 1).count();
        let count_5 = w.algo_trace().iter().filter(|&&a| a == 5).count();
        assert!(
            count_1 > count_5 * 3,
            "rank 1: {count_1}, rank 5: {count_5}"
        );
    }

    #[test]
    fn uniform_is_roughly_balanced() {
        let w = Workload::uniform(&ALGOS, 10_000, 8, 4);
        for &a in &ALGOS {
            let count = w.algo_trace().iter().filter(|&&x| x == a).count();
            assert!((1600..2400).contains(&count), "algo {a}: {count}");
        }
    }

    #[test]
    fn round_robin_cycles() {
        let w = Workload::round_robin(&[7, 8], 5, 4);
        assert_eq!(w.algo_trace(), vec![7, 8, 7, 8, 7]);
    }

    #[test]
    fn bursty_has_runs() {
        let w = Workload::bursty(&ALGOS, 100, 10, 4, 5);
        let trace = w.algo_trace();
        assert!(trace[..10].iter().all(|&a| a == trace[0]));
    }

    #[test]
    fn phased_uses_small_working_set_within_phase() {
        let w = Workload::phased(&ALGOS, 100, 25, 2, 4, 6);
        let trace = w.algo_trace();
        for phase in trace.chunks(25) {
            let mut distinct = phase.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() <= 2, "phase used {distinct:?}");
        }
    }

    #[test]
    fn straggler_mix_is_hot_dominated_and_deterministic() {
        let w = Workload::straggler(9, 64, &[1, 2, 3], 1500, 4_000, 0.5, 11);
        assert_eq!(w.len(), 4_000);
        let hot = w.algo_trace().iter().filter(|&&a| a == 9).count();
        assert!((1700..2300).contains(&hot), "hot count {hot}");
        for r in w.requests() {
            if r.algo_id == 9 {
                assert_eq!(r.input_len, 64);
            } else {
                assert_eq!(r.input_len, 1500);
            }
        }
        // cold tail is Zipf-skewed toward its first rank
        let c1 = w.algo_trace().iter().filter(|&&a| a == 1).count();
        let c3 = w.algo_trace().iter().filter(|&&a| a == 3).count();
        assert!(c1 > c3, "rank 1: {c1}, rank 3: {c3}");
        assert_eq!(
            w,
            Workload::straggler(9, 64, &[1, 2, 3], 1500, 4_000, 0.5, 11)
        );
    }

    #[test]
    #[should_panic(expected = "hot share")]
    fn straggler_rejects_degenerate_share() {
        let _ = Workload::straggler(9, 64, &[1], 256, 10, 1.0, 0);
    }

    #[test]
    fn trace_replay_and_inputs() {
        let w = Workload::from_trace([9u16, 9, 3], 5);
        assert_eq!(w.algo_trace(), vec![9, 9, 3]);
        assert_eq!(w.input(0).len(), 5);
        assert_eq!(w.input(0), w.input(0));
        assert_ne!(w.input(0), w.input(1));
        assert_eq!(w.distinct_algos(), vec![3, 9]);
    }

    #[test]
    fn subset_preserves_source_payloads() {
        let w = Workload::zipf(&ALGOS, 40, 1.1, 16, 7);
        let picked = [3usize, 17, 5, 39];
        let s = w.subset(&picked);
        assert_eq!(s.len(), picked.len());
        for (k, &i) in picked.iter().enumerate() {
            assert_eq!(s.requests()[k], w.requests()[i]);
            assert_eq!(s.input(k), w.input(i), "payload drifted at slot {k}");
            assert_eq!(s.source_index(k), i);
        }
        // Subsetting a subset composes through to the root stream.
        let nested = s.subset(&[2, 0]);
        assert_eq!(nested.input(0), w.input(5));
        assert_eq!(nested.source_index(1), 3);
    }

    #[test]
    fn tenants_mix_weights_and_lengths() {
        let spec: [(&[u16], f64, usize); 3] =
            [(&[1, 2], 6.0, 64), (&[3, 4], 3.0, 256), (&[5], 1.0, 1024)];
        let w = Workload::tenants(&spec, 10_000, 13);
        assert_eq!(w.len(), 10_000);
        assert_eq!(w, Workload::tenants(&spec, 10_000, 13));
        let mut counts = [0usize; 3];
        for r in w.requests() {
            let t = match r.algo_id {
                1 | 2 => 0,
                3 | 4 => 1,
                _ => 2,
            };
            counts[t] += 1;
            assert_eq!(r.input_len, spec[t].2);
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
        // Zipf head within the first tenant.
        let c1 = w.algo_trace().iter().filter(|&&a| a == 1).count();
        let c2 = w.algo_trace().iter().filter(|&&a| a == 2).count();
        assert!(c1 > c2, "rank 1: {c1}, rank 2: {c2}");
    }

    fn demo_specs() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "gw".into(),
                algos: vec![1, 2],
                weight: 4,
                offered: 1,
                input_len: 64,
                quota: None,
            },
            TenantSpec {
                name: "tm".into(),
                algos: vec![3, 4],
                weight: 2,
                offered: 1,
                input_len: 256,
                quota: Some(100),
            },
            TenantSpec {
                name: "flood".into(),
                algos: vec![5],
                weight: 1,
                offered: 8,
                input_len: 1024,
                quota: None,
            },
        ]
    }

    #[test]
    fn multi_tenant_follows_offered_shares_and_records_ids() {
        let specs = demo_specs();
        let w = Workload::multi_tenant(&specs, 10_000, 21);
        assert_eq!(w, Workload::multi_tenant(&specs, 10_000, 21));
        assert_eq!(w.tenant_specs().unwrap(), &specs[..]);
        let mut counts = [0usize; 3];
        for i in 0..w.len() {
            let t = w.tenant_of(i).unwrap() as usize;
            counts[t] += 1;
            assert!(specs[t].algos.contains(&w.requests()[i].algo_id));
            assert_eq!(w.requests()[i].input_len, specs[t].input_len);
        }
        // offered 1:1:8 — the flooder dominates despite its low weight
        assert!(counts[2] > 5 * counts[0], "{counts:?}");
        assert!(counts[2] > 5 * counts[1], "{counts:?}");
    }

    #[test]
    fn subset_carries_tenants_specs_and_ticks() {
        let w = Workload::multi_tenant(&demo_specs(), 200, 5);
        let picked = [7usize, 0, 150, 42];
        let s = w.subset(&picked);
        assert_eq!(s.tenant_specs(), w.tenant_specs());
        for (k, &i) in picked.iter().enumerate() {
            assert_eq!(s.tenant_of(k), w.tenant_of(i), "tenant lost at slot {k}");
            assert_eq!(s.input(k), w.input(i));
        }
        // nested subsets keep composing
        let nested = s.subset(&[3, 1]);
        assert_eq!(nested.tenant_of(0), w.tenant_of(42));
        // ...and arrival curves survive partitioning too
        let d = Workload::diurnal(&ALGOS, 100, 2, 4, 64, 9);
        let ds = d.subset(&[10, 90]);
        assert_eq!(ds.arrival_tick(0), d.arrival_tick(10));
        assert_eq!(ds.arrival_tick(1), d.arrival_tick(90));
        // legacy tenants() streams now carry ids through subsets as well
        let spec: [(&[u16], f64, usize); 2] = [(&[1, 2], 3.0, 64), (&[3], 1.0, 256)];
        let t = Workload::tenants(&spec, 50, 3);
        let ts = t.subset(&[5, 6]);
        assert_eq!(ts.tenant_of(0), t.tenant_of(5));
        assert!(t.tenant_specs().is_some());
    }

    #[test]
    fn diurnal_curve_is_mean_normalised_and_shaped() {
        let n = 4000;
        let w = Workload::diurnal(&ALGOS, n, 4, 8, 64, 17);
        assert_eq!(w, Workload::diurnal(&ALGOS, n, 4, 8, 64, 17));
        // ticks strictly increase and the mean gap is ~1000 milliticks
        let last = w.arrival_tick(n - 1).unwrap();
        for i in 1..n {
            assert!(w.arrival_tick(i).unwrap() > w.arrival_tick(i - 1).unwrap());
        }
        let mean = last / (n as u64 - 1);
        assert!((900..=1100).contains(&mean), "mean gap {mean}");
        // the peak must be markedly denser than the trough: compare
        // the tightest and widest 100-request windows
        let gaps: Vec<u64> = (1..n)
            .map(|i| w.arrival_tick(i).unwrap() - w.arrival_tick(i - 1).unwrap())
            .collect();
        let min_gap = *gaps.iter().min().unwrap();
        let max_gap = *gaps.iter().max().unwrap();
        assert!(max_gap >= 4 * min_gap, "min {min_gap}, max {max_gap}");
    }

    #[test]
    fn flash_crowd_spikes_hot_algo_and_arrival_rate() {
        let n = 3000;
        let w = Workload::flash_crowd(&ALGOS, 5, n, 20, 64, 23);
        assert_eq!(w, Workload::flash_crowd(&ALGOS, 5, n, 20, 64, 23));
        let trace = w.algo_trace();
        let hot_in_spike = trace[n / 3..2 * n / 3].iter().filter(|&&a| a == 5).count();
        let hot_outside = trace[..n / 3].iter().filter(|&&a| a == 5).count();
        assert!(
            hot_in_spike > n / 3 * 8 / 10,
            "hot in spike: {hot_in_spike}"
        );
        assert!(hot_outside < n / 6, "hot outside: {hot_outside}");
        // spike gaps are 20x tighter
        let pre = w.arrival_tick(1).unwrap() - w.arrival_tick(0).unwrap();
        let mid = w.arrival_tick(n / 2 + 1).unwrap() - w.arrival_tick(n / 2).unwrap();
        assert_eq!(pre, 1000);
        assert_eq!(mid, 50);
    }

    #[test]
    #[should_panic(expected = "spike multiplier")]
    fn flash_crowd_rejects_degenerate_spike() {
        let _ = Workload::flash_crowd(&ALGOS, 1, 10, 1, 8, 0);
    }

    #[test]
    #[should_panic(expected = "tenant weight")]
    fn tenants_reject_bad_weight() {
        let _ = Workload::tenants(&[(&[1u16][..], 0.0, 8)], 10, 0);
    }

    #[test]
    #[should_panic(expected = "at least one algorithm")]
    fn empty_algos_panics() {
        let _ = Workload::uniform(&[], 10, 8, 0);
    }

    #[test]
    #[should_panic(expected = "working set")]
    fn bad_working_set_panics() {
        let _ = Workload::phased(&ALGOS, 10, 5, 9, 8, 0);
    }
}
