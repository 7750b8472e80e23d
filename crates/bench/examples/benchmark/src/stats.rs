//! Order statistics shared by the rep aggregation and `compare`.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spreads printed here match the ones a reviewer
/// recomputes. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    match s.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range as a share of the median (0 when the median
/// is 0).
pub fn rel_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank quantile of integer samples, the same rank rule as
/// `aaod_sim::stats::Accumulator::quantile`; 0 when empty.
pub fn quantile_u64(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut s = values.to_vec();
    s.sort_unstable();
    s[((s.len() - 1) as f64 * q).round() as usize]
}

/// Signed counterpart of [`quantile_u64`] for derived (difference)
/// samples.
pub fn quantile_i64(values: &[i64], q: f64) -> i64 {
    if values.is_empty() {
        return 0;
    }
    let mut s = values.to_vec();
    s.sort_unstable();
    s[((s.len() - 1) as f64 * q).round() as usize]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
