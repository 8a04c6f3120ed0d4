//! Order statistics with the benchmark's sample-count rule.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it. The rank is
/// `ceil(q·n)` (1-based), so `n − rank` samples are beyond it: p99 needs
/// at least 1000 samples, p90 at least 100, the median at least 20.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair for even
/// counts). Used for per-pass figures, which have too few samples for
/// the percentile rule and are reported as medians of passes.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// A reported percentile with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The value at the percentile.
    pub value: f64,
    /// Samples it was taken from.
    pub count: usize,
}

/// [`percentile`] with the count attached, or an error naming what fell
/// short — a run with too few samples fails rather than reporting.
pub fn quantile(what: &str, samples: &[f64], q: f64) -> Result<Quantile, String> {
    percentile(samples, q)
        .map(|value| Quantile {
            value,
            count: samples.len(),
        })
        .ok_or_else(|| {
            format!(
                "{what}: {} sample(s) leave fewer than {MIN_BEYOND} beyond p{}",
                samples.len(),
                (q * 100.0).round()
            )
        })
}
