//! Order statistics the harness reports: medians over repeated
//! windows and latency quantiles in which aborted attempts sort last.

/// Latency recorded for an attempt the scheduler aborted: it sorts
/// after every real sample, so an abort rate above `1 - q` pushes the
/// `q` quantile to "never finished".
pub const ABORTED: u64 = u64::MAX;

/// Median of `values` (mean of the two middle values for an even
/// count). The harness reports the median window of a phase and the
/// median of repeated set-ups, so one disturbed window or one cold
/// first set-up does not move the result.
///
/// # Panics
/// If `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` of an ascending-sorted sample: the
/// smallest element with at least `q` of the sample at or below it.
///
/// # Panics
/// If `sorted` is empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The quantiles of one open-loop phase, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
}

/// Summarises due-time latencies (nanoseconds, [`ABORTED`] for aborted
/// attempts). A quantile that lands on an aborted attempt reads as
/// `ceiling_ns`, the length of the phase: "slower than anything that
/// could have been measured".
pub fn latency(mut samples_ns: Vec<u64>, ceiling_ns: u64) -> Latency {
    samples_ns.sort_unstable();
    let us = |q: f64| quantile(&samples_ns, q).min(ceiling_ns) as f64 / 1e3;
    Latency {
        p50_us: us(0.50),
        p99_us: us(0.99),
        p999_us: us(0.999),
    }
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark contract is judged by. Quartiles
/// follow Python's `statistics.quantiles(values, n=4)` (exclusive
/// method), so `perf compare` and the driver agree.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, linearly interpolated
        // and clamped to the sample, as the exclusive method does.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    ((at(3) - at(1)) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle_window() {
        // Window throughputs of one closed phase: one disturbed window
        // (a GC burst) must not be the one reported.
        assert_eq!(median(&[200.0, 90.0, 210.0, 205.0, 198.0]), 200.0);
        // Four windows: the two middle ones are averaged.
        assert_eq!(median(&[100.0, 400.0, 200.0, 300.0]), 250.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.50), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 0.999), 100);
        assert_eq!(quantile(&[5], 0.99), 5);
    }

    #[test]
    fn aborted_attempts_sort_last() {
        // 97 fast commits and 3 aborts: p50 is a real latency, p99
        // lands on an abort and reads as the phase ceiling.
        let mut samples = vec![1_000u64; 97];
        samples.extend([ABORTED; 3]);
        let l = latency(samples, 5_000_000);
        assert_eq!(l.p50_us, 1.0);
        assert_eq!(l.p99_us, 5_000.0);

        // Under 1 % aborts the p99 is still a measured latency.
        let mut samples: Vec<u64> = (1..=999).map(|i| i * 1_000).collect();
        samples.push(ABORTED);
        let l = latency(samples, 10_000_000_000);
        assert_eq!(l.p99_us, 990.0);
        assert_eq!(l.p999_us, 999.0);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
